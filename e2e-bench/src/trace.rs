//! Spans around the benchmark's calls into each layer, kept in memory and
//! written out once the run ends.
//!
//! Every timed call goes through [`Tracer::time`], traced or not, so the
//! untraced run pays exactly one pair of `Instant::now` per call. With
//! tracing on, each call also records a span (name, layer, start, end,
//! parent). A layer's self time is the summed duration of its spans minus
//! the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records spans when enabled; times calls either way.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f`, returning its result and its wall time in seconds; when
    /// tracing, records it as a span of `layer` nested in the open span.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        let idx = self.on.then(|| {
            self.spans.push(Span {
                layer,
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let t0 = Instant::now();
        let out = f(self);
        let t1 = Instant::now();
        if let Some(i) = idx {
            self.open.pop();
            self.spans[i].start_ns = (t0 - self.origin).as_nanos() as u64;
            self.spans[i].end_ns = (t1 - self.origin).as_nanos() as u64;
        }
        (out, (t1 - t0).as_secs_f64())
    }

    /// Seconds of each layer's self time.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e9;
        }
        out
    }

    /// Every span as a JSON array.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let spin = |ms: u64| {
            let t0 = Instant::now();
            while t0.elapsed().as_millis() < ms as u128 {}
        };
        let (_, outer) = t.time("bench", "outer", |t| {
            spin(5);
            t.time("engine", "inner", |_| spin(10));
        });
        let own = t.self_seconds();
        assert!(outer >= 0.015);
        assert!(own["engine"] >= 0.010);
        assert!((own["bench"] + own["engine"] - outer).abs() < 1e-3);
        assert!(t.spans_json().contains("\"parent\": 0"));
    }

    #[test]
    fn untraced_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("engine", "x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.self_seconds().is_empty());
    }
}
