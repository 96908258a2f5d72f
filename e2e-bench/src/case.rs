//! One engine case: build, evaluate to fixpoint, query, then withdraw a
//! batch of input facts and put them back, checking every output against
//! an expected state computed apart from the engine.

use crate::alloc;
use crate::trace::Tracer;
use datalog::{Engine, EngineError, Program, StorageKind};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Checked operations attempted and failed, shared with the watchdog
/// so that a run cut short still reports what it did.
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
pub static FAILED: AtomicU64 = AtomicU64::new(0);

/// Counts one checked operation.
pub fn check(what: &str, ok: bool) -> bool {
    check_state(what, ok.then_some(()).ok_or("result"))
}

/// Counts one checked operation whose outcome names what differed.
pub fn check_state(what: &str, state: Result<(), &str>) -> bool {
    let ok = state.is_ok();
    ATTEMPTED.fetch_add(1, Relaxed);
    if !ok {
        FAILED.fetch_add(1, Relaxed);
        eprintln!("check failed: {what} ({})", state.unwrap_err());
    }
    ok
}

/// A database state the engine must reach, computed without it.
pub trait Expect {
    /// The first output relation of `e` that differs from this state.
    fn mismatch(&self, e: &Engine) -> Option<&'static str>;
    /// Expected rows of the queried relation whose first column is `p`.
    fn prefix(&self, p: u64) -> Vec<Vec<u64>>;
    /// The queried relation's tuples (binary), for the tree probe.
    fn tuples(&self) -> Vec<(u64, u64)>;
}

/// A program, its facts, and what withdrawing a batch of them must give.
pub struct Case {
    pub program: Program,
    /// Input facts per relation, loaded in this order.
    pub facts: Vec<(&'static str, Vec<Vec<u64>>)>,
    /// Relation that `Engine::query` probes.
    pub query_rel: &'static str,
    /// First-column prefixes of the query batch.
    pub prefixes: Vec<u64>,
    /// Facts withdrawn, and put back, on each cycle.
    pub batch: Vec<(String, Vec<u64>)>,
    /// Withdraw-then-re-add cycles.
    pub cycles: usize,
    /// Put the facts back by evaluating from scratch instead of
    /// `add_fact` + `run`, where the latter gives wrong results.
    pub reinsert_from_scratch: bool,
    /// State with every fact present.
    pub full: Box<dyn Expect>,
    /// State with `batch` withdrawn.
    pub cut: Box<dyn Expect>,
}

/// Setting up is repeated this often per case (median kept).
const SETUP_REPS: usize = 21;
/// The query batch is repeated this often per case (median kept).
const QUERY_REPS: usize = 15;

/// How the engine is built.
#[derive(Clone, Copy)]
pub struct Setting {
    pub kind: StorageKind,
    pub threads: usize,
}

/// Timings and counters of one round (summed over its cases).
#[derive(Default, Clone)]
pub struct Round {
    pub setup_s: f64,
    pub eval_s: f64,
    pub retract_s: f64,
    pub reinsert_s: f64,
    pub query_s: f64,
    pub reserved_bytes: f64,
    pub stored_tuples: f64,
    pub peak_bytes: usize,
    /// Additive per-layer quantities (ratios are formed at the end).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Round {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.layer.entry(key).or_insert(0.0) += v;
    }

    /// Folds another case's round into this one.
    pub fn absorb(&mut self, o: &Round) {
        self.setup_s += o.setup_s;
        self.eval_s += o.eval_s;
        self.retract_s += o.retract_s;
        self.reinsert_s += o.reinsert_s;
        self.query_s += o.query_s;
        self.reserved_bytes += o.reserved_bytes;
        self.stored_tuples += o.stored_tuples;
        self.peak_bytes = self.peak_bytes.max(o.peak_bytes);
        for (k, v) in &o.layer {
            if *k == "eval.sched_imbalance" {
                let e = self.layer.entry(k).or_insert(0.0);
                *e = e.max(*v);
            } else {
                self.add(k, *v);
            }
        }
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn load(e: &mut Engine, case: &Case) -> Result<(), EngineError> {
    case.facts
        .iter()
        .try_for_each(|(rel, rows)| e.add_facts(rel, rows.iter().cloned()))
}

/// `Err` naming the call that failed or the relation that differs.
fn outcome(called: bool, expect: &dyn Expect, e: &Engine) -> Result<(), &'static str> {
    if !called {
        return Err("engine error");
    }
    expect.mismatch(e).map_or(Ok(()), Err)
}

/// Engine phases: resets the allocation peak, times `f` as a span, and
/// keeps the highest engine-held byte count seen.
fn phase<R>(
    tracer: &mut Tracer,
    peak: &mut usize,
    base: usize,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> R,
) -> (R, f64) {
    alloc::reset_peak();
    let out = tracer.time("datalog::engine", name, f);
    *peak = (*peak).max(alloc::peak().saturating_sub(base));
    out
}

/// Runs one case through every phase.
pub fn run(tracer: &mut Tracer, set: Setting, case: &Case) -> Round {
    let mut r = Round::default();
    let base = alloc::live();
    let mut peak = 0usize;

    // Set-up is a few milliseconds at most: repeat it and keep the median.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous engine first so each set-up starts alike.
        drop(engine.take());
        let (built, new_s) = phase(tracer, &mut peak, base, "Engine::new", |_| {
            Engine::new(&case.program, set.kind, set.threads)
        });
        let Ok(mut e) = built else {
            check("Engine::new", false);
            return r;
        };
        let (loaded, load_s) = phase(tracer, &mut peak, base, "Engine::add_facts", |_| {
            load(&mut e, case)
        });
        if !check("Engine::add_facts", loaded.is_ok()) {
            return r;
        }
        setups.push(new_s + load_s);
        r.add("engine.new_s", new_s / SETUP_REPS as f64);
        r.add("engine.load_s", load_s / SETUP_REPS as f64);
        engine = Some(e);
    }
    let mut e = engine.expect("at least one set-up ran");
    r.setup_s = median(setups);

    let (ran, eval_s) = phase(tracer, &mut peak, base, "Engine::run", |_| e.run());
    check_state("eval", outcome(ran.is_ok(), case.full.as_ref(), &e));
    r.eval_s = eval_s;
    let s = *e.stats();
    let join_s: f64 = e.profile().iter().map(|p| p.seconds).sum();
    r.add("eval.join_s", join_s);
    r.add("engine.merge_s", eval_s - join_s);
    r.add("engine.iterations", s.iterations as f64);
    r.add("planner.lower_bound_calls", s.lower_bound_calls as f64);
    r.add("planner.tuples_scanned", s.tuples_scanned as f64);
    r.add("planner.produced_tuples", s.produced_tuples as f64);
    r.add("planner.inner_scans_full", s.inner_scans_full as f64);
    r.add("planner.inner_scans_indexed", s.inner_scans_indexed as f64);
    r.add("eval.tuples_emitted", s.tuples_emitted as f64);
    r.add("eval.chunks_claimed", s.chunks_claimed as f64);
    r.add("eval.chunks_stolen", s.chunks_stolen as f64);
    r.add("eval.hint_hits", s.hints.hits() as f64);
    r.add("eval.hint_misses", s.hints.misses() as f64);
    r.layer.insert("eval.sched_imbalance", s.sched_imbalance);

    // The query batch is milliseconds: repeat it and keep the median.
    let mut batches = Vec::with_capacity(QUERY_REPS);
    for rep in 0..QUERY_REPS {
        let (answers, secs) = phase(tracer, &mut peak, base, "Engine::query", |_| {
            case.prefixes
                .iter()
                .map(|&p| e.query(case.query_rel, &[p]))
                .collect::<Vec<_>>()
        });
        batches.push(secs);
        let mut returned = 0;
        for (&p, got) in case.prefixes.iter().zip(answers) {
            returned += got.as_ref().map_or(0, Vec::len);
            check("query", got.ok() == Some(case.full.prefix(p)));
        }
        if rep == 0 {
            r.add("query.tuples_returned", returned as f64);
        }
    }
    r.query_s = median(batches);

    for _ in 0..case.cycles {
        let before = *e.stats();
        let (out, secs) = phase(tracer, &mut peak, base, "Engine::retract_facts", |_| {
            e.retract_facts(case.batch.iter().cloned())
        });
        check_state("retract", outcome(out.is_ok(), case.cut.as_ref(), &e));
        r.retract_s += secs;
        let o = out.unwrap_or_default();
        let phases =
            o.overdelete_seconds + o.delete_seconds + o.rederive_seconds + o.fallback_seconds;
        r.add("dred.overdelete_s", o.overdelete_seconds);
        r.add("dred.delete_s", o.delete_seconds);
        r.add("dred.rederive_s", o.rederive_seconds);
        r.add("dred.fallback_s", o.fallback_seconds);
        r.add("dred.other_s", secs - phases);
        r.add("dred.overdeleted", o.overdeleted as f64);
        r.add("dred.rederived", o.rederived as f64);
        r.add("dred.recomputed_strata", o.recomputed_strata as f64);
        r.add(
            "planner.index_builds",
            (e.stats().index_builds - before.index_builds) as f64,
        );

        if case.reinsert_from_scratch {
            drop(e);
            let (fresh, secs) = phase(tracer, &mut peak, base, "Engine::new+add_facts+run", |_| {
                let mut f = Engine::new(&case.program, set.kind, set.threads)?;
                load(&mut f, case)?;
                f.run().map(|()| f)
            });
            let Ok(fresh) = fresh else {
                check("reinsert", false);
                return r;
            };
            e = fresh;
            check_state("reinsert", outcome(true, case.full.as_ref(), &e));
            r.reinsert_s += secs;
            r.add("engine.reinsert_scanned", e.stats().tuples_scanned as f64);
            continue;
        }
        let before = *e.stats();
        let (added, add_s) = phase(tracer, &mut peak, base, "Engine::add_fact", |_| {
            case.batch
                .iter()
                .try_for_each(|(rel, tuple)| e.add_fact(rel, tuple))
        });
        let (ran, run_s) = phase(tracer, &mut peak, base, "Engine::run", |_| e.run());
        check_state(
            "reinsert",
            outcome(added.is_ok() && ran.is_ok(), case.full.as_ref(), &e),
        );
        r.reinsert_s += add_s + run_s;
        r.add(
            "engine.reinsert_scanned",
            (e.stats().tuples_scanned - before.tuples_scanned) as f64,
        );
    }

    let (report, _) = tracer.time("datalog::storage", "Engine::storage_report", |_| {
        e.storage_report()
    });
    for rel in &report.relations {
        r.add("storage.index_trees", rel.index_perms.len() as f64);
        if let Some(t) = &rel.tree {
            r.reserved_bytes += t.arena.bytes_reserved as f64;
            r.stored_tuples += rel.len as f64;
            r.add("storage.live_bytes", t.live_bytes as f64);
            r.add("storage.reserved_bytes", t.arena.bytes_reserved as f64);
            r.add("storage.graveyard_leaves", t.buried_leaves as f64);
            r.add("storage.sentinels", t.sentinels as f64);
        }
    }
    r.peak_bytes = peak;
    r
}

/// Reference figures, from traced runs only: `run()` with the planner
/// off, and a from-scratch evaluation (build, load, run) of the facts
/// that survive the withdrawal. Both outputs are checked.
pub fn reference(set: Setting, case: &Case) -> (f64, f64) {
    let build = || Engine::new(&case.program, set.kind, set.threads);
    let off_s = match build() {
        Ok(mut e) => {
            e.set_planner_enabled(false);
            let loaded = load(&mut e, case);
            let t0 = Instant::now();
            let ran = loaded.and_then(|()| e.run());
            let secs = t0.elapsed().as_secs_f64();
            check_state(
                "eval, planner off",
                outcome(ran.is_ok(), case.full.as_ref(), &e),
            );
            secs
        }
        Err(_) => {
            check("Engine::new", false);
            0.0
        }
    };
    let gone: HashSet<(&str, &[u64])> = case
        .batch
        .iter()
        .map(|(rel, t)| (rel.as_str(), t.as_slice()))
        .collect();
    let t0 = Instant::now();
    let scratch = build().and_then(|mut e| {
        for (rel, rows) in &case.facts {
            let kept = rows
                .iter()
                .filter(|t| !gone.contains(&(*rel, t.as_slice())));
            e.add_facts(rel, kept.cloned())?;
        }
        e.run().map(|()| e)
    });
    let scratch_s = t0.elapsed().as_secs_f64();
    match scratch {
        Ok(e) => check_state("from scratch", outcome(true, case.cut.as_ref(), &e)),
        Err(_) => check("from scratch", false),
    };
    (off_s, scratch_s)
}
