//! End-to-end engine benchmark.
//!
//! ```text
//! e2e-bench --workload <pointsto|network|chain_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//!           [--storage specbtree|nohints|sharded:<n>] [--threads <n>]
//! ```
//!
//! With `--trace 0` it repeats whole rounds of the workload for
//! `--seconds` and prints the median over rounds of each end-to-end
//! metric. With `--trace 1` it runs a traced round between two untraced
//! ones, probes the `specbtree` layer on the workload's largest relation,
//! writes every span to `.bench_out/`, and prints the per-layer metrics.
//! The last line of standard output is one JSON object. See README.md.

mod alloc;
mod case;
mod check;
mod probe;
mod trace;
mod workload;

use case::{median, Round, Setting, ATTEMPTED, FAILED};
use datalog::StorageKind;
use std::fmt::Write as _;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: e2e-bench --workload <pointsto|network|chain_churn> --seed <n> \
--seconds <s> --trace <0|1> [--storage specbtree|nohints|sharded:<n>] [--threads <n>]";

/// Worker threads, unless `--threads` says otherwise: at two, both tree
/// storages lose derived tuples now and then (see README).
const THREADS: usize = 1;
/// A run still going this long after its `--seconds` is taken as hung.
const HANG_MARGIN_S: f64 = 120.0;
/// Heap bytes past which a run is stopped as failed (the workloads need
/// well under 1 GiB).
const HEAP_CAP: usize = 4 << 30;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    storage: Option<StorageKind>,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        storage: None,
        threads: THREADS,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, v] = pair else {
            return Err(format!("missing value for {}", pair[0]));
        };
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (0.0..=3600.0).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => a.trace = v.parse::<u8>().map_err(|_| bad())? != 0,
            "--threads" => {
                let n: usize = v.parse().map_err(|_| bad())?;
                if !(1..=64).contains(&n) {
                    return Err(format!("--threads must be 1..=64, got {n}"));
                }
                a.threads = n;
            }
            "--storage" => {
                a.storage = Some(match v.as_str() {
                    "specbtree" => StorageKind::SpecBTree,
                    "nohints" => StorageKind::SpecBTreeNoHints,
                    s => match s.strip_prefix("sharded:").map(str::parse::<usize>) {
                        Some(Ok(n)) if (1..=64).contains(&n) => StorageKind::ShardedBTree(n),
                        _ => return Err(format!("bad value for --storage: {v}")),
                    },
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Prints the result line: `{"correct", "attempted", "failed", "metrics"}`.
fn print_result(metrics: &[(&str, f64, &str)]) {
    let attempted = ATTEMPTED.load(Relaxed).max(1);
    let failed = FAILED.load(Relaxed);
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        failed == 0
    );
}

/// One round: every case of the workload, in order, summed.
fn round(tracer: &mut Tracer, set: Setting, cases: &[case::Case]) -> (Round, f64) {
    tracer.time("bench", "round", |t| {
        let mut r = Round::default();
        for c in cases {
            let (cr, _) = t.time("bench", "case", |t| case::run(t, set, c));
            r.absorb(&cr);
        }
        r
    })
}

const MIB: f64 = 1024.0 * 1024.0;

/// Each timing is the median over the run's rounds of the round's total;
/// the byte figures are deterministic at one thread and come from the
/// last round.
fn end_to_end(rounds: &[Round]) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let last = rounds.last().expect("at least one round");
    vec![
        ("setup_s", med(|r| r.setup_s), "s"),
        ("eval_s", med(|r| r.eval_s), "s"),
        ("retract_s", med(|r| r.retract_s), "s"),
        ("reinsert_s", med(|r| r.reinsert_s), "s"),
        ("query_s", med(|r| r.query_s), "s"),
        (
            "bytes_per_tuple",
            last.reserved_bytes / last.stored_tuples.max(1.0),
            "B",
        ),
        ("peak_rss_mib", last.peak_bytes as f64 / MIB, "MiB"),
    ]
}

/// Per-layer metrics from one traced round, with the units they print in.
fn per_layer(
    r: &Round,
    overhead: f64,
    probe: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    let g = |k: &str| r.layer.get(k).copied().unwrap_or(0.0);
    let hints = g("eval.hint_hits") + g("eval.hint_misses");
    let mut out = vec![
        ("engine.new_s", g("engine.new_s"), "s"),
        ("engine.load_s", g("engine.load_s"), "s"),
        ("engine.iterations", g("engine.iterations"), "count"),
        ("engine.merge_s", g("engine.merge_s"), "s"),
        (
            "engine.reinsert_scanned",
            g("engine.reinsert_scanned"),
            "count",
        ),
        (
            "planner.lower_bound_calls",
            g("planner.lower_bound_calls"),
            "count",
        ),
        (
            "planner.tuples_scanned",
            g("planner.tuples_scanned"),
            "count",
        ),
        (
            "planner.scanned_per_produced",
            g("planner.tuples_scanned") / g("planner.produced_tuples").max(1.0),
            "ratio",
        ),
        (
            "planner.inner_scans_full",
            g("planner.inner_scans_full"),
            "count",
        ),
        (
            "planner.inner_scans_indexed",
            g("planner.inner_scans_indexed"),
            "count",
        ),
        ("planner.index_builds", g("planner.index_builds"), "count"),
        ("eval.join_s", g("eval.join_s"), "s"),
        ("eval.tuples_emitted", g("eval.tuples_emitted"), "count"),
        ("eval.chunks_claimed", g("eval.chunks_claimed"), "count"),
        ("eval.chunks_stolen", g("eval.chunks_stolen"), "count"),
        ("eval.sched_imbalance", g("eval.sched_imbalance"), "ratio"),
        (
            "eval.hint_hit_rate",
            if hints > 0.0 {
                g("eval.hint_hits") / hints
            } else {
                0.0
            },
            "ratio",
        ),
        ("dred.overdelete_s", g("dred.overdelete_s"), "s"),
        ("dred.delete_s", g("dred.delete_s"), "s"),
        ("dred.rederive_s", g("dred.rederive_s"), "s"),
        ("dred.fallback_s", g("dred.fallback_s"), "s"),
        ("dred.other_s", g("dred.other_s"), "s"),
        ("dred.overdeleted", g("dred.overdeleted"), "count"),
        ("dred.rederived", g("dred.rederived"), "count"),
        (
            "dred.recomputed_strata",
            g("dred.recomputed_strata"),
            "count",
        ),
        ("storage.live_bytes", g("storage.live_bytes"), "B"),
        ("storage.reserved_bytes", g("storage.reserved_bytes"), "B"),
        (
            "storage.graveyard_leaves",
            g("storage.graveyard_leaves"),
            "count",
        ),
        ("storage.sentinels", g("storage.sentinels"), "count"),
        ("storage.index_trees", g("storage.index_trees"), "count"),
        ("query.tuples_returned", g("query.tuples_returned"), "count"),
    ];
    out.extend(probe.iter().map(|&(k, v)| (k, v, "ns")));
    out.push(("trace.overhead_s", overhead, "s"));
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::SPECS.iter().find(|s| s.name == args.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let set = Setting {
        kind: args.storage.unwrap_or(spec.kind),
        threads: args.threads,
    };
    eprintln!(
        "workload {} seed {} storage {} threads {}",
        spec.name,
        args.seed,
        set.kind.label(),
        set.threads
    );

    // A hung evaluation (a looping leaf chain, say) counts as one failed
    // operation; the result is printed and the process ends. A looping
    // chain read into a `Vec` grows without end, so the heap is capped too.
    let timeout = Duration::from_secs_f64(args.seconds + HANG_MARGIN_S);
    std::thread::spawn(move || {
        let start = Instant::now();
        while start.elapsed() < timeout && alloc::live() < HEAP_CAP {
            std::thread::sleep(Duration::from_millis(20));
        }
        ATTEMPTED.fetch_add(1, Relaxed);
        FAILED.fetch_add(1, Relaxed);
        eprintln!(
            "stopped after {:?} with {} MiB of heap",
            start.elapsed(),
            alloc::live() >> 20
        );
        print_result(&[]);
        std::process::exit(0);
    });

    let cases = (spec.make)(args.seed);
    if !args.trace {
        let start = Instant::now();
        let mut tracer = Tracer::new(false);
        let mut rounds = Vec::new();
        loop {
            let (r, wall) = round(&mut tracer, set, &cases);
            eprintln!(
                "round {}: {wall:.3}s tuples {} setup {:.5} eval {:.4} retract {:.4} reinsert {:.4} query {:.5}",
                rounds.len(),
                r.stored_tuples,
                r.setup_s,
                r.eval_s,
                r.retract_s,
                r.reinsert_s,
                r.query_s
            );
            rounds.push(r);
            if start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        print_result(&end_to_end(&rounds));
        return;
    }

    // Untraced rounds before and after the traced one, so that warm-up
    // does not count as tracing overhead.
    let (_, before) = round(&mut Tracer::new(false), set, &cases);
    let mut tracer = Tracer::new(true);
    let (r, traced) = round(&mut tracer, set, &cases);
    let (_, after) = round(&mut Tracer::new(false), set, &cases);
    let untraced = (before + after) / 2.0;
    let largest = cases
        .iter()
        .map(|c| c.full.tuples())
        .max_by_key(Vec::len)
        .unwrap_or_default();
    let probe = probe::run(&mut tracer, &largest, set.threads, args.seed);
    let metrics = per_layer(&r, traced - untraced, &probe);
    let (off, scratch) = cases.iter().fold((0.0, 0.0), |(a, b), c| {
        let (x, y) = case::reference(set, c);
        (a + x, b + y)
    });
    let reference = [
        ("eval_s", r.eval_s),
        ("eval_planner_off_s", off),
        ("retract_s", r.retract_s),
        ("from_scratch_cut_s", scratch),
        ("reinsert_s", r.reinsert_s),
    ];
    write_trace(&args, &tracer, &metrics, &reference);
    print_result(&metrics);
}

/// Writes spans, self time per layer, reference figures and the
/// per-layer metrics to `.bench_out/trace-<workload>-<seed>.json`.
fn write_trace(
    args: &Args,
    tracer: &Tracer,
    metrics: &[(&str, f64, &str)],
    reference: &[(&str, f64)],
) {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"self_s\": {{",
        args.workload, args.seed
    );
    for (i, (layer, s)) in tracer.self_seconds().iter().enumerate() {
        let _ = write!(out, "{}\"{layer}\": {s}", if i > 0 { ", " } else { "" });
    }
    out.push_str("}, \"reference\": {");
    for (i, (name, v)) in reference.iter().enumerate() {
        eprintln!("reference {name}: {v:.4}");
        let _ = write!(out, "{}\"{name}\": {v}", if i > 0 { ", " } else { "" });
    }
    out.push_str("}, \"metrics\": {");
    for (i, (name, v, _)) in metrics.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\": {v}", if i > 0 { ", " } else { "" });
    }
    let _ = writeln!(out, "}}, \"spans\": {}}}", tracer.spans_json());
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
