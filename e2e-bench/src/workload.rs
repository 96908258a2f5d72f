//! The three workloads: fixed fact bases and withdrawn batches, query
//! batches drawn from the seed, and the expected states the checks
//! compare against.

use crate::case::{Case, Expect};
use crate::check::{chain_expected, network_reference, pointsto_hpt, same_rows, NetworkOut};
use datalog::{parse, Engine, StorageKind};
use std::collections::BTreeSet;
use workloads::network::{self, NetworkConfig, NetworkFacts};
use workloads::pointsto::{self, reference_vpt, PointsToConfig, PointsToFacts};
use workloads::rng::SplitMix64;

/// Fig 5a: programs in the points-to suite, and their scale.
const POINTSTO_PROGRAMS: u64 = 11;
const POINTSTO_SCALE: usize = 3;
/// `assign` facts withdrawn per program.
const POINTSTO_WITHDRAWN: usize = 1;
/// Fig 5b scale (instances = 60 × scale).
const NETWORK_SCALE: usize = 20;
/// Chain edges: the closure holds edges × (edges + 1) / 2 tuples.
const CHAIN_EDGES: u64 = 700;
/// Withdraw-then-re-add cycles of the chain's last 1% of edges.
const CHAIN_CYCLES: usize = 3;
/// Prefix lookups in one query batch.
const QUERIES: usize = 2000;

/// A workload's storage kind and cases.
pub struct Spec {
    pub name: &'static str,
    pub kind: StorageKind,
    pub make: fn(u64) -> Vec<Case>,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "pointsto",
        kind: StorageKind::SpecBTree,
        make: pointsto_cases,
    },
    Spec {
        name: "network",
        kind: StorageKind::ShardedBTree(2),
        make: network_cases,
    },
    Spec {
        name: "chain_churn",
        kind: StorageKind::SpecBTree,
        make: chain_cases,
    },
];

/// `count` indices spread evenly over `0..len`, none at either end.
fn spaced(len: usize, count: usize) -> Vec<usize> {
    (1..=count).map(|j| j * len / (count + 1)).collect()
}

fn prefix_of(set: &BTreeSet<(u64, u64)>, p: u64) -> Vec<Vec<u64>> {
    set.range((p, 0)..=(p, u64::MAX))
        .map(|&(a, b)| vec![a, b])
        .collect()
}

fn pairs(rows: &[(u64, u64)]) -> Vec<Vec<u64>> {
    rows.iter().map(|&(a, b)| vec![a, b]).collect()
}

fn triples(rows: &[(u64, u64, u64)]) -> Vec<Vec<u64>> {
    rows.iter().map(|&(a, b, c)| vec![a, b, c]).collect()
}

/// `Some(rel)` unless the engine's `rel` equals `expect` exactly.
fn differs<const N: usize>(
    e: &Engine,
    rel: &'static str,
    expect: impl IntoIterator<Item = [u64; N]>,
) -> Option<&'static str> {
    let ok = e.relation(rel).is_ok_and(|rows| same_rows(&rows, expect));
    (!ok).then_some(rel)
}

fn pair_rows(set: &BTreeSet<(u64, u64)>) -> impl Iterator<Item = [u64; 2]> + '_ {
    set.iter().map(|&(a, b)| [a, b])
}

/// The two outputs of the points-to analysis.
struct PointsTo {
    vpt: BTreeSet<(u64, u64)>,
    hpt: BTreeSet<(u64, u64, u64)>,
}

impl PointsTo {
    fn of(facts: &PointsToFacts) -> Self {
        let vpt = reference_vpt(facts);
        let hpt = pointsto_hpt(&facts.stores, &vpt);
        PointsTo { vpt, hpt }
    }
}

impl Expect for PointsTo {
    fn mismatch(&self, e: &Engine) -> Option<&'static str> {
        differs(e, "vpt", pair_rows(&self.vpt))
            .or_else(|| differs(e, "hpt", self.hpt.iter().map(|&(h, f, g)| [h, f, g])))
    }
    fn prefix(&self, p: u64) -> Vec<Vec<u64>> {
        prefix_of(&self.vpt, p)
    }
    fn tuples(&self) -> Vec<(u64, u64)> {
        self.vpt.iter().copied().collect()
    }
}

fn pointsto_cases(seed: u64) -> Vec<Case> {
    let cfg = PointsToConfig::scaled(POINTSTO_SCALE);
    let mut rng = SplitMix64::new(seed);
    (0..POINTSTO_PROGRAMS)
        .map(|i| {
            let facts = pointsto::generate_facts(&cfg, i);
            let gone = spaced(facts.assigns.len(), POINTSTO_WITHDRAWN);
            let kept = PointsToFacts {
                assigns: (0..facts.assigns.len())
                    .filter(|j| gone.binary_search(j).is_err())
                    .map(|j| facts.assigns[j])
                    .collect(),
                ..facts.clone()
            };
            Case {
                program: pointsto::program(),
                facts: vec![
                    ("new", pairs(&facts.news)),
                    ("assign", pairs(&facts.assigns)),
                    ("store", triples(&facts.stores)),
                    ("load", triples(&facts.loads)),
                ],
                query_rel: "vpt",
                prefixes: (0..QUERIES / POINTSTO_PROGRAMS as usize)
                    .map(|_| rng.below(cfg.variables))
                    .collect(),
                batch: gone
                    .iter()
                    .map(|&j| {
                        (
                            "assign".to_string(),
                            vec![facts.assigns[j].0, facts.assigns[j].1],
                        )
                    })
                    .collect(),
                cycles: 1,
                reinsert_from_scratch: false,
                full: Box::new(PointsTo::of(&facts)),
                cut: Box::new(PointsTo::of(&kept)),
            }
        })
        .collect()
}

struct Net(NetworkOut);

impl Expect for Net {
    fn mismatch(&self, e: &Engine) -> Option<&'static str> {
        differs(e, "reach", pair_rows(&self.0.reach))
            .or_else(|| differs(e, "vulnerable", pair_rows(&self.0.vulnerable)))
            .or_else(|| differs(e, "isolated", self.0.isolated.iter().map(|&i| [i])))
    }
    fn prefix(&self, p: u64) -> Vec<Vec<u64>> {
        prefix_of(&self.0.reach, p)
    }
    fn tuples(&self) -> Vec<(u64, u64)> {
        self.0.reach.iter().copied().collect()
    }
}

fn network_cases(seed: u64) -> Vec<Case> {
    let cfg = NetworkConfig::scaled(NETWORK_SCALE);
    let facts = network::generate_facts(&cfg, 0);
    let mut rng = SplitMix64::new(seed);
    let gone = spaced(facts.allow.len(), (facts.allow.len() / 100).max(1));
    let kept = NetworkFacts {
        allow: (0..facts.allow.len())
            .filter(|j| gone.binary_search(j).is_err())
            .map(|j| facts.allow[j])
            .collect(),
        ..facts.clone()
    };
    let units = |v: &[u64]| v.iter().map(|&a| vec![a]).collect::<Vec<_>>();
    vec![Case {
        program: network::program(),
        facts: vec![
            ("in_group", pairs(&facts.in_group)),
            ("allow", triples(&facts.allow)),
            ("listens", pairs(&facts.listens)),
            ("public", units(&facts.public)),
            ("sensitive", units(&facts.sensitive)),
        ],
        query_rel: "reach",
        prefixes: (0..QUERIES).map(|_| rng.below(cfg.instances)).collect(),
        batch: gone
            .iter()
            .map(|&j| {
                let (a, b, c) = facts.allow[j];
                ("allow".to_string(), vec![a, b, c])
            })
            .collect(),
        cycles: 1,
        // `add_fact` + `run` leaves stale `isolated` tuples (see README).
        reinsert_from_scratch: true,
        full: Box::new(Net(network_reference(&facts))),
        cut: Box::new(Net(network_reference(&kept))),
    }]
}

const TC_PROGRAM: &str = r#"
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .output path
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

/// The chain `0 -> 1 -> ... -> n` with the edges starting at `cut` removed.
struct Chain {
    n: u64,
    cut: BTreeSet<u64>,
}

impl Expect for Chain {
    fn mismatch(&self, e: &Engine) -> Option<&'static str> {
        let expect = chain_expected(self.n, &self.cut).map(|(x, y)| [x, y]);
        differs(e, "path", expect)
    }
    fn prefix(&self, p: u64) -> Vec<Vec<u64>> {
        let end = self.cut.range(p..).next().copied().unwrap_or(self.n);
        (p + 1..=end).map(|y| vec![p, y]).collect()
    }
    fn tuples(&self) -> Vec<(u64, u64)> {
        chain_expected(self.n, &self.cut).collect()
    }
}

fn chain_cases(seed: u64) -> Vec<Case> {
    let n = CHAIN_EDGES;
    let tail = (n / 100).max(1);
    let mut rng = SplitMix64::new(seed);
    vec![Case {
        program: parse(TC_PROGRAM).expect("static rule text parses"),
        facts: vec![("edge", (0..n).map(|k| vec![k, k + 1]).collect())],
        query_rel: "path",
        prefixes: (0..QUERIES / 10).map(|_| rng.below(n)).collect(),
        batch: (n - tail..n)
            .map(|k| ("edge".to_string(), vec![k, k + 1]))
            .collect(),
        cycles: CHAIN_CYCLES,
        reinsert_from_scratch: false,
        full: Box::new(Chain {
            n,
            cut: BTreeSet::new(),
        }),
        cut: Box::new(Chain {
            n,
            cut: (n - tail..n).collect(),
        }),
    }]
}
