//! The `specbtree` layer probe: the workload's largest relation, fed
//! straight to `specbtree::BTreeSet` at the engine's padded width (K=5)
//! and at its declared width (K=2), in seeded random and in sorted order.
//! The gap between the two widths bounds what arity-specialised storage
//! could gain.

use crate::trace::Tracer;
use specbtree::BTreeSet;
use std::hint::black_box;
use workloads::rng::SplitMix64;

/// Runs the probe on binary `pairs` at K=5 and K=2 and returns
/// nanoseconds per operation, named `btree.k5.*` / `btree.k2.*`.
pub fn run(
    tracer: &mut Tracer,
    pairs: &[(u64, u64)],
    workers: usize,
    seed: u64,
) -> Vec<(&'static str, f64)> {
    let k5: Vec<[u64; 5]> = pairs.iter().map(|&(a, b)| [a, b, 0, 0, 0]).collect();
    let k2: Vec<[u64; 2]> = pairs.iter().map(|&(a, b)| [a, b]).collect();
    let names5 = [
        "btree.k5.insert_ns",
        "btree.k5.insert_sorted_ns",
        "btree.k5.contains_ns",
        "btree.k5.range_ns",
        "btree.k5.merge_ns",
        "btree.k5.remove_ns",
    ];
    let names2 = [
        "btree.k2.insert_ns",
        "btree.k2.insert_sorted_ns",
        "btree.k2.contains_ns",
        "btree.k2.range_ns",
        "btree.k2.merge_ns",
        "btree.k2.remove_ns",
    ];
    let mut out: Vec<_> = names5
        .into_iter()
        .zip(probe_k(tracer, &k5, workers, seed))
        .collect();
    out.extend(names2.into_iter().zip(probe_k(tracer, &k2, workers, seed)));
    out
}

fn shuffled<T: Copy>(items: &[T], seed: u64) -> Vec<T> {
    let mut v = items.to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Insert (random), insert (sorted), contains, prefix range, parallel
/// merge and remove, in ns per tuple (per range for `range`).
fn probe_k<const K: usize>(
    tracer: &mut Tracer,
    sorted: &[[u64; K]],
    workers: usize,
    seed: u64,
) -> [f64; 6] {
    let n = sorted.len().max(1) as f64;
    let random = shuffled(sorted, seed);
    let per = |secs: f64, ops: f64| secs * 1e9 / ops.max(1.0);

    let tree: BTreeSet<K> = BTreeSet::new();
    let (_, insert) = tracer.time("specbtree", "BTreeSet::insert", |_| {
        for t in &random {
            tree.insert(*t);
        }
    });
    let in_order: BTreeSet<K> = BTreeSet::new();
    let (_, insert_sorted) = tracer.time("specbtree", "BTreeSet::insert (sorted)", |_| {
        for t in sorted {
            in_order.insert(*t);
        }
    });
    drop(in_order);
    let (hits, contains) = tracer.time("specbtree", "BTreeSet::contains", |_| {
        random.iter().filter(|t| tree.contains(t)).count()
    });
    assert_eq!(hits, sorted.len(), "probe tree lost tuples");

    let mut firsts: Vec<u64> = sorted.iter().map(|t| t[0]).collect();
    firsts.dedup();
    let firsts = shuffled(&firsts, seed ^ 1);
    let (seen, range) = tracer.time("specbtree", "BTreeSet::prefix_range", |_| {
        firsts
            .iter()
            .map(|&a| tree.prefix_range(&[a]).count())
            .sum::<usize>()
    });
    assert_eq!(seen, sorted.len(), "probe ranges missed tuples");

    // Merge the odd-positioned half of the random order into a tree
    // holding the even-positioned half.
    let target: BTreeSet<K> = BTreeSet::new();
    let source: BTreeSet<K> = BTreeSet::new();
    for (i, t) in random.iter().enumerate() {
        if i % 2 == 0 { &target } else { &source }.insert(*t);
    }
    let (_, merge) = tracer.time("specbtree", "BTreeSet::insert_all_parallel", |_| {
        black_box(target.insert_all_parallel(&source, workers))
    });
    let merged = source.len();
    drop((target, source));

    let (_, remove) = tracer.time("specbtree", "BTreeSet::remove", |_| {
        for t in &random {
            black_box(tree.remove(t));
        }
    });
    [
        per(insert, n),
        per(insert_sorted, n),
        per(contains, n),
        per(range, firsts.len() as f64),
        per(merge, merged as f64),
        per(remove, n),
    ]
}
