//! Reference computations made apart from the engine, one per workload.
//!
//! * points-to: `workloads::pointsto::reference_vpt`, a naive fixpoint
//!   over std collections, and [`pointsto_hpt`] from its `vpt`;
//! * network: [`network_reference`], written here — `conn` by nested
//!   loops over hash indexes, `reach` by `workloads::graphs::reference_tc`,
//!   then `exposed`, `vulnerable` and `isolated` (by negation);
//! * chain: the closed form [`chain_expected`].

use std::collections::{BTreeSet, HashMap, HashSet};
use workloads::network::NetworkFacts;

/// `hpt(h, f, g) :- store(v, f, w), vpt(v, h), vpt(w, g).` over a
/// reference `vpt`.
pub fn pointsto_hpt(
    stores: &[(u64, u64, u64)],
    vpt: &BTreeSet<(u64, u64)>,
) -> BTreeSet<(u64, u64, u64)> {
    let heaps = |v: u64| vpt.range((v, 0)..=(v, u64::MAX)).map(|&(_, h)| h);
    let mut out = BTreeSet::new();
    for &(v, f, w) in stores {
        for h in heaps(v) {
            out.extend(heaps(w).map(|g| (h, f, g)));
        }
    }
    out
}

/// The output relations of the network analysis.
#[derive(Debug, Default, PartialEq)]
pub struct NetworkOut {
    pub reach: BTreeSet<(u64, u64)>,
    pub vulnerable: BTreeSet<(u64, u64)>,
    pub isolated: BTreeSet<u64>,
}

/// Evaluates the rules of `workloads::network::NETWORK_RULES` over `f`.
pub fn network_reference(f: &NetworkFacts) -> NetworkOut {
    let mut members: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(i, g) in &f.in_group {
        members.entry(g).or_default().push(i);
    }
    let listens: HashSet<(u64, u64)> = f.listens.iter().copied().collect();
    // conn(a, b) :- in_group(a, ga), allow(ga, gb, p), in_group(b, gb), listens(b, p).
    let mut conn = BTreeSet::new();
    for &(a, ga) in &f.in_group {
        for &(gf, gt, p) in &f.allow {
            if gf != ga {
                continue;
            }
            for &b in members.get(&gt).map_or(&[][..], |v| v.as_slice()) {
                if listens.contains(&(b, p)) {
                    conn.insert((a, b));
                }
            }
        }
    }
    let reach = workloads::graphs::reference_tc(&conn.into_iter().collect::<Vec<_>>());
    // exposed(i) :- public(g), in_group(i, g).
    let exposed: HashSet<u64> = f
        .in_group
        .iter()
        .filter(|(_, g)| f.public.contains(g))
        .map(|&(i, _)| i)
        .collect();
    let sensitive: HashSet<u64> = f.sensitive.iter().copied().collect();
    // vulnerable(a, b) :- exposed(a), reach(a, b), sensitive(b).
    let vulnerable = reach
        .iter()
        .filter(|(a, b)| exposed.contains(a) && sensitive.contains(b))
        .copied()
        .collect();
    // isolated(i) :- in_group(i, _), !reach(i, i).
    let isolated = f
        .in_group
        .iter()
        .map(|&(i, _)| i)
        .filter(|&i| !reach.contains(&(i, i)))
        .collect();
    NetworkOut {
        reach,
        vulnerable,
        isolated,
    }
}

/// `path` of the chain `0 -> 1 -> ... -> n` with the edges `(k, k + 1)`
/// for `k` in `cut` withdrawn, in sorted order: `path(x, y)` holds iff
/// `x < y` and no withdrawn edge lies in `[x, y)`.
pub fn chain_expected(n: u64, cut: &BTreeSet<u64>) -> impl Iterator<Item = (u64, u64)> + '_ {
    (0..n).flat_map(move |x| {
        let end = cut.range(x..).next().copied().unwrap_or(n);
        (x + 1..=end).map(move |y| (x, y))
    })
}

/// Whether engine rows (sorted) equal `expect`, in order, exactly.
pub fn same_rows<const N: usize>(
    rows: &[Vec<u64>],
    expect: impl IntoIterator<Item = [u64; N]>,
) -> bool {
    let mut it = expect.into_iter();
    rows.iter().all(|r| it.next().is_some_and(|e| r[..] == e)) && it.next().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::pointsto::{reference_vpt, PointsToFacts};

    #[test]
    fn pointsto_reference_by_hand() {
        // a = new H1; b = a; a.f = b; c = b.f  =>  every var points to H1,
        // and H1.f points to H1.
        let facts = PointsToFacts {
            news: vec![(1, 10)],
            assigns: vec![(2, 1)],
            stores: vec![(1, 0, 2)],
            loads: vec![(3, 2, 0)],
        };
        let vpt = reference_vpt(&facts);
        assert_eq!(vpt, [(1, 10), (2, 10), (3, 10)].into());
        assert_eq!(pointsto_hpt(&facts.stores, &vpt), [(10, 0, 10)].into());
        // Without the copy nothing flows to 2, so 3 loads nothing and the
        // store writes nothing.
        let facts = PointsToFacts {
            assigns: vec![],
            ..facts
        };
        let vpt = reference_vpt(&facts);
        assert_eq!(vpt, [(1, 10)].into());
        assert!(pointsto_hpt(&facts.stores, &vpt).is_empty());
        // Two heaps on each side of a store give every pairing.
        let vpt = [(1, 10), (1, 11), (2, 20), (2, 21), (3, 30)].into();
        let hpt: Vec<_> = pointsto_hpt(&[(1, 5, 2)], &vpt).into_iter().collect();
        assert_eq!(
            hpt,
            vec![(10, 5, 20), (10, 5, 21), (11, 5, 20), (11, 5, 21)]
        );
    }

    #[test]
    fn network_reference_by_hand() {
        // Instances 0, 1 in group 0 (public); 2 in group 1; 3 in group 2.
        // Group 0 may reach group 1 on port 80 where 2 listens; group 1
        // may reach group 0 on port 22 where 0 listens. Instance 2 is
        // sensitive.
        let f = NetworkFacts {
            in_group: vec![(0, 0), (1, 0), (2, 1), (3, 2)],
            allow: vec![(0, 1, 80), (1, 0, 22)],
            listens: vec![(0, 22), (2, 80)],
            public: vec![0],
            sensitive: vec![2],
        };
        let out = network_reference(&f);
        // conn: 0->2, 1->2, 2->0.  reach adds 0->0, 1->0, 2->2.
        let reach: BTreeSet<_> = [(0, 0), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2)].into();
        assert_eq!(out.reach, reach);
        assert_eq!(out.vulnerable, [(0, 2), (1, 2)].into());
        assert_eq!(out.isolated, [1, 3].into());
    }

    #[test]
    fn chain_closed_form_by_hand() {
        let all: Vec<_> = chain_expected(3, &BTreeSet::new()).collect();
        assert_eq!(all, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let cut: Vec<_> = chain_expected(3, &[1].into()).collect();
        assert_eq!(cut, vec![(0, 1), (2, 3)]);
        let tail: Vec<_> = chain_expected(3, &[2].into()).collect();
        assert_eq!(tail, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn comparisons_catch_missing_and_extra_rows() {
        let expect = [[0, 1], [1, 2]];
        assert!(same_rows(&[vec![0, 1], vec![1, 2]], expect));
        assert!(!same_rows(&[vec![0, 1]], expect));
        assert!(!same_rows(&[vec![0, 1], vec![1, 2], vec![2, 3]], expect));
        assert!(!same_rows(&[vec![0, 1], vec![1, 3]], expect));
        assert!(same_rows(&[vec![4]], [[4]]));
        assert!(!same_rows(&[vec![4]], [[5]]));
        assert!(!same_rows(&[vec![4, 0]], [[4, 0, 0]]));
    }
}
