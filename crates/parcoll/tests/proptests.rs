//! Property-based tests for ParColl's partitioning machinery.

use mpiio::{Ext, Run};
use parcoll::aggdist::distribute_aggregators;
use parcoll::fa::partition_file_areas;
use parcoll::iview::LogicalMap;
use proptest::prelude::*;
use simnet::{Mapping, Topology};
use std::rc::Rc;

fn arb_ranges() -> impl Strategy<Value = Vec<Option<(u64, u64)>>> {
    proptest::collection::vec(
        proptest::option::weighted(0.85, (0u64..10_000, 1u64..500)),
        1..24,
    )
    .prop_map(|v| v.into_iter().map(|o| o.map(|(s, l)| (s, s + l))).collect())
}

/// Every rank's access as `(origin, runs)`: sorted, disjoint strided
/// runs, some of one piece, some whose pieces abut (`len == stride`),
/// some abutting the next run, and some ranks empty.
fn arb_rank_runs() -> impl Strategy<Value = Vec<(u64, Vec<Run>)>> {
    let run = (0u64..4, 1u64..9, 0u64..3, 1u64..5);
    let rank = (0u64..1_000, proptest::collection::vec(run, 0..6));
    proptest::collection::vec(rank, 1..7).prop_map(|ranks| {
        ranks
            .into_iter()
            .map(|(origin, shape)| {
                let mut cursor = 0u64;
                let runs = shape
                    .into_iter()
                    .map(|(gap, len, extra, count)| {
                        let stride = if count == 1 { 0 } else { len + extra };
                        let run = Run {
                            off: cursor + gap,
                            len,
                            stride,
                            count,
                        };
                        cursor = run.end();
                        run
                    })
                    .collect();
                (origin, runs)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The map over runs is the map over the pieces they expand to: same
    /// total, same rank ranges, and the same physical pieces for any
    /// logical window.
    #[test]
    fn run_map_matches_piece_map(
        ranks in arb_rank_runs(),
        windows in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..8),
    ) {
        let pieces: Vec<Vec<Ext>> = ranks
            .iter()
            .map(|(origin, runs)| {
                let shifted = runs.iter().map(|r| Run { off: origin + r.off, ..*r });
                shifted.flat_map(Run::pieces).collect()
            })
            .collect();
        let by_piece = LogicalMap::new(pieces);
        let shared: Vec<(u64, Rc<[Run]>)> =
            ranks.into_iter().map(|(origin, runs)| (origin, runs.into())).collect();
        let by_run = LogicalMap::from_runs(shared);
        let total = by_piece.total();
        prop_assert_eq!(by_run.total(), total);
        prop_assert_eq!(by_run.nprocs(), by_piece.nprocs());
        for rank in 0..by_piece.nprocs() {
            prop_assert_eq!(by_run.rank_range(rank), by_piece.rank_range(rank), "rank {}", rank);
        }
        for (a, b) in windows {
            let at = (a * total as f64) as u64;
            let len = (b * (total - at) as f64) as u64;
            prop_assert_eq!(
                by_run.to_physical(at, len),
                by_piece.to_physical(at, len),
                "logical [{}, +{})", at, len
            );
        }
        prop_assert_eq!(by_run.to_physical(0, total), by_piece.to_physical(0, total));
    }
}

proptest! {
    /// When partitioning succeeds, the grouping is a partition: every
    /// rank in exactly one group, group ids valid, FAs ordered and
    /// disjoint, and every member's range inside its group's FA.
    #[test]
    fn fa_partition_invariants(ranges in arb_ranges(), groups in 1usize..8) {
        let Ok(g) = partition_file_areas(&ranges, groups) else {
            return Ok(()); // pattern (c): rejection is valid
        };
        prop_assert_eq!(g.group_of.len(), ranges.len());
        prop_assert!(g.group_of.iter().all(|&x| x < g.n_groups()));
        // FAs sorted and disjoint over the non-empty ones.
        let mut prev_end = 0u64;
        for &(s, e) in g.fas.iter().filter(|&&(s, e)| s < e) {
            prop_assert!(s >= prev_end, "FAs overlap: {:?}", g.fas);
            prev_end = e;
        }
        // Membership containment.
        for (rank, range) in ranges.iter().enumerate() {
            if let Some((s, e)) = range {
                let (fs, fe) = g.fas[g.group_of[rank]];
                prop_assert!(fs <= *s && *e <= fe,
                    "rank {} range [{}, {}) outside FA [{}, {})", rank, s, e, fs, fe);
            }
        }
    }

    /// Count balance: member counts differ by at most one (when every
    /// rank has data).
    #[test]
    fn count_balance_is_even(n in 1usize..32, groups in 1usize..8) {
        let ranges: Vec<Option<(u64, u64)>> =
            (0..n as u64).map(|r| Some((r * 100, r * 100 + 50))).collect();
        let g = partition_file_areas(&ranges, groups).unwrap();
        let mut counts = vec![0usize; g.n_groups()];
        for &x in &g.group_of {
            counts[x] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "{counts:?}");
    }

    /// Aggregator distribution invariants hold for arbitrary hints and
    /// groupings: every group served, by its own members, and no node
    /// serving two groups.
    #[test]
    fn aggdist_invariants(nranks in 2usize..24, cores in 1usize..4,
                          n_groups in 1usize..6, cyclic in any::<bool>(),
                          hint_mask in any::<u32>()) {
        let nnodes = nranks.div_ceil(cores);
        let mapping = if cyclic { Mapping::Cyclic } else { Mapping::Block };
        let topo = Topology::new(nnodes, cores, nranks, mapping).unwrap();
        let n_groups = n_groups.min(nranks);
        let group_of: Vec<usize> = (0..nranks).map(|r| r % n_groups).collect();
        let hints: Vec<usize> =
            (0..nranks).filter(|r| hint_mask & (1 << (r % 32)) != 0).collect();
        let aggs = distribute_aggregators(&hints, &group_of, n_groups, |r| topo.node_of(r));

        // (a) every group has at least one aggregator.
        for (g, list) in aggs.iter().enumerate() {
            prop_assert!(!list.is_empty(), "group {} empty", g);
            // Aggregators belong to their group.
            for &r in list {
                prop_assert_eq!(group_of[r], g);
            }
        }
        // (b) no *hinted* node serves two different groups. (Requirement
        // (a) dominates the hint: a group no hinted node can serve falls
        // back to its first member, which may share a node with another
        // group's fallback — the only case (b) yields.)
        let mut node_group: std::collections::BTreeMap<usize, usize> = Default::default();
        for (g, list) in aggs.iter().enumerate() {
            // A group whose list is exactly its lowest member may be a
            // requirement-(a) fallback, which legitimately ignores (b).
            let first_member = (0..nranks).find(|&r| group_of[r] == g);
            if list.len() == 1 && Some(list[0]) == first_member {
                continue;
            }
            for &r in list {
                let node = topo.node_of(r);
                if let Some(&prev) = node_group.get(&node) {
                    prop_assert_eq!(prev, g, "node {} serves groups {} and {}", node, prev, g);
                } else {
                    node_group.insert(node, g);
                }
            }
        }
    }

    /// LogicalMap: to_physical covers exactly the requested bytes, in
    /// order, and total equals the sum of extents.
    #[test]
    fn logical_map_conserves_bytes(lists in proptest::collection::vec(
        proptest::collection::vec((0u64..50u64, 1u64..20), 0..6), 1..6)) {
        // Make each rank's extents sorted and disjoint.
        let lists: Vec<Vec<Ext>> = lists
            .into_iter()
            .map(|v| {
                let mut cursor = 0u64;
                let mut out = Vec::new();
                let mut v = v;
                v.sort();
                for (gap, len) in v {
                    let off = cursor + gap + 1;
                    out.push(Ext::new(off, len));
                    cursor = off + len;
                }
                out
            })
            .collect();
        let map = LogicalMap::new(lists.clone());
        let total = map.total();
        prop_assert_eq!(
            total,
            lists.iter().flatten().map(|e| e.len).sum::<u64>()
        );
        if total > 0 {
            let runs = map.to_physical(0, total);
            prop_assert_eq!(runs.iter().map(|e| e.len).sum::<u64>(), total);
            // Per-rank regions map back to that rank's extents.
            for (rank, exts) in lists.iter().enumerate() {
                let (s, e) = map.rank_range(rank);
                if s < e {
                    let runs = map.to_physical(s, e - s);
                    let flat: Vec<(u64, u64)> =
                        runs.iter().map(|x| (x.off, x.len)).collect();
                    let expect: Vec<(u64, u64)> =
                        exts.iter().map(|x| (x.off, x.len)).collect();
                    prop_assert_eq!(flat, expect, "rank {}", rank);
                }
            }
        }
    }
}
