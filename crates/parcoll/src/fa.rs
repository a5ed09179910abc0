//! File-area partitioning (paper §4.1, Figure 4).
//!
//! "The partitioning of a file into FAs is the premier issue for ParColl
//! because it affects both the I/O consistency and the performance of
//! resulting collective I/O. On one hand, a file should be evenly (or
//! close to) divided into FAs for balanced I/O load among subgroups. On
//! the other hand, there should be non-overlapping FAs."
//!
//! The strategy: order processes by the start of their file range, cut
//! the ordered list into `G` contiguous groups of (nearly) equal size,
//! and take each group's FA as the hull of its members' ranges. For
//! pattern (a) — serial segments — and pattern (b) — tiles whose
//! boundaries interleave only between *adjacent* processes — the hulls
//! come out disjoint. For pattern (c) — segments spread across the whole
//! file — they intersect, which this module reports as [`FaError`] so the
//! caller can switch to an intermediate file view ("the switching of the
//! file views is enabled dynamically by detecting intersections among
//! partitioned FAs").

/// A grouping of processes into subgroups with disjoint file areas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouping {
    /// `group_of[rank]` = subgroup index in `0..n_groups`.
    pub group_of: Vec<usize>,
    /// Each subgroup's file area `[start, end)`, indexed by subgroup.
    /// Groups holding only empty-range processes get `(0, 0)`.
    pub fas: Vec<(u64, u64)>,
}

impl Grouping {
    /// Number of subgroups.
    pub fn n_groups(&self) -> usize {
        self.fas.len()
    }

    /// Ranks of one subgroup, ascending.
    pub fn members(&self, group: usize) -> Vec<usize> {
        (0..self.group_of.len())
            .filter(|&r| self.group_of[r] == group)
            .collect()
    }

    /// Dissolve subgroup `g` into a neighbor (the previous group, or the
    /// next when `g` is 0), fusing the file-area hulls — `(0, 0)` counts
    /// as empty — and shifting group indexes above `g` down. Returns the
    /// neighbor's index *after* the shift. Degraded-mode ParColl uses
    /// this when a subgroup loses every hinted aggregator to crashes:
    /// its members are then served by the neighbor's aggregators.
    pub fn merge_into_neighbor(&mut self, g: usize) -> usize {
        let n = self.n_groups();
        assert!(n > 1, "cannot merge the only subgroup");
        assert!(g < n, "subgroup {g} out of range ({n} groups)");
        let nb = if g == 0 { 1 } else { g - 1 };
        let (gs, ge) = self.fas[g];
        let (ns, ne) = self.fas[nb];
        self.fas[nb] = if gs == ge {
            (ns, ne)
        } else if ns == ne {
            (gs, ge)
        } else {
            (ns.min(gs), ne.max(ge))
        };
        self.fas.remove(g);
        for grp in &mut self.group_of {
            if *grp == g {
                *grp = nb;
            }
            if *grp > g {
                *grp -= 1;
            }
        }
        if nb > g {
            nb - 1
        } else {
            nb
        }
    }
}

/// Partitioning failed: the candidate FAs intersect (pattern (c)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaError {
    /// The first pair of adjacent subgroups whose FAs intersect.
    pub groups: (usize, usize),
    /// The overlapping byte range.
    pub overlap: (u64, u64),
}

impl std::fmt::Display for FaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "file areas of subgroups {} and {} intersect over [{}, {}): \
             pattern requires an intermediate file view",
            self.groups.0, self.groups.1, self.overlap.0, self.overlap.1
        )
    }
}

impl std::error::Error for FaError {}

/// Partition `nprocs` processes into `groups` subgroups with disjoint
/// FAs, given each process's file range (`None` for processes that move
/// no bytes).
///
/// Processes are ordered by `(start, rank)`; rangeless processes are
/// dealt round-robin across subgroups afterwards so every subgroup keeps
/// roughly `nprocs / groups` members (balanced load, requirement one of
/// §4.1).
///
/// # Examples
///
/// ```
/// use parcoll::partition_file_areas;
///
/// // Pattern (a): serial segments partition cleanly...
/// let serial: Vec<_> = (0..4).map(|r| Some((r * 100, (r + 1) * 100))).collect();
/// let g = partition_file_areas(&serial, 2).unwrap();
/// assert_eq!(g.fas, vec![(0, 200), (200, 400)]);
///
/// // ...while spread segments (pattern c) are rejected, signalling the
/// // caller to switch to an intermediate file view.
/// let spread = vec![Some((0, 900)), Some((10, 910)), Some((20, 920)), Some((30, 930))];
/// assert!(partition_file_areas(&spread, 2).is_err());
/// ```
pub fn partition_file_areas(
    ranges: &[Option<(u64, u64)>],
    groups: usize,
) -> Result<Grouping, FaError> {
    let nprocs = ranges.len();
    assert!(nprocs > 0, "no processes to partition");
    let groups = groups.clamp(1, nprocs);

    let mut with_data: Vec<usize> = (0..nprocs).filter(|&r| ranges[r].is_some()).collect();
    with_data.sort_by_key(|&r| (ranges[r].expect("filtered Some").0, r));
    let idle: Vec<usize> = (0..nprocs).filter(|&r| ranges[r].is_none()).collect();

    // Chunk sizes per group: equal member counts (every workload in the
    // paper's evaluation moves the same volume per process).
    let (base, rem) = (with_data.len() / groups, with_data.len() % groups);
    let takes: Vec<usize> = (0..groups).map(|g| base + usize::from(g < rem)).collect();

    let mut group_of = vec![usize::MAX; nprocs];
    let mut fas = vec![(0u64, 0u64); groups];
    if !with_data.is_empty() {
        let mut pos = 0usize;
        for (g, fa) in fas.iter_mut().enumerate() {
            let take = takes[g];
            let chunk = &with_data[pos..pos + take];
            pos += take;
            if chunk.is_empty() {
                continue;
            }
            let start = chunk
                .iter()
                .map(|&r| ranges[r].expect("chunk holds data ranks").0)
                .min()
                .expect("non-empty chunk");
            let end = chunk
                .iter()
                .map(|&r| ranges[r].expect("chunk holds data ranks").1)
                .max()
                .expect("non-empty chunk");
            *fa = (start, end);
            for &r in chunk {
                group_of[r] = g;
            }
        }
    }

    // Disjointness check over consecutive non-empty FAs (they are ordered
    // by construction).
    let mut prev: Option<(usize, (u64, u64))> = None;
    for (g, &fa) in fas.iter().enumerate() {
        if fa.0 == fa.1 {
            continue;
        }
        if let Some((pg, pfa)) = prev {
            if fa.0 < pfa.1 {
                return Err(FaError {
                    groups: (pg, g),
                    overlap: (fa.0, pfa.1.min(fa.1)),
                });
            }
        }
        prev = Some((g, fa));
    }

    // Spread idle processes round-robin.
    for (i, &r) in idle.iter().enumerate() {
        group_of[r] = i % groups;
    }
    debug_assert!(group_of.iter().all(|&g| g < groups));

    Ok(Grouping { group_of, fas })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pattern (a) of Figure 4: six serially distributed segments, no
    /// intersections — "a simple offset calculation would partition the
    /// file into non-overlapping FAs".
    #[test]
    fn pattern_a_serial_segments() {
        let ranges: Vec<Option<(u64, u64)>> =
            (0..6).map(|r| Some((r * 100, (r + 1) * 100))).collect();
        let g = partition_file_areas(&ranges, 2).unwrap();
        assert_eq!(g.group_of, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(g.fas, vec![(0, 300), (300, 600)]);
        assert_eq!(g.members(0), vec![0, 1, 2]);
    }

    /// Pattern (b): tiles of a 2-D array — per-process ranges interleave
    /// (each tile's rows alternate with its row-neighbour's), but grouping
    /// whole tile-rows yields distinct FAs. Model: 4 processes in a 2x2
    /// tile grid over a 4-row array; each process's range spans its tile
    /// rows, overlapping its horizontal neighbour only.
    #[test]
    fn pattern_b_tiled_ranges() {
        // Row of tiles 0: P0 covers [0, 190), P1 covers [10, 200)
        // Row of tiles 1: P2 covers [200, 390), P3 covers [210, 400)
        let ranges = vec![
            Some((0, 190)),
            Some((10, 200)),
            Some((200, 390)),
            Some((210, 400)),
        ];
        let g = partition_file_areas(&ranges, 2).unwrap();
        assert_eq!(g.group_of, vec![0, 0, 1, 1]);
        assert_eq!(g.fas, vec![(0, 200), (200, 400)]);
    }

    /// Pattern (c): every process's range spans (almost) the whole file —
    /// partitioning must be refused so the caller switches to an
    /// intermediate file view.
    #[test]
    fn pattern_c_detected_as_intersecting() {
        let ranges = vec![
            Some((0, 1000)),
            Some((10, 990)),
            Some((20, 1000)),
            Some((5, 995)),
        ];
        let err = partition_file_areas(&ranges, 2).unwrap_err();
        assert_eq!(err.groups, (0, 1));
        assert!(err.overlap.0 < err.overlap.1);
        let msg = err.to_string();
        assert!(msg.contains("intermediate file view"));
    }

    #[test]
    fn single_group_never_fails() {
        let ranges = vec![Some((0, 1000)), Some((10, 990)), Some((20, 1000))];
        let g = partition_file_areas(&ranges, 1).unwrap();
        assert_eq!(g.group_of, vec![0, 0, 0]);
        assert_eq!(g.fas, vec![(0, 1000)]);
    }

    #[test]
    fn groups_clamped_to_process_count() {
        let ranges = vec![Some((0, 10)), Some((10, 20))];
        let g = partition_file_areas(&ranges, 16).unwrap();
        assert_eq!(g.n_groups(), 2);
    }

    #[test]
    fn idle_processes_spread_round_robin() {
        let ranges = vec![
            Some((0, 100)),
            None,
            Some((100, 200)),
            None,
            Some((200, 300)),
            Some((300, 400)),
            None,
        ];
        let g = partition_file_areas(&ranges, 2).unwrap();
        // Data ranks 0,2 -> group 0; 4,5 -> group 1.
        assert_eq!(g.group_of[0], 0);
        assert_eq!(g.group_of[2], 0);
        assert_eq!(g.group_of[4], 1);
        assert_eq!(g.group_of[5], 1);
        // Idle ranks 1,3,6 spread 0,1,0.
        assert_eq!(g.group_of[1], 0);
        assert_eq!(g.group_of[3], 1);
        assert_eq!(g.group_of[6], 0);
    }

    #[test]
    fn all_idle_yields_empty_fas() {
        let ranges = vec![None, None, None];
        let g = partition_file_areas(&ranges, 2).unwrap();
        assert!(g.fas.iter().all(|&(s, e)| s == e));
        assert!(g.group_of.iter().all(|&x| x < 2));
    }

    #[test]
    fn unsorted_rank_order_is_handled() {
        // Ranks' ranges are not in rank order; grouping follows offsets.
        let ranges = vec![
            Some((300, 400)),
            Some((0, 100)),
            Some((200, 300)),
            Some((100, 200)),
        ];
        let g = partition_file_areas(&ranges, 2).unwrap();
        // Offset order: ranks 1,3,2,0 -> groups {1,3}, {2,0}.
        assert_eq!(g.group_of, vec![1, 0, 1, 0]);
        assert_eq!(g.fas, vec![(0, 200), (200, 400)]);
    }

    #[test]
    fn touching_boundaries_are_not_intersections() {
        // FAs may abut exactly: [0,100) and [100,200).
        let ranges = vec![Some((0, 100)), Some((0, 100)), Some((100, 200)), Some((100, 200))];
        let g = partition_file_areas(&ranges, 2).unwrap();
        assert_eq!(g.fas, vec![(0, 100), (100, 200)]);
    }

    #[test]
    fn merge_into_previous_neighbor_fuses_hulls() {
        let ranges: Vec<Option<(u64, u64)>> =
            (0..6).map(|r| Some((r * 100, (r + 1) * 100))).collect();
        let mut g = partition_file_areas(&ranges, 3).unwrap();
        assert_eq!(g.fas, vec![(0, 200), (200, 400), (400, 600)]);
        let nb = g.merge_into_neighbor(1);
        assert_eq!(nb, 0);
        assert_eq!(g.fas, vec![(0, 400), (400, 600)]);
        assert_eq!(g.group_of, vec![0, 0, 0, 0, 1, 1]);
    }

    #[test]
    fn merge_group_zero_into_next() {
        let ranges: Vec<Option<(u64, u64)>> =
            (0..4).map(|r| Some((r * 100, (r + 1) * 100))).collect();
        let mut g = partition_file_areas(&ranges, 2).unwrap();
        let nb = g.merge_into_neighbor(0);
        assert_eq!(nb, 0);
        assert_eq!(g.fas, vec![(0, 400)]);
        assert!(g.group_of.iter().all(|&x| x == 0));
    }

    #[test]
    fn merge_treats_empty_fa_as_identity() {
        let mut g = Grouping {
            group_of: vec![0, 1, 2],
            fas: vec![(0, 100), (0, 0), (100, 200)],
        };
        let nb = g.merge_into_neighbor(1);
        assert_eq!(nb, 0);
        assert_eq!(g.fas, vec![(0, 100), (100, 200)]);
        assert_eq!(g.group_of, vec![0, 0, 1]);
    }

    #[test]
    fn uneven_counts_differ_by_at_most_one() {
        let ranges: Vec<Option<(u64, u64)>> =
            (0..10).map(|r| Some((r * 10, (r + 1) * 10))).collect();
        let g = partition_file_areas(&ranges, 3).unwrap();
        let mut counts = [0usize; 3];
        for &grp in &g.group_of {
            counts[grp] += 1;
        }
        assert_eq!(counts.iter().max().unwrap() - counts.iter().min().unwrap(), 1);
    }
}
