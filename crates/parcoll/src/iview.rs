//! Intermediate file views (paper §4.1, Figure 4(c)).
//!
//! When every process's segments spread across the whole file (BT-IO's
//! diagonal multi-partitioning), no contiguous file cut can separate the
//! processes. ParColl switches to an *intermediate file view*: "a logical
//! file representation in which different I/O segments for any individual
//! process are consecutively joined together in a virtual manner".
//! Process `r`'s data occupies the contiguous logical range
//! `[prefix[r], prefix[r] + total_r)`, so partitioning the logical file is
//! the trivial serial pattern (a). "The original file view is still
//! needed to provide the physical layout": at the moment of file I/O the
//! aggregators' logical runs are translated back into the physical runs
//! of the original views — [`MappedSpace`].

use mpiio::{Ext, FileSpace, Run};
use simfs::FileHandle;
use simnet::{IoBuffer, SimTime};
use std::rc::Rc;

/// One rank's physical access as the strided runs of its plan, shared
/// with the plan, and the data bytes before each run.
#[derive(Debug, Clone)]
struct RankMap {
    /// File offset the runs are relative to.
    origin: u64,
    runs: Rc<[Run]>,
    /// Cumulative data bytes before each run (len = runs.len() + 1).
    prefix: Vec<u64>,
}

/// The logical⇄physical correspondence of an intermediate file view.
#[derive(Debug, Clone)]
pub struct LogicalMap {
    /// Logical start of each rank's region (len = nprocs + 1).
    rank_prefix: Vec<u64>,
    per_rank: Vec<RankMap>,
}

impl LogicalMap {
    /// Build from every process's flattened physical extent list, in rank
    /// order: each extent is a one-piece run. Each list must be sorted
    /// and disjoint (the access-plan invariant).
    pub fn new(extent_lists: Vec<Vec<Ext>>) -> Self {
        let plans = extent_lists.into_iter().map(|exts| {
            let runs: Rc<[Run]> = exts.iter().map(|e| Run::piece(e.off, e.len)).collect();
            (0, runs)
        });
        Self::from_runs(plans.collect())
    }

    /// Build from every process's access plan as `(origin, runs)` — what
    /// `AccessPlan::start` and `AccessPlan::shape` hold — in rank order.
    /// The runs are kept by reference; the map adds one prefix entry per
    /// run. Each rank's pieces must be sorted and disjoint: `len ≤
    /// stride` inside a run, and a run ends before the next one starts.
    pub fn from_runs(plans: Vec<(u64, Rc<[Run]>)>) -> Self {
        let mut rank_prefix = Vec::with_capacity(plans.len() + 1);
        rank_prefix.push(0u64);
        let per_rank: Vec<RankMap> = plans
            .into_iter()
            .map(|(origin, runs)| {
                const DISJOINT: &str = "physical extents must be sorted and disjoint per rank";
                for r in runs.iter() {
                    let pieces_apart = r.count == 1 || r.len <= r.stride;
                    assert!(r.count > 0 && pieces_apart, "{DISJOINT}");
                }
                for w in runs.windows(2) {
                    assert!(w[0].end() <= w[1].off, "{DISJOINT}");
                }
                let mut prefix = Vec::with_capacity(runs.len() + 1);
                let mut acc = 0u64;
                prefix.push(0);
                for r in runs.iter() {
                    acc += r.bytes();
                    prefix.push(acc);
                }
                rank_prefix.push(rank_prefix.last().expect("non-empty prefix") + acc);
                RankMap {
                    origin,
                    runs,
                    prefix,
                }
            })
            .collect();
        LogicalMap {
            rank_prefix,
            per_rank,
        }
    }

    /// Number of ranks mapped.
    pub fn nprocs(&self) -> usize {
        self.per_rank.len()
    }

    /// Total logical bytes.
    pub fn total(&self) -> u64 {
        *self.rank_prefix.last().expect("non-empty prefix")
    }

    /// Rank `r`'s logical range `[start, end)`.
    pub fn rank_range(&self, rank: usize) -> (u64, u64) {
        (self.rank_prefix[rank], self.rank_prefix[rank + 1])
    }

    /// Translate a logical run into physical runs, one per piece it
    /// touches, in logical order. Runs from one rank are ascending;
    /// across ranks the physical offsets may jump arbitrarily (that is
    /// the whole point).
    pub fn to_physical(&self, logical_off: u64, len: u64) -> Vec<Ext> {
        assert!(
            logical_off + len <= self.total(),
            "logical run [{logical_off}, +{len}) beyond logical size {}",
            self.total()
        );
        let mut out = Vec::new();
        let end = logical_off + len;
        let mut pos = logical_off;
        // The rank holding `pos`: the last one starting at or before it
        // (empty ranks before it start there too).
        let mut rank = self.rank_prefix.partition_point(|&p| p <= pos) - 1;
        while pos < end {
            while self.rank_prefix[rank + 1] <= pos {
                rank += 1; // an empty rank
            }
            let rm = &self.per_rank[rank];
            let within = pos - self.rank_prefix[rank];
            // The run holding `within`, past any empty ones, and the piece
            // and byte inside it: one division per run entered.
            let mut i = rm.prefix.partition_point(|&p| p <= within) - 1;
            let at = within - rm.prefix[i];
            let (mut k, mut skip) = (at / rm.runs[i].len, at % rm.runs[i].len);
            while pos < end && i < rm.runs.len() {
                let r = rm.runs[i];
                let piece = rm.origin + r.off + k * r.stride;
                let take = (r.len - skip).min(end - pos);
                out.push(Ext::new(piece + skip, take));
                pos += take;
                (k, skip) = (k + 1, 0);
                if k == r.count {
                    (i, k) = (i + 1, 0);
                }
            }
            rank += 1;
        }
        out
    }
}

/// A [`FileSpace`] over the logical file of a [`LogicalMap`]: aggregator
/// I/O against logical offsets is scattered to / gathered from the
/// physical runs of the original file views.
///
/// `delta` shifts every physical offset: MPI views tile their filetype,
/// so the `t`-th collective call of a repeated pattern touches physical
/// runs shifted uniformly by `t × extent`. Caching one map and sliding it
/// lets ParColl skip rebuilding (and re-gathering) the view on every call
/// — the paper performs view switching once, "at the file view initiation
/// time".
#[derive(Debug, Clone)]
pub struct MappedSpace {
    map: Rc<LogicalMap>,
    delta: i64,
}

impl MappedSpace {
    /// Wrap a logical map with no shift.
    pub fn new(map: Rc<LogicalMap>) -> Self {
        MappedSpace { map, delta: 0 }
    }

    /// Wrap with a uniform physical-offset shift.
    pub fn with_delta(map: Rc<LogicalMap>, delta: i64) -> Self {
        MappedSpace { map, delta }
    }

    /// The underlying map.
    pub fn map(&self) -> &LogicalMap {
        &self.map
    }

    fn shift(&self, off: u64) -> u64 {
        let shifted = off as i64 + self.delta;
        assert!(shifted >= 0, "mapped-space shift {} underflows offset {off}", self.delta);
        shifted as u64
    }
}

impl FileSpace for MappedSpace {
    /// One request per physical run of the logical span, each with the
    /// pieces' bytes that fall in it.
    fn write(
        &self,
        fh: &FileHandle,
        offset: u64,
        len: u64,
        pieces: &[(u64, IoBuffer)],
        now: SimTime,
    ) -> SimTime {
        let mut t = now;
        let mut lo = 0u64; // the run's start, relative to `offset`
        for run in self.map.to_physical(offset, len) {
            let hi = lo + run.len;
            let in_run = pieces.iter().filter_map(|(at, piece)| {
                let (from, to) = ((*at).max(lo), (at + piece.len() as u64).min(hi));
                let part = || piece.sub((from - at) as usize, (to - from) as usize);
                (from < to).then(|| (from - lo, part()))
            });
            let in_run: Vec<(u64, IoBuffer)> = in_run.collect();
            t = fh.write_pieces(self.shift(run.off), run.len, &in_run, t);
            lo = hi;
        }
        t
    }

    fn read(
        &self,
        fh: &FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
        parts: &mut Vec<IoBuffer>,
    ) -> SimTime {
        let mut t = now;
        for run in self.map.to_physical(offset, len) {
            t = fh.read_parts(self.shift(run.off), run.len as usize, t, parts);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::{FileSystem, FsConfig};

    fn demo_map() -> LogicalMap {
        // Rank 0: physical [0,10), [100,110). Rank 1: [50,60), [200,220).
        LogicalMap::new(vec![
            vec![Ext::new(0, 10), Ext::new(100, 10)],
            vec![Ext::new(50, 10), Ext::new(200, 20)],
        ])
    }

    #[test]
    fn logical_layout_concatenates_ranks() {
        let m = demo_map();
        assert_eq!(m.total(), 50);
        assert_eq!(m.rank_range(0), (0, 20));
        assert_eq!(m.rank_range(1), (20, 50));
        assert_eq!(m.nprocs(), 2);
    }

    #[test]
    fn to_physical_within_one_extent() {
        let m = demo_map();
        assert_eq!(m.to_physical(2, 5), vec![Ext::new(2, 5)]);
        // Rank 0's second extent starts at logical 10.
        assert_eq!(m.to_physical(12, 3), vec![Ext::new(102, 3)]);
    }

    #[test]
    fn to_physical_across_extents_and_ranks() {
        let m = demo_map();
        // Logical [5, 35): rank0 [5,10)+[100,110), rank1 [50,60)+[200,205).
        assert_eq!(
            m.to_physical(5, 30),
            vec![
                Ext::new(5, 5),
                Ext::new(100, 10),
                Ext::new(50, 10),
                Ext::new(200, 5),
            ]
        );
    }

    #[test]
    fn to_physical_full_span() {
        let m = demo_map();
        let runs = m.to_physical(0, 50);
        assert_eq!(runs.iter().map(|e| e.len).sum::<u64>(), 50);
    }

    #[test]
    fn empty_rank_regions_are_skipped() {
        let m = LogicalMap::new(vec![
            vec![Ext::new(0, 4)],
            vec![], // rank with no data
            vec![Ext::new(10, 4)],
        ]);
        assert_eq!(m.total(), 8);
        assert_eq!(
            m.to_physical(2, 4),
            vec![Ext::new(2, 2), Ext::new(10, 2)]
        );
    }

    #[test]
    #[should_panic(expected = "beyond logical size")]
    fn out_of_range_rejected() {
        demo_map().to_physical(45, 10);
    }

    #[test]
    fn mapped_space_round_trip() {
        let fs = FileSystem::new(FsConfig::tiny());
        let (fh, t0) = fs.open("/iv", SimTime::ZERO);
        let m = Rc::new(demo_map());
        let space = MappedSpace::new(Rc::clone(&m));
        // Write 50 logical bytes 0..49.
        let data: Vec<u8> = (0..50).collect();
        let t1 = space.write(&fh, 0, 50, &[(0, IoBuffer::from_slice(&data))], t0);
        assert!(t1 > t0);
        // Physical spot check: rank 1's first extent [50,60) holds
        // logical bytes 20..30.
        let (raw, _) = fh.read_at(50, 10, t1);
        assert_eq!(raw.as_slice().unwrap(), &data[20..30]);
        // Logical read returns the original stream, as views of it.
        let bytes = |parts: Vec<IoBuffer>| {
            parts
                .iter()
                .flat_map(|p| p.as_slice().unwrap().to_vec())
                .collect::<Vec<u8>>()
        };
        let read = |off, len, t| {
            let mut parts = Vec::new();
            space.read(&fh, off, len, t, &mut parts);
            parts
        };
        assert_eq!(bytes(read(0, 50, t1)), data);
        // Partial logical read across the rank boundary.
        assert_eq!(bytes(read(15, 10, t1)), &data[15..25]);
        // Pieces of a logical span land in the runs they fall in, a later
        // one winning; the span's other bytes keep the file's.
        let pieces = [
            (3, IoBuffer::from_slice(&[0xA0; 14])),
            (5, IoBuffer::from_slice(&[0xB0; 2])),
        ];
        let t2 = space.write(&fh, 2, 20, &pieces, t1);
        let mut expect = data.clone();
        expect[5..19].fill(0xA0);
        expect[7..9].fill(0xB0);
        assert_eq!(bytes(read(0, 50, t2)), expect);
    }

    #[test]
    fn mapped_space_scatters_synthetic_data() {
        let fs = FileSystem::new(FsConfig::tiny());
        let (fh, t0) = fs.open("/ivs", SimTime::ZERO);
        let m = Rc::new(demo_map());
        let space = MappedSpace::new(m);
        let t1 = space.write(&fh, 0, 50, &[(0, IoBuffer::synthetic(50))], t0);
        assert!(t1 > t0);
        let mut got = Vec::new();
        space.read(&fh, 0, 50, t1, &mut got);
        assert_eq!(got.iter().map(IoBuffer::len).sum::<usize>(), 50);
        assert!(got.iter().all(|part| !part.is_real()));
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn overlapping_rank_extents_rejected() {
        LogicalMap::new(vec![vec![Ext::new(0, 10), Ext::new(5, 10)]]);
    }
}
