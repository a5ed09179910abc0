//! NAS BT-IO: diagonal multi-partitioning output (paper §5.3).
//!
//! BT runs on `P = q²` processes. The cubic solution grid is divided into
//! `q³` cells; process `(i, j)` owns the `q` cells `{(x, y, z) = ((j + c)
//! mod q, (i + c) mod q, c)}` — one per z-slab, shifted diagonally, so
//! within every z-slab the processes tile the xy plane exactly once. The
//! solution array (5 doubles per cell) is appended to the output file
//! every few timesteps ("full mode" writes through MPI-IO collective
//! routines).
//!
//! The resulting file view is the union of `q` 3-D subarrays whose runs
//! spread across the entire timestep record — the paper's pattern (c)
//! (Figure 4), which defeats direct file-area partitioning and exercises
//! ParColl's intermediate file views ("BT-IO represents the type of
//! complicated I/O patterns that require the use of intermediate file
//! views").

use crate::Workload;
use mpiio::Datatype;

/// Bytes per grid cell: 5 double-precision solution components.
pub const CELL_BYTES: u64 = 40;

/// BT-IO configuration.
#[derive(Debug, Clone)]
pub struct BtIo {
    /// Square root of the process count.
    pub q: usize,
    /// Grid points per dimension (class C: 162).
    pub n: usize,
    /// Number of collective append steps (full BT: 200 iterations,
    /// written every 5 → 40).
    pub steps: usize,
}

impl BtIo {
    /// Class C (162³ grid, 40 write steps) on `nprocs = q²` processes.
    pub fn class_c(nprocs: usize) -> Self {
        Self::with_grid(nprocs, 162, 40)
    }

    /// A miniature instance for correctness tests.
    pub fn tiny(nprocs: usize) -> Self {
        Self::with_grid(nprocs, 8, 2)
    }

    /// Arbitrary grid; `nprocs` must be a perfect square no larger than
    /// `n²`.
    pub fn with_grid(nprocs: usize, n: usize, steps: usize) -> Self {
        let q = (nprocs as f64).sqrt().round() as usize;
        assert_eq!(q * q, nprocs, "BT requires a square process count, got {nprocs}");
        assert!(q <= n, "more slabs than grid points");
        BtIo { q, n, steps }
    }

    /// Partition `self.n` points into `q` slabs: `(start, size)` of slab
    /// `k`, remainder spread over the leading slabs as in BT.
    pub fn slab(&self, k: usize) -> (usize, usize) {
        let base = self.n / self.q;
        let rem = self.n % self.q;
        let size = base + usize::from(k < rem);
        let start = k * base + k.min(rem);
        (start, size)
    }

    /// The grid cells owned by `rank`, as `(x, y, z)` slab coordinates,
    /// one per z-slab in slab order.
    pub fn cells_of(&self, rank: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        let (i, j, q) = (rank / self.q, rank % self.q, self.q);
        (0..q).map(move |c| ((j + c) % q, (i + c) % q, c))
    }

    /// Bytes of one full timestep record.
    pub fn step_bytes(&self) -> u64 {
        (self.n as u64).pow(3) * CELL_BYTES
    }

    /// Bytes `rank` contributes per timestep.
    pub fn rank_step_bytes(&self, rank: usize) -> u64 {
        self.cells_of(rank)
            .map(|(x, y, z)| {
                let (_, sx) = self.slab(x);
                let (_, sy) = self.slab(y);
                let (_, sz) = self.slab(z);
                (sx * sy * sz) as u64 * CELL_BYTES
            })
            .sum()
    }
}

impl Workload for BtIo {
    fn name(&self) -> &'static str {
        "bt-io"
    }

    fn nprocs(&self) -> usize {
        self.q * self.q
    }

    fn view(&self, rank: usize) -> (u64, Datatype) {
        // BT is a Fortran code: u(5, x, y, z) with x varying fastest on
        // disk. Expressed as a row-major subarray that is dims (z, y, x)
        // — identical to `Datatype::subarray_fortran(&[n,n,n], [sx,sy,sz],
        // [ox,oy,oz])`, as the datatype tests verify.
        let fields = self
            .cells_of(rank)
            .map(|(x, y, z)| {
                let (ox, sx) = self.slab(x);
                let (oy, sy) = self.slab(y);
                let (oz, sz) = self.slab(z);
                let sub = Datatype::Subarray {
                    sizes: vec![self.n, self.n, self.n],
                    subsizes: vec![sz, sy, sx],
                    starts: vec![oz, oy, ox],
                    elem: CELL_BYTES,
                };
                (0u64, sub)
            })
            .collect();
        // The struct's extent is the full timestep record, so tiling the
        // view appends one record per step.
        (0, Datatype::Struct { fields })
    }

    fn ncalls(&self) -> usize {
        self.steps
    }

    fn call(&self, rank: usize, call: usize) -> (u64, u64) {
        let mine = self.rank_step_bytes(rank);
        (call as u64 * mine, mine)
    }

    fn total_bytes(&self) -> u64 {
        self.step_bytes() * self.steps as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiio::{AccessPlan, FileView};

    #[test]
    fn class_c_sizes_match_nas() {
        let w = BtIo::class_c(256);
        assert_eq!(w.q, 16);
        // 162^3 cells * 40B = ~170MB per step; 40 steps = ~6.8GB.
        assert_eq!(w.step_bytes(), 162u64.pow(3) * 40);
        assert_eq!(w.total_bytes(), 162u64.pow(3) * 40 * 40);
    }

    #[test]
    fn slabs_partition_the_axis() {
        let w = BtIo::with_grid(25, 162, 1); // q=5, 162 = 5*32 + 2
        let mut covered = 0;
        for k in 0..5 {
            let (start, size) = w.slab(k);
            assert_eq!(start, covered);
            covered += size;
        }
        assert_eq!(covered, 162);
        assert_eq!(w.slab(0).1 - w.slab(4).1, 1); // remainder on leading slabs
    }

    #[test]
    fn diagonal_cells_tile_each_z_slab() {
        let w = BtIo::tiny(16); // q=4
        for z in 0..w.q {
            let mut seen = std::collections::HashSet::new();
            for rank in 0..w.nprocs() {
                for (x, y, cz) in w.cells_of(rank) {
                    if cz == z {
                        assert!(seen.insert((x, y)), "cell ({x},{y},{z}) claimed twice");
                    }
                }
            }
            assert_eq!(seen.len(), w.q * w.q, "z-slab {z} not fully tiled");
        }
    }

    #[test]
    fn ranks_cover_the_record_exactly_once() {
        let w = BtIo::tiny(4); // q=2, 8^3 grid
        let record = w.step_bytes() as usize;
        let mut coverage = vec![0u8; record];
        for rank in 0..w.nprocs() {
            let (disp, ft) = w.view(rank);
            let view = FileView::new(disp, &ft);
            let mine = w.rank_step_bytes(rank);
            let plan = AccessPlan::from_view(&view, 0, mine);
            for e in plan.pieces() {
                for b in e.off..e.end() {
                    coverage[b as usize] += 1;
                }
            }
        }
        assert!(coverage.iter().all(|&c| c == 1), "record must be tiled once");
    }

    #[test]
    fn a_class_c_rank_plans_one_run_per_z_plane() {
        // 64 ranks: 8 cells each, one z-slab each; every z-plane of a cell
        // is 20 or 21 rows 6 480 B apart, one run per plane.
        let w = BtIo::with_grid(64, 162, 1);
        let plan = |rank| {
            let (disp, ft) = w.view(rank);
            let (off, bytes) = w.call(rank, 0);
            AccessPlan::from_view(&FileView::new(disp, &ft), off, bytes)
        };
        let rows = 162 * CELL_BYTES;
        let p = plan(26);
        assert_eq!((p.runs().len(), p.piece_count()), (162, 3_280));
        assert!(p.runs().all(|r| r.stride == rows));
        // Rank 27 owns the corner cell (7, 7) of z-slab 4 and cell (0, 0)
        // of slab 5: the last row of the one abuts the first row of the
        // other, and the two merge into one piece of their own (3 280
        // rows, 3 279 pieces) between two planes' runs.
        let p = plan(27);
        assert_eq!((p.runs().len(), p.piece_count()), (163, 3_279));
        let merged: Vec<_> = p.runs().filter(|r| r.count == 1).collect();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].len, (20 + 21) * CELL_BYTES);
    }

    #[test]
    fn second_step_lands_in_second_record() {
        let w = BtIo::tiny(4);
        let (disp, ft) = w.view(1);
        let view = FileView::new(disp, &ft);
        let (off, bytes) = w.call(1, 1);
        let plan = AccessPlan::from_view(&view, off, bytes);
        assert!(plan.start().unwrap() >= w.step_bytes());
        assert!(plan.end().unwrap() <= 2 * w.step_bytes());
    }

    #[test]
    fn per_rank_bytes_sum_to_record() {
        let w = BtIo::with_grid(9, 10, 1); // q=3, uneven slabs of 10
        let total: u64 = (0..9).map(|r| w.rank_step_bytes(r)).sum();
        assert_eq!(total, w.step_bytes());
    }

    #[test]
    fn ranges_spread_across_whole_record() {
        // Pattern (c): every rank's span covers most of the record.
        let w = BtIo::tiny(16);
        for rank in 0..w.nprocs() {
            let (disp, ft) = w.view(rank);
            let view = FileView::new(disp, &ft);
            let plan = AccessPlan::from_view(&view, 0, w.rank_step_bytes(rank));
            let span = plan.end().unwrap() - plan.start().unwrap();
            assert!(
                span as f64 > 0.5 * w.step_bytes() as f64,
                "rank {rank} span {span} too narrow for pattern (c)"
            );
        }
    }

    #[test]
    fn view_is_fortran_layout() {
        // The hand-rolled (z, y, x) row-major subarray equals the
        // subarray_fortran construction over (x, y, z) — BT's on-disk
        // column-major layout.
        let w = BtIo::tiny(4);
        for rank in 0..w.nprocs() {
            for (x, y, z) in w.cells_of(rank) {
                let (ox, sx) = w.slab(x);
                let (oy, sy) = w.slab(y);
                let (oz, sz) = w.slab(z);
                let ours = Datatype::Subarray {
                    sizes: vec![w.n, w.n, w.n],
                    subsizes: vec![sz, sy, sx],
                    starts: vec![oz, oy, ox],
                    elem: CELL_BYTES,
                };
                let fortran = Datatype::subarray_fortran(
                    &[w.n, w.n, w.n],
                    &[sx, sy, sz],
                    &[ox, oy, oz],
                    CELL_BYTES,
                );
                assert_eq!(ours.flatten(), fortran.flatten());
            }
        }
    }

    #[test]
    #[should_panic(expected = "square process count")]
    fn non_square_rejected() {
        BtIo::class_c(200);
    }
}
