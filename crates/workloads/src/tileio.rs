//! MPI-Tile-IO: tiled access to a 2-D dense dataset (paper §5.2).
//!
//! "Each process renders a 1x1 tile with 1024x768 pixels. The size of
//! each element is 64 bytes, leading to a file size of 48·N MB." The tile
//! grid is arranged as close to square as the process count allows (the
//! benchmark's `--nr_tiles_x/--nr_tiles_y`). Each process's file view is
//! the 2-D subarray of its tile: `tile_rows` runs of `tile_cols × elem`
//! bytes strided by the full dataset row — the visualization-style
//! pattern (b) of Figure 4, and the workload behind the paper's
//! Figures 1, 2, 7, 8 and 9.

use crate::Workload;
use mpiio::Datatype;

/// MPI-Tile-IO configuration.
#[derive(Debug, Clone)]
pub struct TileIo {
    /// Tiles in x (columns of tiles).
    pub ntx: usize,
    /// Tiles in y (rows of tiles).
    pub nty: usize,
    /// Elements per tile row (x extent of a tile).
    pub tile_x: usize,
    /// Rows per tile (y extent of a tile).
    pub tile_y: usize,
    /// Element size in bytes.
    pub elem: u64,
}

impl TileIo {
    /// The paper's tile (1024×768 of 64-byte elements) on a *tall* grid:
    /// as many tile-rows as divisibility allows, capped at 64. Horizontal
    /// bands of whole tile-rows are the disjoint file areas ParColl's
    /// pattern (b) grouping relies on (Figure 4), and 64 bands is where
    /// the paper's group sweep peaks.
    pub fn paper(nprocs: usize) -> Self {
        let (ntx, nty) = Self::tall_grid(nprocs);
        TileIo {
            ntx,
            nty,
            tile_x: 1024,
            tile_y: 768,
            elem: 64,
        }
    }

    /// The largest power-of-two tile-row count dividing `n`, capped at
    /// 64; falls back to the near-square grid for awkward counts.
    pub fn tall_grid(n: usize) -> (usize, usize) {
        assert!(n > 0);
        let mut nty = 1usize;
        while nty < 64 && n.is_multiple_of(nty * 2) {
            nty *= 2;
        }
        if nty == 1 {
            Self::near_square_grid(n)
        } else {
            (n / nty, nty)
        }
    }

    /// A miniature configuration for correctness tests.
    pub fn tiny(nprocs: usize) -> Self {
        let (ntx, nty) = Self::near_square_grid(nprocs);
        TileIo {
            ntx,
            nty,
            tile_x: 8,
            tile_y: 4,
            elem: 4,
        }
    }

    /// Factor `n` into the most-square `(x, y)` grid with `x ≥ y`.
    pub fn near_square_grid(n: usize) -> (usize, usize) {
        assert!(n > 0);
        let mut best = (n, 1);
        let mut d = 1;
        while d * d <= n {
            if n.is_multiple_of(d) {
                best = (n / d, d);
            }
            d += 1;
        }
        best
    }

    /// Dataset width in elements.
    pub fn width(&self) -> usize {
        self.ntx * self.tile_x
    }

    /// Dataset height in elements.
    pub fn height(&self) -> usize {
        self.nty * self.tile_y
    }

    /// Bytes per process (one tile).
    pub fn tile_bytes(&self) -> u64 {
        self.tile_x as u64 * self.tile_y as u64 * self.elem
    }
}

impl Workload for TileIo {
    fn name(&self) -> &'static str {
        "mpi-tile-io"
    }

    fn nprocs(&self) -> usize {
        self.ntx * self.nty
    }

    fn view(&self, rank: usize) -> (u64, Datatype) {
        assert!(rank < self.nprocs());
        let ty = rank / self.ntx;
        let tx = rank % self.ntx;
        let ft = Datatype::tile_2d(
            self.height(),
            self.width(),
            self.tile_y,
            self.tile_x,
            ty * self.tile_y,
            tx * self.tile_x,
            self.elem,
        );
        (0, ft)
    }

    fn ncalls(&self) -> usize {
        1 // "data I/O is non-contiguous and issued in a single step"
    }

    fn call(&self, _rank: usize, _call: usize) -> (u64, u64) {
        (0, self.tile_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiio::{AccessPlan, FileView};

    #[test]
    fn paper_file_size_is_48n_mb() {
        let w = TileIo::paper(512);
        assert_eq!(w.nprocs(), 512);
        assert_eq!(w.tile_bytes(), 48 << 20);
        assert_eq!(w.total_bytes(), 512 * (48u64 << 20));
    }

    #[test]
    fn tall_grid_prefers_64_rows() {
        assert_eq!(TileIo::tall_grid(512), (8, 64));
        assert_eq!(TileIo::tall_grid(1024), (16, 64));
        assert_eq!(TileIo::tall_grid(64), (1, 64));
        assert_eq!(TileIo::tall_grid(48), (3, 16));
        assert_eq!(TileIo::tall_grid(7), (7, 1)); // fallback
    }

    #[test]
    fn near_square_grids() {
        assert_eq!(TileIo::near_square_grid(512), (32, 16));
        assert_eq!(TileIo::near_square_grid(1024), (32, 32));
        assert_eq!(TileIo::near_square_grid(64), (8, 8));
        assert_eq!(TileIo::near_square_grid(7), (7, 1));
    }

    #[test]
    fn tiles_cover_the_dataset_exactly_once() {
        let w = TileIo::tiny(4); // 2x2 tiles of 8x4 elems, 4B
        let mut coverage = vec![0u8; w.total_bytes() as usize];
        for r in 0..w.nprocs() {
            let (disp, ft) = w.view(r);
            let view = FileView::new(disp, &ft);
            let plan = AccessPlan::from_view(&view, 0, w.tile_bytes());
            for e in plan.pieces() {
                for b in e.off..e.end() {
                    coverage[b as usize] += 1;
                }
            }
        }
        assert!(coverage.iter().all(|&c| c == 1), "tiles must tile");
    }

    #[test]
    fn tile_rows_are_strided_runs() {
        let w = TileIo::tiny(4);
        let (disp, ft) = w.view(1); // tile (0,1): columns 8..16 of rows 0..4
        let view = FileView::new(disp, &ft);
        let plan = AccessPlan::from_view(&view, 0, w.tile_bytes());
        // One run: row 0 of tile 1 starts at element 8 -> byte 32, and
        // the row stride is the dataset width in bytes.
        let row = mpiio::Run {
            off: 32,
            len: (w.tile_x as u64) * w.elem,
            stride: (w.width() as u64) * w.elem,
            count: w.tile_y as u64,
        };
        assert_eq!(plan.runs().collect::<Vec<_>>(), [row]);
    }

    #[test]
    fn horizontal_neighbours_interleave() {
        // Pattern (b): the ranges of tiles in one tile-row intersect.
        let w = TileIo::tiny(4);
        let range = |r: usize| {
            let (disp, ft) = w.view(r);
            let view = FileView::new(disp, &ft);
            let p = AccessPlan::from_view(&view, 0, w.tile_bytes());
            (p.start().unwrap(), p.end().unwrap())
        };
        let (s0, e0) = range(0);
        let (s1, e1) = range(1);
        assert!(s1 < e0 && s0 < e1, "horizontal neighbours must interleave");
        // But different tile-rows do not.
        let (s2, _e2) = range(2);
        assert!(s2 >= e0.min(e1));
    }
}
