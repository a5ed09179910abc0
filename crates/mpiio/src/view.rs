//! File views and access plans.
//!
//! An MPI-IO *file view* is `(displacement, etype, filetype)`: the visible
//! bytes of the file are those selected by tiling `filetype` from
//! `displacement`. A process reading or writing `n` bytes at view offset
//! `o` touches the physical pieces produced by walking the flattened
//! filetype — the [`AccessPlan`]. MPI requires filetype displacements to
//! be monotonically non-decreasing, so a rank's plan is sorted and its
//! user-buffer bytes map to plan pieces in order; all the collective
//! machinery leans on that invariant.
//!
//! A plan is built, and held, as strided [`Run`]s: run arithmetic on the
//! flattened type's runs, tile by tile — clipping the first and last
//! piece, and merging a tile's last piece with the next tile's first where
//! they abut — so a BT-IO call costs its 162 runs, not its 3 280 pieces.
//! [`AccessPlan::pieces`] and [`FileView::extents`] expand the runs for
//! the consumers that need pieces one by one: independent I/O, and
//! callers outside the workspace that want a view's pieces as a list.
//! The intermediate view's map keeps the plan's runs.

use crate::datatype::{push_piece, push_run, Datatype, Ext, FlatType, Run};
use std::sync::Arc;

/// A file view: flattened filetype tiled from a displacement.
#[derive(Debug, Clone)]
pub struct FileView {
    disp: u64,
    flat: Arc<FlatType>,
    /// Cumulative data bytes before each run (len = runs.len() + 1).
    prefix: Arc<Vec<u64>>,
}

impl FileView {
    /// Build a view from a displacement and a filetype. Flattening is
    /// memoized per thread ([`Datatype::flatten_cached`]), so re-setting
    /// the same view every call/open costs a hash lookup.
    pub fn new(disp: u64, filetype: &Datatype) -> Self {
        Self::from_flat(disp, filetype.flatten_cached())
    }

    /// Build from an already-flattened type.
    pub fn from_flat(disp: u64, flat: Arc<FlatType>) -> Self {
        let mut prefix = Vec::with_capacity(flat.runs.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for r in &flat.runs {
            acc += r.bytes();
            prefix.push(acc);
        }
        FileView {
            disp,
            flat,
            prefix: Arc::new(prefix),
        }
    }

    /// The default byte-stream view at a displacement (`MPI_BYTE` etype
    /// and filetype).
    pub fn contiguous(disp: u64) -> Self {
        Self::from_flat(disp, FlatType::contiguous(1))
    }

    /// True if the view exposes a contiguous byte stream.
    pub fn is_contiguous(&self) -> bool {
        self.flat.is_contiguous()
    }

    /// The runs of `[start, start+nbytes)` of the view's data space: each
    /// tile's runs shifted to the tile, the transfer's ends clipped, and
    /// pieces that abut across a tile boundary merged. Panics if the
    /// filetype holds no data bytes but a transfer is requested.
    ///
    /// Pushing a piece looks only at the last run, so once a whole flat
    /// run has landed as itself, the whole runs after it land as they are
    /// in the flat type: they are copied, and only the first and last run
    /// of each tile go through [`push_run`].
    fn runs(&self, start: u64, nbytes: u64) -> Vec<Run> {
        if nbytes == 0 {
            return Vec::new();
        }
        if self.is_contiguous() {
            return vec![Run::piece(self.disp + start, nbytes)];
        }
        let dpt = self.flat.size;
        assert!(dpt > 0, "transfer through an empty filetype");
        let end = start + nbytes;
        let (first, last) = (start / dpt, (end - 1) / dpt);
        let run_of = |within: u64| self.prefix.partition_point(|&p| p <= within) - 1;
        let mut out = Vec::with_capacity(self.flat.runs.len() + 2);
        for tile in first..=last {
            let base = self.disp + tile * self.flat.extent;
            // The tile's data bytes the transfer takes: `[lo, hi)`.
            let lo = start.saturating_sub(tile * dpt);
            let hi = (end - tile * dpt).min(dpt);
            let mut landed = None;
            for (i, r) in self.flat.runs.iter().enumerate().skip(run_of(lo)) {
                let at = self.prefix[i];
                if at >= hi {
                    break;
                }
                let shifted = Run { off: base + r.off, ..*r };
                let (a, b) = (lo.max(at) - at, hi.min(self.prefix[i + 1]) - at);
                let whole = a == 0 && b == r.bytes();
                if whole && landed.is_some() && out.last() == landed.as_ref() {
                    out.push(shifted);
                } else {
                    shifted.clip(a, b).for_each(|part| push_run(&mut out, part));
                }
                landed = whole.then_some(shifted);
            }
        }
        out
    }

    /// The plan for a transfer at view offset `offset` of the length of
    /// `last`, the plan of one at `at`: `last` shifted by whole tiles when
    /// both start at the same position in a tile — each tile's runs are
    /// the flattened type's shifted to the tile, and merging across tile
    /// boundaries looks only at relative positions — else `None`.
    pub(crate) fn shift_plan(&self, last: &AccessPlan, at: u64, offset: u64) -> Option<AccessPlan> {
        let dpt = self.flat.size;
        if dpt == 0 || at % dpt != offset % dpt {
            return None;
        }
        let tiles = (offset / dpt) as i64 - (at / dpt) as i64;
        Some(last.shifted(tiles * self.flat.extent as i64))
    }

    /// Physical file pieces for `[start, start+nbytes)` of the view's data
    /// space, coalesced: the runs of [`AccessPlan::from_view`] expanded.
    pub fn extents(&self, start: u64, nbytes: u64) -> Vec<Ext> {
        let runs = self.runs(start, nbytes);
        let mut out = Vec::with_capacity(runs.iter().map(|r| r.count as usize).sum());
        out.extend(runs.iter().flat_map(|r| r.pieces()));
        out
    }
}

/// A rank's flattened access list for one collective operation: strided
/// runs whose pieces are sorted, disjoint and non-adjacent, and whose
/// order equals user-buffer order.
///
/// The runs are held relative to the first one's offset, behind an `Arc`:
/// a plan shifted by whole tiles ([`AccessPlan::shifted`], what
/// `File::plan` returns for a call shaped like the last one) shares them,
/// and two plans of one shape compare by pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPlan {
    /// The runs, the first at offset 0.
    shape: Arc<[Run]>,
    /// File offset of the first run (0 for an empty plan).
    origin: u64,
    /// Total bytes (sum of run bytes).
    pub total: u64,
}

impl Default for AccessPlan {
    fn default() -> Self {
        Self::new(Vec::new())
    }
}

impl AccessPlan {
    fn new(runs: Vec<Run>) -> Self {
        let origin = runs.first().map_or(0, |r| r.off);
        let rel = |r: &Run| Run {
            off: r.off - origin,
            ..*r
        };
        AccessPlan {
            total: runs.iter().map(Run::bytes).sum(),
            shape: runs.iter().map(rel).collect(),
            origin,
        }
    }

    /// Plan for `[offset, offset+nbytes)` of a view's data space.
    pub fn from_view(view: &FileView, offset: u64, nbytes: u64) -> Self {
        Self::new(view.runs(offset, nbytes))
    }

    /// Plan from explicit pieces; asserts the MPI monotonicity invariant
    /// and rejects an empty piece (it would count as a modelled piece on
    /// the wire). Abutting pieces merge, as a view's do.
    pub fn from_extents(extents: Vec<Ext>) -> Self {
        let mut runs: Vec<Run> = Vec::new();
        for e in extents {
            let last = runs.last().map(Run::end);
            assert!(
                last.is_none_or(|end| end <= e.off),
                "access plan runs must be sorted and disjoint: {e:?} after {last:?}"
            );
            assert!(e.len > 0, "zero-length run in plan at {}", e.off);
            push_piece(&mut runs, e.off, e.len);
        }
        Self::new(runs)
    }

    /// The runs, in file order.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = Run> + Clone + '_ {
        let origin = self.origin;
        self.shape.iter().map(move |r| Run {
            off: origin + r.off,
            ..*r
        })
    }

    /// The runs relative to the first one's offset: what every plan of
    /// this shape, wherever it lies, shares.
    pub fn shape(&self) -> &Arc<[Run]> {
        &self.shape
    }

    /// The pieces the runs expand to, in file (and buffer) order.
    pub fn pieces(&self) -> impl Iterator<Item = Ext> + '_ {
        self.runs().flat_map(|r| r.pieces())
    }

    /// Number of pieces: what ROMIO's `(offset, len)` list would hold.
    pub fn piece_count(&self) -> u64 {
        self.shape.iter().map(|r| r.count).sum()
    }

    /// True if this rank transfers no bytes.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// First byte touched, if any.
    pub fn start(&self) -> Option<u64> {
        (!self.shape.is_empty()).then_some(self.origin)
    }

    /// One past the last byte touched, if any.
    pub fn end(&self) -> Option<u64> {
        self.shape.last().map(|r| self.origin + r.end())
    }

    /// Iterate `(buffer_offset, file_piece)` pairs: the user buffer maps
    /// onto the pieces in order.
    pub fn with_buffer_offsets(&self) -> impl Iterator<Item = (u64, Ext)> + '_ {
        let mut acc = 0u64;
        self.pieces().map(move |e| {
            let pair = (acc, e);
            acc += e.len;
            pair
        })
    }

    /// True if `other` is this plan shifted uniformly — the same runs
    /// relative to the first: one pointer comparison when both came from
    /// one plan, a comparison of the runs otherwise.
    pub fn same_shape(&self, other: &AccessPlan) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape) || self.shape == other.shape
    }

    /// This plan with every run moved by `delta` bytes (the uniform
    /// per-call stride of a tiled view). Shares the runs.
    pub fn shifted(&self, delta: i64) -> AccessPlan {
        if self.shape.is_empty() {
            return self.clone();
        }
        let origin = self.origin.checked_add_signed(delta);
        AccessPlan {
            origin: origin.expect("plan shift underflow"),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn strided_view() -> FileView {
        // filetype: 4 data bytes at offset 0, 4 at offset 8; MPI vector
        // extent = ((count-1)*stride + blocklen) * inner = 12 bytes, so
        // consecutive tiles begin 12 bytes apart and tile N's first
        // segment abuts tile N-1's last.
        let t = Datatype::Vector {
            count: 2,
            blocklen: 1,
            stride: 2,
            inner: Box::new(Datatype::Bytes(4)),
        };
        FileView::new(100, &t)
    }

    /// The per-segment walk runs replaced: one flattened piece at a time,
    /// tile by tile, merging a piece into the one before where they abut.
    fn extents_by_segment(view: &FileView, start: u64, nbytes: u64) -> Vec<Ext> {
        let segs: Vec<Ext> = view.flat.pieces().collect();
        let mut out: Vec<Ext> = Vec::new();
        let (dpt, mut at) = (view.flat.size, 0u64);
        for tile in 0.. {
            for s in &segs {
                let (lo, hi) = (start.max(at), (start + nbytes).min(at + s.len));
                if lo < hi {
                    let phys = view.disp + tile * view.flat.extent + s.off + (lo - at);
                    match out.last_mut() {
                        Some(last) if last.end() == phys => last.len += hi - lo,
                        _ => out.push(Ext::new(phys, hi - lo)),
                    }
                }
                at += s.len;
            }
            if at >= start + nbytes || dpt == 0 {
                break;
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Plans built by run arithmetic expand to the per-segment walk
        /// for any `(offset, nbytes)` — partial first and last pieces,
        /// and (gap 0) tiles whose last piece abuts the next tile's first
        /// included — and keep the run invariants.
        #[test]
        fn plan_expands_to_the_segment_walk(
            blocks in proptest::collection::vec((0u64..4, 1u64..6, 1usize..4), 1..5),
            lead in 0u64..3,
            pad in 0u64..3,
            disp in 0u64..50,
            start in 0u64..300,
            nbytes in 0u64..300,
        ) {
            // Blocks of `n` equal pieces at a fixed gap: rows of runs, each
            // tile starting `lead` bytes in and ending `pad` bytes after
            // its last piece.
            let mut fields = Vec::new();
            let mut at = lead;
            for (gap, len, n) in blocks {
                let t = Datatype::Vector {
                    count: n,
                    blocklen: 1,
                    stride: 2,
                    inner: Box::new(Datatype::Bytes(len)),
                };
                let ext = t.extent();
                fields.push((at, t));
                at += ext + gap * len;
            }
            let ft = Datatype::Resized { extent: at + pad, inner: Box::new(Datatype::Struct { fields }) };
            let view = FileView::new(disp, &ft);
            let plan = AccessPlan::from_view(&view, start, nbytes);
            prop_assert_eq!(plan.pieces().collect::<Vec<_>>(), extents_by_segment(&view, start, nbytes));
            prop_assert_eq!(plan.total, nbytes);
            for r in plan.runs() {
                prop_assert!(if r.count == 1 { r.stride == 0 } else { r.stride > r.len });
            }
            for w in plan.runs().collect::<Vec<_>>().windows(2) {
                prop_assert!(w[0].end() < w[1].off);
            }
            // Canonical: the same pieces pushed one by one give the same runs.
            prop_assert_eq!(plan.clone(), AccessPlan::from_extents(plan.pieces().collect()));
        }
    }

    #[test]
    fn contiguous_view_passes_through_with_disp() {
        let v = FileView::contiguous(50);
        assert!(v.is_contiguous());
        assert_eq!(v.extents(10, 20), vec![Ext::new(60, 20)]);
    }

    #[test]
    fn strided_view_first_tile() {
        let v = strided_view();
        assert_eq!(
            v.extents(0, 8),
            vec![Ext::new(100, 4), Ext::new(108, 4)]
        );
    }

    #[test]
    fn strided_view_crosses_tiles() {
        let v = strided_view();
        // 16 data bytes = 2 full tiles; tile 1 starts at 100 + 12 and its
        // first segment (112..116) coalesces with tile 0's second
        // (108..112).
        assert_eq!(
            v.extents(0, 16),
            vec![Ext::new(100, 4), Ext::new(108, 8), Ext::new(120, 4)]
        );
        // Merged pieces recur every tile: one run.
        let plan = AccessPlan::from_view(&v, 0, 40);
        assert_eq!(
            plan.runs().collect::<Vec<_>>(),
            [Run::piece(100, 4), Run { off: 108, len: 8, stride: 12, count: 4 }, Run::piece(156, 4)]
        );
    }

    #[test]
    fn strided_view_mid_segment_start() {
        let v = strided_view();
        // Start 2 bytes into the first segment, read 4: spans segments.
        assert_eq!(
            v.extents(2, 4),
            vec![Ext::new(102, 2), Ext::new(108, 2)]
        );
    }

    #[test]
    fn start_at_tile_boundary() {
        let v = strided_view();
        assert_eq!(
            v.extents(8, 4),
            vec![Ext::new(112, 4)] // second tile's first segment
        );
    }

    #[test]
    fn contiguous_tiling_coalesces_across_tiles() {
        // Filetype is all-data: tiles are adjacent, runs merge.
        let v = FileView::new(0, &Datatype::Bytes(8));
        assert_eq!(v.extents(0, 32), vec![Ext::new(0, 32)]);
        assert_eq!(v.extents(4, 10), vec![Ext::new(4, 10)]);
    }

    #[test]
    fn zero_byte_request_is_empty() {
        assert!(strided_view().extents(5, 0).is_empty());
    }

    #[test]
    fn plan_from_view_totals() {
        let p = AccessPlan::from_view(&strided_view(), 0, 12);
        assert_eq!(p.total, 12);
        assert_eq!(p.start(), Some(100));
        assert_eq!(p.end(), Some(116));
        assert_eq!(p.piece_count(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn buffer_offsets_accumulate_in_order() {
        let p = AccessPlan::from_view(&strided_view(), 0, 12);
        let pairs: Vec<(u64, Ext)> = p.with_buffer_offsets().collect();
        // Tile 0's second segment coalesced with tile 1's first.
        assert_eq!(pairs[0], (0, Ext::new(100, 4)));
        assert_eq!(pairs[1], (4, Ext::new(108, 8)));
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn unsorted_plan_rejected() {
        AccessPlan::from_extents(vec![Ext::new(10, 5), Ext::new(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "zero-length run in plan at 20")]
    fn zero_length_run_rejected() {
        AccessPlan::from_extents(vec![Ext::new(10, 5), Ext::new(20, 0)]);
    }

    #[test]
    fn shapes_compare_shifted_runs_in_place() {
        let v = strided_view();
        let (a, b) = (AccessPlan::from_view(&v, 0, 40), AccessPlan::from_view(&v, 80, 40));
        // 80 data bytes = 10 tiles of 12 bytes.
        assert!(a.same_shape(&b) && b.same_shape(&a.shifted(120)));
        assert!(Arc::ptr_eq(a.shape(), a.shifted(120).shape()), "a shift shares the runs");
        assert_eq!(a.shifted(120), b);
        assert_eq!(b.shifted(-120), a);
        assert!(!a.same_shape(&AccessPlan::from_view(&v, 2, 40)));
        assert!(AccessPlan::default().same_shape(&AccessPlan::default()));
    }

    #[test]
    fn tile_view_matches_tile_type() {
        // A 2x3 tile at (1,2) of a 4x6 array, elem 2B, placed at disp 1000.
        let t = Datatype::tile_2d(4, 6, 2, 3, 1, 2, 2);
        let v = FileView::new(1000, &t);
        assert_eq!(
            v.extents(0, 12),
            vec![Ext::new(1016, 6), Ext::new(1028, 6)]
        );
    }

    #[test]
    fn large_offsets_in_tiled_view() {
        let v = strided_view();
        // Tile 1000: disp 100 + 1000*12 = 12100.
        assert_eq!(v.extents(8000, 4), vec![Ext::new(12100, 4)]);
    }
}
