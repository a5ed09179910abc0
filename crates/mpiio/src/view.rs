//! File views and access plans.
//!
//! An MPI-IO *file view* is `(displacement, etype, filetype)`: the visible
//! bytes of the file are those selected by tiling `filetype` from
//! `displacement`. A process reading or writing `n` bytes at view offset
//! `o` touches the physical runs produced by walking the flattened
//! filetype — the [`AccessPlan`]. MPI requires filetype displacements to
//! be monotonically non-decreasing, so a rank's plan is sorted and its
//! user-buffer bytes map to plan extents in order; all the collective
//! machinery leans on that invariant.

use crate::datatype::{Datatype, Ext, FlatType};
use std::sync::Arc;

/// A file view: flattened filetype tiled from a displacement.
#[derive(Debug, Clone)]
pub struct FileView {
    disp: u64,
    flat: Arc<FlatType>,
    /// Cumulative data bytes before each segment (len = segs.len() + 1).
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
        let mut prefix = Vec::with_capacity(flat.segs.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for s in &flat.segs {
            acc += s.len;
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

    /// View displacement.
    pub fn displacement(&self) -> u64 {
        self.disp
    }

    /// The flattened filetype.
    pub fn flat(&self) -> &FlatType {
        &self.flat
    }

    /// True if the view exposes a contiguous byte stream.
    pub fn is_contiguous(&self) -> bool {
        self.flat.is_contiguous()
    }

    /// Physical file runs for `[start, start+nbytes)` of the view's data
    /// space, coalesced. Panics if the filetype holds no data bytes but a
    /// transfer is requested.
    pub fn extents(&self, start: u64, nbytes: u64) -> Vec<Ext> {
        if nbytes == 0 {
            return Vec::new();
        }
        if self.is_contiguous() {
            return vec![Ext::new(self.disp + start, nbytes)];
        }
        let dpt = self.flat.size;
        assert!(dpt > 0, "transfer through an empty filetype");
        let mut remaining = nbytes;
        let mut tile = start / dpt;
        let mut within = start % dpt;
        // Locate the segment containing a data offset within a tile.
        let seg_of = |within: u64| match self.prefix.binary_search(&within) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let mut seg = seg_of(within);
        // Segments the transfer touches, first to last: the run count
        // before coalescing, so the list is allocated once.
        let last = start + nbytes - 1;
        let touched =
            (last / dpt - tile) as usize * self.flat.segs.len() + seg_of(last % dpt) + 1 - seg;
        let mut out: Vec<Ext> = Vec::with_capacity(touched);
        if seg == self.flat.segs.len() {
            // start exactly at a tile boundary
            seg = 0;
            tile += 1;
            within = 0;
        }
        let mut seg_off = within - self.prefix[seg];
        while remaining > 0 {
            let s = self.flat.segs[seg];
            let avail = s.len - seg_off;
            let take = avail.min(remaining);
            let phys = self.disp + tile * self.flat.extent + s.off + seg_off;
            match out.last_mut() {
                Some(last) if last.end() == phys => last.len += take,
                _ => out.push(Ext::new(phys, take)),
            }
            remaining -= take;
            seg_off += take;
            if seg_off == s.len {
                seg_off = 0;
                seg += 1;
                if seg == self.flat.segs.len() {
                    seg = 0;
                    tile += 1;
                }
            }
        }
        out
    }
}

/// A rank's flattened access list for one collective operation: sorted,
/// disjoint physical runs whose order equals user-buffer order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessPlan {
    /// The runs, ascending by offset.
    pub extents: Vec<Ext>,
    /// Total bytes (sum of run lengths).
    pub total: u64,
}

impl AccessPlan {
    /// Plan for `[offset, offset+nbytes)` of a view's data space.
    pub fn from_view(view: &FileView, offset: u64, nbytes: u64) -> Self {
        Self::from_extents(view.extents(offset, nbytes))
    }

    /// Plan from explicit runs; asserts the MPI monotonicity invariant.
    pub fn from_extents(extents: Vec<Ext>) -> Self {
        for w in extents.windows(2) {
            assert!(
                w[0].end() <= w[1].off,
                "access plan runs must be sorted and disjoint: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        debug_assert!(extents.iter().all(|e| e.len > 0), "zero-length run in plan");
        AccessPlan {
            total: extents.iter().map(|e| e.len).sum(),
            extents,
        }
    }

    /// True if this rank transfers no bytes.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// First byte touched, if any.
    pub fn start(&self) -> Option<u64> {
        self.extents.first().map(|e| e.off)
    }

    /// One past the last byte touched, if any.
    pub fn end(&self) -> Option<u64> {
        self.extents.last().map(Ext::end)
    }

    /// Iterate `(buffer_offset, file_extent)` pairs: the user buffer maps
    /// onto the runs in order.
    pub fn with_buffer_offsets(&self) -> impl Iterator<Item = (u64, Ext)> + '_ {
        let mut acc = 0u64;
        self.extents.iter().map(move |e| {
            let pair = (acc, *e);
            acc += e.len;
            pair
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
