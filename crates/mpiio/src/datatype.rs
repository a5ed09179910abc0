//! MPI-style derived datatypes and their flattened form.
//!
//! Scientific applications describe non-contiguous file layouts with
//! derived datatypes (the paper's workloads: MPI-Tile-IO uses subarrays,
//! BT-IO uses nested struct/indexed types). Implementations do not
//! interpret the type tree on every access; they *flatten* it once
//! (`ADIOI_Flatten` in ROMIO) and work with the flattened form from then
//! on. Here that form is a list of strided [`Run`]s — `(offset, len,
//! stride, count)`, Thakur, Gropp & Lusk's flattened-datatype
//! representation — so a subarray's rows are one run, not one `(offset,
//! len)` pair each, and every layer below (plans, piece lists, the
//! coverage merge) works on runs. We model datatypes in bytes — an
//! "element type" is just its size — which loses no generality for I/O.

use std::sync::Arc;

/// A contiguous byte run within a datatype's extent or within a file:
/// `[off, off + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ext {
    /// Start offset in bytes.
    pub off: u64,
    /// Length in bytes (> 0 in normalized lists).
    pub len: u64,
}

impl Ext {
    /// Construct a run.
    pub fn new(off: u64, len: u64) -> Self {
        Ext { off, len }
    }

    /// One-past-the-end offset.
    pub fn end(&self) -> u64 {
        self.off + self.len
    }
}

/// `count` equal pieces at a fixed stride: piece `k` is `[off + k·stride,
/// off + k·stride + len)`. The one representation of a non-contiguous
/// access, from [`Datatype::flatten`] to a two-phase round window.
///
/// Invariants (kept by `push_piece`/`push_run`, the only builders):
/// `len > 0`, `count > 0`, `stride > len` when `count > 1` and `stride ==
/// 0` when `count == 1`, and in a list of runs no two expanded pieces
/// overlap or abut. Lists are built greedily piece by piece, so a list is
/// a pure function of the pieces it expands to — and two lists expand to
/// shapes that are shifts of each other exactly when their runs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    /// Offset of the first piece.
    pub off: u64,
    /// Bytes per piece.
    pub len: u64,
    /// Distance between consecutive piece starts.
    pub stride: u64,
    /// Number of pieces.
    pub count: u64,
}

impl Run {
    /// A single piece `[off, off + len)`.
    pub fn piece(off: u64, len: u64) -> Run {
        Run { off, len, stride: 0, count: 1 }
    }

    /// Data bytes: `len × count`.
    pub fn bytes(&self) -> u64 {
        self.len * self.count
    }

    /// One past the last byte of the last piece.
    pub fn end(&self) -> u64 {
        self.off + (self.count - 1) * self.stride + self.len
    }

    /// File offset of data byte `at` (`< bytes()`).
    pub(crate) fn at(&self, at: u64) -> u64 {
        self.off + at / self.len * self.stride + at % self.len
    }

    /// Data bytes lying before file offset `x`.
    pub(crate) fn bytes_before(&self, x: u64) -> u64 {
        let Some(rel) = x.checked_sub(self.off) else {
            return 0;
        };
        let k = if self.count > 1 { rel / self.stride } else { 0 };
        if k >= self.count {
            return self.bytes();
        }
        k * self.len + (rel - k * self.stride).min(self.len)
    }

    /// The pieces, in order.
    pub fn pieces(self) -> impl Iterator<Item = Ext> {
        (0..self.count).map(move |k| Ext::new(self.off + k * self.stride, self.len))
    }

    /// Data bytes `[a, b)` of the run (`a < b ≤ bytes()`), as at most
    /// three runs: a clipped first piece, the whole pieces, a clipped last
    /// piece.
    pub(crate) fn clip(self, a: u64, b: u64) -> impl Iterator<Item = Run> {
        debug_assert!(a < b && b <= self.bytes(), "clip [{a}, {b}) of {self:?}");
        if a == 0 && b == self.bytes() {
            return [Some(self), None, None].into_iter().flatten();
        }
        let (k0, skip) = (a / self.len, a % self.len);
        let (k1, keep) = (b / self.len, b % self.len);
        let part = |k: u64, from: u64, to: u64| Run::piece(self.off + k * self.stride + from, to - from);
        if k0 == k1 {
            return [Some(part(k0, skip, keep)), None, None].into_iter().flatten();
        }
        let head = (skip > 0).then(|| part(k0, skip, self.len));
        let first = k0 + u64::from(skip > 0);
        let whole = (k1 > first).then(|| match k1 - first {
            1 => part(first, 0, self.len),
            count => Run { off: self.off + first * self.stride, count, ..self },
        });
        let tail = (keep > 0).then(|| part(k1, 0, keep));
        [head, whole, tail].into_iter().flatten()
    }
}

/// Append the piece `[off, off + len)` (`len > 0`, not before the last
/// piece's end) to `runs`: a piece abutting the last one merges with it,
/// one continuing the last run's stride joins it, any other starts a run.
pub(crate) fn push_piece(runs: &mut Vec<Run>, off: u64, len: u64) {
    debug_assert!(len > 0, "zero-length piece");
    let Some(last) = runs.last_mut() else {
        return runs.push(Run::piece(off, len));
    };
    let at = last.off + (last.count - 1) * last.stride;
    debug_assert!(at + last.len <= off, "pieces out of order: {last:?} then {off}");
    if at + last.len == off {
        // Take the last piece back out and push the two as one.
        let merged = last.len + len;
        match last.count {
            1 => drop(runs.pop()),
            2 => *last = Run::piece(last.off, last.len),
            _ => last.count -= 1,
        }
        push_piece(runs, at, merged);
    } else if len == last.len && (last.count == 1 || off - at == last.stride) {
        (last.stride, last.count) = (off - at, last.count + 1);
    } else {
        runs.push(Run::piece(off, len));
    }
}

/// Append every piece of `run` to `runs`, as [`push_piece`] would one by
/// one: the first two pieces go through it, the rest then continue the
/// last run's stride, so they join it in one step.
pub(crate) fn push_run(runs: &mut Vec<Run>, run: Run) {
    for k in 0..run.count.min(2) {
        push_piece(runs, run.off + k * run.stride, run.len);
    }
    if run.count > 2 {
        // The last run ends with the second piece: alone, or after the
        // first at `run.stride`.
        let last = runs.last_mut().expect("two pieces were just pushed");
        debug_assert!(last.count == 1 || last.stride == run.stride);
        last.stride = run.stride;
        last.count += run.count - 2;
    }
}

/// An MPI-like derived datatype over bytes.
///
/// # Examples
///
/// ```
/// use mpiio::{Datatype, Ext, Run};
///
/// // One 2x3 tile of a 4x6 array of 2-byte pixels: two rows, 12 bytes
/// // apart — one run.
/// let tile = Datatype::tile_2d(4, 6, 2, 3, 1, 2, 2);
/// let flat = tile.flatten();
/// assert_eq!(flat.runs, vec![Run { off: 16, len: 6, stride: 12, count: 2 }]);
/// assert!(flat.pieces().eq([Ext::new(16, 6), Ext::new(28, 6)]));
/// assert_eq!(flat.size, 12);          // data bytes per repetition
/// assert_eq!(flat.extent, 4 * 6 * 2); // tiling stride
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Datatype {
    /// `len` contiguous bytes (the elementary type).
    Bytes(u64),
    /// `count` copies of `inner`, laid end to end at `inner.extent()`.
    Contiguous {
        /// Repetition count.
        count: usize,
        /// Replicated type.
        inner: Box<Datatype>,
    },
    /// `count` blocks of `blocklen` copies of `inner`, consecutive blocks
    /// `stride` inner-extents apart (`MPI_Type_vector`).
    Vector {
        /// Number of blocks.
        count: usize,
        /// Inner copies per block.
        blocklen: usize,
        /// Block-to-block distance in units of `inner.extent()`.
        stride: usize,
        /// Element type.
        inner: Box<Datatype>,
    },
    /// Blocks of `inner` at explicit byte displacements
    /// (`MPI_Type_create_hindexed`): `(byte_disp, inner_count)`.
    HIndexed {
        /// (displacement in bytes, number of consecutive inner copies).
        blocks: Vec<(u64, usize)>,
        /// Element type.
        inner: Box<Datatype>,
    },
    /// Heterogeneous fields at byte displacements
    /// (`MPI_Type_create_struct`).
    Struct {
        /// (displacement in bytes, field type).
        fields: Vec<(u64, Datatype)>,
    },
    /// Override the extent (`MPI_Type_create_resized`); used to tile
    /// types at strides other than their natural span.
    Resized {
        /// New extent in bytes.
        extent: u64,
        /// Underlying type.
        inner: Box<Datatype>,
    },
    /// An n-dimensional subarray of a row-major array of `elem`-byte
    /// elements (`MPI_Type_create_subarray`) — the natural description of
    /// a tile in a global 2-D dataset or a block in a 3-D mesh.
    Subarray {
        /// Full array dimensions, slowest-varying first.
        sizes: Vec<usize>,
        /// Sub-block dimensions.
        subsizes: Vec<usize>,
        /// Sub-block start coordinates.
        starts: Vec<usize>,
        /// Element size in bytes.
        elem: u64,
    },
}

impl Datatype {
    /// Convenience: a contiguous type of `n` bytes.
    pub fn contiguous_bytes(n: u64) -> Datatype {
        Datatype::Bytes(n)
    }

    /// Convenience: a 2-D subarray (tile) of a `rows`×`cols` array.
    pub fn tile_2d(
        rows: usize,
        cols: usize,
        tile_rows: usize,
        tile_cols: usize,
        start_row: usize,
        start_col: usize,
        elem: u64,
    ) -> Datatype {
        Datatype::Subarray {
            sizes: vec![rows, cols],
            subsizes: vec![tile_rows, tile_cols],
            starts: vec![start_row, start_col],
            elem,
        }
    }

    /// Convenience: a Fortran-order (column-major) subarray, expressed by
    /// reversing the dimension order of the row-major representation —
    /// the layout BT's Fortran arrays use on disk.
    pub fn subarray_fortran(
        sizes: &[usize],
        subsizes: &[usize],
        starts: &[usize],
        elem: u64,
    ) -> Datatype {
        let rev = |v: &[usize]| v.iter().rev().copied().collect::<Vec<_>>();
        Datatype::Subarray {
            sizes: rev(sizes),
            subsizes: rev(subsizes),
            starts: rev(starts),
            elem,
        }
    }

    /// Total data bytes (sum of leaf bytes) — `MPI_Type_size`.
    pub fn size(&self) -> u64 {
        match self {
            Datatype::Bytes(n) => *n,
            Datatype::Contiguous { count, inner } => *count as u64 * inner.size(),
            Datatype::Vector {
                count, blocklen, inner, ..
            } => (*count * *blocklen) as u64 * inner.size(),
            Datatype::HIndexed { blocks, inner } => {
                blocks.iter().map(|&(_, c)| c as u64).sum::<u64>() * inner.size()
            }
            Datatype::Struct { fields } => fields.iter().map(|(_, t)| t.size()).sum(),
            Datatype::Resized { inner, .. } => inner.size(),
            Datatype::Subarray { subsizes, elem, .. } => {
                subsizes.iter().map(|&s| s as u64).product::<u64>() * elem
            }
        }
    }

    /// Span from 0 to the last byte used — `MPI_Type_extent` (lower bound
    /// is always 0 in this model).
    pub fn extent(&self) -> u64 {
        match self {
            Datatype::Bytes(n) => *n,
            Datatype::Contiguous { count, inner } => *count as u64 * inner.extent(),
            Datatype::Vector {
                count,
                blocklen,
                stride,
                inner,
            } => {
                if *count == 0 {
                    0
                } else {
                    ((*count - 1) * *stride + *blocklen) as u64 * inner.extent()
                }
            }
            Datatype::HIndexed { blocks, inner } => blocks
                .iter()
                .map(|&(d, c)| d + c as u64 * inner.extent())
                .max()
                .unwrap_or(0),
            Datatype::Struct { fields } => fields
                .iter()
                .map(|(d, t)| d + t.extent())
                .max()
                .unwrap_or(0),
            Datatype::Resized { extent, .. } => *extent,
            Datatype::Subarray { sizes, elem, .. } => {
                sizes.iter().map(|&s| s as u64).product::<u64>() * elem
            }
        }
    }

    /// Flatten to strided runs plus the extent — the representation all
    /// I/O code operates on: the type's pieces sorted, coalesced and
    /// compressed once (a subarray's rows, a vector's blocks become one
    /// run each).
    ///
    /// Panics if the type self-overlaps (illegal for file views, which is
    /// the only use here).
    pub fn flatten(&self) -> FlatType {
        let mut runs = Vec::new();
        for e in self.sorted_pieces() {
            push_piece(&mut runs, e.off, e.len);
        }
        FlatType {
            size: runs.iter().map(Run::bytes).sum(),
            extent: self.extent(),
            runs,
        }
    }

    /// Every non-empty leaf piece of the type tree, sorted by offset;
    /// panics on overlap.
    fn sorted_pieces(&self) -> Vec<Ext> {
        let mut segs = Vec::new();
        self.emit(0, &mut segs);
        segs.retain(|e| e.len > 0);
        segs.sort_by_key(|e| e.off);
        for w in segs.windows(2) {
            assert!(
                w[0].end() <= w[1].off,
                "datatype self-overlaps at {:?}/{:?} — invalid as a file view",
                w[0],
                w[1]
            );
        }
        segs
    }

    /// Memoized [`flatten`](Self::flatten): returns a shared flattened
    /// form from a per-thread cache keyed by the datatype itself.
    ///
    /// Workloads set the same view on every open/call of a run (the tile
    /// subarray, the BT-IO cell type), and each `set_view` used to pay a
    /// full type-tree walk plus sort. Every rank of a cluster runs on the
    /// calling thread, so one cache serves them all: a run of P ranks that
    /// each set their own view holds P distinct types (512 tiles on a
    /// 512-rank tile write, twice that on a restart that reads through a
    /// second view), and every repetition after the first is a hash
    /// lookup. Purely host-side: the cost model's charges for view
    /// processing are issued by the protocol layer regardless.
    pub fn flatten_cached(&self) -> Arc<FlatType> {
        thread_local! {
            static FLAT_CACHE: std::cell::RefCell<FlatCache> = std::cell::RefCell::default();
        }
        use simtrace::host;
        let _hp = host::scope(host::Site::Flatten);
        let (flat, hit) = FLAT_CACHE.with_borrow_mut(|cache| cache.get(self));
        let counter = if hit {
            host::Counter::FlattenHit
        } else {
            host::Counter::FlattenMiss
        };
        host::count(counter, 1);
        flat
    }

    fn emit(&self, base: u64, out: &mut Vec<Ext>) {
        match self {
            Datatype::Bytes(n) => out.push(Ext::new(base, *n)),
            Datatype::Contiguous { count, inner } => {
                let ext = inner.extent();
                for i in 0..*count {
                    inner.emit(base + i as u64 * ext, out);
                }
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
                inner,
            } => {
                let ext = inner.extent();
                for b in 0..*count {
                    let block_base = base + (b * stride) as u64 * ext;
                    for i in 0..*blocklen {
                        inner.emit(block_base + i as u64 * ext, out);
                    }
                }
            }
            Datatype::HIndexed { blocks, inner } => {
                let ext = inner.extent();
                for &(disp, count) in blocks {
                    for i in 0..count {
                        inner.emit(base + disp + i as u64 * ext, out);
                    }
                }
            }
            Datatype::Struct { fields } => {
                for (disp, t) in fields {
                    t.emit(base + disp, out);
                }
            }
            Datatype::Resized { inner, .. } => inner.emit(base, out),
            Datatype::Subarray {
                sizes,
                subsizes,
                starts,
                elem,
            } => {
                assert_eq!(sizes.len(), subsizes.len());
                assert_eq!(sizes.len(), starts.len());
                assert!(!sizes.is_empty(), "subarray needs at least one dim");
                for (d, (&sub, (&size, &start))) in subsizes
                    .iter()
                    .zip(sizes.iter().zip(starts.iter()))
                    .enumerate()
                {
                    assert!(
                        start + sub <= size,
                        "subarray dim {d}: start {start} + subsize {sub} exceeds size {size}"
                    );
                }
                // Row-major: iterate all leading coordinates; the last
                // dimension contributes one contiguous run per row.
                let ndim = sizes.len();
                let run_len = subsizes[ndim - 1] as u64 * elem;
                let mut coord = vec![0usize; ndim - 1];
                'outer: loop {
                    // Offset of this row in elements.
                    let mut off_elems = 0u64;
                    let mut stride = 1u64;
                    // Build the row offset from the innermost dimension out.
                    for d in (0..ndim).rev() {
                        let idx = if d == ndim - 1 {
                            starts[d] as u64
                        } else {
                            (starts[d] + coord[d]) as u64
                        };
                        off_elems += idx * stride;
                        stride *= sizes[d] as u64;
                    }
                    out.push(Ext::new(base + off_elems * elem, run_len));
                    // Increment the mixed-radix counter over leading dims.
                    if ndim == 1 {
                        break;
                    }
                    let mut d = ndim - 2;
                    loop {
                        coord[d] += 1;
                        if coord[d] < subsizes[d] {
                            break;
                        }
                        coord[d] = 0;
                        if d == 0 {
                            break 'outer;
                        }
                        d -= 1;
                    }
                }
            }
        }
    }
}

/// A flattened datatype: strided runs within an extent, whose pieces are
/// sorted, disjoint and coalesced. Shared (`Arc`) because views tile one
/// flat type many times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatType {
    /// The runs, in offset order (see [`Run`] for the invariants).
    pub runs: Vec<Run>,
    /// Data bytes per tile (sum of run bytes).
    pub size: u64,
    /// Tile stride: the next repetition starts at `extent`.
    pub extent: u64,
}

/// The flattened forms of the datatypes a thread has seen, bounded by
/// the runs they hold rather than by their number: a type counts its runs
/// (at least one), and a cache that would pass [`FlatCache::MAX_RUNS`]
/// starts over. Views are a few runs each (a tile is one strided run, a
/// BT-IO cell ~160), so the bound admits thousands of ranks' views and
/// only stops pathological type churn from pinning memory.
#[derive(Default)]
struct FlatCache {
    types: std::collections::HashMap<Datatype, Arc<FlatType>>,
    /// Runs held by `types`, each type counted as at least one.
    runs: usize,
}

impl FlatCache {
    /// 2 MiB of runs.
    const MAX_RUNS: usize = 1 << 16;

    /// The flattened form of `ty`, and whether it was held already.
    fn get(&mut self, ty: &Datatype) -> (Arc<FlatType>, bool) {
        if let Some(flat) = self.types.get(ty) {
            return (Arc::clone(flat), true);
        }
        let flat = Arc::new(ty.flatten());
        let runs = flat.runs.len().max(1);
        if self.runs + runs > Self::MAX_RUNS {
            self.types.clear();
            self.runs = 0;
        }
        self.runs += runs;
        self.types.insert(ty.clone(), Arc::clone(&flat));
        (flat, false)
    }
}

impl FlatType {
    /// A flat type representing `n` contiguous bytes.
    pub fn contiguous(n: u64) -> Arc<FlatType> {
        Arc::new(FlatType {
            runs: if n > 0 { vec![Run::piece(0, n)] } else { vec![] },
            size: n,
            extent: n,
        })
    }

    /// True if the type is one contiguous piece starting at 0 whose size
    /// equals its extent (tiling it yields a contiguous stream).
    pub fn is_contiguous(&self) -> bool {
        self.runs.len() <= 1
            && self.size == self.extent
            && self.runs.first().is_none_or(|r| r.off == 0 && r.count == 1)
    }

    /// The pieces the runs expand to, in offset order.
    pub fn pieces(&self) -> impl Iterator<Item = Ext> + '_ {
        self.runs.iter().flat_map(|r| r.pieces())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl FlatType {
        /// The expanded pieces, collected (test shorthand).
        fn segs(&self) -> Vec<Ext> {
            self.pieces().collect()
        }
    }

    /// The segment flattening runs replaced: sorted leaf pieces,
    /// coalesced where they abut.
    fn flatten_segs(t: &Datatype) -> Vec<Ext> {
        let mut out: Vec<Ext> = Vec::new();
        for e in t.sorted_pieces() {
            match out.last_mut() {
                Some(last) if last.end() == e.off => last.len += e.len,
                _ => out.push(e),
            }
        }
        out
    }

    #[test]
    fn every_ranks_view_stays_cached() {
        // 512 ranks, each setting its own tile of a 2-D array: a cache
        // bounded at 128 types missed on all of them on every pass.
        let views: Vec<Datatype> = (0..512)
            .map(|r| Datatype::tile_2d(2048, 2048, 64, 128, r / 16 * 64, r % 16 * 128, 8))
            .collect();
        let mut cache = FlatCache::default();
        let hits = |cache: &mut FlatCache| views.iter().filter(|v| cache.get(v).1).count();
        assert_eq!(hits(&mut cache), 0, "the first pass flattens every view");
        assert_eq!(hits(&mut cache), 512, "the second pass flattens none");
        assert_eq!(cache.get(&views[7]).0.runs, views[7].flatten().runs);

        // The bound is on runs held: one more type than it admits starts
        // the cache over.
        let mut cache = FlatCache::default();
        for n in 1..=FlatCache::MAX_RUNS as u64 + 1 {
            cache.get(&Datatype::Bytes(n));
        }
        assert_eq!((cache.types.len(), cache.runs), (1, 1));
    }

    /// Nested types over every constructor: a leaf (bytes, or a 3-D
    /// subarray) wrapped in up to three `Vector` / `HIndexed` / `Struct` /
    /// `Resized` / `Contiguous` layers, gaps of 0 included so pieces abut.
    fn arb_type() -> impl Strategy<Value = Datatype> {
        let leaf = (any::<bool>(), 1usize..5, 1usize..5, 1usize..6, 0usize..4, 1u64..5);
        let wraps = proptest::collection::vec((0u8..5, 1usize..4, 1usize..3, 0u64..3), 0..4);
        (leaf, wraps).prop_map(|((sub, d0, d1, d2, s, elem), wraps)| {
            let leaf = if sub {
                Datatype::Subarray {
                    sizes: vec![d0 + s, d1 + s, d2 + 1],
                    subsizes: vec![d0, d1, d2],
                    starts: vec![s, s, 1],
                    elem,
                }
            } else {
                Datatype::Bytes(elem * d2 as u64)
            };
            wraps.into_iter().fold(leaf, |t, (op, n, m, gap)| {
                let ext = t.extent();
                match op {
                    0 => Datatype::Vector {
                        count: n,
                        blocklen: m,
                        stride: m + gap as usize,
                        inner: Box::new(t),
                    },
                    // Blocks listed last first: flattening sorts them.
                    1 => Datatype::HIndexed {
                        blocks: (0..n as u64).rev().map(|i| (i * (m as u64 + gap) * ext, m)).collect(),
                        inner: Box::new(t),
                    },
                    2 => Datatype::Struct {
                        fields: vec![(0, t.clone()), (ext + gap, t)],
                    },
                    3 => Datatype::Resized {
                        extent: ext + 7 * gap,
                        inner: Box::new(t),
                    },
                    _ => Datatype::Contiguous {
                        count: n,
                        inner: Box::new(t),
                    },
                }
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The runs expand to the segment flattening, piece for piece,
        /// and keep their invariants.
        #[test]
        fn runs_expand_to_the_segment_flattening(t in arb_type()) {
            let flat = t.flatten();
            prop_assert_eq!(flat.segs(), flatten_segs(&t));
            prop_assert_eq!(flat.size, t.size());
            for r in &flat.runs {
                prop_assert!(r.len > 0 && r.count > 0);
                prop_assert!(if r.count == 1 { r.stride == 0 } else { r.stride > r.len });
            }
            for w in flat.runs.windows(2) {
                prop_assert!(w[0].end() < w[1].off);
            }
        }
    }

    #[test]
    fn pushed_runs_compress_regular_pieces() {
        // Two blocks at one stride, then the stride changes; a piece
        // abutting the last one merges and leaves the run it came from.
        let mut runs = Vec::new();
        for off in [0, 10, 20, 50, 80, 110] {
            push_piece(&mut runs, off, 4);
        }
        push_piece(&mut runs, 114, 2);
        assert_eq!(
            runs,
            [
                Run { off: 0, len: 4, stride: 10, count: 3 },
                Run { off: 50, len: 4, stride: 30, count: 2 },
                Run::piece(110, 6),
            ]
        );
        // A run pushed whole lands as its pieces pushed one by one would.
        let (mut whole, mut each) = (runs.clone(), runs);
        let r = Run { off: 200, len: 6, stride: 90, count: 5 };
        push_run(&mut whole, r);
        r.pieces().for_each(|e| push_piece(&mut each, e.off, e.len));
        assert_eq!(whole, each);
        assert_eq!(whole[2], Run { off: 110, len: 6, stride: 90, count: 6 });
    }

    #[test]
    fn clip_keeps_whole_pieces_as_one_run() {
        let r = Run { off: 100, len: 10, stride: 30, count: 4 };
        let got: Vec<Run> = r.clip(5, 35).collect();
        assert_eq!(
            got,
            [Run::piece(105, 5), Run { off: 130, len: 10, stride: 30, count: 2 }, Run::piece(190, 5)]
        );
        assert_eq!(r.clip(12, 17).collect::<Vec<_>>(), [Run::piece(132, 5)]);
        assert_eq!(r.clip(0, 40).collect::<Vec<_>>(), [r]);
        assert_eq!((r.bytes_before(131), r.bytes_before(145), r.bytes_before(1000)), (11, 20, 40));
        assert_eq!((r.at(11), r.end()), (131, 200));
    }

    #[test]
    fn bytes_flatten() {
        let f = Datatype::Bytes(16).flatten();
        assert_eq!(f.segs(), vec![Ext::new(0, 16)]);
        assert_eq!(f.size, 16);
        assert_eq!(f.extent, 16);
        assert!(f.is_contiguous());
    }

    #[test]
    fn contiguous_coalesces_to_one_run() {
        let t = Datatype::Contiguous {
            count: 4,
            inner: Box::new(Datatype::Bytes(8)),
        };
        let f = t.flatten();
        assert_eq!(f.segs(), vec![Ext::new(0, 32)]);
        assert_eq!(t.size(), 32);
        assert_eq!(t.extent(), 32);
    }

    #[test]
    fn vector_produces_strided_runs() {
        // 3 blocks of 2 elements (4B each), stride 5 elements.
        let t = Datatype::Vector {
            count: 3,
            blocklen: 2,
            stride: 5,
            inner: Box::new(Datatype::Bytes(4)),
        };
        let f = t.flatten();
        assert_eq!(
            f.segs(),
            vec![Ext::new(0, 8), Ext::new(20, 8), Ext::new(40, 8)]
        );
        assert_eq!(t.size(), 24);
        assert_eq!(t.extent(), (2 * 5 + 2) * 4);
    }

    #[test]
    fn hindexed_at_displacements() {
        let t = Datatype::HIndexed {
            blocks: vec![(100, 2), (0, 1), (50, 1)],
            inner: Box::new(Datatype::Bytes(10)),
        };
        let f = t.flatten();
        assert_eq!(
            f.segs(),
            vec![Ext::new(0, 10), Ext::new(50, 10), Ext::new(100, 20)]
        );
        assert_eq!(t.extent(), 120);
        assert_eq!(t.size(), 40);
    }

    #[test]
    fn struct_mixes_field_types() {
        let t = Datatype::Struct {
            fields: vec![
                (0, Datatype::Bytes(4)),
                (
                    16,
                    Datatype::Vector {
                        count: 2,
                        blocklen: 1,
                        stride: 2,
                        inner: Box::new(Datatype::Bytes(4)),
                    },
                ),
            ],
        };
        let f = t.flatten();
        assert_eq!(
            f.segs(),
            vec![Ext::new(0, 4), Ext::new(16, 4), Ext::new(24, 4)]
        );
    }

    #[test]
    fn resized_changes_only_extent() {
        let t = Datatype::Resized {
            extent: 100,
            inner: Box::new(Datatype::Bytes(4)),
        };
        let f = t.flatten();
        assert_eq!(f.segs(), vec![Ext::new(0, 4)]);
        assert_eq!(f.extent, 100);
        assert!(!f.is_contiguous());
    }

    #[test]
    fn tile_2d_matches_manual_offsets() {
        // 4x6 array of 2-byte elems; 2x3 tile at (1,2).
        let t = Datatype::tile_2d(4, 6, 2, 3, 1, 2, 2);
        let f = t.flatten();
        // Row 1: elems (1,2..5) -> elem idx 8..11 -> bytes 16..22.
        // Row 2: elems (2,2..5) -> elem idx 14..17 -> bytes 28..34.
        assert_eq!(f.segs(), vec![Ext::new(16, 6), Ext::new(28, 6)]);
        assert_eq!(f.size, 12);
        assert_eq!(f.extent, 48);
    }

    #[test]
    fn subarray_3d_runs() {
        // 2x2x4 array, 1x2x2 sub at (1,0,1), 1-byte elems.
        let t = Datatype::Subarray {
            sizes: vec![2, 2, 4],
            subsizes: vec![1, 2, 2],
            starts: vec![1, 0, 1],
            elem: 1,
        };
        let f = t.flatten();
        // Plane 1 rows: (1,0,1..3) -> idx 9..10; (1,1,1..3) -> idx 13..14.
        assert_eq!(f.segs(), vec![Ext::new(9, 2), Ext::new(13, 2)]);
    }

    #[test]
    fn full_subarray_is_contiguous() {
        let t = Datatype::Subarray {
            sizes: vec![3, 4],
            subsizes: vec![3, 4],
            starts: vec![0, 0],
            elem: 8,
        };
        let f = t.flatten();
        assert_eq!(f.segs(), vec![Ext::new(0, 96)]);
        assert!(f.is_contiguous());
    }

    #[test]
    fn adjacent_rows_coalesce() {
        // Tile spanning full columns: rows are adjacent in the file.
        let t = Datatype::tile_2d(8, 10, 2, 10, 3, 0, 4);
        let f = t.flatten();
        assert_eq!(f.segs(), vec![Ext::new(120, 80)]);
    }

    #[test]
    #[should_panic(expected = "self-overlaps")]
    fn overlapping_type_rejected() {
        let t = Datatype::HIndexed {
            blocks: vec![(0, 1), (5, 1)],
            inner: Box::new(Datatype::Bytes(10)),
        };
        t.flatten();
    }

    #[test]
    #[should_panic(expected = "exceeds size")]
    fn subarray_out_of_bounds_rejected() {
        Datatype::tile_2d(4, 4, 2, 2, 3, 0, 1).flatten();
    }

    #[test]
    fn nested_contiguous_of_vector() {
        let v = Datatype::Vector {
            count: 2,
            blocklen: 1,
            stride: 2,
            inner: Box::new(Datatype::Bytes(1)),
        };
        // v = runs {0, 2} within extent 3... extent = (1*2+1)*1 = 3.
        let t = Datatype::Contiguous {
            count: 2,
            inner: Box::new(v),
        };
        let f = t.flatten();
        assert_eq!(
            f.segs(),
            vec![Ext::new(0, 1), Ext::new(2, 2), Ext::new(5, 1)]
        );
    }

    #[test]
    fn fortran_subarray_reverses_dims() {
        // A 2x3 Fortran array (2 rows, 3 cols, column-major): selecting
        // column 1 = elements (0,1) and (1,1) which are contiguous on
        // disk at positions 2..4.
        let t = Datatype::subarray_fortran(&[2, 3], &[2, 1], &[0, 1], 1);
        let f = t.flatten();
        assert_eq!(f.segs(), vec![Ext::new(2, 2)]);
    }

    #[test]
    fn zero_sized_pieces_dropped() {
        let t = Datatype::Struct {
            fields: vec![(0, Datatype::Bytes(0)), (8, Datatype::Bytes(4))],
        };
        let f = t.flatten();
        assert_eq!(f.segs(), vec![Ext::new(8, 4)]);
    }
}
