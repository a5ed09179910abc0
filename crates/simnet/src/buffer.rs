//! Byte buffers that may carry real data or only a size.
//!
//! The paper's experiments move hundreds of gigabytes (IOR writes 512 MB
//! per process from 512 processes; the 1024-process Flash-IO checkpoint is
//! 486 GB). A laptop-scale reproduction cannot materialize those bytes, but
//! the *cost model* only needs byte counts, and the *protocol logic* only
//! needs lengths and offsets. [`IoBuffer`] therefore comes in two flavours:
//!
//! * [`IoBuffer::Real`] — owns actual bytes. Used by correctness tests and
//!   small examples: data written through the full ParColl/two-phase stack
//!   is read back and compared byte-for-byte.
//! * [`IoBuffer::Synthetic`] — carries only a length. Used by the paper's
//!   full-scale benchmark configurations. All slicing/packing arithmetic is
//!   still performed (and bounds-checked), so the protocol executes the
//!   identical control flow either way.
//!
//! Mixing: combining any synthetic content into a builder degrades the
//! result to synthetic. Performance runs are all-synthetic and correctness
//! runs are all-real, so degradation never silently loses test data; it is
//! nevertheless well-defined. The buffer-kind rule lives in
//! [`BufferBuilder`]: it allocates nothing before a second real piece
//! arrives and drops what it holds at the first synthetic one, so a
//! synthetic transfer never fills memory it would immediately discard.
//!
//! # Zero-copy representation
//!
//! Real contents live behind a shared backing store ([`RealBuf`]:
//! `Arc<Vec<u8>>` plus an `(offset, len)` window). [`IoBuffer::sub`],
//! [`IoBuffer::join`] and the single-piece [`BufferBuilder`] path are O(1)
//! reference bumps, so bytes travel by reference from a rank's user buffer
//! to the aggregator, into the file image (`simfs::storage` keeps views
//! of the writers' buffers) and back out to the reader, whose buffer is
//! the one place a read copies them. Mutation goes through
//! [`IoBuffer::as_mut_slice`], which copies the window out first when the
//! backing is shared (copy-on-write) — handles never observe each other's
//! writes, exactly as with the old owned-`Vec` representation.
//!
//! Host-side copies are *performance* of the simulator, not of the
//! simulated machine: the cost model's `charge_memcpy` calls are issued by
//! the protocols independently of what this module really does, so
//! virtual timestamps are bit-identical with or without the fast paths.
//! Every copy of real bytes is counted (`simtrace::host`'s `copy_bytes`).
//!
//! # Scratch-buffer pooling
//!
//! Freshly-allocated backing stores come from a per-thread pool of
//! recycled `Vec`s (sizes outside [64 B, 16 MiB] bypass it). A backing
//! store returns to its thread's pool when the last handle drops (a full
//! pool drops its oldest store to make room), and serves only requests of
//! at least half its capacity: a window can end up pinned in a file image,
//! slack included. [`IoBuffer::generate`] fills a pooled store in place,
//! so a run's generated buffers reuse the stores the last run's file
//! image let go of.
//! Pooling changes neither contents (buffers are cleared and zero-filled
//! exactly as a fresh allocation would be) nor virtual time.

use simtrace::host::{self, Counter, Site};
use std::cell::RefCell;
use std::sync::Arc;

/// Most recycled buffers a thread retains.
const POOL_MAX_BUFS: usize = 32;
/// Capacity bounds for pooled backing stores: tiny ones are cheaper to
/// allocate fresh, huge ones would pin memory for the thread's lifetime.
const POOL_MIN_CAP: usize = 64;
const POOL_MAX_CAP: usize = 16 << 20;

thread_local! {
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Index of the smallest pooled buffer holding at least `min_cap` and at
/// most twice that: a 64 KiB request must not walk off with a 16 MiB
/// backing store, leave the next large request to allocate fresh, and —
/// adopted as a page of a file image — pin the slack for the file's life.
fn best_fit(pool: &[Vec<u8>], min_cap: usize) -> Option<usize> {
    (0..pool.len())
        .filter(|&i| (min_cap..=2 * min_cap).contains(&pool[i].capacity()))
        .min_by_key(|&i| pool[i].capacity())
}

/// An empty `Vec` with at least `min_cap` capacity, recycled when the
/// pool has one that fits.
fn pool_take(min_cap: usize) -> Vec<u8> {
    let _hp = host::scope(Site::PoolTake);
    if (POOL_MIN_CAP..=POOL_MAX_CAP).contains(&min_cap) {
        let recycled =
            POOL.with_borrow_mut(|pool| best_fit(pool, min_cap).map(|i| pool.remove(i)));
        if let Some(mut v) = recycled {
            v.clear();
            host::count(Counter::PoolReuse, 1);
            return v;
        }
    }
    host::count(Counter::PoolMiss, 1);
    Vec::with_capacity(min_cap)
}

/// Offer a no-longer-used backing store to this thread's pool. A full
/// pool gives up its oldest store (the pool is kept in arrival order):
/// sizes nobody asks for any more age out instead of turning every
/// later store away.
fn pool_put(mut v: Vec<u8>) {
    let _hp = host::scope(Site::PoolPut);
    if !(POOL_MIN_CAP..=POOL_MAX_CAP).contains(&v.capacity()) {
        return;
    }
    v.clear();
    POOL.with_borrow_mut(|pool| {
        if pool.len() == POOL_MAX_BUFS {
            pool.remove(0);
        }
        pool.push(v);
    });
}

/// Shared real contents: a window into a reference-counted backing store.
/// Slicing clones the `Arc` and narrows the window; mutation copies the
/// window out first unless this handle is the only one (copy-on-write).
#[derive(Clone)]
pub struct RealBuf {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl RealBuf {
    fn new(v: Vec<u8>) -> Self {
        let len = v.len();
        RealBuf {
            data: Arc::new(v),
            off: 0,
            len,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

impl Drop for RealBuf {
    fn drop(&mut self) {
        // Last handle to the backing store: recycle it. `get_mut`
        // succeeding is exactly the uniqueness test.
        if let Some(v) = Arc::get_mut(&mut self.data) {
            pool_put(std::mem::take(v));
        }
    }
}

impl std::fmt::Debug for RealBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RealBuf").field(&self.as_slice()).finish()
    }
}

/// A buffer of bytes that may be real (shared backing store) or synthetic
/// (length only). See the module documentation for the rationale.
///
/// # Examples
///
/// ```
/// use simnet::IoBuffer;
///
/// let real = IoBuffer::from_slice(&[1, 2, 3, 4]);
/// assert_eq!(real.sub(1, 2).as_slice().unwrap(), &[2, 3]);
///
/// // A terabyte that costs nothing to hold:
/// let huge = IoBuffer::synthetic(1 << 40);
/// assert_eq!(huge.len(), 1 << 40);
/// assert!(huge.as_slice().is_none());
/// ```
#[derive(Debug, Clone)]
pub enum IoBuffer {
    /// A buffer with actual contents.
    Real(RealBuf),
    /// A buffer that only tracks its length; contents are unmaterialized.
    Synthetic {
        /// The number of bytes this buffer stands for.
        len: usize,
    },
}

/// Equality is by content (and kind), not by backing-store identity: two
/// real buffers are equal iff their bytes are.
impl PartialEq for IoBuffer {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (IoBuffer::Real(a), IoBuffer::Real(b)) => a.as_slice() == b.as_slice(),
            (IoBuffer::Synthetic { len: a }, IoBuffer::Synthetic { len: b }) => a == b,
            _ => false,
        }
    }
}

impl Eq for IoBuffer {}

impl IoBuffer {
    /// An empty real buffer.
    pub fn empty() -> Self {
        IoBuffer::Real(RealBuf::new(Vec::new()))
    }

    /// A real buffer initialized to zero.
    pub fn zeroed(len: usize) -> Self {
        let mut v = pool_take(len);
        v.resize(len, 0);
        IoBuffer::Real(RealBuf::new(v))
    }

    /// A real buffer copying the given bytes.
    pub fn from_slice(bytes: &[u8]) -> Self {
        let mut v = pool_take(bytes.len());
        v.extend_from_slice(bytes);
        IoBuffer::Real(RealBuf::new(v))
    }

    /// A real buffer taking ownership of `bytes` — no copy. Prefer this
    /// over [`from_slice`](Self::from_slice) whenever the `Vec` was built
    /// for the purpose; `from_slice(&v)` on a just-built vector copies the
    /// contents a second time.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        IoBuffer::Real(RealBuf::new(bytes))
    }

    /// A synthetic buffer of the given length.
    pub fn synthetic(len: usize) -> Self {
        IoBuffer::Synthetic { len }
    }

    /// A real buffer of the `len` bytes `fill` appends to an empty
    /// store from the scratch pool: no zero-fill first, and a recycled
    /// store when the pool has one that fits.
    ///
    /// # Panics
    ///
    /// Panics if `fill` appends other than `len` bytes.
    pub fn generate(len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Self {
        let mut v = pool_take(len);
        fill(&mut v);
        assert_eq!(
            v.len(),
            len,
            "IoBuffer::generate: filled {} of {len} bytes",
            v.len()
        );
        IoBuffer::Real(RealBuf::new(v))
    }

    /// Number of bytes represented.
    pub fn len(&self) -> usize {
        match self {
            IoBuffer::Real(b) => b.len,
            IoBuffer::Synthetic { len } => *len,
        }
    }

    /// True if zero bytes are represented.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if this buffer owns real bytes.
    pub fn is_real(&self) -> bool {
        matches!(self, IoBuffer::Real(_))
    }

    /// Borrow the contents if real.
    pub fn as_slice(&self) -> Option<&[u8]> {
        match self {
            IoBuffer::Real(b) => Some(b.as_slice()),
            IoBuffer::Synthetic { .. } => None,
        }
    }

    /// Mutably borrow the contents if real. Copies the window into a
    /// private backing store first when it is shared with other handles
    /// (copy-on-write), so no other buffer observes the writes.
    pub fn as_mut_slice(&mut self) -> Option<&mut [u8]> {
        match self {
            IoBuffer::Real(b) => {
                if Arc::get_mut(&mut b.data).is_none() {
                    let owned = {
                        let s = b.as_slice();
                        host::count(Counter::CopyBytes, s.len() as u64);
                        let mut v = pool_take(s.len());
                        v.extend_from_slice(s);
                        v
                    };
                    *b = RealBuf::new(owned);
                }
                let (off, len) = (b.off, b.len);
                let v = Arc::get_mut(&mut b.data).expect("unique after copy-on-write");
                Some(&mut v[off..off + len])
            }
            IoBuffer::Synthetic { .. } => None,
        }
    }

    /// Extract a sub-range `[start, start+len)` as a new buffer.
    ///
    /// A synthetic buffer yields a synthetic sub-buffer; a real one
    /// yields a zero-copy window into the same backing store. Panics if
    /// the range exceeds the buffer, mirroring slice semantics: range
    /// errors in the I/O protocols are bugs, not recoverable conditions.
    pub fn sub(&self, start: usize, len: usize) -> IoBuffer {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len()),
            "IoBuffer::sub out of range: [{start}, {start}+{len}) of {}",
            self.len()
        );
        match self {
            IoBuffer::Real(b) => IoBuffer::Real(RealBuf {
                data: Arc::clone(&b.data),
                off: b.off + start,
                len,
            }),
            IoBuffer::Synthetic { .. } => IoBuffer::Synthetic { len },
        }
    }

    /// Grow this window over `next` if `next` begins where it ends in the
    /// same backing store (O(1), the inverse of [`sub`](Self::sub)); else
    /// change nothing and say `false`.
    pub fn join(&mut self, next: &IoBuffer) -> bool {
        match (self, next) {
            (IoBuffer::Real(a), IoBuffer::Real(b))
                if Arc::ptr_eq(&a.data, &b.data) && a.off + a.len == b.off =>
            {
                a.len += b.len;
                true
            }
            _ => false,
        }
    }

    /// Bytes of backing store per handle viewing it: what this window keeps
    /// alive if the store's other windows keep their even share (0 for a
    /// synthetic buffer). A window that is all that is left of a large
    /// buffer reports the whole buffer.
    pub fn store_share(&self) -> usize {
        match self {
            IoBuffer::Real(b) => b.data.capacity() / Arc::strong_count(&b.data),
            IoBuffer::Synthetic { .. } => 0,
        }
    }

    /// Overwrite `[dst_off, dst_off+src.len())` of `self` with `src`.
    ///
    /// If either side is synthetic, `self` degrades to synthetic of its
    /// current length (the region's contents are no longer knowable).
    /// Panics on out-of-range writes.
    pub fn copy_in(&mut self, dst_off: usize, src: &IoBuffer) {
        let n = src.len();
        assert!(
            dst_off.checked_add(n).is_some_and(|end| end <= self.len()),
            "IoBuffer::copy_in out of range: [{dst_off}, {dst_off}+{n}) of {}",
            self.len()
        );
        match (src.as_slice(), self.as_mut_slice()) {
            (Some(s), Some(dst)) => {
                host::count(Counter::CopyBytes, n as u64);
                dst[dst_off..dst_off + n].copy_from_slice(s)
            }
            _ => {
                let len = self.len();
                *self = IoBuffer::Synthetic { len };
            }
        }
    }

    /// Consume and return the real bytes, or a zero vector of the right
    /// length for a synthetic buffer (used only at sinks that must emit
    /// bytes, e.g. debugging dumps). A uniquely-held full-window real
    /// buffer gives its backing store away without copying.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            IoBuffer::Real(mut b) => {
                if b.off == 0 && b.len == b.data.len() {
                    // Detach the backing store so Drop doesn't pool it.
                    let data = std::mem::replace(&mut b.data, Arc::new(Vec::new()));
                    drop(b);
                    match Arc::try_unwrap(data) {
                        Ok(v) => v,
                        Err(shared) => shared[..].to_vec(),
                    }
                } else {
                    b.as_slice().to_vec()
                }
            }
            IoBuffer::Synthetic { len } => vec![0u8; len],
        }
    }
}

impl From<Vec<u8>> for IoBuffer {
    fn from(v: Vec<u8>) -> Self {
        IoBuffer::from_vec(v)
    }
}

impl From<&[u8]> for IoBuffer {
    fn from(v: &[u8]) -> Self {
        IoBuffer::from_slice(v)
    }
}

/// Incrementally concatenates buffer pieces, degrading to synthetic if any
/// piece is synthetic. Used by packing/unpacking code in the MPI-IO layer.
///
/// Fast path: while every real piece continues the one before it in the
/// same backing store, the pieces [join](IoBuffer::join) into one
/// window and [`BufferBuilder::finish`] hands that window back without
/// a copy — a whole transfer that lands in one aggregator window, or a
/// read whose parts are adjacent views of the buffer that wrote them.
/// The first piece that breaks the chain copies what was joined so far,
/// once; the copying path draws its backing store from the scratch pool.
#[derive(Debug, Default)]
pub struct BufferBuilder {
    /// Zero-copy candidate: the (real) pieces pushed so far, joined.
    single: Option<IoBuffer>,
    /// Materialized concatenation, once a second piece arrives.
    real: Option<Vec<u8>>,
    len: usize,
    synthetic: bool,
    cap_hint: usize,
}

impl BufferBuilder {
    /// New empty builder. Until the first push it is "real by default":
    /// finishing immediately yields an empty real buffer.
    pub fn new() -> Self {
        BufferBuilder::default()
    }

    /// New builder with a capacity hint for the real backing store.
    pub fn with_capacity(cap: usize) -> Self {
        BufferBuilder {
            cap_hint: cap,
            ..BufferBuilder::default()
        }
    }

    /// Total bytes appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The materialized concatenation buffer, moving the deferred single
    /// piece into it first.
    fn materialize(&mut self) -> &mut Vec<u8> {
        if self.real.is_none() {
            let mut v = pool_take(self.cap_hint.max(self.len));
            if let Some(first) = self.single.take() {
                host::count(Counter::CopyBytes, first.len() as u64);
                v.extend_from_slice(first.as_slice().expect("single piece is real"));
            }
            self.real = Some(v);
        }
        self.real.as_mut().expect("just materialized")
    }

    /// Append a piece.
    pub fn push(&mut self, piece: &IoBuffer) {
        let was_empty = self.len == 0;
        self.len += piece.len();
        if self.synthetic {
            return;
        }
        match piece.as_slice() {
            None => {
                self.synthetic = true;
                self.single = None;
                self.real = None;
            }
            // Nothing to append, and nothing to break a chain of joins.
            Some([]) => {}
            Some(s) => {
                if was_empty && self.real.is_none() {
                    // First piece: defer, it may be all there is.
                    self.single = Some(piece.clone());
                } else if !self
                    .single
                    .as_mut()
                    .is_some_and(|joined| joined.join(piece))
                {
                    host::count(Counter::CopyBytes, s.len() as u64);
                    self.materialize().extend_from_slice(s);
                }
            }
        }
    }

    /// Finish, producing a single buffer.
    pub fn finish(self) -> IoBuffer {
        if self.synthetic {
            return IoBuffer::Synthetic { len: self.len };
        }
        if let Some(single) = self.single {
            return single; // zero-copy: the joined pieces are the result
        }
        match self.real {
            Some(v) => IoBuffer::from_vec(v),
            None => IoBuffer::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_round_trip() {
        let b = IoBuffer::from_slice(&[1, 2, 3, 4]);
        assert_eq!(b.len(), 4);
        assert!(b.is_real());
        assert_eq!(b.as_slice().unwrap(), &[1, 2, 3, 4]);
        assert_eq!(b.into_bytes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn from_vec_takes_ownership_without_copy() {
        let v = vec![9u8, 8, 7];
        let ptr = v.as_ptr();
        let b = IoBuffer::from_vec(v);
        assert_eq!(b.as_slice().unwrap(), &[9, 8, 7]);
        // Round-trips the same allocation (unique, full-window).
        let back = b.into_bytes();
        assert_eq!(back.as_ptr(), ptr);
    }

    #[test]
    fn synthetic_tracks_length_only() {
        let b = IoBuffer::synthetic(1 << 30);
        assert_eq!(b.len(), 1 << 30);
        assert!(!b.is_real());
        assert!(b.as_slice().is_none());
    }

    #[test]
    fn sub_of_real_is_zero_copy_view() {
        let b = IoBuffer::from_slice(&[10, 11, 12, 13, 14]);
        let s = b.sub(1, 3);
        assert_eq!(s.as_slice().unwrap(), &[11, 12, 13]);
        // Same backing store, narrowed window.
        let (IoBuffer::Real(a), IoBuffer::Real(c)) = (&b, &s) else {
            panic!("both real");
        };
        assert!(Arc::ptr_eq(&a.data, &c.data));
    }

    #[test]
    fn sub_of_sub_composes_offsets() {
        let b = IoBuffer::from_slice(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let s = b.sub(2, 5).sub(1, 3);
        assert_eq!(s.as_slice().unwrap(), &[3, 4, 5]);
    }

    #[test]
    fn sub_of_synthetic_is_synthetic() {
        let b = IoBuffer::synthetic(100);
        let s = b.sub(50, 25);
        assert_eq!(s, IoBuffer::synthetic(25));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sub_out_of_range_panics() {
        IoBuffer::synthetic(10).sub(5, 6);
    }

    #[test]
    fn mutation_does_not_leak_into_shared_views() {
        let base = IoBuffer::from_slice(&[1, 2, 3, 4]);
        let mut view = base.sub(1, 2);
        view.as_mut_slice().unwrap()[0] = 99; // copy-on-write
        assert_eq!(view.as_slice().unwrap(), &[99, 3]);
        assert_eq!(base.as_slice().unwrap(), &[1, 2, 3, 4], "base unchanged");
    }

    #[test]
    fn unique_buffer_mutates_in_place() {
        let mut b = IoBuffer::from_slice(&[5, 6, 7]);
        b.as_mut_slice().unwrap()[1] = 0;
        assert_eq!(b.as_slice().unwrap(), &[5, 0, 7]);
    }

    #[test]
    fn copy_in_real_to_real() {
        let mut b = IoBuffer::zeroed(6);
        b.copy_in(2, &IoBuffer::from_slice(&[7, 8]));
        assert_eq!(b.as_slice().unwrap(), &[0, 0, 7, 8, 0, 0]);
    }

    #[test]
    fn copy_in_synthetic_degrades_target() {
        let mut b = IoBuffer::zeroed(6);
        b.copy_in(0, &IoBuffer::synthetic(3));
        assert_eq!(b, IoBuffer::synthetic(6));
    }

    #[test]
    fn copy_in_into_synthetic_stays_synthetic_with_len() {
        let mut b = IoBuffer::synthetic(6);
        b.copy_in(0, &IoBuffer::from_slice(&[1, 2, 3]));
        assert_eq!(b, IoBuffer::synthetic(6));
    }

    #[test]
    fn generate_fills_a_recycled_store_in_place() {
        let b = IoBuffer::from_vec(Vec::with_capacity(4096));
        let IoBuffer::Real(r) = &b else {
            panic!("real")
        };
        let at = r.data.as_ptr();
        drop(b); // this test's thread pools the store
        let g = IoBuffer::generate(3000, |v| v.extend((0..3000u32).map(|i| i as u8)));
        let IoBuffer::Real(r) = &g else {
            panic!("real")
        };
        assert_eq!(r.data.as_ptr(), at, "the pooled store is reused");
        assert!(g
            .as_slice()
            .unwrap()
            .iter()
            .enumerate()
            .all(|(i, &x)| x == i as u8));
    }

    #[test]
    #[should_panic(expected = "filled 2 of 3 bytes")]
    fn generate_checks_its_length() {
        IoBuffer::generate(3, |v| v.extend([1, 2]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn copy_in_out_of_range_panics() {
        let mut b = IoBuffer::zeroed(4);
        b.copy_in(3, &IoBuffer::from_slice(&[1, 2]));
    }

    #[test]
    fn equality_ignores_backing_identity() {
        let a = IoBuffer::from_slice(&[1, 2, 3, 4]).sub(1, 2);
        let b = IoBuffer::from_slice(&[2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, IoBuffer::synthetic(2));
    }

    #[test]
    fn builder_all_real_yields_real_concat() {
        let mut bb = BufferBuilder::new();
        bb.push(&IoBuffer::from_slice(&[1, 2]));
        bb.push(&IoBuffer::from_slice(&[3]));
        bb.push(&IoBuffer::from_slice(&[4, 5]));
        let out = bb.finish();
        assert_eq!(out.as_slice().unwrap(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn builder_single_piece_is_zero_copy() {
        let src = IoBuffer::from_slice(&[1, 2, 3, 4]);
        let mut bb = BufferBuilder::with_capacity(4);
        bb.push(&src.sub(1, 3));
        let out = bb.finish();
        assert_eq!(out.as_slice().unwrap(), &[2, 3, 4]);
        let (IoBuffer::Real(a), IoBuffer::Real(b)) = (&src, &out) else {
            panic!("both real");
        };
        assert!(Arc::ptr_eq(&a.data, &b.data), "no copy for one piece");
    }

    #[test]
    fn builder_degrades_on_synthetic_piece() {
        let mut bb = BufferBuilder::new();
        bb.push(&IoBuffer::from_slice(&[1, 2]));
        bb.push(&IoBuffer::synthetic(10));
        bb.push(&IoBuffer::from_slice(&[3]));
        let out = bb.finish();
        assert_eq!(out, IoBuffer::synthetic(13));
    }

    #[test]
    fn builder_empty_real_piece_then_data() {
        // A zero-length first piece must not hijack the fast path.
        let mut bb = BufferBuilder::new();
        bb.push(&IoBuffer::empty());
        bb.push(&IoBuffer::from_slice(&[7, 8]));
        assert_eq!(bb.finish().as_slice().unwrap(), &[7, 8]);
    }

    #[test]
    fn builder_empty_is_empty_real() {
        let out = BufferBuilder::new().finish();
        assert!(out.is_real());
        assert!(out.is_empty());
    }

    #[test]
    fn synthetic_into_bytes_zero_fills() {
        assert_eq!(IoBuffer::synthetic(3).into_bytes(), vec![0, 0, 0]);
    }

    #[test]
    fn into_bytes_of_window_copies_just_the_window() {
        let b = IoBuffer::from_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(b.sub(1, 3).into_bytes(), vec![2, 3, 4]);
    }

    #[test]
    fn pool_hands_out_the_smallest_buffer_that_fits_within_twice_the_request() {
        let pool: Vec<Vec<u8>> = [1 << 20, 4096, 256, 8192]
            .into_iter()
            .map(Vec::with_capacity)
            .collect();
        let cap = |min| best_fit(&pool, min).map(|i| pool[i].capacity());
        assert_eq!(
            cap(3000),
            Some(4096),
            "not the 1 MiB store that comes first"
        );
        assert_eq!(cap(4097), Some(8192));
        assert_eq!(cap(128), Some(256));
        assert_eq!(cap((1 << 20) + 1), None);
        // ... and no larger than twice the request: a page-sized request
        // leaves the 1 MiB store for a window.
        assert_eq!(cap(64 << 10), None);
        assert_eq!(cap(127), None);
        assert_eq!(cap(1 << 19), Some(1 << 20));
        assert_eq!(cap((1 << 19) - 1), None);
    }

    #[test]
    fn a_full_pool_of_sizes_nobody_asks_for_still_takes_a_newcomer() {
        // This test's thread has its own, empty pool.
        (0..POOL_MAX_BUFS).for_each(|_| pool_put(Vec::with_capacity(1 << 20)));
        let newcomer = Vec::with_capacity(4096);
        let at = newcomer.as_ptr();
        pool_put(newcomer);
        POOL.with_borrow(|pool| assert_eq!(pool.len(), POOL_MAX_BUFS, "the oldest store went"));
        let taken = pool_take(4000);
        assert_eq!(taken.as_ptr(), at, "the newcomer serves the next request");
    }

    #[test]
    fn a_recycled_backing_store_is_zero_filled() {
        let mut b = IoBuffer::zeroed(256);
        b.copy_in(0, &IoBuffer::from_slice(&[0xAA; 16]));
        drop(b); // the backing store returns to the pool
        let c = IoBuffer::zeroed(256); // and is handed out again
        assert!(c.as_slice().unwrap().iter().all(|&x| x == 0), "pool reuse must zero-fill");
    }
}
