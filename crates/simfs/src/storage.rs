//! Sparse page store for file contents.
//!
//! Real data is stored in 64 KiB pages; holes read back as zeros (POSIX
//! sparse-file semantics). A page is a shared window ([`IoBuffer`]): a
//! write covering it whole stores a window of the writer's buffer — a
//! reference, not a copy — and a read over pages that are consecutive
//! windows of one backing store (a range last written from one buffer)
//! returns that window. A partly covered page is patched copy-on-write,
//! so neither the writer nor an earlier reader ever sees a later write.
//! What a view can pin: a page surviving from a large write keeps that
//! whole buffer alive until it is overwritten, and so does a read's
//! window until its reader drops it. A write that replaces the rest of a
//! buffer copies out the page it leaves behind just before and just
//! after itself; pages stranded any other way (scattered overwrites)
//! stay views, so [`Storage::resident_bytes`] is a
//! lower bound on the memory an image holds.
//! Synthetic writes mark their extents in a [`RangeSet`] instead of
//! materializing bytes; a read overlapping a synthetic extent yields a
//! synthetic buffer of the right size, because its contents are by
//! construction unknowable.

use crate::rangeset::RangeSet;
use simnet::IoBuffer;
use simtrace::host::{count, Counter};
use std::collections::BTreeMap;

/// Page granularity of the backing store.
pub const PAGE_SIZE: u64 = 64 * 1024;

/// The part of page `page_idx` inside the window `[offset, end)`: where
/// it starts relative to `offset`, and its byte range within the page.
fn page_window(page_idx: u64, offset: u64, end: u64) -> (usize, std::ops::Range<usize>) {
    let page_start = page_idx * PAGE_SIZE;
    let lo = page_start.max(offset);
    let hi = (page_start + PAGE_SIZE).min(end);
    ((lo - offset) as usize, (lo - page_start) as usize..(hi - page_start) as usize)
}

/// The bytes of a resident page.
fn bytes(page: &IoBuffer) -> &[u8] {
    page.as_slice().expect("pages hold real bytes")
}

/// The same for patching: copied out first if a writer or reader shares them.
fn bytes_mut(page: &mut IoBuffer) -> &mut [u8] {
    page.as_mut_slice().expect("pages hold real bytes")
}

/// Sparse contents of one file.
#[derive(Debug, Default)]
pub struct Storage {
    /// Resident pages: real windows of exactly [`PAGE_SIZE`] bytes.
    pages: BTreeMap<u64, IoBuffer>,
    synthetic: RangeSet,
    size: u64,
}

impl Storage {
    /// Empty file.
    pub fn new() -> Self {
        Storage::default()
    }

    /// Current file size (highest byte written + 1).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes of resident pages (diagnostics): a lower bound on memory
    /// held, since a page can be a window of a larger buffer — see the
    /// module doc.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }

    /// The extents currently holding synthetic data.
    pub fn synthetic_ranges(&self) -> &RangeSet {
        &self.synthetic
    }

    /// Write `data` at `offset`.
    pub fn write(&mut self, offset: u64, data: &IoBuffer) {
        let len = data.len() as u64;
        if len == 0 {
            return;
        }
        let end = offset + len;
        self.size = self.size.max(end);
        if data.is_real() {
            self.synthetic.remove(offset, end);
            self.write_pages(offset, data);
        } else {
            // Unmaterialized write: drop any real bytes it overwrites
            // so stale data cannot resurface, then mark the extent.
            self.zero_pages(offset, end);
            self.synthetic.insert(offset, end);
        }
    }

    /// Read `len` bytes at `offset`. Returns a synthetic buffer if the
    /// range intersects any synthetic extent; otherwise real bytes with
    /// zeros in holes. Reading past EOF zero-fills, as the MPI-IO layer
    /// guarantees it never exposes past-EOF reads to applications.
    pub fn read(&self, offset: u64, len: usize) -> IoBuffer {
        if len == 0 {
            return IoBuffer::empty();
        }
        let end = offset + len as u64;
        if self.synthetic.intersects(offset, end) {
            return IoBuffer::synthetic(len);
        }
        let pages = offset / PAGE_SIZE..=(end - 1) / PAGE_SIZE;
        // Resident pages that are consecutive windows of one backing
        // store are that store's window: no byte moves.
        let mut parts = pages.clone().map(|page_idx| {
            let (_, within) = page_window(page_idx, offset, end);
            let page = self.pages.get(&page_idx)?;
            Some(page.sub(within.start, within.len()))
        });
        if let Some(mut whole) = parts.next().flatten() {
            if parts.all(|part| part.is_some_and(|part| whole.join(&part))) {
                return whole;
            }
        }
        // Anything else is appended page by page, every byte written
        // once: resident pages are copied, holes zero-extended.
        let mut out = Vec::with_capacity(len);
        for page_idx in pages {
            let (at, within) = page_window(page_idx, offset, end);
            if let Some(page) = self.pages.get(&page_idx) {
                count(Counter::CopyBytes, within.len() as u64);
                out.extend_from_slice(&bytes(page)[within]);
                continue;
            }
            out.resize(at + within.len(), 0);
        }
        IoBuffer::from_vec(out)
    }

    /// [`Storage::read`] of every `(offset, len)` extent, in order. One
    /// range check covers a list whose hull lies inside one synthetic
    /// extent: every buffer is synthetic.
    pub fn read_list(&self, extents: &[(u64, u64)]) -> Vec<IoBuffer> {
        let nonempty = extents.iter().filter(|e| e.1 > 0);
        let ranges = nonempty.map(|&(off, len)| (off, off + len));
        let hull = ranges.reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)));
        let synthetic = hull.is_some_and(|(lo, hi)| self.synthetic.contains_range(lo, hi));
        let read = |&(off, len): &(u64, u64)| match len {
            1.. if synthetic => IoBuffer::synthetic(len as usize),
            _ => self.read(off, len as usize),
        };
        extents.iter().map(read).collect()
    }

    /// Checksum of `[offset, offset+len)` exactly as [`Storage::read`]
    /// would return it — zeros in holes and past EOF — but without
    /// materializing the window: resident pages are fed to the hasher in
    /// place, holes from a static zero block. `None` when the range
    /// intersects a synthetic extent (modeled bytes have nothing to hash).
    pub fn hash_range(&self, offset: u64, len: usize) -> Option<u64> {
        use simnet::cksum::Fnv1a;
        static ZEROS: [u8; PAGE_SIZE as usize] = [0u8; PAGE_SIZE as usize];
        if len == 0 {
            return Some(Fnv1a::new().digest());
        }
        let end = offset + len as u64;
        if self.synthetic.intersects(offset, end) {
            return None;
        }
        count(Counter::CksumBytes, len as u64);
        let mut h = Fnv1a::new();
        for page_idx in offset / PAGE_SIZE..=(end - 1) / PAGE_SIZE {
            let (_, within) = page_window(page_idx, offset, end);
            if let Some(page) = self.pages.get(&page_idx) {
                h.update(&bytes(page)[within]);
            } else {
                h.update(&ZEROS[within]);
            }
        }
        Some(h.digest())
    }

    fn write_pages(&mut self, offset: u64, data: &IoBuffer) {
        let end = offset + data.len() as u64;
        for page_idx in offset / PAGE_SIZE..=(end - 1) / PAGE_SIZE {
            let (at, within) = page_window(page_idx, offset, end);
            let part = data.sub(at, within.len());
            if within.len() == PAGE_SIZE as usize {
                // Whole page, absent or resident: keep a window of the
                // writer's buffer.
                self.pages.insert(page_idx, part);
            } else {
                // Partly covered: patch the page (a new one is zeros),
                // copy-on-write if a writer or reader shares its bytes.
                let page = self.pages.entry(page_idx);
                let page = page.or_insert_with(|| IoBuffer::zeroed(PAGE_SIZE as usize));
                page.copy_in(within.start, &part);
            }
        }
        // The page before or after may be the last one left of a buffer
        // this write replaced the rest of, and keep all of it alive: give
        // it a store of its own. (A store adopted whole has a share of at
        // most two pages — the pool's slack.)
        for edge in [(offset / PAGE_SIZE).wrapping_sub(1), end.div_ceil(PAGE_SIZE)] {
            let left_behind = |page: &&mut IoBuffer| page.store_share() > 4 * PAGE_SIZE as usize;
            if let Some(page) = self.pages.get_mut(&edge).filter(left_behind) {
                count(Counter::CopyBytes, PAGE_SIZE);
                *page = IoBuffer::from_slice(bytes(page));
            }
        }
    }

    fn zero_pages(&mut self, start: u64, end: u64) {
        let first_page = start / PAGE_SIZE;
        let last_page = if end == 0 { 0 } else { (end - 1) / PAGE_SIZE };
        for (&page_idx, page) in self.pages.range_mut(first_page..=last_page) {
            let page_start = page_idx * PAGE_SIZE;
            let z_start = page_start.max(start);
            let z_end = (page_start + PAGE_SIZE).min(end);
            if z_start < z_end {
                bytes_mut(page)[(z_start - page_start) as usize..(z_end - page_start) as usize]
                    .fill(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let mut s = Storage::new();
        s.write(100, &IoBuffer::from_slice(b"hello world"));
        let got = s.read(100, 11);
        assert_eq!(got.as_slice().unwrap(), b"hello world");
        assert_eq!(s.size(), 111);
    }

    #[test]
    fn holes_read_as_zeros() {
        let mut s = Storage::new();
        s.write(10, &IoBuffer::from_slice(&[1, 2, 3]));
        let got = s.read(8, 7);
        assert_eq!(got.as_slice().unwrap(), &[0, 0, 1, 2, 3, 0, 0]);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut s = Storage::new();
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let off = PAGE_SIZE - 123;
        s.write(off, &IoBuffer::from_slice(&data));
        let got = s.read(off, data.len());
        assert_eq!(got.as_slice().unwrap(), data.as_slice());
        assert!(s.resident_bytes() >= data.len() as u64);
    }

    #[test]
    fn overwrite_replaces_bytes() {
        let mut s = Storage::new();
        s.write(0, &IoBuffer::from_slice(&[1; 10]));
        s.write(3, &IoBuffer::from_slice(&[9; 4]));
        assert_eq!(
            s.read(0, 10).as_slice().unwrap(),
            &[1, 1, 1, 9, 9, 9, 9, 1, 1, 1]
        );
    }

    #[test]
    fn synthetic_write_marks_extent_without_memory() {
        let mut s = Storage::new();
        s.write(0, &IoBuffer::synthetic(1 << 40)); // a terabyte
        assert_eq!(s.size(), 1 << 40);
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.read(123, 4096), IoBuffer::synthetic(4096));
    }

    #[test]
    fn read_overlapping_synthetic_is_synthetic() {
        let mut s = Storage::new();
        s.write(0, &IoBuffer::from_slice(&[1; 100]));
        s.write(1000, &IoBuffer::synthetic(100));
        assert!(s.read(0, 100).is_real());
        assert!(!s.read(500, 1000).is_real());
        assert!(s.read(0, 500).is_real()); // clear of the synthetic extent
    }

    #[test]
    fn real_overwrite_clears_synthetic_marking() {
        let mut s = Storage::new();
        s.write(0, &IoBuffer::synthetic(100));
        s.write(0, &IoBuffer::from_slice(&[7; 100]));
        let got = s.read(0, 100);
        assert_eq!(got.as_slice().unwrap(), &[7; 100]);
    }

    #[test]
    fn synthetic_overwrite_hides_real_bytes() {
        let mut s = Storage::new();
        s.write(0, &IoBuffer::from_slice(&[7; 100]));
        s.write(50, &IoBuffer::synthetic(10));
        assert!(!s.read(0, 100).is_real());
        // But the untouched prefix stays readable.
        assert_eq!(s.read(0, 50).as_slice().unwrap(), &[7; 50]);
    }

    #[test]
    fn empty_write_and_read() {
        let mut s = Storage::new();
        s.write(10, &IoBuffer::empty());
        assert_eq!(s.size(), 0);
        assert!(s.read(0, 0).is_empty());
    }

    /// The read this module had before it appended page slices: zero-fill
    /// the whole result, then overlay the resident pages. Kept as the
    /// reference [`Storage::read`] is compared against.
    fn read_by_overlay(s: &Storage, offset: u64, len: usize) -> Vec<u8> {
        let end = offset + len as u64;
        let mut out = vec![0u8; len];
        for (&page_idx, page) in s.pages.range(offset / PAGE_SIZE..=(end - 1) / PAGE_SIZE) {
            let (at, within) = page_window(page_idx, offset, end);
            out[at..at + within.len()].copy_from_slice(&bytes(page)[within]);
        }
        out
    }

    /// splitmix64: seeded draws, so a failure names its layout.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn reads_and_range_hashes_match_a_flat_model_over_seeded_layouts() {
        const PAGES: u64 = 12;
        const SPAN: u64 = PAGES * PAGE_SIZE;
        for seed in 0..24u64 {
            let mut rng = Rng(seed);
            let mut s = Storage::new();
            // The file as a flat image: bytes never written are zero,
            // `synthetic[i]` marks bytes whose content is modeled only.
            let mut image = vec![0u8; SPAN as usize];
            let mut synthetic = vec![false; SPAN as usize];
            // Whole-page writes all come out of this one buffer, at their
            // own offset: the image ends up viewing it.
            let mut shared = IoBuffer::from_vec((0..SPAN).map(|_| rng.next() as u8 | 1).collect());
            for _ in 0..24 {
                let (off, len) = match rng.below(4) {
                    // Whole pages, absent or resident: views of the source.
                    0 => {
                        let first = rng.below(PAGES);
                        (first * PAGE_SIZE, (1 + rng.below(PAGES - first).min(2)) * PAGE_SIZE)
                    }
                    // A few bytes: a new page is mostly zeros.
                    1 => (rng.below(SPAN - 300), 1 + rng.below(300)),
                    // Unaligned, up to three pages: partial pages at both
                    // ends, whole ones between.
                    _ => {
                        let off = rng.below(SPAN - 1);
                        (off, 1 + rng.below((SPAN - off).min(3 * PAGE_SIZE)))
                    }
                };
                let range = off as usize..(off + len) as usize;
                if rng.below(6) == 0 {
                    s.write(off, &IoBuffer::synthetic(len as usize));
                    image[range.clone()].fill(0);
                    synthetic[range].fill(true);
                } else if off % PAGE_SIZE == 0 && len % PAGE_SIZE == 0 {
                    s.write(off, &shared.sub(off as usize, len as usize));
                    let data = &shared.as_slice().unwrap()[range.clone()];
                    image[range.clone()].copy_from_slice(data);
                    synthetic[range].fill(false);
                } else {
                    let data: Vec<u8> = (0..len).map(|_| rng.next() as u8 | 1).collect();
                    s.write(off, &IoBuffer::from_slice(&data));
                    image[range.clone()].copy_from_slice(&data);
                    synthetic[range].fill(false);
                }
            }
            // Copy-on-write both ways: the writer scribbling over its
            // buffer now, and every reader over what it was returned
            // below, never change the image.
            shared.as_mut_slice().unwrap().fill(0);
            for _ in 0..48 {
                // Windows start anywhere in the file and may run a page
                // and more past its end.
                let off = rng.below(SPAN);
                let len = 1 + rng.below(3 * PAGE_SIZE) as usize;
                let in_file = off as usize..(off as usize + len).min(SPAN as usize);
                let mut got = s.read(off, len);
                if synthetic[in_file.clone()].contains(&true) {
                    assert!(!got.is_real(), "seed {seed}: read({off}, {len}) is synthetic");
                    assert_eq!(s.hash_range(off, len), None, "seed {seed}: ({off}, {len})");
                    continue;
                }
                let mut expect = image[in_file].to_vec();
                expect.resize(len, 0);
                let bytes = got.as_mut_slice().expect("no synthetic byte in the window");
                assert!(bytes == &expect[..], "seed {seed}: read({off}, {len}) vs the image");
                assert!(
                    bytes == &read_by_overlay(&s, off, len)[..],
                    "seed {seed}: read({off}, {len}) vs zero-fill-then-overlay"
                );
                assert_eq!(
                    s.hash_range(off, len),
                    Some(simnet::fnv1a(bytes)),
                    "seed {seed}: hash_range({off}, {len})"
                );
                bytes.fill(0);
            }
        }
    }

    #[test]
    fn whole_pages_view_the_writers_buffer_and_partial_ones_are_patched() {
        let page = PAGE_SIZE as usize;
        let data: Vec<u8> = (0..2 * page + 10).map(|i| (i % 250 + 1) as u8).collect();
        let buf = IoBuffer::from_slice(&data);
        let mut s = Storage::new();
        // Page 1 is absent and covered completely; pages 0 and 2 are
        // absent and covered in part (their last and first 10 bytes).
        s.write(PAGE_SIZE - 10, &buf.sub(0, page + 20));
        let mut expect = vec![0u8; 3 * page];
        expect[page - 10..2 * page + 10].copy_from_slice(&data[..page + 20]);
        assert_eq!(s.read(0, 3 * page).as_slice().unwrap(), &expect[..]);
        assert_eq!(s.resident_bytes(), 3 * PAGE_SIZE);
        // All three are resident now. Two whole pages out of one buffer
        // read back as that buffer's window — `join` succeeds only inside
        // one backing store — until a partial overwrite patches one: the
        // patch is private to the image, the buffer keeps its bytes.
        s.write(PAGE_SIZE, &buf.sub(7, 2 * page));
        expect[page..3 * page].copy_from_slice(&data[7..7 + 2 * page]);
        assert!(buf.sub(0, 7 + 5).join(&s.read(PAGE_SIZE + 5, 2 * page - 9)));
        s.write(5, &IoBuffer::from_slice(&[0xEE; 3]));
        s.write(PAGE_SIZE + 5, &IoBuffer::from_slice(&[0xEE; 3]));
        expect[5..8].fill(0xEE);
        expect[page + 5..page + 8].fill(0xEE);
        assert!(!buf.sub(0, 7).join(&s.read(PAGE_SIZE, 2 * page)));
        assert_eq!(s.read(0, 3 * page).as_slice().unwrap(), &expect[..]);
        assert_eq!(buf.as_slice().unwrap(), &data[..]);
        assert_eq!(s.resident_bytes(), 3 * PAGE_SIZE);
    }

    #[test]
    fn a_page_left_behind_does_not_pin_the_buffer_it_was_written_from() {
        // Sixteen-page buffers, each written one page further on: every
        // write leaves one page of the buffer before it behind.
        let mut s = Storage::new();
        for shift in 0..8u64 {
            let data = vec![shift as u8 + 1; 16 * PAGE_SIZE as usize];
            s.write(shift * PAGE_SIZE, &IoBuffer::from_vec(data));
        }
        assert_eq!(s.resident_bytes(), (7 + 16) * PAGE_SIZE);
        let pinned: usize = s.pages.values().map(IoBuffer::store_share).sum();
        assert!(pinned as u64 <= 2 * s.resident_bytes(), "{pinned} bytes pinned");
        for shift in 0..8u64 {
            assert_eq!(s.read(shift * PAGE_SIZE, 1).as_slice().unwrap(), &[shift as u8 + 1]);
        }
    }

    #[test]
    fn large_offsets_work() {
        let mut s = Storage::new();
        let off = 486 * (1u64 << 30); // 486 GB, the Flash checkpoint size
        s.write(off, &IoBuffer::from_slice(&[42]));
        assert_eq!(s.read(off, 1).as_slice().unwrap(), &[42]);
        assert_eq!(s.size(), off + 1);
    }
}
