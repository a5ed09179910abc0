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
//! whole buffer alive until it is overwritten, truncated or spilled, and
//! so does a read's window until its reader drops it. A write that
//! replaces the rest of a buffer copies out the page it leaves behind
//! just before and just after itself; pages stranded any other way (a
//! truncate, scattered overwrites, all but a few pages spilled) stay
//! views, so [`Storage::resident_bytes`] — and with it the spill limit —
//! is a lower bound on the memory an image holds.
//! Synthetic writes mark their extents in a [`RangeSet`] instead of
//! materializing bytes; a read overlapping a synthetic extent yields a
//! synthetic buffer of the right size, because its contents are by
//! construction unknowable.
//!
//! ## Streaming file images
//!
//! Verify-mode paper-scale runs materialize multi-gigabyte file images.
//! With a spill limit armed ([`set_spill_limit`] or `SIMFS_SPILL_MB`),
//! a file image keeps at most that many bytes of pages resident: once a
//! write pushes past the limit, the lowest-offset resident pages (the
//! coldest under the overwhelmingly sequential collective-I/O pattern)
//! are written through to an unlinked per-file temp file and dropped
//! from memory (a backing store is freed when the last page viewing it
//! goes). Reads pull bytes straight off the spill file, so every
//! read stays byte-identical to the fully-resident store — spilling is
//! invisible except through [`Storage::spilled_bytes`]. Purely host-side
//! memory management; virtual time never observes it.

use crate::rangeset::RangeSet;
use simnet::IoBuffer;
use simtrace::host::{count, Counter};
use std::collections::BTreeMap;
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};

/// Page granularity of the backing store.
pub const PAGE_SIZE: u64 = 64 * 1024;

/// Unresolved sentinel for [`SPILL_LIMIT`] (resolve the env var lazily).
const LIMIT_UNSET: u64 = u64::MAX;

/// Process-wide resident-bytes cap per file image; 0 = spilling disabled.
static SPILL_LIMIT: AtomicU64 = AtomicU64::new(LIMIT_UNSET);

/// Cap the resident page bytes of every file image at `bytes` (rounded
/// up to whole pages internally); `0` disables spilling. Overrides the
/// `SIMFS_SPILL_MB` environment variable.
pub fn set_spill_limit(bytes: u64) {
    SPILL_LIMIT.store(bytes, Ordering::Relaxed);
}

/// The per-file-image resident cap in force: the value of
/// [`set_spill_limit`], else `SIMFS_SPILL_MB` megabytes, else 0
/// (spilling disabled).
pub fn spill_limit() -> u64 {
    let v = SPILL_LIMIT.load(Ordering::Relaxed);
    if v != LIMIT_UNSET {
        return v;
    }
    let resolved = std::env::var("SIMFS_SPILL_MB")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .map(|mb| mb.saturating_mul(1 << 20))
        .unwrap_or(0);
    // Racing resolvers compute the same value; first store wins is fine.
    SPILL_LIMIT.store(resolved, Ordering::Relaxed);
    resolved
}

/// Disk backing for spilled pages: an unlinked temp file holding fixed
/// [`PAGE_SIZE`] slots. Created on first eviction, reclaimed by the OS
/// when the `Storage` drops (the path is unlinked immediately).
#[derive(Debug)]
struct SpillFile {
    file: File,
    slots: u64,
}

impl SpillFile {
    fn create() -> SpillFile {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "simfs-spill-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("creating spill file {}: {e}", path.display()));
        // Unlink right away: the fd keeps the blocks alive, the name
        // never outlives the process even on abort.
        let _ = std::fs::remove_file(&path);
        SpillFile { file, slots: 0 }
    }

    fn write_page(&self, slot: u64, page: &[u8]) {
        pwrite(&self.file, page, slot * PAGE_SIZE);
    }

    fn read_page_into(&self, slot: u64, out: &mut [u8]) {
        pread(&self.file, out, slot * PAGE_SIZE);
    }
}

#[cfg(unix)]
fn pwrite(file: &File, buf: &[u8], off: u64) {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, off).expect("spill write");
}

#[cfg(unix)]
fn pread(file: &File, buf: &mut [u8], off: u64) {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, off).expect("spill read");
}

#[cfg(windows)]
fn pwrite(file: &File, mut buf: &[u8], mut off: u64) {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        let n = file.seek_write(buf, off).expect("spill write");
        buf = &buf[n..];
        off += n as u64;
    }
}

#[cfg(windows)]
fn pread(file: &File, mut buf: &mut [u8], mut off: u64) {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        let n = file.seek_read(buf, off).expect("spill read");
        assert!(n > 0, "spill read hit EOF");
        buf = &mut buf[n..];
        off += n as u64;
    }
}

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
    /// Pages evicted to disk: page index → slot in the spill file.
    spilled: BTreeMap<u64, u64>,
    spill: Option<SpillFile>,
    /// Recycled spill-file slots (pages pulled back in or truncated).
    free_slots: Vec<u64>,
    synthetic: RangeSet,
    size: u64,
}

impl Storage {
    /// Empty file.
    pub fn new() -> Self {
        Storage::default()
    }

    /// Current file size (highest byte written + 1, or truncated size).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes of resident pages (diagnostics, and what the spill limit
    /// caps): a lower bound on memory held, since a page can be a window
    /// of a larger buffer — see the module doc.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }

    /// Bytes of real data currently parked in the spill file.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled.len() as u64 * PAGE_SIZE
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
            if let Some(&slot) = self.spilled.get(&page_idx) {
                // Spilled pages stream straight off the spill file into
                // the result — byte-identical to the resident path,
                // without pulling whole pages back into the cache.
                let spill = self.spill.as_ref().expect("spilled pages imply a file");
                count(Counter::CopyBytes, within.len() as u64);
                pread(&spill.file, &mut out[at..], slot * PAGE_SIZE + within.start as u64);
            }
        }
        IoBuffer::from_vec(out)
    }

    /// Checksum of `[offset, offset+len)` exactly as [`Storage::read`]
    /// would return it — zeros in holes and past EOF — but without
    /// materializing the window: resident pages are fed to the hasher in
    /// place, holes from a static zero block, and spilled pages through
    /// one reused stack-side buffer. `None` when the range intersects a
    /// synthetic extent (modeled bytes have nothing to hash).
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
        let mut spill_buf: Option<Box<[u8]>> = None;
        for page_idx in offset / PAGE_SIZE..=(end - 1) / PAGE_SIZE {
            let (_, within) = page_window(page_idx, offset, end);
            if let Some(page) = self.pages.get(&page_idx) {
                h.update(&bytes(page)[within]);
            } else if let Some(&slot) = self.spilled.get(&page_idx) {
                let spill = self.spill.as_ref().expect("spilled pages imply a file");
                let buf = spill_buf
                    .get_or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
                spill.read_page_into(slot, buf);
                h.update(&buf[within]);
            } else {
                h.update(&ZEROS[within]);
            }
        }
        Some(h.digest())
    }

    /// Truncate to `size` bytes, discarding later content.
    pub fn truncate(&mut self, size: u64) {
        self.size = size;
        self.synthetic.remove(size, u64::MAX);
        let first_dead = size.div_ceil(PAGE_SIZE);
        self.pages.retain(|&idx, _| idx < first_dead);
        let dead_slots: Vec<u64> = self
            .spilled
            .range(first_dead..)
            .map(|(_, &s)| s)
            .collect();
        self.free_slots.extend(dead_slots);
        self.spilled.retain(|&idx, _| idx < first_dead);
        // Zero the tail of the boundary page.
        if !size.is_multiple_of(PAGE_SIZE) {
            let boundary = size / PAGE_SIZE;
            self.unspill(boundary);
            if let Some(page) = self.pages.get_mut(&boundary) {
                bytes_mut(page)[(size % PAGE_SIZE) as usize..].fill(0);
                self.maybe_spill(u64::MAX);
            }
        }
    }

    fn write_pages(&mut self, offset: u64, data: &IoBuffer) {
        let end = offset + data.len() as u64;
        for page_idx in offset / PAGE_SIZE..=(end - 1) / PAGE_SIZE {
            let (at, within) = page_window(page_idx, offset, end);
            let part = data.sub(at, within.len());
            if within.len() == PAGE_SIZE as usize {
                // Whole page, absent or resident: keep a window of the
                // writer's buffer; a spilled copy, if any, is dead.
                self.free_slots.extend(self.spilled.remove(&page_idx));
                self.pages.insert(page_idx, part);
            } else {
                // Partly covered: patch the page (a new one is zeros),
                // copy-on-write if a writer or reader shares its bytes.
                self.unspill(page_idx);
                let page = self.pages.entry(page_idx);
                let page = page.or_insert_with(|| IoBuffer::zeroed(PAGE_SIZE as usize));
                page.copy_in(within.start, &part);
            }
            self.maybe_spill(page_idx);
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
        // Spilled pages: a fully-covered page becomes all-zero, which is
        // indistinguishable from a hole — drop it. A partially-covered
        // page comes back resident for in-place zeroing.
        let in_range: Vec<u64> = self
            .spilled
            .range(first_page..=last_page)
            .map(|(&i, _)| i)
            .collect();
        for page_idx in in_range {
            let page_start = page_idx * PAGE_SIZE;
            if start <= page_start && page_start + PAGE_SIZE <= end {
                let slot = self.spilled.remove(&page_idx).expect("listed above");
                self.free_slots.push(slot);
            } else {
                self.unspill(page_idx);
                let page = self.pages.get_mut(&page_idx).expect("just unspilled");
                let z_start = page_start.max(start);
                let z_end = (page_start + PAGE_SIZE).min(end);
                bytes_mut(page)[(z_start - page_start) as usize..(z_end - page_start) as usize]
                    .fill(0);
                self.maybe_spill(page_idx);
            }
        }
    }

    /// Pull a spilled page back into the resident cache, recycling its
    /// slot. No-op if the page is not spilled.
    fn unspill(&mut self, page_idx: u64) {
        let Some(slot) = self.spilled.remove(&page_idx) else {
            return;
        };
        let spill = self.spill.as_ref().expect("spilled pages imply a file");
        let mut page = IoBuffer::zeroed(PAGE_SIZE as usize);
        spill.read_page_into(slot, bytes_mut(&mut page));
        self.free_slots.push(slot);
        self.pages.insert(page_idx, page);
    }

    /// Enforce the resident cap: while over the limit, write the
    /// lowest-offset resident page (other than the just-touched `keep`)
    /// through to the spill file and drop it. Eviction order is
    /// deterministic, so the spill file contents are a pure function of
    /// the write sequence.
    fn maybe_spill(&mut self, keep: u64) {
        let limit = spill_limit();
        if limit == 0 {
            return;
        }
        let max_pages = (limit.div_ceil(PAGE_SIZE)).max(1) as usize;
        while self.pages.len() > max_pages {
            let Some(&victim) = self.pages.keys().find(|&&i| i != keep) else {
                return;
            };
            let page = self.pages.remove(&victim).expect("key just observed");
            let slot = self.free_slots.pop().unwrap_or_else(|| {
                let spill = self.spill.get_or_insert_with(SpillFile::create);
                let s = spill.slots;
                spill.slots += 1;
                s
            });
            self.spill
                .as_ref()
                .expect("slot allocation created the file")
                .write_page(slot, bytes(&page));
            self.spilled.insert(victim, slot);
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
        // Pages live in memory or the spill file, never lost.
        assert!(s.resident_bytes() + s.spilled_bytes() >= data.len() as u64);
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
    fn truncate_discards_tail() {
        let mut s = Storage::new();
        s.write(0, &IoBuffer::from_slice(&[5; 300]));
        s.truncate(100);
        assert_eq!(s.size(), 100);
        // Re-extend: bytes past the truncation point read as zero.
        s.write(200, &IoBuffer::from_slice(&[1]));
        assert_eq!(s.read(100, 100).as_slice().unwrap(), &[0; 100]);
    }

    #[test]
    fn empty_write_and_read() {
        let mut s = Storage::new();
        s.write(10, &IoBuffer::empty());
        assert_eq!(s.size(), 0);
        assert!(s.read(0, 0).is_empty());
    }

    /// The spill limit is process-global: tests that set it serialize on
    /// this lock so a concurrent test never observes a foreign cap.
    fn spill_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(Default::default)
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Restores the process-wide spill limit on scope exit so parallel
    /// tests are never left running under a stale cap.
    struct LimitGuard;
    impl Drop for LimitGuard {
        fn drop(&mut self) {
            set_spill_limit(0);
        }
    }

    #[test]
    fn spill_bounds_residency_and_reads_stay_byte_identical() {
        let _lock = spill_lock();
        let _g = LimitGuard;
        set_spill_limit(4 * PAGE_SIZE);
        let mut s = Storage::new();
        let n = 32 * PAGE_SIZE as usize + 777;
        let data: Vec<u8> = (0..n).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
        s.write(123, &IoBuffer::from_slice(&data));
        assert!(
            s.resident_bytes() <= 4 * PAGE_SIZE,
            "residency {} over the 4-page cap",
            s.resident_bytes()
        );
        assert!(s.spilled_bytes() >= 28 * PAGE_SIZE);

        // Full image and assorted subranges crossing the
        // resident/spilled boundary read back exactly.
        let got = s.read(123, n);
        assert_eq!(got.as_slice().unwrap(), &data[..]);
        for (off, len) in [
            (0u64, 100usize),
            (PAGE_SIZE - 7, 20),
            (3 * PAGE_SIZE - 10, 2 * PAGE_SIZE as usize),
            (123 + n as u64 - 50, 50),
        ] {
            let got = s.read(off, len);
            let expect: Vec<u8> = (off..off + len as u64)
                .map(|p| {
                    if p >= 123 && p < 123 + n as u64 {
                        data[(p - 123) as usize]
                    } else {
                        0
                    }
                })
                .collect();
            assert_eq!(got.as_slice().unwrap(), &expect[..], "read({off}, {len})");
        }

        // Overwriting a spilled range pulls the pages back, applies the
        // write, and re-evicts under the cap.
        s.write(2 * PAGE_SIZE + 5, &IoBuffer::from_slice(&[0xAB; 100]));
        assert!(s.resident_bytes() <= 4 * PAGE_SIZE);
        let got = s.read(2 * PAGE_SIZE, 200);
        let sl = got.as_slice().unwrap();
        assert_eq!(&sl[5..105], &[0xAB; 100]);
        assert_eq!(sl[0], data[(2 * PAGE_SIZE - 123) as usize]);

        // Truncation drops spilled tail pages and zero-fills re-extends.
        s.truncate(3 * PAGE_SIZE + 50);
        assert_eq!(s.size(), 3 * PAGE_SIZE + 50);
        assert!(s.spilled_bytes() <= 4 * PAGE_SIZE);
        let got = s.read(3 * PAGE_SIZE, 100);
        let sl = got.as_slice().unwrap();
        assert_eq!(&sl[50..], &[0u8; 50]);
    }

    #[test]
    fn synthetic_overwrite_clears_spilled_pages_too() {
        let _lock = spill_lock();
        let _g = LimitGuard;
        set_spill_limit(2 * PAGE_SIZE);
        let mut s = Storage::new();
        let data: Vec<u8> = (0..8 * PAGE_SIZE as usize).map(|i| (i % 250 + 1) as u8).collect();
        s.write(0, &IoBuffer::from_slice(&data));
        assert!(s.spilled_bytes() >= 6 * PAGE_SIZE);
        // Synthetic overwrite spanning spilled pages: covered pages must
        // not resurface stale real bytes.
        s.write(PAGE_SIZE + 10, &IoBuffer::synthetic((5 * PAGE_SIZE) as usize));
        assert!(!s.read(PAGE_SIZE + 10, 100).is_real());
        // The untouched prefix is still the original data.
        let got = s.read(0, 100);
        assert_eq!(got.as_slice().unwrap(), &data[..100]);
        // And the bytes just past the synthetic extent survive.
        let tail_off = PAGE_SIZE + 10 + 5 * PAGE_SIZE;
        let got = s.read(tail_off, 100);
        assert_eq!(
            got.as_slice().unwrap(),
            &data[tail_off as usize..tail_off as usize + 100]
        );
    }

    /// The read this module had before it appended page slices: zero-fill
    /// the whole result, then overlay resident and spilled pages. Kept as
    /// the reference [`Storage::read`] is compared against: it rebuilds
    /// the bytes from `pages` *and* `spilled`, so a page that is both
    /// resident and spilled with a stale copy shows here at once.
    fn read_by_overlay(s: &Storage, offset: u64, len: usize) -> Vec<u8> {
        let end = offset + len as u64;
        let mut out = vec![0u8; len];
        let pages = offset / PAGE_SIZE..=(end - 1) / PAGE_SIZE;
        for (&page_idx, page) in s.pages.range(pages.clone()) {
            let (at, within) = page_window(page_idx, offset, end);
            out[at..at + within.len()].copy_from_slice(&bytes(page)[within]);
        }
        for (&page_idx, &slot) in s.spilled.range(pages) {
            let (at, within) = page_window(page_idx, offset, end);
            let mut page = vec![0u8; PAGE_SIZE as usize];
            s.spill.as_ref().unwrap().read_page_into(slot, &mut page);
            out[at..at + within.len()].copy_from_slice(&page[within]);
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
        let _lock = spill_lock();
        let _g = LimitGuard;
        const PAGES: u64 = 12;
        const SPAN: u64 = PAGES * PAGE_SIZE;
        for seed in 0..24u64 {
            // Every other layout runs with three pages resident at most,
            // so resident and spilled pages interleave.
            set_spill_limit(if seed % 2 == 0 { 0 } else { 3 * PAGE_SIZE });
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
                if rng.below(12) == 0 {
                    let size = rng.below(SPAN);
                    s.truncate(size);
                    image[size as usize..].fill(0);
                    synthetic[size as usize..].fill(false);
                }
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
            if seed % 2 == 1 {
                assert!(s.resident_bytes() <= 3 * PAGE_SIZE, "seed {seed}: cap holds");
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
        // Residency is asserted below: no cap armed by a concurrent test.
        let _lock = spill_lock();
        let _g = LimitGuard;
        set_spill_limit(0);
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
        let _lock = spill_lock();
        let _g = LimitGuard;
        set_spill_limit(0);
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

    /// The process's peak resident set ("VmHWM"), in bytes.
    #[cfg(target_os = "linux")]
    fn peak_rss_bytes() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
        let line = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .expect("VmHWM line");
        let kb: u64 = line
            .split_whitespace()
            .nth(1)
            .expect("VmHWM value")
            .parse()
            .expect("VmHWM number");
        kb * 1024
    }

    #[test]
    fn spill_keeps_streaming_image_out_of_process_rss() {
        let _lock = spill_lock();
        let _g = LimitGuard;
        const LIMIT: u64 = 8 << 20; // 8 MiB resident cap
        const CHUNK: usize = 1 << 20;
        const TOTAL: u64 = 256 << 20; // image 32× the cap
        set_spill_limit(LIMIT);
        #[cfg(target_os = "linux")]
        let hwm_before = peak_rss_bytes();

        // Stream a 256 MiB real-data image through one reused chunk
        // buffer: byte at absolute position p is (p * 131) % 251.
        let mut s = Storage::new();
        let mut chunk = vec![0u8; CHUNK];
        let mut off = 0u64;
        while off < TOTAL {
            for (i, b) in chunk.iter_mut().enumerate() {
                *b = ((off as usize + i).wrapping_mul(131) % 251) as u8;
            }
            s.write(off, &IoBuffer::from_slice(&chunk));
            off += CHUNK as u64;
        }
        assert!(
            s.resident_bytes() <= LIMIT,
            "residency {} over the {} cap",
            s.resident_bytes(),
            LIMIT
        );
        assert_eq!(s.resident_bytes() + s.spilled_bytes(), TOTAL, "no page lost");

        // Spot-check reads deep in the spilled region.
        for probe in [0u64, 777 * PAGE_SIZE + 3, TOTAL - 100] {
            let got = s.read(probe, 100);
            let expect: Vec<u8> = (probe..probe + 100)
                .map(|p| ((p as usize).wrapping_mul(131) % 251) as u8)
                .collect();
            assert_eq!(got.as_slice().unwrap(), &expect[..], "read at {probe}");
        }

        // The streaming gate itself: the 256 MiB image must not have
        // passed through process memory. Peak RSS may only have grown by
        // the cap plus working buffers — far under the image size.
        #[cfg(target_os = "linux")]
        {
            let grew = peak_rss_bytes().saturating_sub(hwm_before);
            assert!(
                grew < 64 << 20,
                "peak RSS grew {} bytes while streaming a {} byte image",
                grew,
                TOTAL
            );
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
