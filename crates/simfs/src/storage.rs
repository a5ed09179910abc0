//! Sparse file contents as an extent map.
//!
//! A real write keeps a view of the buffer it came from ([`IoBuffer::sub`],
//! a reference, not a copy), at whatever length it has: an *extent* is a
//! byte range of the file and the window of the writer's buffer that holds
//! it. Extents are disjoint. A later write trims or splits the extents it
//! overlaps — views again, no byte moves — and holes read back as zeros
//! (POSIX sparse-file semantics). Neither the writer nor an earlier reader
//! ever sees a later write: the image never writes into a buffer, and a
//! writer that changes its buffer afterwards gets a private copy first
//! (copy-on-write in `IoBuffer`).
//!
//! One request ([`Storage::write_pieces`]) covers a span and lands a list
//! of pieces in it, in order, so a later piece wins an overlap; bytes of
//! the span that no piece covers keep what the image holds. That is a
//! two-phase write's round window: the aggregator hands the file its
//! sources' payloads where they go, and nothing is staged.
//!
//! A read returns a range as the views that hold it
//! ([`Storage::read_parts`]); [`Storage::read`] hands back the one view a
//! range written from one buffer is, and copies only a range that several
//! buffers (or holes) make up.
//!
//! What a view can pin: an extent keeps its writer's whole buffer alive
//! until it is overwritten, and so does a read's view until its reader
//! drops it. A write that trims an extent to a remnant that holds most of
//! a buffer alone ([`IoBuffer::store_share`] above four times its length)
//! copies the remnant out; remnants stranded any other way stay views, so
//! [`Storage::resident_bytes`] — the bytes the extents hold — is a lower
//! bound on the memory an image holds.
//!
//! Synthetic writes mark their extents in a [`RangeSet`] instead of
//! materializing bytes; a read overlapping a synthetic extent yields a
//! synthetic buffer of the right size, because its contents are by
//! construction unknowable.

use crate::rangeset::RangeSet;
use simnet::IoBuffer;
use simtrace::host::{count, Counter};
use std::collections::BTreeMap;

thread_local! {
    /// Zeros that holes are read and hashed from, a block at a time.
    static ZEROS: IoBuffer = IoBuffer::from_vec(vec![0; 64 << 10]);
}

/// Sparse contents of one file.
#[derive(Debug, Default)]
pub struct Storage {
    /// Real extents by file offset: disjoint, non-empty views of the
    /// buffers that wrote them.
    extents: BTreeMap<u64, IoBuffer>,
    /// Bytes the extents hold.
    held: u64,
    synthetic: RangeSet,
    size: u64,
}

/// One stretch of a range as [`Storage::walk`] visits it.
enum Stretch<'a> {
    /// `len` bytes of this extent, from byte `from` of it.
    Real(&'a IoBuffer, usize, usize),
    /// This many bytes no extent holds: zeros.
    Hole(usize),
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

    /// Bytes the extents hold (diagnostics): a lower bound on memory
    /// held, since an extent can be a view of a larger buffer — see the
    /// module doc.
    pub fn resident_bytes(&self) -> u64 {
        self.held
    }

    /// The extents currently holding synthetic data.
    pub fn synthetic_ranges(&self) -> &RangeSet {
        &self.synthetic
    }

    /// Write `data` at `offset`: one request for its span, one piece.
    pub fn write(&mut self, offset: u64, data: &IoBuffer) {
        self.write_pieces(offset, data.len() as u64, &[(0, data.clone())]);
    }

    /// One write request for the span `[offset, offset + len)`: each
    /// `(at, bytes)` of `pieces` lands at `offset + at`, in order, so a
    /// later piece wins an overlap. Bytes of the span no piece covers keep
    /// what the image holds, and piece bytes past the span are not
    /// written (a torn transfer). A synthetic piece makes the whole span
    /// synthetic: next to modelled bytes, what it holds is unknowable.
    pub fn write_pieces(&mut self, offset: u64, len: u64, pieces: &[(u64, IoBuffer)]) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        self.size = self.size.max(end);
        if pieces.iter().any(|(_, piece)| !piece.is_real()) {
            // Unmaterialized write: drop any real bytes it overwrites
            // so stale data cannot resurface, then mark the extent.
            self.cut(offset, end);
            self.synthetic.insert(offset, end);
            return;
        }
        for (at, piece) in pieces {
            let (lo, hi) = (*at, (at + piece.len() as u64).min(len));
            if lo >= hi {
                continue;
            }
            let view = piece.sub(0, (hi - lo) as usize);
            let (lo, hi) = (offset + lo, offset + hi);
            self.synthetic.remove(lo, hi);
            self.cut(lo, hi);
            self.held += hi - lo;
            self.extents.insert(lo, view);
        }
    }

    /// Read `len` bytes at `offset`. Returns a synthetic buffer if the
    /// range intersects any synthetic extent; otherwise real bytes with
    /// zeros in holes — the one view that holds them, or else their copy.
    /// Reading past EOF zero-fills, as the MPI-IO layer guarantees it
    /// never exposes past-EOF reads to applications.
    pub fn read(&self, offset: u64, len: usize) -> IoBuffer {
        let mut parts = self.read_parts(offset, len);
        match parts.len() {
            0 => IoBuffer::empty(),
            1 => parts.pop().expect("one part"),
            _ => IoBuffer::generate(len, |out| {
                for part in &parts {
                    let bytes = part.as_slice().expect("a range clear of synthetic bytes");
                    count(Counter::CopyBytes, bytes.len() as u64);
                    out.extend_from_slice(bytes);
                }
            }),
        }
    }

    /// `[offset, offset + len)` as the views that hold it, in order — one
    /// per extent it meets (consecutive windows of one buffer joined),
    /// holes as zeros — or one synthetic buffer if it meets a synthetic
    /// extent. No byte moves.
    pub fn read_parts(&self, offset: u64, len: usize) -> Vec<IoBuffer> {
        let mut parts = Vec::new();
        self.parts_into(offset, len as u64, &mut parts);
        parts
    }

    /// [`Storage::read`] of every `(offset, len)` extent, in order.
    pub fn read_list(&self, extents: &[(u64, u64)]) -> Vec<IoBuffer> {
        let synthetic = self.synthetic_hull(extents);
        let read = |&(off, len): &(u64, u64)| match len {
            1.. if synthetic => IoBuffer::synthetic(len as usize),
            _ => self.read(off, len as usize),
        };
        extents.iter().map(read).collect()
    }

    /// [`Storage::read_parts`] of every `(offset, len)` extent, appended
    /// in order to one list: the parts of each extent add up to its
    /// length, and none reaches across two extents.
    pub fn read_list_parts(&self, extents: &[(u64, u64)]) -> Vec<IoBuffer> {
        let synthetic = self.synthetic_hull(extents);
        let mut parts = Vec::with_capacity(extents.len());
        for &(off, len) in extents.iter().filter(|e| e.1 > 0) {
            if synthetic {
                parts.push(IoBuffer::synthetic(len as usize));
            } else {
                self.parts_into(off, len, &mut parts);
            }
        }
        parts
    }

    /// True if the hull of the non-empty `extents` lies inside one
    /// synthetic extent: one range check says every one of them is
    /// synthetic.
    fn synthetic_hull(&self, extents: &[(u64, u64)]) -> bool {
        let nonempty = extents.iter().filter(|e| e.1 > 0);
        let ranges = nonempty.map(|&(off, len)| (off, off + len));
        let hull = ranges.reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)));
        hull.is_some_and(|(lo, hi)| self.synthetic.contains_range(lo, hi))
    }

    /// Checksum of `[offset, offset+len)` exactly as [`Storage::read`]
    /// would return it — zeros in holes and past EOF — but without
    /// materializing the range: extents are fed to the hasher in place,
    /// holes from a static zero block. `None` when the range intersects a
    /// synthetic extent (modeled bytes have nothing to hash).
    pub fn hash_range(&self, offset: u64, len: usize) -> Option<u64> {
        self.hash_ranges(&[(offset, len)])[0]
    }

    /// [`Storage::hash_range`] of every `(offset, len)`, two ranges at a
    /// time in lockstep (`simnet::cksum::digests`).
    pub fn hash_ranges(&self, ranges: &[(u64, usize)]) -> Vec<Option<u64>> {
        let zeros = ZEROS.with(IoBuffer::clone);
        let zeros = zeros.as_slice().expect("real zeros");
        let streams: Vec<Option<Vec<&[u8]>>> = ranges
            .iter()
            .map(|&(off, len)| self.slices(off, len, zeros))
            .collect();
        let real: Vec<bool> = streams.iter().map(Option::is_some).collect();
        let streams: Vec<Vec<&[u8]>> = streams.into_iter().flatten().collect();
        let mut sums = simnet::cksum::digests(&streams).into_iter();
        real.into_iter()
            .map(|real| real.then(|| sums.next().expect("a sum each")))
            .collect()
    }

    /// The bytes of `[offset, offset + len)` in place, in order — holes
    /// from the block of `zeros` — counted as hashed; `None` when the
    /// range meets a synthetic extent.
    fn slices<'a>(&'a self, offset: u64, len: usize, zeros: &'a [u8]) -> Option<Vec<&'a [u8]>> {
        if self.synthetic.intersects(offset, offset + len as u64) {
            return None;
        }
        count(Counter::CksumBytes, len as u64);
        let mut out = Vec::new();
        self.walk(offset, len as u64, |stretch| match stretch {
            Stretch::Real(ext, from, n) => {
                out.push(&ext.as_slice().expect("extents are real")[from..from + n]);
            }
            Stretch::Hole(n) => {
                let mut left = n;
                while left > 0 {
                    let k = left.min(zeros.len());
                    out.push(&zeros[..k]);
                    left -= k;
                }
            }
        });
        Some(out)
    }

    /// Append the parts of `[offset, offset + len)` to `out` (see
    /// [`Storage::read_parts`]); parts already in `out` are not joined.
    fn parts_into(&self, offset: u64, len: u64, out: &mut Vec<IoBuffer>) {
        if len == 0 {
            return;
        }
        if self.synthetic.intersects(offset, offset + len) {
            out.push(IoBuffer::synthetic(len as usize));
            return;
        }
        let first = out.len();
        let mut push = |part: IoBuffer| {
            if !out[first..].last_mut().is_some_and(|last| last.join(&part)) {
                out.push(part);
            }
        };
        self.walk(offset, len, |stretch| match stretch {
            Stretch::Real(ext, from, n) => push(ext.sub(from, n)),
            Stretch::Hole(n) => ZEROS.with(|zeros| {
                let mut left = n;
                while left > 0 {
                    let k = left.min(zeros.len());
                    push(zeros.sub(0, k));
                    left -= k;
                }
            }),
        });
    }

    /// Visit `[offset, offset + len)` in order, extent by extent, holes
    /// between them.
    fn walk<'a>(&'a self, offset: u64, len: u64, mut visit: impl FnMut(Stretch<'a>)) {
        let end = offset + len;
        let reaching = self.extents.range(..offset).next_back();
        let reaching = reaching.filter(|(&start, ext)| start + ext.len() as u64 > offset);
        let from = reaching.map_or(offset, |(&start, _)| start);
        let mut at = offset;
        for (&start, ext) in self.extents.range(from..end) {
            if start > at {
                visit(Stretch::Hole((start - at) as usize));
                at = start;
            }
            let stop = (start + ext.len() as u64).min(end);
            visit(Stretch::Real(
                ext,
                (at - start) as usize,
                (stop - at) as usize,
            ));
            at = stop;
        }
        if at < end {
            visit(Stretch::Hole((end - at) as usize));
        }
    }

    /// Drop the real bytes of `[lo, hi)`: extents inside go, extents
    /// across an edge are trimmed or split into views of what is left.
    fn cut(&mut self, lo: u64, hi: u64) {
        if self.extents.is_empty() {
            return;
        }
        let mut remnants = Vec::new();
        let reaching = self.extents.range(..lo).next_back();
        let reaching = reaching.filter(|(&start, ext)| start + ext.len() as u64 > lo);
        let inside: Vec<u64> = self
            .extents
            .range(lo..hi)
            .map(|(&start, _)| start)
            .collect();
        let reaching = reaching.map(|(&start, _)| start);
        for start in reaching.into_iter().chain(inside) {
            let ext = self.extents.remove(&start).expect("an extent in the range");
            let end = start + ext.len() as u64;
            self.held -= end - start;
            if start < lo {
                self.keep(start, ext.sub(0, (lo - start) as usize), &mut remnants);
            }
            if end > hi {
                let right = ext.sub((hi - start) as usize, (end - hi) as usize);
                self.keep(hi, right, &mut remnants);
            }
        }
        // A remnant that is all that is left of a buffer keeps all of it
        // alive: give it a store of its own. (A buffer split in two keeps
        // both halves, and each reports half the store.)
        for start in remnants {
            let ext = self.extents.get_mut(&start).expect("a remnant just kept");
            if ext.store_share() > 4 * ext.len() {
                let bytes = ext.as_slice().expect("extents are real");
                count(Counter::CopyBytes, bytes.len() as u64);
                *ext = IoBuffer::from_slice(bytes);
            }
        }
    }

    /// Put back what a cut left of an extent.
    fn keep(&mut self, start: u64, remnant: IoBuffer, remnants: &mut Vec<u64>) {
        self.held += remnant.len() as u64;
        self.extents.insert(start, remnant);
        remnants.push(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE_SIZE: u64 = 64 << 10;

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
        assert_eq!(s.resident_bytes(), data.len() as u64);
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

    /// The reference [`Storage::read`] is compared against: zero-fill
    /// the whole result, then overlay every extent it meets.
    fn read_by_overlay(s: &Storage, offset: u64, len: usize) -> Vec<u8> {
        let end = offset + len as u64;
        let mut out = vec![0u8; len];
        for (&start, ext) in &s.extents {
            let bytes = ext.as_slice().unwrap();
            let (lo, hi) = (start.max(offset), (start + bytes.len() as u64).min(end));
            if lo < hi {
                let src = &bytes[(lo - start) as usize..(hi - start) as usize];
                out[(lo - offset) as usize..(hi - offset) as usize].copy_from_slice(src);
            }
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
        const PAGE: u64 = PAGE_SIZE;
        const SPAN: u64 = 12 * PAGE;
        for seed in 0..24u64 {
            let mut rng = Rng(seed);
            let mut s = Storage::new();
            // The file as a flat image: bytes never written are zero,
            // `synthetic[i]` marks bytes whose content is modeled only.
            let mut image = vec![0u8; SPAN as usize];
            let mut synthetic = vec![false; SPAN as usize];
            // Many writes are windows of this one buffer, at their own
            // offset: the image ends up viewing it in many extents.
            let mut shared = IoBuffer::from_vec((0..SPAN).map(|_| rng.next() as u8 | 1).collect());
            // Writers keep their buffers, to scribble on them below.
            let mut writers = Vec::new();
            for _ in 0..32 {
                let (off, len) = match rng.below(4) {
                    // A few bytes anywhere.
                    0 => (rng.below(SPAN - 300), 1 + rng.below(300)),
                    // Page-aligned, whole pages.
                    1 => {
                        let first = rng.below(12);
                        (first * PAGE, (1 + rng.below(12 - first).min(2)) * PAGE)
                    }
                    // Unaligned, up to three pages.
                    _ => {
                        let off = rng.below(SPAN - 1);
                        (off, 1 + rng.below((SPAN - off).min(3 * PAGE)))
                    }
                };
                let range = off as usize..(off + len) as usize;
                match rng.below(6) {
                    0 => {
                        s.write(off, &IoBuffer::synthetic(len as usize));
                        image[range.clone()].fill(0);
                        synthetic[range].fill(true);
                    }
                    1 | 2 => {
                        s.write(off, &shared.sub(off as usize, len as usize));
                        let data = &shared.as_slice().unwrap()[range.clone()];
                        image[range.clone()].copy_from_slice(data);
                        synthetic[range].fill(false);
                    }
                    3 => {
                        // One request, overlapping pieces in any order
                        // (a later one wins), some cut short by the span,
                        // holes keeping what the image holds.
                        let data: Vec<u8> = (0..len).map(|_| rng.next() as u8 | 1).collect();
                        let buf = IoBuffer::from_slice(&data);
                        let pieces: Vec<(u64, IoBuffer)> = (0..1 + rng.below(6))
                            .map(|_| {
                                let at = rng.below(len);
                                let n = 1 + rng.below(len - at);
                                (at, buf.sub(at as usize, n as usize))
                            })
                            .collect();
                        let span = 1 + rng.below(len);
                        s.write_pieces(off, span, &pieces);
                        for (at, piece) in &pieces {
                            let hi = (at + piece.len() as u64).min(span);
                            let range = (off + at) as usize..(off + hi.max(*at)) as usize;
                            image[range.clone()].copy_from_slice(
                                &data[range.start - off as usize..range.end - off as usize],
                            );
                            synthetic[range].fill(false);
                        }
                        writers.push(buf);
                    }
                    _ => {
                        let data: Vec<u8> = (0..len).map(|_| rng.next() as u8 | 1).collect();
                        let buf = IoBuffer::from_slice(&data);
                        s.write(off, &buf);
                        image[range.clone()].copy_from_slice(&data);
                        synthetic[range].fill(false);
                        writers.push(buf);
                    }
                }
            }
            // Copy-on-write both ways: writers scribbling over their
            // buffers now, and every reader over what it was returned
            // below, never change the image.
            shared.as_mut_slice().unwrap().fill(0);
            writers
                .iter_mut()
                .for_each(|w| w.as_mut_slice().unwrap().fill(0));
            for _ in 0..48 {
                // Ranges start anywhere in the file and may run a page
                // and more past its end.
                let off = rng.below(SPAN);
                let len = 1 + rng.below(3 * PAGE) as usize;
                let in_file = off as usize..(off as usize + len).min(SPAN as usize);
                let mut got = s.read(off, len);
                let parts = s.read_parts(off, len);
                if synthetic[in_file.clone()].contains(&true) {
                    assert!(
                        !got.is_real(),
                        "seed {seed}: read({off}, {len}) is synthetic"
                    );
                    assert_eq!(
                        parts,
                        [IoBuffer::synthetic(len)],
                        "seed {seed}: ({off}, {len})"
                    );
                    assert_eq!(s.hash_range(off, len), None, "seed {seed}: ({off}, {len})");
                    continue;
                }
                let mut expect = image[in_file].to_vec();
                expect.resize(len, 0);
                let joined: Vec<u8> = parts
                    .iter()
                    .flat_map(|p| p.as_slice().unwrap().to_vec())
                    .collect();
                assert!(
                    joined == expect,
                    "seed {seed}: read_parts({off}, {len}) vs the image"
                );
                let bytes = got.as_mut_slice().expect("no synthetic byte in the range");
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
            // A list read: each extent's parts add up to it, in order.
            let list: Vec<(u64, u64)> = (0..8)
                .map(|k| (k * 1_500 * (1 + seed), 1 + rng.below(PAGE)))
                .collect();
            let mut parts = s.read_list_parts(&list).into_iter();
            for (buf, &(off, len)) in s.read_list(&list).iter().zip(&list) {
                let mut n = 0;
                let mut joined = Vec::new();
                while n < len {
                    let part = parts.next().expect("parts up to the extent's length");
                    n += part.len() as u64;
                    joined.extend(part.as_slice().map(<[u8]>::to_vec).unwrap_or_default());
                }
                assert_eq!(
                    n, len,
                    "seed {seed}: parts of ({off}, {len}) stop at its end"
                );
                if let Some(bytes) = buf.as_slice() {
                    assert_eq!(joined, bytes, "seed {seed}: list extent ({off}, {len})");
                }
            }
            assert!(parts.next().is_none());
        }
    }

    #[test]
    fn extents_view_the_writers_buffer_at_any_length() {
        let data: Vec<u8> = (0..100_000).map(|i| (i % 250 + 1) as u8).collect();
        let buf = IoBuffer::from_slice(&data);
        let mut s = Storage::new();
        // Two unaligned pieces of one buffer, out of order, with a hole
        // between them: each is a view, and so is a read inside one.
        s.write_pieces(
            1_000,
            60_000,
            &[(30_000, buf.sub(30_000, 30_000)), (7, buf.sub(7, 20_000))],
        );
        assert_eq!(s.resident_bytes(), 50_000);
        assert!(buf.sub(0, 7 + 5).join(&s.read(1_012, 19_000)));
        // Parts that are consecutive windows of the buffer join; the hole
        // between the pieces reads as zeros.
        let parts = s.read_parts(1_007, 50_000);
        assert_eq!(parts.len(), 3);
        assert!(buf.sub(0, 7).join(&parts[0]));
        assert_eq!(parts[1].as_slice().unwrap(), &[0; 9_993][..]);
        // The piece after the hole, written in two, reads as one view.
        s.write(31_000, &buf.sub(30_000, 10_000));
        assert_eq!(s.read_parts(31_000, 30_000).len(), 1);
        // A write inside an extent splits it; the buffer keeps its bytes.
        s.write(1_100, &IoBuffer::from_slice(&[0xEE; 3]));
        let mut expect = data[7..20_007].to_vec();
        expect[93..96].fill(0xEE);
        assert_eq!(s.read(1_007, 20_000).as_slice().unwrap(), &expect[..]);
        assert_eq!(buf.as_slice().unwrap(), &data[..]);
        assert_eq!(s.resident_bytes(), 50_000);
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
        let pinned: usize = s.extents.values().map(IoBuffer::store_share).sum();
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
