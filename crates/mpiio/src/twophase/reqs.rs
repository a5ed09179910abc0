//! Request calculation: which pieces of whose access go to which
//! aggregator (ROMIO's `ADIOI_Calc_my_req` / `ADIOI_Calc_others_req`).
//!
//! A request list is strided [`Run`]s, as the plan it is cut from: the
//! split at domain boundaries, stream positions, window byte counts and
//! round cuts are binary searches over runs plus arithmetic inside one
//! run. Pieces exist one by one only where real bytes move
//! ([`Cut::iter`]); the request message is still modelled as ROMIO's 16
//! bytes per *piece*.
//!
//! The engine splits a plan in its call's own coordinates (`split`):
//! file offsets relative to the call's `min_st`, so the lists of a call
//! shaped like the last one are the last one's, `Rc` for `Rc`.

use crate::datatype::{push_run, Ext, Run};
use crate::view::AccessPlan;
use std::rc::Rc;

/// One piece of a rank's access assigned to an aggregator: a contiguous
/// file run plus where its bytes live in the owning rank's user buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// File (or file-space) offset.
    pub file_off: u64,
    /// Length in bytes.
    pub len: u64,
    /// Offset within the owning rank's contiguous user buffer.
    pub buf_off: u64,
}

impl Piece {
    /// One past the last byte.
    pub fn end(&self) -> u64 {
        self.file_off + self.len
    }
}

/// One rank's pieces inside one aggregator's file domain: the object the
/// whole exchange works on. [`calc_my_req`] builds it once, behind an
/// `Rc`; the owner packs from it, the same `Rc` is the request message
/// (modelled as its ROMIO wire size, [`wire_bytes`](Self::wire_bytes)),
/// and the aggregator cuts its round windows out of it.
///
/// The list is strided [`Run`]s, sorted and non-adjacent in the file (in
/// the coordinates it was split in: see `split`), and
/// — because a domain takes a consecutive stretch of the plan — contiguous
/// in the owner's user buffer. Positions in the piece *stream* (bytes
/// consumed so far, the only cursor state a sender keeps) therefore map
/// to the buffer by one addition, and to the file by a binary search
/// over the runs' stream starts plus arithmetic inside one run.
///
/// The lists split from one plan keep their runs in one shared table, so
/// a list is one allocation, its `Rc`, however many runs it holds.
#[derive(Debug, Default)]
pub struct PieceList {
    /// The runs of every list split from one plan, each with the stream
    /// bytes before it in its own list.
    table: Rc<[(u64, Run)]>,
    /// This list's stretch of `table`.
    lo: u32,
    hi: u32,
    /// Buffer offset of the stream's first byte.
    base: u64,
    /// Number of pieces the runs expand to.
    pieces: u64,
}

thread_local! {
    static EMPTY: Rc<PieceList> = Rc::default();
}

impl PieceList {
    /// The runs in file order, each with the stream bytes before it.
    fn runs(&self) -> &[(u64, Run)] {
        &self.table[self.lo as usize..self.hi as usize]
    }

    /// The shared empty list: a rank with nothing for an aggregator
    /// allocates nothing for it.
    pub fn empty() -> Rc<PieceList> {
        EMPTY.with(Rc::clone)
    }

    /// True if the list holds no piece.
    pub(crate) fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of pieces: the length of ROMIO's `(offset, len)` list.
    pub(crate) fn piece_count(&self) -> u64 {
        self.pieces
    }

    /// Total bytes across all pieces.
    pub fn total_bytes(&self) -> u64 {
        self.runs().last().map_or(0, |(at, r)| at + r.bytes())
    }

    /// Bytes of the `(offset, len)` list ROMIO ships for these pieces:
    /// 16 per piece, however few runs hold them.
    pub fn wire_bytes(&self) -> usize {
        16 * self.piece_count() as usize
    }

    /// The file range touched, `[first offset, last end)`.
    pub fn file_range(&self) -> Option<(u64, u64)> {
        Some((self.runs().first()?.1.off, self.runs().last()?.1.end()))
    }

    /// Stream bytes lying before file offset `off`.
    fn bytes_before(&self, off: u64) -> u64 {
        let runs = self.runs();
        let i = runs.partition_point(|(_, r)| r.end() <= off);
        match runs.get(i) {
            Some((at, r)) => at + r.bytes_before(off),
            None => self.total_bytes(),
        }
    }

    /// Total bytes overlapping `[lo, hi)`: two binary searches.
    pub fn bytes_in_window(&self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return 0;
        }
        self.bytes_before(hi) - self.bytes_before(lo)
    }

    /// Where stream bytes `[pos, pos + n)` live in the owner's user
    /// buffer (one contiguous range; this is its start). Panics if the
    /// stream runs dry first — a protocol invariant violation.
    pub fn buffer_offset(&self, pos: u64, n: u64) -> u64 {
        let total = self.total_bytes();
        assert!(
            pos + n <= total,
            "piece stream exhausted with {} bytes pending",
            pos + n - total
        );
        self.base + pos
    }

    /// The pieces inside file range `[lo, hi)`: the cut of the stream
    /// bytes that lie there.
    pub fn cut_window(&self, lo: u64, hi: u64) -> Cut<'_> {
        let at = self.bytes_before(lo);
        self.cut(at, self.bytes_before(hi.max(lo)) - at)
    }

    /// The runs holding stream bytes `[pos, pos + n)`: a slice of whole
    /// runs with the two ends clipped. A sender's cut of a round and the
    /// aggregator's [`cut_window`](Self::cut_window) of it are the same
    /// pieces, which keeps them consistent without exchanging offsets.
    pub fn cut(&self, pos: u64, n: u64) -> Cut<'_> {
        let buf_off = self.buffer_offset(pos, n);
        if n == 0 {
            return Cut::default();
        }
        let runs = self.runs();
        let i = runs.partition_point(|&(at, _)| at <= pos) - 1;
        let j = runs.partition_point(|&(at, _)| at < pos + n) - 1;
        let (first, (last, r)) = (runs[i].0, runs[j]);
        Cut {
            runs: &runs[i..=j],
            skip: pos - first,
            trim: last + r.bytes() - (pos + n),
            buf_off,
        }
    }
}

/// A stretch of a [`PieceList`]'s stream: whole runs, the first and last
/// clipped. See [`PieceList::cut`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Cut<'a> {
    runs: &'a [(u64, Run)],
    /// Data bytes clipped off the front of the first run.
    skip: u64,
    /// Data bytes clipped off the back of the last run.
    trim: u64,
    /// Buffer offset of the cut's first byte.
    buf_off: u64,
}

impl Cut<'_> {
    /// The clipped runs, in stream order: the first and last run each
    /// split into at most a clipped piece and its whole pieces.
    pub(crate) fn runs(&self) -> impl Iterator<Item = Run> + '_ {
        let last = self.runs.len().wrapping_sub(1);
        self.runs.iter().enumerate().flat_map(move |(i, &(_, r))| {
            let a = if i == 0 { self.skip } else { 0 };
            let b = r.bytes() - if i == last { self.trim } else { 0 };
            r.clip(a, b)
        })
    }

    /// The clipped pieces, in stream order — for the code that moves real
    /// bytes piece by piece. The iterator is the cut itself: a few words,
    /// since exchange frames hold it across their waits.
    pub fn iter(&self) -> impl Iterator<Item = Piece> + '_ {
        let mut rest = (self.runs, self.skip, self.bytes(), self.buf_off);
        std::iter::from_fn(move || {
            let (runs, at, left, buf_off) = &mut rest;
            let &(_, r) = runs.first().filter(|_| *left > 0)?;
            let within = *at % r.len;
            let len = (r.len - within).min(*left);
            let piece = Piece {
                file_off: r.at(*at),
                len,
                buf_off: *buf_off,
            };
            (*at, *left, *buf_off) = (*at + len, *left - len, *buf_off + len);
            if *at == r.bytes() {
                (*runs, *at) = (&runs[1..], 0);
            }
            Some(piece)
        })
    }

    /// Data bytes in the cut.
    pub(crate) fn bytes(&self) -> u64 {
        self.runs.iter().map(|(_, r)| r.bytes()).sum::<u64>() - self.skip - self.trim
    }

    /// The file range covered, `[first offset, last end)`.
    pub fn file_range(&self) -> Option<(u64, u64)> {
        let (first, last) = (self.runs.first()?.1, self.runs.last()?.1);
        Some((first.at(self.skip), last.at(last.bytes() - self.trim - 1) + 1))
    }
}

/// Split a rank's access plan across aggregator domains
/// (`ADIOI_Calc_my_req`): one [`PieceList`] per domain the plan reaches
/// into, as `(domain index, list)` in ascending order. Domains the rank
/// has nothing for do not appear — a tile or checkpoint rank reaches
/// into a handful of several hundred, and everything downstream (the
/// count exchange, the stream positions, every round's sends) is sized
/// by what is returned here.
///
/// Domains must be sorted and contiguous ([`super::domains`] guarantees
/// it); plan runs are sorted, so the walk starts at the first run's
/// domain (binary search) and merges linearly from there: a run wholly
/// inside a domain moves over as it is, one crossing a boundary is split
/// by arithmetic (its data bytes before the boundary).
pub fn calc_my_req(plan: &AccessPlan, domains: &[Ext]) -> Vec<(usize, Rc<PieceList>)> {
    split(plan, domains, 0)
}

/// [`calc_my_req`] with the lists' file offsets taken relative to
/// `origin` (no piece lies before it): the engine splits in its call's
/// coordinates, `origin` being the call's `min_st`.
pub(super) fn split(
    plan: &AccessPlan,
    domains: &[Ext],
    origin: u64,
) -> Vec<(usize, Rc<PieceList>)> {
    let (shape, start) = (plan.shape(), plan.start().unwrap_or(0));
    let run = |i: usize| {
        shape.get(i).map(|r| Run {
            off: start + r.off,
            ..*r
        })
    };
    let (mut lists, mut list) = (Vec::new(), Vec::new());
    // Every list's runs with their stream starts, and each list's
    // (domain, stretch of the table, base, pieces).
    let mut table = Vec::new();
    // The next unassigned byte: data byte `done` of `runs[i]`, file
    // offset `pos`, at `buf_off` in the user buffer.
    let (mut i, mut done, mut buf_off) = (0usize, 0u64, 0u64);
    let mut pos = start;
    let first = domains.partition_point(|d| d.end() <= pos);
    for (at, d) in domains.iter().enumerate().skip(first) {
        if i == shape.len() {
            break;
        }
        if pos >= d.end() {
            continue; // nothing here (an empty domain, or one in a gap)
        }
        assert!(
            d.off <= pos,
            "access at {pos} outside the aggregated file range"
        );
        list.clear();
        let base = buf_off;
        while let Some(r) = run(i) {
            let upto = r.bytes_before(d.end());
            if upto > done {
                let moved = |part: Run| Run {
                    off: part.off - origin,
                    ..part
                };
                r.clip(done, upto)
                    .for_each(|part| push_run(&mut list, moved(part)));
                buf_off += upto - done;
            }
            if upto < r.bytes() {
                done = upto; // the rest of this run belongs to later domains
                break;
            }
            (i, done) = (i + 1, 0);
        }
        pos = run(i).map_or(pos, |r| r.at(done));
        let lo = table.len();
        let mut stream = 0;
        table.extend(list.iter().map(|&r| {
            stream += r.bytes();
            (stream - r.bytes(), r)
        }));
        let pieces = list.iter().map(|r| r.count).sum();
        lists.push((at, lo, table.len(), base, pieces));
    }
    assert!(
        i == shape.len(),
        "access at {pos} outside the aggregated file range"
    );
    let index = |i: usize| u32::try_from(i).expect("a plan's runs fit a u32");
    let table: Rc<[(u64, Run)]> = table.into();
    let list = |(at, lo, hi, base, pieces)| {
        let list = PieceList {
            table: Rc::clone(&table),
            lo: index(lo),
            hi: index(hi),
            base,
            pieces,
        };
        (at, Rc::new(list))
    };
    lists.into_iter().map(list).collect()
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::view::AccessPlan;
    use proptest::prelude::*;

    fn plan(extents: &[(u64, u64)]) -> AccessPlan {
        AccessPlan::from_extents(extents.iter().map(|&(o, l)| Ext::new(o, l)).collect())
    }

    impl PieceList {
        /// The runs, in file order.
        fn plain_runs(&self) -> impl Iterator<Item = Run> + '_ {
            self.runs().iter().map(|&(_, r)| r)
        }

        /// The runs expanded, with buffer offsets (test shorthand).
        pub(in crate::twophase) fn pieces(&self) -> Vec<Piece> {
            let all = PieceList::cut(self, 0, self.total_bytes());
            all.iter().collect()
        }
    }

    /// One list holding all of `extents` (sorted, disjoint).
    pub(in crate::twophase) fn list(extents: &[(u64, u64)]) -> Rc<PieceList> {
        let req = calc_my_req(&plan(extents), &[Ext::new(0, u64::MAX / 2)]);
        let first = req.into_iter().next();
        first.map_or_else(PieceList::empty, |(_, list)| list)
    }

    /// The split laid out one list per domain, the shared empty list
    /// where the plan has nothing.
    fn by_domain(plan: &AccessPlan, domains: &[Ext]) -> Vec<Rc<PieceList>> {
        let mut out = vec![PieceList::empty(); domains.len()];
        for (d, list) in calc_my_req(plan, domains) {
            out[d] = list;
        }
        out
    }

    // ---- references: the linear code the indexed list replaced ----

    /// `calc_my_req` as one push per piece into per-domain vectors.
    fn calc_my_req_linear(plan: &AccessPlan, domains: &[Ext]) -> Vec<Vec<Piece>> {
        let mut out: Vec<Vec<Piece>> = vec![Vec::new(); domains.len()];
        let mut d = 0usize;
        for (buf_off, ext) in plan.with_buffer_offsets() {
            let mut pos = ext.off;
            let mut consumed = 0u64;
            while pos < ext.end() {
                while d < domains.len() && (domains[d].len == 0 || domains[d].end() <= pos) {
                    d += 1;
                }
                assert!(
                    d < domains.len() && domains[d].off <= pos,
                    "access at {pos} outside the aggregated file range"
                );
                let take_end = ext.end().min(domains[d].end());
                out[d].push(Piece {
                    file_off: pos,
                    len: take_end - pos,
                    buf_off: buf_off + consumed,
                });
                consumed += take_end - pos;
                pos = take_end;
            }
        }
        out
    }

    /// A whole list's pieces as the linear split makes them, from its
    /// runs' plan — independent of the run arithmetic under test.
    fn linear(l: &PieceList) -> Vec<Piece> {
        let pieces = l.plain_runs().flat_map(Run::pieces).collect();
        let mut whole = calc_my_req_linear(&AccessPlan::from_extents(pieces), &[Ext::new(0, u64::MAX / 2)]);
        whole.remove(0)
    }

    /// Total bytes of `pieces` overlapping `[lo, hi)`, piece by piece.
    fn bytes_in_window_linear(pieces: &[Piece], lo: u64, hi: u64) -> u64 {
        pieces
            .iter()
            .map(|p| p.end().min(hi).saturating_sub(p.file_off.max(lo)))
            .sum()
    }

    /// The cursor both sides used to walk: `(piece index, bytes within)`,
    /// advanced piece by piece.
    struct PieceCursor<'a> {
        pieces: &'a [Piece],
        idx: usize,
        within: u64,
    }

    impl<'a> PieceCursor<'a> {
        fn new(pieces: &'a [Piece]) -> Self {
            PieceCursor {
                pieces,
                idx: 0,
                within: 0,
            }
        }

        fn consume(&mut self, mut n: u64, mut f: impl FnMut(Piece)) {
            while n > 0 {
                let p = self
                    .pieces
                    .get(self.idx)
                    .unwrap_or_else(|| panic!("piece stream exhausted with {n} bytes pending"));
                let avail = p.len - self.within;
                let take = avail.min(n);
                f(Piece {
                    file_off: p.file_off + self.within,
                    len: take,
                    buf_off: p.buf_off + self.within,
                });
                self.within += take;
                n -= take;
                if self.within == p.len {
                    self.idx += 1;
                    self.within = 0;
                }
            }
        }

        /// Bytes consumed so far.
        fn position(&self) -> u64 {
            self.pieces[..self.idx].iter().map(|p| p.len).sum::<u64>() + self.within
        }
    }

    fn consumed(cursor: &mut PieceCursor<'_>, n: u64) -> Vec<Piece> {
        let mut out = Vec::new();
        cursor.consume(n, |p| out.push(p));
        out
    }

    // ---- strategies ----

    /// Sorted, disjoint, non-empty runs: gaps of 0 make abutting ones.
    fn arb_extents(max: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
        proptest::collection::vec((0u64..12, 1u64..40), 0..max).prop_map(|steps| {
            let mut at = 0u64;
            steps
                .into_iter()
                .map(|(gap, len)| {
                    let off = at + gap;
                    at = off + len;
                    (off, len)
                })
                .collect()
        })
    }

    /// Strided blocks of equal pieces (the lists runs compress), single
    /// pieces between them, gaps of 0 included: either family, as
    /// `(offset, len)` pieces.
    pub(in crate::twophase) fn arb_pieces(max: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
        let blocks = (0u64..12, 1u64..12, 1u64..9, 1u64..7);
        let strided = proptest::collection::vec(blocks, 0..max / 4 + 1).prop_map(|blocks| {
            let mut at = 0u64;
            let mut out = Vec::new();
            for (gap, len, extra, count) in blocks {
                for k in 0..count {
                    out.push((at + gap + k * (len + extra), len));
                }
                at += gap + (count - 1) * (len + extra) + len;
            }
            out
        });
        prop_oneof![arb_extents(max), strided]
    }

    // ---- calc_my_req ----

    #[test]
    fn pieces_land_in_owning_domains() {
        let domains = vec![Ext::new(0, 50), Ext::new(50, 50)];
        let p = plan(&[(10, 20), (60, 10)]);
        let req = by_domain(&p, &domains);
        assert_eq!(
            req[0].pieces(),
            [Piece {
                file_off: 10,
                len: 20,
                buf_off: 0
            }]
        );
        assert_eq!(
            req[1].pieces(),
            [Piece {
                file_off: 60,
                len: 10,
                buf_off: 20
            }]
        );
    }

    #[test]
    fn straddling_extent_splits_with_buffer_offsets() {
        let domains = vec![Ext::new(0, 50), Ext::new(50, 50)];
        let p = plan(&[(40, 20)]);
        let req = by_domain(&p, &domains);
        assert_eq!(
            req[0].pieces(),
            [Piece {
                file_off: 40,
                len: 10,
                buf_off: 0
            }]
        );
        assert_eq!(
            req[1].pieces(),
            [Piece {
                file_off: 50,
                len: 10,
                buf_off: 10
            }]
        );
    }

    #[test]
    fn extent_spanning_three_domains() {
        let domains = vec![Ext::new(0, 10), Ext::new(10, 10), Ext::new(20, 10)];
        let p = plan(&[(5, 20)]);
        let req = by_domain(&p, &domains);
        assert_eq!(
            req[0].pieces(),
            [Piece {
                file_off: 5,
                len: 5,
                buf_off: 0
            }]
        );
        assert_eq!(
            req[1].pieces(),
            [Piece {
                file_off: 10,
                len: 10,
                buf_off: 5
            }]
        );
        assert_eq!(
            req[2].pieces(),
            [Piece {
                file_off: 20,
                len: 5,
                buf_off: 15
            }]
        );
    }

    #[test]
    fn empty_domains_are_skipped() {
        let domains = vec![Ext::new(0, 0), Ext::new(0, 10), Ext::new(10, 0), Ext::new(10, 10)];
        let p = plan(&[(0, 20)]);
        let req = by_domain(&p, &domains);
        assert!(req[0].pieces().is_empty());
        assert_eq!(
            req[1].pieces(),
            [Piece {
                file_off: 0,
                len: 10,
                buf_off: 0
            }]
        );
        assert!(req[2].pieces().is_empty());
        assert_eq!(
            req[3].pieces(),
            [Piece {
                file_off: 10,
                len: 10,
                buf_off: 10
            }]
        );
    }

    #[test]
    fn only_the_domains_the_plan_reaches_get_a_list() {
        let domains: Vec<Ext> = (0..100).map(|d| Ext::new(d * 10, 10)).collect();
        let req = calc_my_req(&plan(&[(425, 10), (460, 5), (700, 1)]), &domains);
        let reached: Vec<usize> = req.iter().map(|(d, _)| *d).collect();
        assert_eq!(reached, [42, 43, 46, 70]);
        assert!(req.iter().all(|(_, l)| !l.pieces().is_empty()));
        assert!(calc_my_req(&AccessPlan::default(), &domains).is_empty());
    }

    #[test]
    fn the_empty_list_is_one_shared_instance() {
        let empty = PieceList::empty();
        assert!(Rc::ptr_eq(&empty, &PieceList::empty()));
        assert!(empty.pieces().is_empty());
        assert_eq!(empty.total_bytes(), 0);
        assert_eq!(empty.wire_bytes(), 0);
        assert_eq!(empty.file_range(), None);
        assert_eq!(empty.bytes_in_window(0, 100), 0);
    }

    #[test]
    #[should_panic(expected = "access at 10 outside the aggregated file range")]
    fn access_past_the_domains_panics() {
        calc_my_req(&plan(&[(5, 10)]), &[Ext::new(0, 10)]);
    }

    #[test]
    #[should_panic(expected = "access at 5 outside the aggregated file range")]
    fn access_before_the_domains_panics() {
        calc_my_req(&plan(&[(5, 10)]), &[Ext::new(10, 10)]);
    }

    // ---- the list ----

    #[test]
    fn list_summaries() {
        let l = list(&[(0, 10), (20, 10), (32, 5), (40, 10)]);
        assert_eq!(l.total_bytes(), 35);
        assert_eq!(l.wire_bytes(), 64);
        assert_eq!(l.file_range(), Some((0, 50)));
    }

    #[test]
    fn bytes_in_window_matches_linear_scan() {
        let l = list(&[(0, 10), (20, 10), (32, 5), (40, 10)]);
        for lo in 0..55u64 {
            for hi in 0..=55u64 {
                assert_eq!(
                    l.bytes_in_window(lo, hi),
                    bytes_in_window_linear(&linear(&l), lo, hi),
                    "window [{lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn cut_ending_on_a_piece_boundary_leaves_the_next_piece_out() {
        let l = list(&[(0, 10), (20, 10), (40, 10)]);
        let cut = l.cut(0, 20);
        assert_eq!(cut.iter().collect::<Vec<_>>(), l.pieces()[..2]);
        assert_eq!(cut.file_range(), Some((0, 30)));
        // ... and the next cut starts exactly on it.
        assert_eq!(l.cut(20, 10).iter().collect::<Vec<_>>(), l.pieces()[2..]);
    }

    #[test]
    fn one_piece_wider_than_the_window_is_clipped_at_both_ends() {
        let l = list(&[(10, 100)]);
        let cut = l.cut(30, 20);
        assert_eq!(
            cut.iter().collect::<Vec<_>>(),
            [Piece {
                file_off: 40,
                len: 20,
                buf_off: 30
            }]
        );
        assert_eq!(cut.file_range(), Some((40, 60)));
        assert_eq!(l.bytes_in_window(40, 60), 20);
        assert_eq!(l.bytes_in_window(0, 1000), 100);
        assert_eq!(l.bytes_in_window(0, 10), 0);
        assert_eq!(l.bytes_in_window(110, 120), 0);
    }

    #[test]
    fn cutting_nothing_yields_nothing() {
        let l = list(&[(0, 10), (20, 10)]);
        for pos in [0, 5, 10, 20] {
            let cut = l.cut(pos, 0);
            assert_eq!(cut.iter().count(), 0);
            assert_eq!(cut.file_range(), None);
        }
        assert_eq!(PieceList::empty().cut(0, 0).iter().count(), 0);
    }

    #[test]
    fn exhausted_stream_panics_like_the_linear_cursor() {
        let l = list(&[(0, 10), (20, 10)]);
        let text = |f: Box<dyn FnOnce() + std::panic::UnwindSafe>| {
            let err = std::panic::catch_unwind(f).expect_err("must panic");
            err.downcast_ref::<String>()
                .expect("formatted panic")
                .clone()
        };
        let pieces = linear(&l);
        let linear = text(Box::new(move || {
            let mut c = PieceCursor::new(&pieces);
            c.consume(15, |_| {});
            c.consume(8, |_| {});
        }));
        let l2 = Rc::clone(&l);
        let indexed = text(Box::new(move || {
            let _ = l2.cut(15, 8);
        }));
        assert_eq!(linear, "piece stream exhausted with 3 bytes pending");
        assert_eq!(indexed, linear);
        let packed = text(Box::new(move || {
            let _ = l.buffer_offset(15, 8);
        }));
        assert_eq!(packed, linear);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The per-domain lists are the linear split, piece for piece,
        /// and every list is contiguous in the user buffer.
        #[test]
        fn split_matches_linear_split(
            extents in arb_pieces(40),
            cuts in proptest::collection::vec(0u64..200, 0..6),
        ) {
            let p = plan(&extents);
            // Contiguous domains (some empty) covering the whole plan.
            let mut bounds: Vec<u64> = cuts;
            bounds.push(0);
            bounds.push(p.end().unwrap_or(0).max(1) + 7);
            bounds.sort_unstable();
            let domains: Vec<Ext> =
                bounds.windows(2).map(|w| Ext::new(w[0], w[1] - w[0])).collect();
            let got = by_domain(&p, &domains);
            let want = calc_my_req_linear(&p, &domains);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.pieces(), w.clone());
                prop_assert_eq!(g.total_bytes(), w.iter().map(|p| p.len).sum::<u64>());
                prop_assert_eq!(g.pieces().is_empty(), Rc::ptr_eq(g, &PieceList::empty()));
            }
        }

        /// Window byte counts agree with the piece-by-piece sum.
        #[test]
        fn window_bytes_match_linear(
            extents in arb_pieces(30),
            lo in 0u64..1500,
            width in 0u64..400,
        ) {
            let l = list(&extents);
            prop_assert_eq!(
                l.bytes_in_window(lo, lo + width),
                bytes_in_window_linear(&linear(&l), lo, lo + width)
            );
        }

        /// Cutting the stream by a sequence of byte budgets yields the
        /// clipped pieces — file offsets and buffer offsets — the linear
        /// cursor yields, ends where it ends, and packs from the buffer
        /// range those pieces occupy.
        #[test]
        fn cuts_match_the_linear_cursor(
            extents in arb_pieces(30),
            budgets in proptest::collection::vec(0u64..120, 1..12),
        ) {
            let l = list(&extents);
            let pieces = linear(&l);
            let mut cursor = PieceCursor::new(&pieces);
            let mut pos = 0u64;
            for n in budgets {
                let n = n.min(l.total_bytes() - pos);
                let want = consumed(&mut cursor, n);
                let cut = l.cut(pos, n);
                prop_assert_eq!(cut.iter().collect::<Vec<_>>(), want.clone());
                prop_assert_eq!(
                    cut.file_range(),
                    want.first().map(|f| (f.file_off, want[want.len() - 1].end()))
                );
                if let Some(first) = want.first() {
                    prop_assert_eq!(l.buffer_offset(pos, n), first.buf_off);
                }
                pos += n;
                prop_assert_eq!(pos, cursor.position());
            }
        }

        /// Window by window (the protocol's rounds), the bytes announced
        /// for a window are the bytes the sender's cut for it covers, the
        /// window's own cut (the serving side's, which carries no
        /// position) is the same pieces, and a window's start — where the
        /// rewind of a torn write lands — is where replaying the
        /// consumption lands.
        #[test]
        fn replay_and_rewind_are_arithmetic(
            extents in arb_pieces(30),
            cb in 1u64..200,
        ) {
            let l = list(&extents);
            let Some((st, end)) = l.file_range() else { return Ok(()); };
            let pieces = linear(&l);
            let mut cursor = PieceCursor::new(&pieces);
            let mut pos = 0u64;
            for window in 0..(end - st).div_ceil(cb) {
                // Where the completed windows leave the stream.
                prop_assert_eq!(l.bytes_in_window(st, st + window * cb), cursor.position());
                let (lo, hi) = (st + window * cb, st + (window + 1) * cb);
                let n = l.bytes_in_window(lo, hi);
                let cut = l.cut(pos, n);
                prop_assert!(cut.file_range().is_none_or(|(s, e)| lo <= s && e <= hi));
                // The window's own cut, with no position carried: the same pieces.
                let own = l.cut_window(lo, hi);
                prop_assert_eq!(own.iter().collect::<Vec<_>>(), cut.iter().collect::<Vec<_>>());
                prop_assert_eq!(own.bytes(), n);
                cursor.consume(n, |_| {});
                pos += n;
                // Torn at `window + 1`: back up exactly this window.
                prop_assert_eq!(pos - n, l.bytes_in_window(st, st + window * cb));
            }
            prop_assert_eq!(pos, l.total_bytes());
        }
    }
}
