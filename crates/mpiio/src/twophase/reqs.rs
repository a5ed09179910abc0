//! Request calculation: which pieces of whose access go to which
//! aggregator (ROMIO's `ADIOI_Calc_my_req` / `ADIOI_Calc_others_req`).

use crate::datatype::Ext;
use crate::view::AccessPlan;
use std::sync::{Arc, LazyLock};

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
/// `Arc`; the owner packs from it, the same `Arc` is the request message
/// (modelled as its ROMIO wire size, [`wire_bytes`](Self::wire_bytes)),
/// and the aggregator cuts its round windows out of it.
///
/// Pieces are sorted and disjoint in the file, and — because a domain
/// takes a consecutive run of the plan — contiguous in the owner's user
/// buffer. `buf_off` is therefore also the running byte count of the
/// list, so positions in the piece *stream* (bytes consumed so far, the
/// only cursor state either side keeps) are found by binary search
/// without a separate prefix array, and the bytes of any stream range are
/// one contiguous range of the user buffer.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PieceList {
    pieces: Vec<Piece>,
}

static EMPTY: LazyLock<Arc<PieceList>> = LazyLock::new(Arc::default);

impl PieceList {
    fn new(pieces: Vec<Piece>) -> Self {
        debug_assert!(pieces.iter().all(|p| p.len > 0));
        debug_assert!(pieces
            .windows(2)
            .all(|w| w[0].end() <= w[1].file_off && w[0].buf_off + w[0].len == w[1].buf_off));
        PieceList { pieces }
    }

    /// The shared empty list: a rank with nothing for an aggregator
    /// allocates nothing for it.
    pub fn empty() -> Arc<PieceList> {
        Arc::clone(&EMPTY)
    }

    /// The sorted pieces.
    pub fn pieces(&self) -> &[Piece] {
        &self.pieces
    }

    /// Total bytes across all pieces.
    pub fn total_bytes(&self) -> u64 {
        match (self.pieces.first(), self.pieces.last()) {
            (Some(first), Some(last)) => last.buf_off + last.len - first.buf_off,
            _ => 0,
        }
    }

    /// Bytes of the `(offset, len)` list ROMIO ships for these pieces.
    pub fn wire_bytes(&self) -> usize {
        16 * self.pieces.len()
    }

    /// The file range touched, `[first offset, last end)`.
    pub fn file_range(&self) -> Option<(u64, u64)> {
        Some((self.pieces.first()?.file_off, self.pieces.last()?.end()))
    }

    /// Stream bytes lying before file offset `off`.
    fn bytes_before(&self, off: u64) -> u64 {
        let i = self.pieces.partition_point(|p| p.end() <= off);
        match self.pieces.get(i) {
            Some(p) => p.buf_off - self.pieces[0].buf_off + off.saturating_sub(p.file_off),
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
        self.pieces.first().map_or(0, |p| p.buf_off) + pos
    }

    /// The pieces holding stream bytes `[pos, pos + n)`: a slice of whole
    /// pieces with the two ends clipped. Sender and aggregator cut the
    /// same list by the same byte counts each round, which keeps them
    /// consistent without exchanging offsets.
    pub fn cut(&self, pos: u64, n: u64) -> Cut<'_> {
        let from = self.buffer_offset(pos, n);
        if n == 0 {
            return Cut::default();
        }
        let i = self.pieces.partition_point(|p| p.buf_off + p.len <= from);
        let j = i + self.pieces[i..].partition_point(|p| p.buf_off < from + n);
        let (first, last) = (&self.pieces[i], &self.pieces[j - 1]);
        Cut {
            pieces: &self.pieces[i..j],
            skip: from - first.buf_off,
            trim: last.buf_off + last.len - (from + n),
        }
    }
}

/// A run of a [`PieceList`]'s stream: whole pieces, first and last
/// clipped. See [`PieceList::cut`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Cut<'a> {
    pieces: &'a [Piece],
    /// Bytes clipped off the front of the first piece.
    skip: u64,
    /// Bytes clipped off the back of the last piece.
    trim: u64,
}

impl Cut<'_> {
    /// The clipped pieces, in stream order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Piece> + '_ {
        let last = self.pieces.len().wrapping_sub(1);
        self.pieces.iter().enumerate().map(move |(i, p)| {
            let mut p = *p;
            if i == 0 {
                p.file_off += self.skip;
                p.buf_off += self.skip;
                p.len -= self.skip;
            }
            if i == last {
                p.len -= self.trim;
            }
            p
        })
    }

    /// The file range covered, `[first offset, last end)`.
    pub fn file_range(&self) -> Option<(u64, u64)> {
        let (first, last) = (self.pieces.first()?, self.pieces.last()?);
        Some((first.file_off + self.skip, last.end() - self.trim))
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
/// domain (binary search), merges linearly from there and stops with the
/// last run, and each domain's run count is known (by binary search)
/// before its list is allocated.
pub fn calc_my_req(plan: &AccessPlan, domains: &[Ext]) -> Vec<(usize, Arc<PieceList>)> {
    let exts = &plan.extents;
    let mut out = Vec::new();
    // The next unassigned byte: file offset `pos` inside `exts[i]`, at
    // `buf_off` in the user buffer.
    let mut i = 0usize;
    let mut pos = exts.first().map_or(0, |e| e.off);
    let mut buf_off = 0u64;
    let first = domains.partition_point(|d| d.end() <= pos);
    for (at, d) in domains.iter().enumerate().skip(first) {
        if i == exts.len() {
            break;
        }
        // Runs reaching into this domain: `exts[i..j]`.
        let j = i + exts[i..].partition_point(|e| e.off < d.end());
        if d.len == 0 || i == j {
            continue;
        }
        assert!(
            d.off <= pos,
            "access at {pos} outside the aggregated file range"
        );
        let mut pieces = Vec::with_capacity(j - i);
        while i < j {
            let take_end = exts[i].end().min(d.end());
            pieces.push(Piece {
                file_off: pos,
                len: take_end - pos,
                buf_off,
            });
            buf_off += take_end - pos;
            pos = take_end;
            if pos < exts[i].end() {
                break; // the rest of this run belongs to later domains
            }
            i += 1;
            pos = exts.get(i).map_or(pos, |e| e.off);
        }
        out.push((at, Arc::new(PieceList::new(pieces))));
    }
    assert!(
        i == exts.len(),
        "access at {pos} outside the aggregated file range"
    );
    out
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::view::AccessPlan;
    use proptest::prelude::*;

    fn plan(extents: &[(u64, u64)]) -> AccessPlan {
        AccessPlan::from_extents(extents.iter().map(|&(o, l)| Ext::new(o, l)).collect())
    }

    /// One list holding all of `extents` (sorted, disjoint).
    pub(in crate::twophase) fn list(extents: &[(u64, u64)]) -> Arc<PieceList> {
        let req = calc_my_req(&plan(extents), &[Ext::new(0, u64::MAX / 2)]);
        let first = req.into_iter().next();
        first.map_or_else(PieceList::empty, |(_, list)| list)
    }

    /// The split laid out one list per domain, the shared empty list
    /// where the plan has nothing.
    fn by_domain(plan: &AccessPlan, domains: &[Ext]) -> Vec<Arc<PieceList>> {
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
        assert!(Arc::ptr_eq(&empty, &PieceList::empty()));
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
        let l = list(&[(0, 10), (20, 10), (30, 5), (40, 10)]);
        assert_eq!(l.total_bytes(), 35);
        assert_eq!(l.wire_bytes(), 64);
        assert_eq!(l.file_range(), Some((0, 50)));
    }

    #[test]
    fn bytes_in_window_matches_linear_scan() {
        let l = list(&[(0, 10), (20, 10), (30, 5), (40, 10)]);
        for lo in 0..55u64 {
            for hi in 0..=55u64 {
                assert_eq!(
                    l.bytes_in_window(lo, hi),
                    bytes_in_window_linear(l.pieces(), lo, hi),
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
        let pieces = l.pieces().to_vec();
        let linear = text(Box::new(move || {
            let mut c = PieceCursor::new(&pieces);
            c.consume(15, |_| {});
            c.consume(8, |_| {});
        }));
        let l2 = Arc::clone(&l);
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
            extents in arb_extents(40),
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
                prop_assert_eq!(g.pieces(), w.as_slice());
                prop_assert_eq!(g.total_bytes(), w.iter().map(|p| p.len).sum::<u64>());
                prop_assert_eq!(g.pieces().is_empty(), Arc::ptr_eq(g, &PieceList::empty()));
            }
        }

        /// Window byte counts agree with the piece-by-piece sum.
        #[test]
        fn window_bytes_match_linear(
            extents in arb_extents(30),
            lo in 0u64..1500,
            width in 0u64..400,
        ) {
            let l = list(&extents);
            prop_assert_eq!(
                l.bytes_in_window(lo, lo + width),
                bytes_in_window_linear(l.pieces(), lo, lo + width)
            );
        }

        /// Cutting the stream by a sequence of byte budgets yields the
        /// clipped pieces — file offsets and buffer offsets — the linear
        /// cursor yields, ends where it ends, and packs from the buffer
        /// range those pieces occupy.
        #[test]
        fn cuts_match_the_linear_cursor(
            extents in arb_extents(30),
            budgets in proptest::collection::vec(0u64..120, 1..12),
        ) {
            let l = list(&extents);
            let mut cursor = PieceCursor::new(l.pieces());
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
        /// for a window are the bytes the cut for it covers, and the
        /// arithmetic replay of a failover — or the rewind of a torn
        /// write — lands where replaying the consumption did.
        #[test]
        fn replay_and_rewind_are_arithmetic(
            extents in arb_extents(30),
            cb in 1u64..200,
        ) {
            let l = list(&extents);
            let Some((st, end)) = l.file_range() else { return Ok(()); };
            let mut cursor = PieceCursor::new(l.pieces());
            let mut pos = 0u64;
            for window in 0..(end - st).div_ceil(cb) {
                // Failover detected at `window`: replay the completed ones.
                prop_assert_eq!(l.bytes_in_window(st, st + window * cb), cursor.position());
                let (lo, hi) = (st + window * cb, st + (window + 1) * cb);
                let n = l.bytes_in_window(lo, hi);
                let cut = l.cut(pos, n);
                prop_assert!(cut.file_range().is_none_or(|(s, e)| lo <= s && e <= hi));
                cursor.consume(n, |_| {});
                pos += n;
                // Torn at `window + 1`: back up exactly this window.
                prop_assert_eq!(pos - n, l.bytes_in_window(st, st + window * cb));
            }
            prop_assert_eq!(pos, l.total_bytes());
        }
    }
}
