//! One round window of a file domain, as the rank serving it sees it:
//! cutting each source's stream, the coverage merge both directions share
//! (hole detection on the write side, the runs a read fetches on the read
//! side), and the file access itself.

use super::reqs::Cut;
use super::{slot_of, Domain, Lists};
use crate::datatype::Run;
use crate::profile::{Phase, PhaseProfile, PhaseTimer};
use crate::space::FileSpace;
use simfs::FileHandle;
use simmpi::Communicator;
use simnet::IoBuffer;
use std::borrow::Cow;

/// The pieces window `[lo, hi)` of a domain (whose lists are `lists`)
/// moves for source `src`: its list's cut of the window. Sender and
/// server cut the same streams by the same byte counts, so the pieces are
/// the ones the sender's stream holds next.
pub(super) fn cut_of(lists: &Lists, src: usize, (lo, hi): (u64, u64)) -> Cut<'_> {
    let slot = slot_of(lists, src).expect("bytes only from a source that sent a list");
    lists[slot].1.cut_window(lo, hi)
}

/// [`cut_of`] each of `srcs`, in that order.
pub(super) fn cut_streams(
    lists: &Lists,
    window: (u64, u64),
    srcs: impl Iterator<Item = usize>,
) -> Vec<Cut<'_>> {
    srcs.map(|src| cut_of(lists, src, window)).collect()
}

/// A domain's round-window coverage, by window index: a function of the
/// domain's lists and the window alone, so a later call with the same
/// lists takes it as it is.
#[derive(Default)]
pub(super) struct Covered(Vec<Option<Vec<(u64, u64)>>>);

impl Covered {
    /// The coverage of window `wi`: the known one, else merged from the
    /// window's cuts, which only then are made, and kept — at its length:
    /// the merge's buffer is sized for its input runs, and every window
    /// of the open keeps its coverage.
    fn of<'a>(&mut self, wi: u64, cuts: impl FnOnce() -> Vec<Cut<'a>>) -> &[(u64, u64)] {
        let wi = wi as usize;
        if self.0.len() <= wi {
            self.0.resize_with(wi + 1, || None);
        }
        self.0[wi].get_or_insert_with(|| {
            let mut runs = coverage(&cuts());
            runs.shrink_to_fit();
            runs
        })
    }
}

/// Every payload's bytes as views on its cut of window `[lo, hi)` of the
/// domain whose lists are `lists`, at their offsets from `base`, in
/// arrival order, so a later piece wins an overlap: appended to `placed`.
fn place(
    base: u64,
    lists: &Lists,
    window: (u64, u64),
    incoming: &[(usize, IoBuffer)],
    placed: &mut Vec<(u64, IoBuffer)>,
) {
    let _hp = simtrace::host::scope(simtrace::host::Site::Unpack);
    for (src, payload) in incoming {
        let mut at = 0usize;
        for piece in cut_of(lists, *src, window).iter() {
            placed.push((piece.file_off - base, payload.sub(at, piece.len as usize)));
            at += piece.len as usize;
        }
    }
}

/// Place one round of received pieces — window `wi`, `[lo, hi)`, of
/// `domain` — and write them out: one request for the span the window's
/// coverage reaches, whose pieces are views of the payloads. Nothing is
/// staged; the file image keeps the views.
///
/// Host work follows real bytes: one synthetic payload makes the whole
/// span synthetic (what the window holds is unknowable then), and with
/// the window's coverage known from an earlier call, synthetic payloads
/// need no cut and no piece is visited. `incoming` (the payloads, by
/// source) and `placed` are the caller's buffers, kept from round to
/// round: both are left empty, so no view outlives the window.
///
/// `torn` models an aggregator dying mid-OST-write: every chunk of this
/// window reaches storage truncated to its first half (the crash cuts
/// the transfer short). The heal replay in the next round's detection
/// rewrites the full window.
#[allow(clippy::too_many_arguments)]
pub(super) fn write_window(
    comm: &Communicator<'_>,
    fh: &FileHandle,
    space: &dyn FileSpace,
    prof: &mut PhaseProfile,
    domain: &mut Domain,
    (wi, lo, hi): (u64, u64, u64),
    incoming: &mut Vec<(usize, IoBuffer)>,
    placed: &mut Vec<(u64, IoBuffer)>,
    torn: bool,
) {
    let ep = comm.endpoint();
    if incoming.is_empty() {
        return;
    }
    // Targets: which pieces each payload's bytes land on, plus coverage.
    let t = PhaseTimer::start(Phase::Local, ep.now());
    let Domain { lists, covered, .. } = domain;
    let real = incoming.iter().all(|(_, payload)| payload.is_real());
    let total_bytes: usize = incoming.iter().map(|(_, payload)| payload.len()).sum();
    let (write_lo, write_hi, holes) = {
        let _hp = simtrace::host::scope(simtrace::host::Site::Unpack);
        let fits = |(src, data): &(usize, IoBuffer)| {
            cut_of(lists, *src, (lo, hi)).bytes() == data.len() as u64
        };
        debug_assert!(incoming.iter().all(fits));
        let srcs = || incoming.iter().map(|&(src, _)| src);
        let runs = covered.of(wi, || cut_streams(lists, (lo, hi), srcs()));
        ep.charge_memcpy(total_bytes); // staging-buffer assembly
        let last = runs[runs.len() - 1];
        (runs[0].0, last.0 + last.1, runs.len() > 1)
    };
    t.stop_traced(ep.now(), prof, ep.trace());

    debug_assert!(lo <= write_lo && write_hi <= hi);
    let span = write_hi - write_lo;

    let mut synthetic = !real;
    if holes {
        // Read-modify-write: fetch the whole span, overlay, write back —
        // ROMIO's data-sieving write inside the collective path. The
        // holes' bytes are the file's already, so the request leaves them
        // where they are; what the fetch decides is the kind: a synthetic
        // byte in the span makes the whole window synthetic.
        let t = PhaseTimer::start(Phase::Io, ep.now());
        let mut fetched = Vec::new();
        let done = space.read(fh, write_lo, span, ep.now(), &mut fetched);
        ep.clock().advance_to(done);
        t.stop_traced(ep.now(), prof, ep.trace());
        synthetic |= fetched.iter().any(|part| !part.is_real());
        let t = PhaseTimer::start(Phase::Local, ep.now());
        ep.charge_memcpy(total_bytes);
        t.stop_traced(ep.now(), prof, ep.trace());
    }
    let whole = [(0, IoBuffer::synthetic(span as usize))];
    if !synthetic {
        place(write_lo, lists, (lo, hi), incoming, placed);
    }
    incoming.clear();
    let pieces = if synthetic { &whole[..] } else { &placed[..] };
    let t = PhaseTimer::start(Phase::Io, ep.now());
    let len = if torn { span / 2 } else { span };
    if len > 0 {
        let done = space.write(fh, write_lo, len, pieces, ep.now());
        ep.clock().advance_to(done);
    }
    t.stop_traced(ep.now(), prof, ep.trace());
    placed.clear();
}

/// Append `[off, off + len)` to the ascending list `out[from..]` (`off`
/// not below the last start): one that overlaps or abuts the last
/// interval grows it.
fn append(out: &mut Vec<(u64, u64)>, from: usize, off: u64, len: u64) {
    match out[from..].last_mut() {
        Some(last) if off <= last.0 + last.1 => last.1 = last.1.max(off + len - last.0),
        _ => out.push((off, len)),
    }
}

/// Append the maximal runs `runs` (ascending) to `out[from..]`: those
/// that overlap or abut its last interval grow it, the rest are copied.
fn extend(out: &mut Vec<(u64, u64)>, from: usize, runs: impl Iterator<Item = (u64, u64)>) {
    let mut runs = runs.peekable();
    while let Some(&(off, len)) = runs.peek() {
        match out[from..].last_mut() {
            Some(last) if off <= last.0 + last.1 => last.1 = last.1.max(off + len - last.0),
            _ => break,
        }
        runs.next();
    }
    out.extend(runs);
}

/// Append the union of two ascending lists of maximal `(offset, len)`
/// runs to `out` as one such list, a stretch of one list at a time.
fn merge_runs<'a>(mut a: &'a [(u64, u64)], mut b: &'a [(u64, u64)], out: &mut Vec<(u64, u64)>) {
    let from = out.len();
    while let (Some(x), Some(y)) = (a.first(), b.first()) {
        if y.0 < x.0 {
            std::mem::swap(&mut a, &mut b);
        }
        let stretch = a.iter().position(|r| r.0 > b[0].0).unwrap_or(a.len());
        extend(out, from, a[..stretch].iter().copied());
        a = &a[stretch..];
    }
    extend(out, from, a.iter().chain(b).copied());
}

/// The union of one stride class's runs (stride `s`, sorted by offset),
/// appended to `out` as maximal intervals, by a row sweep: row `ρ` is the
/// period `[ρ·s, (ρ+1)·s)`, a run of `count` pieces is active for `count`
/// rows from its first, and covers column `[off mod s, + len)` of each —
/// past `s` when a piece wraps into the next row. Between two events (a
/// run starting or ending) the active columns `cols` are fixed, so they
/// are merged once; if they fill a whole period, counting what wraps in
/// from the row above, the rows between the first and last are one
/// interval. Otherwise every row contributes its own intervals — output
/// the coverage has anyway.
fn sweep(class: &[Run], out: &mut Vec<(u64, u64)>) {
    let (s, from) = (class[0].stride, out.len());
    let mut active: Vec<(u64, u64, u64)> = Vec::new(); // (end row, column, len)
    let mut cols: Vec<(u64, u64)> = Vec::new();
    let mut next = 0;
    let mut row = class[0].off / s;
    loop {
        while let Some(r) = class.get(next).filter(|r| r.off / s == row) {
            active.push((row + r.count, r.off % s, r.len));
            next += 1;
        }
        let starts = class.get(next).map(|r| r.off / s);
        let Some(until) = active.iter().map(|a| a.0).chain(starts).min() else {
            return;
        };
        if !active.is_empty() {
            active.sort_unstable_by_key(|a| a.1);
            cols.clear();
            active.iter().for_each(|&(_, c, len)| append(&mut cols, 0, c, len));
            // Column reach over one period: what wraps in from the row
            // above, then this row's intervals.
            let wrapped = cols.iter().map(|&(c, len)| (c + len).saturating_sub(s)).max();
            let reach = cols.iter().try_fold(wrapped.unwrap_or(0), |reach, &(c, len)| {
                (c <= reach).then_some(reach.max(c + len))
            });
            let emit_row = |out: &mut Vec<(u64, u64)>, rho: u64| {
                extend(out, from, cols.iter().map(|&(c, len)| (rho * s + c, len)));
            };
            if reach.is_some_and(|reach| reach >= s) && until - row >= 3 {
                emit_row(out, row);
                append(out, from, (row + 1) * s, (until - row - 1) * s);
                emit_row(out, until - 1);
            } else {
                (row..until).for_each(|rho| emit_row(out, rho));
            }
        }
        active.retain(|a| a.0 > until);
        row = until;
    }
}

/// What a round window's cuts cover, as maximal `(offset, len)` runs:
/// adjacent and overlapping pieces from any mix of sources merge into one
/// contiguous extent. The write side reads holes off it (more than one
/// run); the read side closes its narrow gaps into the runs it reads, and
/// finds every clipped piece wholly inside one of them.
///
/// Works on the cuts' runs: each stride class is swept row by row
/// ([`sweep`]), the single pieces (clipped ends, irregular pieces) are
/// sorted, and the resulting ascending lists are merged bottom-up,
/// neighbours pairwise, coalescing as they go, between two flat buffers.
/// A hole-free window costs its runs, a hole-dense one its output.
fn coverage(cuts: &[Cut<'_>]) -> Vec<(u64, u64)> {
    let _hp = simtrace::host::scope(simtrace::host::Site::Coverage);
    // Sized by a counting pass over the runs: grown by doubling, the two
    // lists were ~15 % of a paper-scale tile write's allocator calls.
    let all_runs = || cuts.iter().flat_map(Cut::runs);
    let (n_singles, n_strided) = all_runs().fold((0, 0), |(n1, n), run| match run.count {
        1 => (n1 + 1, n),
        _ => (n1, n + 1),
    });
    let mut singles = Vec::with_capacity(n_singles);
    let mut strided = Vec::with_capacity(n_strided);
    for run in all_runs() {
        match run.count {
            1 => singles.push((run.off, run.len)),
            _ => strided.push(run),
        }
    }
    singles.sort_unstable();
    strided.sort_unstable_by_key(|r| (r.stride, r.off));
    // The non-empty lists of one level back to back; list `i` ends at
    // `ends[i]`.
    let mut runs = Vec::with_capacity(singles.len() + 2 * strided.len());
    singles.into_iter().for_each(|(off, len)| append(&mut runs, 0, off, len));
    let mut ends: Vec<usize> = Some(runs.len()).filter(|&n| n > 0).into_iter().collect();
    for class in strided.chunk_by(|a, b| a.stride == b.stride) {
        sweep(class, &mut runs);
        ends.push(runs.len());
    }
    let mut merged = Vec::new();
    while ends.len() > 1 {
        merged.clear();
        merged.reserve(runs.len()); // allocates once: levels only shrink
        let mut start = 0;
        for pair in 0..ends.len().div_ceil(2) {
            let mid = ends[2 * pair];
            let end = ends.get(2 * pair + 1).copied().unwrap_or(mid);
            merge_runs(&runs[start..mid], &runs[mid..end], &mut merged);
            ends[pair] = merged.len();
            start = end;
        }
        ends.truncate(ends.len().div_ceil(2));
        std::mem::swap(&mut runs, &mut merged);
    }
    runs
}

/// The pieces of `cut` as views of a window read's parts, in stream
/// order. Runs are maximal covered intervals, some joined across narrow
/// gaps, so each clipped piece lies wholly inside one of them, and is one
/// view per part of it the piece meets.
pub(super) fn pieces<'a>(
    fetched: &'a Fetched,
    cut: &'a Cut<'_>,
) -> impl Iterator<Item = IoBuffer> + 'a {
    cut.iter().flat_map(move |piece| {
        let first = fetched.partition_point(|&(off, _)| off <= piece.file_off) - 1;
        let end = piece.end();
        let meets = fetched[first..]
            .iter()
            .take_while(move |&&(off, _)| off < end);
        meets.map(move |(off, part)| {
            let lo = piece.file_off.max(*off);
            let hi = end.min(off + part.len() as u64);
            part.sub((lo - off) as usize, (hi - lo) as usize)
        })
    })
}

/// Close every gap of at most `gap` bytes between neighbouring runs of
/// an ascending, disjoint run list, in place: what is left are runs
/// separated by holes wider than `gap`, over the same hull.
pub(crate) fn close_gaps(runs: &mut Vec<(u64, u64)>, gap: u64) {
    runs.dedup_by(|next, last| {
        let close = next.0 - (last.0 + last.1) <= gap;
        if close {
            last.1 = next.0 + next.1 - last.0;
        }
        close
    });
}

/// What a window read fetched: the views of the file image that hold
/// its runs, each at its file offset, ascending — none when nothing real
/// was read.
pub(crate) type Fetched = Vec<(u64, IoBuffer)>;

/// Read what window `wi`, whose cuts `cuts` makes and whose coverage
/// `covered` holds or merges from them, covers, into `fetched`; false
/// when the cuts are empty. `parts`, empty, is scratch for the parts the
/// file returns, and is left empty.
///
/// The window's coverage is read through every hole no wider than the
/// file's break-even gap ([`FileHandle::list_break_even_gap`]: moving it
/// costs no more than one more list extent) and skips the wider ones.
/// One run left is the plain covering read — a dense window's is its
/// hull; several go out as one list-I/O request. Coverage and
/// gap are pure functions of the agreed piece lists and the file, so
/// every rank that reaches this window reads it the same way.
#[allow(clippy::too_many_arguments)]
pub(super) fn read_window<'a>(
    comm: &Communicator<'_>,
    fh: &FileHandle,
    space: &dyn FileSpace,
    prof: &mut PhaseProfile,
    covered: &mut Covered,
    wi: u64,
    cuts: impl FnOnce() -> Vec<Cut<'a>>,
    parts: &mut Vec<IoBuffer>,
    fetched: &mut Fetched,
) -> bool {
    let ep = comm.endpoint();
    let coverage = covered.of(wi, cuts);
    let holes = match coverage.len() {
        0 => return false,
        n => n > 1,
    };
    // The window reads its coverage as it is kept, and a copy only when
    // a gap closes: every serving rank can be inside a window read at
    // once.
    let gap = fh.list_break_even_gap();
    let closes = |w: &[(u64, u64)]| w[1].0 - (w[0].0 + w[0].1) <= gap;
    let runs = match holes && coverage.windows(2).any(closes) {
        true => {
            let _hp = simtrace::host::scope(simtrace::host::Site::SieveRead);
            let mut runs = coverage.to_vec();
            close_gaps(&mut runs, gap);
            Cow::Owned(runs)
        }
        false => Cow::Borrowed(coverage),
    };
    let t = PhaseTimer::start(Phase::Io, ep.now());
    let done = if runs.len() > 1 {
        space.read_list(fh, &runs, ep.now(), parts)
    } else {
        space.read(fh, runs[0].0, runs[0].1, ep.now(), parts)
    };
    ep.clock().advance_to(done);
    t.stop_traced(ep.now(), prof, ep.trace());
    let rec = ep.trace();
    if holes && rec.enabled() {
        if runs.len() > 1 {
            rec.count("sieve_list_reads", runs.len() as u64);
        } else {
            rec.count("sieve_covering_reads", 1);
        }
    }
    fetched.clear();
    // A window of synthetic bytes keeps none of them.
    if parts.iter().any(IoBuffer::is_real) {
        lay_out(&runs, parts, fetched);
    }
    parts.clear();
    true
}

/// Move the parts a read of `runs` returned to `fetched`, each at its
/// file offset: each run's parts add up to its length.
pub(crate) fn lay_out(runs: &[(u64, u64)], parts: &mut Vec<IoBuffer>, fetched: &mut Fetched) {
    let mut parts = parts.drain(..);
    fetched.reserve(parts.len());
    for &(off, len) in runs {
        let mut at = off;
        while at < off + len {
            let part = parts.next().expect("parts up to the run's length");
            let n = part.len() as u64;
            fetched.push((at, part));
            at += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::integrity::tests::{land_by_copy, land_by_views};
    use super::super::integrity::Body;
    use super::super::reqs::tests::{arb_pieces, list};
    use super::super::reqs::PieceList;
    use super::*;
    use crate::space::DirectSpace;
    use proptest::prelude::*;
    use simfs::{FileSystem, FsConfig, RangeSet};
    use simnet::{run_cluster, ClusterConfig, SimTime};
    use std::rc::Rc;

    /// Land every payload's bytes on its cut's pieces inside `window`
    /// (which starts at file offset `base`), in source order: the staging
    /// copy the write path made before the file kept views. One synthetic
    /// payload leaves the whole window synthetic.
    fn scatter(
        window: &mut IoBuffer,
        base: u64,
        cuts: &[Cut<'_>],
        payloads: Vec<(usize, IoBuffer)>,
    ) {
        if !payloads.iter().all(|(_, payload)| payload.is_real()) {
            *window = IoBuffer::synthetic(window.len());
            return;
        }
        let Some(dst) = window.as_mut_slice() else {
            return;
        };
        for (cut, (_, payload)) in cuts.iter().zip(&payloads) {
            let src = payload.as_slice().expect("checked real above");
            let mut at = 0usize;
            for piece in cut.iter() {
                let (to, n) = ((piece.file_off - base) as usize, piece.len as usize);
                dst[to..to + n].copy_from_slice(&src[at..at + n]);
                at += n;
            }
        }
    }

    /// The write of one round window before the file kept views: a
    /// zero-filled staging window — over holes, the fetched span — with
    /// the payloads scattered into it, halved when torn, written as one
    /// buffer. The reference [`write_window`] is held to.
    fn write_by_staging(
        fh: &FileHandle,
        cuts: &[Cut<'_>],
        incoming: Vec<(usize, IoBuffer)>,
        torn: bool,
    ) {
        let runs = coverage(cuts);
        let (lo, hi) = (runs[0].0, runs[runs.len() - 1].0 + runs[runs.len() - 1].1);
        let span = (hi - lo) as usize;
        let mut window = if runs.len() > 1 {
            fh.read_at(lo, span, SimTime::ZERO).0
        } else if incoming.iter().all(|(_, payload)| payload.is_real()) {
            IoBuffer::zeroed(span)
        } else {
            IoBuffer::synthetic(span)
        };
        scatter(&mut window, lo, cuts, incoming);
        if torn {
            window = window.sub(0, window.len() / 2);
        }
        if !window.is_empty() {
            fh.write_at(lo, &window, SimTime::ZERO);
        }
    }

    /// The bytes of `[0, end)` of a file one at a time: real, or `None`.
    fn image(fh: &FileHandle, end: u64) -> Vec<Option<u8>> {
        (0..end)
            .map(|b| fh.read_at(b, 1, SimTime::ZERO).0.as_slice().map(|x| x[0]))
            .collect()
    }

    /// The reference the merges replaced: every piece of every source
    /// inserted into an interval set, one at a time.
    fn coverage_by_insert(cuts: &[Cut<'_>]) -> Vec<(u64, u64)> {
        let mut set = RangeSet::new();
        for piece in cuts.iter().flat_map(Cut::iter) {
            set.insert(piece.file_off, piece.end());
        }
        set.ranges().iter().map(|&(s, e)| (s, e - s)).collect()
    }

    /// Up to 12 sources' lists — pieces shifted off their period — and
    /// the `(pos, n)` of a clipped cut of each, some repeated verbatim.
    fn arb_sources() -> impl Strategy<Value = Vec<(Rc<PieceList>, u64, u64)>> {
        let source = (arb_pieces(24), 0u64..60, 0u64..200, 0u64..400);
        let sources = proptest::collection::vec((source, any::<bool>()), 0..12);
        sources.prop_map(|sources| {
            let mut lists = Vec::new();
            for ((pieces, shift, pos, n), repeat) in sources {
                let shifted: Vec<_> = pieces.iter().map(|&(o, l)| (o + shift, l)).collect();
                let l = list(&shifted);
                let pos = pos % l.total_bytes().max(1);
                let n = n.min(l.total_bytes() - pos);
                lists.push((Rc::clone(&l), pos, n));
                if repeat {
                    lists.push((l, pos, n));
                }
            }
            lists
        })
    }

    #[test]
    fn abutting_overlapping_and_identical_sources_merge() {
        let a = list(&[(0, 10), (10, 5), (40, 10)]); // abuts itself
        let b = list(&[(15, 5), (45, 10), (70, 1)]); // abuts a, overlaps a
        let cuts = [a.cut(0, 25), b.cut(0, 16), a.cut(0, 25)]; // a twice
        assert_eq!(coverage(&cuts), [(0, 20), (40, 15), (70, 1)]);
        assert_eq!(coverage(&cuts), coverage_by_insert(&cuts));
        assert!(coverage(&[]).is_empty());
    }

    #[test]
    fn rows_that_tile_their_period_are_one_interval() {
        // Three sources, 4-byte pieces at stride 12, columns 2, 6 and 10
        // of rows 8..18 — the last wraps into the next row; the middle one
        // covers only rows 10..16, where the period is full.
        let column = |off: u64, count: u64| {
            list(&(0..count).map(|k| (off + 12 * k, 4)).collect::<Vec<_>>())
        };
        let (a, b, c) = (column(98, 10), column(126, 6), column(106, 10));
        let cuts = [a.cut(0, 40), b.cut(0, 24), c.cut(0, 40)];
        assert_eq!(coverage(&cuts), coverage_by_insert(&cuts));
        assert_eq!(coverage(&cuts), [(98, 4), (106, 8), (118, 80), (202, 8), (214, 4)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sweep equals per-piece `RangeSet::insert` for any number
        /// of sources — strided or irregular, at any alignment to their
        /// period (pieces wrap it), whole lists or clipped cuts of them,
        /// overlapping, some repeated verbatim.
        #[test]
        fn coverage_matches_interval_set(lists in arb_sources()) {
            let cuts: Vec<Cut<'_>> = lists.iter().map(|(l, pos, n)| l.cut(*pos, *n)).collect();
            prop_assert_eq!(coverage(&cuts), coverage_by_insert(&cuts));
        }

        /// Closing the gaps of at most `gap` bytes, against the interval
        /// set: each run left stretches from one exact interval's start to
        /// a later one's end over gaps of at most `gap`, every gap left is
        /// wider, the hull is unchanged, and every clipped piece lies
        /// wholly inside one run.
        #[test]
        fn closed_gaps_are_exactly_the_narrow_ones(lists in arb_sources(), gap in 0u64..24) {
            let cuts: Vec<Cut<'_>> = lists.iter().map(|(l, pos, n)| l.cut(*pos, *n)).collect();
            let exact = coverage_by_insert(&cuts);
            let mut runs = coverage(&cuts);
            close_gaps(&mut runs, gap);
            let end = |r: &(u64, u64)| r.0 + r.1;
            let mut at = exact.iter().peekable();
            for run in &runs {
                let first = at.next().expect("a run starts at an exact interval");
                prop_assert_eq!(first.0, run.0);
                let mut reach = end(first);
                while let Some(next) = at.next_if(|next| next.0 < end(run)) {
                    prop_assert!(next.0 - reach <= gap, "a closed gap is at most {}", gap);
                    reach = end(next);
                }
                prop_assert_eq!(reach, end(run));
            }
            prop_assert!(at.next().is_none());
            for pair in runs.windows(2) {
                prop_assert!(pair[1].0 - end(&pair[0]) > gap, "a kept gap is wider than {}", gap);
            }
            let hull = |r: &[(u64, u64)]| r.first().map(|f| (f.0, end(r.last().unwrap())));
            prop_assert_eq!(hull(&runs), hull(&exact));
            for piece in cuts.iter().flat_map(Cut::iter) {
                let i = runs.partition_point(|&(off, _)| off <= piece.file_off);
                prop_assert!(i > 0 && piece.end() <= end(&runs[i - 1]));
            }
        }

        /// One round window written as a request of views against the
        /// staging path, over sources with overlapping pieces arriving in
        /// any order, torn or not: all real, with one synthetic payload,
        /// and over holes whose file bytes are synthetic. The two give
        /// the same file image, and a client reading a source's stream
        /// back lands the same buffer from either.
        #[test]
        fn a_request_of_views_writes_what_the_staged_window_did(
            sources in proptest::collection::vec(arb_pieces(16), 1..6),
            case in 0u8..3,
            torn in any::<bool>(),
            prior in 0u64..300,
            rot in any::<u64>(),
        ) {
            let lists: Lists = sources
                .iter()
                .map(|pieces| list(pieces))
                .enumerate()
                .filter(|(_, l)| !l.is_empty())
                .collect();
            prop_assume!(!lists.is_empty());
            let pick = rot as usize % lists.len();
            let mut incoming: Vec<(usize, IoBuffer)> = lists
                .iter()
                .enumerate()
                .map(|(i, (src, l))| {
                    let n = l.total_bytes() as usize;
                    let payload = match case == 1 && i == pick {
                        true => IoBuffer::synthetic(n),
                        false => IoBuffer::from_vec((0..n).map(|b| (b * 13 + src * 41 + 1) as u8).collect()),
                    };
                    (*src, payload)
                })
                .collect();
            incoming.rotate_left(rot as usize % lists.len());
            // Two files with one history: real bytes first, some of them
            // overwritten by synthetic ones when the holes are to be.
            let file = || {
                let fs = FileSystem::new(FsConfig::tiny());
                let (fh, _) = fs.open("/w", SimTime::ZERO);
                fh.write_at(0, &IoBuffer::from_vec((0..prior).map(|b| b as u8 | 0x80).collect()), SimTime::ZERO);
                if case == 2 {
                    fh.write_at(prior / 3, &IoBuffer::synthetic((prior / 2) as usize + 5), SimTime::ZERO);
                }
                (fs, fh)
            };
            let window = (0, 0, u64::MAX / 4);
            let (staged_fs, staged) = file();
            let cuts = cut_streams(&lists, (window.1, window.2), incoming.iter().map(|&(src, _)| src));
            write_by_staging(&staged, &cuts, incoming.clone(), torn);
            let (_viewed_fs, viewed) = file();
            let (fh, list_of) = (viewed.clone(), lists.clone());
            run_cluster(ClusterConfig::ideal(1), move |ep| {
                let comm = simmpi::Communicator::world(&ep);
                let mut domain = Domain::new(list_of.clone());
                let mut prof = PhaseProfile::new();
                let space = DirectSpace;
                let (mut incoming, mut placed) = (incoming.clone(), Vec::new());
                write_window(&comm, &fh, &space, &mut prof, &mut domain, window, &mut incoming, &mut placed, torn);
            });
            prop_assert_eq!(staged.size(), viewed.size());
            let end = staged.size() + 2;
            prop_assert_eq!(image(&staged, end), image(&viewed, end));
            drop(staged_fs);
            // Read each source's stream back, one message per run of its
            // coverage: fetched whole from the staged image and landed by
            // copying, fetched as views from the viewed one and landed as
            // views.
            for (_, l) in &lists {
                let cut = l.cut(0, l.total_bytes());
                let runs = coverage(std::slice::from_ref(&cut));
                let whole: Fetched = runs.iter().map(|&(off, len)| (off, staged.read_at(off, len as usize, SimTime::ZERO).0)).collect();
                let mut parts = Vec::new();
                viewed.read_list_parts(&runs, SimTime::ZERO, &mut parts);
                let mut parts = parts.into_iter();
                let mut views: Fetched = Vec::new();
                for &(off, len) in &runs {
                    let mut at = off;
                    while at < off + len {
                        let part = parts.next().expect("the run's parts");
                        let n = part.len() as u64;
                        views.push((at, part));
                        at += n;
                    }
                }
                let total = l.total_bytes();
                let copied = [(0, Body::of_window(&Rc::new(whole), total), cut)];
                let viewed_back = [(0, Body::of_window(&Rc::new(views), total), cut)];
                prop_assert_eq!(
                    land_by_copy(total as usize, &copied),
                    land_by_views(total as usize, &viewed_back)
                );
            }
        }

        /// Columns of one stride that tile (or, with one dropped, nearly
        /// tile) their period over staggered rows: the whole-period
        /// shortcut of the sweep against the interval set.
        #[test]
        fn tiled_columns_match_interval_set(
            len in 1u64..9,
            columns in proptest::collection::vec((0u64..5, 1u64..12, any::<bool>()), 1..6),
            gap in 0u64..2,
            base in 0u64..100,
            pos in 0u64..30,
            n in 0u64..2000,
        ) {
            let stride = len * columns.len() as u64 + gap;
            let lists: Vec<_> = columns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.2)
                .map(|(i, &(row, count, _))| {
                    let off = base + i as u64 * len + row * stride;
                    list(&(0..count).map(|k| (off + k * stride, len)).collect::<Vec<_>>())
                })
                .collect();
            let cuts: Vec<Cut<'_>> = lists
                .iter()
                .map(|l| {
                    let pos = pos.min(l.total_bytes() - 1);
                    l.cut(pos, n.min(l.total_bytes() - pos))
                })
                .collect();
            prop_assert_eq!(coverage(&cuts), coverage_by_insert(&cuts));
        }
    }

    #[test]
    fn scatter_lands_real_bytes_in_source_order() {
        let (a, b) = (list(&[(10, 2), (14, 2)]), list(&[(11, 4)]));
        let cuts = [a.cut(0, 4), b.cut(0, 4)];
        let payloads = vec![
            (0, IoBuffer::from_slice(&[1, 2, 3, 4])),
            (1, IoBuffer::from_slice(&[9, 8, 7, 6])),
        ];
        let mut window = IoBuffer::zeroed(8);
        scatter(&mut window, 10, &cuts, payloads);
        // b's overlap of [11, 15) lands over a's bytes: later source wins.
        assert_eq!(window.as_slice().unwrap(), &[1, 9, 8, 7, 6, 4, 0, 0]);
    }

    #[test]
    fn one_synthetic_payload_makes_the_window_synthetic() {
        let (a, b) = (list(&[(0, 4)]), list(&[(4, 4)]));
        let cuts = [a.cut(0, 4), b.cut(0, 4)];
        let payloads = vec![
            (0, IoBuffer::from_slice(&[1; 4])),
            (1, IoBuffer::synthetic(4)),
        ];
        let mut window = IoBuffer::zeroed(8);
        scatter(&mut window, 0, &cuts, payloads);
        assert_eq!(window, IoBuffer::synthetic(8));
        // ... and a synthetic window (a synthetic read-modify-write
        // fetch) stays synthetic under real payloads.
        let mut window = IoBuffer::synthetic(8);
        scatter(
            &mut window,
            0,
            &cuts[..1],
            vec![(0, IoBuffer::from_slice(&[1; 4]))],
        );
        assert_eq!(window, IoBuffer::synthetic(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scatter_keeps_its_range_check() {
        let a = list(&[(6, 4)]);
        let mut window = IoBuffer::zeroed(8);
        scatter(
            &mut window,
            0,
            &[a.cut(0, 4)],
            vec![(0, IoBuffer::from_slice(&[1; 4]))],
        );
    }
}
