//! The extended two-phase collective I/O protocol (`ext2ph`).
//!
//! This is the ROMIO-generic shape of collective buffering (Thakur &
//! Choudhary's extended two-phase method), the baseline the paper dissects
//! and then augments:
//!
//! 1. **File range gathering** — `MPI_Allgather` of each rank's
//!    `(start, end)` offsets *(global sync #1)*.
//! 2. **File domain partitioning** — the touched range is divided evenly
//!    among the I/O aggregators; every rank computes the division locally
//!    ([`domains`]).
//! 3. **Request dissemination** — `MPI_Alltoall` of per-aggregator piece
//!    counts *(global sync #2)* followed by point-to-point transfers of
//!    the `(offset, len)` lists ([`reqs`]). Each list is one
//!    [`PieceList`] from here to the last round: the message is charged
//!    as the 16 bytes per piece ROMIO ships, the host passes the owner's
//!    `Rc`, and the aggregator indexes nothing again. Like the plan it
//!    is cut from, a list holds strided `(off, len, stride, count)`
//!    [`Run`]s, so a BT-IO rank's ~3 300 pieces per call are
//!    ~160 runs on the host and still ~3 300 × 16 bytes on the wire.
//! 4. **Round count** — `MPI_Allreduce(MAX)` of each aggregator's
//!    `⌈touched-domain / cb_buffer_size⌉` *(global sync #3)*.
//! 5. **Interleaved data exchange and file I/O** — per round: an
//!    `MPI_Alltoall` of this round's transfer sizes *(global sync, once
//!    per round — the proximate cause of the collective wall)*, then
//!    point-to-point data exchange with the aggregators' staging buffers,
//!    hole detection, optional read-modify-write, and the large file
//!    access.
//!
//! # One engine
//!
//! [`collective`] is the only entry point: steps 1–4 (`setup`, which
//! takes or rebuilds the open's [`Memo`]), then one loop over the rounds,
//! for writes and reads alike — direction is a
//! parameter, [`Dir`], from `File::{write_at_all, read_at_all}` and
//! ParColl's partitioned calls down to the file access. A round is a
//! sequence of *exchanges*, each moving one window of one file domain,
//! and every exchange is one function (`Exchange::run`): the size
//! alltoall, then two stages in the order the direction dictates — write:
//! clients pack and post, the server collects and writes its window;
//! read: the server reads its window and posts it, clients collect and
//! carve. The aggregator's own domain, a domain adopted after a
//! crash and the heal of a torn window differ in data, not code:
//!
//! * the **routes** — which of my request lists feeds which serving rank:
//!   every list toward `cfg.aggregators[a]` in the main exchange, the one
//!   list for a dead domain toward its successor in an adopted one;
//! * the **served** `Domain` (piece lists by source, their stream
//!   positions, the touched range its windows tile), if this rank serves
//!   the exchange, and the window index;
//! * the tag pair, and whether the window's write is torn.
//!
//! Recovery (the `recovery` submodule) meets the driver at two hooks:
//! *before the round*, detection, which may re-home dead domains and
//! rewind a torn stream; and *which exchanges the round runs* after its
//! main one. Mid-call detection is selected by [`Dir`]: a read honors
//! stalls and the dead set at entry but never advances the crash round
//! counter. Piece trailers live in `integrity`, the per-window file access
//! (coverage, holes, the gaps a read reads through) in `window`.
//!
//! The piece streams advance in lock step on both sides, so no per-round
//! offset lists need to travel (exactly ROMIO's trick). A sender's stream
//! position is *bytes consumed*, and a torn-write rewind is arithmetic on
//! that one number; the serving side keeps none, since a round's cut of a
//! list is the list's pieces inside the round's window — which is also
//! why a domain adopted mid-call has nothing to replay. Both cut the
//! shared list by binary search plus arithmetic inside one run. The
//! window's coverage (`window`) sweeps runs too; pieces are visited one by
//! one only where real bytes are copied or hashed.
//!
//! Host work follows real bytes, and real bytes move by reference: a file
//! byte is not copied on the way in, and on the way out at most once. A
//! write's payload is a window of the user buffer, since the owner's
//! stream is one contiguous range of it, and the aggregator hands the file
//! one request for its window's span whose pieces are views of the
//! payloads (`window`); the file image keeps them (`simfs::storage`). A
//! read's fetched window is views of the image, every source is sent the
//! same `Rc`, and each client keeps its pieces as views until the call
//! ends, then builds its buffer from them (`integrity::Landing`): pieces
//! that are adjacent views of one store — a read back through the view
//! that wrote them — join into one view of it, and anything else is
//! assembled with one copy. A checksum trailer travels beside its message
//! (`integrity`). The staging and
//! landing copies of two-phase I/O stay *modelled* costs (`charge_memcpy`)
//! whatever the host does.
//!
//! And it follows fan-out, not rank count. A rank holds a list only for
//! the aggregators whose domain its access reaches into, an aggregator
//! only for the sources that sent it one (`Lists`: sorted `(peer, list)`
//! tables with the stream positions slot for slot beside them), and both
//! alltoalls above — charged and traced as the dense `MPI_Alltoall`s
//! they model — carry only the non-zero entries
//! ([`Communicator::alltoall_counts_sparse`],
//! [`Communicator::alltoall_sizes_sparse`]). An exchange therefore costs
//! each rank its handful of active peers, whichever domain it moves.
//!
//! # Steady-state calls
//!
//! A checkpoint loop issues one shape shifted by a step each call, so
//! steps 2–4 rebuild the same index every time. The engine works in its
//! call's own coordinates — file offsets relative to the call's
//! `min_st`, to which only the file accesses add it back — and keeps the
//! index of its last call in a [`Memo`] that the open owns (`File` for
//! its communicator, ParColl's group cache for a subgroup): the request
//! lists, the domain served, and each round window's coverage. A call
//! whose key — plan shape and position, `max_end − min_st`, aggregators,
//! collective buffer, alignment phase — matches the memo's takes its
//! lists as they are, `Rc` for `Rc`, and an aggregator whose sources
//! sent the very lists they sent last time takes its domain and coverage
//! too. Any other call rebuilds the memo first; either way the call
//! then runs from it, so there is one route from index to exchange. The
//! range allgather, the count alltoall, the list messages, the size
//! alltoalls, the data and the OST requests are the call's own, charged
//! and traced as they always were: the memo moves host work only.
//!
//! Every synchronizing step is bracketed with [`PhaseTimer`] so the
//! profile reproduces the paper's Figure 2 decomposition.

pub mod domains;
mod integrity;
mod recovery;
pub mod reqs;
mod window;

use crate::datatype::Run;
use crate::profile::{Phase, PhaseProfile, PhaseTimer};
use crate::space::FileSpace;
use crate::view::AccessPlan;
use domains::{compute_file_domains, compute_file_domains_aligned};
use integrity::{post, verify_all, Body, Landing, Msg, Sealed};
use recovery::Recovery;
use reqs::{split, Cut, PieceList};
use simfs::FileHandle;
use simmpi::{Communicator, ReduceOp};
use simnet::{IoBuffer, SimTime};
use simtrace::host::{self, Counter};
use std::cell::Cell;
use std::rc::Rc;
pub(crate) use window::{close_gaps, lay_out};
use window::{cut_of, cut_streams, read_window, write_window, Covered, Fetched};

/// Tag for request-list metadata messages.
const TAG_REQ: i32 = 0x7001;
/// (data, repair) tag pair of the main exchange: staged data messages and
/// clean re-sends of corrupted ones.
const DATA: (i32, i32) = (0x7002, 0x7005);
/// (data, repair) tag pair of an adopted (failed-over) domain's exchange.
const RECOVER_DATA: (i32, i32) = (0x7004, 0x7006);

/// Direction of a collective operation — the one parameter that tells a
/// write from a read, from the `File` call down to the file access.
#[derive(Debug, Clone, Copy)]
pub enum Dir<'a> {
    /// Every rank contributes this buffer (of `plan.total` bytes) laid
    /// out per its plan.
    Write(&'a IoBuffer),
    /// Every rank receives its `plan.total` bytes in plan order.
    Read,
}

impl Dir<'_> {
    /// The fault-plan phase hook, round span and call counter of this
    /// direction. Fault plans and trace consumers key on these strings.
    fn names(&self) -> (&'static str, &'static str, &'static str) {
        match self {
            Dir::Write(_) => ("write_all", "write_round", "ext2ph_write_calls"),
            Dir::Read => ("read_all", "read_round", "ext2ph_read_calls"),
        }
    }
}

/// Configuration of one collective operation.
#[derive(Debug, Clone)]
pub struct CollConfig {
    /// Aggregators as local ranks, strictly ascending (so distinct):
    /// `aggregators[i]` serves file domain `i`. Shared: an open derives
    /// the list once for all its ranks.
    pub aggregators: Rc<[usize]>,
    /// Staging buffer bytes per aggregator per round.
    pub cb_buffer_size: u64,
    /// Align file-domain boundaries to this unit (Lustre stripe size);
    /// `None` divides evenly (ROMIO generic).
    pub align: Option<u64>,
    /// End-to-end piece integrity (`integrity_checksums` hint): seal every
    /// exchanged data payload with a checksum trailer at pack time, verify
    /// at unpack, and run the sender-assisted detect-and-repair protocol
    /// on mismatch. Off is bitwise identical to a build without the
    /// integrity layer.
    pub checksums: bool,
}

impl CollConfig {
    /// Validate against a communicator size. No search depends on the
    /// aggregators' order, but two domains on one rank would share a key
    /// in every per-peer table; ascending order (which every list the
    /// selection code produces has) is the O(n) way to rule that out.
    fn check(&self, p: usize) {
        assert!(!self.aggregators.is_empty(), "no aggregators configured");
        assert!(self.cb_buffer_size > 0, "zero collective buffer");
        let ascending = self.aggregators.windows(2).all(|w| w[0] < w[1]);
        assert!(
            ascending && self.aggregators.last().is_some_and(|&a| a < p),
            "aggregators must be strictly ascending ranks below {p}: {:?}",
            self.aggregators
        );
    }
}

/// The non-empty piece lists one side of the exchange holds, keyed by
/// peer and ascending: by aggregator index for a rank's own requests, by
/// source rank for an aggregator's domain. Stream positions and every
/// round's work are sized by these — the (rank, aggregator) pairs that
/// exchange anything — not by the communicator.
type Lists = Vec<(usize, Rc<PieceList>)>;

/// Slot of `key` in a table sorted by key.
fn slot_of<T>(table: &[(usize, T)], key: usize) -> Option<usize> {
    table.binary_search_by_key(&key, |entry| entry.0).ok()
}

/// The value under `key` in a sparse table of non-zero values.
fn value_of(table: &[(usize, u64)], key: usize) -> u64 {
    slot_of(table, key).map_or(0, |slot| table[slot].1)
}

/// Receive the piece lists that `srcs` (ascending) sent on `tag` into
/// `lists` and keep the non-empty ones, by source; `mine` is this rank's
/// own list, if it has one (self-assignment travels by no message). The
/// entries are the senders' own `Rc`s.
fn recv_lists(
    comm: &Communicator<'_>,
    tag: i32,
    srcs: impl Iterator<Item = usize>,
    mine: Option<Rc<PieceList>>,
    lists: &mut Lists,
) {
    lists.clear();
    // Sized once, exactly: the senders and my own list.
    lists.reserve_exact(srcs.size_hint().1.unwrap_or(0) + 1);
    let reqs = srcs.map(|src| comm.irecv(src, tag));
    comm.waitall_into(reqs, lists, |src, list| (src, list.into_typed()));
    let _hp = simtrace::host::scope(simtrace::host::Site::CollSetup);
    lists.retain(|(_, l)| !l.is_empty());
    if let Some(mine) = mine {
        let at = lists.partition_point(|entry| entry.0 < comm.rank());
        lists.insert(at, (comm.rank(), mine));
    }
}

/// The file range spanned by those of `ranges` that exist. Piece lists
/// and cuts are sorted, so each contributes just its first and last piece.
fn hull(ranges: impl Iterator<Item = Option<(u64, u64)>>) -> Option<(u64, u64)> {
    ranges.flatten().reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))
}

/// The sources with bytes in window `[lo, hi)` and how many: the row an
/// aggregator announces in the round's size exchange, ascending, written
/// over `row`.
fn window_row(lists: &Lists, (lo, hi): (u64, u64), row: &mut Vec<(usize, u64)>) {
    let _hp = simtrace::host::scope(simtrace::host::Site::SizeExchange);
    simtrace::host::count(
        simtrace::host::Counter::SizeExchangeElems,
        lists.len() as u64,
    );
    let sized = lists
        .iter()
        .map(|(src, list)| (*src, list.bytes_in_window(lo, hi)));
    row.clear();
    row.reserve_exact(lists.len());
    row.extend(sized.filter(|&(_, n)| n > 0));
}

/// A file domain as the rank serving it holds it — an aggregator's own,
/// or one adopted from a dead aggregator.
struct Domain {
    /// The piece lists inside the domain, by source (the sources' own
    /// `Rc`s). A round window's cut of a list is the list's pieces
    /// inside the window: the serving side keeps no stream positions.
    lists: Lists,
    /// The file range the lists touch, `(0, 0)` if none: round windows
    /// tile it from its start.
    touched: (u64, u64),
    /// Its round windows' coverage.
    covered: Covered,
}

impl Domain {
    fn new(lists: Lists) -> Domain {
        let touched = hull(lists.iter().map(|(_, l)| l.file_range())).unwrap_or((0, 0));
        Domain {
            lists,
            touched,
            covered: Covered::default(),
        }
    }

    /// File range of round window `wi`.
    fn window(&self, wi: u64, cb_buffer_size: u64) -> (u64, u64) {
        let lo = self.touched.0 + wi * cb_buffer_size;
        (lo, lo + cb_buffer_size)
    }

    /// True if `lists` are the lists this domain holds: the same sources,
    /// each having sent the very list it sent before. Every list is kept
    /// alive by the memo that holds this domain, so a pointer match is a
    /// content match.
    fn holds(&self, lists: &Lists) -> bool {
        let same = |((a, x), (b, y)): (&(usize, _), &(usize, _))| a == b && Rc::ptr_eq(x, y);
        self.lists.len() == lists.len() && self.lists.iter().zip(lists).all(same)
    }
}

/// What one collective call's index is a function of, besides the
/// communicator: this rank's plan and the file range and aggregator
/// configuration it is split against, in the call's own coordinates
/// (offsets relative to the call's `min_st`).
struct Key {
    /// The plan's runs relative to its start (shared by every plan of
    /// this shape that `File::plan` shifts).
    shape: Rc<[Run]>,
    /// Where the plan starts, relative to `min_st`.
    at: Option<u64>,
    /// `max_end − min_st`: the range the domains divide.
    span: u64,
    aggregators: Rc<[usize]>,
    cb_buffer_size: u64,
    /// The alignment unit and `min_st` modulo it: where aligned domain
    /// boundaries fall relative to `min_st`.
    align: Option<(u64, u64)>,
}

impl Key {
    fn new(plan: &AccessPlan, cfg: &CollConfig, (min_st, max_end): (u64, u64)) -> Key {
        Key {
            shape: Rc::clone(plan.shape()),
            at: plan.start().map(|s| s - min_st),
            span: max_end - min_st,
            aggregators: Rc::clone(&cfg.aggregators),
            cb_buffer_size: cfg.cb_buffer_size,
            align: Self::phase(cfg, min_st),
        }
    }

    fn phase(cfg: &CollConfig, min_st: u64) -> Option<(u64, u64)> {
        cfg.align.filter(|&a| a > 1).map(|a| (a, min_st % a))
    }

    /// True if a call with these inputs splits exactly as the keyed one:
    /// domains are a function of `span`, the aggregator count and the
    /// alignment phase, shifted by `min_st`; the split of a shifted plan
    /// over shifted domains is the same lists in relative coordinates.
    fn matches(&self, plan: &AccessPlan, cfg: &CollConfig, (min_st, max_end): (u64, u64)) -> bool {
        same(&self.shape, plan.shape())
            && self.at == plan.start().map(|s| s - min_st)
            && self.span == max_end - min_st
            && same(&self.aggregators, &cfg.aggregators)
            && self.cb_buffer_size == cfg.cb_buffer_size
            && self.align == Self::phase(cfg, min_st)
    }
}

/// True if two shared slices hold the same elements: one pointer
/// comparison when they are one allocation.
fn same<T: PartialEq>(a: &Rc<[T]>, b: &Rc<[T]>) -> bool {
    Rc::ptr_eq(a, b) || a == b
}

/// The index of the last collective call on one open: its request lists,
/// the domain it served and that domain's window coverage, all relative
/// to the call's `min_st`. The owner of the open keeps it between calls —
/// `File` for its own communicator, ParColl's group cache for a subgroup
/// — and drops it at close.
///
/// Every call goes through it: a call whose `Key` matches, and whose
/// aggregator receives the same lists, takes the whole index as it is and
/// only its file accesses move (by the new `min_st`); any other call
/// rebuilds it first. Either way every message, charge and trace event is
/// the call's own, so the memo changes host work only. It holds the
/// call's own `Rc`s, never a copy, and belongs to one communicator: its
/// key does not name the ranks.
///
/// It also keeps the working storage of the calls — the received lists,
/// the routes, the exchanges' `Scratch` — which every call clears and
/// refills, never rebuilds: a steady-state call allocates only what its
/// meetings share (DESIGN.md §9.3).
#[derive(Default)]
pub struct Memo {
    key: Option<Key>,
    /// My piece lists by aggregator index.
    my_req: Lists,
    /// The domain I serve, if I am an aggregator.
    domain: Option<Domain>,
    /// The lists the setup receives, before they are compared with the
    /// domain's.
    lists: Lists,
    /// The main exchange's routes: `(my_req slot, serving rank)`.
    routes: Vec<(usize, usize)>,
    scratch: Scratch,
}

impl Memo {
    /// An empty memo on the heap, where an open keeps it: built in a
    /// frame of its own, so the caller's frame — a rank's, on its fiber
    /// stack — holds no memo-sized temporary.
    #[inline(never)]
    pub fn boxed() -> Box<Memo> {
        Box::default()
    }
}

/// What the exchanges of a call work in, kept on the [`Memo`] from round
/// to round and call to call. Every buffer is sized by this rank's active
/// peers — its lists, the sources of its windows — never by the
/// communicator, and none holds a byte view past the round that filled
/// it, save the window a serving rank read last, which its clients hold
/// until they land it and the call's end drops.
#[derive(Default)]
struct Scratch {
    /// My stream positions (bytes consumed), slot for slot with `my_req`.
    pos: Vec<u64>,
    /// Bytes each of my streams sent in its latest exchange, so a torn
    /// failover can rewind it by exactly one window.
    last: Vec<u64>,
    /// The row a serving rank announces in a round's size exchange.
    row: Vec<(usize, u64)>,
    /// The data messages a round receives, `(src, message)`.
    arrived: Vec<(usize, Msg)>,
    /// A written window's verified payloads, by source.
    incoming: Vec<(usize, IoBuffer)>,
    /// A written window's pieces, as views of the payloads.
    placed: Vec<(u64, IoBuffer)>,
    /// A read client's routes with bytes for it this round, its own last.
    expects: Vec<(usize, usize)>,
    /// A read client's verified messages: bytes and body.
    verified: Vec<(u64, Body)>,
    /// The parts a served read window's file access returned.
    parts: Vec<IoBuffer>,
    /// The window a serving rank read last, shared with the clients it
    /// serves; refilled in place once they have landed it (a round
    /// starts with a meeting, so they have).
    window: Rc<Fetched>,
    /// A list read's runs at the file's offsets, while no call runs
    /// (`Shifted` holds them during one).
    shifted: Vec<(u64, u64)>,
}

/// A file space addressed relative to `base`: the engine works in its
/// call's coordinates, and its file accesses add the call's `min_st`.
struct Shifted<'a> {
    space: &'a dyn FileSpace,
    base: u64,
    /// Scratch for a list read's runs moved by `base`.
    runs: Cell<Vec<(u64, u64)>>,
}

impl FileSpace for Shifted<'_> {
    fn write(
        &self,
        fh: &FileHandle,
        offset: u64,
        len: u64,
        pieces: &[(u64, IoBuffer)],
        now: SimTime,
    ) -> SimTime {
        self.space.write(fh, self.base + offset, len, pieces, now)
    }

    fn read(
        &self,
        fh: &FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
        parts: &mut Vec<IoBuffer>,
    ) -> SimTime {
        self.space.read(fh, self.base + offset, len, now, parts)
    }

    fn read_list(
        &self,
        fh: &FileHandle,
        runs: &[(u64, u64)],
        now: SimTime,
        parts: &mut Vec<IoBuffer>,
    ) -> SimTime {
        let mut shifted = self.runs.take();
        shifted.clear();
        shifted.extend(runs.iter().map(|&(off, len)| (self.base + off, len)));
        let done = self.space.read_list(fh, &shifted, now, parts);
        self.runs.set(shifted);
        done
    }
}

/// Steps 1–4: range gathering, domain partitioning, request
/// dissemination, round count. Leaves the piece lists of *my* access by
/// aggregator index and my file domain, if I am an aggregator, in `memo`
/// — taken from it as they are when this call is shaped like the last —
/// and returns the call's `min_st` and the global number of exchange
/// rounds, or `None` when no rank moves bytes. Out of line: its frame is
/// gone before the rounds, whose frames are a rank's deepest.
#[inline(never)]
fn setup(
    comm: &Communicator<'_>,
    plan: &AccessPlan,
    cfg: &CollConfig,
    memo: &mut Memo,
    prof: &mut PhaseProfile,
) -> Option<(u64, u64)> {
    let ep = comm.endpoint();
    cfg.check(comm.size());
    let naggs = cfg.aggregators.len();
    let my_agg_idx = cfg.aggregators.iter().position(|&a| a == comm.rank());

    // (1) Allgather of (start, end) — global sync.
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let my_range: Option<(u64, u64)> = plan.start().map(|s| (s, plan.end().unwrap()));
    let ranges = comm.allgather_t(my_range, 16);
    t.stop_traced(ep.now(), prof, ep.trace());

    // (2) File domains, computed identically everywhere, and my split
    // over them — unless this call is shaped like the last.
    let mut hit;
    let min_st = {
        let _hp = host::scope(host::Site::CollSetup);
        let min_st = ranges.iter().flatten().map(|r| r.0).min()?;
        let max_end = ranges.iter().flatten().map(|r| r.1).max().unwrap();
        let range = (min_st, max_end);
        let key = memo.key.as_ref();
        hit = key.is_some_and(|key| key.matches(plan, cfg, range));
        if !hit {
            // The old index goes before the new one is built.
            (memo.key, memo.my_req, memo.domain) = (None, Vec::new(), None);
            let file_domains = match cfg.align {
                Some(align) => compute_file_domains_aligned(min_st, max_end, naggs, align),
                None => compute_file_domains(min_st, max_end, naggs),
            };
            memo.my_req = split(plan, &file_domains, min_st);
            memo.key = Some(Key::new(plan, cfg, range));
        }
        min_st
    };
    let my_req = &memo.my_req;
    let counts = my_req
        .iter()
        .map(|(a, list)| (cfg.aggregators[*a], list.piece_count()));

    // (3a) Alltoall of piece counts — global sync.
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let counts_from = comm.alltoall_counts_sparse(counts);
    t.stop_traced(ep.now(), prof, ep.trace());

    // (3b) Point-to-point transfer of the (offset, len) lists: charged as
    // ROMIO's wire size, passed as the owner's `Rc`. Only non-empty
    // lists exist, and self-assignment sends no message.
    let t = PhaseTimer::start(Phase::P2p, ep.now());
    for (a, list) in my_req {
        let dst = cfg.aggregators[*a];
        if dst != comm.rank() {
            comm.isend_t(dst, TAG_REQ, Rc::clone(list), list.wire_bytes());
        }
    }
    if let Some(a) = my_agg_idx {
        let srcs = counts_from.iter().map(|&(src, _)| src);
        let mine = slot_of(my_req, a).map(|slot| Rc::clone(&my_req[slot].1));
        let srcs = srcs.filter(|&src| src != comm.rank());
        recv_lists(comm, TAG_REQ, srcs, mine, &mut memo.lists);
        let _hp = host::scope(host::Site::CollSetup);
        if !memo.domain.as_ref().is_some_and(|d| d.holds(&memo.lists)) {
            hit = false;
            memo.domain = Some(Domain::new(memo.lists.clone()));
        }
        memo.lists.clear();
    }
    t.stop_traced(ep.now(), prof, ep.trace());
    let counter = if hit {
        Counter::ShapeHit
    } else {
        Counter::ShapeMiss
    };
    host::count(counter, 1);

    // (4) Round count: ceil(touched-range / cb_buffer) per aggregator,
    // allreduce MAX — global sync.
    let (st, end) = memo.domain.as_ref().map_or((0, 0), |d| d.touched);
    let my_ntimes = (end - st).div_ceil(cfg.cb_buffer_size);
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let ntimes = comm.allreduce_u64(&[my_ntimes], ReduceOp::Max)[0];
    t.stop_traced(ep.now(), prof, ep.trace());

    Some((min_st, ntimes))
}

/// One collective operation in direction `dir`: every rank moves the
/// `plan.total` bytes its `plan` lays out — out of the buffer `dir`
/// carries for a write, into the buffer returned for a read (`None` for a
/// write). `memo` is the open's index of its last call, which this call
/// takes or rebuilds. As in ROMIO there is no trailing barrier: a rank
/// returns once its own participation ends (its last sends are posted,
/// its windows are written), and the next collective call — or the
/// benchmark harness's explicit barrier — absorbs any residual skew.
#[allow(clippy::too_many_arguments)]
pub fn collective(
    comm: &Communicator<'_>,
    fh: &FileHandle,
    space: &dyn FileSpace,
    plan: &AccessPlan,
    dir: Dir<'_>,
    cfg: &CollConfig,
    memo: &mut Memo,
    prof: &mut PhaseProfile,
) -> Option<IoBuffer> {
    let read = matches!(dir, Dir::Read);
    if let Dir::Write(buf) = dir {
        let len = buf.len() as u64;
        assert_eq!(len, plan.total, "buffer length must match the access plan");
    }
    prof.calls += 1;
    let ep = comm.endpoint();
    let (phase, round_span, calls_counter) = dir.names();
    let degraded = recovery::entry(comm, cfg, phase, prof);
    let cfg = degraded.as_ref().unwrap_or(cfg);
    let Some((min_st, ntimes)) = setup(comm, plan, cfg, memo, prof) else {
        return read.then(IoBuffer::empty);
    };
    let Memo {
        my_req,
        domain,
        routes,
        scratch,
        ..
    } = memo;
    let my_req = &*my_req;

    // The main exchange routes every list of mine to its aggregator.
    routes.clear();
    let main = my_req.iter().enumerate();
    routes.extend(main.map(|(slot, (a, _))| (slot, cfg.aggregators[*a])));
    for stream in [&mut scratch.pos, &mut scratch.last] {
        stream.clear();
        stream.resize(my_req.len(), 0);
    }
    let mut recovery = Recovery::new(comm, dir);
    let space = Shifted {
        space,
        base: min_st,
        runs: Cell::new(std::mem::take(&mut scratch.shifted)),
    };
    let mut x = Exchange {
        comm,
        fh,
        space: &space,
        cfg,
        dir,
        my_req,
        s: scratch,
        landed: Landing::default(),
        prof,
    };

    for round in 0..ntimes {
        x.prof.rounds += 1;
        let round_start = ep.now();
        let torn = recovery.detect(&mut x, round, ntimes);
        // A dead I/O role lives on as a sender, but its domain now
        // belongs to the successor.
        let own = domain.as_mut().filter(|_| !recovery.role_dead);
        x.run(routes, own, round, DATA, torn);
        for adopted in &mut recovery.adopted {
            for wi in adopted.windows(round) {
                let route = adopted.route.as_slice();
                x.run(route, adopted.domain.as_mut(), wi, RECOVER_DATA, false);
            }
        }
        if ep.trace().enabled() {
            trace_round(ep, round_span, round_start, (round, ntimes));
        }
    }
    let rec = ep.trace();
    if rec.enabled() {
        rec.count(calls_counter, 1);
        rec.observe("ext2ph_rounds", ntimes as f64);
    }
    x.s.shifted = space.runs.take();
    // A window that held real parts gives its room back: a verify run's
    // serving ranks would each keep a window's worth of views and parts
    // until their next call. A synthetic window holds none.
    if x.s.window.capacity() > 0 {
        (x.s.window, x.s.parts) = Default::default();
    }
    read.then(|| x.landed.finish(plan.total as usize))
}

/// Record round `round` of `of` as a span named `name` from `start` to
/// now — out of line, so an untraced call's frame holds no span
/// arguments.
#[cold]
#[inline(never)]
fn trace_round(ep: &simnet::Endpoint, name: &'static str, start: SimTime, (round, of): (u64, u64)) {
    let args = vec![
        ("round", simtrace::ArgValue::from(round)),
        ("of", simtrace::ArgValue::from(of)),
    ];
    let (from, to) = (start.as_micros(), ep.now().as_micros());
    ep.trace().span("round", name, from, to, args);
}

/// Charge the local copy of message `msg`, then post it to `dst`, or keep
/// it in `own` when `dst` is this rank (mine travels by no message).
fn send(
    comm: &Communicator<'_>,
    prof: &mut PhaseProfile,
    (dst, msg): (usize, Msg),
    tags: (i32, i32),
    own: &mut Option<Msg>,
) {
    let ep = comm.endpoint();
    let t = PhaseTimer::start(Phase::Local, ep.now());
    ep.charge_memcpy(msg.len as usize);
    t.stop_traced(ep.now(), prof, ep.trace());
    if dst == comm.rank() {
        *own = Some(msg);
    } else {
        post(comm, dst, tags, msg, prof);
    }
}

/// Receiver side of one data exchange: complete one receive per rank in
/// `srcs`, in that order, as a batch, then take the message this rank
/// made for itself; `(src, message)` in that order, into `arrived`.
fn collect(
    comm: &Communicator<'_>,
    prof: &mut PhaseProfile,
    srcs: impl Iterator<Item = usize>,
    data_tag: i32,
    own: Option<Msg>,
    arrived: &mut Vec<(usize, Msg)>,
) {
    let ep = comm.endpoint();
    let t = PhaseTimer::start(Phase::P2p, ep.now());
    arrived.clear();
    let reqs = srcs.map(|src| comm.irecv(src, data_tag));
    let open = |src, payload| (src, Msg::from_payload(payload));
    comm.waitall_into(reqs, arrived, open);
    t.stop_traced(ep.now(), prof, ep.trace());
    arrived.extend(own.map(|msg| (comm.rank(), msg)));
}

/// What the exchanges of one collective call share: the call's arguments
/// and this rank's client-side state.
struct Exchange<'a, 'c> {
    comm: &'a Communicator<'c>,
    fh: &'a FileHandle,
    space: &'a dyn FileSpace,
    cfg: &'a CollConfig,
    dir: Dir<'a>,
    /// The piece lists of my access, by aggregator index.
    my_req: &'a Lists,
    /// The open's working storage, stream positions included.
    s: &'a mut Scratch,
    /// What a read has received: views until the call ends, assembled
    /// into the buffer it returns then. Every rank is inside this call at
    /// once, so a buffer held from the first round on is ranks × bytes
    /// read at the peak; assembled at the end, one rank's is alive at a
    /// time.
    landed: Landing,
    prof: &'a mut PhaseProfile,
}

impl Exchange<'_, '_> {
    /// Move window `wi` of one file domain between the ranks holding
    /// pieces in it and the rank serving it. `routes` are my `(my_req
    /// slot, serving rank)` pairs into the domain, in aggregator order;
    /// `served` is the domain if this rank serves it; `torn` half-applies
    /// the window's write (see [`write_window`]).
    fn run(
        &mut self,
        routes: &[(usize, usize)],
        served: Option<&mut Domain>,
        wi: u64,
        tags: (i32, i32),
        torn: bool,
    ) {
        let (comm, cfg, row) = (self.comm, self.cfg, &mut self.s.row);
        let ep = comm.endpoint();

        // Per-round MPI_Alltoall of transfer sizes — the global sync the
        // collective wall is made of. The serving rank announces how many
        // bytes it moves for each source, and keeps what it announced.
        let t = PhaseTimer::start(Phase::Sync, ep.now());
        row.clear();
        let served = served.map(|domain| {
            let (lo, hi) = domain.window(wi, cfg.cb_buffer_size);
            window_row(&domain.lists, (lo, hi), row);
            ((wi, lo, hi), domain)
        });
        let expected = comm.alltoall_sizes_sparse(row.iter().copied());
        t.stop_traced(ep.now(), self.prof, ep.trace());

        // The read half runs out of line, so a write round's frame — the
        // deepest a rank's stack goes — holds none of its state.
        match self.dir {
            Dir::Write(buf) => self.write_round(buf, routes, served, &expected, tags, torn),
            Dir::Read => self.read_round(routes, served, &expected, tags),
        }
    }

    /// The write half of [`Exchange::run`], after the size exchange:
    /// `expected` is what each serving rank asked of this one.
    #[inline(always)]
    fn write_round(
        &mut self,
        buf: &IoBuffer,
        routes: &[(usize, usize)],
        served: Option<((u64, u64, u64), &mut Domain)>,
        expected: &[(usize, u64)],
        tags: (i32, i32),
        torn: bool,
    ) {
        let (comm, cfg, fh, space) = (self.comm, self.cfg, self.fh, self.space);
        let (me, my_req) = (comm.rank(), self.my_req);
        let Scratch {
            pos,
            last,
            row,
            arrived,
            incoming,
            placed,
            ..
        } = &mut *self.s;
        // Clients: pack (local memcpy) and post (p2p) the bytes each serving
        // rank asked for, in route order. Only a rank I sent a list to can
        // ask.
        let mut own: Option<Msg> = None;
        // Each stream is one contiguous range of the user buffer, so its
        // payload is a single range-checked slice — a zero-copy view when the
        // bytes are real.
        let payloads = routes.iter().filter_map(|&(slot, server)| {
            let n = value_of(expected, server);
            last[slot] = n;
            let at = (n > 0).then(|| my_req[slot].1.buffer_offset(pos[slot], n))?;
            let _hp = simtrace::host::scope(simtrace::host::Site::Pack);
            pos[slot] += n;
            let payload = Body::Stream(buf.sub(at as usize, n as usize));
            Some((server, payload, Cut::default(), n))
        });
        let prof = &mut *self.prof;
        Sealed::seal_all(payloads, cfg.checksums, |dst, msg| {
            send(comm, prof, (dst, msg), tags, &mut own);
        });
        // Server: collect the payloads (my own travels by no message), verify
        // — and, with checksums on, repair — each before any byte lands
        // anywhere (with checksums off this is where a planted in-flight flip
        // reaches the data), place the pieces and write the window as one
        // request.
        if let Some((window, domain)) = served {
            // Buffers kept from round to round are sized exactly: a rank holds
            // them for the whole open.
            arrived.reserve_exact(row.len());
            let srcs = row.iter().map(|&(src, _)| src).filter(|&src| src != me);
            collect(comm, self.prof, srcs, tags.0, own, arrived);
            let cut = Cut::default(); // a write's payload is one stream
            incoming.clear();
            incoming.reserve_exact(arrived.len());
            let msgs = arrived.drain(..).map(|(src, msg)| (src, msg, cut));
            verify_all(comm, tags, msgs, self.prof, |src, _, cut, body| {
                incoming.push((src, body.into_payload(&cut)));
            });
            write_window(comm, fh, space, self.prof, domain, window, incoming, placed, torn);
        }
    }

    /// The read half of [`Exchange::run`], after the size exchange.
    #[inline(never)]
    fn read_round(
        &mut self,
        routes: &[(usize, usize)],
        served: Option<((u64, u64, u64), &mut Domain)>,
        expected: &[(usize, u64)],
        tags: (i32, i32),
    ) {
        let (comm, cfg, fh, space) = (self.comm, self.cfg, self.fh, self.space);
        let (ep, me, my_req) = (comm.endpoint(), comm.rank(), self.my_req);
        let Scratch {
            pos,
            row,
            arrived,
            expects,
            verified,
            parts,
            window,
            ..
        } = &mut *self.s;
        // Server: read the window once and send every source with bytes in it
        // the same window; its sum, with checksums on, is over that source's
        // pieces where they lie.
        let mut own: Option<Msg> = None;
        if let Some(((wi, lo, hi), domain)) = served {
            let Domain { lists, covered, .. } = domain;
            let srcs = || row.iter().map(|&(src, _)| src);
            let cuts = || cut_streams(lists, (lo, hi), srcs());
            if Rc::get_mut(window).is_none() {
                *window = Rc::default();
            }
            let fetched = Rc::get_mut(window).expect("a window no client holds");
            let prof = &mut *self.prof;
            if read_window(comm, fh, space, prof, covered, wi, cuts, parts, fetched) {
                let bodies = row.iter().map(|&(src, n)| {
                    let _hp = simtrace::host::scope(simtrace::host::Site::Pack);
                    let cut = cut_of(lists, src, (lo, hi));
                    (src, Body::of_window(window, n), cut, n)
                });
                let prof = &mut *self.prof;
                Sealed::seal_all(bodies, cfg.checksums, |dst, msg| {
                    send(comm, prof, (dst, msg), tags, &mut own);
                });
            }
            // The window lives until its last client has landed: free where it
            // views the file image; elsewhere a copy that replaces the
            // per-client payloads.
        }

        // Clients: receive from the serving ranks that have bytes for me, in
        // route order, my own last — verified (and repaired) before any byte
        // lands in the user buffer.
        let has_bytes = |route: &&(usize, usize)| value_of(expected, route.1) > 0;
        expects.clear();
        expects.reserve_exact(routes.len());
        expects.extend(routes.iter().filter(has_bytes).filter(|r| r.1 != me));
        let remote = expects.len();
        expects.extend(routes.iter().filter(has_bytes).filter(|r| r.1 == me));
        arrived.reserve_exact(expects.len());
        verified.reserve_exact(expects.len());
        let srcs = expects[..remote].iter().map(|&(_, server)| server);
        collect(comm, self.prof, srcs, tags.0, own, arrived);
        debug_assert_eq!(arrived.len(), expects.len());
        let msgs = expects.iter().zip(arrived.drain(..));
        let msgs = msgs.map(|(&(slot, _), (src, msg))| {
            let cut = my_req[slot].1.cut(pos[slot], msg.len);
            (src, msg, cut)
        });
        verified.clear();
        verify_all(comm, tags, msgs, self.prof, |_, n, _, body| {
            verified.push((n, body));
        });

        // Unpack — local memory movement. A domain's stream is one contiguous
        // range of the user buffer, so each message's pieces land there in
        // order, as views until the call ends.
        let t = PhaseTimer::start(Phase::Local, ep.now());
        {
            let _hp = simtrace::host::scope(simtrace::host::Site::Unpack);
            for (&(slot, _), (n, body)) in expects.iter().zip(verified.drain(..)) {
                let list = &my_req[slot].1;
                let at = list.buffer_offset(pos[slot], n);
                let cut = list.cut(pos[slot], n);
                self.landed.land(at as usize, &body, &cut);
                pos[slot] += n;
                ep.charge_memcpy(n as usize);
            }
        }
        t.stop_traced(ep.now(), self.prof, ep.trace());
    }
}
