//! Deterministic byte ledger: host heap follows real bytes and unique
//! metadata, never ranks × modelled bytes (DESIGN.md §9.3).
//!
//! This file is its own test binary so the counting `#[global_allocator]`
//! touches nothing else, and it holds a single `#[test]` so no other
//! thread allocates while a section measures. Counts are requested
//! bytes and allocator calls, which (unlike RSS) do not depend on
//! allocator retention — so the bounds are exact properties of the code,
//! not of the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::btio::BtIo;
use workloads::restart::{run_restart, Restart};
use workloads::runner::{run_workload, DataMode, IoMode, RunConfig};
use workloads::tileio::TileIo;
use workloads::Workload;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Cumulative requested bytes: every allocation and every regrowth, never
/// decremented — what a run *asked for*, however briefly it held it.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
/// Cumulative allocator calls that hand out memory: allocations and
/// regrowths.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(by, Ordering::Relaxed);
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the wrapper only keeps statistics in atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper with the
        // same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        Self::grew(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: usize = 1 << 20;

/// Run `f`; return (peak live heap during it above the level at entry,
/// live heap at exit).
fn ledger(f: impl FnOnce()) -> (usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    (
        PEAK.load(Ordering::Relaxed) - before,
        LIVE.load(Ordering::Relaxed),
    )
}

/// 16-rank tile-io write and collective read-back of `data`, 4×4 tiles
/// of 128×128 elements of 64 B: a 16 MiB file.
fn tile_verify(data: DataMode) {
    let tiles = TileIo {
        ntx: 4,
        nty: 4,
        tile_x: 128,
        tile_y: 128,
        elem: 64,
    };
    let mut cfg = RunConfig::verify(IoMode::Parcoll { groups: 2 });
    cfg.data = data;
    let r = run_workload(tiles, cfg);
    assert_eq!(r.total_bytes, 16 * MIB as u64);
}

/// Real bytes held once: the file image keeps views of the writers'
/// buffers, and a collective read assembles each rank's buffer at the end
/// of its call, one rank at a time, so a verify run holds the file's
/// bytes once over what the same run on synthetic data holds. Staged —
/// an aggregator copying every piece into a window the image then kept,
/// and every rank landing into a zero-filled buffer from its first round
/// on — it held 1.88 × the file over the synthetic run.
fn real_bytes_are_held_once() {
    let file = 16 * MIB;
    let (synthetic, _) = ledger(|| tile_verify(DataMode::Synthetic));
    // First run: the pool starts without the writers' stores.
    let (real, live_first) = ledger(|| tile_verify(DataMode::Verify));
    let over = real.saturating_sub(synthetic) as f64 / file as f64;
    assert!(
        over <= 1.25,
        "a verify run holds {over:.2} × the file's bytes over the synthetic run: \
         a second copy of the file is alive at once"
    );
    // Second run: the writers' stores the first one pooled are reused,
    // and live heap returns to the same level.
    let (_, live_second) = ledger(|| tile_verify(DataMode::Verify));
    assert!(
        live_second.abs_diff(live_first) <= 64 << 10,
        "tile verify: live heap moved {live_first} -> {live_second} B across identical runs"
    );
}

/// 64-rank synthetic checkpoint + hole-dense restart read: every rank
/// reads 3 MiB, so a read path that materializes its user buffer holds
/// 64 × 3 MiB = 192 MiB at the peak.
fn restart() {
    let (ntx, nty) = TileIo::tall_grid(64);
    let tile = TileIo {
        ntx,
        nty,
        tile_x: 512,
        tile_y: 384,
        elem: 64,
    };
    let r = run_restart(
        Restart::with_den(tile, 4),
        RunConfig::paper(IoMode::Parcoll { groups: 8 }),
    );
    assert_eq!(r.read_bytes, 64 * 3 * MIB as u64);
}

/// 64-rank BT-IO class C geometry through ParColl's intermediate view,
/// pattern (c): `steps` collective calls.
fn btio_parcoll(steps: usize) {
    let r = run_workload(
        BtIo::with_grid(64, 162, steps),
        RunConfig::paper(IoMode::Parcoll { groups: 8 }),
    );
    assert!(r.write_mbps > 0.0);
}

/// Pieces one BT-IO class C call moves on 64 ranks: what ROMIO's
/// `(offset, len)` lists would hold.
fn btio_pieces() -> usize {
    let btio = BtIo::with_grid(64, 162, 1);
    let pieces: usize = (0..64)
        .map(|rank| {
            let (disp, filetype) = btio.view(rank);
            let (offset, nbytes) = btio.call(rank, 0);
            mpiio::FileView::new(disp, &filetype)
                .extents(offset, nbytes)
                .len()
        })
        .sum();
    assert!(
        pieces > 200_000,
        "pattern (c): ~3 280 pieces per rank per call"
    );
    pieces
}

/// 64-rank BT-IO class C geometry through the baseline collective, where
/// every piece crosses the exchange: `steps` collective calls.
fn btio_collective(steps: usize) {
    let r = run_workload(
        BtIo::with_grid(64, 162, steps),
        RunConfig::paper(IoMode::Collective),
    );
    assert!(r.write_mbps > 0.0);
}

/// Bytes requested from the allocator while `f` ran.
fn requested(f: impl FnOnce()) -> usize {
    let before = REQUESTED.load(Ordering::Relaxed);
    f();
    REQUESTED.load(Ordering::Relaxed) - before
}

/// Allocator calls (allocations and regrowths) while `f` ran.
fn calls(f: impl FnOnce()) -> usize {
    let before = CALLS.load(Ordering::Relaxed);
    f();
    CALLS.load(Ordering::Relaxed) - before
}

/// Point-to-point messages [`btio_collective`] sends, from a traced run
/// (tracing adds allocations, never messages).
fn btio_collective_sends(steps: usize) -> u64 {
    let sink = simtrace::TraceSink::enabled();
    let mut cfg = RunConfig::paper(IoMode::Collective);
    cfg.trace = sink.clone();
    run_workload(BtIo::with_grid(64, 162, steps), cfg);
    let trace = sink.finish();
    let sends = trace
        .tracks
        .iter()
        .filter_map(|t| t.counters.get("p2p_sends"));
    sends.sum()
}

/// The message path allocates nothing per message: allocator calls one
/// more collective BT-IO call makes, per point-to-point message it sends
/// (a 64-rank call sends 8 064: its request lists and data messages).
/// Counts repeat exactly, so the bound is a property of the code.
///
/// The ledger at the bound's writing: 33 calls per call, 0.004 per
/// message. None is made by a message, a rank or a round: a data message
/// without a checksum trailer travels as its bytes, a mailbox's store
/// reuses the nodes received packets leave, a rank's meeting inputs refill the slots they left in
/// the rendezvous, the results are the meetings' own `Rc`s, and the
/// rows, routes, stream positions, receive lists and arrivals live on
/// the open's `Memo`. What is left is each meeting's shared result and
/// the OST queues' growth. With those per round and rank (the size
/// exchange's rows, receive-request vectors, boxed meeting inputs,
/// results copied out per rank), the same call made 2 535 calls, 0.31
/// per message; while every data message was a shared `Sealed` and the
/// substrate thread-safe, 6 759, 0.84 per message.
fn messages_allocate_nothing() {
    let steps_1 = calls(|| btio_collective(1));
    let steps_2 = calls(|| btio_collective(2));
    assert_eq!(
        steps_2,
        calls(|| btio_collective(2)),
        "counts repeat exactly"
    );
    let sends = btio_collective_sends(2) - btio_collective_sends(1);
    let per_message = (steps_2 - steps_1) as f64 / sends as f64;
    assert!(
        per_message <= 0.05,
        "a collective call makes {per_message:.3} allocator calls per message it sends: \
         a message, a rank or a round allocates again"
    );
}

/// Allocator calls a meeting makes for what its members share, with
/// headroom: a sparse exchange's table is three (its `Rc`, the bucket
/// starts, the entries), an allgather's or an allreduce's two.
const PER_MEETING: usize = 4;

/// Allocator calls one more steady-state call makes — a run of three
/// calls over one of two — and the exchange rounds each call runs, for a
/// BT-IO write on `p` ranks through `mode` with collective buffer `cb`
/// (the default when `None`). The grid gives every domain ≈ 2.5 MB at
/// 16 and at 64 ranks, so the default buffer takes one round a call and
/// 1 MiB three.
fn steady_call(p: usize, mode: IoMode, cb: Option<u64>) -> (usize, u64) {
    let n = match p {
        16 => 100,
        64 => 162,
        _ => unreachable!("a grid with ≈ 2.5 MB domains"),
    };
    let run = |steps| {
        let mut cfg = RunConfig::paper(mode);
        if let Some(cb) = cb {
            cfg.info.set("cb_buffer_size", cb);
        }
        run_workload(BtIo::with_grid(p, n, steps), cfg)
            .profile_max
            .rounds
    };
    // First run: one-time state (the stack pool's entries for `p`
    // ranks, warm pools and caches).
    run(1);
    let second = calls(|| {
        run(2);
    });
    let mut rounds = 0;
    let third = calls(|| rounds = run(3));
    assert_eq!(
        third,
        calls(|| {
            run(3);
        }),
        "counts repeat exactly"
    );
    let call = third.checked_sub(second).expect("a third call allocates");
    (call, rounds / 3)
}

/// A steady-state call allocates per meeting, not per rank, round or
/// message: through `mode` (in `groups` groups), a call whose collective
/// buffer triples its rounds costs at most [`PER_MEETING`] allocator
/// calls more than the default call per meeting it adds (one size
/// exchange per added round and group) — at 16 ranks and at 64 alike,
/// so nothing in the difference grows with the rank count.
///
/// The ledger at the bound's writing: the collective adds 2 meetings
/// and 6 calls at either count; ParColl in 8 groups 16 meetings and 48
/// calls at 16 ranks, 59 at 64 (the OST queues grow differently). While
/// the rows, receive requests, arrivals, meeting inputs and results were
/// made per round and rank, the collective's added rounds cost 394 calls
/// at 16 ranks and 2 058 at 64, ParColl's 240 and 731.
fn more_rounds_cost_meetings_only(mode: IoMode, groups: usize) {
    for p in [16, 64] {
        let (default, rounds) = steady_call(p, mode, None);
        let (tripled, tripled_rounds) = steady_call(p, mode, Some(1 << 20));
        assert_eq!(
            tripled_rounds,
            3 * rounds,
            "{p} ranks: a 1 MiB buffer triples the rounds"
        );
        let added = groups * (tripled_rounds - rounds) as usize;
        let extra = tripled.saturating_sub(default);
        assert!(
            extra <= added * PER_MEETING,
            "{mode:?} on {p} ranks: {added} more meetings a call cost {extra} more \
             allocator calls ({default} -> {tripled}): a rank or a round allocates"
        );
    }
}

/// One representation of the piece list from `calc_my_req` to the last
/// round, counted as bytes: what one more collective call requests, per
/// piece it moves. Counts repeat exactly, so the bound is a property of
/// the code.
///
/// A list is one allocation: the lists split from one plan share one
/// table of runs, and each is an `Rc` of its stretch of it. While each
/// list was an `Rc` and a `Vec` of its runs, a 64-rank base BT-IO call's
/// 4 096 lists held 0.67 MB at the peak.
///
/// The ledger at the bound's writing: 0.65 B per piece per call, what
/// the call's meetings share (the range table, the size and count
/// exchanges' bucketed tables, the round count) and the first hit's
/// growth of the open's scratch. At 8.8 B all of it was per *message* —
/// one per (rank, aggregator) pair and round: the payloads' `Arc`s,
/// receive-request and size-row vectors (6.9 B once a data message
/// without a checksum trailer travelled as its bytes), which now live on
/// the open's `Memo` and the rendezvous's slots. The second
/// call is shaped like the first one, so it takes the first one's index
/// (`mpiio::twophase::Memo`): its plan is the first plan shifted, sharing
/// the runs, its request lists are the first call's `Arc`s, and each of
/// its windows' coverage is the one the first call merged — a synthetic
/// window is not even cut. At 22.3 B a second call still built its own: a
/// rank's 3 280 pieces are ~163 strided runs, its plan held them (32 B
/// each, ~1.6 B per piece), its ~64 request lists ~290 (40 B each with
/// its stream start, ~3.5 B per piece), and the aggregators' window cuts
/// and coverage merges the rest. At 33.3 B, 11 B more of the per-message
/// share was the mailbox's
/// per-key `VecDeque`, allocated by the delivery into an empty key and
/// freed by the receive that drained it; a mailbox's packet store keeps
/// its nodes. So what stood between the ledger and
/// ROADMAP's ≤ 24 B per piece-equivalent was that queue, not the message
/// count. Before runs: 87.8 (the plan's `Ext` 16 + the list's `Piece`
/// 24 + the coverage merge's two flat buffers 16 + ~9, plus the same
/// per-message ~20); before one list: 297 (`Ext` with regrowth, a piece
/// list with regrowth, an (offset, len) vector, the wire bytes, the
/// decoded pairs, a second piece list, its prefix array, one placement
/// per piece and the interval set's splices).
fn one_piece_list_per_rank_and_aggregator() {
    let steps_1 = requested(|| btio_collective(1));
    let steps_2 = requested(|| btio_collective(2));
    assert_eq!(
        steps_1,
        requested(|| btio_collective(1)),
        "counts repeat exactly"
    );
    assert_eq!(
        steps_2,
        requested(|| btio_collective(2)),
        "counts repeat exactly"
    );
    let per_piece = (steps_2 - steps_1) as f64 / btio_pieces() as f64;
    assert!(
        per_piece <= 0.75,
        "a collective call requests {per_piece:.2} B per piece: a call shaped like the \
         last rebuilt its index, a piece-by-piece representation of the access is back, \
         or a message, rank or round allocates again"
    );
}

/// The intermediate view is built from the plans' strided runs, gathered
/// by reference: a one-step ParColl BT-IO run, in steady state, requests
/// a few bytes per piece it moves, and holds little at its peak.
///
/// The ledger at the bound's writing: 6.4 B per piece requested, 0.81 MiB
/// peak. While the map expanded every rank's runs into pieces — each
/// encoded as 16 wire bytes, gathered, decoded and indexed at 24 B — the
/// same run requested 112.5 B per piece and peaked at 13.7 MiB.
fn the_intermediate_view_keeps_runs() {
    // First run: one-time state (the stack pool's entries, warm pools).
    btio_parcoll(1);
    let (peak, _) = ledger(|| btio_parcoll(1));
    let step = requested(|| btio_parcoll(1));
    assert_eq!(step, requested(|| btio_parcoll(1)), "counts repeat exactly");
    let per_piece = step as f64 / btio_pieces() as f64;
    assert!(
        per_piece <= 16.0,
        "a one-step ParColl BT-IO requests {per_piece:.1} B per piece: the intermediate \
         view expands, copies or encodes the pieces of the access"
    );
    assert!(
        peak < 2 * MIB,
        "a one-step ParColl BT-IO peaks at {:.1} MiB of live heap in steady state",
        peak as f64 / MIB as f64
    );
}

/// What a (rank, aggregator) pair costs at the peak of a steady-state
/// 64-rank BT-IO collective call: every rank aggregates and every rank's
/// access reaches every domain, so all 4 096 pairs exchange, and the
/// call's peak live heap over the pairs is ≤ 700 B.
///
/// The ledger at the bound's writing: 643 B per pair (2.63 MB). A
/// mailbox's memory follows the packets in flight to it — one store of
/// 80 B nodes, and 8 B of list ends per sender — and a piece list is one
/// allocation. While each pair a mailbox had heard from kept a boxed
/// shard and a packet queue that never shrank (about 344 B), and each
/// list was two allocations, the call peaked at 886 B per pair (3.63
/// MB).
fn btio_bytes_per_pair() {
    btio_collective(1);
    let (peak, _) = ledger(|| btio_collective(1));
    let per_pair = peak as f64 / (64.0 * 64.0);
    assert!(
        per_pair <= 700.0,
        "a 64-rank BT-IO collective call peaks at {per_pair:.0} B per (rank, aggregator) \
         pair: a pair holds a queue or a table again"
    );
}

/// Synthetic tile-io write of a square grid on `p` ranks through the
/// collective: every domain receives from the `√p` ranks of its band of
/// tile rows, so the (rank, aggregator) pairs per rank grow with `√p`.
/// Returns the peak live heap of its second run.
fn square_tile_write(p: usize) -> usize {
    let side = (p as f64).sqrt() as usize;
    assert_eq!(side * side, p);
    let tiles = TileIo {
        ntx: side,
        nty: side,
        tile_x: 256,
        tile_y: 192,
        elem: 64,
    };
    let run = || {
        let r = run_workload(tiles.clone(), RunConfig::paper(IoMode::Collective));
        assert_eq!(r.total_bytes, (p * 256 * 192 * 64) as u64);
    };
    run();
    ledger(run).0
}

/// A pair costs the same whatever the rank count: from 64 to 256 ranks
/// a square tile-io grid goes from 512 to 4 096 (rank, aggregator)
/// pairs, and its peak live heap grows by ≤ 600 B per added pair.
/// `bytes_per_rank_do_not_grow_with_p` keeps the pairs per rank fixed,
/// so it cannot see this term.
///
/// The ledger at the bound's writing: 337 KB → 2.18 MB, 515 B per
/// added pair; with a queue per pair it was 504 KB → 3.33 MB, 788 B.
fn tile_bytes_per_added_pair() {
    let (small, large) = (square_tile_write(64), square_tile_write(256));
    let added = (256 * 16 - 64 * 8) as f64;
    let per = (large as f64 - small as f64) / added;
    assert!(
        per <= 600.0,
        "square tile-io, 64 -> 256 ranks: {small} -> {large} B of peak live heap, \
         {per:.0} B per added (rank, aggregator) pair"
    );
}

/// Allocator calls one more steady-state BT-IO read call makes on `p`
/// ranks through the collective: a run of three write calls and their
/// read-back over one of two, less what the write call alone adds.
/// Counts repeat exactly.
fn steady_read_call(p: usize) -> usize {
    let n = match p {
        16 => 100,
        64 => 162,
        _ => unreachable!("a grid with ≈ 2.5 MB domains"),
    };
    let run = |steps, read_back| {
        let mut cfg = RunConfig::paper(IoMode::Collective);
        cfg.read_back = read_back;
        run_workload(BtIo::with_grid(p, n, steps), cfg);
    };
    run(1, true);
    let added = |read_back| calls(|| run(3, read_back)) - calls(|| run(2, read_back));
    let (both, write) = (added(true), added(false));
    assert_eq!(both, added(true), "counts repeat exactly");
    both - write
}

/// A steady-state read call allocates per meeting, not per window: a
/// served window's file parts, its layout and the `Rc` its clients share
/// are refilled in place on the open's scratch, and a list read moves its
/// runs to the file's offsets in scratch too.
///
/// The ledger at the bound's writing: 10 allocator calls per read call at
/// 16 ranks and at 64. While every window and serving rank copied its
/// runs, took a fresh vector of parts from the file system, laid them out
/// into another and shared that through a new `Rc`, a read call made 42
/// at 16 ranks and 138 at 64.
fn read_calls_reuse_their_windows() {
    for p in [16, 64] {
        let read = steady_read_call(p);
        assert!(
            read <= 16,
            "a steady-state {p}-rank BT-IO read call makes {read} allocator calls: \
             a read window allocates again"
        );
    }
}

/// Synthetic tile-io write on `p` ranks through `mode`, eight tiles to
/// a row of the file: every rank's access has the same shape whatever
/// `p` is, so what a rank holds should not depend on `p` either.
fn tile_write(p: usize, mode: IoMode) {
    let tiles = TileIo {
        ntx: 8,
        nty: p / 8,
        tile_x: 256,
        tile_y: 192,
        elem: 64,
    };
    let r = run_workload(tiles, RunConfig::paper(mode));
    assert_eq!(r.total_bytes, (p * 256 * 192 * 64) as u64);
}

/// Peak live heap per rank of [`tile_write`], from its second run: the
/// first one fills the stack pool's table and the warm pools, so the
/// peak reads what the ranks build. Fiber stacks are mappings of their
/// own, which no allocator sees (their pages are
/// `crates/workloads/tests/stack_pages.rs`'s).
fn per_rank_peak(p: usize, mode: IoMode) -> f64 {
    ledger(|| tile_write(p, mode));
    let (peak, _) = ledger(|| tile_write(p, mode));
    peak as f64 / p as f64
}

/// Bytes per rank do not grow with P. A table every rank agrees on is
/// held once, shared, and per-rank state is sized by what the rank
/// touches (DESIGN.md §9.3): a table sized by the communicator in every
/// rank is P² bytes, which is flat per rank at 64 ranks and dominant at
/// 512. With the six per-rank copies of communicator-sized tables — the
/// range allgather's clones, mailbox slot tables, `Grouping`s, world
/// member lists, the split's member copy, the aggregator hints — the
/// per-rank peak at 512 ranks was 3.33 × the one at 64 ranks through the
/// collective (9 225 → 30 750 B) and 4.37 × through ParColl (9 048 →
/// 39 508 B); shared, it is 1.01 × (8 351 → 8 460 B) and 1.06 × (8 558
/// → 9 091 B).
fn bytes_per_rank_do_not_grow_with_p() {
    for (name, mode) in [
        ("collective", IoMode::Collective),
        ("parcoll", IoMode::Parcoll { groups: 8 }),
    ] {
        let small = per_rank_peak(64, mode);
        let large = per_rank_peak(512, mode);
        assert!(
            large <= 1.25 * small,
            "{name}: {large:.0} B per rank at 512 ranks, {small:.0} B at 64 ({:.2} ×): \
             a rank holds a table sized by its communicator",
            large / small
        );
    }
}

#[test]
fn heap_follows_real_bytes_and_unique_metadata() {
    // Fiber stacks are mappings of their own, not heap: whatever their
    // size, the ledger reads data structures only.
    real_bytes_are_held_once();
    // Bounds sit ≥ 4× below what the per-rank designs peaked at (204 MiB
    // and 335 MiB, measured with this file on the commit before the
    // rules). First-run peaks with this file: restart 6.9 MiB; btio
    // 1.4 MiB, 14.3 MiB while the intermediate view's map held every
    // piece (24 B each, plus the encoded, gathered and decoded lists);
    // btio collective 3.6 MiB. The baseline collective peaked at 38 MiB
    // while every aggregator held pairs, lists, placements and an
    // interval set per window.
    for (name, run, bound) in [
        ("restart", restart as fn(), 48 * MIB),
        ("btio", (|| btio_parcoll(2)) as fn(), 64 * MIB),
        ("btio collective", (|| btio_collective(2)) as fn(), 32 * MIB),
    ] {
        // First run: also pays one-time state (thread-local pools, lazy
        // statics), so its peak is the conservative one.
        let (peak, live_first) = ledger(run);
        assert!(
            peak < bound,
            "{name}: peak live heap {:.1} MiB exceeds the {} MiB bound",
            peak as f64 / MIB as f64,
            bound / MIB
        );
        // Second run: whatever the first left behind is steady state, not
        // a leak — live heap returns to the same level.
        let (_, live_second) = ledger(run);
        assert!(
            live_second.abs_diff(live_first) <= 64 << 10,
            "{name}: live heap moved {live_first} -> {live_second} B across identical runs"
        );
    }
    one_piece_list_per_rank_and_aggregator();
    messages_allocate_nothing();
    more_rounds_cost_meetings_only(IoMode::Collective, 1);
    more_rounds_cost_meetings_only(IoMode::Parcoll { groups: 8 }, 8);
    the_intermediate_view_keeps_runs();
    bytes_per_rank_do_not_grow_with_p();
    btio_bytes_per_pair();
    tile_bytes_per_added_pair();
    read_calls_reuse_their_windows();
}
