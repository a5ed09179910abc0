//! Host cost of blocked ranks at the workload level (DESIGN.md §9): the
//! fiber scheduler resumes a rank because something happened to it, not
//! because a scheduler cycle came round, so the number of fiber slices
//! a run takes is bounded by the number of events in it — OST requests,
//! point-to-point sends and collective entries — not by ranks × cycles.
//!
//! Two more counts follow from the same rule. The run queue, which is
//! also the admission gate, does at most two operations per event — a
//! push when a rank becomes runnable or requests, a pop when it is
//! resumed — not a walk over the ranks parked in a collective or a
//! subgroup. And
//! a round's size exchange touches the (rank, aggregator) pairs that
//! exchange something plus one slot per rank, not ranks squared.

use simnet::FaultPlan;
use simtrace::{host, TraceSink};
use std::sync::Arc;
use workloads::flashio::FlashIo;
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;
use workloads::Workload;

/// The value of host counter `name` in `report`.
fn counter(report: &host::Report, name: &str) -> u64 {
    let found = report.counters.iter().find(|(n, _)| *n == name);
    found.unwrap_or_else(|| panic!("no host counter {name}")).1
}

/// Run `workload` traced and profiled; return the host report, the
/// run's events (OST requests, sends and collective entries, plus one
/// per rank) and its OST requests.
fn profile<W: Workload>(workload: W, mode: IoMode) -> (host::Report, u64, u64) {
    let ranks = workload.nprocs() as u64;
    let sink = TraceSink::enabled();
    let mut cfg = RunConfig::paper(mode);
    cfg.trace = sink.clone();
    host::reset();
    host::set_enabled(true);
    let result = run_workload(workload, cfg);
    host::set_enabled(false);
    let report = host::collect();
    let slices = report.samples(host::Site::FiberRun);
    let trace = sink.finish();
    let sends: u64 = trace
        .tracks
        .iter()
        .filter_map(|t| t.counters.get("p2p_sends"))
        .sum();
    let entries: u64 = simtrace::collective_ops(&trace)
        .iter()
        .map(|op| op.participants)
        .sum();
    let events = result.fs_stats.total_requests + sends + entries;
    assert!(
        slices >= ranks,
        "every rank runs at least once ({slices} slices)"
    );
    (report, events + ranks, result.fs_stats.total_requests)
}

#[test]
fn fiber_slices_are_bounded_by_events_not_by_ranks_times_cycles() {
    // Independent I/O: every rank queues at the admission gate for
    // every request. Polling resumed all 64 ranks per request.
    let (report, events, _) = profile(FlashIo::checkpoint(64), IoMode::Independent);
    let slices = report.samples(host::Site::FiberRun);
    assert!(
        slices <= 3 * events,
        "flash independent: {slices} slices for {events} events"
    );
    // ParColl: eight subgroups of eight, each with its own
    // collectives and exchange, sharing the OSTs.
    let (report, events, _) = profile(TileIo::paper(64), IoMode::Parcoll { groups: 8 });
    let slices = report.samples(host::Site::FiberRun);
    assert!(
        slices <= 3 * events,
        "tile-io parcoll-8: {slices} slices for {events} events"
    );
}

#[test]
fn run_queue_steps_are_at_most_two_per_event_whatever_the_ranks() {
    // A push answers to an event — a send waking its receiver, a
    // meeting completing on a rank's entry, a request queued behind
    // the gate, a rank's start — and a queued fiber leaves the queue
    // once: a push and a pop, whoever is parked and however many ranks
    // there are. An admission is a pop of the requests' heap, one per
    // request that waited. At the time of writing: 1.39 steps per event
    // on the 256-rank collective tile-io write, 1.38 on ParColl-32, 1.93
    // on 64-rank independent Flash-IO, where nearly every request
    // waits. A gate that walked the parked ranks would pay ≈ 2·P steps
    // per OST request.
    let check = |what: &str, (report, events, requests): (host::Report, u64, u64)| {
        let steps = counter(&report, "runq_steps");
        let admits = counter(&report, "runq_admits");
        assert!(
            steps > 0 && admits > 0,
            "{what}: the run queue was not counted"
        );
        assert!(
            steps <= 2 * events,
            "{what}: {steps} run-queue steps for {events} events"
        );
        assert!(
            admits <= requests,
            "{what}: {admits} admissions for {requests} OST requests"
        );
    };
    const P: usize = 256;
    check(
        "tile-io collective",
        profile(TileIo::paper(P), IoMode::Collective),
    );
    let parcoll = IoMode::Parcoll { groups: 32 };
    check("tile-io ParColl-32", profile(TileIo::paper(P), parcoll));
    check(
        "flash independent",
        profile(FlashIo::checkpoint(64), IoMode::Independent),
    );
}

#[test]
fn twophase_size_exchange_visits_follow_pairs_not_ranks_squared() {
    // 256 ranks in a 4 × 64 grid of small tiles, 128 aggregators, a
    // collective buffer small enough for several rounds. A rank's tile
    // reaches into two or three of the 128 file domains, so a round's
    // exchange has a few hundred (rank, aggregator) pairs to look at; a
    // dense exchange looked at 256 × 256 = 65 536 slots per round.
    const P: u64 = 256;
    let tiles = TileIo {
        tile_x: 64,
        tile_y: 48,
        ..TileIo::paper(P as usize)
    };
    let mut cfg = RunConfig::paper(IoMode::Collective);
    cfg.info.set("cb_nodes", 128i64);
    cfg.info.set("cb_buffer_size", 64i64 << 10);
    host::reset();
    host::set_enabled(true);
    let result = run_workload(tiles, cfg);
    host::set_enabled(false);
    let rounds = result.profile_max.rounds;
    assert!(
        rounds >= 4,
        "only {rounds} rounds: nothing to amortize over"
    );
    let visited = counter(&host::collect(), "size_exchange_elems");
    // Per exchange (every round, plus the count exchange of setup): one
    // slot per rank at the meeting point, and each pair at most twice —
    // once where the aggregator sizes its row, once where it is
    // bucketed.
    assert!(visited > 0, "the exchange was not counted");
    assert!(
        visited <= (rounds + 1) * 8 * P,
        "{visited} size-exchange elements over {rounds} rounds of {P} ranks"
    );
}

#[test]
fn a_repair_receive_with_a_runnable_sender_is_not_a_deadlock() {
    // Every exchange piece arrives corrupt, so every receiver sits in
    // the trailer-repair loop receiving the sender's clean copy while
    // the sender is still on its way to posting it. Nothing excuses
    // that wait to the deadlock detector any more, and nothing needs
    // to: a parked receiver whose sender is runnable is not a deadlock.
    let sink = TraceSink::enabled();
    let mut cfg = RunConfig::verify(IoMode::Parcoll { groups: 2 });
    cfg.info.set("cb_nodes", 4i64);
    cfg.info.set("cb_buffer_size", 128i64);
    cfg.integrity = true;
    cfg.trace = sink.clone();
    cfg.faults = Some(Arc::new(
        FaultPlan::new(0xF00D).msg_corrupt(1.0, None, None),
    ));
    // Verify mode asserts the read-back byte-exact internally.
    run_workload(TileIo::tiny(16), cfg);
    let repaired: u64 = sink
        .finish()
        .tracks
        .iter()
        .filter_map(|t| t.counters.get("pieces_repaired"))
        .sum();
    assert!(repaired > 0, "the plan repaired nothing");
}
