//! The collective index memo (`mpiio::twophase::Memo`, DESIGN.md §9.4)
//! by its host counters: once per rank per collective call, `shape_hit`
//! when the call took the last call's request lists, domain and window
//! coverage as they were, `shape_miss` when it rebuilt them. The counters
//! are the calling thread's, and each test runs on a thread of its own.

use simnet::FaultPlan;
use simtrace::host;
use std::sync::Arc;
use workloads::btio::BtIo;
use workloads::runner::{run_workload, IoMode, RunConfig, RunResult};

/// `(shape_hit, shape_miss)` over one run of `cfg`'s BT-IO write.
fn counted(w: BtIo, cfg: RunConfig) -> ((u64, u64), RunResult) {
    host::reset();
    host::set_enabled(true);
    let r = run_workload(w, cfg);
    host::set_enabled(false);
    let report = host::collect();
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|c| c.0 == name)
            .map_or(0, |c| c.1)
    };
    ((counter("shape_hit"), counter("shape_miss")), r)
}

/// BT-IO on 16 ranks, `STEPS` checkpoint steps.
const STEPS: usize = 4;

fn bt() -> BtIo {
    BtIo::with_grid(16, 24, STEPS)
}

#[test]
fn a_repeated_collective_rebuilds_nothing() {
    // The baseline's checkpoint loop: the first call builds the index,
    // every later step is the same shape one step further on.
    let (counts, _) = counted(bt(), RunConfig::paper(IoMode::Collective));
    assert_eq!(counts, (16 * 3, 16), "(shape_hit, shape_miss), baseline");
    // BT-IO class C on 64 ranks, 40 steps: the benchmark's `btio_c_64`
    // base leg.
    let class_c = BtIo::with_grid(64, 162, 40);
    let (counts, _) = counted(class_c, RunConfig::paper(IoMode::Collective));
    assert_eq!(counts, (64 * 39, 64), "(shape_hit, shape_miss), class C");

    // ParColl's intermediate view: the subgroups' logical plans are one
    // run each, and hit within their subgroup from the second call on.
    let (counts, _) = counted(bt(), RunConfig::paper(IoMode::Parcoll { groups: 4 }));
    assert_eq!(
        counts,
        (16 * 3, 16),
        "(shape_hit, shape_miss), intermediate view"
    );
}

#[test]
fn an_aggregator_crash_rebuilds_the_call_after_it_once() {
    // An aggregator crash mid-call degrades the configuration of every
    // later call: the call after the crash rebuilds, the one after that
    // hits again.
    let small = |faults: Option<FaultPlan>| {
        let mut cfg = RunConfig::paper(IoMode::Collective);
        cfg.info.set("cb_nodes", 4i64);
        cfg.info.set("cb_buffer_size", 4096i64);
        cfg.faults = faults.map(Arc::new);
        cfg
    };
    let (counts, r) = counted(bt(), small(None));
    assert_eq!(
        counts,
        (16 * 3, 16),
        "(shape_hit, shape_miss), four aggregators"
    );
    let rounds = r.profile_max.rounds / STEPS as u64;
    assert!(rounds >= 2, "several rounds per call, not {rounds}");
    // The write round counter runs across calls: crash in call 1.
    let crash = FaultPlan::new(7).aggregator_crash(2, rounds + rounds / 2);
    let (counts, _) = counted(bt(), small(Some(crash)));
    assert_eq!(
        counts,
        (16 * 2, 16 * 2),
        "(shape_hit, shape_miss), crash in call 1"
    );
}
