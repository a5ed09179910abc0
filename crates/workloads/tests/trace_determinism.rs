//! Determinism of the observability pipeline: two identical
//! `run_cluster` runs must produce byte-identical trace and metrics
//! JSON — the virtual-clock contract (DESIGN.md §4) makes a run's
//! timeline a function of its configuration, never of host scheduling.
//!
//! Since the `simnet::progress` admission gate landed, the contract
//! covers concurrent writers too: OST requests are admitted in
//! `(virtual arrival, rank)` order regardless of host thread timing, so
//! multi-aggregator (`cb_nodes > 1`) and ParColl partitioned runs are
//! byte-reproducible, not just the single-aggregator case.

use simtrace::{chrome_trace_json, metrics_json, TraceSink};
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

fn traced_run(mode: IoMode, cb_nodes: Option<u64>) -> (String, String) {
    let sink = TraceSink::enabled();
    let mut cfg = RunConfig::paper(mode);
    if let Some(n) = cb_nodes {
        cfg.info.set("cb_nodes", n as i64);
    }
    cfg.trace = sink.clone();
    run_workload(TileIo::tiny(16), cfg);
    let trace = sink.finish();
    (chrome_trace_json(&trace), metrics_json(&trace))
}

fn assert_reproducible(mode: IoMode, cb_nodes: Option<u64>) {
    let (trace_a, metrics_a) = traced_run(mode, cb_nodes);
    let (trace_b, metrics_b) = traced_run(mode, cb_nodes);
    assert!(
        trace_a.len() > 1000,
        "a 16-rank collective write should produce a substantial trace"
    );
    assert_eq!(trace_a, trace_b, "trace JSON must be byte-identical");
    assert_eq!(metrics_a, metrics_b, "metrics JSON must be byte-identical");
}

#[test]
fn identical_tileio_runs_produce_identical_artifacts() {
    assert_reproducible(IoMode::Collective, Some(1));
}

#[test]
fn concurrent_aggregators_are_reproducible() {
    // Four aggregators write concurrently: the admission gate must order
    // their OST requests in virtual time, independent of host scheduling.
    assert_reproducible(IoMode::Collective, Some(4));
}

#[test]
fn parcoll_concurrent_groups_are_reproducible() {
    // ParColl partitions the ranks into groups whose aggregators all
    // write at once — the heaviest concurrent-writer pattern we model.
    assert_reproducible(IoMode::Parcoll { groups: 4 }, None);
}
