//! Determinism across host orders at the workload level (DESIGN.md §9):
//! virtual time is a pure function of the run configuration, so the
//! same workload must produce bitwise-identical results — virtual
//! seconds, trace JSON, metrics JSON — whether the scheduler resumes the
//! minimum key first or a runnable fiber drawn at random (the
//! shuffled-pop oracle). Verify-mode runs additionally check the file
//! image byte-for-byte inside the run, so agreement here covers the
//! stored bytes too.
//!
//! The pop order is the calling thread's choice
//! ([`simnet::set_pop_order`]), and each test runs on a thread of its
//! own.

use simnet::{FaultPlan, PopOrder};
use simtrace::{chrome_trace_json, metrics_json, TraceSink};
use std::sync::Arc;
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

/// One traced verify-mode run: 16 ranks, several exchange rounds per
/// call, byte-exact read-back inside. Returns every observable that must
/// be independent of the pop order.
fn traced_run(mode: IoMode, faults: Option<Arc<FaultPlan>>) -> (f64, String, String) {
    let sink = TraceSink::enabled();
    let mut cfg = RunConfig::verify(mode);
    cfg.info.set("cb_nodes", 4i64);
    cfg.info.set("cb_buffer_size", 128i64);
    cfg.trace = sink.clone();
    cfg.faults = faults;
    let r = run_workload(TileIo::tiny(16), cfg);
    let trace = sink.finish();
    (r.write_seconds, chrome_trace_json(&trace), metrics_json(&trace))
}

/// Run `make` in the default pop order, then under three shuffled pop
/// orders, asserting bitwise agreement.
fn assert_pop_order_invariant<T, F>(what: &str, make: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    simnet::set_pop_order(PopOrder::Fixed);
    let baseline = make();
    for seed in 1..=3 {
        simnet::set_pop_order(PopOrder::Shuffled(seed));
        assert_eq!(baseline, make(), "{what}: pop order seed {seed} diverged");
    }
}

#[test]
fn every_pop_order_agrees_on_virtual_time() {
    // Baseline collective: four aggregators exchanging concurrently.
    assert_pop_order_invariant("collective", || traced_run(IoMode::Collective, None));
    // ParColl with four subgroups writing concurrently.
    assert_pop_order_invariant("parcoll", || {
        traced_run(IoMode::Parcoll { groups: 4 }, None)
    });
}

#[test]
fn chaos_run_matches_across_pop_orders() {
    // Aggregator crash after the first write round: the failover replay
    // (re-dissemination, cursor rebuild, adopted domains) crosses
    // subgroup boundaries. Verify mode still checks the file image
    // byte-for-byte inside each run.
    let plan = || Some(Arc::new(FaultPlan::new(0xFEED).aggregator_crash(0, 1)));
    assert_pop_order_invariant("chaos parcoll", || {
        traced_run(IoMode::Parcoll { groups: 4 }, plan())
    });
}
