//! Determinism across host orders at the workload level (DESIGN.md §9):
//! virtual time is a pure function of the run configuration, so the
//! same workload must produce bitwise-identical results — virtual
//! seconds, trace JSON, metrics JSON — whether the scheduler resumes
//! fibers in its default order or a queued fiber drawn at random (the
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
use workloads::flashio::FlashIo;
use workloads::restart::{run_restart, Restart};
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

/// Every observable of one traced verify-mode run that must be
/// independent of the pop order: the virtual seconds `run` returns and
/// the trace's JSON. The run gets four aggregators and a collective
/// buffer small enough for several exchange rounds per call; verify
/// mode checks its read-back byte-exact inside.
fn traced(
    mode: IoMode,
    faults: Option<Arc<FaultPlan>>,
    run: impl FnOnce(RunConfig) -> Vec<f64>,
) -> (Vec<f64>, String, String) {
    let sink = TraceSink::enabled();
    let mut cfg = RunConfig::verify(mode);
    cfg.info.set("cb_nodes", 4i64);
    cfg.info.set("cb_buffer_size", 128i64);
    cfg.trace = sink.clone();
    cfg.faults = faults;
    let seconds = run(cfg);
    let trace = sink.finish();
    (seconds, chrome_trace_json(&trace), metrics_json(&trace))
}

/// [`traced`] over a 16-rank tile-io write and read-back.
fn traced_run(mode: IoMode, faults: Option<Arc<FaultPlan>>) -> (Vec<f64>, String, String) {
    traced(mode, faults, |cfg| {
        vec![run_workload(TileIo::tiny(16), cfg).write_seconds]
    })
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

#[test]
fn independent_io_matches_across_pop_orders() {
    // Flash-IO without collectives: every request of every rank waits
    // at the admission gate, and the gate, not a meeting, is what
    // orders the ranks' writes and reads on the shared OSTs.
    assert_pop_order_invariant("flash independent", || {
        traced(IoMode::Independent, None, |cfg| {
            let r = run_workload(FlashIo::tiny(16), cfg);
            vec![
                r.write_seconds,
                r.read_seconds.expect("verify mode reads back"),
            ]
        })
    });
}

#[test]
fn restart_read_matches_across_pop_orders() {
    // A checkpoint, then a hole-dense collective read through a narrower
    // view: the read direction of the two-phase engine and of ParColl.
    assert_pop_order_invariant("restart parcoll", || {
        traced(IoMode::Parcoll { groups: 4 }, None, |cfg| {
            let r = run_restart(Restart::tiny(16), cfg);
            vec![r.write_seconds, r.read_seconds]
        })
    });
}
