//! Determinism across executors at the workload level (DESIGN.md §9):
//! virtual time is a pure function of the run configuration, so the
//! same workload must produce bitwise-identical results — virtual
//! seconds, trace JSON, metrics JSON — whether the cluster runs on the
//! fiber scheduler or on the one-OS-thread-per-rank oracle. Verify-mode
//! runs additionally check the file image byte-for-byte inside the run,
//! so agreement here covers the stored bytes too.
//!
//! The executor is a process-global choice ([`simnet::set_executor`]),
//! so every test in this file serializes on one mutex and restores the
//! default on exit.

use simnet::{Executor, FaultPlan};
use simtrace::{chrome_trace_json, metrics_json, TraceSink};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

/// Serialize tests (process-global executor state) and restore the
/// fiber default when the guard drops, even on panic.
struct ExecutorGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn executor_lock() -> ExecutorGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    ExecutorGuard(guard)
}

impl Drop for ExecutorGuard {
    fn drop(&mut self) {
        simnet::set_executor(Executor::Fibers);
    }
}

/// One traced verify-mode run: 16 ranks, several exchange rounds per
/// call, byte-exact read-back inside. Returns every observable that must
/// be executor-independent.
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

/// Run `make` under fibers, then under the thread executor, asserting
/// bitwise agreement.
fn assert_executor_invariant<T, F>(what: &str, make: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    simnet::set_executor(Executor::Fibers);
    let baseline = make();
    simnet::set_executor(Executor::Threads);
    assert_eq!(baseline, make(), "{what}: thread executor diverged");
}

#[test]
fn fibers_and_threads_agree_on_virtual_time() {
    let _guard = executor_lock();
    // Baseline collective: four aggregators exchanging concurrently.
    assert_executor_invariant("collective", || traced_run(IoMode::Collective, None));
    // ParColl with four subgroups writing concurrently.
    assert_executor_invariant("parcoll", || {
        traced_run(IoMode::Parcoll { groups: 4 }, None)
    });
}

#[test]
fn chaos_run_matches_across_executors() {
    let _guard = executor_lock();
    // Aggregator crash after the first write round: the failover replay
    // (re-dissemination, cursor rebuild, adopted domains) crosses
    // subgroup boundaries. Verify mode still checks the file image
    // byte-for-byte inside each run.
    let plan = || Some(Arc::new(FaultPlan::new(0xFEED).aggregator_crash(0, 1)));
    assert_executor_invariant("chaos parcoll", || {
        traced_run(IoMode::Parcoll { groups: 4 }, plan())
    });
}
