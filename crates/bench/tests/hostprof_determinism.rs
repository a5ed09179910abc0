//! The hostprof determinism contract: arming the host profiler must not
//! move a single byte of any virtual-time artifact. Host timers read
//! `Instant`, never the virtual clock, and publish only through
//! `host::collect` — so traces, digests and bench rows have to come out
//! byte-identical with profiling on or off (the PR rule that host
//! timing never enters deterministic artifacts, extended to hostprof).

use bench::explain::run_scenario;
use bench::rows_to_json;
use simtrace::{chrome_trace_json, digest_json, metrics_json, TraceSink};
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

/// The explain scenario's gate artifacts: row JSON + digest JSON.
fn scenario_artifacts() -> (String, String) {
    let (rows, d) = run_scenario("hostprof-ab", None);
    (rows_to_json(&rows), digest_json(&d))
}

/// A small traced ParColl run's raw trace artifacts: Perfetto JSON +
/// metrics JSON (the digest above is derived; this pins the trace
/// bytes themselves).
fn traced_artifacts() -> (String, String) {
    let sink = TraceSink::enabled();
    let mut cfg = RunConfig::paper(IoMode::Parcoll { groups: 2 });
    cfg.fs = simfs::FsConfig::tiny();
    cfg.info.set("cb_nodes", 2i64);
    cfg.info.set("cb_buffer_size", 128i64);
    cfg.trace = sink.clone();
    run_workload(TileIo::tiny(8), cfg);
    let trace = sink.finish();
    (chrome_trace_json(&trace), metrics_json(&trace))
}

#[test]
fn virtual_artifacts_byte_identical_with_hostprof_on_and_off() {
    // Profiler disarmed: the reference artifacts.
    simtrace::host::set_enabled(false);
    let off_scenario = scenario_artifacts();
    let off_trace = traced_artifacts();

    // Profiler armed, with a root scope so every probe path is live
    // (fiber slices, mailboxes, pack/unpack, trace recording).
    simtrace::host::reset();
    simtrace::host::set_enabled(true);
    let on_scenario = {
        let _root = simtrace::host::scope(simtrace::host::Site::Scenario);
        scenario_artifacts()
    };
    let on_trace = {
        let _root = simtrace::host::scope(simtrace::host::Site::Scenario);
        traced_artifacts()
    };
    simtrace::host::set_enabled(false);
    let report = simtrace::host::collect();

    assert_eq!(
        off_scenario.0, on_scenario.0,
        "bench rows changed with hostprof armed"
    );
    assert_eq!(
        off_scenario.1, on_scenario.1,
        "run digest changed with hostprof armed"
    );
    assert_eq!(
        off_trace.0, on_trace.0,
        "Perfetto trace changed with hostprof armed"
    );
    assert_eq!(
        off_trace.1, on_trace.1,
        "metrics JSON changed with hostprof armed"
    );

    // The comparison is only meaningful if the probes actually fired:
    // the armed runs must have sampled real simulator sites (unless the
    // probes are compiled out entirely).
    if cfg!(not(feature = "hostprof-off")) {
        assert!(
            report
                .paths
                .iter()
                .any(|p| p.leaf() != simtrace::host::Site::Scenario),
            "armed run recorded no probe samples — the A/B proved nothing"
        );
    }
}
