//! The self-explaining-regression pipeline end to end on real runs:
//!
//! * run digests and time-series folds are byte-reproducible across
//!   identical runs (they sit behind equality gates in CI, so f64 fold
//!   order must be pinned, not approximately stable);
//! * critical-path analysis stays exact on *degraded* runs: with an
//!   aggregator crash mid-call, the recovery detour is attributed on
//!   the path and the path still tiles the wall bitwise.

use simtrace::{
    critical_path, digest, digest_from_json, digest_json, series_from_trace, SeriesConfig,
    TraceSink,
};
use std::sync::Arc;
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

/// A multi-round partitioned write: small collective buffer → several
/// exchange rounds per call, so there is round structure to attribute.
fn run_config(sink: TraceSink) -> RunConfig {
    let mut cfg = RunConfig::paper(IoMode::Parcoll { groups: 4 });
    cfg.info.set("cb_nodes", 4i64);
    cfg.info.set("cb_buffer_size", 512i64);
    cfg.trace = sink;
    cfg
}

/// Larger tiles than `TileIo::tiny` so each collective call runs many
/// exchange rounds.
fn workload() -> TileIo {
    TileIo {
        ntx: 4,
        nty: 4,
        tile_x: 32,
        tile_y: 16,
        elem: 8,
    }
}

fn traced_run() -> simtrace::Trace {
    let sink = TraceSink::enabled();
    run_workload(workload(), run_config(sink.clone()));
    sink.finish()
}

#[test]
fn digest_and_series_are_byte_reproducible() {
    let a = traced_run();
    let b = traced_run();
    let da = digest(&a, "run").expect("digest");
    let db = digest(&b, "run").expect("digest");
    assert_eq!(
        digest_json(&da),
        digest_json(&db),
        "run digests must be byte-identical across identical runs"
    );
    // And the JSON round trip is lossless: reload and re-serialize.
    let reloaded = digest_from_json(&digest_json(&da)).expect("digest parses back");
    assert_eq!(digest_json(&reloaded), digest_json(&da));

    let cfg = SeriesConfig::new(100.0);
    assert_eq!(
        series_from_trace(&a, cfg),
        series_from_trace(&b, cfg),
        "time-series folds must be identical across identical runs"
    );
}

#[test]
fn degraded_run_critical_path_stays_exact() {
    let run = || {
        let sink = TraceSink::enabled();
        // Collective mode: rank 0 is an aggregator under block mapping,
        // and the multi-round buffer gives round 1 a chance to exist
        // before the crash detour fires.
        let mut cfg = run_config(sink.clone());
        cfg.mode = IoMode::Collective;
        cfg.faults = Some(Arc::new(
            simnet::FaultPlan::new(0xFEED).aggregator_crash(0, 1),
        ));
        run_workload(workload(), cfg);
        sink.finish()
    };
    let trace = run();

    // The crash must have been exercised: a recovery phase span exists.
    let has_recovery = trace.tracks.iter().any(|t| {
        t.events.iter().any(|e| {
            matches!(e, simtrace::Event::Span { cat, name, .. }
                if *cat == "phase" && name == "recovery")
        })
    });
    assert!(has_recovery, "aggregator crash should leave recovery spans");

    let path = critical_path(&trace).expect("degraded trace still yields a path");
    // The exactness contract survives degradation: path segments tile
    // the wall bitwise, not approximately.
    assert_eq!(
        path.length_us().to_bits(),
        path.wall_us.to_bits(),
        "critical path must tile the degraded run's wall exactly"
    );
    // The recovery detour is visible in the path's phase attribution
    // (the detour serializes the surviving aggregators, so the path
    // crosses it).
    let breakdown = path.breakdown();
    assert!(
        breakdown.iter().any(|(phase, us)| phase == "recovery" && *us > 0.0),
        "recovery time should be attributed on the critical path, got {breakdown:?}"
    );

    // And the degraded digest is as reproducible as the healthy one.
    let trace2 = run();
    assert_eq!(
        digest_json(&digest(&trace, "crash").unwrap()),
        digest_json(&digest(&trace2, "crash").unwrap()),
        "degraded-run digests must be byte-identical across identical runs"
    );
}
