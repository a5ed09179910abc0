//! The self-explaining half of the regression gate: a fixed traced
//! scenario, its [`RunDigest`] sidecar, and the baseline-vs-HEAD diff
//! that turns a tripped gate into a named root cause.
//!
//! The scenario is deliberately small and fully deterministic
//! (MPI-Tile-IO on the 4-OST jitter-free test file system, partitioned
//! collective I/O, a collective buffer small enough to force several
//! exchange rounds). `explain` emits two artifacts side by side:
//!
//! * [`SCENARIO_FILE`] — ordinary bench [`Row`]s (bandwidth plus phase
//!   seconds), which the `regress` row gate compares point-by-point;
//! * [`DIGEST_FILE`] — the run's [`RunDigest`], one table of totals
//!   under stable keys (critical-path phases, per-round charges, per-OST
//!   round-binned service, collective waits, rank busy time). The digest
//!   is a JSON *object*, so the row gate skips it; only the differ reads
//!   it.
//!
//! When the gate trips, [`explain_dirs`] aligns the two digests by
//! stable keys and ranks the deltas — "io grew 11.8% on ost 6 in
//! rounds 3-5" — without anyone re-running the baseline commit.

use crate::table::{rows_to_json, Row};
use simnet::{FaultPlan, SimTime};
use simtrace::{diff, digest, digest_from_json, digest_json, DiffReport, RunDigest, TraceSink};
use std::path::Path;
use std::sync::Arc;
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

/// Row document the regress gate compares (lives beside the figure
/// rows in the baseline directory).
pub const SCENARIO_FILE: &str = "explain_scenario.json";
/// Digest sidecar the differ reads (invisible to the row gate).
pub const DIGEST_FILE: &str = "explain_digest.json";
/// Human-readable report written next to the fresh results on failure.
pub const REPORT_TEXT: &str = "explain_report.txt";
/// Machine-readable report written next to the fresh results on failure.
pub const REPORT_JSON: &str = "explain_report.json";

/// Parse a fault spec of the form `ost_slow:<ost>:<factor>[:<from_ms>:<until_ms>]`
/// (`<ost>` = index or `any`; the window defaults to the whole run)
/// into a seeded [`FaultPlan`]. Used by the `explain` binary's
/// `--fault` flag and the gate's own tests to perturb the scenario.
pub fn parse_fault(spec: &str) -> Result<Arc<FaultPlan>, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["ost_slow", ost, factor, rest @ ..] => {
            let ost = if *ost == "any" {
                None
            } else {
                Some(ost.parse::<usize>().map_err(|e| format!("bad OST index {ost:?}: {e}"))?)
            };
            let factor: f64 = factor.parse().map_err(|e| format!("bad factor {factor:?}: {e}"))?;
            let (from, until) = match rest {
                [] => (SimTime::ZERO, SimTime::secs(1e9)),
                [from_ms, until_ms] => (
                    SimTime::millis(from_ms.parse().map_err(|e| format!("bad from {from_ms:?}: {e}"))?),
                    SimTime::millis(until_ms.parse().map_err(|e| format!("bad until {until_ms:?}: {e}"))?),
                ),
                _ => return Err(format!("bad ost_slow spec {spec:?}: want ost_slow:OST:FACTOR[:FROM_MS:UNTIL_MS]")),
            };
            Ok(Arc::new(FaultPlan::new(0xE79).ost_slow(ost, factor, from, until)))
        }
        _ => Err(format!(
            "unknown fault spec {spec:?}: supported form is ost_slow:OST:FACTOR[:FROM_MS:UNTIL_MS]"
        )),
    }
}

/// Run the fixed explain scenario, optionally perturbed, and reduce it
/// to gate rows plus the diffable digest labelled `label`.
pub fn run_scenario(label: &str, faults: Option<Arc<FaultPlan>>) -> (Vec<Row>, RunDigest) {
    let nprocs = 16;
    let sink = TraceSink::enabled();
    let mut cfg = RunConfig::paper(IoMode::Parcoll { groups: 4 });
    // The 4-OST jitter-free test file system keeps the scenario cheap
    // and makes single-OST perturbations unmistakable in the digest.
    cfg.fs = simfs::FsConfig::tiny();
    // A small collective buffer forces several exchange rounds per
    // call, so the differ has round structure to attribute into.
    cfg.info.set("cb_nodes", 4i64);
    cfg.info.set("cb_buffer_size", 128i64);
    cfg.trace = sink.clone();
    cfg.faults = faults;
    let r = run_workload(TileIo::tiny(nprocs), cfg);
    let trace = sink.finish();
    let d = digest(&trace, label).expect("traced run yields a digest");

    let rows = vec![Row::new("explain-scenario", nprocs as f64, r.write_mbps, "MB/s")
        .with("wall_s", r.write_seconds)
        .with("sync_s", r.profile_avg.sync.as_secs())
        .with("p2p_s", r.profile_avg.p2p.as_secs())
        .with("io_s", r.profile_avg.io.as_secs())
        .with("local_s", r.profile_avg.local.as_secs())];
    (rows, d)
}

/// Write the scenario rows and digest sidecar into `dir`.
pub fn write_outputs(dir: &Path, rows: &[Row], d: &RunDigest) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(SCENARIO_FILE), rows_to_json(rows))?;
    std::fs::write(dir.join(DIGEST_FILE), digest_json(d))?;
    Ok(())
}

fn load_digest(dir: &Path) -> Result<RunDigest, String> {
    let path = dir.join(DIGEST_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    digest_from_json(&text).ok_or_else(|| format!("{} is not a run digest", path.display()))
}

/// Diff the digest sidecars of two result directories: `baseline`'s
/// committed digest against `fresh`'s regenerated one.
pub fn explain_dirs(fresh: &Path, baseline: &Path) -> Result<DiffReport, String> {
    Ok(diff::diff(&load_digest(baseline)?, &load_digest(fresh)?))
}

/// Write the report into `dir` as [`REPORT_TEXT`] and [`REPORT_JSON`].
pub fn write_report(dir: &Path, report: &DiffReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(REPORT_TEXT), report.render_text())?;
    std::fs::write(dir.join(REPORT_JSON), report.to_json())?;
    Ok(())
}
