//! `fault_sweep` — degraded-mode bandwidth under seeded fault plans.
//!
//! Not a paper figure: the paper's evaluation ran on a healthy machine.
//! This sweep prices the robustness machinery (DESIGN.md §10) instead —
//! how collective and ParColl write bandwidth degrade as the injected
//! fault intensity rises:
//!
//! * message-drop probability (each drop costs a retry round-trip),
//! * a uniform OST service-time slowdown,
//! * a single aggregator crash with mid-call failover,
//! * silent-corruption probability with end-to-end checksums on
//!   (DESIGN.md §14) — every flipped piece is detected and repaired with
//!   priced retries, and the row carries the repair volume.
//!
//! Every row is a fully deterministic virtual-time measurement: the same
//! seeded plan always yields the same bandwidth, so these rows are
//! regression-gateable like any figure.
//!
//! The sweep prices the *write* path under faults; the read path's
//! degraded-mode contract — an aggregator crash mid-restart must still
//! deliver byte-exact data through the read-through/list-I/O machinery
//! (DESIGN.md §15) — is pinned by `workloads/tests/read_parity.rs`, and
//! the healthy-machine read bandwidth by the `read_sweep` figure.

use bench::figures::{tileio_at, BASELINE};
use bench::{emit_json, print_table, Row, Scale};
use simnet::{FaultPlan, SimTime};
use simtrace::TraceSink;
use std::sync::Arc;
use workloads::runner::{run_workload, IoMode, RunConfig, RunResult};

fn faulted_run(mode: IoMode, procs: usize, full: bool, plan: Option<FaultPlan>) -> RunResult {
    let mut cfg = RunConfig::paper(mode);
    if let Some(p) = plan {
        cfg.faults = Some(Arc::new(p));
    }
    run_workload(tileio_at(procs, full), cfg)
}

fn main() {
    let scale = Scale::from_args();
    let full = scale == Scale::Paper;
    let (procs, groups) = if full { (128, 8) } else { (16, 4) };
    let modes: [(String, IoMode); 2] = [
        (BASELINE.to_string(), IoMode::Collective),
        (format!("ParColl-{groups}"), IoMode::Parcoll { groups }),
    ];
    let mut rows = Vec::new();

    // Sweep 1: message-drop probability. Every dropped payload is
    // tombstoned and re-delivered after a retry timeout, so bandwidth
    // decays with the drop rate instead of the run hanging.
    for (series, mode) in &modes {
        for &p in &[0.0, 0.01, 0.02, 0.05, 0.10] {
            let plan =
                (p > 0.0).then(|| FaultPlan::new(0xD20B).msg_drop(p, None, None));
            let r = faulted_run(*mode, procs, full, plan);
            rows.push(
                Row::new(format!("drop/{series}"), p, r.write_mbps, "MB/s")
                    .with("sync_s_avg", r.profile_avg.sync.as_secs()),
            );
        }
    }

    // Sweep 2: uniform OST slowdown for the whole run. A factor-k
    // service-time multiplier should cost at most k in bandwidth;
    // collective buffering hides part of it behind the exchange.
    for (series, mode) in &modes {
        for &factor in &[1.0, 2.0, 4.0, 8.0] {
            let plan = (factor > 1.0).then(|| {
                FaultPlan::new(0x057A).ost_slow(None, factor, SimTime::ZERO, SimTime::secs(1e9))
            });
            let r = faulted_run(*mode, procs, full, plan);
            rows.push(
                Row::new(format!("ost_slow/{series}"), factor, r.write_mbps, "MB/s")
                    .with("io_s_avg", r.profile_avg.io.as_secs()),
            );
        }
    }

    // Sweep 3: one aggregator crash after the first write round — the
    // failover replay path. x = 0 is the fault-free reference.
    for (series, mode) in &modes {
        for crash in [false, true] {
            let plan = crash.then(|| FaultPlan::new(0xFA11).aggregator_crash(0, 1));
            let r = faulted_run(*mode, procs, full, plan);
            rows.push(
                Row::new(format!("agg_crash/{series}"), crash as u64 as f64, r.write_mbps, "MB/s")
                    .with("sync_s_avg", r.profile_avg.sync.as_secs()),
            );
        }
    }

    // Sweep 4: silent-corruption probability under the checksum
    // protocol. Bandwidth decays smoothly as repair retries are priced
    // onto the exchange; the traced `pieces_repaired` counter rides
    // along so the row pins the repair *volume*, not just its cost —
    // a protocol change that repairs more (or fewer) pieces trips the
    // gate even if the timing happens to cancel out.
    for (series, mode) in &modes {
        for &p in &[0.0, 0.05, 0.10, 0.25, 0.50] {
            let sink = TraceSink::enabled();
            let mut cfg = RunConfig::paper(*mode);
            cfg.integrity = true;
            cfg.trace = sink.clone();
            if p > 0.0 {
                cfg.faults = Some(Arc::new(FaultPlan::new(0xC02A).msg_corrupt(p, None, None)));
            }
            let r = run_workload(tileio_at(procs, full), cfg);
            let repaired: u64 = sink
                .finish()
                .tracks
                .iter()
                .map(|t| t.counters.get("pieces_repaired").copied().unwrap_or(0))
                .sum();
            rows.push(
                Row::new(format!("corrupt/{series}"), p, r.write_mbps, "MB/s")
                    .with("pieces_repaired", repaired as f64)
                    .with("sync_s_avg", r.profile_avg.sync.as_secs()),
            );
        }
    }

    print_table(
        "fault_sweep: write bandwidth vs injected fault intensity (MPI-Tile-IO)",
        "intensity",
        &rows,
    );
    emit_json("fault_sweep", &rows);
}
