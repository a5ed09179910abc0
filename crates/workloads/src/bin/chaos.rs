//! `chaos` — seeded fault-injection smoke runner.
//!
//! Exercises the canned fault plans end to end and enforces the
//! robustness contracts (DESIGN.md §10):
//!
//! 1. **Determinism** — the same seeded plan run twice produces
//!    byte-identical trace and metrics JSON.
//! 2. **Correctness under degradation** — a verify-mode run writes real
//!    bytes through the faulted stack and collectively reads them back
//!    byte-exact (the runner panics on any mismatch).
//! 3. **Observability** — crash plans surface `recovery` spans in the
//!    trace so critical-path attribution can price the failover.
//!
//! Usage: `chaos [--quick] [--corrupt] [--plan NAME] [--trace-out DIR]`
//!
//! Each plan runs under the two-phase collective; a crash plan runs
//! every contract again under ParColl (degraded mode: the dead-set
//! exchange, whose allgather its trace must hold, and the merge of dead
//! groups), and without `--quick` so does every plan. `--quick` shrinks
//! the cluster (CI smoke);
//! `--corrupt` runs the data-integrity plans instead (checksummed pieces
//! under silent corruption, a torn aggregator crash, at-rest rot) and
//! additionally requires repair evidence in the trace; `--trace-out DIR`
//! writes each plan's Perfetto-loadable trace JSON. Exits nonzero when
//! any contract is violated.

use simnet::{FaultPlan, SimTime};
use simtrace::{chrome_trace_json, metrics_json, ArgValue, Event, TraceSink};
use std::process::ExitCode;
use std::sync::Arc;
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

struct PlanSpec {
    name: &'static str,
    expects_recovery: bool,
    /// Require `piece_repair` evidence in the trace (the plan corrupts
    /// exchange pieces and checksums are on).
    expects_repair: bool,
    /// Run with end-to-end checksums (`integrity_checksums` + fs sums).
    integrity: bool,
    build: fn() -> FaultPlan,
}

const PLANS: &[PlanSpec] = &[
    PlanSpec {
        name: "ost_slow",
        expects_recovery: false,
        expects_repair: false,
        integrity: false,
        build: ost_slow_plan,
    },
    PlanSpec {
        name: "msg_chaos",
        expects_recovery: false,
        expects_repair: false,
        integrity: false,
        build: msg_chaos_plan,
    },
    PlanSpec {
        name: "agg_crash",
        expects_recovery: true,
        expects_repair: false,
        integrity: false,
        build: agg_crash_plan,
    },
];

/// The integrity plans behind `--corrupt`.
const CORRUPT_PLANS: &[PlanSpec] = &[
    PlanSpec {
        name: "msg_corrupt",
        expects_recovery: false,
        expects_repair: true,
        integrity: true,
        build: msg_corrupt_plan,
    },
    PlanSpec {
        name: "torn_write",
        expects_recovery: true,
        expects_repair: false,
        integrity: true,
        build: torn_write_plan,
    },
    PlanSpec {
        name: "ost_rot",
        expects_recovery: false,
        expects_repair: false,
        integrity: true,
        build: ost_rot_plan,
    },
];

/// Every OST 3x slower for the first simulated 50 ms, plus a bounded
/// failure burst on OST 0 once it has served a few requests.
fn ost_slow_plan() -> FaultPlan {
    FaultPlan::new(0xC0FFEE)
        .ost_slow(None, 3.0, SimTime::ZERO, SimTime::millis(50.0))
        .ost_fail_after(0, 8, 2)
}

/// Lossy, jittery interconnect plus one straggler rank.
fn msg_chaos_plan() -> FaultPlan {
    FaultPlan::new(0xBADCAB)
        .msg_drop(0.05, None, None)
        .msg_delay_jitter(0.3, 0.5)
        .rank_stall(1, "write_all", SimTime::millis(5.0))
}

/// Rank 0 (an aggregator under every canned config) loses its I/O role
/// after the first collective write round — mid-call, so the failover
/// replay machinery engages rather than the setup-time filter.
fn agg_crash_plan() -> FaultPlan {
    FaultPlan::new(0xDEAD).aggregator_crash(0, 1)
}

/// Heavy silent corruption on the wire: a third of all exchange pieces
/// arrive flipped, and the checksummed protocol must detect and repair
/// every one before a byte reaches the staging buffer.
fn msg_corrupt_plan() -> FaultPlan {
    FaultPlan::new(0x5117).msg_corrupt(0.3, None, None)
}

/// Rank 0 dies mid-OST-write: its final window lands half-applied and
/// the failover must replay one extra round to heal the tear.
fn torn_write_plan() -> FaultPlan {
    FaultPlan::new(0x7040).torn_write(0, 2)
}

/// At-rest decay: two file extents rot on the platters; the first
/// integrity-checked read repairs them from the durable-copy journal.
fn ost_rot_plan() -> FaultPlan {
    FaultPlan::new(0x0511).ost_rot(100, 64).ost_rot(4000, 128)
}

/// A small collective buffer so even the tiny workload runs several
/// exchange rounds per call — mid-call faults need rounds to land in.
fn apply_common_hints(cfg: &mut RunConfig) {
    cfg.info.set("cb_nodes", 4i64);
    cfg.info.set("cb_buffer_size", 128i64);
}

/// A traced run's artifacts, and how many allgathers over the whole
/// world its ranks entered.
struct Traced {
    trace: String,
    metrics: String,
    world_allgathers: usize,
}

/// Run `plan` (or no fault at all) traced.
fn traced(mode: IoMode, ranks: usize, plan: Option<FaultPlan>, integrity: bool) -> Traced {
    let sink = TraceSink::enabled();
    // Integrity plans run over real bytes even on the traced pass —
    // synthetic pieces carry no platter image for rot to flip or
    // checksums to cover.
    let mut cfg = if integrity {
        RunConfig::verify(mode)
    } else {
        RunConfig::paper(mode)
    };
    apply_common_hints(&mut cfg);
    cfg.integrity = integrity;
    cfg.trace = sink.clone();
    cfg.faults = plan.map(Arc::new);
    run_workload(TileIo::tiny(ranks), cfg);
    let trace = sink.finish();
    let world = ArgValue::U64(0);
    let world_allgathers = trace
        .rank_tracks()
        .flat_map(|t| &t.events)
        .filter(|e| {
            matches!(e, Event::Span { cat: "rdv", name, args, .. }
                if name == "allgather" && args.contains(&("ctx", world.clone())))
        })
        .count();
    Traced {
        trace: chrome_trace_json(&trace),
        metrics: metrics_json(&trace),
        world_allgathers,
    }
}

/// Returns the scrub report so integrity plans can assert the image is
/// clean at rest after the verified read-back.
fn verified(
    mode: IoMode,
    ranks: usize,
    plan: FaultPlan,
    integrity: bool,
) -> Option<simfs::ScrubReport> {
    let mut cfg = RunConfig::verify(mode);
    apply_common_hints(&mut cfg);
    cfg.integrity = integrity;
    cfg.scrub = integrity;
    cfg.faults = Some(Arc::new(plan));
    run_workload(TileIo::tiny(ranks), cfg).scrub
}

/// Hold one plan to every contract under `mode`; returns the number of
/// contracts violated. The trace goes to `DIR/chaos_<plan>.json` for
/// the two-phase collective, `chaos_<plan>_<label>.json` otherwise.
fn check(spec: &PlanSpec, label: &str, mode: IoMode, ranks: usize, trace_out: Option<&str>) -> u32 {
    let mut failures = 0;
    let mut fail = |what: &str| {
        eprintln!("FAIL {} ({label}): {what}", spec.name);
        failures += 1;
    };
    let a = traced(mode, ranks, Some((spec.build)()), spec.integrity);
    let b = traced(mode, ranks, Some((spec.build)()), spec.integrity);
    if a.trace == b.trace && a.metrics == b.metrics {
        println!(
            "   {label} determinism: {} trace bytes, byte-identical across runs",
            a.trace.len()
        );
    } else {
        fail("same seed produced diverging artifacts");
    }
    if spec.expects_recovery && !a.trace.contains("\"recovery\"") {
        fail("no recovery span in the trace");
    }
    if spec.expects_repair && !a.trace.contains("\"piece_repair\"") {
        fail("no piece_repair span in the trace");
    }
    if spec.expects_recovery && mode != IoMode::Collective {
        // Under a plan that can crash a rank, every ParColl call first
        // agrees on the dead set: one more world allgather per rank
        // than the same run without faults.
        let healthy = traced(mode, ranks, None, spec.integrity).world_allgathers;
        if a.world_allgathers < healthy + ranks {
            fail(&format!(
                "no dead-set allgather in the trace ({} world allgathers, {healthy} without faults)",
                a.world_allgathers
            ));
        } else {
            println!(
                "   {label} dead set: {} world allgathers, {healthy} without faults",
                a.world_allgathers
            );
        }
    }

    // Byte correctness through the degraded path: the runner panics
    // (aborting with nonzero status) on any read-back mismatch.
    let scrub = verified(mode, ranks, (spec.build)(), spec.integrity);
    println!("   {label} verify: collective read-back byte-exact");
    if let Some(report) = scrub {
        // The read-back already repaired anything the plan planted,
        // so the at-rest image must scrub clean.
        if report.is_clean() {
            println!(
                "   {label} scrub: {} file(s), {} bytes clean at rest",
                report.files_scanned, report.bytes_scanned
            );
        } else {
            fail(&format!("post-run scrub found damage: {report:?}"));
        }
    }

    if let Some(dir) = trace_out {
        std::fs::create_dir_all(dir).expect("create trace-out dir");
        let path = match mode {
            IoMode::Collective => format!("{dir}/chaos_{}.json", spec.name),
            _ => format!("{dir}/chaos_{}_{label}.json", spec.name),
        };
        std::fs::write(&path, &a.trace).expect("write trace");
        println!("   trace written to {path}");
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut corrupt = false;
    let mut only: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--corrupt" => corrupt = true,
            "--plan" => {
                i += 1;
                only = Some(args.get(i).cloned().unwrap_or_default());
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(args.get(i).cloned().unwrap_or_default());
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: chaos [--quick] [--corrupt] [--plan NAME] [--trace-out DIR]");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let plans = if corrupt { CORRUPT_PLANS } else { PLANS };
    if let Some(name) = &only {
        if !plans.iter().any(|s| s.name == name) {
            let have: Vec<&str> = plans.iter().map(|s| s.name).collect();
            eprintln!("unknown plan {name:?} (have: {})", have.join(", "));
            return ExitCode::from(2);
        }
    }

    let ranks = if quick { 8 } else { 16 };
    let mut failures = 0u32;
    for spec in plans {
        if only.as_ref().is_some_and(|o| o != spec.name) {
            continue;
        }
        println!("== plan {} ({ranks} ranks) ==", spec.name);
        // Crash plans also hold ParColl's degraded mode to every
        // contract; the full run does that for every plan.
        let mut modes = vec![("collective", IoMode::Collective)];
        if spec.expects_recovery || !quick {
            modes.push(("parcoll", IoMode::Parcoll { groups: 4 }));
        }
        for (label, mode) in modes {
            failures += check(spec, label, mode, ranks, trace_out.as_deref());
        }
    }

    if failures > 0 {
        eprintln!("{failures} chaos contract(s) violated");
        return ExitCode::FAILURE;
    }
    println!("all chaos contracts hold");
    ExitCode::SUCCESS
}
