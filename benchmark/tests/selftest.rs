//! Self-tests of the benchmark: every workload at 8–16 ranks, the
//! failure accounting, the A/B comparison, and the agreement between the
//! code's metric registry and `BENCHMARK.json`.

use parcoll_benchmark::child::{self, ChildArgs};
use parcoll_benchmark::compare::{compare, Verdict};
use parcoll_benchmark::driver::{self, Basis, Measured, RunArgs, WorkloadResult};
use parcoll_benchmark::metrics::{self, Summary, END_TO_END};
use parcoll_benchmark::spec::{find, specs, Ledger, Scale};
use simtrace::json::Json;
use simtrace::TraceSink;
use std::collections::BTreeSet;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn manifest() -> Json {
    Json::parse(&std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("array in BENCHMARK.json")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run the benchmark binary the way the contract does and return the
/// JSON object on its last line.
fn contract_run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_parcoll-benchmark"))
        .args([
            "--mini",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().expect("a last line")).expect("last line is JSON")
}

#[test]
fn benchmark_json_is_the_registry() {
    let all = specs(Scale::Full);
    let workloads: Vec<(&str, &str)> = all.iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(
        std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json"),
        metrics::manifest(&workloads),
        "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json"
    );
    assert!((2..=8).contains(&all.len()));
    for s in &all {
        assert!(
            s.why.len() <= 200 && !s.why.contains('\n'),
            "{}: why is one line of at most 200 characters",
            s.name
        );
    }
    assert!(std::fs::metadata(MANIFEST).expect("BENCHMARK.json").len() <= 64 << 10);
}

#[test]
fn every_workload_runs_all_legs_and_emits_every_declared_metric() {
    let doc = manifest();
    let (end_to_end, per_layer) = (names(&doc, "end_to_end"), names(&doc, "per_layer"));
    assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
    for workload in names(&doc, "workloads") {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = contract_run(&workload, trace);
            let members: BTreeSet<String> = line
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(
                members,
                ["attempted", "correct", "failed", "metrics"]
                    .map(str::to_string)
                    .into()
            );
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} --trace {trace}"
            );
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            // Set-up runs every leg once; more follow.
            assert!(
                line.get("attempted")
                    .and_then(Json::as_u64)
                    .expect("attempted")
                    >= 3
            );
            let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
            let got: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(&got, want, "{workload} --trace {trace}");
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                assert!(
                    trace == "1" || v > 0.0,
                    "{workload}: end-to-end metric {name} must never be 0"
                );
            }
        }
        // The traced run accounts for itself.
        let spans =
            std::fs::read_to_string(driver::out_dir().join(format!("{workload}.spans.json")))
                .expect("spans.json");
        let spans = Json::parse(&spans).expect("spans.json parses");
        let legs = spans.get("legs").and_then(Json::as_array).expect("legs");
        assert_eq!(legs.len(), 3);
        for leg in legs {
            assert_eq!(leg.get("hostprof_dropped").and_then(Json::as_u64), Some(0));
            assert!(
                leg.get("hostprof_attributed_pct")
                    .and_then(Json::as_f64)
                    .expect("attribution")
                    > 50.0
            );
        }
        let named = |n: &str| {
            spans
                .get("spans")
                .and_then(Json::as_array)
                .expect("spans")
                .iter()
                .filter(|s| s.get("name").and_then(Json::as_str) == Some(n))
                .count()
        };
        assert_eq!(
            (
                named("workload"),
                named("run_workload"),
                named("simtrace.finish")
            ),
            (1, 3, 3)
        );
    }
}

#[test]
fn a_planted_one_bit_difference_is_a_failed_operation() {
    let spec = find("tile_write_512", Scale::Mini).expect("spec");
    let leg = &spec.legs[1];
    let sim = spec
        .run(spec.run_config(leg, 7, TraceSink::disabled()))
        .expect("leg runs");
    let mut ledger = Ledger::default();
    assert!(ledger.record(leg.name, 0, "first", Ok(sim.clone())));
    assert!(ledger.record(leg.name, 0, "same", Ok(sim.clone())));
    let mut flipped = sim.clone();
    flipped.write_s = f64::from_bits(sim.write_s.to_bits() ^ 1);
    assert!(!ledger.record(leg.name, 0, "flipped", Ok(flipped)));
    assert_eq!((ledger.attempted, ledger.failed), (3, 1));
    // Another seed of the panel has its own reference.
    assert!(ledger.record(leg.name, 1, "other seed", Ok(sim)));
}

#[test]
fn a_planted_read_back_mismatch_is_a_failed_operation() {
    let spec = find("tile_verify_64", Scale::Mini).expect("spec");
    let leg = &spec.legs[0];
    let mut ledger = Ledger::default();
    assert!(ledger.record(
        leg.name,
        0,
        "clean",
        spec.run(spec.run_config(leg, 7, TraceSink::disabled()))
    ));
    // Flip bits in exchange payloads with integrity off: wrong bytes reach
    // the file, and the runner's byte comparison of the read-back trips.
    let mut cfg = spec.run_config(leg, 7, TraceSink::disabled());
    cfg.faults = Some(Arc::new(
        simnet::FaultPlan::new(1).msg_corrupt(0.9, None, None),
    ));
    let outcome = spec.run(cfg);
    assert!(
        outcome.as_ref().is_err_and(|why| why.contains("mismatch")),
        "{outcome:?}"
    );
    assert!(!ledger.record(leg.name, 0, "corrupted", outcome));
    assert_eq!((ledger.attempted, ledger.failed), (2, 1));
}

#[test]
fn leg_host_seconds_sum_to_the_iteration_wall() {
    let args = ChildArgs {
        spec: find("flash_ckpt_128", Scale::Mini).expect("spec"),
        seed: 7,
        seconds: 1.0,
        iters: Some(40),
        trace: false,
        scale: Scale::Mini,
        out_dir: driver::out_dir(),
    };
    let doc = child::run(&args, Instant::now());
    let sum = |j: &Json| {
        j.as_array()
            .expect("array")
            .iter()
            .filter_map(Json::as_f64)
            .sum::<f64>()
    };
    let walls = sum(doc.get("iter_wall_s").expect("iter_wall_s"));
    let legs: f64 = doc
        .get("leg_host_s")
        .and_then(Json::as_obj)
        .expect("leg_host_s")
        .iter()
        .map(|(_, v)| sum(v))
        .sum();
    assert_eq!(
        doc.get("iter_wall_s")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(40)
    );
    assert!(
        legs <= walls && legs > 0.99 * walls,
        "legs {legs} s of {walls} s"
    );
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
}

fn result_set(host_wall_s: f64, sim_mbps: f64, spread: f64, partial: bool, seed: u64) -> Json {
    let all = specs(Scale::Mini);
    let results: Vec<_> = all
        .iter()
        .map(|spec| {
            let mut r = WorkloadResult {
                attempted: 12,
                ..WorkloadResult::default()
            };
            for m in END_TO_END {
                let host = m.clock == metrics::Clock::Host;
                let value = match m.name {
                    "host_wall_s" => host_wall_s,
                    _ if host => 100.0,
                    _ => sim_mbps,
                };
                let basis = if host {
                    Basis::Samples(Summary {
                        n: 9,
                        min: value,
                        q1: value * (1.0 - spread / 2.0),
                        median: value,
                        q3: value * (1.0 + spread / 2.0),
                        max: value,
                    })
                } else {
                    Basis::Panel {
                        first_member: value,
                    }
                };
                r.end_to_end
                    .insert(m.name.to_string(), Measured { value, basis });
            }
            (spec, r)
        })
        .collect();
    let args = RunArgs {
        seed,
        seconds: 10.0,
        iters: None,
        scale: Scale::Mini,
    };
    driver::result_set(driver::provenance(&args, partial), &results)
}

#[test]
fn compare_flags_a_planted_regression_and_passes_noise() {
    let a = result_set(2.0, 5000.0, 0.02, false, 1);
    let verdicts = |metric: &str, b: &Json| -> Vec<Verdict> {
        compare(&a, b)
            .expect("comparable")
            .iter()
            .filter(|r| r.metric == metric)
            .map(|r| r.verdict)
            .collect()
    };
    let all = |metric: &str, b: &Json, want: Verdict| {
        verdicts(metric, b).iter().all(|v| *v == want) && !verdicts(metric, b).is_empty()
    };
    assert!(
        all(
            "host_wall_s",
            &result_set(2.0 * 1.25, 5000.0, 0.02, false, 1),
            Verdict::Breach
        ),
        "+25 % breaches the 20 % bound"
    );
    assert!(
        all(
            "host_wall_s",
            &result_set(2.0 * 1.03, 5000.0, 0.02, false, 1),
            Verdict::Within
        ),
        "+3 % passes"
    );
    assert!(
        all(
            "host_wall_s",
            &result_set(2.0 * 0.80, 5000.0, 0.02, false, 1),
            Verdict::Within
        ),
        "an improvement passes"
    );
    assert!(
        all(
            "host_wall_s",
            &result_set(2.0 * 1.03, 5000.0, 0.30, false, 1),
            Verdict::Unresolved
        ),
        "a side whose own spread exceeds the bound is unresolved, not unchanged"
    );
    assert!(
        compare(&a, &result_set(2.0, 5000.0, 0.02, true, 1)).is_err(),
        "partial result sets are refused"
    );
    // Simulated metrics: exact under one seed, bounded across seeds.
    assert!(
        all(
            "sim_pc_mbps",
            &result_set(2.0, 4995.0, 0.02, false, 1),
            Verdict::Breach
        ),
        "same seed: 0.1 % slower is a change"
    );
    assert!(
        all(
            "sim_pc_mbps",
            &result_set(2.0, 4995.0, 0.02, false, 2),
            Verdict::Within
        ),
        "another seed: inside the bound"
    );
    assert!(
        all(
            "sim_pc_mbps",
            &result_set(2.0, 5000.0, 0.02, false, 1),
            Verdict::Within
        ),
        "same seed, same bits"
    );
}
