//! The parent process: pins the environment, spawns one child per role,
//! checks the children against each other, and reports.
//!
//! Per workload and untraced run: a **timed child** (set-up, then timed
//! iterations) and four **memory children** (fresh processes that only set
//! up: one iteration each). All five give a `setup_s` sample; the memory
//! children give `peak_rss_mb`. A traced run is one child that also runs
//! the layer probes and a traced iteration. Children run one at a time.

use crate::json::{obj, text, texts, Json};
use crate::metrics::{per_layer, Summary, END_TO_END, LEGS};
use crate::spec::{Scale, Spec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Environment variables that change the executor or the storage layer
/// under the benchmark; a run with any of them set measures something
/// else.
const PINNED_ENV: [&str; 3] = ["SIMNET_WORKERS", "SIMNET_EXECUTOR", "SIMFS_SPILL_MB"];

/// glibc malloc tunables every child runs under. By default glibc serves
/// a large allocation by `mmap` until the first such block is freed, then
/// raises the threshold step by step, and trims the heap top on `free`:
/// whether a leg's multi-megabyte buffers are re-mapped and re-faulted on
/// every use therefore depends on allocation history, and the same binary
/// runs an iteration in 0.8 s or 1.9 s (`tile_restart_256`, measured). With
/// the threshold pinned at glibc's maximum and trimming off, freed buffers
/// are reused and host time repeats.
const ALLOCATOR_PIN: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "18446744073709551615"),
];

/// Host medians stop repeating above this much RSS on a 15 GB, 2-CPU VM
/// (measured: bimodal host time, see README "Sizing evidence").
const RSS_WARN_MB: f64 = 1024.0;

/// Memory children per untraced run (each also a `setup_s` sample).
const MEMORY_CHILDREN: usize = 4;

/// Refuse to measure in an environment that is not the pinned one.
pub fn check_environment(scale: Scale) -> Result<(), String> {
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("{var} is set; the benchmark pins the single-worker fiber executor and in-memory images — unset it"));
    }
    if cfg!(debug_assertions) && scale == Scale::Full {
        return Err("debug build; measure with `cargo run --release`".to_string());
    }
    Ok(())
}

/// How one workload is to be measured.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Run seed.
    pub seed: u64,
    /// Host seconds of timed iterations.
    pub seconds: f64,
    /// Exactly this many timed iterations instead (smoke runs).
    pub iters: Option<usize>,
    /// Workload size.
    pub scale: Scale,
}

/// One end-to-end metric as measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The reported value.
    pub value: f64,
    /// What stands behind it.
    pub basis: Basis,
}

/// What an end-to-end value was computed from.
#[derive(Debug, Clone)]
pub enum Basis {
    /// A host metric: the fastest (`host_wall_s`) or the median of these
    /// samples.
    Samples(Summary),
    /// A simulated metric: bytes over virtual seconds across the seed
    /// panel. `first_member` is the same under the run's seed alone —
    /// what a single `parcoll_sim` run of that seed prints.
    Panel {
        /// MB/s of panel member 0.
        first_member: f64,
    },
}

/// Everything measured on one workload.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// End-to-end metrics by name (untraced run).
    pub end_to_end: BTreeMap<String, Measured>,
    /// Per-layer metrics by name (traced run).
    pub per_layer: BTreeMap<String, f64>,
    /// Leg executions attempted.
    pub attempted: u64,
    /// Leg executions that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Non-fatal observations (RSS above the repeatability limit, …).
    pub warnings: Vec<String>,
}

impl WorkloadResult {
    /// Every operation passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `ops_failed / ops_attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Fold a child's operation counts in; a child that died counts as
    /// one failed execution of every leg.
    fn absorb(&mut self, role: &str, child: &Result<Json, String>) {
        match child {
            Ok(doc) => {
                self.attempted += doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                self.failed += doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
                for f in doc.get("failures").and_then(Json::as_array).unwrap_or(&[]) {
                    self.failures
                        .push(format!("{role}: {}", f.as_str().unwrap_or("?")));
                }
            }
            Err(why) => {
                self.attempted += LEGS.len() as u64;
                self.failed += LEGS.len() as u64;
                self.failures.push(format!("{role}: {why}"));
            }
        }
    }
}

/// Where result sets and the traced runs' artifacts go: `out/` beside
/// the benchmark's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Spawn one child and return the document on its last stdout line.
fn spawn_child(spec: &Spec, args: &RunArgs, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", spec.name])
        .args(["--seed", &spec.effective_seed(args.seed).to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(n) = args.iters.filter(|_| seconds > 0.0) {
        cmd.args(["--iters", &n.to_string()]);
    }
    if args.scale == Scale::Mini {
        cmd.arg("--mini");
    }
    cmd.envs(ALLOCATOR_PIN);
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("child result does not parse: {e:?}"))
}

/// The number or numbers under `key`.
fn f64s(doc: &Json, key: &str) -> Vec<f64> {
    match doc.get(key) {
        Some(Json::Arr(items)) => items.iter().filter_map(Json::as_f64).collect(),
        Some(one) => one.as_f64().into_iter().collect(),
        None => Vec::new(),
    }
}

/// The digests of panel member 0, by leg.
fn first_digests(doc: &Json) -> Vec<Option<String>> {
    LEGS.iter()
        .map(|leg| {
            let member = doc.get("panel")?.get(leg)?.as_array()?.first()?;
            Some(member.get("digest")?.as_str()?.to_string())
        })
        .collect()
}

/// Bytes over virtual seconds, decimal MB/s, across `members` of a leg's
/// seed panel.
fn panel_mbps(members: &[Json]) -> Option<f64> {
    let sum = |key: &str| {
        members
            .iter()
            .filter_map(|m| m.get(key)?.as_f64())
            .sum::<f64>()
    };
    (sum("seconds") > 0.0).then(|| sum("bytes") / sum("seconds") / 1e6)
}

/// The untraced run of one workload: every end-to-end metric.
pub fn measure_end_to_end(spec: &Spec, args: &RunArgs) -> WorkloadResult {
    let mut result = WorkloadResult::default();
    let timed = spawn_child(spec, args, args.seconds, false);
    result.absorb("timed child", &timed);
    let memory: Vec<Result<Json, String>> = (0..MEMORY_CHILDREN)
        .map(|_| spawn_child(spec, args, 0.0, false))
        .collect();
    for (i, child) in memory.iter().enumerate() {
        result.absorb(&format!("memory child {}", i + 1), child);
    }
    let Ok(timed) = timed else { return result };

    // A fresh process must reproduce the timed child's results bit for bit.
    let want = first_digests(&timed);
    for (i, child) in memory.iter().enumerate() {
        let Ok(doc) = child else { continue };
        for (leg, (a, b)) in LEGS.iter().zip(want.iter().zip(first_digests(doc))) {
            if a.is_none() || *a != b {
                result.failed += 1;
                result.failures.push(format!(
                    "memory child {}: {leg} differs from the timed child ({a:?} vs {b:?})",
                    i + 1
                ));
            }
        }
    }

    let of_memory = |key: &str| -> Vec<f64> {
        memory
            .iter()
            .flatten()
            .flat_map(|doc| f64s(doc, key))
            .collect()
    };
    let mut setups = f64s(&timed, "setup_s");
    setups.extend(of_memory("setup_s"));
    let rss = of_memory("vm_hwm_mb");
    // Interference on a shared VM only ever adds time, and it comes in
    // bursts that lift the median of a ten-second window by up to a half
    // while hardly reaching its fastest iteration (README, "Sizing
    // evidence"): the iteration cost is the fastest one. Cold
    // starts and memory readings are what a user pays each time; they
    // report their median.
    let fastest: fn(&Summary) -> f64 = |s| s.min;
    let median: fn(&Summary) -> f64 = |s| s.median;
    for (name, samples, pick) in [
        ("host_wall_s", f64s(&timed, "iter_wall_s"), fastest),
        ("setup_s", setups, median),
        ("peak_rss_mb", rss, median),
    ] {
        if samples.is_empty() {
            continue;
        }
        let s = Summary::of(&samples);
        let value = pick(&s);
        if name == "peak_rss_mb" && value > RSS_WARN_MB {
            result.warnings.push(format!(
                "peak_rss_mb {value:.0} exceeds {RSS_WARN_MB:.0}: host times stop repeating above that on this class of VM"
            ));
        }
        let measured = Measured {
            value,
            basis: Basis::Samples(s),
        };
        result.end_to_end.insert(name.to_string(), measured);
    }
    for leg in LEGS {
        let members = timed
            .get("panel")
            .and_then(|p| p.get(leg))
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        // A smoke run may stop before the panel is complete; its partial
        // aggregate is reported, and the result set is stamped partial.
        if let (Some(value), Some(first_member)) = (
            panel_mbps(members),
            panel_mbps(&members[..members.len().min(1)]),
        ) {
            let measured = Measured {
                value,
                basis: Basis::Panel { first_member },
            };
            result
                .end_to_end
                .insert(format!("sim_{leg}_mbps"), measured);
        }
    }
    result
}

/// The traced run of one workload: every per-layer metric. Writes
/// `out/<workload>.spans.json` and `out/<workload>.hostprof.collapsed`.
pub fn measure_layers(spec: &Spec, args: &RunArgs) -> WorkloadResult {
    let mut result = WorkloadResult::default();
    let child = spawn_child(spec, args, args.seconds, true);
    result.absorb("traced child", &child);
    if let Ok(doc) = child {
        for (name, value) in doc.get("per_layer").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = value.as_f64() {
                result.per_layer.insert(name.clone(), v);
            }
        }
    }
    result
}

fn metric_json(value: f64, unit: &str) -> Json {
    obj([("value", Json::Num(value)), ("unit", text(unit))])
}

/// The one-line result the benchmark contract asks for: `correct`,
/// `attempted`, `failed`, and every end-to-end (`trace` off) or per-layer
/// (`trace` on) metric. `Err` names the metrics that could not be
/// measured.
pub fn contract_line(result: &WorkloadResult, trace: bool) -> Result<String, String> {
    let declared: Vec<(String, &str, Option<f64>)> = if trace {
        per_layer()
            .into_iter()
            .map(|m| {
                let value = result.per_layer.get(&m.name).copied();
                (m.name, m.unit, value)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let value = result.end_to_end.get(m.name).map(|v| v.value);
                (m.name.to_string(), m.unit, value)
            })
            .collect()
    };
    let (mut metrics, mut missing) = (Vec::new(), Vec::new());
    for (name, unit, value) in declared {
        match value.filter(|v| v.is_finite()) {
            Some(v) => metrics.push((name, metric_json(v, unit))),
            None => missing.push(name),
        }
    }
    if !missing.is_empty() {
        return Err(format!("not measured: {}", missing.join(", ")));
    }
    Ok(obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::U64(result.attempted)),
        ("failed", Json::U64(result.failed)),
        ("metrics", obj(metrics)),
    ])
    .compact())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Where and how the numbers were taken; printed as the output header and
/// stored in the result set.
pub fn provenance(args: &RunArgs, partial: bool) -> Json {
    let mem_total_mb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemTotal:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let git = ["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"];
    obj([
        ("nproc", Json::U64(nproc)),
        ("mem_total_mb", Json::Num(mem_total_mb.round())),
        ("rustc", text(command_line("rustc", &["--version"]))),
        ("git_commit", text(command_line("git", &git))),
        ("seed", Json::U64(args.seed)),
        ("timed_seconds", Json::Num(args.seconds)),
        (
            "timed_iters",
            args.iters.map_or(Json::Null, |n| Json::U64(n as u64)),
        ),
        (
            "executor",
            text("fibers, 1 worker (simnet::set_workers(1)); children run one at a time"),
        ),
        (
            "allocator",
            text(ALLOCATOR_PIN.map(|(k, v)| format!("{k}={v}")).join(" ")),
        ),
        (
            "build",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("partial", Json::Bool(partial)),
    ])
}

/// Print `doc`'s members as `# key: value` header lines.
pub fn print_header(doc: &Json) {
    for (k, v) in doc.as_obj().unwrap_or(&[]) {
        println!(
            "# {k}: {}",
            v.as_str().map_or_else(|| v.compact(), str::to_string)
        );
    }
}

/// Print one workload's metrics by name, with units; host metrics carry
/// their sample count, min, quartiles, max and spread.
pub fn print_workload(spec: &Spec, result: &WorkloadResult) {
    println!("\n== {} — {} ranks ==", spec.name, spec.nprocs());
    for leg in &spec.legs {
        println!("  leg {:<4} {}", leg.name, leg.what);
    }
    for m in END_TO_END {
        let Some(v) = result.end_to_end.get(m.name) else {
            continue;
        };
        let detail = match &v.basis {
            Basis::Samples(s) => format!(
                "of {} samples [min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}] spread {:.1} % (bound {:.0} %)",
                s.n,
                s.min,
                s.q1,
                s.median,
                s.q3,
                s.max,
                100.0 * s.spread(),
                100.0 * m.bound
            ),
            Basis::Panel { first_member } => format!(
                "bytes over virtual seconds across the {}-seed panel; {first_member:.1} under the run's seed alone",
                spec.panel
            ),
        };
        println!("  {:<28} {:>14.4} {:<6} {detail}", m.name, v.value, m.unit);
    }
    if result.attempted > 0 {
        println!(
            "  {:<28} {:>14.4} {:<6} {} of {} leg executions failed",
            "failed_share",
            result.failed_share(),
            "ratio",
            result.failed,
            result.attempted
        );
    }
    for m in per_layer() {
        if let Some(v) = result.per_layer.get(&m.name) {
            println!("  {:<40} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    if !spec.paper_reference && !result.per_layer.is_empty() {
        println!("  (mpiio.paper_sync_share_err_pts, parcoll.paper_speedup_err_pct: no paper reference at this scale — the paper's figures are 512-rank MPI-Tile-IO)");
    }
    for w in &result.warnings {
        println!("  warning: {w}");
    }
    for f in &result.failures {
        println!("  FAILED: {f}");
    }
}

/// Merge the traced run's findings into the untraced run's.
pub fn merge(mut end_to_end: WorkloadResult, layers: WorkloadResult) -> WorkloadResult {
    end_to_end.per_layer = layers.per_layer;
    end_to_end.attempted += layers.attempted;
    end_to_end.failed += layers.failed;
    end_to_end.failures.extend(layers.failures);
    end_to_end.warnings.extend(layers.warnings);
    end_to_end
}

/// A result set: header plus every workload's numbers, as `--compare`
/// reads it back.
pub fn result_set(header: Json, results: &[(&Spec, WorkloadResult)]) -> Json {
    let workloads = results.iter().map(|(spec, r)| {
        let end_to_end = END_TO_END.iter().filter_map(|m| {
            let v = r.end_to_end.get(m.name)?;
            let mut members = vec![("value", Json::Num(v.value)), ("unit", text(m.unit))];
            match &v.basis {
                Basis::Samples(s) => {
                    let stats = [
                        ("min", s.min),
                        ("q1", s.q1),
                        ("median", s.median),
                        ("q3", s.q3),
                        ("max", s.max),
                    ];
                    members.extend(stats.map(|(k, x)| (k, Json::Num(x))));
                    members.push(("n", Json::U64(s.n as u64)));
                }
                Basis::Panel { first_member } => {
                    members.push(("first_member", Json::Num(*first_member)));
                }
            }
            Some((m.name, obj(members)))
        });
        let per_layer = per_layer().into_iter().filter_map(|m| {
            let value = *r.per_layer.get(&m.name)?;
            Some((m.name, metric_json(value, m.unit)))
        });
        let doc = obj([
            ("end_to_end", obj(end_to_end)),
            ("per_layer", obj(per_layer)),
            ("ops_attempted", Json::U64(r.attempted)),
            ("ops_failed", Json::U64(r.failed)),
            ("failed_share", Json::Num(r.failed_share())),
            ("failures", texts(&r.failures)),
            ("warnings", texts(&r.warnings)),
        ]);
        (spec.name, doc)
    });
    obj([("header", header), ("workloads", obj(workloads))])
}
