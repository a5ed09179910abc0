//! One measurement process: set-up, timed iterations with tracing off
//! and — in a traced run — the layer probes and one traced iteration.
//!
//! The parent (`driver`) spawns this in a fresh process per role, so that
//! set-up time and peak RSS are those of a cold start, and reads the one
//! JSON line the child prints last.

use crate::json::{nums, obj, text, texts, Json};
use crate::layers::{layer_metrics, LayerInput, TracedLeg};
use crate::metrics::LEGS;
use crate::probes::Probes;
use crate::spans::Spans;
use crate::spec::{Ledger, Leg, LegSim, Scale, Spec};
use simtrace::{host, TraceSink};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// File-system seed of panel member `member` under run seed `seed`.
pub fn panel_seed(seed: u64, member: usize) -> u64 {
    if member == 0 {
        return seed;
    }
    // SplitMix64 finaliser over (seed, member).
    let mut z = seed ^ (member as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one child process is asked to do.
pub struct ChildArgs {
    /// The workload.
    pub spec: Spec,
    /// Run seed (see [`Spec::effective_seed`]).
    pub seed: u64,
    /// Host seconds of timed iterations; 0 = set-up only (memory child).
    pub seconds: f64,
    /// Exactly this many timed iterations instead (smoke runs).
    pub iters: Option<usize>,
    /// Also run the layer probes and one traced iteration.
    pub trace: bool,
    /// Workload size (the layer probes size themselves by it).
    pub scale: Scale,
    /// Where `<workload>.spans.json` and `.hostprof.collapsed` go.
    pub out_dir: PathBuf,
}

/// Host seconds per leg and per iteration of the timed loop.
#[derive(Debug, Default)]
pub struct Timings {
    /// Wall of each timed iteration (all legs).
    pub iter_wall_s: Vec<f64>,
    /// Wall of each leg in each timed iteration, by leg.
    pub leg_host_s: BTreeMap<&'static str, Vec<f64>>,
}

/// Run every leg once under panel member `member`, untraced.
fn iteration(
    spec: &Spec,
    seed: u64,
    member: usize,
    context: &str,
    ledger: &mut Ledger,
    timings: Option<&mut Timings>,
) {
    let started = Instant::now();
    let mut legs = Vec::with_capacity(LEGS.len());
    for leg in &spec.legs {
        let t = Instant::now();
        let outcome =
            spec.run(spec.run_config(leg, panel_seed(seed, member), TraceSink::disabled()));
        legs.push((leg.name, t.elapsed().as_secs_f64()));
        ledger.record(leg.name, member, context, outcome);
    }
    if let Some(timings) = timings {
        timings.iter_wall_s.push(started.elapsed().as_secs_f64());
        for (name, s) in legs {
            timings.leg_host_s.entry(name).or_default().push(s);
        }
    }
}

/// One leg with both recorders on: the virtual-time trace sink and the
/// host profiler. Spans are recorded around every call into the layers.
fn traced_leg(
    spec: &Spec,
    leg: &Leg,
    seed: u64,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Option<TracedLeg> {
    let sink = TraceSink::enabled();
    host::reset();
    host::set_enabled(true);
    let (outcome, wall_s) = spans.within("run_workload", None, |_| {
        spec.run(spec.run_config(leg, seed, sink.clone()))
    });
    host::set_enabled(false);
    let report = host::collect();
    if !ledger.record(leg.name, 0, "traced", outcome) {
        return None;
    }
    let (trace, finish_s) = spans.within("simtrace.finish", None, |_| sink.finish());
    let (path, critical_path_s) = spans.within("simtrace.critical_path", None, |_| {
        simtrace::critical_path(&trace)
    });
    let (_, export_s) = spans.within("simtrace.export", None, |_| {
        std::hint::black_box(
            simtrace::metrics_json(&trace).len() + simtrace::chrome_trace_json(&trace).len(),
        )
    });
    Some(TracedLeg::new(
        wall_s,
        &trace,
        path.as_ref(),
        report,
        finish_s,
        critical_path_s,
        export_s,
    ))
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// User plus system CPU seconds of this process (`/proc/self/stat`
/// fields 14 and 15, in the kernel's 100 Hz ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Run the child and return the document it reports to the parent.
/// `started` is the process's start (first line of `main`).
pub fn run(args: &ChildArgs, started: Instant) -> Json {
    let ChildArgs { spec, seed, .. } = args;
    let seed = *seed;
    simnet::set_workers(1);
    let mut ledger = Ledger::default();

    // Set-up: build the inputs and run one full iteration — first-touch
    // page faults, flatten caches and buffer pools fill here. Its results
    // are the reference every later execution must match bit for bit.
    iteration(spec, seed, 0, "set-up", &mut ledger, None);
    let setup_s = started.elapsed().as_secs_f64();

    // A traced run probes the layers first, so that its untraced
    // iterations and the traced one run back to back on the same heap.
    let mut spans = Spans::new(spec.name);
    let mut probe_values = BTreeMap::new();
    if args.trace {
        let mut probes = Probes::new(&mut spans, args.scale);
        probes.run_all(spec, seed);
        probe_values = probes.values;
    }

    // Timed iterations, tracing off, cycling through the seed panel. A
    // traced run spends most of its time elsewhere and needs the untraced
    // medians only as a baseline.
    let budget_s = if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    };
    let min_iters = if args.seconds > 0.0 {
        spec.panel - 1
    } else {
        0
    };
    let mut timings = Timings::default();
    let timed = Instant::now();
    loop {
        let done = timings.iter_wall_s.len();
        let stop = match args.iters {
            Some(n) => done >= n,
            None => done >= min_iters && timed.elapsed().as_secs_f64() >= budget_s,
        };
        if stop {
            break;
        }
        iteration(
            spec,
            seed,
            (done + 1) % spec.panel,
            "timed",
            &mut ledger,
            Some(&mut timings),
        );
    }

    let mut doc = vec![
        ("setup_s", Json::Num(setup_s)),
        ("iter_wall_s", nums(&timings.iter_wall_s)),
        (
            "leg_host_s",
            obj(LEGS.map(|l| {
                let samples = timings.leg_host_s.get(l).map_or(&[][..], Vec::as_slice);
                (l, nums(samples))
            })),
        ),
    ];

    if args.trace {
        let mut traced: BTreeMap<&'static str, TracedLeg> = BTreeMap::new();
        spans.within("workload", None, |spans| {
            for leg in &spec.legs {
                let name = format!("leg:{}", leg.name);
                let (t, _) = spans.within(&name, Some(leg.name), |spans| {
                    traced_leg(spec, leg, seed, spans, &mut ledger)
                });
                if let Some(t) = t {
                    traced.insert(leg.name, t);
                }
            }
        });

        let reference: BTreeMap<&'static str, &LegSim> = LEGS
            .iter()
            .filter_map(|&l| Some((l, ledger.reference(l, 0)?)))
            .collect();
        if reference.len() == LEGS.len() && traced.len() == LEGS.len() {
            let layers = layer_metrics(&LayerInput {
                reference: &reference,
                timings: &timings,
                traced: &traced,
                probes: &probe_values,
                cpu_s: cpu_seconds(),
            });
            doc.push((
                "per_layer",
                obj(layers.into_iter().map(|(k, v)| (k, Json::Num(v)))),
            ));
        }
        write_trace_artifacts(args, &spans, &traced);
    }

    // What each leg's first execution under each panel seed produced:
    // enough for the parent to aggregate the panel and to check that
    // another process got the same bits.
    let panel = LEGS.map(|leg| {
        let members = (0..spec.panel)
            .map_while(|m| ledger.reference(leg, m))
            .map(|sim| {
                obj([
                    ("digest", text(format!("{:016x}", sim.digest()))),
                    ("bytes", Json::U64(sim.bytes_written + sim.bytes_read)),
                    ("seconds", Json::Num(sim.write_s + sim.read_s)),
                ])
            })
            .collect();
        (leg, Json::Arr(members))
    });
    doc.extend([
        ("panel", obj(panel)),
        (
            "vm_hwm_mb",
            Json::Num(proc_status_kb("VmHWM:") * 1024.0 / 1e6),
        ),
        ("attempted", Json::U64(ledger.attempted)),
        ("failed", Json::U64(ledger.failed)),
        ("failures", texts(&ledger.failures)),
    ]);
    obj(doc)
}

/// `<workload>.spans.json` (outside spans plus each leg's host-profiler
/// attribution) and `<workload>.hostprof.collapsed` (flamegraph input,
/// one `leg:<name>` root frame per leg).
fn write_trace_artifacts(
    args: &ChildArgs,
    spans: &Spans,
    traced: &BTreeMap<&'static str, TracedLeg>,
) {
    let mut collapsed = String::new();
    let mut legs = Vec::new();
    for (&leg, t) in traced {
        for line in t.host.collapsed().lines() {
            collapsed.push_str(&format!("leg:{leg};{line}\n"));
        }
        let by_subsystem = t
            .host
            .by_subsystem()
            .into_iter()
            .map(|(name, ns)| (name, Json::Num(ns as f64 / 1e9)));
        legs.push(obj([
            ("leg", text(leg)),
            ("traced_wall_s", Json::Num(t.wall_s)),
            ("hostprof_attributed_pct", Json::Num(t.attributed_pct())),
            ("hostprof_dropped", Json::U64(t.host.dropped)),
            ("hostprof_self_s_by_subsystem", obj(by_subsystem)),
        ]));
    }
    let write = |name: String, text: String| {
        let path = args.out_dir.join(name);
        if let Err(e) =
            std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, text))
        {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    };
    write(
        format!("{}.spans.json", args.spec.name),
        spans.to_json(Json::Arr(legs)).pretty() + "\n",
    );
    write(format!("{}.hostprof.collapsed", args.spec.name), collapsed);
}
