//! `hostperf` — wall-clock timing of figure regeneration (host seconds,
//! not virtual seconds). Complements `regress`, which pins the *virtual*
//! results: this harness pins how long the simulator takes to produce
//! them, so host-performance regressions are visible in review instead
//! of silently making the paper-scale gate impractical.
//!
//! ```text
//! hostperf [--quick] [--iters N] [--warmup N] [--series LABEL]
//!          [--figure NAME]... [--stack-size BYTES] [--profile]
//!          [--integrity-ab] [--check <baseline.json>]
//!          [--tol FIGURE=REL[:ABS]]... [--check-overhead <baseline.json>]
//!          [--out PATH] [--no-emit]
//! ```
//!
//! Each tracked figure sweep runs in-process (no exec overhead): `warmup`
//! discarded runs, then `iters` timed runs; the row reports the median
//! with min/max/mean extras. Series are labeled `<figure>@<LABEL>` so one
//! document can hold several builds side by side — the committed
//! `bench_results/BENCH_hostperf.json` carries the pre-PR baseline series
//! next to the current one, which is how speedups stay reviewable.
//!
//! `--check` compares this run's medians against the matching series in a
//! baseline document and exits nonzero on a wall-clock regression — the
//! CI smoke gate. The envelope is **per figure** (like `bench::regress`
//! tolerances): a millisecond-scale series like fig1 gets an absolute
//! floor absorbing scheduler noise without loosening the relative gate
//! on the slower, steadier sweeps; `--tol FIGURE=REL[:ABS]` overrides a
//! figure's envelope from the command line.
//!
//! `--check-overhead` is the profiler A/B gate: it compares this build's
//! medians against a baseline emitted by a `--features hostprof-off`
//! build (probes compiled out) by figure name, ignoring `@LABEL`, and
//! fails if the disarmed probes cost more than 2%. `--profile` runs one
//! extra profiled iteration per figure after timing and prints the
//! `hostprof` attribution (never affecting the timed samples).
//! `--stack-size` overrides the per-rank thread stack for every cluster
//! the sweeps spawn (see `ClusterConfig::stack_size`).
//!
//! `--integrity-ab` is the checksum-cost gate (DESIGN.md §14.6): it
//! times each scenario twice in-process — end-to-end integrity off,
//! then on — under two budgets. The fig1/fig9-shaped sweeps are
//! synthetic, so checksums-on hashes nothing there and may cost at most
//! 5% + 2 ms: that is the price of the plumbing. `tile_verify` is a
//! verify-mode tile-io run on real bytes with the scrub on, where every
//! file byte is hashed seven times: checksums-on may cost at most 100%
//! over checksums-off there (it costs about 17% at quick scale and 70% at
//! 64 ranks; the byte-per-multiply hash this leg was added against cost
//! about 200%). Both
//! sides are emitted as `<figure>@integrity-off` / `@integrity-on` rows
//! so the trajectory is reviewable.

use bench::figures::{collective_wall, restart_read_sweep, tileio_group_sweep, tileio_scalability};
use bench::regress::Tolerance;
use bench::{emit_json, print_table, rows_from_json, rows_to_json, Row, Scale};
use std::time::Instant;

/// Runtime-off overhead budget for `--check-overhead`: the default build
/// (probes compiled in, disarmed) may cost at most 2% over the
/// `hostprof-off` build, plus a 0.1 ms absolute floor so millisecond
/// figures don't fail on scheduler noise.
const OVERHEAD_TOL: Tolerance = Tolerance { rel: 0.02, abs: 1e-4 };

/// `--integrity-ab` budget on synthetic sweeps, where no byte is hashed:
/// checksums-on may cost at most 5% wall over checksums-off, plus a 2 ms
/// absolute floor so the quick-scale (tens of ms) sweeps don't fail on
/// scheduler noise.
const INTEGRITY_TOL: Tolerance = Tolerance { rel: 0.05, abs: 2e-3 };

/// `--integrity-ab` budget on real bytes: seven hash passes over every
/// file byte and the scrub may together cost at most 100% over the same
/// run with integrity off. On one box: +17 % in the median of ten
/// quick-scale runs (−17…+28 %) and +70 % of six 64-rank runs
/// (+66…+80 %), against +203 % (+167…+258 %) for a byte-per-multiply hash
/// — so the budget sits 25 % or more from the medians on both sides
/// (DESIGN.md §14.6).
const INTEGRITY_REAL_TOL: Tolerance = Tolerance { rel: 1.00, abs: 2e-3 };

/// Per-figure `--check` envelope. fig1 regenerates in ~3 ms at quick
/// scale — pure relative gating would make it the loosest or the
/// noisiest series depending on the constant, so the fast sweeps get an
/// absolute floor and the long steady ones a tighter relative bound.
/// Overrides match either the bare figure name or the full
/// `figure@label` series.
fn check_tolerance(series: &str, overrides: &[(String, Tolerance)]) -> Tolerance {
    let figure = figure_of(series);
    if let Some((_, tol)) = overrides.iter().find(|(f, _)| f == series || f == figure) {
        return *tol;
    }
    match figure {
        "fig7_tileio_groups" => Tolerance { rel: 0.20, abs: 0.002 },
        // The read sweep runs every point twice (sieving off/on), so it
        // gets a slightly higher absolute floor; still one-sided.
        "read_sweep" => Tolerance { rel: 0.25, abs: 0.003 },
        _ => Tolerance { rel: 0.25, abs: 0.002 },
    }
}

/// The figure name a series belongs to (`fig1_collective_wall@HEAD` →
/// `fig1_collective_wall`).
fn figure_of(series: &str) -> &str {
    series.split('@').next().unwrap_or(series)
}

struct Args {
    scale: Scale,
    iters: usize,
    warmup: usize,
    series: String,
    figures: Vec<String>,
    profile: bool,
    integrity_ab: bool,
    check: Option<String>,
    check_overhead: Option<String>,
    tol_overrides: Vec<(String, Tolerance)>,
    out: Option<String>,
    emit: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        scale: Scale::from_args(),
        iters: 5,
        warmup: 1,
        series: "HEAD".to_string(),
        figures: Vec::new(),
        profile: false,
        integrity_ab: false,
        check: None,
        check_overhead: None,
        tol_overrides: Vec::new(),
        out: None,
        emit: true,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> &str {
            argv.get(i + 1).unwrap_or_else(|| {
                eprintln!("hostperf: {} needs a value", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--quick" => {}
            "--iters" => {
                out.iters = value(i).parse().expect("--iters: not a number");
                i += 1;
            }
            "--warmup" => {
                out.warmup = value(i).parse().expect("--warmup: not a number");
                i += 1;
            }
            "--series" => {
                out.series = value(i).to_string();
                i += 1;
            }
            "--figure" => {
                out.figures.push(value(i).to_string());
                i += 1;
            }
            "--profile" => out.profile = true,
            "--integrity-ab" => out.integrity_ab = true,
            "--stack-size" => {
                let bytes: usize = value(i).parse().expect("--stack-size: not a number");
                simnet::set_default_stack_size(bytes);
                i += 1;
            }
            "--check" => {
                out.check = Some(value(i).to_string());
                i += 1;
            }
            "--check-overhead" => {
                out.check_overhead = Some(value(i).to_string());
                i += 1;
            }
            "--tol" => {
                out.tol_overrides.push(parse_tol(value(i)));
                i += 1;
            }
            "--out" => {
                out.out = Some(value(i).to_string());
                i += 1;
            }
            "--no-emit" => out.emit = false,
            other => {
                eprintln!("hostperf: unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    assert!(out.iters >= 1, "--iters must be at least 1");
    out
}

/// Parse `FIGURE=REL[:ABS]` (e.g. `fig1_collective_wall=0.4:0.005`).
fn parse_tol(spec: &str) -> (String, Tolerance) {
    let bad = || -> ! {
        eprintln!("hostperf: --tol wants FIGURE=REL[:ABS], got {spec:?}");
        std::process::exit(2);
    };
    let Some((figure, rest)) = spec.split_once('=') else { bad() };
    let (rel, abs) = match rest.split_once(':') {
        Some((r, a)) => (r.parse().unwrap_or_else(|_| bad()), a.parse().unwrap_or_else(|_| bad())),
        None => (rest.parse().unwrap_or_else(|_| bad()), 0.0),
    };
    (figure.to_string(), Tolerance { rel, abs })
}

/// The figure sweeps the trajectory tracks. `fig1_collective_wall` is the
/// headline (the sweep every PR's speedup claim is judged on); the others
/// cover the ParColl subgroup path and the multi-size scalability sweep.
fn tracked(scale: Scale) -> Vec<bench::hostprof::Scenario> {
    let full = scale == Scale::Paper;
    vec![
        (
            "fig1_collective_wall",
            Box::new(move || {
                let procs: &[usize] = if full { &[16, 32, 64, 128, 256, 512] } else { &[8, 16, 32] };
                std::hint::black_box(collective_wall(procs, full));
            }) as Box<dyn Fn()>,
        ),
        (
            "fig7_tileio_groups",
            Box::new(move || {
                let (procs, groups): (usize, &[usize]) = if full {
                    (512, &[1, 2, 4, 8, 16, 32, 64, 128, 256])
                } else {
                    (16, &[1, 2, 4])
                };
                std::hint::black_box(tileio_group_sweep(procs, groups, full));
            }),
        ),
        (
            "fig9_scalability",
            Box::new(move || {
                let procs: &[usize] = if full { &[64, 128, 256, 512, 1024] } else { &[8, 16] };
                std::hint::black_box(tileio_scalability(procs, |p| (p / 8).min(64), full));
            }),
        ),
        (
            // The read path: the restart read sweep exercises the sieve
            // decision, the list-I/O coalescer, and the collective read
            // exchange — this row prices the read machinery in host time.
            "read_sweep",
            Box::new(move || {
                let (procs, groups): (usize, &[usize]) = if full {
                    (256, &[1, 2, 4, 8, 16, 32])
                } else {
                    (16, &[1, 2, 4])
                };
                std::hint::black_box(restart_read_sweep(procs, groups, full, 4));
            }),
        ),
        (
            // The fault path: an aggregator crash after the first write
            // round forces the failover replay (re-dissemination, cursor
            // rebuild, adopted-domain exchange) on every collective call
            // that follows — this row prices that machinery in host time.
            "chaos_recovery",
            Box::new(move || {
                use workloads::runner::{run_workload, IoMode, RunConfig};
                use workloads::tileio::TileIo;
                let ranks = if full { 64 } else { 16 };
                let mut cfg = RunConfig::paper(IoMode::Collective);
                cfg.info.set("cb_nodes", 4i64);
                cfg.info.set("cb_buffer_size", 128i64);
                cfg.faults = Some(std::sync::Arc::new(
                    simnet::FaultPlan::new(0xDEAD).aggregator_crash(0, 1),
                ));
                std::hint::black_box(run_workload(TileIo::tiny(ranks), cfg));
            }),
        ),
    ]
}

/// One `--integrity-ab` scenario: a run parameterized by the checksum knob.
type AbRun = Box<dyn Fn(bool)>;

/// The scenarios the `--integrity-ab` gate times, each parameterized by
/// the checksum knob and carrying its budget. The fig1/fig9-shaped
/// sweeps run the paper configuration on both sides — the same synthetic
/// regime the tracked fig1/fig9 sweeps run — so their A/B isolates what
/// turning integrity on costs the figure pipeline itself: the hint
/// plumbing, trailer bookkeeping, and per-page sum tracking (synthetic
/// pages record a marker). `tile_verify` is where bytes are real and
/// every one of them is hashed.
fn integrity_scenarios(scale: Scale) -> Vec<(&'static str, Tolerance, AbRun)> {
    use workloads::runner::{run_workload, IoMode, RunConfig};
    let full = scale == Scale::Paper;
    let paper_run = move |p: usize, mode: IoMode, integrity: bool| {
        let mut cfg = RunConfig::paper(mode);
        cfg.integrity = integrity;
        std::hint::black_box(run_workload(bench::figures::tileio_at(p, full), cfg));
    };
    vec![
        (
            "fig1_collective_wall",
            INTEGRITY_TOL,
            Box::new(move |integrity| {
                let procs: &[usize] =
                    if full { &[16, 32, 64, 128, 256, 512] } else { &[8, 16, 32] };
                for &p in procs {
                    paper_run(p, IoMode::Collective, integrity);
                }
            }) as AbRun,
        ),
        (
            "fig9_scalability",
            INTEGRITY_TOL,
            Box::new(move |integrity| {
                let procs: &[usize] = if full { &[64, 128, 256, 512, 1024] } else { &[8, 16] };
                for &p in procs {
                    paper_run(p, IoMode::Collective, integrity);
                    let g = (p / 8).clamp(2, 64);
                    paper_run(p, IoMode::Parcoll { groups: g }, integrity);
                }
            }),
        ),
        (
            // Written, read back byte-compared and, with integrity on,
            // scrubbed: the one scenario in which the hash sees bytes.
            "tile_verify",
            INTEGRITY_REAL_TOL,
            Box::new(move |integrity| {
                let p = if full { 64 } else { 16 };
                let mut cfg = RunConfig::verify(IoMode::Parcoll { groups: p / 8 });
                cfg.integrity = integrity;
                cfg.scrub = integrity;
                std::hint::black_box(run_workload(bench::figures::tileio_at(p, false), cfg));
            }),
        ),
    ]
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Load a baseline row document or exit with a diagnostic.
fn load_baseline(path: &str) -> Vec<Row> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("hostperf: cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    rows_from_json(&text).unwrap_or_else(|| {
        eprintln!("hostperf: {path} is not a row document");
        std::process::exit(2);
    })
}

/// Warmup + timed iterations of one sweep; returns sorted samples.
fn time_sweep(run: &dyn Fn(), warmup: usize, iters: usize) -> Vec<f64> {
    for _ in 0..warmup {
        run();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        run();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples
}

fn timing_row(series: String, samples: &[f64], iters: usize) -> Row {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Row::new(series, 0.0, median(samples), "s")
        .with("min", samples[0])
        .with("max", *samples.last().expect("at least one iteration"))
        .with("mean", mean)
        .with("iters", iters as f64)
}

fn main() {
    let args = parse_args();
    let mut rows = Vec::new();
    for (name, run) in tracked(args.scale) {
        if !args.figures.is_empty() && !args.figures.iter().any(|f| name.starts_with(f.as_str())) {
            continue;
        }
        let samples = time_sweep(&run, args.warmup, args.iters);
        rows.push(timing_row(
            format!("{name}@{}", args.series),
            &samples,
            args.iters,
        ));
        if args.profile {
            // One extra armed run, outside the timed samples above.
            let profiled = bench::hostprof::profile(&run);
            bench::hostprof::print_top(name, &profiled, 8);
        }
    }
    let mut integrity_failures = 0usize;
    if args.integrity_ab {
        // Checksum-cost A/B: both halves timed back-to-back in this
        // process, so each budget compares like with like instead of
        // this runner against whichever machine wrote the baseline.
        for (name, tol, run) in integrity_scenarios(args.scale) {
            if !args.figures.is_empty() && !args.figures.iter().any(|f| name.starts_with(f.as_str()))
            {
                continue;
            }
            let off = time_sweep(&|| run(false), args.warmup, args.iters);
            let on = time_sweep(&|| run(true), args.warmup, args.iters);
            let (m_off, m_on) = (median(&off), median(&on));
            let budget = m_off * (1.0 + tol.rel) + tol.abs;
            let verdict = if m_on > budget {
                integrity_failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "hostperf: integrity: {name} checksums-on {:.4}s vs off {:.4}s \
                 ({:+.2}%, budget {:.0}%+{:.0}ms) {verdict}",
                m_on,
                m_off,
                (m_on / m_off.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                tol.rel * 100.0,
                tol.abs * 1e3,
            );
            rows.push(
                timing_row(format!("{name}@integrity-off"), &off, args.iters),
            );
            rows.push(
                timing_row(format!("{name}@integrity-on"), &on, args.iters)
                    .with("overhead_rel", m_on / m_off.max(f64::MIN_POSITIVE) - 1.0),
            );
            if args.profile {
                let profiled = bench::hostprof::profile(&|| run(true));
                bench::hostprof::print_top(&format!("{name} (checksums on)"), &profiled, 8);
            }
        }
    }
    if rows.is_empty() {
        eprintln!("hostperf: no tracked figure matches {:?}", args.figures);
        std::process::exit(2);
    }
    print_table("hostperf: figure regeneration wall-clock (median)", "-", &rows);

    if let Some(baseline_path) = &args.check {
        let baseline = load_baseline(baseline_path);
        let mut failures = 0usize;
        for fresh in &rows {
            let Some(base) = baseline.iter().find(|b| b.series == fresh.series) else {
                println!("hostperf: {} has no baseline series (skipped)", fresh.series);
                continue;
            };
            let tol = check_tolerance(&fresh.series, &args.tol_overrides);
            // One-sided: only slower-than-baseline trips the gate.
            let budget = base.y * (1.0 + tol.rel) + tol.abs;
            let verdict = if fresh.y > budget {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "hostperf: {} {:.4}s vs baseline {:.4}s ({:+.1}%, budget {:.0}%+{:.1}ms) {verdict}",
                fresh.series,
                fresh.y,
                base.y,
                (fresh.y / base.y.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                tol.rel * 100.0,
                tol.abs * 1e3,
            );
        }
        if failures > 0 {
            eprintln!("hostperf: {failures} figure(s) regressed past their wall-clock envelope");
            std::process::exit(1);
        }
    }

    if let Some(baseline_path) = &args.check_overhead {
        let baseline = load_baseline(baseline_path);
        let mut failures = 0usize;
        let mut compared = 0usize;
        for fresh in &rows {
            let figure = figure_of(&fresh.series);
            let Some(base) = baseline.iter().find(|b| figure_of(&b.series) == figure) else {
                println!("hostperf: overhead: {figure} has no baseline series (skipped)");
                continue;
            };
            compared += 1;
            let budget = base.y * (1.0 + OVERHEAD_TOL.rel) + OVERHEAD_TOL.abs;
            let verdict = if fresh.y > budget {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "hostperf: overhead: {figure} {:.4}s vs probes-compiled-out {:.4}s \
                 ({:+.2}%, budget {:.0}%) {verdict}",
                fresh.y,
                base.y,
                (fresh.y / base.y.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                OVERHEAD_TOL.rel * 100.0,
            );
        }
        if compared == 0 {
            eprintln!("hostperf: overhead baseline {baseline_path} shares no figures with this run");
            std::process::exit(2);
        }
        if failures > 0 {
            eprintln!(
                "hostperf: disarmed probes cost >{:.0}% wall-clock on {failures} figure(s)",
                OVERHEAD_TOL.rel * 100.0
            );
            std::process::exit(1);
        }
    }

    if integrity_failures > 0 {
        eprintln!("hostperf: checksums-on cost over budget on {integrity_failures} scenario(s)");
        std::process::exit(1);
    }

    if let Some(path) = &args.out {
        std::fs::write(path, rows_to_json(&rows)).unwrap_or_else(|e| {
            eprintln!("hostperf: cannot write {path}: {e}");
            std::process::exit(2);
        });
    }
    if args.emit {
        emit_json("BENCH_hostperf", &rows);
    }
}
