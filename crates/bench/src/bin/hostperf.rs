//! `hostperf` — the two host-time A/B gates (host seconds, not virtual
//! seconds). `regress` pins the virtual results; each gate here times
//! one mechanism against its own absence, back to back, so a budget
//! compares like with like instead of this runner against whichever
//! machine wrote a committed series.
//!
//! ```text
//! hostperf [--quick] [--iters N] [--warmup N] [--figure NAME]...
//!          [--integrity-ab] [--check-overhead <baseline.json>] [--out PATH]
//! ```
//!
//! `--figure NAME` times the `bench::hostprof::scenarios` sweep (figure
//! table entry) named `NAME`, by its whole name, in-process (no exec
//! overhead): `warmup` discarded runs, then `iters` timed runs; the row
//! reports the median with min/max/mean extras, and `--out` writes the
//! rows.
//! `--check-overhead` is the profiler A/B gate (DESIGN.md §13.3): it
//! compares those medians against a baseline that a `--features
//! hostprof-off` build (probes compiled out) wrote with `--out`, by
//! figure name, and fails if the disarmed probes cost more than 2%.
//! `hostprof --figure` profiles a sweep instead of timing it.
//!
//! `--integrity-ab` is the checksum-cost gate (DESIGN.md §14.6): it
//! times each scenario twice in-process — end-to-end integrity off,
//! then on — under two budgets. The figure table's fig1 and fig9
//! sweeps are synthetic, so checksums-on hashes nothing there and may
//! cost at most 5% + 2 ms: that is the price of the plumbing (about 1%
//! at either scale). `tile_verify` is a verify-mode tile-io run on real
//! bytes with the scrub on, where every file byte is hashed seven
//! times: there the cost, `on − off` in seconds, is held against what
//! this process takes to copy the bytes the run hashed, timed between
//! the two halves, and may be at most 1.5 times that (about 0.85 times at either scale;
//! the byte-per-multiply hash this leg was added against costs about 3.4
//! times). No speed-up outside the hash moves either term. Both sides
//! are printed as `<figure>@integrity-off` / `@integrity-on` rows, and the
//! verdict line and the `@integrity-on` row carry the absolute cost
//! beside the ratio (`overhead_abs_s`), and for `tile_verify` the copy
//! time (`copy_ref_s`).
//! `--figure` narrows these scenarios too. A `--figure` name that is
//! none of these scenarios exits 2 with the valid names.

use bench::regress::Tolerance;
use bench::{print_table, rows_from_json, rows_to_json, Row, Scale};
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

/// Hash passes a verified, scrubbed run makes over every file byte
/// (DESIGN.md §14.6; `workloads/tests/integrity.rs` pins the count).
const HASH_PASSES: usize = 7;

/// `--integrity-ab` budget on real bytes: `on − off`, the seven hash
/// passes and the scrub, may cost at most this many times the copy of
/// the bytes they hash (`HASH_PASSES` copies of a file-sized buffer,
/// timed between the two halves). Each pass is a read of memory, so the
/// copy prices the same memory traffic on the same box at the same
/// moment, and nothing outside the hash moves either term. Calibrated
/// like the budget before it, a quarter to spare on both sides of the
/// medians (DESIGN.md §14.6). On one 2-CPU box: 0.85× in the median of
/// ten quick-scale runs (0.73…0.95×) and 0.82× of five 64-rank runs
/// (0.49…1.32×), against 3.4× (3.0…3.7×; 64 ranks 3.1…4.3×) for a
/// byte-per-multiply hash — 1.06× and 2.6× are a quarter from those
/// medians.
const INTEGRITY_COPY_X: f64 = 1.5;

/// A scenario's checksums-on budget.
enum Budget {
    /// `on ≤ off · (1 + rel) + abs`.
    Wall(Tolerance),
    /// `on − off ≤ INTEGRITY_COPY_X ×` the time to copy this many bytes,
    /// in `HASH_PASSES` copies of one buffer.
    Copy { hashed: usize },
}

struct Args {
    scale: Scale,
    iters: usize,
    warmup: usize,
    figures: Vec<String>,
    integrity_ab: bool,
    check_overhead: Option<String>,
    out: Option<String>,
}

impl Args {
    /// Does `--figure` select `name` (every name when none was given)?
    fn selects(&self, name: &str) -> bool {
        bench::hostprof::selects(&self.figures, name)
    }
}

/// The real-bytes `--integrity-ab` scenario, the one `--figure` name
/// that is no figure sweep.
const TILE_VERIFY: &str = "tile_verify";

fn parse_args() -> Args {
    let mut out = Args {
        scale: Scale::from_args(),
        iters: 5,
        warmup: 1,
        figures: Vec::new(),
        integrity_ab: false,
        check_overhead: None,
        out: None,
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
            "--figure" => {
                out.figures.push(value(i).to_string());
                i += 1;
            }
            "--integrity-ab" => out.integrity_ab = true,
            "--check-overhead" => {
                out.check_overhead = Some(value(i).to_string());
                i += 1;
            }
            "--out" => {
                out.out = Some(value(i).to_string());
                i += 1;
            }
            other => {
                eprintln!("hostperf: unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    assert!(out.iters >= 1, "--iters must be at least 1");
    let mut valid = bench::hostprof::PROFILED.to_vec();
    valid.push(TILE_VERIFY);
    bench::hostprof::require_known("hostperf", &out.figures, &valid);
    out
}

/// One `--integrity-ab` scenario: a run parameterized by the checksum knob.
type AbRun = Box<dyn Fn(bool)>;

/// The scenarios the `--integrity-ab` gate times, each parameterized by
/// the checksum knob and carrying its budget. The fig1 and fig9 sweeps
/// of the figure table run the paper configuration on both sides — the
/// synthetic regime of the figures — so their A/B isolates what turning
/// integrity on costs the figure pipeline itself: the hint plumbing and
/// trailer bookkeeping (synthetic pages keep no sum, and a synthetic
/// message's sum walks nothing). `tile_verify` is where bytes are real
/// and every one of them is hashed.
fn integrity_scenarios(scale: Scale) -> Vec<(&'static str, Budget, AbRun)> {
    use workloads::runner::{run_workload, IoMode, RunConfig};
    use workloads::Workload;
    let figure = |name: &'static str| {
        let s = bench::figures::sweep(name).expect("a figure sweep");
        let run = move |integrity: bool| {
            let cfg = |mode| RunConfig {
                integrity,
                ..RunConfig::paper(mode)
            };
            std::hint::black_box(s.run(scale, &cfg));
        };
        (name, Budget::Wall(INTEGRITY_TOL), Box::new(run) as AbRun)
    };
    let verify_procs = if scale == Scale::Paper { 64 } else { 16 };
    vec![
        figure("fig1_collective_wall"),
        figure("fig9_scalability"),
        (
            // Written, read back byte-compared and, with integrity on,
            // scrubbed: the one scenario in which the hash sees bytes.
            TILE_VERIFY,
            Budget::Copy {
                hashed: HASH_PASSES
                    * bench::figures::tileio_at(verify_procs, false).total_bytes() as usize,
            },
            Box::new(move |integrity| {
                let p = verify_procs;
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

/// The copy `Budget::Copy` holds a real-bytes scenario's cost against:
/// `hashed` bytes, as `HASH_PASSES` copies of one buffer, timed like a
/// sweep (sorted samples).
fn time_copies(hashed: usize, warmup: usize, iters: usize) -> Vec<f64> {
    let src = vec![0x5au8; hashed / HASH_PASSES];
    let dst = std::cell::RefCell::new(vec![0u8; src.len()]);
    let copy = || {
        let mut dst = dst.borrow_mut();
        for _ in 0..HASH_PASSES {
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut *dst);
        }
    };
    time_sweep(&copy, warmup, iters)
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
    // Timed sweeps: only the ones `--figure` names.
    let mut timed = Vec::new();
    if !args.figures.is_empty() {
        for (name, run) in bench::hostprof::scenarios(args.scale) {
            if args.selects(name) {
                let samples = time_sweep(&run, args.warmup, args.iters);
                timed.push(timing_row(name.to_string(), &samples, args.iters));
            }
        }
    }
    let mut rows = timed.clone();
    let mut integrity_failures = 0usize;
    if args.integrity_ab {
        // Checksum-cost A/B: both halves timed back-to-back in this
        // process, so each budget compares like with like instead of
        // this runner against whichever machine wrote the baseline.
        for (name, budget, run) in integrity_scenarios(args.scale) {
            if !args.selects(name) {
                continue;
            }
            let off = time_sweep(&|| run(false), args.warmup, args.iters);
            let copy = match budget {
                Budget::Copy { hashed } => {
                    Some(median(&time_copies(hashed, args.warmup, args.iters)))
                }
                Budget::Wall(_) => None,
            };
            let on = time_sweep(&|| run(true), args.warmup, args.iters);
            let (m_off, m_on) = (median(&off), median(&on));
            // The absolute cost beside the ratio: a ratio that rises only
            // because the integrity-off run got faster reads as such.
            let (rel, abs) = (m_on / m_off.max(f64::MIN_POSITIVE) - 1.0, m_on - m_off);
            let (over, terms) = match budget {
                Budget::Wall(tol) => (
                    m_on > m_off * (1.0 + tol.rel) + tol.abs,
                    format!("budget {:.0}%+{:.0}ms", tol.rel * 100.0, tol.abs * 1e3),
                ),
                Budget::Copy { hashed } => {
                    let m_copy = copy.expect("timed between the halves");
                    (
                        abs > INTEGRITY_COPY_X * m_copy,
                        format!(
                            "on − off {abs:.4}s vs copying the {:.0} MB hashed {m_copy:.4}s \
                             = {:.2}×, budget {INTEGRITY_COPY_X}×",
                            hashed as f64 / 1e6,
                            abs / m_copy.max(f64::MIN_POSITIVE),
                        ),
                    )
                }
            };
            let verdict = if over {
                integrity_failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "hostperf: integrity: {name} checksums-on {m_on:.4}s vs off {m_off:.4}s \
                 ({:+.2}%, {abs:+.4}s; {terms}) {verdict}",
                rel * 100.0,
            );
            rows.push(timing_row(format!("{name}@integrity-off"), &off, args.iters));
            let mut on_row = timing_row(format!("{name}@integrity-on"), &on, args.iters)
                .with("overhead_rel", rel)
                .with("overhead_abs_s", abs);
            if let Some(m_copy) = copy {
                on_row = on_row.with("copy_ref_s", m_copy);
            }
            rows.push(on_row);
        }
    }
    if rows.is_empty() {
        eprintln!("hostperf: nothing to time: name a --figure or pass --integrity-ab");
        std::process::exit(2);
    }
    print_table("hostperf: host wall-clock (median)", "-", &rows);

    if let Some(baseline_path) = &args.check_overhead {
        let baseline = load_baseline(baseline_path);
        let mut failures = 0usize;
        let mut compared = 0usize;
        for fresh in &timed {
            let figure = &fresh.series;
            let Some(base) = baseline.iter().find(|b| &b.series == figure) else {
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
}
