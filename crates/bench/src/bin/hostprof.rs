//! `hostprof` — host wall-clock attribution for the simulator's hot
//! paths. Runs the `bench::hostprof::scenarios` sweeps (the ones
//! `hostperf --figure` times) with the `simtrace::host` profiler armed
//! and prints, per
//! scenario, the top-k host sinks with percentages of measured wall —
//! fiber scheduling vs mailbox churn vs pack/unpack memcpy vs trace
//! recording — so host-performance work starts from measurements.
//!
//! ```text
//! hostprof [--quick] [--top K] [--figure NAME]... [--flame-dir DIR]
//!          [--no-emit]
//! ```
//!
//! `--figure NAME` narrows the run to the scenarios named, by their
//! whole name; a name that is no scenario exits 2 with the valid ones.
//!
//! Per scenario it also writes `DIR/hostprof_<figure>.collapsed`
//! (collapsed-stack lines for `flamegraph.pl` / inferno / speedscope;
//! `--flame-dir` defaults to `bench_results`) and, unless `--no-emit`,
//! folds every scenario's attribution into
//! `bench_results/BENCH_hostprof.json`: `<fig>/<subsystem>` and
//! `<fig>/site/<name>` percent rows, an `<fig>/attributed` coverage
//! row, and `<fig>/counter/<name>` rows with the flatten-cache,
//! shape-memo (`shape_hit`/`shape_miss`) and buffer-pool hit counts. Host-side only: the virtual-time artifacts
//! of the profiled runs are byte-identical with the profiler on or off.

use bench::hostprof::{
    attribution_rows, print_top, profile, require_known, scenarios, selects, write_collapsed,
    PROFILED,
};
use bench::{emit_json, Scale};
use std::path::PathBuf;

struct Args {
    scale: Scale,
    top: usize,
    figures: Vec<String>,
    flame_dir: PathBuf,
    emit: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        scale: Scale::from_args(),
        top: 8,
        figures: Vec::new(),
        flame_dir: PathBuf::from("bench_results"),
        emit: true,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> &str {
            argv.get(i + 1).unwrap_or_else(|| {
                eprintln!("hostprof: {} needs a value", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--quick" => {}
            "--top" => {
                out.top = value(i).parse().expect("--top: not a number");
                i += 1;
            }
            "--figure" => {
                out.figures.push(value(i).to_string());
                i += 1;
            }
            "--flame-dir" => {
                out.flame_dir = PathBuf::from(value(i));
                i += 1;
            }
            "--no-emit" => out.emit = false,
            other => {
                eprintln!("hostprof: unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    require_known("hostprof", &out.figures, &PROFILED);
    out
}

fn main() {
    let args = parse_args();
    if cfg!(feature = "hostprof-off") {
        eprintln!(
            "hostprof: built with the hostprof-off feature — the probes are \
             compiled out and no samples can be collected"
        );
        std::process::exit(2);
    }
    let mut rows = Vec::new();
    for (name, run) in scenarios(args.scale) {
        if !selects(&args.figures, name) {
            continue;
        }
        // One unprofiled warmup so caches and pools are in steady state
        // and the attribution reflects the steady-state loop, not
        // first-run setup.
        run();
        let profiled = profile(&run);
        print_top(name, &profiled, args.top);
        let flame = args.flame_dir.join(format!("hostprof_{name}.collapsed"));
        match write_collapsed(&flame, &profiled) {
            Ok(()) => println!("  collapsed stacks -> {}", flame.display()),
            Err(e) => eprintln!("hostprof: cannot write {}: {e}", flame.display()),
        }
        rows.extend(attribution_rows(name, &profiled));
        println!();
    }
    if args.emit {
        emit_json("BENCH_hostprof", &rows);
    }
}
