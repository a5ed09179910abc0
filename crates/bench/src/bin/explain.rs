//! `explain` — regenerate the diffable regression scenario and, given a
//! baseline, print where the runs diverge.
//!
//! ```text
//! explain [--out DIR] [--baseline DIR] [--fault SPEC] [--emit-baseline]
//! ```
//!
//! Runs the fixed traced scenario (see `bench::explain`), writes its
//! gate rows (`explain_scenario.json`) and digest sidecar
//! (`explain_digest.json`) into `--out` (default `bench_results/quick`
//! with `--emit-baseline`, otherwise required), and — when `--baseline`
//! names a directory holding a committed digest — diffs baseline
//! against the fresh run and prints the ranked root-cause table,
//! writing `explain_report.{txt,json}` next to the fresh results.
//!
//! `--fault ost_slow:OST:FACTOR[:FROM_MS:UNTIL_MS]` perturbs the run —
//! the knob used to demonstrate (and test) that a real regression is
//! named correctly. Exits 1 when a diff was requested and produced
//! findings, so scripts can chain on it.
//!
//! The scenario is a collective *write*; drifts in the read suites
//! (`read_sweep`, the §15 read-through/list-I/O path) are caught by the same
//! `regress` row gate over `bench_results/quick/read_sweep.json` and
//! explained by the generic OST/rank findings — the read path records
//! the same spans the diff aligns on.

use bench::explain::{explain_dirs, parse_fault, run_scenario, write_outputs, write_report};
use std::path::PathBuf;

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut fault = None;
    let mut emit_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().map(PathBuf::from),
            "--baseline" => baseline = args.next().map(PathBuf::from),
            "--fault" => match args.next().as_deref().map(parse_fault) {
                Some(Ok(plan)) => fault = Some(plan),
                Some(Err(e)) => {
                    eprintln!("explain: {e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("explain: --fault needs a spec");
                    std::process::exit(2);
                }
            },
            "--emit-baseline" => emit_baseline = true,
            "--quick" => {} // the scenario is always quick-scale
            other => {
                eprintln!("explain: unknown argument {other:?}");
                eprintln!(
                    "usage: explain [--out DIR] [--baseline DIR] [--fault SPEC] [--emit-baseline]"
                );
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        if emit_baseline {
            PathBuf::from("bench_results/quick")
        } else {
            eprintln!("explain: need --out DIR (or --emit-baseline)");
            std::process::exit(2);
        }
    });

    let label = if emit_baseline { "baseline" } else { "HEAD" };
    let (rows, digest) = run_scenario(label, fault);
    if let Err(e) = write_outputs(&out, &rows, &digest) {
        eprintln!("explain: cannot write {}: {e}", out.display());
        std::process::exit(2);
    }
    println!(
        "explain: wrote scenario rows + digest ({} rounds, {} osts) to {}",
        digest.rounds.len(),
        digest.osts.len(),
        out.display()
    );

    let Some(baseline) = baseline else { return };
    match explain_dirs(&out, &baseline) {
        Err(e) => {
            eprintln!("explain: {e}");
            std::process::exit(2);
        }
        Ok(report) => {
            print!("{}", report.render_text());
            if let Err(e) = write_report(&out, &report) {
                eprintln!("explain: cannot write report: {e}");
                std::process::exit(2);
            }
            if !report.findings.is_empty() {
                std::process::exit(1);
            }
        }
    }
}
