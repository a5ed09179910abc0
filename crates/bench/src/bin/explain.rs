//! `explain` — regenerate the diffable regression scenario.
//!
//! ```text
//! explain [--out DIR] [--fault SPEC] [--emit-baseline]
//! ```
//!
//! Runs the fixed traced scenario (see `bench::explain`) and writes its
//! gate rows (`explain_scenario.json`) and digest sidecar
//! (`explain_digest.json`) into `--out` (default `bench_results/quick`
//! with `--emit-baseline`, otherwise required). `regress --explain
//! DIR BASELINE` is the one place two digests are diffed: when the row
//! gate trips it prints the ranked root-cause table and writes
//! `explain_report.{txt,json}` next to the fresh results.
//!
//! `--fault ost_slow:OST:FACTOR[:FROM_MS:UNTIL_MS]` perturbs the run —
//! the knob used to demonstrate (and test) that a real regression is
//! named correctly.
//!
//! The scenario is a collective *write*; drifts in the read suites
//! (`read_sweep`, the §15 read-through/list-I/O path) are caught by the same
//! `regress` row gate over `bench_results/quick/read_sweep.json` and
//! explained by the generic OST/rank findings — the read path records
//! the same spans the diff aligns on.

use bench::explain::{parse_fault, run_scenario, write_outputs};
use std::path::PathBuf;

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut fault = None;
    let mut emit_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().map(PathBuf::from),
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
                eprintln!("usage: explain [--out DIR] [--fault SPEC] [--emit-baseline]");
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
        "explain: wrote scenario rows + digest ({} keyed totals) to {}",
        digest.values_us.len(),
        out.display()
    );
}
