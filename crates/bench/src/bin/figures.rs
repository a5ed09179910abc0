//! `figures` — regenerate the paper's figures and the ablations.
//!
//! ```text
//! figures [--quick] [NAME...]
//! ```
//!
//! Runs each sweep of the [`bench::figures::SWEEPS`] table that `NAME`
//! names (every sweep when none is named), prints each row file it
//! writes as a table and emits it as `bench_results/<file>.json`. A
//! sweep simulates its runs once and writes every file they feed:
//! `fig1_collective_wall` writes Figures 1 and 2 and the alltoall
//! ablation, `fig7_tileio_groups` Figures 7 and 8 and the group-size
//! ablation. `--quick` runs the reduced-scale points.

use bench::figures::{sweep, SWEEPS};
use bench::{emit_json, print_table, Scale};
use workloads::runner::RunConfig;

fn main() {
    let scale = Scale::from_args();
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
    if let Some(bad) = names.iter().find(|n| sweep(n).is_none()) {
        eprintln!("figures: unknown sweep {bad:?}");
        eprintln!("usage: figures [--quick] [NAME...]; NAME writes:");
        for s in SWEEPS {
            let files: Vec<&str> = s.files.iter().map(|f| f.name).collect();
            eprintln!("  {:<22} {}", s.name(), files.join(" "));
        }
        std::process::exit(2);
    }
    for s in SWEEPS
        .iter()
        .filter(|s| names.is_empty() || names.iter().any(|n| n == s.name()))
    {
        for (file, rows) in s.files.iter().zip(s.run(scale, &RunConfig::paper)) {
            print_table(file.title, file.x, &rows);
            emit_json(file.name, &rows);
        }
    }
}
