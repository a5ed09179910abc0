//! Calibration probe: prints the headline numbers the paper's figures
//! hinge on beside their paper targets, so the model constants in
//! `simnet`/`simfs` can be tuned. Runs the figure table's sweeps at
//! paper scale. Not part of the figure set; see DESIGN.md §6.
//!
//! ```text
//! calibrate [all|wall|ior|tile|btio|flash|scale]
//! ```

use bench::figures::sweep;
use bench::{print_table, Scale};
use workloads::runner::RunConfig;

/// `(key, sweep, the paper's target)`.
const TARGETS: &[(&str, &str, &str)] = &[
    ("wall", "fig1_collective_wall", "~72% sync at 512"),
    ("ior", "fig6_ior", "512 procs: baseline ~380 MB/s, ParColl best ~5301 MB/s"),
    ("tile", "fig7_tileio_groups", "peak at 64 groups, +210% write"),
    ("btio", "fig10_btio", "ParColl > baseline everywhere"),
    ("flash", "fig11_flashio", "ParColl ~+38.5% over baseline; w/o Coll ~60 MB/s"),
    ("scale", "fig9_scalability", "at 1024: 2700 vs 11400 MB/s"),
];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    for &(key, name, target) in TARGETS {
        if which != "all" && which != key {
            continue;
        }
        let s = sweep(name).expect("a figure sweep");
        let rows = s.run(Scale::Paper, &RunConfig::paper).swap_remove(0);
        print_table(&format!("{name} (target: {target})"), s.files[0].x, &rows);
    }
}
