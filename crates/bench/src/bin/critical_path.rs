//! `critical_path` — happens-before critical-path breakdown for the
//! figure workloads. Runs a list of figure points traced, one at a time,
//! each through its figure's own helper — today Figure 9's MPI-Tile-IO
//! pair (baseline and ParColl at Figure 9's group count) at a sweep of
//! process counts; reconstructs each run's event graph, extracts the
//! path that bounds the virtual wall, and prints where that path spends
//! its time: the collective wall as a *chain of stragglers* rather than
//! an averaged share.
//!
//! Alongside the per-phase path breakdown it prints the what-if panel —
//! three "wall if sync were free" estimates (the Figure 1/2
//! uniform-share estimate, the dependency-aware per-rank bound, and the
//! path-only subtraction) whose spread is the point: averaged sync
//! share overstates what removing synchronization could recover.
//!
//! Emits `bench_results/critical_path.json` rows, so `report` folds the
//! table in with the figures. `--quick` runs reduced scale.

use bench::figures::{tileio_scalability, Config};
use bench::{emit_json, Row, Scale};
use simtrace::{critical_path, rank_slack, what_if, TraceSink};
use std::cell::RefCell;
use workloads::runner::{IoMode, RunConfig};

/// A traced point, `(x, run)`: `run` is one figure point through its
/// figure's helper, with the config it is given.
type Point = (usize, Box<dyn Fn(Config)>);

/// The traced points: Figure 9's pair at each process count.
fn points(scale: Scale) -> Vec<Point> {
    let full = scale == Scale::Paper;
    let procs: &[usize] = scale.pick(&[16, 64, 128], &[8, 16]);
    let fig9 = |p: usize| -> Box<dyn Fn(Config)> {
        Box::new(move |cfg| {
            tileio_scalability(&[p], full, cfg);
        })
    };
    procs.iter().map(|&p| (p, fig9(p))).collect()
}

fn main() {
    let mut rows = Vec::new();
    for (p, run) in points(Scale::from_args()) {
        // The point's runs, each with a sink of its own, in run order:
        // only one point's traces are held at once.
        let runs = RefCell::new(Vec::new());
        run(&|mode| {
            let sink = TraceSink::enabled();
            runs.borrow_mut().push((mode, sink.clone()));
            RunConfig {
                trace: sink,
                ..RunConfig::paper(mode)
            }
        });
        for (mode, sink) in runs.take() {
            let label = match mode {
                IoMode::Parcoll { .. } => "parcoll",
                _ => "baseline",
            };
            let trace = sink.finish();
            let Some(path) = critical_path(&trace) else {
                eprintln!("{label} {p}: no path (empty trace?)");
                continue;
            };
            let w = what_if(&trace, &path);
            let chain = path.straggler_chain();
            let slack = rank_slack(&trace, &path);

            println!(
                "\n== tile-io {p} procs, {label}: wall {:.1} ms, path visits {} ranks in {} hops ==",
                w.wall_us / 1e3,
                path.time_on_rank().len(),
                chain.len(),
            );
            print!("  path breakdown:");
            for (phase, us) in path.breakdown() {
                print!(" {phase} {:.1} ms ({:.0}%),", us / 1e3, us / w.wall_us * 100.0);
            }
            println!();
            print!("  straggler chain (first hops):");
            for (rank, us) in chain.iter().take(6) {
                print!(" r{rank} {:.1} ms >", us / 1e3);
            }
            println!(" ...");
            let mut tight: Vec<_> = slack.iter().collect();
            tight.sort_by(|a, b| a.slack_us.total_cmp(&b.slack_us));
            print!("  least slack:");
            for s in tight.iter().take(4) {
                print!(" r{} {:.1} ms,", s.rank, s.slack_us / 1e3);
            }
            println!();
            println!(
                "  sync share {:.1}% | sync-free wall: figure {:.1} ms, rank bound {:.1} ms, path {:.1} ms",
                w.sync_share * 100.0,
                w.sync_free_figure_us / 1e3,
                w.sync_free_rank_bound_us / 1e3,
                w.sync_free_path_us / 1e3,
            );

            let x = p as f64;
            rows.push(
                Row::new(format!("{label} wall"), x, w.wall_us / 1e3, "ms")
                    .with("sync_share_pct", w.sync_share * 100.0)
                    .with("chain_hops", chain.len() as f64),
            );
            for (phase, us) in path.breakdown() {
                rows.push(Row::new(format!("{label} path {phase}"), x, us / 1e3, "ms"));
            }
            for (name, us) in [
                ("syncfree figure", w.sync_free_figure_us),
                ("syncfree rank-bound", w.sync_free_rank_bound_us),
                ("syncfree path", w.sync_free_path_us),
            ] {
                rows.push(Row::new(format!("{label} {name}"), x, us / 1e3, "ms"));
            }
        }
    }
    emit_json("critical_path", &rows);
}
