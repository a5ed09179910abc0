//! Driver-side glue for the `simtrace::host` profiler: run a figure
//! scenario under a root scope, fold the sample report into
//! per-subsystem attribution [`Row`]s, print the top host sinks, and
//! render the collapsed-stack file flamegraph tools consume.
//!
//! The `hostprof` binary is a thin wrapper over this module, and
//! `hostperf --figure` times the same [`scenarios`].

use crate::figures::sweep;
use crate::{Row, Scale};
use simtrace::host;
use std::time::Instant;
use workloads::runner::RunConfig;

/// A named figure sweep to run in-process: `(figure name, runner)`.
pub type Scenario = (&'static str, Box<dyn Fn()>);

/// The figure-table sweeps profiled here and timed by `hostperf
/// --figure`: fig1 (the overhead gate's; with Figure 2 and the alltoall
/// ablation) and fig7 (with Figure 8 and the group-size ablation),
/// fig9, and fig10 (BT-IO: thousands of small pieces per rank, the
/// exchange-metadata path) and fig11 (Flash-IO: many calls of large
/// serial segments), the two slowest paper-scale figures.
pub const PROFILED: [&str; 5] = [
    "fig1_collective_wall",
    "fig7_tileio_groups",
    "fig9_scalability",
    "fig10_btio",
    "fig11_flashio",
];

/// Does the `--figure` list `names` select scenario `name`? Every
/// scenario when the list is empty, otherwise those it names whole:
/// `fig1` names no scenario, where a prefix would also pick fig10 and
/// fig11.
pub fn selects(names: &[String], name: &str) -> bool {
    names.is_empty() || names.iter().any(|n| n == name)
}

/// Exit 2 with the list of `valid` names if a `--figure` name in `names`
/// is none of them — before anything runs.
pub fn require_known(tool: &str, names: &[String], valid: &[&str]) {
    if let Some(bad) = names.iter().find(|n| !valid.contains(&n.as_str())) {
        eprintln!(
            "{tool}: unknown --figure {bad:?}; valid names: {}",
            valid.join(", ")
        );
        std::process::exit(2);
    }
}

/// The [`PROFILED`] sweeps at `scale`, each run with the paper's config.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    PROFILED
        .iter()
        .map(|&name| {
            let s = sweep(name).expect("a figure sweep");
            let run = move || {
                std::hint::black_box(s.run(scale, &RunConfig::paper));
            };
            (name, Box::new(run) as Box<dyn Fn()>)
        })
        .collect()
}

/// One profiled scenario run: the folded sample report plus the
/// measured wall it is attributed against.
pub struct Profiled {
    /// Folded host-time samples (see [`host::collect`]).
    pub report: host::Report,
    /// Host seconds the scenario took under the profiler.
    pub wall_s: f64,
}

impl Profiled {
    /// Fraction of the measured wall attributed to *named* sinks, in
    /// percent — every sampled frame except the root scenario scope's
    /// self time (setup, verification and result folding the finer
    /// probes don't cover).
    pub fn attributed_pct(&self) -> f64 {
        let named: u64 = self
            .report
            .by_site()
            .iter()
            .filter(|s| s.site != host::Site::Scenario)
            .map(|s| s.self_ns)
            .sum();
        100.0 * named as f64 / (self.wall_s * 1e9).max(f64::MIN_POSITIVE)
    }
}

/// Run `run` once with the profiler armed, under a root
/// [`host::Site::Scenario`] scope, and collect the report. Profiler
/// state is reset first so each scenario's report stands alone; the
/// profiler is disarmed again before returning.
pub fn profile(run: &dyn Fn()) -> Profiled {
    host::reset();
    host::set_enabled(true);
    let t0 = Instant::now();
    {
        let _root = host::scope(host::Site::Scenario);
        run();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    host::set_enabled(false);
    Profiled { report: host::collect(), wall_s }
}

/// Fold a profiled run into report rows: `<fig>/<subsystem>` percent
/// rows (plus `<fig>/site/<name>` per-site detail), the
/// `<fig>/attributed` coverage row, and `<fig>/counter/<name>` rows
/// carrying the flatten-cache and buffer-pool hit counts. Percentages
/// are of measured wall; `self_s` extras carry the absolute seconds.
pub fn attribution_rows(fig: &str, p: &Profiled) -> Vec<Row> {
    let wall_ns = (p.wall_s * 1e9).max(f64::MIN_POSITIVE);
    let mut rows = Vec::new();
    for (subsystem, self_ns) in p.report.by_subsystem() {
        rows.push(
            Row::new(format!("{fig}/{subsystem}"), 0.0, 100.0 * self_ns as f64 / wall_ns, "%")
                .with("self_s", self_ns as f64 / 1e9),
        );
    }
    for s in p.report.by_site() {
        rows.push(
            Row::new(
                format!("{fig}/site/{}", s.site.name()),
                0.0,
                100.0 * s.self_ns as f64 / wall_ns,
                "%",
            )
            .with("self_s", s.self_ns as f64 / 1e9)
            .with("samples", s.count as f64),
        );
    }
    let mut attributed = Row::new(format!("{fig}/attributed"), 0.0, p.attributed_pct(), "%")
        .with("wall_s", p.wall_s)
        .with("dropped", p.report.dropped as f64);
    for (thread, d) in &p.report.dropped_by_thread {
        attributed = attributed.with(&format!("dropped[{thread}]"), *d as f64);
    }
    rows.push(attributed);
    for (name, value) in &p.report.counters {
        rows.push(Row::new(format!("{fig}/counter/{name}"), 0.0, *value as f64, "n"));
    }
    rows
}

/// Print the top-`k` host sinks of a profiled run by self time, with
/// percentages of the measured wall.
pub fn print_top(fig: &str, p: &Profiled, k: usize) {
    let wall_ns = (p.wall_s * 1e9).max(f64::MIN_POSITIVE);
    let sites = p.report.by_site();
    // Fiber slices (resumes): what the scheduler's cost scales with,
    // printed even when `fiber_run` is not among the top sinks.
    let slices = p.report.samples(host::Site::FiberRun);
    println!(
        "hostprof: {fig} wall {:.3}s, {:.1}% attributed to named sinks \
         ({} sites, {slices} fiber slices, {} dropped samples); top {} by self time:",
        p.wall_s,
        p.attributed_pct(),
        sites.len(),
        p.report.dropped,
        k.min(sites.len())
    );
    for s in sites.iter().take(k) {
        println!(
            "  {:5.1}%  {:9.4}s  {:<10} {:<14} ({} samples)",
            100.0 * s.self_ns as f64 / wall_ns,
            s.self_ns as f64 / 1e9,
            s.site.subsystem(),
            s.site.name(),
            s.count
        );
    }
    let mut counters = String::new();
    for (name, value) in &p.report.counters {
        if !counters.is_empty() {
            counters.push_str(", ");
        }
        counters.push_str(&format!("{name} {value}"));
    }
    println!("  counters: {counters}");
    // Drops are per thread (one ring each): name the thread instead
    // of hiding it in the sum.
    for (thread, d) in &p.report.dropped_by_thread {
        println!("  dropped[{thread}]: {d}");
    }
}

/// Write the report's collapsed stacks to `path` (the input format of
/// `flamegraph.pl`, inferno and speedscope: `outer;inner self_ns`).
pub fn write_collapsed(path: &std::path::Path, p: &Profiled) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, p.report.collapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_figure_is_selected_by_its_whole_name() {
        let fig1 = vec!["fig1_collective_wall".to_string()];
        let picked: Vec<&str> = PROFILED.into_iter().filter(|n| selects(&fig1, n)).collect();
        assert_eq!(picked, ["fig1_collective_wall"]);
        let prefix = vec!["fig1".to_string()];
        assert!(
            PROFILED.iter().all(|n| !selects(&prefix, n)),
            "a prefix names nothing"
        );
        assert!(
            PROFILED.iter().all(|n| selects(&[], n)),
            "no names select every scenario"
        );
    }
}
