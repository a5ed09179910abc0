//! The figure table and the sweep helpers behind it.
//!
//! [`SWEEPS`] declares every figure sweep once: the row files it writes
//! and its run, which holds its points at both scales and simulates each
//! of them once for all of those files. The `figures` binary runs the
//! entries by name, and so do `hostprof`, `hostperf` and `calibrate`.
//!
//! Each helper runs a workload through [`run_workload`] with the config
//! its caller gives each I/O mode, and returns [`Row`]s shaped like the
//! paper's series: `critical_path` runs [`tileio_scalability`] traced.

use crate::table::Row;
use crate::Scale;
use parcoll::ParcollConfig;
use simnet::CollectiveAlg;
use std::collections::{BTreeMap, BTreeSet};
use workloads::btio::BtIo;
use workloads::flashio::FlashIo;
use workloads::ior::Ior;
use workloads::runner::{run_workload, run_workload_with_net, IoMode, RunConfig, RunResult};
use workloads::tileio::TileIo;
use workloads::Workload;

/// Baseline series label: our ext2ph stands in for Cray's MPI-IO, as the
/// paper's OPAL library did ("comparable performance", §2.2).
pub const BASELINE: &str = "Cray/ext2ph";

/// The config of each run, by I/O mode (`&RunConfig::paper` for the
/// figures).
pub type Config<'a> = &'a dyn Fn(IoMode) -> RunConfig;

/// A row file: `bench_results/<name>.json`, printed as a table under
/// `title` with its x column labelled `x`.
pub struct RowFile {
    /// File stem, e.g. `fig2_breakdown`.
    pub name: &'static str,
    /// X column label.
    pub x: &'static str,
    /// Console table title.
    pub title: &'static str,
}

/// One figure sweep: the row files its runs feed, the primary file (the
/// sweep's name) first, and the run that fills them.
pub struct Sweep {
    /// Row files, in the order the run returns their rows.
    pub files: &'static [RowFile],
    run: fn(Scale, Config) -> Vec<Vec<Row>>,
}

impl Sweep {
    /// The sweep's name: its primary row file.
    pub fn name(&self) -> &'static str {
        self.files[0].name
    }

    /// Run the sweep's points at `scale`, each with `cfg(mode)`: one row
    /// list per file of [`Sweep::files`], in that order.
    pub fn run(&self, scale: Scale, cfg: Config) -> Vec<Vec<Row>> {
        let rows = (self.run)(scale, cfg);
        assert_eq!(rows.len(), self.files.len(), "{}", self.name());
        rows
    }
}

/// The table entry named `name`.
pub fn sweep(name: &str) -> Option<&'static Sweep> {
    SWEEPS.iter().find(|s| s.name() == name)
}

/// Points by scale.
fn pick(s: Scale, paper: &'static [usize], quick: &'static [usize]) -> &'static [usize] {
    s.pick(paper, quick)
}

/// Every figure sweep, in the order `figures` runs them.
#[rustfmt::skip]
pub const SWEEPS: &[Sweep] = &[
    // Figure 1 (the paper: 72 % of the time in global sync at 512
    // processes); Figure 2, the same profile in seconds; and §1's claim
    // that swapping the collective algorithm cannot break the wall, whose
    // pairwise rows are Figure 1's runs.
    Sweep {
        files: &[
            RowFile { name: "fig1_collective_wall", x: "procs",
                      title: "Figure 1: the collective wall — % of MPI-Tile-IO time in global sync" },
            RowFile { name: "fig2_breakdown", x: "procs",
                      title: "Figure 2: collective I/O time breakdown (per-rank seconds, baseline)" },
            RowFile { name: "ablation_alltoall", x: "procs",
                      title: "Ablation: swapping the alltoall algorithm does not break the wall" },
        ],
        run: |s, cfg| {
            let full = s == Scale::Paper;
            let procs = pick(s, &[16, 32, 64, 128, 256, 512], &[8, 16, 32]);
            let wall = collective_wall(procs, full, cfg);
            let breakdown = time_breakdown(&wall);
            let swap = alltoall_swap(&wall, pick(s, &[64, 256, 512], &[8, 16]), full, cfg);
            vec![wall, breakdown, swap]
        },
    },
    // Figure 6: IOR, 512 MB per process in 4 MB transfers (the paper:
    // 380 MB/s baseline, up to 12.8× for ParColl at 512); 64 of the 128
    // transfers are steady state at half the host time.
    Sweep {
        files: &[RowFile { name: "fig6_ior", x: "procs",
                           title: "Figure 6: IOR collective write bandwidth, baseline vs ParColl-N" }],
        run: |s, cfg| vec![match s {
            Scale::Paper => {
                ior_bandwidth(&[128, 512], &[2, 4, 8, 16, 32, 64], 512 << 20, 4 << 20, Some(64), cfg)
            }
            Scale::Quick => ior_bandwidth(&[32], &[2, 4], 64 << 10, 16 << 10, None, cfg),
        }],
    },
    // Figure 7: tile-io bandwidth vs subgroups at 512 processes (best at
    // 64, then over-partitioning collapses); Figure 8, the same runs'
    // synchronization cost up to 64 groups; and the §4 trade-off, a
    // series per process count. Every point is simulated once.
    Sweep {
        files: &[
            RowFile { name: "fig7_tileio_groups", x: "groups",
                      title: "Figure 7: MPI-Tile-IO bandwidth vs number of subgroups (512 procs)" },
            RowFile { name: "fig8_sync_reduction", x: "groups",
                      title: "Figure 8: synchronization cost vs subgroups (MPI-Tile-IO, 512 procs)" },
            RowFile { name: "ablation_groupsize", x: "groups",
                      title: "Ablation: best subgroup count per process count" },
        ],
        run: tileio_groups,
    },
    // Figure 9: tile-io write scalability (the paper: 11.4 GB/s at 1024
    // processes, 416 % of the baseline).
    Sweep {
        files: &[RowFile { name: "fig9_scalability", x: "procs",
                           title: "Figure 9: MPI-Tile-IO write scalability, baseline vs ParColl(P/8)" }],
        run: |s, cfg| {
            let procs = pick(s, &[64, 128, 256, 512, 1024], &[8, 16]);
            vec![tileio_scalability(procs, s == Scale::Paper, cfg)]
        },
    },
    // Figure 10: BT-IO class C (162³, pattern (c), intermediate views),
    // 10 of the 40 write steps (steady state).
    Sweep {
        files: &[RowFile { name: "fig10_btio", x: "procs",
                           title: "Figure 10: BT-IO class C bandwidth, baseline vs ParColl" }],
        run: |s, cfg| vec![match s {
            Scale::Paper => btio_bandwidth(&[256, 324, 400, 484, 576], 162, 10, cfg),
            Scale::Quick => btio_bandwidth(&[16, 36], 24, 2, cfg),
        }],
    },
    // Figure 11: the Flash-IO checkpoint at 1024 processes (the paper:
    // +38.5 % with default aggregators, ~60 MB/s without collective I/O).
    Sweep {
        files: &[RowFile { name: "fig11_flashio", x: "procs",
                           title: "Figure 11: Flash-IO checkpoint bandwidth (1024 procs)" }],
        run: |s, cfg| vec![match s {
            Scale::Paper => flashio_variants(1024, 80, 64, cfg),
            Scale::Quick => flashio_variants(16, 4, 4, cfg),
        }],
    },
    // The read counterpart of Figure 6 (DESIGN.md §15).
    Sweep {
        files: &[RowFile { name: "read_sweep", x: "groups",
                           title: "Read sweep: restart read_at_all bandwidth" }],
        run: |s, cfg| {
            let groups = pick(s, &[1, 2, 4, 8, 16, 32], &[1, 2, 4]);
            vec![restart_read_sweep(s.pick(256, 16), groups, s == Scale::Paper, cfg)]
        },
    },
    // Stripe-aligned file domains (the Lustre-aware refinement Cray's
    // MPI-IO later shipped). 120 aggregators at 256 ranks make 102.4 MiB
    // domains that straddle 4 MiB stripes; with the default one per node
    // every domain is a whole number of stripes.
    Sweep {
        files: &[RowFile { name: "ablation_alignment", x: "procs",
                           title: "Ablation: stripe-aligned collective file domains" }],
        run: |s, cfg| vec![match s {
            Scale::Paper => stripe_alignment(256, Some(120), true, cfg),
            Scale::Quick => stripe_alignment(16, None, false, cfg),
        }],
    },
    // §4.1's intermediate-view strategies on BT-IO.
    Sweep {
        files: &[RowFile { name: "ablation_iview", x: "procs",
                           title: "Ablation: intermediate-view strategies on BT-IO" }],
        run: |s, cfg| vec![match s {
            Scale::Paper => iview_strategies(256, 162, 4, 32, cfg),
            Scale::Quick => iview_strategies(16, 24, 2, 4, cfg),
        }],
    },
];

/// A tile-io instance scaled for the requested process count; `full`
/// selects the paper's 1024x768x64B tiles, otherwise a 16x smaller tile
/// with identical structure.
pub fn tileio_at(nprocs: usize, full: bool) -> TileIo {
    match full {
        true => TileIo::paper(nprocs),
        false => TileIo {
            tile_x: 256,
            tile_y: 192,
            elem: 64,
            ..TileIo::tiny(nprocs)
        },
    }
}

/// `row` with the run's average per-rank seconds in each phase.
fn with_phases(row: Row, r: &RunResult) -> Row {
    let p = &r.profile_avg;
    row.with("sync_s", p.sync.as_secs())
        .with("p2p_s", p.p2p.as_secs())
        .with("io_s", p.io.as_secs())
        .with("local_s", p.local.as_secs())
}

/// Figures 1 & 2: profile MPI-Tile-IO collective writes under the
/// baseline protocol across process counts. Returns, per process count,
/// the average per-rank seconds in sync / p2p / io and the sync share.
pub fn collective_wall(procs: &[usize], full: bool, cfg: impl Fn(IoMode) -> RunConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let r = run_workload(tileio_at(p, full), cfg(IoMode::Collective));
        let total = r.profile_avg.sync + r.profile_avg.p2p + r.profile_avg.io + r.profile_avg.local;
        let frac = if total.as_secs() > 0.0 {
            r.profile_avg.sync.as_secs() / total.as_secs() * 100.0
        } else {
            0.0
        };
        let row = Row::new("sync-share", p as f64, frac, "%").with("write_mbps", r.write_mbps);
        rows.push(with_phases(row, &r));
    }
    rows
}

/// Figure 2: the [`collective_wall`] profile as a series per phase.
fn time_breakdown(wall: &[Row]) -> Vec<Row> {
    let mut out = Vec::new();
    for r in wall {
        for (series, key) in [
            ("sync", "sync_s"),
            ("point-to-point", "p2p_s"),
            ("file I/O", "io_s"),
            ("local memcpy", "local_s"),
        ] {
            out.push(Row::new(series, r.x, r.extra[key], "s"));
        }
    }
    out
}

/// The alltoall ablation (§1): at each of `procs`, the [`collective_wall`]
/// run (the network model's pairwise alltoall) beside the same run with
/// Bruck's log-depth alltoall. The wall barely moves: waiting and
/// congestion, not algorithmic latency, dominate.
fn alltoall_swap(wall: &[Row], procs: &[usize], full: bool, cfg: Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let pairwise = wall
            .iter()
            .find(|r| r.x == p as f64)
            .expect("a Figure 1 point");
        let (mbps, sync) = (pairwise.extra["write_mbps"], pairwise.extra["sync_s"]);
        let series = format!("{BASELINE} (pairwise alltoall)");
        rows.push(Row::new(series, pairwise.x, mbps, "MB/s").with("sync_s", sync));
        let bruck = run_workload_with_net(tileio_at(p, full), cfg(IoMode::Collective), |net| {
            net.alltoall_alg = CollectiveAlg::Bruck
        });
        let series = format!("{BASELINE} (Bruck alltoall)");
        let row = Row::new(series, pairwise.x, bruck.write_mbps, "MB/s");
        rows.push(row.with("sync_s", bruck.profile_avg.sync.as_secs()));
    }
    rows
}

/// Figure 6: IOR collective write bandwidth, baseline vs ParColl-N.
/// `block`/`transfer` let the harness shrink the per-process volume while
/// keeping the paper's per-call shape (bandwidth is per-call steady
/// state).
pub fn ior_bandwidth(
    procs: &[usize],
    group_counts: &[usize],
    block: u64,
    transfer: u64,
    max_calls: Option<usize>,
    cfg: impl Fn(IoMode) -> RunConfig,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let make = || Ior {
            nprocs: p,
            block_size: block,
            transfer_size: transfer,
            max_calls,
        };
        let base = run_workload(make(), cfg(IoMode::Collective));
        rows.push(Row::new(BASELINE, p as f64, base.write_mbps, "MB/s"));
        for &g in group_counts {
            if g > p / 8 {
                continue; // paper: least group size of 8
            }
            let r = run_workload(make(), cfg(IoMode::Parcoll { groups: g }));
            rows.push(Row::new(
                format!("ParColl-{g}"),
                p as f64,
                r.write_mbps,
                "MB/s",
            ));
        }
    }
    rows
}

/// Figures 7 & 8: MPI-Tile-IO bandwidth and synchronization cost vs
/// subgroup count at a fixed process count. Group count 1 is the
/// baseline.
pub fn tileio_group_sweep(
    nprocs: usize,
    group_counts: &[usize],
    full: bool,
    cfg: impl Fn(IoMode) -> RunConfig,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &g in group_counts {
        let (series, mode) = match g {
            0 | 1 => (BASELINE.to_string(), IoMode::Collective),
            g => (format!("ParColl-{g}"), IoMode::Parcoll { groups: g }),
        };
        let mut cfg = cfg(mode);
        cfg.read_back = true;
        // Visualization output is consumed by external tools, so the
        // on-disk layout must stay canonical: if over-partitioning forces
        // an intermediate view, it must scatter through the original view
        // rather than reorder the file. This is what makes extreme group
        // counts collapse (paper Figure 7).
        cfg.info.set("parcoll_iview_scatter", "true");
        let r = run_workload(tileio_at(nprocs, full), cfg);
        let p = &r.profile_avg;
        let sync_ratio = p.sync.as_secs() / (p.sync + p.p2p + p.io).as_secs().max(1e-12);
        rows.push(
            Row::new(series, g as f64, r.write_mbps, "MB/s")
                .with("read_mbps", r.read_mbps.unwrap_or(0.0))
                .with("sync_s_avg", p.sync.as_secs())
                .with("sync_s_max", r.profile_max.sync.as_secs())
                .with("sync_ratio", sync_ratio),
        );
    }
    rows
}

/// The group counts of the §4 trade-off at `nprocs`: those that keep at
/// least two ranks per group.
fn ablation_groups(nprocs: usize) -> Vec<usize> {
    [1, 4, 16, 64, 128]
        .into_iter()
        .filter(|&g| g <= nprocs / 2)
        .collect()
}

/// The `fig7_tileio_groups` sweep: Figure 7 at 512 processes (16 quick),
/// Figure 8 from the same rows and the group-size ablation at 128/256/512
/// (16 quick). Each process count runs the union of the group counts its
/// files plot, once.
fn tileio_groups(s: Scale, cfg: Config) -> Vec<Vec<Row>> {
    let (procs, full) = (s.pick(512, 16), s == Scale::Paper);
    let fig7 = pick(s, &[1, 2, 4, 8, 16, 32, 64, 128, 256], &[1, 2, 4]);
    let ablation = pick(s, &[128, 256, 512], &[16]);
    let mut points: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    points.entry(procs).or_default().extend(fig7);
    for &p in ablation {
        points.entry(p).or_default().extend(ablation_groups(p));
    }
    let runs: BTreeMap<usize, Vec<Row>> = points
        .into_iter()
        .map(|(p, gs)| (p, tileio_group_sweep(p, &Vec::from_iter(gs), full, cfg)))
        .collect();
    let at = |p: usize, gs: &[usize]| -> Vec<Row> {
        let ran = |r: &&Row| gs.contains(&(r.x as usize));
        runs[&p].iter().filter(ran).cloned().collect()
    };

    let sweep = at(procs, fig7);
    let sync = sync_reduction(&sweep, 64);
    let mut series = Vec::new();
    for &p in ablation {
        let rows = at(p, &ablation_groups(p));
        series.extend(rows.into_iter().map(|r| Row {
            series: format!("{p} procs"),
            ..r
        }));
    }
    vec![sweep, sync, series]
}

/// Figure 8: the [`tileio_group_sweep`] points up to `upto` groups, as
/// the average rank's sync seconds with their share of the total.
fn sync_reduction(sweep: &[Row], upto: usize) -> Vec<Row> {
    let plotted = sweep.iter().filter(|r| r.x <= upto as f64);
    plotted
        .map(|r| {
            Row::new("sync seconds (avg rank)", r.x, r.extra["sync_s_avg"], "s")
                .with("sync_ratio", r.extra["sync_ratio"])
        })
        .collect()
}

/// The read sweep (fig6-style counterpart for `read_at_all`, DESIGN.md
/// §15): restart read bandwidth of the hole-dense checkpoint-restart
/// pattern — a quarter of every tile row read back, 75 % holes — vs
/// subgroup count, baseline vs ParColl-N. Then the hole-geometry panel
/// at the largest group count: the same tiles with 8 B elements at den 4
/// and 64 B elements at den 2 (exactly 50 % holes), so the gaps
/// (`gap_bytes`) fall on both sides of the file system's break-even gap —
/// a series per element size, x the denominator.
pub fn restart_read_sweep(
    nprocs: usize,
    group_counts: &[usize],
    full: bool,
    cfg: impl Fn(IoMode) -> RunConfig,
) -> Vec<Row> {
    use workloads::restart::{run_restart, Restart};
    let read = |groups: usize, suffix: &str, x: usize, w: Restart| {
        let (series, mode) = match groups {
            0 | 1 => (BASELINE.to_string(), IoMode::Collective),
            g => (format!("ParColl-{g}"), IoMode::Parcoll { groups: g }),
        };
        let gap = (w.tile.tile_x - w.tile.tile_x / w.den) as u64 * w.tile.elem;
        let r = run_restart(w, cfg(mode));
        Row::new(series + suffix, x as f64, r.read_mbps, "MB/s")
            .with("write_mbps", r.write_mbps)
            .with("read_s", r.read_seconds)
            .with("ost_bytes", r.fs_stats.total_bytes as f64)
            .with("gap_bytes", gap as f64)
    };
    let mut rows = Vec::new();
    for &g in group_counts {
        let w = Restart::with_den(tileio_at(nprocs, full), 4);
        rows.push(read(g, "", g, w));
    }
    let g = group_counts.iter().copied().max().unwrap_or(1);
    for (elem, den) in [(8, 4), (64, 2)] {
        let mut tile = tileio_at(nprocs, full);
        tile.elem = elem;
        let suffix = format!(" {elem} B elements");
        rows.push(read(g, &suffix, den, Restart::with_den(tile, den)));
    }
    rows
}

/// Figure 9: MPI-Tile-IO collective-write scalability, baseline vs
/// ParColl at the default group count ([`ParcollConfig::effective_groups`]:
/// a group per 8 ranks, at most 64), and at least 2.
pub fn tileio_scalability(
    procs: &[usize],
    full: bool,
    cfg: impl Fn(IoMode) -> RunConfig,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let base = run_workload(tileio_at(p, full), cfg(IoMode::Collective));
        rows.push(Row::new(BASELINE, p as f64, base.write_mbps, "MB/s"));
        let g = ParcollConfig::default().effective_groups(p).max(2);
        let r = run_workload(tileio_at(p, full), cfg(IoMode::Parcoll { groups: g }));
        let row = Row::new("ParColl(P/8)", p as f64, r.write_mbps, "MB/s");
        rows.push(row.with("groups", g as f64));
    }
    rows
}

/// Figure 10: BT-IO bandwidth vs (square) process counts, baseline vs
/// ParColl at the default group count
/// ([`ParcollConfig::effective_groups`], and at least 2). `grid`/`steps`
/// choose the class (C: 162/40).
pub fn btio_bandwidth(
    procs: &[usize],
    grid: usize,
    steps: usize,
    cfg: impl Fn(IoMode) -> RunConfig,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let g = ParcollConfig::default().effective_groups(p).max(2);
        for (series, mode) in [
            (BASELINE.to_string(), IoMode::Collective),
            (format!("ParColl-{g}"), IoMode::Parcoll { groups: g }),
        ] {
            let r = run_workload(BtIo::with_grid(p, grid, steps), cfg(mode));
            rows.push(with_phases(
                Row::new(series, p as f64, r.write_mbps, "MB/s"),
                &r,
            ));
        }
    }
    rows
}

/// A run of `make()` under `cfg(mode)` plus an optional hint, as a row
/// of its write bandwidth at `x`.
fn hinted<W: Workload + 'static>(
    make: impl Fn() -> W,
    cfg: impl Fn(IoMode) -> RunConfig,
    x: usize,
) -> impl Fn(String, IoMode, Option<(&str, &str)>) -> Row {
    move |series, mode, hint| {
        let mut c = cfg(mode);
        if let Some((key, value)) = hint {
            c.info.set(key, value);
        }
        Row::new(series, x as f64, run_workload(make(), c).write_mbps, "MB/s")
    }
}

/// Figure 11: Flash-IO checkpoint bandwidth at one process count:
/// baseline and ParColl under the default aggregator selection and under
/// an explicit 64-aggregator hint, plus independent I/O ("Cray w/o
/// Coll").
pub fn flashio_variants(
    nprocs: usize,
    blocks_per_proc: usize,
    groups: usize,
    cfg: impl Fn(IoMode) -> RunConfig,
) -> Vec<Row> {
    let make = || FlashIo {
        blocks_per_proc,
        ..FlashIo::checkpoint(nprocs)
    };
    // Explicit 64 aggregators (the Cray XT practice for very large runs,
    // paper §5.4 citing [33]).
    let agg_list: String = (0..64.min(nprocs))
        .map(|i| (i * (nprocs / 64.min(nprocs))).to_string())
        .collect::<Vec<_>>()
        .join(",");
    let aggs = Some(("cb_config_list", agg_list.as_str()));
    let (base, pc) = (IoMode::Collective, IoMode::Parcoll { groups });
    let run = hinted(make, cfg, nprocs);
    vec![
        run(format!("{BASELINE} (default aggs)"), base, None),
        run(format!("ParColl-{groups} (default aggs)"), pc, None),
        run(format!("{BASELINE} (64 aggs)"), base, aggs),
        run(format!("ParColl-{groups} (64 aggs)"), pc, aggs),
        run("Cray w/o Coll".into(), IoMode::Independent, None),
    ]
}

/// The stripe-alignment ablation: baseline tile-io over `cb_nodes`
/// aggregators (the default when `None`) with even file domains, then
/// with domains aligned to the 4 MiB stripe (the `striping_unit` hint),
/// which keeps each stripe single-writer and halves the chunk requests
/// at domain seams — when the even domains straddle stripes at all.
pub fn stripe_alignment(
    nprocs: usize,
    cb_nodes: Option<usize>,
    full: bool,
    cfg: impl Fn(IoMode) -> RunConfig,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, align) in [
        ("even domains", None),
        ("stripe-aligned domains", Some(4u64 << 20)),
    ] {
        let mut c = cfg(IoMode::Collective);
        if let Some(n) = cb_nodes {
            c.info.set("cb_nodes", n);
        }
        if let Some(a) = align {
            c.info.set("striping_unit", a);
        }
        let r = run_workload(tileio_at(nprocs, full), c);
        rows.push(
            Row::new(
                format!("{BASELINE} ({label})"),
                nprocs as f64,
                r.write_mbps,
                "MB/s",
            )
            .with("fs_requests", r.fs_stats.total_requests as f64)
            .with("mean_req_kb", r.fs_stats.mean_request_bytes() / 1024.0),
        );
    }
    rows
}

/// The intermediate-view ablation (§4.1) on the BT-IO pattern: the
/// baseline, then ParColl with reordering intermediate views (the
/// default: the file is stored in logical order), with
/// physical-layout-preserving scatter, and with view switching disabled
/// (one group). Shows why pattern (c) needs view switching and why the
/// logical layout is the only fast way to materialize it.
pub fn iview_strategies(
    nprocs: usize,
    grid: usize,
    steps: usize,
    groups: usize,
    cfg: impl Fn(IoMode) -> RunConfig,
) -> Vec<Row> {
    let run = hinted(|| BtIo::with_grid(nprocs, grid, steps), cfg, nprocs);
    let pc = IoMode::Parcoll { groups };
    vec![
        run(BASELINE.into(), IoMode::Collective, None),
        run("ParColl (reordering iview)".into(), pc, None),
        run(
            "ParColl (scatter iview)".into(),
            pc,
            Some(("parcoll_iview_scatter", "true")),
        ),
        run(
            "ParColl (view switching off)".into(),
            pc,
            Some(("parcoll_force_iview", "false")),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: Config = &RunConfig::paper;

    fn quick(name: &str) -> Vec<Vec<Row>> {
        sweep(name).unwrap().run(Scale::Quick, PAPER)
    }

    #[test]
    fn every_sweep_fills_each_of_its_files() {
        for s in SWEEPS {
            for (file, rows) in s.files.iter().zip(s.run(Scale::Quick, PAPER)) {
                assert!(!rows.is_empty(), "{}: no rows", file.name);
            }
        }
    }

    #[test]
    fn shared_runs_are_the_primary_files_rows() {
        let wall = quick("fig1_collective_wall");
        for r in wall[2].iter().filter(|r| r.series.contains("pairwise")) {
            let fig1 = wall[0].iter().find(|f| f.x == r.x).unwrap();
            assert_eq!(r.y.to_bits(), fig1.extra["write_mbps"].to_bits());
        }
        let groups = quick("fig7_tileio_groups");
        assert_eq!(groups[1].len(), groups[0].len());
        let fresh = tileio_group_sweep(16, &[1, 4], false, PAPER);
        assert_eq!(groups[2].len(), fresh.len());
        for (shared, fresh) in groups[2].iter().zip(&fresh) {
            assert_eq!(shared.series, "16 procs");
            assert_eq!((shared.x, shared.y.to_bits()), (fresh.x, fresh.y.to_bits()));
        }
    }

    #[test]
    fn collective_wall_rows_have_profile_extras() {
        let rows = collective_wall(&[8, 16], false, PAPER);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.extra.contains_key("sync_s"));
            assert!(r.y >= 0.0 && r.y <= 100.0);
        }
    }

    #[test]
    fn ior_rows_cover_series() {
        let rows = ior_bandwidth(&[16], &[2], 16 << 10, 4 << 10, None, PAPER);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.series == BASELINE));
        assert!(rows.iter().any(|r| r.series == "ParColl-2"));
        assert!(rows.iter().all(|r| r.y > 0.0));
    }

    #[test]
    fn group_sweep_includes_baseline_label() {
        let rows = tileio_group_sweep(8, &[1, 2], false, PAPER);
        assert_eq!(rows[0].series, BASELINE);
        assert_eq!(rows[1].series, "ParColl-2");
        assert!(rows.iter().all(|r| r.extra.contains_key("read_mbps")));
    }

    #[test]
    fn read_sweep_reads_through_narrow_gaps_only() {
        let rows = restart_read_sweep(8, &[1, 2], false, PAPER);
        let series: Vec<&str> = rows.iter().map(|r| r.series.as_str()).collect();
        let panel = ["ParColl-2 8 B elements", "ParColl-2 64 B elements"];
        assert_eq!(series, [BASELINE, "ParColl-2", panel[0], panel[1]]);
        // What the restart read moved through the OSTs beyond the bytes
        // it asked for: the checkpoint writes the whole image once.
        let fetched_holes = |s: &str, elem: u64, den: u64| {
            let row = rows.iter().find(|r| r.series == s).unwrap();
            let mut tile = tileio_at(8, false);
            tile.elem = elem;
            let image = tile.total_bytes();
            row.extra["ost_bytes"] as u64 - image - image / den
        };
        // 12 KiB gaps are wider than Jaguar's 9 750 B break-even gap:
        // list I/O fetches no hole. 1.5 KiB gaps are read through.
        assert_eq!(fetched_holes(BASELINE, 64, 4), 0);
        assert_eq!(fetched_holes("ParColl-2", 64, 4), 0);
        assert!(fetched_holes(panel[0], 8, 4) > 0);
    }

    #[test]
    fn flash_variants_produce_five_series() {
        let rows = flashio_variants(8, 2, 2, PAPER);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().any(|r| r.series == "Cray w/o Coll"));
    }
}
