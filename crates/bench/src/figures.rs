//! Sweep functions behind each figure binary.
//!
//! Each function runs the relevant workload through
//! [`workloads::runner::run_workload`] and returns [`Row`]s shaped like
//! the paper's series. The binaries only choose parameters and print.

use crate::table::Row;
use workloads::btio::BtIo;
use workloads::flashio::FlashIo;
use workloads::ior::Ior;
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

/// Baseline series label: our ext2ph stands in for Cray's MPI-IO, as the
/// paper's OPAL library did ("comparable performance", §2.2).
pub const BASELINE: &str = "Cray/ext2ph";

/// A tile-io instance scaled for the requested process count; `full`
/// selects the paper's 1024x768x64B tiles, otherwise a 16x smaller tile
/// with identical structure.
pub fn tileio_at(nprocs: usize, full: bool) -> TileIo {
    if full {
        TileIo::paper(nprocs)
    } else {
        let (ntx, nty) = TileIo::near_square_grid(nprocs);
        TileIo {
            ntx,
            nty,
            tile_x: 256,
            tile_y: 192,
            elem: 64,
        }
    }
}

/// Figures 1 & 2: profile MPI-Tile-IO collective writes under the
/// baseline protocol across process counts. Returns, per process count,
/// the average per-rank seconds in sync / p2p / io and the sync share.
pub fn collective_wall(procs: &[usize], full: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let w = tileio_at(p, full);
        let r = run_workload(w, RunConfig::paper(IoMode::Collective));
        let total =
            r.profile_avg.sync + r.profile_avg.p2p + r.profile_avg.io + r.profile_avg.local;
        let frac = if total.as_secs() > 0.0 {
            r.profile_avg.sync.as_secs() / total.as_secs() * 100.0
        } else {
            0.0
        };
        rows.push(
            Row::new("sync-share", p as f64, frac, "%")
                .with("sync_s", r.profile_avg.sync.as_secs())
                .with("p2p_s", r.profile_avg.p2p.as_secs())
                .with("io_s", r.profile_avg.io.as_secs())
                .with("local_s", r.profile_avg.local.as_secs())
                .with("write_mbps", r.write_mbps),
        );
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
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let make = || Ior {
            nprocs: p,
            block_size: block,
            transfer_size: transfer,
            max_calls,
        };
        let base = run_workload(make(), RunConfig::paper(IoMode::Collective));
        rows.push(Row::new(BASELINE, p as f64, base.write_mbps, "MB/s"));
        for &g in group_counts {
            if g > p / 8 {
                continue; // paper: least group size of 8
            }
            let r = run_workload(make(), RunConfig::paper(IoMode::Parcoll { groups: g }));
            rows.push(Row::new(format!("ParColl-{g}"), p as f64, r.write_mbps, "MB/s"));
        }
    }
    rows
}

/// Figures 7 & 8: MPI-Tile-IO bandwidth and synchronization cost vs
/// subgroup count at a fixed process count. Group count 1 is the
/// baseline.
pub fn tileio_group_sweep(nprocs: usize, group_counts: &[usize], full: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &g in group_counts {
        let mode = if g <= 1 {
            IoMode::Collective
        } else {
            IoMode::Parcoll { groups: g }
        };
        let mut cfg = RunConfig::paper(mode);
        cfg.read_back = true;
        // Visualization output is consumed by external tools, so the
        // on-disk layout must stay canonical: if over-partitioning forces
        // an intermediate view, it must scatter through the original view
        // rather than reorder the file. This is what makes extreme group
        // counts collapse (paper Figure 7).
        cfg.info.set("parcoll_iview_scatter", "true");
        let r = run_workload(tileio_at(nprocs, full), cfg);
        let series = if g <= 1 {
            BASELINE.to_string()
        } else {
            format!("ParColl-{g}")
        };
        rows.push(
            Row::new(series, g as f64, r.write_mbps, "MB/s")
                .with("read_mbps", r.read_mbps.unwrap_or(0.0))
                .with("sync_s_avg", r.profile_avg.sync.as_secs())
                .with("sync_s_max", r.profile_max.sync.as_secs())
                .with(
                    "sync_ratio",
                    r.profile_avg.sync.as_secs()
                        / (r.profile_avg.sync + r.profile_avg.p2p + r.profile_avg.io)
                            .as_secs()
                            .max(1e-12),
                ),
        );
    }
    rows
}

/// The read sweep (fig6-style counterpart for `read_at_all`, DESIGN.md
/// §15): restart read bandwidth of the hole-dense checkpoint-restart
/// pattern — a quarter of every tile row read back, 75 % holes — vs
/// subgroup count, baseline vs ParColl-N. Then the hole-geometry panel
/// at the largest group count: the same tiles with 8 B elements at den 4
/// and 64 B elements at den 2 (exactly 50 % holes), so the gaps
/// (`gap_bytes`) fall on both sides of the file system's break-even gap —
/// a series per element size, x the denominator.
pub fn restart_read_sweep(nprocs: usize, group_counts: &[usize], full: bool) -> Vec<Row> {
    use workloads::restart::{run_restart, Restart};
    let read = |groups: usize, suffix: &str, x: usize, w: Restart| {
        let (series, mode) = match groups {
            0 | 1 => (BASELINE.to_string(), IoMode::Collective),
            g => (format!("ParColl-{g}"), IoMode::Parcoll { groups: g }),
        };
        let gap = (w.tile.tile_x - w.tile.tile_x / w.den) as u64 * w.tile.elem;
        let r = run_restart(w, RunConfig::paper(mode));
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
/// ParColl at its best group count per process count.
pub fn tileio_scalability(
    procs: &[usize],
    groups_for: impl Fn(usize) -> usize,
    full: bool,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let base = run_workload(tileio_at(p, full), RunConfig::paper(IoMode::Collective));
        rows.push(Row::new(BASELINE, p as f64, base.write_mbps, "MB/s"));
        let g = groups_for(p).max(2);
        let r = run_workload(
            tileio_at(p, full),
            RunConfig::paper(IoMode::Parcoll { groups: g }),
        );
        rows.push(
            Row::new("ParColl(best)", p as f64, r.write_mbps, "MB/s").with("groups", g as f64),
        );
    }
    rows
}

/// Figure 10: BT-IO bandwidth vs (square) process counts, baseline vs
/// ParColl. `grid`/`steps` choose the class (C: 162/40).
pub fn btio_bandwidth(procs: &[usize], grid: usize, steps: usize, groups: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in procs {
        let make = || BtIo::with_grid(p, grid, steps);
        let base = run_workload(make(), RunConfig::paper(IoMode::Collective));
        rows.push(
            Row::new(BASELINE, p as f64, base.write_mbps, "MB/s")
                .with("sync_s", base.profile_avg.sync.as_secs())
                .with("p2p_s", base.profile_avg.p2p.as_secs())
                .with("io_s", base.profile_avg.io.as_secs())
                .with("local_s", base.profile_avg.local.as_secs()),
        );
        let g = groups.min(p / 8).max(2);
        let r = run_workload(make(), RunConfig::paper(IoMode::Parcoll { groups: g }));
        rows.push(
            Row::new(format!("ParColl-{g}"), p as f64, r.write_mbps, "MB/s")
                .with("sync_s", r.profile_avg.sync.as_secs())
                .with("p2p_s", r.profile_avg.p2p.as_secs())
                .with("io_s", r.profile_avg.io.as_secs())
                .with("local_s", r.profile_avg.local.as_secs()),
        );
    }
    rows
}

/// Figure 11: Flash-IO checkpoint bandwidth at one process count:
/// baseline and ParColl under the default aggregator selection and under
/// an explicit 64-aggregator hint, plus independent I/O ("Cray w/o
/// Coll").
pub fn flashio_variants(nprocs: usize, blocks_per_proc: usize, groups: usize) -> Vec<Row> {
    let make = || {
        let mut w = FlashIo::checkpoint(nprocs);
        w.blocks_per_proc = blocks_per_proc;
        w
    };
    let mut rows = Vec::new();

    let base = run_workload(make(), RunConfig::paper(IoMode::Collective));
    rows.push(Row::new(format!("{BASELINE} (default aggs)"), nprocs as f64, base.write_mbps, "MB/s"));

    let pc = run_workload(make(), RunConfig::paper(IoMode::Parcoll { groups }));
    rows.push(Row::new(
        format!("ParColl-{groups} (default aggs)"),
        nprocs as f64,
        pc.write_mbps,
        "MB/s",
    ));

    // Explicit 64 aggregators (the Cray XT practice for very large runs,
    // paper §5.4 citing [33]).
    let agg_list: String = (0..64.min(nprocs))
        .map(|i| (i * (nprocs / 64.min(nprocs))).to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut cfg = RunConfig::paper(IoMode::Collective);
    cfg.info.set("cb_config_list", &agg_list);
    let base64 = run_workload(make(), cfg);
    rows.push(Row::new(format!("{BASELINE} (64 aggs)"), nprocs as f64, base64.write_mbps, "MB/s"));

    let mut cfg = RunConfig::paper(IoMode::Parcoll { groups });
    cfg.info.set("cb_config_list", &agg_list);
    let pc64 = run_workload(make(), cfg);
    rows.push(Row::new(
        format!("ParColl-{groups} (64 aggs)"),
        nprocs as f64,
        pc64.write_mbps,
        "MB/s",
    ));

    let ind = run_workload(make(), RunConfig::paper(IoMode::Independent));
    rows.push(Row::new("Cray w/o Coll", nprocs as f64, ind.write_mbps, "MB/s"));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Workload;

    #[test]
    fn collective_wall_rows_have_profile_extras() {
        let rows = collective_wall(&[8, 16], false);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.extra.contains_key("sync_s"));
            assert!(r.y >= 0.0 && r.y <= 100.0);
        }
    }

    #[test]
    fn ior_rows_cover_series() {
        let rows = ior_bandwidth(&[16], &[2], 16 << 10, 4 << 10, None);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.series == BASELINE));
        assert!(rows.iter().any(|r| r.series == "ParColl-2"));
        assert!(rows.iter().all(|r| r.y > 0.0));
    }

    #[test]
    fn group_sweep_includes_baseline_label() {
        let rows = tileio_group_sweep(8, &[1, 2], false);
        assert_eq!(rows[0].series, BASELINE);
        assert_eq!(rows[1].series, "ParColl-2");
        assert!(rows.iter().all(|r| r.extra.contains_key("read_mbps")));
    }

    #[test]
    fn read_sweep_reads_through_narrow_gaps_only() {
        let rows = restart_read_sweep(8, &[1, 2], false);
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
        let rows = flashio_variants(8, 2, 2);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().any(|r| r.series == "Cray w/o Coll"));
    }
}
