//! `ost_heatmap` — per-OST load distribution for a workload run: busy
//! time, queue wait, bytes, and request counts per target, plus imbalance
//! metrics. The busiest target is what every lock-step round waits for;
//! watching the distribution flatten under ParColl's drifted subgroups
//! shows the mechanism behind the IOR and Flash wins.
//!
//! The per-OST numbers come from the simtrace OST tracks (`ost/serve`
//! and `ost/queue` service intervals, `ost_requests` / `ost_req_bytes`
//! counters) rather than any heatmap-private counting — the same spans a
//! `trace_dump` run renders in Perfetto.
//!
//! With `--timeline [W]`, the run's OST tracks are additionally folded
//! into `W` virtual-time buckets (the `simtrace::series` interval fold)
//! and rendered as one shade-row per target — occupancy over *time*,
//! where the static heatmap only shows totals. A lock-step baseline
//! shows synchronized dark columns; drifted ParColl subgroups smear
//! them out.
//!
//! Usage mirrors `parcoll_sim`: `ost_heatmap <workload> [--procs N]
//! [--mode baseline|parcoll] [--groups G] [--timeline [W]]`.

use bench::{ost_loads, summarize_ost_loads};
use simtrace::{series_from_trace, Event, SeriesConfig, TraceSink, TrackKey};
use workloads::ior::Ior;
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

const USAGE: &str = "usage: ost_heatmap <workload> [--procs N] [--mode baseline|parcoll] \
                     [--groups G] [--timeline [W]]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().cloned().unwrap_or_else(|| "ior".into());
    let value = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .map(|i| args.get(i + 1).map(String::as_str))
    };
    let get = |key: &str, default: usize| -> usize {
        value(key)
            .flatten()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let procs = get("--procs", 128);
    let groups = get("--groups", procs / 8);
    let mode = match value("--mode") {
        None | Some(Some("parcoll")) => IoMode::Parcoll { groups },
        Some(Some("baseline")) => IoMode::Collective,
        Some(_) => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let sink = TraceSink::enabled();
    let mut cfg = RunConfig::paper(mode);
    cfg.trace = sink.clone();
    let r = match workload.as_str() {
        "tileio" => run_workload(TileIo::paper(procs), cfg),
        _ => {
            let w = Ior {
                nprocs: procs,
                block_size: 256 << 20,
                transfer_size: 4 << 20,
                max_calls: Some(16),
            };
            run_workload(w, cfg)
        }
    };
    let trace = sink.finish();

    // Fold each OST track's service intervals and counters.
    let osts = ost_loads(&trace);
    let s = summarize_ost_loads(&osts);

    println!(
        "{workload} {procs} procs {mode:?}: {:.1} MB/s, imbalance {:.2}, breadth {:.0}%, mean req {:.0} KiB",
        r.write_mbps,
        s.imbalance,
        s.breadth * 100.0,
        s.mean_request_bytes / 1024.0
    );
    let scale = s.max_busy_us.max(1e-12);
    println!("per-OST busy time ({} targets, # = busiest):", osts.len());
    for (i, o) in osts.iter().enumerate() {
        let bars = (o.busy_us / scale * 40.0).round() as usize;
        println!(
            "  ost {i:>3} | {:<40} | {:>8.3}s {:>8} reqs {:>9.3}s queued",
            "#".repeat(bars),
            o.busy_us / 1e6,
            o.requests,
            o.queue_us / 1e6,
        );
    }

    if let Some(pos) = args.iter().position(|a| a == "--timeline") {
        let width = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(72usize)
            .max(8);
        print_timeline(&trace, width);
    }
}

/// Render each OST's busy occupancy over virtual time as a shade row,
/// one character per interval of the `simtrace::series` fold.
fn print_timeline(trace: &simtrace::Trace, width: usize) {
    let wall = trace
        .tracks
        .iter()
        .flat_map(|t| t.events.iter())
        .map(Event::end_us)
        .fold(0.0f64, f64::max);
    if wall <= 0.0 {
        println!("timeline: empty trace");
        return;
    }
    let interval = wall / width as f64;
    let series = series_from_trace(trace, SeriesConfig::new(interval));
    const SHADES: &[u8] = b" .:-=+*#%@";
    println!(
        "\nOST busy-occupancy timeline ({} buckets x {:.1} us, ' '=idle '@'=saturated):",
        series.n_intervals, series.interval_us
    );
    for t in &series.tracks {
        let TrackKey::Ost(ost) = t.key else { continue };
        let Some(busy) = t.series.get("ost_busy_us") else {
            continue;
        };
        let row: String = busy
            .iter()
            .map(|us| {
                let occupancy = (us / series.interval_us).clamp(0.0, 1.0);
                let idx = (occupancy * (SHADES.len() - 1) as f64).round() as usize;
                SHADES[idx] as char
            })
            .collect();
        println!("  ost {ost:>3} |{row}|");
    }
}
