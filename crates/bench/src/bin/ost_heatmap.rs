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
//! With `--timeline [W]`, each OST's `ost/serve` spans are additionally
//! spread over `W` virtual-time buckets, proportionally to their overlap,
//! and rendered as one shade-row per target — occupancy over *time*,
//! where the static heatmap only shows totals. A lock-step baseline
//! shows synchronized dark columns; drifted ParColl subgroups smear
//! them out.
//!
//! Usage mirrors `parcoll_sim`: `ost_heatmap [ior|tileio] [--procs N]
//! [--mode baseline|parcoll] [--groups G] [--timeline [W]]`. Anything
//! else — an unknown workload or flag, a value that does not parse —
//! prints the usage line and exits 2 before simulating.

use bench::{ost_loads, summarize_ost_loads};
use simtrace::{Event, TraceSink, TrackKey};
use workloads::ior::Ior;
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

const USAGE: &str = "usage: ost_heatmap [ior|tileio] [--procs N] [--mode baseline|parcoll] \
                     [--groups G] [--timeline [W]]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn number(v: Option<String>) -> usize {
    v.and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or_else(|| usage())
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let workload = match args.next_if(|a| !a.starts_with("--")) {
        None => "ior".to_string(),
        Some(w) if w == "ior" || w == "tileio" => w,
        Some(_) => usage(),
    };
    let (mut procs, mut groups, mut baseline, mut timeline) = (128, None, false, None);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--procs" => procs = number(args.next()),
            "--groups" => groups = Some(number(args.next())),
            "--mode" => match args.next().as_deref() {
                Some("parcoll") => baseline = false,
                Some("baseline") => baseline = true,
                _ => usage(),
            },
            "--timeline" => {
                let width = args.next_if(|a| !a.starts_with("--"));
                let width = width.map_or(Some(72), |w| w.parse().ok());
                timeline = Some(width.unwrap_or_else(|| usage()).max(8));
            }
            _ => usage(),
        }
    }
    let groups = groups.unwrap_or(procs / 8);
    let mode = if baseline {
        IoMode::Collective
    } else {
        IoMode::Parcoll { groups }
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

    if let Some(width) = timeline {
        print_timeline(&trace, width);
    }
}

/// Render each OST's busy occupancy over virtual time as a shade row:
/// every `ost/serve` span spread over the buckets it overlaps, in
/// proportion to the overlap.
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
    let interval = (wall / width as f64).max(1.0);
    let n = ((wall / interval).ceil() as usize).max(1);
    let bucket = |t: f64| ((t / interval) as usize).min(n - 1);
    const SHADES: &[u8] = b" .:-=+*#%@";
    println!(
        "\nOST busy-occupancy timeline ({n} buckets x {interval:.1} us, ' '=idle '@'=saturated):"
    );
    for t in &trace.tracks {
        let TrackKey::Ost(ost) = t.key else { continue };
        let mut busy: Option<Vec<f64>> = None;
        for event in &t.events {
            let Event::Span { cat: "ost", name, start_us, dur_us, .. } = event else { continue };
            if name != "serve" {
                continue;
            }
            let busy = busy.get_or_insert_with(|| vec![0.0; n]);
            let (start, end) = (*start_us, start_us + dur_us);
            let dur = end - start;
            if dur <= 0.0 || *dur_us == 0.0 {
                // Zero-length activity lands wholly in its start bucket.
                busy[bucket(start)] += dur_us;
                continue;
            }
            let last = bucket(end.min(wall).max(start));
            for (i, b) in busy.iter_mut().enumerate().take(last + 1).skip(bucket(start)) {
                let lo = i as f64 * interval;
                let overlap = end.min(lo + interval) - start.max(lo);
                if overlap > 0.0 {
                    *b += dur_us * overlap / dur;
                }
            }
        }
        let Some(busy) = busy else { continue };
        let row: String = busy
            .iter()
            .map(|us| {
                let occupancy = (us / interval).clamp(0.0, 1.0);
                let idx = (occupancy * (SHADES.len() - 1) as f64).round() as usize;
                SHADES[idx] as char
            })
            .collect();
        println!("  ost {ost:>3} |{row}|");
    }
}
