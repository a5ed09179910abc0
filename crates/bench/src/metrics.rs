//! Shared folding of simtrace artifacts into report-ready figures.
//!
//! Two consumers need the same folds: `report` renders a persisted
//! metrics document (`trace_metrics.json`) as markdown, and
//! `ost_heatmap` folds a live [`Trace`]'s OST tracks into per-target
//! load lines. Both folds live here so `bench` spells the span and
//! counter names once; the run digest (`simtrace::diff`) reads
//! `ost/serve` spans on its own, for its per-OST and per-round totals.

use simtrace::json::Json;
use simtrace::{Event, Trace, TrackKey};

/// Per-OST figures folded out of one trace track.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct OstLoad {
    /// Total service time, µs (`ost/serve` span durations).
    pub busy_us: f64,
    /// Total queue wait, µs (`ost/queue` span durations).
    pub queue_us: f64,
    /// Requests served (`ost_requests` counter).
    pub requests: u64,
    /// Bytes moved (`ost_req_bytes` histogram sum).
    pub bytes: f64,
}

/// Fold every OST track of a finished trace into per-target loads,
/// indexed by OST id (targets without a track fold to zero).
pub fn ost_loads(trace: &Trace) -> Vec<OstLoad> {
    let mut osts: Vec<OstLoad> = Vec::new();
    for track in trace.ost_tracks() {
        let TrackKey::Ost(i) = track.key else { continue };
        if osts.len() <= i {
            osts.resize(i + 1, OstLoad::default());
        }
        let load = &mut osts[i];
        for event in &track.events {
            if let Event::Span { cat: "ost", name, dur_us, .. } = event {
                match name.as_ref() {
                    "serve" => load.busy_us += dur_us,
                    "queue" => load.queue_us += dur_us,
                    _ => {}
                }
            }
        }
        load.requests = track.counters.get("ost_requests").copied().unwrap_or(0);
        load.bytes = track.hists.get("ost_req_bytes").map_or(0.0, |h| h.sum);
    }
    osts
}

/// Load-distribution summary over a set of per-OST loads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OstSummary {
    /// Busiest target's service time, µs.
    pub max_busy_us: f64,
    /// Mean service time over all targets, µs.
    pub mean_busy_us: f64,
    /// `max / mean` (1.0 = perfectly flat).
    pub imbalance: f64,
    /// Fraction of targets that served at least one request.
    pub breadth: f64,
    /// Mean request size, bytes.
    pub mean_request_bytes: f64,
}

/// Summarize per-OST loads into the imbalance figures the heatmap and
/// the ablation discussions quote.
pub fn summarize_ost_loads(osts: &[OstLoad]) -> OstSummary {
    let max_busy_us = osts.iter().map(|o| o.busy_us).fold(0.0f64, f64::max);
    let mean_busy_us = if osts.is_empty() {
        0.0
    } else {
        osts.iter().map(|o| o.busy_us).sum::<f64>() / osts.len() as f64
    };
    let active = osts.iter().filter(|o| o.requests > 0).count();
    let total_reqs: u64 = osts.iter().map(|o| o.requests).sum();
    let total_bytes: f64 = osts.iter().map(|o| o.bytes).sum();
    OstSummary {
        max_busy_us,
        mean_busy_us,
        imbalance: max_busy_us / mean_busy_us.max(1e-12),
        breadth: active as f64 / osts.len().max(1) as f64,
        mean_request_bytes: total_bytes / (total_reqs.max(1) as f64),
    }
}

/// Render a `simtrace_metrics` JSON document as markdown tables:
/// cross-track counter totals, histogram summaries and span-duration
/// totals. Used by `report` for any `bench_results/*.json` that holds a
/// metrics document instead of figure rows.
pub fn print_metrics_doc(doc: &Json) {
    let Some(totals) = doc.get("totals") else {
        eprintln!("(malformed metrics document: no totals)");
        return;
    };
    if let Some(counters) = totals.get("counters").and_then(Json::as_obj) {
        if !counters.is_empty() {
            println!("| counter | total |");
            println!("|---|---|");
            for (k, v) in counters {
                println!("| {k} | {} |", v.as_u64().unwrap_or(0));
            }
            println!();
        }
    }
    if let Some(hists) = totals.get("histograms").and_then(Json::as_obj) {
        if !hists.is_empty() {
            println!("| histogram | count | mean | min | max |");
            println!("|---|---|---|---|---|");
            for (k, h) in hists {
                let f = |key: &str| h.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "| {k} | {} | {:.1} | {:.1} | {:.1} |",
                    h.get("count").and_then(Json::as_u64).unwrap_or(0),
                    f("mean"),
                    f("min"),
                    f("max"),
                );
            }
            println!();
        }
    }
    if let Some(spans) = totals.get("span_totals_us").and_then(Json::as_obj) {
        if !spans.is_empty() {
            println!("| span | total (µs, all tracks) |");
            println!("|---|---|");
            for (k, v) in spans {
                println!("| {k} | {:.1} |", v.as_f64().unwrap_or(0.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtrace::TraceSink;

    fn ost_trace() -> Trace {
        let sink = TraceSink::enabled();
        let o0 = sink.recorder(TrackKey::Ost(0));
        o0.span("ost", "serve", 0.0, 30.0, vec![]);
        o0.span("ost", "queue", 0.0, 5.0, vec![]);
        o0.count("ost_requests", 3);
        o0.observe("ost_req_bytes", 4096.0);
        o0.observe("ost_req_bytes", 4096.0);
        let o2 = sink.recorder(TrackKey::Ost(2));
        o2.span("ost", "serve", 10.0, 20.0, vec![]);
        o2.count("ost_requests", 1);
        o2.observe("ost_req_bytes", 8192.0);
        sink.finish()
    }

    #[test]
    fn loads_fold_per_target_with_gaps() {
        let osts = ost_loads(&ost_trace());
        assert_eq!(osts.len(), 3);
        assert_eq!(osts[0].busy_us, 30.0);
        assert_eq!(osts[0].queue_us, 5.0);
        assert_eq!(osts[0].requests, 3);
        assert_eq!(osts[0].bytes, 8192.0);
        assert_eq!(osts[1], OstLoad::default());
        assert_eq!(osts[2].busy_us, 10.0);
    }

    #[test]
    fn summary_computes_imbalance_and_breadth() {
        let osts = ost_loads(&ost_trace());
        let s = summarize_ost_loads(&osts);
        assert_eq!(s.max_busy_us, 30.0);
        assert!((s.mean_busy_us - 40.0 / 3.0).abs() < 1e-9);
        assert!((s.imbalance - 30.0 / (40.0 / 3.0)).abs() < 1e-9);
        assert!((s.breadth - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.mean_request_bytes, 16384.0 / 4.0);
    }

    #[test]
    fn metrics_doc_printer_handles_real_documents() {
        let doc = Json::parse(&simtrace::metrics_json(&ost_trace())).unwrap();
        print_metrics_doc(&doc); // must not panic
        print_metrics_doc(&Json::parse("{}").unwrap()); // malformed: no totals
    }
}
