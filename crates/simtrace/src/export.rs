//! Artifact export: Chrome/Perfetto trace-event JSON, metrics JSON, and
//! the collective-wall attribution derived from rendezvous spans.

use crate::json::Json;
use crate::sink::{ArgValue, Event, Hist, Trace, TrackData, TrackKey};
use std::collections::BTreeMap;

/// Perfetto "process" id used for storage (OST) tracks, far above any
/// plausible node id so the storage lane groups separately from compute.
const STORAGE_PID: u64 = 1_000_000;

/// Perfetto (pid, tid) for a track.
fn track_ids(track: &TrackData) -> (u64, u64) {
    match track.key {
        TrackKey::Rank(r) => (track.node.unwrap_or(0) as u64, r as u64),
        TrackKey::Ost(o) => (STORAGE_PID, o as u64),
    }
}

fn args_json(args: &[(&'static str, ArgValue)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|(k, v)| {
                let value = match v {
                    ArgValue::U64(v) => Json::U64(*v),
                    ArgValue::F64(v) => Json::Num(*v),
                    ArgValue::Str(s) => Json::Str(s.to_string()),
                };
                (k.to_string(), value)
            })
            .collect(),
    )
}

/// The Perfetto metadata events for a set of tracks: `process_name`
/// records in pid order, then one `thread_name` record per track in
/// track order.
fn meta_events_json(tracks: &[TrackData]) -> Vec<Json> {
    let mut thread_metas: Vec<Json> = Vec::new();
    let mut named_processes: BTreeMap<u64, String> = BTreeMap::new();
    for track in tracks {
        let (pid, tid) = track_ids(track);
        let process_name = match track.key {
            TrackKey::Rank(_) => format!("node{}", track.node.unwrap_or(0)),
            TrackKey::Ost(_) => "storage".to_string(),
        };
        named_processes.entry(pid).or_insert(process_name);
        let thread_name = match track.key {
            TrackKey::Rank(r) => format!("rank {r}"),
            TrackKey::Ost(o) => format!("ost {o}"),
        };
        thread_metas.push(Json::Obj(vec![
            ("ph".into(), Json::Str("M".into())),
            ("name".into(), Json::Str("thread_name".into())),
            ("pid".into(), Json::U64(pid)),
            ("tid".into(), Json::U64(tid)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(thread_name))]),
            ),
        ]));
    }
    let mut meta: Vec<Json> = named_processes
        .iter()
        .map(|(pid, name)| {
            Json::Obj(vec![
                ("ph".into(), Json::Str("M".into())),
                ("name".into(), Json::Str("process_name".into())),
                ("pid".into(), Json::U64(*pid)),
                ("tid".into(), Json::U64(0)),
                (
                    "args".into(),
                    Json::Obj(vec![("name".into(), Json::Str(name.clone()))]),
                ),
            ])
        })
        .collect();
    meta.append(&mut thread_metas);
    meta
}

/// One event's Chrome trace-event object.
fn event_json(event: &Event, pid: u64, tid: u64) -> Json {
    match event {
        Event::Span {
            cat,
            name,
            start_us,
            dur_us,
            args,
        } => Json::Obj(vec![
            ("name".into(), Json::Str(name.to_string())),
            ("cat".into(), Json::Str((*cat).to_string())),
            ("ph".into(), Json::Str("X".into())),
            ("ts".into(), Json::Num(*start_us)),
            ("dur".into(), Json::Num(*dur_us)),
            ("pid".into(), Json::U64(pid)),
            ("tid".into(), Json::U64(tid)),
            ("args".into(), args_json(args)),
        ]),
        Event::Instant { cat, name, ts_us, args } => Json::Obj(vec![
            ("name".into(), Json::Str(name.to_string())),
            ("cat".into(), Json::Str((*cat).to_string())),
            ("ph".into(), Json::Str("i".into())),
            ("s".into(), Json::Str("t".into())),
            ("ts".into(), Json::Num(*ts_us)),
            ("pid".into(), Json::U64(pid)),
            ("tid".into(), Json::U64(tid)),
            ("args".into(), args_json(args)),
        ]),
        Event::Counter { name, ts_us, value } => Json::Obj(vec![
            ("name".into(), Json::Str((*name).to_string())),
            ("ph".into(), Json::Str("C".into())),
            ("ts".into(), Json::Num(*ts_us)),
            ("pid".into(), Json::U64(pid)),
            ("tid".into(), Json::U64(tid)),
            (
                "args".into(),
                Json::Obj(vec![("value".into(), Json::Num(*value))]),
            ),
        ]),
    }
}

/// Render a merged trace as Chrome trace-event JSON (the format Perfetto
/// and `chrome://tracing` load): rank → "thread", node → "process",
/// virtual microseconds → `ts`.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut events = meta_events_json(&trace.tracks);
    for track in &trace.tracks {
        let (pid, tid) = track_ids(track);
        for event in &track.events {
            events.push(event_json(event, pid, tid));
        }
    }
    Json::Obj(vec![
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        ("traceEvents".into(), Json::Arr(events)),
    ])
    .pretty()
}

fn hist_json(h: &Hist) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::U64(h.count)),
        ("sum".into(), Json::Num(h.sum)),
        ("min".into(), Json::Num(h.min)),
        ("max".into(), Json::Num(h.max)),
        ("mean".into(), Json::Num(h.mean())),
        (
            "log2_buckets".into(),
            Json::Obj(
                h.buckets
                    .iter()
                    .map(|(b, n)| (b.to_string(), Json::U64(*n)))
                    .collect(),
            ),
        ),
    ])
}

fn span_totals(track: &TrackData) -> BTreeMap<String, f64> {
    let mut totals = BTreeMap::new();
    for event in &track.events {
        if let Event::Span { cat, name, dur_us, .. } = event {
            *totals.entry(format!("{cat}/{name}")).or_insert(0.0) += dur_us;
        }
    }
    totals
}

/// Render the machine-readable metrics document: per-track counters,
/// histogram summaries and span-duration totals, plus cross-track totals.
/// `bench/src/bin/report.rs` folds these into its tables.
pub fn metrics_json(trace: &Trace) -> String {
    let mut total_counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total_hists: BTreeMap<&'static str, Hist> = BTreeMap::new();
    let mut total_spans: BTreeMap<String, f64> = BTreeMap::new();

    let mut tracks_json = Vec::new();
    for track in &trace.tracks {
        for (name, v) in &track.counters {
            *total_counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &track.hists {
            total_hists.entry(name).or_default().merge(h);
        }
        let spans = span_totals(track);
        for (name, us) in &spans {
            *total_spans.entry(name.clone()).or_insert(0.0) += us;
        }

        let mut members: Vec<(String, Json)> = vec![
            ("track".into(), Json::Str(track.key.label())),
        ];
        if let TrackKey::Rank(_) = track.key {
            members.push(("node".into(), Json::U64(track.node.unwrap_or(0) as u64)));
        }
        members.push((
            "counters".into(),
            Json::Obj(
                track
                    .counters
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::U64(*v)))
                    .collect(),
            ),
        ));
        members.push((
            "histograms".into(),
            Json::Obj(
                track
                    .hists
                    .iter()
                    .map(|(k, h)| (k.to_string(), hist_json(h)))
                    .collect(),
            ),
        ));
        members.push((
            "span_totals_us".into(),
            Json::Obj(
                spans
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ));
        tracks_json.push(Json::Obj(members));
    }

    Json::Obj(vec![
        ("kind".into(), Json::Str("simtrace_metrics".into())),
        ("tracks".into(), Json::Arr(tracks_json)),
        (
            "totals".into(),
            Json::Obj(vec![
                (
                    "counters".into(),
                    Json::Obj(
                        total_counters
                            .iter()
                            .map(|(k, v)| (k.to_string(), Json::U64(*v)))
                            .collect(),
                    ),
                ),
                (
                    "histograms".into(),
                    Json::Obj(
                        total_hists
                            .iter()
                            .map(|(k, h)| (k.to_string(), hist_json(h)))
                            .collect(),
                    ),
                ),
                (
                    "span_totals_us".into(),
                    Json::Obj(
                        total_spans
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
    .pretty()
}

/// One global (or subgroup) collective reconstructed from the rendezvous
/// spans every participant carries.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveOp {
    /// Operation name (`barrier`, `allgather`, …).
    pub op: String,
    /// Communicator context id.
    pub ctx: u64,
    /// Rendezvous generation (the per-communicator collective sequence).
    pub seq: u64,
    /// Number of ranks that met at this rendezvous.
    pub participants: u64,
    /// Global rank whose late arrival set the meeting time.
    pub straggler: usize,
    /// Virtual µs at which the last participant arrived.
    pub last_arrival_us: f64,
    /// Largest wait among participants (earliest arrival's delta), µs.
    pub max_wait_us: f64,
    /// Sum of every participant's wait, µs.
    pub total_wait_us: f64,
}

/// Reconstruct every collective op from `rdv` spans, ordered by
/// completion time (then context and sequence for determinism).
pub fn collective_ops(trace: &Trace) -> Vec<CollectiveOp> {
    let mut by_instance: BTreeMap<(u64, u64), CollectiveOp> = BTreeMap::new();
    for track in trace.rank_tracks() {
        for event in &track.events {
            let Event::Span {
                cat: "rdv",
                name,
                start_us,
                dur_us,
                args,
            } = event
            else {
                continue;
            };
            let arg_u64 = |key: &str| {
                args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
                    ArgValue::U64(v) => Some(*v),
                    _ => None,
                })
            };
            let (Some(ctx), Some(seq)) = (arg_u64("ctx"), arg_u64("seq")) else {
                continue;
            };
            let entry = by_instance.entry((ctx, seq)).or_insert_with(|| CollectiveOp {
                op: name.to_string(),
                ctx,
                seq,
                participants: arg_u64("n").unwrap_or(0),
                straggler: arg_u64("straggler").unwrap_or(0) as usize,
                last_arrival_us: start_us + dur_us,
                max_wait_us: 0.0,
                total_wait_us: 0.0,
            });
            entry.max_wait_us = entry.max_wait_us.max(*dur_us);
            entry.total_wait_us += dur_us;
            entry.last_arrival_us = entry.last_arrival_us.max(start_us + dur_us);
        }
    }
    let mut ops: Vec<CollectiveOp> = by_instance.into_values().collect();
    ops.sort_by(|a, b| {
        a.last_arrival_us
            .total_cmp(&b.last_arrival_us)
            .then(a.ctx.cmp(&b.ctx))
            .then(a.seq.cmp(&b.seq))
    });
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{TraceSink, TrackKey};
    use crate::json::Json;

    fn sample_trace() -> Trace {
        let sink = TraceSink::enabled();
        let r0 = sink.recorder_on_node(TrackKey::Rank(0), Some(0));
        let r1 = sink.recorder_on_node(TrackKey::Rank(1), Some(0));
        // rank 1 arrives last -> straggler 1; rank 0 waits 5 µs.
        r0.span(
            "rdv",
            "barrier",
            10.0,
            15.0,
            vec![
                ("ctx", 0u64.into()),
                ("seq", 1u64.into()),
                ("n", 2u64.into()),
                ("straggler", 1u64.into()),
            ],
        );
        r1.span(
            "rdv",
            "barrier",
            15.0,
            15.0,
            vec![
                ("ctx", 0u64.into()),
                ("seq", 1u64.into()),
                ("n", 2u64.into()),
                ("straggler", 1u64.into()),
            ],
        );
        r0.span("phase", "Sync", 10.0, 16.0, vec![]);
        r0.count("coll.calls", 1);
        r0.observe("coll.bytes", 64.0);
        let ost = sink.recorder(TrackKey::Ost(0));
        ost.span("ost", "serve", 20.0, 30.0, vec![("bytes", 4096u64.into())]);
        ost.counter("ost.queue_depth", 20.0, 1.0);
        sink.finish()
    }

    #[test]
    fn chrome_export_is_valid_json_with_metadata() {
        let text = chrome_trace_json(&sample_trace());
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert!(phases.contains(&"M"));
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"C"));
        // Storage process must be present and named.
        let storage = events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("process_name")
                && e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str)
                    == Some("storage")
        });
        assert!(storage);
        // Span events carry µs timestamps and durations.
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert!(span.get("ts").unwrap().as_f64().is_some());
        assert!(span.get("dur").unwrap().as_f64().is_some());
    }

    #[test]
    fn metrics_export_aggregates_totals() {
        let text = metrics_json(&sample_trace());
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("simtrace_metrics"));
        let totals = doc.get("totals").unwrap();
        assert_eq!(
            totals.get("counters").unwrap().get("coll.calls").unwrap().as_u64(),
            Some(1)
        );
        let sync = totals
            .get("span_totals_us")
            .unwrap()
            .get("phase/Sync")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((sync - 6.0).abs() < 1e-9);
        let hist = totals.get("histograms").unwrap().get("coll.bytes").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn collective_ops_attribute_straggler_and_waits() {
        let ops = collective_ops(&sample_trace());
        assert_eq!(ops.len(), 1);
        let op = &ops[0];
        assert_eq!(op.op, "barrier");
        assert_eq!(op.straggler, 1);
        assert_eq!(op.participants, 2);
        assert!((op.max_wait_us - 5.0).abs() < 1e-9);
        assert!((op.total_wait_us - 5.0).abs() < 1e-9);
        assert!((op.last_arrival_us - 15.0).abs() < 1e-9);
    }
}
