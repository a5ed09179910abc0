//! Interval'd time-series folded from trace events.
//!
//! A full event trace answers "what happened at t" but costs O(events)
//! to hold; most regression questions only need "how busy was OST 6
//! around t". This module folds a track's events onto a fixed grid of
//! virtual-time buckets, turning an arbitrarily long run into
//! O(intervals) numbers per named series:
//!
//! * **OST tracks** — `ost_busy_us` and `ost_queue_wait_us` (span time
//!   distributed proportionally over the buckets it overlaps),
//!   `ost_bandwidth_mbps` (served bytes per bucket over bucket length;
//!   1 B/µs ≡ 1 decimal MB/s), and the per-bucket maximum of every
//!   counter sample (`ost_queue_depth`, `ost_backlog_us`).
//! * **Rank tracks** — `phase/<name>` occupancy per bucket plus the
//!   per-bucket maximum of counter samples (`mailbox_depth`,
//!   `autotune_groups`).
//!
//! Determinism: every fold runs over a track's events in their
//! deterministic merge order (rank tracks keep append order, OST tracks
//! are content-sorted first — see [`crate::TraceSink::finish`]), so the
//! f64 summation order is fixed and a [`TimeSeries`] is bit-reproducible
//! across reruns of the same configuration.

use crate::sink::{Event, Trace, TrackKey};
use std::collections::BTreeMap;

/// Folding parameters.
#[derive(Debug, Clone, Copy)]
pub struct SeriesConfig {
    /// Bucket width, virtual µs.
    pub interval_us: f64,
}

impl SeriesConfig {
    /// A config with the given bucket width (clamped to ≥ 1 µs).
    pub fn new(interval_us: f64) -> Self {
        SeriesConfig {
            interval_us: interval_us.max(1.0),
        }
    }
}

impl Default for SeriesConfig {
    /// 1 ms buckets — fine enough to see rounds, coarse enough that a
    /// paper-scale run stays a few thousand points per series.
    fn default() -> Self {
        SeriesConfig { interval_us: 1000.0 }
    }
}

/// The folded series of one track.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSeries {
    /// Which rank or OST the series describe.
    pub key: TrackKey,
    /// Named series, each `n_intervals` long.
    pub series: BTreeMap<String, Vec<f64>>,
}

/// All tracks folded onto one shared bucket grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Bucket width, µs.
    pub interval_us: f64,
    /// Number of buckets (`ceil(wall / interval)`, at least 1).
    pub n_intervals: usize,
    /// The wall the grid covers, µs.
    pub wall_us: f64,
    /// Per-track folded series, ranks first then OSTs.
    pub tracks: Vec<TrackSeries>,
}

impl TimeSeries {
    /// Distribute `amount` over the buckets `[start_us, end_us)` overlaps,
    /// proportionally to the overlap.
    fn spread(&self, buckets: &mut [f64], start_us: f64, end_us: f64, amount: f64) {
        let dur = end_us - start_us;
        if dur <= 0.0 || amount == 0.0 {
            // Zero-length activity lands wholly in its start bucket.
            if amount != 0.0 {
                let i = self.bucket(start_us);
                buckets[i] += amount;
            }
            return;
        }
        let first = self.bucket(start_us);
        let last = self.bucket(end_us.min(self.wall_us).max(start_us));
        for (i, b) in buckets.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = i as f64 * self.interval_us;
            let hi = lo + self.interval_us;
            let overlap = end_us.min(hi) - start_us.max(lo);
            if overlap > 0.0 {
                *b += amount * overlap / dur;
            }
        }
    }

    fn bucket(&self, t: f64) -> usize {
        ((t / self.interval_us) as usize).min(self.n_intervals - 1)
    }

    /// Fold one track's events (in deterministic order) into the grid;
    /// `None` when the track has nothing to fold.
    fn fold_track(&self, key: TrackKey, events: &[Event]) -> Option<TrackSeries> {
        let n = self.n_intervals;
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let buckets = |name: String, series: &mut BTreeMap<String, Vec<f64>>| {
            // Closure-shaped entry() to satisfy the borrow checker below.
            series.entry(name).or_insert_with(|| vec![0.0; n]);
        };
        let is_ost = matches!(key, TrackKey::Ost(_));
        let mut bytes: Vec<f64> = Vec::new();
        for event in events {
            match event {
                Event::Span {
                    cat,
                    name,
                    start_us,
                    dur_us,
                    args,
                } => {
                    let end = start_us + dur_us;
                    match (*cat, is_ost) {
                        ("ost", true) if name == "serve" => {
                            buckets("ost_busy_us".into(), &mut series);
                            let b = series.get_mut("ost_busy_us").expect("just inserted");
                            self.spread(b, *start_us, end, *dur_us);
                            if let Some(v) = arg_f64(args, "bytes") {
                                if bytes.is_empty() {
                                    bytes = vec![0.0; n];
                                }
                                self.spread(&mut bytes, *start_us, end, v);
                            }
                        }
                        ("ost", true) if name == "queue" => {
                            buckets("ost_queue_wait_us".into(), &mut series);
                            let b = series.get_mut("ost_queue_wait_us").expect("just inserted");
                            self.spread(b, *start_us, end, *dur_us);
                        }
                        ("phase", false) => {
                            let key = format!("phase/{name}");
                            buckets(key.clone(), &mut series);
                            let b = series.get_mut(&key).expect("just inserted");
                            self.spread(b, *start_us, end, *dur_us);
                        }
                        _ => {}
                    }
                }
                Event::Counter { name, ts_us, value } => {
                    // Counters fold as the per-bucket sample maximum —
                    // right for depth/backlog gauges, harmless for the
                    // (monotone within an epoch) autotune group count.
                    buckets((*name).into(), &mut series);
                    let b = series.get_mut(*name).expect("just inserted");
                    let i = self.bucket(*ts_us);
                    b[i] = b[i].max(*value);
                }
                Event::Instant { .. } => {}
            }
        }
        if !bytes.is_empty() {
            let mbps: Vec<f64> = bytes.iter().map(|b| b / self.interval_us).collect();
            series.insert("ost_bandwidth_mbps".into(), mbps);
        }
        (!series.is_empty()).then_some(TrackSeries { key, series })
    }
}

fn arg_f64(args: &[(&'static str, crate::sink::ArgValue)], key: &str) -> Option<f64> {
    args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
        crate::sink::ArgValue::F64(v) => Some(*v),
        crate::sink::ArgValue::U64(v) => Some(*v as f64),
        _ => None,
    })
}

/// Fold a finished trace onto a grid covering its latest event end.
pub fn series_from_trace(trace: &Trace, cfg: SeriesConfig) -> TimeSeries {
    let wall = trace
        .tracks
        .iter()
        .flat_map(|t| t.events.iter())
        .map(Event::end_us)
        .fold(0.0, f64::max);
    let n = (wall / cfg.interval_us).ceil() as usize;
    let mut ts = TimeSeries {
        interval_us: cfg.interval_us,
        n_intervals: n.max(1),
        wall_us: wall,
        tracks: Vec::new(),
    };
    ts.tracks = trace
        .tracks
        .iter()
        .filter_map(|t| ts.fold_track(t.key, &t.events))
        .collect();
    ts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;

    fn sample() -> Trace {
        let sink = TraceSink::enabled();
        let r0 = sink.recorder(TrackKey::Rank(0));
        r0.span("phase", "io", 0.0, 15.0, vec![]);
        r0.span("phase", "sync", 15.0, 20.0, vec![]);
        r0.counter("mailbox_depth", 3.0, 2.0);
        r0.counter("mailbox_depth", 7.0, 5.0);
        let ost = sink.recorder(TrackKey::Ost(0));
        ost.span("ost", "serve", 5.0, 25.0, vec![("bytes", 2000u64.into())]);
        ost.span("ost", "queue", 2.0, 5.0, vec![]);
        ost.counter("ost_queue_depth", 6.0, 3.0);
        sink.finish()
    }

    #[test]
    fn spans_spread_proportionally() {
        let ts = series_from_trace(&sample(), SeriesConfig::new(10.0));
        assert_eq!(ts.n_intervals, 3); // wall 25 µs, 10 µs buckets
        let rank = &ts.tracks[0];
        assert_eq!(rank.key, TrackKey::Rank(0));
        assert_eq!(rank.series["phase/io"], vec![10.0, 5.0, 0.0]);
        assert_eq!(rank.series["phase/sync"], vec![0.0, 5.0, 0.0]);
        // Counter folds to per-bucket max.
        assert_eq!(rank.series["mailbox_depth"], vec![5.0, 0.0, 0.0]);
        let ost = &ts.tracks[1];
        assert_eq!(ost.series["ost_busy_us"], vec![5.0, 10.0, 5.0]);
        assert_eq!(ost.series["ost_queue_wait_us"], vec![3.0, 0.0, 0.0]);
        // 2000 B over [5,25): 500/1000/500 B per bucket, /10 µs each.
        assert_eq!(ost.series["ost_bandwidth_mbps"], vec![50.0, 100.0, 50.0]);
        assert_eq!(ost.series["ost_queue_depth"], vec![3.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_trace_folds_to_one_empty_interval() {
        let ts = series_from_trace(&TraceSink::enabled().finish(), SeriesConfig::default());
        assert_eq!(ts.n_intervals, 1);
        assert!(ts.tracks.is_empty());
    }
}
