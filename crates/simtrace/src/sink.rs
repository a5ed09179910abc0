//! Trace collection: per-track recorders feeding a shared sink.
//!
//! Each simulated rank (and each OST) owns a *track*: an append-only
//! buffer of timeline events plus monotone metrics (counters and log2
//! histograms). A rank appends to its own track through a cached
//! [`Recorder`], so the per-event cost is a `RefCell` borrow and a push:
//! every rank of a cluster is a fiber on the thread that owns the sink,
//! which is `Rc`-shared and cannot leave it. Cross-track writes exist for
//! exactly one reason: a rendezvous combiner (which runs on the *last* arriving
//! participant while every other participant is parked inside the same
//! rendezvous) attributes the collective wall to every waiter. Because
//! those waiters are blocked for the duration, the combiner's appends land
//! at a deterministic position in each waiter's buffer, which is what
//! makes the merged trace reproducible run-to-run.
//!
//! The sink is **disabled by default** and every recording method returns
//! immediately after one branch in that state, so instrumented release
//! builds measure the same virtual and host times as uninstrumented ones.
//!
//! An enabled sink holds every event in memory until
//! [`TraceSink::finish`]; the paper-scale `critical_path` run traces
//! 128 ranks this way well inside the suite's memory budget.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Identifies one timeline in the trace. `Rank` tracks order before `Ost`
/// tracks in the merged output (derived `Ord` on variant order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrackKey {
    /// An MPI rank (global rank id).
    Rank(usize),
    /// An object storage target in the simulated file system.
    Ost(usize),
}

impl TrackKey {
    /// Stable short name used in metrics JSON ("rank3", "ost0").
    pub fn label(&self) -> String {
        match self {
            TrackKey::Rank(r) => format!("rank{r}"),
            TrackKey::Ost(o) => format!("ost{o}"),
        }
    }
}

/// A typed argument attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (ranks, counts, byte totals).
    U64(u64),
    /// A float (times, ratios).
    F64(f64),
    /// A label; borrowed when `'static`, owned otherwise.
    Str(Cow<'static, str>),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(Cow::Owned(v))
    }
}

/// The `U64` argument named `key`, if the event carries one.
pub(crate) fn arg_u64(args: &[(&'static str, ArgValue)], key: &str) -> Option<u64> {
    args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
        ArgValue::U64(v) => Some(*v),
        _ => None,
    })
}

/// One timeline event. All timestamps are **virtual microseconds**.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A closed interval of activity.
    Span {
        /// Category (`"phase"`, `"rdv"`, `"ost"`, …) — the coarse filter.
        cat: &'static str,
        /// Event name within the category.
        name: Cow<'static, str>,
        /// Interval start, virtual µs.
        start_us: f64,
        /// Interval length, µs (clamped non-negative).
        dur_us: f64,
        /// Typed key/value annotations.
        args: Vec<(&'static str, ArgValue)>,
    },
    /// A point event.
    Instant {
        /// Category, as for spans.
        cat: &'static str,
        /// Event name within the category.
        name: Cow<'static, str>,
        /// Timestamp, virtual µs.
        ts_us: f64,
        /// Typed key/value annotations.
        args: Vec<(&'static str, ArgValue)>,
    },
    /// A sampled counter value (rendered as a counter track in Perfetto).
    Counter {
        /// Counter name.
        name: &'static str,
        /// Sample timestamp, virtual µs.
        ts_us: f64,
        /// Sampled value.
        value: f64,
    },
}

/// The deterministic content order for OST-track events: OSTs are
/// served by many ranks, so append order reflects the order the host
/// ran them in; sorting by `(ts, dur/value, name, args)` erases it.
fn ost_event_cmp(a: &Event, b: &Event) -> std::cmp::Ordering {
    let (at, ad, an, ah) = a.sort_key();
    let (bt, bd, bn, bh) = b.sort_key();
    at.total_cmp(&bt)
        .then(ad.total_cmp(&bd))
        .then(an.cmp(bn))
        .then(ah.cmp(&bh))
}

impl Event {
    /// Latest virtual µs the event touches: a span's end, an instant's
    /// or counter sample's timestamp.
    pub fn end_us(&self) -> f64 {
        match self {
            Event::Span { start_us, dur_us, .. } => start_us + dur_us,
            Event::Instant { ts_us, .. } | Event::Counter { ts_us, .. } => *ts_us,
        }
    }

    fn sort_key(&self) -> (f64, f64, &str, u64) {
        match self {
            Event::Span {
                name,
                start_us,
                dur_us,
                args,
                ..
            } => (*start_us, *dur_us, name, args_fingerprint(args)),
            Event::Instant { name, ts_us, args, .. } => (*ts_us, 0.0, name, args_fingerprint(args)),
            Event::Counter { name, ts_us, value } => (*ts_us, *value, name, 0),
        }
    }
}

fn args_fingerprint(args: &[(&'static str, ArgValue)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (k, v) in args {
        mix(k.as_bytes());
        match v {
            ArgValue::U64(v) => mix(&v.to_le_bytes()),
            ArgValue::F64(v) => mix(&v.to_bits().to_le_bytes()),
            ArgValue::Str(s) => mix(s.as_bytes()),
        }
    }
    h
}

/// Log2-bucketed histogram of non-negative observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// bucket `b` counts observations with `floor(log2(v)) == b` (v >= 1);
    /// observations below 1 land in bucket `-1`.
    pub buckets: BTreeMap<i32, u64>,
}

impl Hist {
    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let bucket = if v < 1.0 { -1 } else { v.log2().floor() as i32 };
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fold another histogram into this one (used by the track merge).
    pub fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, n) in &other.buckets {
            *self.buckets.entry(*b).or_insert(0) += n;
        }
    }
}

#[derive(Debug, Default)]
struct TrackBuf {
    node: Option<usize>,
    events: Vec<Event>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist>,
}

#[derive(Debug, Default)]
struct Shared {
    tracks: RefCell<BTreeMap<TrackKey, Rc<RefCell<TrackBuf>>>>,
}

impl Shared {
    fn track(&self, key: TrackKey) -> Rc<RefCell<TrackBuf>> {
        Rc::clone(self.tracks.borrow_mut().entry(key).or_default())
    }
}

/// Append one event to a track.
fn record(buf: &RefCell<TrackBuf>, event: Event) {
    // hostprof: tracing overhead is self-measured.
    let _hp = crate::host::scope(crate::host::Site::TraceRecord);
    buf.borrow_mut().events.push(event);
}

/// Shared handle to a trace collection. Cheap to clone; disabled by
/// default, in which case every operation is a no-op after one branch.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    shared: Option<Rc<Shared>>,
}

impl TraceSink {
    /// The no-op sink (also what `Default` yields).
    pub fn disabled() -> Self {
        TraceSink { shared: None }
    }

    /// A live sink collecting events and metrics.
    pub fn enabled() -> Self {
        TraceSink {
            shared: Some(Rc::new(Shared::default())),
        }
    }

    /// A cached recorder appending to `key`'s track.
    pub fn recorder(&self, key: TrackKey) -> Recorder {
        self.recorder_on_node(key, None)
    }

    /// A recorder that also tags the track with the node hosting it
    /// (becomes the Perfetto "process" of a rank track).
    pub fn recorder_on_node(&self, key: TrackKey, node: Option<usize>) -> Recorder {
        let buf = self.shared.as_ref().map(|shared| shared.track(key));
        if let (Some(buf), Some(_)) = (&buf, node) {
            buf.borrow_mut().node = node;
        }
        Recorder { buf }
    }

    /// Append an event to an arbitrary track (the cross-track path used
    /// by rendezvous combiners; see module docs for why this stays
    /// deterministic).
    pub fn append(&self, key: TrackKey, event: Event) {
        if let Some(shared) = &self.shared {
            record(&shared.track(key), event);
        }
    }

    /// Record a histogram observation on an arbitrary track.
    pub fn observe(&self, key: TrackKey, name: &'static str, value: f64) {
        if let Some(shared) = &self.shared {
            shared
                .track(key)
                .borrow_mut()
                .hists
                .entry(name)
                .or_default()
                .observe(value);
        }
    }

    /// Snapshot and deterministically merge everything recorded so far.
    ///
    /// Rank tracks keep their (already deterministic) append order; OST
    /// tracks are served by many ranks, so their events are sorted by
    /// `(start, duration, name, args)` to erase host order from the
    /// output.
    pub fn finish(&self) -> Trace {
        let Some(shared) = &self.shared else {
            return Trace { tracks: Vec::new() };
        };
        let tracks = shared.tracks.borrow();
        let mut out = Vec::with_capacity(tracks.len());
        for (key, buf) in tracks.iter() {
            let buf = buf.borrow();
            let mut events = buf.events.clone();
            if matches!(key, TrackKey::Ost(_)) {
                events.sort_by(ost_event_cmp);
            }
            out.push(TrackData {
                key: *key,
                node: buf.node,
                events,
                counters: buf.counters.clone(),
                hists: buf.hists.clone(),
            });
        }
        Trace { tracks: out }
    }
}

/// Per-track recording handle cached by the rank (or OST) that owns the
/// track.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    buf: Option<Rc<RefCell<TrackBuf>>>,
}

impl Recorder {
    /// A recorder that drops everything (what a disabled sink hands out).
    pub fn disabled() -> Self {
        Recorder { buf: None }
    }

    /// True when recording; callers use this to skip building arguments
    /// on hot paths.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Record a closed span `[start_us, end_us]` (virtual microseconds).
    pub fn span(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        start_us: f64,
        end_us: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(buf) = &self.buf {
            record(
                buf,
                Event::Span {
                    cat,
                    name: name.into(),
                    start_us,
                    dur_us: (end_us - start_us).max(0.0),
                    args,
                },
            );
        }
    }

    /// Record a point event.
    pub fn instant(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        ts_us: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(buf) = &self.buf {
            record(
                buf,
                Event::Instant {
                    cat,
                    name: name.into(),
                    ts_us,
                    args,
                },
            );
        }
    }

    /// Record a counter sample (timeline event).
    pub fn counter(&self, name: &'static str, ts_us: f64, value: f64) {
        if let Some(buf) = &self.buf {
            record(buf, Event::Counter { name, ts_us, value });
        }
    }

    /// Add to a monotone metrics counter (no timeline event).
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(buf) = &self.buf {
            *buf.borrow_mut().counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Record a histogram observation (no timeline event).
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(buf) = &self.buf {
            buf.borrow_mut()
                .hists
                .entry(name)
                .or_default()
                .observe(value);
        }
    }
}

/// One merged track: its events in deterministic order plus its metrics.
#[derive(Debug, Clone)]
pub struct TrackData {
    /// Which rank or OST this track belongs to.
    pub key: TrackKey,
    /// Physical node hosting the rank, when known (groups Perfetto rows).
    pub node: Option<usize>,
    /// Timeline events in deterministic merge order.
    pub events: Vec<Event>,
    /// Monotone counters, by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Histograms, by name.
    pub hists: BTreeMap<&'static str, Hist>,
}

impl TrackData {
    /// Sum of span durations matching `cat` (and `name`, if given), in µs.
    pub fn span_total_us(&self, cat: &str, name: Option<&str>) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Span {
                    cat: c,
                    name: n,
                    dur_us,
                    ..
                } if *c == cat && name.is_none_or(|want| n == want) => Some(*dur_us),
                _ => None,
            })
            .sum()
    }
}

/// A deterministic snapshot of everything the sink collected.
#[derive(Debug, Clone)]
pub struct Trace {
    /// All tracks, ranks first (ascending), then OSTs (ascending).
    pub tracks: Vec<TrackData>,
}

impl Trace {
    /// The track for `key`, if it recorded anything.
    pub fn track(&self, key: TrackKey) -> Option<&TrackData> {
        self.tracks.iter().find(|t| t.key == key)
    }

    /// All per-rank tracks, in rank order.
    pub fn rank_tracks(&self) -> impl Iterator<Item = &TrackData> {
        self.tracks
            .iter()
            .filter(|t| matches!(t.key, TrackKey::Rank(_)))
    }

    /// All per-OST tracks, in OST order.
    pub fn ost_tracks(&self) -> impl Iterator<Item = &TrackData> {
        self.tracks
            .iter()
            .filter(|t| matches!(t.key, TrackKey::Ost(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        let rec = sink.recorder(TrackKey::Rank(0));
        assert!(!rec.enabled());
        rec.span("cat", "s", 0.0, 1.0, vec![]);
        rec.count("c", 1);
        sink.append(TrackKey::Rank(1), Event::Counter { name: "x", ts_us: 0.0, value: 1.0 });
        assert!(sink.finish().tracks.is_empty());
    }

    #[test]
    fn recorder_appends_in_order() {
        let sink = TraceSink::enabled();
        let rec = sink.recorder_on_node(TrackKey::Rank(2), Some(1));
        rec.span("phase", "Sync", 10.0, 25.0, vec![("k", ArgValue::U64(3))]);
        rec.instant("mark", "classify", 11.0, vec![]);
        rec.counter("depth", 12.0, 4.0);
        rec.count("events", 3);
        rec.observe("bytes", 1024.0);
        let trace = sink.finish();
        let track = trace.track(TrackKey::Rank(2)).unwrap();
        assert_eq!(track.node, Some(1));
        assert_eq!(track.events.len(), 3);
        assert_eq!(track.counters["events"], 3);
        assert_eq!(track.hists["bytes"].count, 1);
        assert_eq!(track.span_total_us("phase", Some("Sync")), 15.0);
        assert_eq!(track.span_total_us("phase", None), 15.0);
        assert_eq!(track.span_total_us("other", None), 0.0);
    }

    #[test]
    fn ost_tracks_sort_deterministically() {
        let mk = |order: &[usize]| {
            let sink = TraceSink::enabled();
            let events = [
                Event::Span {
                    cat: "ost",
                    name: Cow::Borrowed("serve"),
                    start_us: 5.0,
                    dur_us: 2.0,
                    args: vec![("bytes", ArgValue::U64(10))],
                },
                Event::Span {
                    cat: "ost",
                    name: Cow::Borrowed("serve"),
                    start_us: 1.0,
                    dur_us: 4.0,
                    args: vec![("bytes", ArgValue::U64(20))],
                },
                Event::Span {
                    cat: "ost",
                    name: Cow::Borrowed("serve"),
                    start_us: 5.0,
                    dur_us: 2.0,
                    args: vec![("bytes", ArgValue::U64(30))],
                },
            ];
            for &i in order {
                sink.append(TrackKey::Ost(0), events[i].clone());
            }
            sink.finish().track(TrackKey::Ost(0)).unwrap().events.clone()
        };
        assert_eq!(mk(&[0, 1, 2]), mk(&[2, 0, 1]));
        assert_eq!(mk(&[0, 1, 2]), mk(&[1, 2, 0]));
    }

    #[test]
    fn event_end_is_span_end_or_timestamp() {
        let span = Event::Span {
            cat: "phase",
            name: Cow::Borrowed("io"),
            start_us: 10.0,
            dur_us: 2.5,
            args: vec![],
        };
        let instant = Event::Instant {
            cat: "mark",
            name: Cow::Borrowed("x"),
            ts_us: 4.0,
            args: vec![],
        };
        let counter = Event::Counter { name: "depth", ts_us: 7.0, value: 3.0 };
        assert_eq!(
            [span.end_us(), instant.end_us(), counter.end_us()],
            [12.5, 4.0, 7.0]
        );
    }

    #[test]
    fn hist_buckets_and_merge() {
        let mut h = Hist::default();
        h.observe(0.5);
        h.observe(1.0);
        h.observe(3.0);
        h.observe(1024.0);
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[&-1], 1);
        assert_eq!(h.buckets[&0], 1);
        assert_eq!(h.buckets[&1], 1);
        assert_eq!(h.buckets[&10], 1);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1024.0);

        let mut other = Hist::default();
        other.observe(2.0);
        h.merge(&other);
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets[&1], 2);
        let mut empty = Hist::default();
        empty.merge(&h);
        assert_eq!(empty, h);
    }

    #[test]
    fn tracks_merge_in_key_order() {
        let sink = TraceSink::enabled();
        sink.observe(TrackKey::Ost(1), "n", 1.0);
        sink.observe(TrackKey::Rank(3), "n", 1.0);
        sink.observe(TrackKey::Rank(0), "n", 1.0);
        sink.observe(TrackKey::Ost(0), "n", 1.0);
        let keys: Vec<TrackKey> = sink.finish().tracks.iter().map(|t| t.key).collect();
        assert_eq!(
            keys,
            vec![
                TrackKey::Rank(0),
                TrackKey::Rank(3),
                TrackKey::Ost(0),
                TrackKey::Ost(1)
            ]
        );
    }
}
