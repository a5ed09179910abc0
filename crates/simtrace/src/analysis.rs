//! Critical-path analysis over the recorded event graph.
//!
//! A finished [`Trace`] contains enough edge identity to reconstruct the
//! happens-before graph of the run without help from the simulator:
//!
//! * **program order** — every span on a rank track belongs to that
//!   rank's serial timeline;
//! * **rendezvous edges** — each `rdv` span ends at the collective's
//!   last arrival and names the `straggler` whose arrival released
//!   everyone (the wake strictly follows the straggler's program order);
//! * **message edges** — `p2p/recv` spans carry `src`/`sent_us`/
//!   `arrival_us`, and `p2p/waitall` spans carry the batch's *binding*
//!   message (`bind_src`/`bind_sent_us`/`bind_arrival_us`, the latest
//!   arrival that bounded the wait);
//! * **service edges** — `ost/serve` spans carry the requesting `rank`
//!   and the completion instant `done_us` the requester observed (used
//!   for enrichment; the requester's own span already bounds its time).
//!
//! [`critical_path`] walks this graph *backward* from the instant the
//! last rank finishes. At `(rank, t)` it finds the latest **binding
//! event** on that rank ending at or before `t` — the most recent point
//! where the rank's progress was determined by someone else — emits the
//! segment between, and follows the edge: to the straggler for a
//! rendezvous, through the wire to the sender for a message, or further
//! down the same rank when the event did not actually block. The
//! resulting segments tile `[0, wall]` exactly — the path's length *is*
//! the virtual wall time, asserted in tests — and each segment is
//! attributed to the `phase` spans (sync / p2p / io / local) that cover
//! it, which is what makes the what-if estimates mechanical rather than
//! statistical.

use crate::sink::{arg_u64, ArgValue, Event, Trace, TrackData, TrackKey};
use std::collections::BTreeMap;

/// Why the critical path entered a segment at its start instant.
#[derive(Debug, Clone, PartialEq)]
pub enum PathEdge {
    /// Base of the walk: virtual time zero.
    Start,
    /// Program order on the same rank (the preceding binding event did
    /// not actually block it).
    Program,
    /// A collective released this rank when `straggler` arrived.
    RdvArrival {
        /// Operation name of the collective (`barrier`, `allgather`, ...).
        op: String,
        /// Global rank whose late arrival set the meeting time.
        straggler: usize,
    },
    /// A blocking receive completed when the message from `src` landed.
    MessageArrival {
        /// Global sender rank.
        src: usize,
    },
    /// Network flight of the binding message from `src`.
    Wire {
        /// Global sender rank.
        src: usize,
    },
}

/// One contiguous interval of the critical path, lying on one rank's
/// timeline (wire segments are attributed to the sender).
#[derive(Debug, Clone)]
pub struct PathSegment {
    /// Global rank whose activity bounds progress during this interval.
    pub rank: usize,
    /// Interval start, virtual µs.
    pub start_us: f64,
    /// Interval end, virtual µs.
    pub end_us: f64,
    /// The edge through which the path entered this segment.
    pub edge: PathEdge,
    /// Phase attribution of the interval: µs per phase name
    /// (`sync`/`p2p`/`io`/`local`), with time covered by no phase span
    /// under `other`.
    pub breakdown: BTreeMap<String, f64>,
}

impl PathSegment {
    /// Segment duration, µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The extracted critical path: a chain of segments tiling `[0, wall]`.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Virtual wall time of the run (max span end over rank tracks), µs.
    pub wall_us: f64,
    /// Rank whose final activity set the wall.
    pub end_rank: usize,
    /// Segments in ascending time order; adjacent segments share their
    /// boundary instant exactly.
    pub segments: Vec<PathSegment>,
}

impl CriticalPath {
    /// Path length: last segment end minus first segment start. Equal to
    /// [`wall_us`](CriticalPath::wall_us) by construction — the walk
    /// tiles the whole run.
    pub fn length_us(&self) -> f64 {
        match (self.segments.first(), self.segments.last()) {
            (Some(first), Some(last)) => last.end_us - first.start_us,
            _ => 0.0,
        }
    }

    /// Total µs per phase over the whole path.
    pub fn breakdown(&self) -> BTreeMap<String, f64> {
        let mut total = BTreeMap::new();
        for seg in &self.segments {
            for (phase, us) in &seg.breakdown {
                *total.entry(phase.clone()).or_insert(0.0) += us;
            }
        }
        total
    }

    /// Total path µs carried by each rank.
    pub fn time_on_rank(&self) -> BTreeMap<usize, f64> {
        let mut per_rank = BTreeMap::new();
        for seg in &self.segments {
            *per_rank.entry(seg.rank).or_insert(0.0) += seg.dur_us();
        }
        per_rank
    }

    /// The path compressed to its rank visits: consecutive segments on
    /// the same rank merge into one `(rank, µs)` step. This is the
    /// straggler chain — who the run was waiting on, in order.
    pub fn straggler_chain(&self) -> Vec<(usize, f64)> {
        let mut chain: Vec<(usize, f64)> = Vec::new();
        for seg in &self.segments {
            match chain.last_mut() {
                Some((rank, us)) if *rank == seg.rank => *us += seg.dur_us(),
                _ => chain.push((seg.rank, seg.dur_us())),
            }
        }
        chain
    }

    /// µs of the path spent inside `sync` phase spans — collective
    /// synchronization that no amount of overlap could hide, because it
    /// lies on the chain that determines the wall.
    pub fn sync_us(&self) -> f64 {
        self.segments
            .iter()
            .filter_map(|s| s.breakdown.get("sync"))
            .sum()
    }

    /// What-if: the wall with the path's synchronization time removed —
    /// the run length if every collective on the critical chain
    /// completed the instant its straggler arrived.
    pub fn what_if_sync_free_us(&self) -> f64 {
        self.wall_us - self.sync_us()
    }
}

/// Per-rank totals relating the rank's own timeline to the path.
#[derive(Debug, Clone)]
pub struct RankSlack {
    /// Global rank.
    pub rank: usize,
    /// Total µs the rank spent inside any `phase` span.
    pub busy_us: f64,
    /// µs of that inside `sync` phase spans (collective waits).
    pub sync_us: f64,
    /// µs of the critical path carried by this rank.
    pub on_path_us: f64,
    /// `wall - on_path`: how much this rank could slow down before its
    /// timeline bounds the run everywhere.
    pub slack_us: f64,
}

/// A binding event on one rank's timeline: the points where the rank's
/// progress was (potentially) determined by another rank.
#[derive(Debug, Clone)]
enum Binder {
    Rdv {
        op: String,
        start_us: f64,
        end_us: f64,
        straggler: usize,
    },
    Msg {
        start_us: f64,
        end_us: f64,
        src: usize,
        sent_us: f64,
        arrival_us: f64,
    },
}

impl Binder {
    fn end_us(&self) -> f64 {
        match self {
            Binder::Rdv { end_us, .. } | Binder::Msg { end_us, .. } => *end_us,
        }
    }

    fn start_us(&self) -> f64 {
        match self {
            Binder::Rdv { start_us, .. } | Binder::Msg { start_us, .. } => *start_us,
        }
    }
}

fn arg_f64(args: &[(&'static str, ArgValue)], key: &str) -> Option<f64> {
    args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
        ArgValue::F64(v) => Some(*v),
        ArgValue::U64(v) => Some(*v as f64),
        _ => None,
    })
}

/// One rank's timeline prepared for the backward walk.
struct RankTimeline {
    /// Binding events sorted ascending by `(end, start)`.
    binders: Vec<Binder>,
    /// `phase` spans `(start, end, name)` sorted ascending by start.
    phases: Vec<(f64, f64, String)>,
    /// Latest span end on this track.
    last_end_us: f64,
}

fn prepare(track: &TrackData) -> RankTimeline {
    let mut binders = Vec::new();
    let mut phases = Vec::new();
    let mut last_end_us = 0.0f64;
    for event in &track.events {
        let Event::Span {
            cat,
            name,
            start_us,
            dur_us,
            args,
        } = event
        else {
            continue;
        };
        let end_us = start_us + dur_us;
        last_end_us = last_end_us.max(end_us);
        match *cat {
            "rdv" => {
                if let Some(straggler) = arg_u64(args, "straggler") {
                    binders.push(Binder::Rdv {
                        op: name.to_string(),
                        start_us: *start_us,
                        end_us,
                        straggler: straggler as usize,
                    });
                }
            }
            "p2p" if name == "recv" => {
                if let (Some(src), Some(sent_us), Some(arrival_us)) = (
                    arg_u64(args, "src"),
                    arg_f64(args, "sent_us"),
                    arg_f64(args, "arrival_us"),
                ) {
                    binders.push(Binder::Msg {
                        start_us: *start_us,
                        end_us,
                        src: src as usize,
                        sent_us,
                        arrival_us,
                    });
                }
            }
            "p2p" if name == "waitall" => {
                if let (Some(src), Some(sent_us), Some(arrival_us)) = (
                    arg_u64(args, "bind_src"),
                    arg_f64(args, "bind_sent_us"),
                    arg_f64(args, "bind_arrival_us"),
                ) {
                    binders.push(Binder::Msg {
                        start_us: *start_us,
                        end_us,
                        src: src as usize,
                        sent_us,
                        arrival_us,
                    });
                }
            }
            "phase" => phases.push((*start_us, end_us, name.to_string())),
            _ => {}
        }
    }
    binders.sort_by(|a, b| {
        a.end_us()
            .total_cmp(&b.end_us())
            .then(a.start_us().total_cmp(&b.start_us()))
    });
    phases.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    RankTimeline {
        binders,
        phases,
        last_end_us,
    }
}

/// Attribute `[a, b]` on one rank to its phase spans (sorted by start),
/// adding each overlap to `out` under `key(phase)` in span order;
/// uncovered time lands in `key("other")`. Overlapping phase spans
/// (which the timers do not produce) would over-count; coverage is
/// clamped to the interval.
pub(crate) fn attribute<K: Ord>(
    phases: &[(f64, f64, String)],
    a: f64,
    b: f64,
    out: &mut BTreeMap<K, f64>,
    key: impl Fn(&str) -> K,
) {
    let mut covered = 0.0f64;
    let first = phases.partition_point(|(_, end, _)| *end <= a);
    for (start, end, name) in &phases[first..] {
        if *start >= b {
            break;
        }
        let overlap = end.min(b) - start.max(a);
        if overlap > 0.0 {
            *out.entry(key(name)).or_insert(0.0) += overlap;
            covered += overlap;
        }
    }
    let other = (b - a) - covered;
    if other > 0.0 {
        *out.entry(key("other")).or_insert(0.0) += other;
    }
}

/// `[a, b]` on one rank by phase (see [`attribute`]).
fn breakdown(phases: &[(f64, f64, String)], a: f64, b: f64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    attribute(phases, a, b, &mut out, str::to_string);
    out
}

/// Pop the latest binder ending at or before `t`. Binders ending after
/// `t` are discarded: the walk's clock never increases, so they can
/// never bind a later visit to this rank.
fn take_latest(timeline: &RankTimeline, cursor: &mut usize, t: f64) -> Option<Binder> {
    while *cursor > 0 {
        *cursor -= 1;
        let b = &timeline.binders[*cursor];
        if b.end_us() <= t {
            return Some(b.clone());
        }
    }
    None
}

/// Extract the critical path of a finished trace. Returns `None` when
/// the trace has no rank spans (e.g. a disabled sink).
pub fn critical_path(trace: &Trace) -> Option<CriticalPath> {
    let mut timelines: BTreeMap<usize, RankTimeline> = BTreeMap::new();
    for track in trace.rank_tracks() {
        let TrackKey::Rank(r) = track.key else { continue };
        timelines.insert(r, prepare(track));
    }
    let (end_rank, wall_us) = timelines
        .iter()
        .map(|(r, tl)| (*r, tl.last_end_us))
        // Strict comparison: ties resolve to the lowest rank id.
        .fold(None, |best: Option<(usize, f64)>, (r, end)| match best {
            Some((_, best_end)) if end <= best_end => best,
            _ => Some((r, end)),
        })?;
    if wall_us <= 0.0 {
        return None;
    }

    let mut cursors: BTreeMap<usize, usize> =
        timelines.iter().map(|(r, tl)| (*r, tl.binders.len())).collect();

    // Built in reverse (walking backward from the wall), then flipped.
    let mut segments: Vec<PathSegment> = Vec::new();
    let push = |segments: &mut Vec<PathSegment>, seg: PathSegment| {
        if seg.end_us > seg.start_us {
            segments.push(seg);
        }
    };

    let mut rank = end_rank;
    let mut t = wall_us;
    loop {
        let timeline = &timelines[&rank];
        let cursor = cursors.get_mut(&rank).expect("cursor for visited rank");
        match take_latest(timeline, cursor, t) {
            None => {
                // Base of the walk: nothing below bound this rank.
                push(
                    &mut segments,
                    PathSegment {
                        rank,
                        start_us: 0.0,
                        end_us: t,
                        edge: PathEdge::Start,
                        breakdown: breakdown(&timeline.phases, 0.0, t),
                    },
                );
                break;
            }
            Some(Binder::Rdv {
                op,
                start_us,
                end_us,
                straggler,
            }) => {
                let blocked = straggler != rank && timelines.contains_key(&straggler);
                push(
                    &mut segments,
                    PathSegment {
                        rank,
                        start_us: end_us,
                        end_us: t,
                        edge: if blocked {
                            PathEdge::RdvArrival { op, straggler }
                        } else {
                            PathEdge::Program
                        },
                        breakdown: breakdown(&timeline.phases, end_us, t),
                    },
                );
                if blocked {
                    // The wake was the straggler's arrival: follow its
                    // program order from that instant.
                    rank = straggler;
                    t = end_us;
                } else {
                    // This rank arrived last itself (span has zero
                    // duration); continue its own program order.
                    t = start_us;
                }
            }
            Some(Binder::Msg {
                start_us,
                end_us,
                src,
                sent_us,
                arrival_us,
            }) => {
                if arrival_us > start_us && timelines.contains_key(&src) {
                    // The receive actually blocked: the span splits into
                    // completion overhead after the landing and the wire
                    // flight before it, then the walk crosses to the
                    // sender's post instant.
                    push(
                        &mut segments,
                        PathSegment {
                            rank,
                            start_us: end_us,
                            end_us: t,
                            edge: PathEdge::MessageArrival { src },
                            breakdown: breakdown(&timeline.phases, end_us, t),
                        },
                    );
                    push(
                        &mut segments,
                        PathSegment {
                            rank,
                            start_us: arrival_us,
                            end_us,
                            edge: PathEdge::MessageArrival { src },
                            breakdown: breakdown(&timeline.phases, arrival_us, end_us),
                        },
                    );
                    push(
                        &mut segments,
                        PathSegment {
                            rank: src,
                            start_us: sent_us,
                            end_us: arrival_us,
                            edge: PathEdge::Wire { src },
                            breakdown: BTreeMap::from([("p2p".to_string(), arrival_us - sent_us)]),
                        },
                    );
                    rank = src;
                    t = sent_us;
                } else {
                    // The message was already waiting (or the sender left
                    // no track): the span is local receive processing.
                    push(
                        &mut segments,
                        PathSegment {
                            rank,
                            start_us: end_us,
                            end_us: t,
                            edge: PathEdge::Program,
                            breakdown: breakdown(&timeline.phases, end_us, t),
                        },
                    );
                    push(
                        &mut segments,
                        PathSegment {
                            rank,
                            start_us,
                            end_us,
                            edge: PathEdge::Program,
                            breakdown: breakdown(&timeline.phases, start_us, end_us),
                        },
                    );
                    t = start_us;
                }
            }
        }
    }

    segments.reverse();
    Some(CriticalPath {
        wall_us,
        end_rank,
        segments,
    })
}

/// Per-rank slack against an extracted path, ordered by rank.
pub fn rank_slack(trace: &Trace, path: &CriticalPath) -> Vec<RankSlack> {
    let on_path = path.time_on_rank();
    let mut out = Vec::new();
    for track in trace.rank_tracks() {
        let TrackKey::Rank(rank) = track.key else { continue };
        let busy_us = track.span_total_us("phase", None);
        let sync_us = track.span_total_us("phase", Some("sync"));
        let on_path_us = on_path.get(&rank).copied().unwrap_or(0.0);
        out.push(RankSlack {
            rank,
            busy_us,
            sync_us,
            on_path_us,
            slack_us: path.wall_us - on_path_us,
        });
    }
    out
}

/// What-if: the wall if every collective wait cost nothing — contract
/// all rendezvous edges, leaving each rank its program-order chain of
/// non-sync work, and take the longest. Cross-rank message and service
/// dependencies could only push the true sync-free wall *up* from here,
/// so this is the achievable floor: no restructuring of the collective
/// protocol can beat it without also shrinking non-sync work.
pub fn what_if_rank_bound_us(trace: &Trace) -> f64 {
    trace
        .rank_tracks()
        .map(|t| t.span_total_us("phase", None) - t.span_total_us("phase", Some("sync")))
        .fold(0.0, f64::max)
}

/// The run's synchronization share as Figures 1/2 define it: total
/// rank-time inside `sync` phase spans over total rank-time inside any
/// phase span (equal to the mean per-rank profile ratio, since every
/// phase charge emits an identical span). This is the paper's "72 % of
/// the time is spent in synchronization" number, recomputed from the
/// trace alone.
pub fn sync_share(trace: &Trace) -> f64 {
    let mut sync = 0.0;
    let mut busy = 0.0;
    for track in trace.rank_tracks() {
        sync += track.span_total_us("phase", Some("sync"));
        busy += track.span_total_us("phase", None);
    }
    if busy > 0.0 {
        sync / busy
    } else {
        0.0
    }
}

/// The three sync-free estimates side by side. They answer different
/// questions and the gap between them is the finding:
///
/// * `sync_free_figure_us` — the paper's implied estimate: scale the
///   wall by one minus the Figure-1 sync share. Treats every rank's
///   blocked time as recoverable.
/// * `sync_free_rank_bound_us` — rendezvous edges contracted in the
///   event graph: the busiest rank's non-sync chain. The achievable
///   floor; typically well above the figure estimate because collective
///   waits overlap across ranks.
/// * `sync_free_path_us` — only the sync time actually lying on the
///   critical path removed: what the run saves if collectives complete
///   the instant their straggler arrives but nothing else changes.
///   Typically close to the wall, because the path follows stragglers,
///   who do not wait.
#[derive(Debug, Clone)]
pub struct WhatIf {
    /// The run's virtual wall, µs.
    pub wall_us: f64,
    /// Figure-1/2 sync share of total rank-time (0..1).
    pub sync_share: f64,
    /// `wall × (1 - sync_share)`.
    pub sync_free_figure_us: f64,
    /// Longest per-rank non-sync chain (rendezvous edges contracted).
    pub sync_free_rank_bound_us: f64,
    /// Sync time on the critical path, µs.
    pub path_sync_us: f64,
    /// `wall - path_sync`.
    pub sync_free_path_us: f64,
}

/// Compute every sync-free estimate for a finished trace and its
/// extracted critical path.
pub fn what_if(trace: &Trace, path: &CriticalPath) -> WhatIf {
    let share = sync_share(trace);
    WhatIf {
        wall_us: path.wall_us,
        sync_share: share,
        sync_free_figure_us: path.wall_us * (1.0 - share),
        sync_free_rank_bound_us: what_if_rank_bound_us(trace),
        path_sync_us: path.sync_us(),
        sync_free_path_us: path.what_if_sync_free_us(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;

    /// Two ranks, one barrier: rank 1 computes until 40 µs while rank 0
    /// arrives at 10 µs and waits. Both then do 20 µs of io.
    fn rdv_trace() -> Trace {
        let sink = TraceSink::enabled();
        let r0 = sink.recorder(TrackKey::Rank(0));
        let r1 = sink.recorder(TrackKey::Rank(1));
        let rdv_args = |straggler: u64| {
            vec![
                ("ctx", 0u64.into()),
                ("seq", 1u64.into()),
                ("n", 2u64.into()),
                ("straggler", straggler.into()),
            ]
        };
        r0.span("phase", "local", 0.0, 10.0, vec![]);
        r0.span("rdv", "barrier", 10.0, 40.0, rdv_args(1));
        r0.span("phase", "sync", 10.0, 40.0, vec![]);
        r0.span("phase", "io", 40.0, 60.0, vec![]);
        r1.span("phase", "local", 0.0, 40.0, vec![]);
        r1.span("rdv", "barrier", 40.0, 40.0, rdv_args(1));
        r1.span("phase", "io", 40.0, 60.0, vec![]);
        sink.finish()
    }

    #[test]
    fn rdv_path_follows_the_straggler() {
        let trace = rdv_trace();
        let path = critical_path(&trace).unwrap();
        assert_eq!(path.wall_us, 60.0);
        assert_eq!(path.length_us(), path.wall_us);
        // Tiling: adjacent segments share boundaries exactly.
        for pair in path.segments.windows(2) {
            assert_eq!(pair[0].end_us, pair[1].start_us);
        }
        // The waiting interval [10, 40] lies on rank 1 (the straggler),
        // not on rank 0's sync wait.
        let on_rank = path.time_on_rank();
        assert_eq!(on_rank[&1], 40.0);
        assert_eq!(on_rank[&0], 20.0);
        // No sync time on the path: the barrier wait is hidden behind
        // the straggler's computation.
        assert_eq!(path.sync_us(), 0.0);
        let chain = path.straggler_chain();
        assert_eq!(chain, vec![(1, 40.0), (0, 20.0)]);
    }

    #[test]
    fn rdv_slack_and_rank_bound() {
        let trace = rdv_trace();
        let path = critical_path(&trace).unwrap();
        let slack = rank_slack(&trace, &path);
        assert_eq!(slack.len(), 2);
        assert_eq!(slack[0].rank, 0);
        assert_eq!(slack[0].on_path_us, 20.0);
        assert_eq!(slack[0].slack_us, 40.0);
        assert_eq!(slack[0].sync_us, 30.0);
        assert_eq!(slack[1].slack_us, 20.0);
        // Sync-free rank bound: rank 0 has 30 µs of non-sync work,
        // rank 1 has 60 µs.
        assert_eq!(what_if_rank_bound_us(&trace), 60.0);
    }

    /// Rank 0 blocks in a receive; the binding message left rank 1 at
    /// 20 µs and landed at 30 µs; recv completion costs 5 µs more.
    fn msg_trace() -> Trace {
        let sink = TraceSink::enabled();
        let r0 = sink.recorder(TrackKey::Rank(0));
        let r1 = sink.recorder(TrackKey::Rank(1));
        r0.span("phase", "local", 0.0, 5.0, vec![]);
        r0.span(
            "p2p",
            "recv",
            5.0,
            35.0,
            vec![
                ("src", 1u64.into()),
                ("sent_us", 20.0.into()),
                ("arrival_us", 30.0.into()),
            ],
        );
        r0.span("phase", "p2p", 5.0, 35.0, vec![]);
        r0.span("phase", "io", 35.0, 50.0, vec![]);
        r1.span("phase", "local", 0.0, 20.0, vec![]);
        sink.finish()
    }

    #[test]
    fn blocking_recv_crosses_to_the_sender() {
        let trace = msg_trace();
        let path = critical_path(&trace).unwrap();
        assert_eq!(path.wall_us, 50.0);
        assert_eq!(path.length_us(), 50.0);
        for pair in path.segments.windows(2) {
            assert_eq!(pair[0].end_us, pair[1].start_us);
        }
        // Wire segment [20, 30] is attributed to the sender as p2p.
        let wire = path
            .segments
            .iter()
            .find(|s| matches!(s.edge, PathEdge::Wire { .. }))
            .unwrap();
        assert_eq!(wire.rank, 1);
        assert_eq!((wire.start_us, wire.end_us), (20.0, 30.0));
        assert_eq!(wire.breakdown["p2p"], 10.0);
        // Sender's computation [0, 20] is on the path.
        assert_eq!(path.time_on_rank()[&1], 30.0);
        // Completion overhead [30, 35] plus the io tail are on rank 0.
        assert_eq!(path.time_on_rank()[&0], 20.0);
    }

    #[test]
    fn non_blocking_recv_stays_on_rank() {
        let sink = TraceSink::enabled();
        let r0 = sink.recorder(TrackKey::Rank(0));
        // Message landed at 3 µs, recv posted at 10 µs: no block.
        r0.span("phase", "local", 0.0, 10.0, vec![]);
        r0.span(
            "p2p",
            "recv",
            10.0,
            12.0,
            vec![
                ("src", 1u64.into()),
                ("sent_us", 1.0.into()),
                ("arrival_us", 3.0.into()),
            ],
        );
        r0.span("phase", "p2p", 10.0, 12.0, vec![]);
        let r1 = sink.recorder(TrackKey::Rank(1));
        r1.span("phase", "local", 0.0, 2.0, vec![]);
        let trace = sink.finish();
        let path = critical_path(&trace).unwrap();
        assert_eq!(path.wall_us, 12.0);
        assert_eq!(path.length_us(), 12.0);
        assert!(path.segments.iter().all(|s| s.rank == 0));
    }

    #[test]
    fn waitall_binding_edge_is_followed() {
        let sink = TraceSink::enabled();
        let r0 = sink.recorder(TrackKey::Rank(0));
        let r2 = sink.recorder(TrackKey::Rank(2));
        r0.span(
            "p2p",
            "waitall",
            4.0,
            25.0,
            vec![
                ("n", 2u64.into()),
                ("bind_src", 2u64.into()),
                ("bind_sent_us", 15.0.into()),
                ("bind_arrival_us", 22.0.into()),
            ],
        );
        r2.span("phase", "io", 0.0, 15.0, vec![]);
        let trace = sink.finish();
        let path = critical_path(&trace).unwrap();
        assert_eq!(path.wall_us, 25.0);
        assert_eq!(path.length_us(), 25.0);
        // Path: rank 2 io [0,15], wire [15,22], completion [22,25].
        let chain = path.straggler_chain();
        assert_eq!(chain, vec![(2, 22.0), (0, 3.0)]);
        let bd = path.breakdown();
        assert_eq!(bd["io"], 15.0);
        assert_eq!(bd["p2p"], 7.0);
        assert_eq!(bd["other"], 3.0);
    }

    #[test]
    fn empty_trace_has_no_path() {
        assert!(critical_path(&TraceSink::disabled().finish()).is_none());
        let sink = TraceSink::enabled();
        sink.recorder(TrackKey::Ost(0)).span("ost", "serve", 0.0, 5.0, vec![]);
        assert!(critical_path(&sink.finish()).is_none());
    }

    #[test]
    fn what_if_sync_free_subtracts_path_sync() {
        let sink = TraceSink::enabled();
        let r0 = sink.recorder(TrackKey::Rank(0));
        // A lone rank whose sync phase tail (e.g. collective completion
        // beyond the rendezvous point) lies on the path.
        r0.span("phase", "io", 0.0, 30.0, vec![]);
        r0.span("phase", "sync", 30.0, 40.0, vec![]);
        let trace = sink.finish();
        let path = critical_path(&trace).unwrap();
        assert_eq!(path.sync_us(), 10.0);
        assert_eq!(path.what_if_sync_free_us(), 30.0);
    }
}
