//! # simtrace — cross-layer virtual-time tracing and metrics
//!
//! The reproduction's observability layer. Every simulated rank and OST
//! owns a *track* of timeline events (spans, instants, counter samples)
//! keyed by **virtual time**, plus monotone metrics (counters, log2
//! histograms). Recording goes through a [`TraceSink`] that is a no-op by
//! default: the instrumented layers pay one branch when tracing is off, so
//! release benchmark numbers are unchanged.
//!
//! What the five instrumented layers record:
//!
//! * **simnet rendezvous** — who-waits-for-whom: one `rdv` span per
//!   participant per collective (arrival → last arrival) carrying the
//!   straggler's global rank, the direct attribution of the paper's
//!   collective wall (§2.2, Figures 1–2).
//! * **simmpi** — collective op spans with algorithm and byte counts;
//!   p2p byte histograms and wait spans.
//! * **simfs** — per-OST service intervals, queue-wait, queue-depth
//!   counter samples.
//! * **mpiio::twophase** — `phase` spans mirroring [`PhaseProfile`]
//!   charges exactly (they reconcile to <1 µs), plus per-round brackets
//!   of the extended two-phase exchange.
//! * **parcoll** — pattern classification, file-area boundaries,
//!   aggregator assignment and subgroup splits.
//!
//! Merging is deterministic (see [`TraceSink::finish`]); export targets
//! are Chrome/Perfetto trace-event JSON ([`chrome_trace_json`]) and a
//! machine-readable metrics document ([`metrics_json`]).
//!
//! Two post-processing layers build on the trace:
//!
//! * [`diff`] — cross-run critical-path diffing: [`digest`] reduces a
//!   run to stably-keyed aggregates, [`diff::diff`] aligns two digests
//!   and emits a ranked root-cause table ("io grew 11.8% on ost 6 in
//!   rounds 3–5").
//! * [`series`] — interval'd time-series (per-OST bandwidth/queue,
//!   per-rank phase occupancy, counter maxima) folded in O(intervals)
//!   memory.
//!
//! One module is deliberately *not* about virtual time: [`host`]
//! (a.k.a. `hostprof`) attributes the simulator's own wall-clock to
//! named hot paths (fiber scheduling, mailboxes, buffer pooling,
//! pack/unpack memcpy, trace recording itself). Its samples never enter
//! the deterministic artifacts above.
//!
//! # Example: setting up a sink and exporting a trace
//!
//! In real use the enabled sink is threaded through the stack — set
//! `ClusterConfig::trace` when driving `simnet::run_cluster`, or
//! `RunConfig::trace` in the workloads runner — and every layer records
//! into it. The recording API itself is plain:
//!
//! ```
//! use simtrace::{chrome_trace_json, metrics_json, TraceSink, TrackKey};
//!
//! let sink = TraceSink::enabled();           // `disabled()` = free no-op
//! let rec = sink.recorder(TrackKey::Rank(0)); // one track per rank/OST
//! rec.span("phase", "io", 0.0, 125.0, vec![]); // virtual µs
//! rec.count("bytes_written", 4096);
//!
//! let trace = sink.finish();                 // deterministic merge
//! let perfetto = chrome_trace_json(&trace);  // load in ui.perfetto.dev
//! assert!(perfetto.contains("rank 0"));
//! assert!(metrics_json(&trace).contains("bytes_written"));
//! ```
//!
//! Identical runs produce byte-identical exports, so trace JSON can sit
//! behind equality assertions in tests (see
//! `workloads/tests/trace_determinism.rs`).
//!
//! [`PhaseProfile`]: https://crates.io/crates/mpiio (in-workspace)

#![warn(missing_docs)]

pub mod analysis;
pub mod diff;
pub mod host;
pub mod json;
pub mod series;

mod export;
mod sink;

pub use analysis::{
    critical_path, rank_slack, sync_share, what_if, what_if_rank_bound_us, CriticalPath,
    PathEdge, PathSegment, RankSlack, WhatIf,
};
pub use diff::{digest, digest_from_json, digest_json, DiffReport, Finding, RunDigest};
pub use export::{chrome_trace_json, collective_ops, metrics_json, CollectiveOp};
pub use series::{series_from_trace, SeriesConfig, TimeSeries, TrackSeries};
pub use sink::{ArgValue, Event, Hist, Recorder, Trace, TraceSink, TrackData, TrackKey};
