//! # parcoll-benchmark — the repository's two-clock benchmark
//!
//! Reports both clocks of the reproduction — simulated MB/s as the paper
//! plots it, and the host seconds and host bytes a run costs — on five
//! mid-tier workloads, with per-crate layer metrics and a traced run.
//! `README.md` beside this crate is the glossary and the user guide.

#![warn(missing_docs)]

pub mod child;
pub mod compare;
pub mod driver;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod probes;
pub mod spans;
pub mod spec;
