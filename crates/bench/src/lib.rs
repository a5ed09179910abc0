//! # bench — the figure-reproduction harness
//!
//! The `figures` binary regenerates the paper's evaluation (§5) and the
//! ablations from one table, [`figures::SWEEPS`]: each sweep simulates
//! its runs once, prints the series the paper plots and emits every row
//! file those runs feed as machine-readable JSON under
//! `bench_results/` (`figures [--quick] [NAME...]`):
//!
//! | sweep | row files | paper figure | content |
//! |---|---|---|---|
//! | `fig1_collective_wall` | `fig1_collective_wall` | Fig. 1 | % of MPI-Tile-IO time in global sync vs process count |
//! | | `fig2_breakdown` | Fig. 2 | absolute sync / p2p / file-I/O time vs process count |
//! | | `ablation_alltoall` | §1 claim | pairwise vs Bruck alltoall: the wall survives |
//! | `fig6_ior` | `fig6_ior` | Fig. 6 | IOR collective-write bandwidth, baseline vs ParColl-N |
//! | `fig7_tileio_groups` | `fig7_tileio_groups` | Fig. 7 | MPI-Tile-IO read/write bandwidth vs subgroup count |
//! | | `fig8_sync_reduction` | Fig. 8 | synchronization time (abs and ratio) vs subgroup count |
//! | | `ablation_groupsize` | §4 trade-off | group-size sweep across process counts |
//! | `fig9_scalability` | `fig9_scalability` | Fig. 9 | MPI-Tile-IO write bandwidth vs process count |
//! | `fig10_btio` | `fig10_btio` | Fig. 10 | BT-IO class C bandwidth vs process count |
//! | `fig11_flashio` | `fig11_flashio` | Fig. 11 | Flash-IO checkpoint bandwidth, aggregator variants |
//! | `read_sweep` | `read_sweep` | §5 read counterpart | restart `read_at_all` bandwidth vs subgroups and hole geometry |
//! | `ablation_alignment` | `ablation_alignment` | — | even vs stripe-aligned file domains |
//! | `ablation_iview` | `ablation_iview` | §4.1 | reordering vs scatter vs disabled intermediate views |
//!
//! `fig5_aggregators` prints Fig. 5's aggregator-distribution table
//! verbatim; `critical_path` runs figure points traced and breaks each
//! run's wall down along its critical path; `fault_sweep` is the
//! degraded-mode sweep.
//!
//! Also here: `parcoll_sim`, a command-line driver for any workload ×
//! mode × scale; `report`, which renders `bench_results/*.json` as
//! markdown (and, with `--check-docs`, cross-checks figures quoted in
//! the prose docs against the emitted rows); `calibrate`, which
//! prints the table's headline sweeps beside their paper targets; and
//! `explain`, which runs the fixed diffable scenario of [`explain`]
//! and turns a tripped `regress` gate into a ranked root-cause table.
//! `hostperf` runs the two host-time A/B gates (checksums on vs off,
//! probes compiled in vs out), and `hostprof`
//! (see [`hostprof`]) attributes host wall to named simulator hot
//! paths — fiber scheduling, mailboxes, buffer pooling, pack/unpack —
//! with a collapsed-stack flamegraph export.
//!
//! Binaries accept `--quick` to run a reduced-scale version (smaller
//! process counts and data) for smoke testing; the default is the paper's
//! scale.

#![warn(missing_docs)]

pub mod doccheck;
pub mod explain;
pub mod figures;
pub mod hostprof;
pub mod metrics;
pub mod regress;
pub mod scale;
pub mod table;

pub use metrics::{ost_loads, print_metrics_doc, summarize_ost_loads, OstLoad, OstSummary};
pub use scale::Scale;
pub use table::{emit_json, print_table, rows_from_json, rows_to_json, Row};
