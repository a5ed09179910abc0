//! Read-path parity contracts (DESIGN.md §15).
//!
//! Three properties anchor the collective read path:
//!
//! 1. **A dense window is the covering read** — a window without holes
//!    is read by exactly one plain read of its extent and records no
//!    sieve accounting, and same-config read runs are byte- and
//!    virtual-time-reproducible (the regress gate extends this to bitwise
//!    identity against the committed baselines).
//! 2. **Each gap is decided by its width** — a hole no wider than the
//!    file system's break-even gap is read through (one covering read per
//!    window), a wider one is skipped by list I/O, which moves fewer bytes
//!    through the OSTs; either way the carved-out pieces are the bytes
//!    written, for any tile geometry (proptest).
//! 3. **Degraded reads** — an aggregator crash during the checkpoint
//!    leaves the restart read running on the surviving aggregators,
//!    byte-exact.

use proptest::prelude::*;
use simfs::FsConfig;
use simnet::{FaultPlan, SimTime};
use simtrace::{chrome_trace_json, metrics_json, TraceSink};
use std::sync::Arc;
use workloads::restart::{run_restart, Restart, RestartResult};
use workloads::runner::{IoMode, RunConfig};
use workloads::tileio::TileIo;

/// One traced verify-mode checkpoint-restart on `fs`: the run asserts the
/// restart bytes against the deterministic pattern internally.
fn traced_restart(
    w: Restart,
    fs: FsConfig,
    faults: Option<Arc<FaultPlan>>,
) -> (RestartResult, String, String) {
    let sink = TraceSink::enabled();
    let mut cfg = RunConfig::verify(IoMode::Parcoll { groups: 2 });
    cfg.info.set("cb_nodes", 4i64);
    cfg.info.set("cb_buffer_size", 256i64);
    cfg.fs = fs;
    cfg.trace = sink.clone();
    cfg.faults = faults;
    let r = run_restart(w, cfg);
    let trace = sink.finish();
    (r, chrome_trace_json(&trace), metrics_json(&trace))
}

/// `FsConfig::tiny` with a 100 B break-even gap: 10 µs per list extent
/// at 10 MB/s.
fn wide_break_even() -> FsConfig {
    FsConfig {
        list_extent_overhead: SimTime::micros(10.0),
        ost_bandwidth_bps: 10e6,
        ..FsConfig::tiny()
    }
}

// ---------------------------------------------------------------------
// 1. A dense window ≡ the covering read.
// ---------------------------------------------------------------------

#[test]
fn dense_restart_records_no_sieve_accounting() {
    let w = Restart::with_den(TileIo::tiny(8), 1);
    let (_, _, metrics) = traced_restart(w, FsConfig::tiny(), None);
    assert!(
        !metrics.contains("sieve_"),
        "a dense read must not touch the sieve accounting: {metrics}"
    );
}

#[test]
fn reads_are_bitwise_reproducible() {
    let run = || traced_restart(Restart::tiny(8), FsConfig::tiny(), None);
    let (ra, trace_a, metrics_a) = run();
    let (rb, trace_b, metrics_b) = run();
    assert_eq!(
        ra.read_seconds.to_bits(),
        rb.read_seconds.to_bits(),
        "same-config reads must be virtual-time reproducible"
    );
    assert_eq!(trace_a, trace_b, "read trace JSON must be byte-identical");
    assert_eq!(metrics_a, metrics_b);
}

// ---------------------------------------------------------------------
// 2. The gap rule.
// ---------------------------------------------------------------------

#[test]
fn gaps_within_break_even_are_read_through() {
    // Restart::tiny(8) leaves 24 B gaps (6 elements of 4 B): below the
    // 100 B break-even gap, every window is one covering read.
    let (_, _, metrics) = traced_restart(Restart::tiny(8), wide_break_even(), None);
    assert!(
        metrics.contains("sieve_covering_reads"),
        "24 B gaps must be read through: {metrics}"
    );
    assert!(!metrics.contains("sieve_list_reads"), "{metrics}");
}

#[test]
fn gaps_beyond_break_even_go_to_list_io_and_move_fewer_bytes() {
    // The same 24 B gaps against `tiny`'s 2 B break-even gap.
    let (through, _, _) = traced_restart(Restart::tiny(8), wide_break_even(), None);
    let (listed, _, metrics) = traced_restart(Restart::tiny(8), FsConfig::tiny(), None);
    assert!(
        metrics.contains("sieve_list_reads"),
        "24 B gaps must go to list I/O: {metrics}"
    );
    assert!(!metrics.contains("sieve_covering_reads"), "{metrics}");
    assert!(
        listed.fs_stats.total_bytes < through.fs_stats.total_bytes,
        "list I/O must not fetch the holes ({} vs {})",
        listed.fs_stats.total_bytes,
        through.fs_stats.total_bytes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any tile geometry reads back byte-identical — the run asserts the
    /// restart image against the deterministic pattern internally —
    /// with gaps on either side of the break-even gap.
    #[test]
    fn read_back_is_byte_identical_for_arbitrary_tiles(
        ntx in 1usize..4,
        nty in 1usize..3,
        tile_x_units in 1usize..5,
        tile_y in 1usize..5,
        elem_i in 0usize..3,
        den_i in 0usize..2,
        groups in 1usize..3,
        wide in any::<bool>(),
    ) {
        let elem = [1u64, 4, 8][elem_i];
        let den = [2usize, 4][den_i];
        let tile = TileIo { ntx, nty, tile_x: tile_x_units * den, tile_y, elem };
        let w = Restart::with_den(tile, den);
        let mut cfg = RunConfig::verify(IoMode::Parcoll { groups });
        cfg.info.set("cb_buffer_size", 256i64);
        if wide {
            cfg.fs = wide_break_even();
        }
        let r = run_restart(w, cfg);
        prop_assert!(r.read_mbps > 0.0);
    }
}

// ---------------------------------------------------------------------
// 3. Chaos: aggregator crash before the restart read.
// ---------------------------------------------------------------------

#[test]
fn restart_read_survives_an_aggregator_crash() {
    // The crash fires during the checkpoint's exchange rounds; the
    // restart read then runs degraded on the surviving aggregators.
    // Verify mode asserts the restart bytes internally.
    let plan = Arc::new(FaultPlan::new(0xFEED).aggregator_crash(0, 1));
    let (r, _, _) = traced_restart(Restart::tiny(8), FsConfig::tiny(), Some(plan));
    assert!(r.read_mbps > 0.0);
}
