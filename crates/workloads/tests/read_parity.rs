//! Read-path parity contracts (DESIGN.md §15).
//!
//! Three properties anchor the collective read path:
//!
//! 1. **Sieving off is the pre-sieving protocol** — without the
//!    `cb_ds_read` hint the aggregators issue exactly one covering read
//!    per round through the same code shape as before the feature, so
//!    same-config read runs are byte- and virtual-time-reproducible and
//!    emit no sieve accounting (the regress gate extends this to bitwise
//!    identity against committed pre-PR baselines).
//! 2. **Sieving returns identical bytes** — covering-extent or list-I/O,
//!    the carved-out pieces equal the unsieved bytes for any tile
//!    geometry (proptest), while moving strictly fewer bytes through the
//!    OSTs on hole-dense patterns.
//! 3. **Degraded reads** — an aggregator crash during the checkpoint
//!    leaves the restart read running on the surviving aggregators,
//!    byte-exact, sieving on or off.

use proptest::prelude::*;
use simnet::FaultPlan;
use simtrace::{chrome_trace_json, metrics_json, TraceSink};
use std::sync::Arc;
use workloads::restart::{run_restart, Restart, RestartResult};
use workloads::runner::{IoMode, RunConfig};
use workloads::tileio::TileIo;

/// One traced verify-mode checkpoint-restart: the run asserts the
/// restart bytes against the deterministic pattern internally.
fn traced_restart(
    w: Restart,
    mode: IoMode,
    sieve: bool,
    faults: Option<Arc<FaultPlan>>,
) -> (RestartResult, String, String) {
    let sink = TraceSink::enabled();
    let mut cfg = RunConfig::verify(mode);
    cfg.info.set("cb_nodes", 4i64);
    cfg.info.set("cb_buffer_size", 256i64);
    if sieve {
        cfg.info.set("cb_ds_read", "enable");
    }
    cfg.trace = sink.clone();
    cfg.faults = faults;
    let r = run_restart(w, cfg);
    let trace = sink.finish();
    (r, chrome_trace_json(&trace), metrics_json(&trace))
}

// ---------------------------------------------------------------------
// 1. Sieving off ≡ the pre-sieving protocol.
// ---------------------------------------------------------------------

#[test]
fn sieving_off_reads_are_bitwise_reproducible_and_emit_no_sieve_accounting() {
    let run = || traced_restart(Restart::tiny(8), IoMode::Parcoll { groups: 2 }, false, None);
    let (ra, trace_a, metrics_a) = run();
    let (rb, trace_b, metrics_b) = run();
    assert_eq!(
        ra.read_seconds.to_bits(),
        rb.read_seconds.to_bits(),
        "same-config reads must be virtual-time reproducible"
    );
    assert_eq!(trace_a, trace_b, "read trace JSON must be byte-identical");
    assert_eq!(metrics_a, metrics_b);
    // Off is the pre-sieving engine: no sieve counters may appear.
    assert!(
        !metrics_a.contains("sieve_"),
        "sieving off must not touch the sieve accounting: {metrics_a}"
    );
}

#[test]
fn sieving_on_reads_are_reproducible_too() {
    let run = || traced_restart(Restart::tiny(8), IoMode::Parcoll { groups: 2 }, true, None);
    let (ra, trace_a, _) = run();
    let (rb, trace_b, _) = run();
    assert_eq!(ra.read_seconds.to_bits(), rb.read_seconds.to_bits());
    assert_eq!(trace_a, trace_b);
}

// ---------------------------------------------------------------------
// 2. Sieving correctness and the hole-threshold cutover.
// ---------------------------------------------------------------------

#[test]
fn hole_dense_restart_cuts_over_to_list_io_and_moves_fewer_bytes() {
    // den=4 leaves 75 % holes per covering extent — past the default
    // 50 % threshold, so sieving must choose coalesced per-run reads.
    let (off, _, _) = traced_restart(Restart::tiny(8), IoMode::Parcoll { groups: 2 }, false, None);
    let (on, _, metrics_on) =
        traced_restart(Restart::tiny(8), IoMode::Parcoll { groups: 2 }, true, None);
    assert!(
        metrics_on.contains("sieve_list_reads"),
        "75 % holes must cut over to list I/O: {metrics_on}"
    );
    assert!(
        on.fs_stats.total_bytes < off.fs_stats.total_bytes,
        "list I/O must not fetch the holes ({} vs {})",
        on.fs_stats.total_bytes,
        off.fs_stats.total_bytes
    );
}

#[test]
fn hole_sparse_restart_keeps_the_covering_read() {
    // den=2 is exactly 50 % holes — not *more* than the threshold, so
    // the aggregators keep the single covering read per round.
    let w = Restart::with_den(TileIo::tiny(8), 2);
    let (_, _, metrics) = traced_restart(w, IoMode::Parcoll { groups: 2 }, true, None);
    assert!(
        metrics.contains("sieve_covering_reads"),
        "50 % holes must stay on the covering read: {metrics}"
    );
    assert!(!metrics.contains("sieve_list_reads"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any tile geometry reads back byte-identical under sieving — the
    /// run asserts the restart image against the deterministic pattern
    /// internally, covering both the covering-extent and list-I/O arms.
    #[test]
    fn sieved_read_back_is_byte_identical_for_arbitrary_tiles(
        ntx in 1usize..4,
        nty in 1usize..3,
        tile_x_units in 1usize..5,
        tile_y in 1usize..5,
        elem_i in 0usize..3,
        den_i in 0usize..2,
        groups in 1usize..3,
    ) {
        let elem = [1u64, 4, 8][elem_i];
        let den = [2usize, 4][den_i];
        let tile = TileIo { ntx, nty, tile_x: tile_x_units * den, tile_y, elem };
        let w = Restart::with_den(tile, den);
        let mut cfg = RunConfig::verify(IoMode::Parcoll { groups });
        cfg.info.set("cb_ds_read", "enable");
        cfg.info.set("cb_buffer_size", 256i64);
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
    // Verify mode asserts the restart bytes internally, sieving on or
    // off.
    for sieve in [false, true] {
        let plan = Arc::new(FaultPlan::new(0xFEED).aggregator_crash(0, 1));
        let (r, _, _) = traced_restart(
            Restart::tiny(8),
            IoMode::Parcoll { groups: 2 },
            sieve,
            Some(plan),
        );
        assert!(r.read_mbps > 0.0, "sieve={sieve}");
    }
}
