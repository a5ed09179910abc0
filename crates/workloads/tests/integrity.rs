//! End-to-end data-integrity contracts (DESIGN.md §14).
//!
//! Five properties anchor the integrity subsystem:
//!
//! 1. **Silent corruption is silent** — with checksums off, a seeded
//!    `msg_corrupt` plan lands flipped bytes in the file image without
//!    changing a single virtual-time charge: the fault bookkeeping is
//!    host-side only, and nothing detects the damage.
//! 2. **Detect-and-repair** — with the `integrity_checksums` hint on,
//!    every corrupted exchange piece is caught by its checksum trailer and
//!    repaired (re-sent clean copies, or the seeded flip inverted as the
//!    last resort), so the file image is byte-identical to the fault-free
//!    run at any corruption probability — up to and including every
//!    message corrupt.
//! 3. **At-rest rot is found by the scrubber** — planted `ost_rot`
//!    extents are materialized, detected against stored page sums, and
//!    repaired from the durable-copy journal; the report names them
//!    deterministically.
//! 4. **Torn writes heal** — an aggregator crash that leaves its final
//!    window half-applied is detected next round, and the failover
//!    re-exchanges the torn window in full before resuming.
//! 5. **Seven hash passes, counted** — a verify-mode run with the scrub
//!    on feeds every file byte to the checksum seven times (DESIGN.md
//!    §14.6); the `cksum_bytes` host counter pins that number, and pins
//!    zero with integrity off and on synthetic data.

use mpiio::File;
use proptest::prelude::*;
use simfs::{FileSystem, FsConfig};
use simmpi::{Communicator, Info};
use simnet::{run_cluster, ClusterConfig, FaultPlan, IoBuffer, Mapping, SimTime};
use simtrace::host;
use std::sync::Arc;
use workloads::restart::{run_restart, Restart};
use workloads::runner::{run_workload, DataMode, IoMode, RunConfig};
use workloads::tileio::TileIo;

const RANKS: usize = 8;
const PER_CALL: usize = 512; // bytes per rank per collective call
const CALLS: usize = 2;
const IMAGE: usize = CALLS * RANKS * PER_CALL;

fn fill(rank: usize, call: usize, n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (rank as u8) ^ (call as u8).wrapping_mul(0x3D) ^ (i as u8).wrapping_mul(0x9E))
        .collect()
}

fn expected_image() -> Vec<u8> {
    let mut img = Vec::with_capacity(IMAGE);
    for call in 0..CALLS {
        for rank in 0..RANKS {
            img.extend_from_slice(&fill(rank, call, PER_CALL));
        }
    }
    img
}

struct Run {
    /// File image as read through the integrity-checked read path (empty
    /// when `read_back` was off).
    image: Vec<u8>,
    /// Rank 0's virtual clock after the post-write barrier.
    virt: f64,
    /// The file system, for post-run scrubbing.
    fs: FileSystem,
}

/// 8-rank collective write (4 aggregators, 4 exchange rounds per call)
/// with an optional fault plan and optional piece checksums.
fn run(plan: Option<FaultPlan>, checksums: bool, read_back: bool) -> Run {
    let mut fs_cfg = FsConfig::tiny();
    fs_cfg.integrity = checksums;
    let fs = FileSystem::new(fs_cfg);
    let fs2 = fs.clone();
    let mut cluster = ClusterConfig::cray_xt(RANKS, Mapping::Block);
    if let Some(plan) = plan {
        let plan = Arc::new(plan);
        fs.install_faults(&plan);
        cluster.faults = Some(plan);
    }
    let outs = run_cluster(cluster, move |ep| {
        let comm = Communicator::world(&ep);
        let mut info = Info::new().with("cb_nodes", 4).with("cb_buffer_size", 256);
        if checksums {
            info = info.with("integrity_checksums", "enable");
        }
        let mut fh = File::open(&comm, &fs2, "/img", &info);
        for call in 0..CALLS {
            let off = ((call * RANKS + comm.rank()) * PER_CALL) as u64;
            fh.write_at_all(off, &IoBuffer::from_vec(fill(comm.rank(), call, PER_CALL)));
        }
        comm.barrier();
        let out = (comm.rank() == 0).then(|| {
            let image = if read_back {
                let (buf, _) = fh.handle().read_at(0, IMAGE, ep.now());
                buf.as_slice().unwrap().to_vec()
            } else {
                Vec::new()
            };
            (image, ep.now().as_secs())
        });
        fh.close();
        out
    });
    let (image, virt) = outs.into_iter().flatten().next().expect("rank 0 output");
    Run { image, virt, fs }
}

// ---------------------------------------------------------------------
// 1. Silent corruption: checksums off.
// ---------------------------------------------------------------------

#[test]
fn silent_corruption_lands_without_checksums() {
    let clean = run(None, false, true);
    assert_eq!(clean.image, expected_image(), "fault-free harness sanity");

    let hit = run(Some(FaultPlan::new(0xBAD).msg_corrupt(1.0, None, None)), false, true);
    assert_ne!(
        hit.image,
        expected_image(),
        "every exchange piece was flipped; without checksums the damage must land"
    );
    // The whole point of *silent*: the corrupted run is indistinguishable
    // on the timeline — token bookkeeping and byte flips are host-side.
    assert_eq!(
        hit.virt, clean.virt,
        "silent corruption must not change virtual time"
    );
}

// ---------------------------------------------------------------------
// 2. Detect-and-repair: checksums on.
// ---------------------------------------------------------------------

#[test]
fn checksums_on_clean_run_is_correct_and_costs_no_virtual_time_on_faults_off() {
    let a = run(None, true, true);
    let b = run(None, true, true);
    assert_eq!(a.image, expected_image());
    assert_eq!(a.image, b.image, "checksums-on runs are byte-reproducible");
    assert_eq!(a.virt, b.virt, "checksums-on runs are time-reproducible");
}

#[test]
fn every_message_corrupt_still_repairs_to_identical_image() {
    // prob = 1.0 forces the ultimate fallback: every re-sent copy is
    // corrupt too, so the receiver must invert the seeded flip itself.
    let r = run(Some(FaultPlan::new(0xC0DE).msg_corrupt(1.0, None, None)), true, true);
    assert_eq!(r.image, expected_image());
    let clean = run(None, true, true);
    assert!(
        r.virt > clean.virt,
        "repair retries must be priced on the timeline ({} vs {})",
        r.virt,
        clean.virt
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seeded corruption pattern — sparse single flips through to
    /// heavy loss — repairs to the byte-identical file image.
    #[test]
    fn corrupted_pieces_repair_to_identical_image(seed in 0u64..1u64 << 48, prob in 0.05f64..1.0) {
        let r = run(Some(FaultPlan::new(seed).msg_corrupt(prob, None, None)), true, true);
        prop_assert_eq!(r.image, expected_image());
    }
}

// ---------------------------------------------------------------------
// 3. At-rest rot and the scrubber.
// ---------------------------------------------------------------------

#[test]
fn scrub_finds_exactly_the_planted_rot() {
    // Two extents inside the written image, one far past EOF (decays a
    // region never written — nothing to find).
    let plan = FaultPlan::new(0x0051)
        .ost_rot(1000, 64)
        .ost_rot(5000, 16)
        .ost_rot(1 << 30, 4096);
    let flips: Vec<(u64, u8)> = (0..2).map(|r| plan.rot_flip(r).unwrap()).collect();
    let r = run(Some(plan), true, false);

    let (report, done) = r.fs.scrub(SimTime::ZERO);
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.bytes_scanned, IMAGE as u64);
    assert!(report.unrepairable.is_empty(), "journaled rot is repairable");
    assert!(!report.is_clean());
    for (byte, _) in &flips {
        assert!(
            report
                .repaired
                .iter()
                .any(|(path, off, len)| path == "/img" && (*off..off + len).contains(byte)),
            "planted flip at byte {byte} must fall inside a repaired extent: {:?}",
            report.repaired
        );
    }
    assert!(done > SimTime::ZERO, "the scan is priced in virtual time");

    // A second pass is clean (each rule decays a file at most once), and
    // the repaired image reads back byte-exact.
    let (again, _) = r.fs.scrub(SimTime::ZERO);
    assert!(again.is_clean(), "second scrub pass: {again:?}");
    let (fh, now) = r.fs.open("/img", SimTime::ZERO);
    let (buf, _) = fh.read_at(0, IMAGE, now);
    assert_eq!(buf.as_slice().unwrap(), &expected_image()[..]);
}

#[test]
fn read_path_repairs_rot_without_a_scrub() {
    // No explicit scrub: the integrity-checked read detects the planted
    // mismatch and repairs from the journal before returning bytes.
    let plan = FaultPlan::new(0x0052).ost_rot(2048, 32);
    let r = run(Some(plan), true, true);
    assert_eq!(r.image, expected_image());
    let (report, _) = r.fs.scrub(SimTime::ZERO);
    assert!(report.is_clean(), "the read already repaired: {report:?}");
}

#[test]
fn scrub_reports_are_deterministic() {
    let plan = || FaultPlan::new(7).ost_rot(100, 4000).ost_rot(6000, 100);
    let a = run(Some(plan()), true, false);
    let b = run(Some(plan()), true, false);
    let (ra, ta) = a.fs.scrub(SimTime::ZERO);
    let (rb, tb) = b.fs.scrub(SimTime::ZERO);
    assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
    assert_eq!(ta, tb);
}

// ---------------------------------------------------------------------
// 4. Torn writes.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tear any of the four aggregators' windows at any crash round.
    /// Each call runs 4 rounds; rounds 1..8 span both calls, including
    /// the call-boundary cases where the tear is suppressed (detection
    /// could not land in the same call) and the crash degrades to a
    /// clean one.
    #[test]
    fn torn_write_recovery_replays_past_the_torn_round(agg in 0usize..4, round in 1u64..8) {
        let r = run(Some(FaultPlan::new(0x70A0).torn_write(agg * 2, round)), false, true);
        prop_assert_eq!(r.image, expected_image());
    }

    /// Torn crashes and checksummed pieces compose.
    #[test]
    fn torn_write_with_checksums_heals(agg in 0usize..4, round in 1u64..8) {
        let r = run(Some(FaultPlan::new(0x70A1).torn_write(agg * 2, round)), true, true);
        prop_assert_eq!(r.image, expected_image());
    }
}

// ---------------------------------------------------------------------
// Runner plumbing: the `integrity` / `scrub` knobs.
// ---------------------------------------------------------------------

#[test]
fn runner_integrity_knob_survives_corruption_and_scrubs_clean() {
    let mut cfg = RunConfig::verify(IoMode::Parcoll { groups: 2 });
    cfg.info.set("cb_nodes", 4i64);
    cfg.info.set("cb_buffer_size", 128i64);
    cfg.integrity = true;
    cfg.scrub = true;
    cfg.faults = Some(Arc::new(FaultPlan::new(0xF00D).msg_corrupt(0.5, None, None)));
    // Verify mode asserts the collective read-back byte-exact internally.
    let r = run_workload(TileIo::tiny(16), cfg);
    let scrub = r.scrub.expect("scrub report requested");
    assert!(scrub.files_scanned >= 1);
    assert!(scrub.is_clean(), "in-flight corruption never reaches disk: {scrub:?}");
}

// ---------------------------------------------------------------------
// Hash passes and copies over real bytes, as counts.
// ---------------------------------------------------------------------

/// Bytes the integrity checksum absorbed and bytes `memcpy`d on the data
/// path during one tile-io run of 16 ranks (4 MiB file, ParColl with two
/// subgroups), with the file bytes.
fn host_bytes(data: DataMode, integrity: bool) -> (u64, u64, u64) {
    let mut cfg = RunConfig::verify(IoMode::Parcoll { groups: 2 });
    cfg.data = data;
    cfg.integrity = integrity;
    cfg.scrub = integrity;
    let tiles = TileIo { ntx: 4, nty: 4, tile_x: 64, tile_y: 64, elem: 64 };
    host::reset();
    host::set_enabled(true);
    let r = run_workload(tiles, cfg);
    host::set_enabled(false);
    assert!(r.scrub.is_none_or(|s| s.is_clean()));
    let counters = host::collect().counters;
    let count = |name| counters.iter().find(|(n, _)| *n == name).expect("counter").1;
    (count("cksum_bytes"), count("copy_bytes"), r.total_bytes)
}

#[test]
fn a_verify_run_hashes_every_file_byte_seven_times_and_no_more() {
    // Sealed and checked on the way to the aggregators and on the way
    // back (4 passes over the exchanged bytes, trailers excluded), page
    // sums on write, on read and in the scrub (3 passes over whole
    // pages; the 4 MiB image keeps every window page-aligned, so the
    // count carries no slack). An eighth pass, or a lost one, shows here.
    let (hashed, _, file_bytes) = host_bytes(DataMode::Verify, true);
    assert_eq!(hashed, 7 * file_bytes, "hash passes over a {file_bytes}-byte file");
    assert_eq!(host_bytes(DataMode::Verify, true).0, hashed, "the count repeats exactly");
    assert_eq!(host_bytes(DataMode::Verify, false).0, 0, "integrity off hashes nothing");
    assert_eq!(host_bytes(DataMode::Synthetic, true).0, 0, "synthetic bytes have no hash");
}

#[test]
fn a_verify_run_copies_no_file_byte_when_it_reads_back_what_it_wrote() {
    // In: none — the file image keeps views of the user buffers the
    // payloads are windows of. Out: none either — each rank reads back
    // its own tile through the view it wrote it with, so the read's
    // parts are adjacent views of its own user buffer, and they join
    // into one view of it. A trailer travels beside its payload, so
    // checksums add no copy. Any copy — a staging window, a joined
    // fetch, a carved or sealed payload — shows here.
    let (_, copied, file_bytes) = host_bytes(DataMode::Verify, false);
    assert_eq!(copied, 0, "copies of a {file_bytes}-byte file");
    assert_eq!(host_bytes(DataMode::Verify, true).1, copied, "the same with checksums on");
    assert_eq!(host_bytes(DataMode::Synthetic, true).1, 0, "synthetic bytes are never copied");
}

#[test]
fn a_narrow_restart_read_copies_every_byte_it_reads_once() {
    // The restart reads the first quarter of every row of each
    // checkpoint tile: the rows are views of the writer's buffer with
    // holes between them, so the read's buffer is assembled, once. The
    // checkpoint write copies nothing.
    for integrity in [false, true] {
        let mut cfg = RunConfig::verify(IoMode::Parcoll { groups: 2 });
        cfg.integrity = integrity;
        let tiles = TileIo {
            ntx: 4,
            nty: 4,
            tile_x: 64,
            tile_y: 64,
            elem: 64,
        };
        host::reset();
        host::set_enabled(true);
        let r = run_restart(Restart::with_den(tiles, 4), cfg);
        host::set_enabled(false);
        let counters = host::collect().counters;
        let copied = counters
            .iter()
            .find(|(n, _)| *n == "copy_bytes")
            .expect("counter")
            .1;
        assert_eq!(
            copied, r.read_bytes,
            "checksums {integrity}: copies of a {}-byte read",
            r.read_bytes
        );
    }
}
