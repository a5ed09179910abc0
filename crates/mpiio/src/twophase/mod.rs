//! The extended two-phase collective I/O protocol (`ext2ph`).
//!
//! This is the ROMIO-generic shape of collective buffering (Thakur &
//! Choudhary's extended two-phase method), the baseline the paper dissects
//! and then augments:
//!
//! 1. **File range gathering** — `MPI_Allgather` of each rank's
//!    `(start, end)` offsets *(global sync #1)*.
//! 2. **File domain partitioning** — the touched range is divided evenly
//!    among the I/O aggregators; every rank computes the division locally
//!    ([`domains`]).
//! 3. **Request dissemination** — `MPI_Alltoall` of per-aggregator piece
//!    counts *(global sync #2)* followed by point-to-point transfers of
//!    the `(offset, len)` lists ([`reqs`]). Each list is one
//!    [`PieceList`] from here to the last round: the message is charged
//!    as the 16 bytes per piece ROMIO ships, the host passes the owner's
//!    `Arc`, and the aggregator indexes nothing again.
//! 4. **Round count** — `MPI_Allreduce(MAX)` of each aggregator's
//!    `⌈touched-domain / cb_buffer_size⌉` *(global sync #3)*.
//! 5. **Interleaved data exchange and file I/O** — per round: an
//!    `MPI_Alltoall` of this round's transfer sizes *(global sync, once
//!    per round — the proximate cause of the collective wall)*, then
//!    point-to-point data exchange into the aggregators' staging buffers,
//!    hole detection, optional read-modify-write, and the large file
//!    access.
//!
//! Writes and reads are mirror images and share all the machinery; the
//! per-aggregator/per-source piece streams advance in lock step on both
//! sides, so no per-round offset lists need to travel (exactly ROMIO's
//! trick). A stream position is *bytes consumed*: each side cuts the
//! round's pieces out of the shared list by binary search, and failover
//! replay or a torn-write rewind is arithmetic on that one number.
//!
//! Host work follows real bytes: the owner's stream is one contiguous
//! range of its user buffer, so pack and the read-side unpack are one
//! slice whatever the piece count; the aggregator visits pieces only to
//! merge the window's coverage, and copies them only when every payload
//! carries real bytes.
//!
//! And it follows fan-out, not rank count. A rank holds a list only for
//! the aggregators whose domain its access reaches into, an aggregator
//! only for the sources that sent it one (`Lists`: sorted `(peer, list)`
//! tables with the stream positions slot for slot beside them), and both
//! alltoalls above — charged and traced as the dense `MPI_Alltoall`s
//! they model — carry only the non-zero entries
//! ([`Communicator::alltoall_counts_sparse`],
//! [`Communicator::alltoall_sizes_sparse`]). A round therefore costs
//! each rank its handful of active peers, in `write_all`, `read_all`,
//! failover and the adopted-domain batches alike.
//!
//! Every synchronizing step is bracketed with [`PhaseTimer`] so the
//! profile reproduces the paper's Figure 2 decomposition.

pub mod domains;
pub mod reqs;

use crate::profile::{Phase, PhaseProfile, PhaseTimer};
use crate::space::FileSpace;
use crate::view::AccessPlan;
use domains::{compute_file_domains, compute_file_domains_aligned};
use reqs::{calc_my_req, Cut, PieceList};
use simfs::FileHandle;
use simmpi::{Communicator, RecvRequest, ReduceOp};
use simnet::buffer::BufferBuilder;
use simnet::{corrupt_flip, fnv1a, FaultState, IoBuffer};
use std::sync::Arc;

/// Tag for request-list metadata messages.
const TAG_REQ: i32 = 0x7001;
/// Tag for staged data exchange messages.
const TAG_DATA: i32 = 0x7002;
/// Tag for failover re-dissemination of a dead aggregator's piece lists.
const TAG_RECOVER: i32 = 0x7003;
/// Tag for data exchange of an adopted (failed-over) file domain.
const TAG_RECOVER_DATA: i32 = 0x7004;
/// Tag for clean re-sends of a corrupted [`TAG_DATA`] message.
const TAG_REPAIR: i32 = 0x7005;
/// Tag for clean re-sends of a corrupted [`TAG_RECOVER_DATA`] message.
const TAG_RECOVER_REPAIR: i32 = 0x7006;
/// (data, repair) tag pairs of the two data exchanges.
const DATA: (i32, i32) = (TAG_DATA, TAG_REPAIR);
const RECOVER_DATA: (i32, i32) = (TAG_RECOVER_DATA, TAG_RECOVER_REPAIR);
/// Bytes of the checksum trailer sealed onto exchanged pieces.
const TRAILER: usize = 8;

/// Configuration of one collective operation.
#[derive(Debug, Clone)]
pub struct CollConfig {
    /// Aggregators as local ranks, ascending.
    pub aggregators: Vec<usize>,
    /// Staging buffer bytes per aggregator per round.
    pub cb_buffer_size: u64,
    /// Align file-domain boundaries to this unit (Lustre stripe size);
    /// `None` divides evenly (ROMIO generic).
    pub align: Option<u64>,
    /// End-to-end piece integrity (`integrity_checksums` hint): seal every
    /// exchanged data payload with a checksum trailer at pack time, verify
    /// at unpack, and run the sender-assisted detect-and-repair protocol
    /// on mismatch. Off is bitwise identical to a build without the
    /// integrity layer.
    pub checksums: bool,
    /// Data sieving in the read aggregators (`cb_ds_read` hint): measure
    /// each round window's hole density and cut over from the single
    /// covering read to coalesced per-run reads when holes dominate. Off
    /// always issues the covering read — bitwise identical to the
    /// pre-sieving protocol.
    pub sieve_read: bool,
    /// Hole-density cutover percent for [`CollConfig::sieve_read`]
    /// (`cb_ds_hole_threshold` hint): list I/O wins once
    /// `holes × 100 > span × pct`. Integer arithmetic, so every rank
    /// takes the same branch.
    pub sieve_hole_pct: u8,
}

impl CollConfig {
    /// Validate against a communicator size.
    fn check(&self, p: usize) {
        assert!(!self.aggregators.is_empty(), "no aggregators configured");
        assert!(self.cb_buffer_size > 0, "zero collective buffer");
        assert!(
            self.aggregators.iter().all(|&a| a < p),
            "aggregator rank out of range: {:?} (size {p})",
            self.aggregators
        );
    }
}

/// Seal a packed payload: append the 8-byte little-endian checksum trailer
/// over the payload bytes. Announced transfer sizes exclude the trailer,
/// so the protocol's size agreement and cursor lock-step are unchanged —
/// only the wire carries the extra bytes. Synthetic payloads stay
/// synthetic at `n + 8`: their integrity is modeled by the fault token (a
/// link-level checksum stands in for one over bytes never materialized).
fn seal(payload: IoBuffer, checksums: bool) -> IoBuffer {
    if !checksums {
        return payload;
    }
    let sum = match payload.as_slice() {
        Some(bytes) => {
            let _hp = simtrace::host::scope(simtrace::host::Site::CksumCompute);
            simtrace::host::count(simtrace::host::Counter::CksumBytes, bytes.len() as u64);
            fnv1a(bytes)
        }
        None => 0,
    };
    let mut b = BufferBuilder::with_capacity(payload.len() + TRAILER);
    b.push(&payload);
    b.push_bytes(&sum.to_le_bytes());
    b.finish()
}

/// Check a sealed payload's trailer against its bytes. Synthetic payloads
/// pass — the caller's fault token carries their corruption state.
fn trailer_ok(payload: &IoBuffer) -> bool {
    match payload.as_slice() {
        Some(bytes) => {
            let _hp = simtrace::host::scope(simtrace::host::Site::CksumVerify);
            let n = bytes.len() - TRAILER;
            simtrace::host::count(simtrace::host::Counter::CksumBytes, n as u64);
            let mut t = [0u8; TRAILER];
            t.copy_from_slice(&bytes[n..]);
            fnv1a(&bytes[..n]) == u64::from_le_bytes(t)
        }
        None => true,
    }
}

/// Sender side of the repair protocol: when the fault layer corrupted the
/// data message just posted, immediately post clean copies on the repair
/// tag until one survives its own corruption draw (or the retry budget
/// runs out). Sender and receiver derive the same copy count from the
/// same seeded draws, so no negative acknowledgement needs to travel.
fn resend_if_corrupt(
    comm: &Communicator<'_>,
    dst: usize,
    repair_tag: i32,
    payload: &IoBuffer,
    checksums: bool,
) {
    if !checksums {
        return;
    }
    let ep = comm.endpoint();
    let Some(faults) = ep.faults().filter(|f| f.plan().has_corrupt_rules()) else {
        return;
    };
    if faults.last_send_corrupt() == 0 {
        return;
    }
    let retries = faults.plan().max_retries.max(1);
    for _ in 0..retries {
        comm.isend(dst, repair_tag, payload.clone());
        if faults.last_send_corrupt() == 0 {
            break;
        }
    }
}

/// Receiver side of the end-to-end integrity protocol for one received
/// data payload.
///
/// Delivery is tombstoned: the wire payload arrives untouched and the
/// consumer realizes any corruption its packet drew. Without checksums
/// the flip is applied silently — exactly the wrong answer the integrity
/// layer exists to prevent. With checksums the trailer mismatch is
/// detected, an exponential-backoff re-request is charged per attempt,
/// and the sender's clean copies (already posted, see
/// [`resend_if_corrupt`]) are consumed until one verifies. If every copy
/// was damaged in flight too, the recorded flip — which is self-inverse —
/// is inverted in place, so the protocol never returns a silently wrong
/// byte. Returns the payload with the trailer stripped.
fn verify_payload(
    comm: &Communicator<'_>,
    src: usize,
    data_tag: i32,
    repair_tag: i32,
    payload: IoBuffer,
    checksums: bool,
    prof: &mut PhaseProfile,
) -> IoBuffer {
    let ep = comm.endpoint();
    let faults = ep.faults().filter(|f| f.plan().has_corrupt_rules());
    let mut payload = payload;
    let mut token = 0u64;
    if src != comm.rank() {
        if let Some(f) = &faults {
            token = f.take_corrupt(src, data_tag);
            if token != 0 {
                if let Some(bytes) = payload.as_mut_slice() {
                    corrupt_flip(bytes, token);
                }
            }
        }
    }
    if !checksums {
        return payload;
    }
    let n = payload.len() - TRAILER;
    if token == 0 && trailer_ok(&payload) {
        return payload.sub(0, n);
    }
    // Detected: consume the sender's clean copies, backing off per
    // attempt as a re-request round trip. All costs land in a `recovery`
    // span, like aggregator failover.
    let faults = faults.expect("a corrupted payload implies an installed plan");
    let plan = faults.plan();
    let t0 = ep.now();
    let t = PhaseTimer::start(Phase::P2p, ep.now());
    let mut repaired: Option<IoBuffer> = None;
    let retries = plan.max_retries.max(1);
    for attempt in 0..retries {
        ep.clock()
            .advance(plan.retry_timeout * (1u64 << attempt.min(20)) as f64);
        let copy = comm.recv(src, repair_tag);
        let copy_token = faults.take_corrupt(src, repair_tag);
        if copy_token == 0 && trailer_ok(&copy) {
            repaired = Some(copy);
            break;
        }
    }
    let fell_back = repaired.is_none();
    let mut payload = repaired.unwrap_or(payload);
    if fell_back && token != 0 {
        if let Some(bytes) = payload.as_mut_slice() {
            corrupt_flip(bytes, token);
        }
    }
    t.stop_traced(ep.now(), prof, ep.trace());
    let rec = ep.trace();
    if rec.enabled() {
        rec.span(
            "phase",
            "recovery",
            t0.as_micros(),
            ep.now().as_micros(),
            vec![("at", simtrace::ArgValue::from("piece_repair"))],
        );
        rec.span(
            "fault",
            "piece_repair",
            t0.as_micros(),
            ep.now().as_micros(),
            vec![("src", simtrace::ArgValue::from(src))],
        );
        rec.count("pieces_repaired", 1);
        if fell_back {
            rec.count("piece_repair_fallbacks", 1);
        }
    }
    payload.sub(0, n)
}

/// Sender side of one data message: pack stream bytes `[*pos, *pos + n)`
/// of `list` out of the user buffer, seal, and advance the position. The
/// stream is one contiguous range of the buffer, so this is a single
/// range-checked slice — a zero-copy view when the bytes are real.
fn pack(
    comm: &Communicator<'_>,
    buf: &IoBuffer,
    list: &PieceList,
    pos: &mut u64,
    n: u64,
    checksums: bool,
    prof: &mut PhaseProfile,
) -> IoBuffer {
    let ep = comm.endpoint();
    let t = PhaseTimer::start(Phase::Local, ep.now());
    let hp = simtrace::host::scope(simtrace::host::Site::Pack);
    let payload = buf.sub(list.buffer_offset(*pos, n) as usize, n as usize);
    *pos += n;
    ep.charge_memcpy(n as usize);
    let payload = seal(payload, checksums);
    drop(hp);
    t.stop_traced(ep.now(), prof, ep.trace());
    payload
}

/// Post one data payload, followed by its clean copies if the fault
/// layer corrupted it.
fn post(
    comm: &Communicator<'_>,
    dst: usize,
    (data_tag, repair_tag): (i32, i32),
    payload: &IoBuffer,
    checksums: bool,
    prof: &mut PhaseProfile,
) {
    let ep = comm.endpoint();
    let t = PhaseTimer::start(Phase::P2p, ep.now());
    comm.isend(dst, data_tag, payload.clone());
    resend_if_corrupt(comm, dst, repair_tag, payload, checksums);
    t.stop_traced(ep.now(), prof, ep.trace());
}

/// Receiver side of one data exchange: complete one receive per rank in
/// `srcs` (ascending) as a batch, append the payload this rank packed
/// for itself, then verify — and, with checksums on, repair — each one
/// before any byte lands anywhere; with checksums off this is where a
/// planted in-flight flip reaches the data.
fn collect(
    comm: &Communicator<'_>,
    srcs: Vec<usize>,
    (data_tag, repair_tag): (i32, i32),
    self_payload: Option<IoBuffer>,
    checksums: bool,
    prof: &mut PhaseProfile,
) -> Vec<(usize, IoBuffer)> {
    let ep = comm.endpoint();
    let t = PhaseTimer::start(Phase::P2p, ep.now());
    let reqs: Vec<RecvRequest> = srcs.iter().map(|&src| comm.irecv(src, data_tag)).collect();
    let mut arrived: Vec<(usize, IoBuffer)> = srcs.into_iter().zip(comm.waitall(&reqs)).collect();
    arrived.extend(self_payload.map(|payload| (comm.rank(), payload)));
    t.stop_traced(ep.now(), prof, ep.trace());
    arrived
        .into_iter()
        .map(|(src, payload)| {
            let payload = verify_payload(comm, src, data_tag, repair_tag, payload, checksums, prof);
            (src, payload)
        })
        .collect()
}

/// The non-empty piece lists one side of the exchange holds, keyed by
/// peer and ascending: by aggregator index for a rank's own requests, by
/// source rank for an aggregator's domain. Stream positions and every
/// round's work are sized by these — the (rank, aggregator) pairs that
/// exchange anything — not by the communicator.
type Lists = Vec<(usize, Arc<PieceList>)>;

/// Slot of `key` in a table sorted by key.
fn slot_of<T>(table: &[(usize, T)], key: usize) -> Option<usize> {
    table.binary_search_by_key(&key, |entry| entry.0).ok()
}

/// The value under `key` in a sparse table of non-zero values.
fn value_of(table: &[(usize, u64)], key: usize) -> u64 {
    slot_of(table, key).map_or(0, |slot| table[slot].1)
}

/// Receive the piece lists that `srcs` (ascending) sent on `tag` and
/// keep the non-empty ones, by source; `mine` is this rank's own list,
/// if it has one (self-assignment travels by no message). The entries
/// are the senders' own `Arc`s.
fn recv_lists(
    comm: &Communicator<'_>,
    tag: i32,
    srcs: impl Iterator<Item = usize>,
    mine: Option<Arc<PieceList>>,
) -> Lists {
    let srcs: Vec<usize> = srcs.collect();
    let reqs: Vec<RecvRequest> = srcs.iter().map(|&src| comm.irecv(src, tag)).collect();
    let arrived = comm.waitall_t::<PieceList>(&reqs);
    let _hp = simtrace::host::scope(simtrace::host::Site::CollSetup);
    let arrived = srcs.into_iter().zip(arrived);
    let mut lists: Lists = arrived.filter(|(_, l)| !l.pieces().is_empty()).collect();
    if let Some(mine) = mine {
        let at = lists.partition_point(|entry| entry.0 < comm.rank());
        lists.insert(at, (comm.rank(), mine));
    }
    lists
}

/// The file range spanned by those of `ranges` that exist. Piece lists
/// and cuts are sorted, so each contributes just its first and last piece.
fn hull(ranges: impl Iterator<Item = Option<(u64, u64)>>) -> Option<(u64, u64)> {
    ranges.flatten().reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))
}

/// The sources with bytes in window `[lo, hi)` and how many: the row an
/// aggregator announces in the round's size exchange, ascending.
fn window_row(lists: &Lists, (lo, hi): (u64, u64)) -> Vec<(usize, u64)> {
    let _hp = simtrace::host::scope(simtrace::host::Site::SizeExchange);
    simtrace::host::count(
        simtrace::host::Counter::SizeExchangeElems,
        lists.len() as u64,
    );
    let sized = lists
        .iter()
        .map(|(src, list)| (*src, list.bytes_in_window(lo, hi)));
    sized.filter(|&(_, n)| n > 0).collect()
}

/// The sources of `row` an aggregator receives a message from: all but
/// itself, whose bytes travel by no message.
fn remote_sources(row: &[(usize, u64)], me: usize) -> Vec<usize> {
    let srcs = row.iter().map(|&(src, _)| src);
    srcs.filter(|&src| src != me).collect()
}

/// Shared state computed by the setup phase.
struct Setup {
    /// The piece lists of *my* access, by aggregator index.
    my_req: Lists,
    /// If I am an aggregator: the lists inside my domain, by source (the
    /// sources' own `Arc`s).
    others_req: Option<Lists>,
    /// My index in the aggregator list, if any.
    my_agg_idx: Option<usize>,
    /// Start of the touched range in my domain (aggregators only).
    st_loc: u64,
    /// Global number of exchange rounds.
    ntimes: u64,
}

/// Steps 1–4: range gathering, domain partitioning, request
/// dissemination, round count. Returns `None` when no rank moves bytes.
fn setup(
    comm: &Communicator<'_>,
    plan: &AccessPlan,
    cfg: &CollConfig,
    prof: &mut PhaseProfile,
) -> Option<Setup> {
    let ep = comm.endpoint();
    cfg.check(comm.size());
    let naggs = cfg.aggregators.len();
    let my_agg_idx = cfg.aggregators.iter().position(|&a| a == comm.rank());

    // (1) Allgather of (start, end) — global sync.
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let my_range: Option<(u64, u64)> = plan.start().map(|s| (s, plan.end().unwrap()));
    let ranges = comm.allgather_t(my_range, 16);
    t.stop_traced(ep.now(), prof, ep.trace());

    let hp = simtrace::host::scope(simtrace::host::Site::CollSetup);
    let min_st = ranges.iter().flatten().map(|r| r.0).min()?;
    let max_end = ranges.iter().flatten().map(|r| r.1).max().unwrap();

    // (2) File domains, computed identically everywhere.
    let file_domains = match cfg.align {
        Some(align) => compute_file_domains_aligned(min_st, max_end, naggs, align),
        None => compute_file_domains(min_st, max_end, naggs),
    };
    let my_req = calc_my_req(plan, &file_domains);
    let counts = my_req
        .iter()
        .map(|(a, list)| (cfg.aggregators[*a], list.pieces().len() as u64));
    let counts: Vec<(usize, u64)> = counts.collect();
    drop(hp);

    // (3a) Alltoall of piece counts — global sync.
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let counts_from = comm.alltoall_counts_sparse(counts);
    t.stop_traced(ep.now(), prof, ep.trace());

    // (3b) Point-to-point transfer of the (offset, len) lists: charged as
    // ROMIO's wire size, passed as the owner's `Arc`. Only non-empty
    // lists exist, and self-assignment sends no message.
    let t = PhaseTimer::start(Phase::P2p, ep.now());
    for (a, list) in &my_req {
        let dst = cfg.aggregators[*a];
        if dst != comm.rank() {
            comm.isend_t(dst, TAG_REQ, Arc::clone(list), list.wire_bytes());
        }
    }
    let others_req = my_agg_idx.map(|a| {
        let srcs = counts_from.iter().map(|&(src, _)| src);
        let mine = slot_of(&my_req, a).map(|slot| Arc::clone(&my_req[slot].1));
        recv_lists(comm, TAG_REQ, srcs.filter(|&src| src != comm.rank()), mine)
    });
    t.stop_traced(ep.now(), prof, ep.trace());

    // (4) Round count: ceil(touched-range / cb_buffer) per aggregator,
    // allreduce MAX — global sync.
    let (st_loc, my_ntimes) = match &others_req {
        Some(others) => {
            let (st, end) = hull(others.iter().map(|(_, l)| l.file_range())).unwrap_or((0, 0));
            (st, (end - st).div_ceil(cfg.cb_buffer_size))
        }
        None => (0, 0),
    };
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let ntimes = comm.allreduce_u64(&[my_ntimes], ReduceOp::Max)[0];
    t.stop_traced(ep.now(), prof, ep.trace());

    Some(Setup {
        my_req,
        others_req,
        my_agg_idx,
        st_loc,
        ntimes,
    })
}

/// Fault hooks at collective entry: consume any pending one-shot rank
/// stall, re-agree the lock-step round counter, retire aggregators whose
/// crash round has already passed, and return the effective configuration
/// with dead I/O roles filtered out — `None` where `cfg` stands as it is.
/// Without an installed fault plan that is all that happens: no copy, no
/// extra communication, so the fault-free path stays bitwise identical.
fn fault_entry(
    comm: &Communicator<'_>,
    cfg: &CollConfig,
    phase: &'static str,
    prof: &mut PhaseProfile,
) -> Option<CollConfig> {
    let ep = comm.endpoint();
    let faults = ep.faults()?;
    if let Some(d) = faults.take_stall(ep.rank(), phase) {
        let t0 = ep.now();
        ep.clock().advance(d);
        let rec = ep.trace();
        if rec.enabled() {
            rec.span(
                "fault",
                "rank_stall",
                t0.as_micros(),
                ep.now().as_micros(),
                vec![("phase", simtrace::ArgValue::from(phase))],
            );
            rec.count("rank_stalls", 1);
        }
    }
    if !faults.plan().has_crash_rules() {
        return None;
    }
    // Crash detection needs every member to consult the same round
    // counter; members regrouped after unequal round histories re-agree
    // on the maximum.
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let agreed = comm.allreduce_u64(&[faults.write_round()], ReduceOp::Max)[0];
    t.stop_traced(ep.now(), prof, ep.trace());
    faults.set_write_round(agreed);

    // Aggregators whose crash round already passed die before setup: the
    // domain is partitioned among the survivors and no mid-call failover
    // is needed.
    let mut newly_dead = false;
    for &a in &cfg.aggregators {
        let g = comm.global_rank(a);
        if faults
            .plan()
            .agg_crash(g)
            .is_some_and(|k| k <= faults.write_round())
            && faults.mark_dead(g)
        {
            newly_dead = true;
        }
    }
    if newly_dead {
        // First discovery charges the detection timeout: the initial
        // exchange with the dead role times out before the survivors
        // reorganize.
        let t0 = ep.now();
        ep.clock().advance(faults.plan().detect_timeout);
        let rec = ep.trace();
        if rec.enabled() {
            rec.span(
                "phase",
                "recovery",
                t0.as_micros(),
                ep.now().as_micros(),
                vec![("at", simtrace::ArgValue::from("setup"))],
            );
            rec.count("agg_crash_detected", 1);
        }
    }
    let mut live: Vec<usize> = cfg
        .aggregators
        .iter()
        .copied()
        .filter(|&a| !faults.is_dead(comm.global_rank(a)))
        .collect();
    if live.is_empty() {
        // Every hinted aggregator is dead: the lowest live member stands
        // in so the collective still completes (degraded mode).
        let promoted = (0..comm.size())
            .find(|&r| !faults.is_dead(comm.global_rank(r)))
            .expect("communicator retains at least one live rank");
        live.push(promoted);
    }
    Some(CollConfig {
        aggregators: live,
        cb_buffer_size: cfg.cb_buffer_size,
        align: cfg.align,
        checksums: cfg.checksums,
        sieve_read: cfg.sieve_read,
        sieve_hole_pct: cfg.sieve_hole_pct,
    })
}

/// Successor-side state after an aggregator failover: the adopted
/// domain's piece lists and replayed stream positions.
struct Adoption {
    /// The pieces inside the dead aggregator's file domain, by source.
    others: Lists,
    /// Their stream positions (bytes consumed), slot for slot.
    pos: Vec<u64>,
    /// Start of the dead domain's touched range (its `st_loc`).
    st_dead: u64,
}

/// Failover facts every rank derives without communicating.
struct AdoptShared {
    /// Index of the dead aggregator in `cfg.aggregators`.
    dead_agg: usize,
    /// Local rank that adopted the dead domain.
    successor: usize,
    /// Round whose detection must heal a torn write first: the dead
    /// aggregator half-applied its previous window, so that round's
    /// exchange replays in full before the current one.
    heal_at: Option<u64>,
}

/// Aggregator failover, detected at `round`: the subgroup re-homes the
/// dead aggregator's file domain onto a successor. Every rank re-sends
/// its piece list for the dead domain (the successor cannot ask — that
/// metadata died with the aggregator), and the successor replays its
/// cursors past the rounds the dead aggregator already wrote, so the
/// exchange resumes from the last completed round. All costs land in one
/// `recovery` phase span for critical-path attribution.
fn failover(
    comm: &Communicator<'_>,
    cfg: &CollConfig,
    setup: &Setup,
    faults: &FaultState,
    dead_agg: usize,
    round: u64,
    torn: bool,
) -> (AdoptShared, Option<Adoption>) {
    let ep = comm.endpoint();
    let p = comm.size();
    let plan = faults.plan();
    let t0 = ep.now();
    // Detection: this round's size exchange timed out on the dead role.
    ep.clock().advance(plan.detect_timeout);

    // Successor: the next surviving aggregator after the dead one
    // (wrapping), else the lowest live member — the subgroup lost its
    // last aggregator and a stand-in finishes this call (ParColl's
    // file-area merge repairs the grouping on the next call).
    let naggs = cfg.aggregators.len();
    let successor = (1..naggs)
        .map(|d| cfg.aggregators[(dead_agg + d) % naggs])
        .find(|&a| !faults.is_dead(comm.global_rank(a)))
        .or_else(|| (0..p).find(|&r| !faults.is_dead(comm.global_rank(r))))
        .expect("communicator retains at least one live rank");

    // Re-dissemination: every rank ships its pieces for the dead domain
    // to the successor. Empty lists travel too, so the successor's
    // receive set is known without another size exchange.
    let mine = slot_of(&setup.my_req, dead_agg).map(|slot| Arc::clone(&setup.my_req[slot].1));
    let adoption = if comm.rank() == successor {
        let srcs = (0..p).filter(|&src| src != comm.rank());
        let others = recv_lists(comm, TAG_RECOVER, srcs, mine);
        // The same lists the dead aggregator held, so this equals its
        // `st_loc` and the window tiling lines up.
        let st_dead = hull(others.iter().map(|(_, l)| l.file_range())).map_or(0, |r| r.0);
        // Replay: each source's stream stands past the rounds the dead
        // aggregator completed. Senders consumed exactly these byte
        // counts, so both sides stay in lock step. A torn crash backs up
        // one extra window — the dead role's last write was only half
        // applied, and the detection round re-exchanges it in full.
        let done_rounds = if torn { round - 1 } else { round };
        let done_end = st_dead + done_rounds * cfg.cb_buffer_size;
        let replayed = others
            .iter()
            .map(|(_, list)| list.bytes_in_window(st_dead, done_end));
        let pos = replayed.collect();
        Some(Adoption {
            others,
            pos,
            st_dead,
        })
    } else {
        let list = mine.unwrap_or_else(PieceList::empty);
        let wire_bytes = list.wire_bytes();
        comm.isend_t(successor, TAG_RECOVER, list, wire_bytes);
        None
    };

    let rec = ep.trace();
    if rec.enabled() {
        rec.span(
            "phase",
            "recovery",
            t0.as_micros(),
            ep.now().as_micros(),
            vec![
                (
                    "dead_rank",
                    simtrace::ArgValue::from(comm.global_rank(cfg.aggregators[dead_agg])),
                ),
                ("round", simtrace::ArgValue::from(round)),
            ],
        );
        rec.span(
            "fault",
            "agg_failover",
            t0.as_micros(),
            ep.now().as_micros(),
            vec![],
        );
        rec.count("agg_failovers", 1);
    }
    (
        AdoptShared {
            dead_agg,
            successor,
            heal_at: torn.then_some(round),
        },
        adoption,
    )
}

/// Collective write: every rank contributes `buf` (of `plan.total` bytes)
/// laid out per `plan`. Completion is collective: the protocol's final
/// round synchronizes all ranks.
pub fn write_all(
    comm: &Communicator<'_>,
    fh: &FileHandle,
    space: &dyn FileSpace,
    plan: &AccessPlan,
    buf: &IoBuffer,
    cfg: &CollConfig,
    prof: &mut PhaseProfile,
) {
    assert_eq!(
        buf.len() as u64,
        plan.total,
        "buffer length must match the access plan"
    );
    prof.calls += 1;
    let ep = comm.endpoint();
    let degraded = fault_entry(comm, cfg, "write_all", prof);
    let cfg = degraded.as_ref().unwrap_or(cfg);
    let Some(setup) = setup(comm, plan, cfg, prof) else {
        return;
    };

    // Stream positions (bytes consumed), slot for slot with the lists:
    // mine toward each aggregator I hold pieces for, and, as an
    // aggregator, each source's inside my domain.
    let mut send_pos = vec![0u64; setup.my_req.len()];
    let mut recv_pos = vec![0u64; setup.others_req.as_ref().map_or(0, Vec::len)];
    // Bytes sent toward each aggregator's domain in the previous round,
    // so a torn failover can rewind the stream by exactly one window.
    let mut sent_last = vec![0u64; setup.my_req.len()];

    // Crash bookkeeping: the lock-step round counter only advances (and
    // detection only runs) when the plan can kill aggregators, so the
    // fault-free path stays bitwise identical.
    let crash_faults = ep.faults().filter(|f| f.plan().has_crash_rules());
    let agg_globals: Vec<usize> = match crash_faults {
        Some(_) => cfg
            .aggregators
            .iter()
            .map(|&a| comm.global_rank(a))
            .collect(),
        None => Vec::new(),
    };
    let mut adoptions: Vec<(AdoptShared, Option<Adoption>)> = Vec::new();
    let mut my_role_dead = false;

    for round in 0..setup.ntimes {
        prof.rounds += 1;
        let round_start = ep.now();
        let mut torn_write = false;
        // Symmetric crash detection: every member consults the shared
        // plan against the agreed round counter, so the subgroup learns
        // of a crash in the same round without communicating (the
        // simulation stands in for a timeout-based detector). Successor
        // ranks adopted on an earlier failover are watched too: a crash
        // while recovering re-homes the adopted domain again.
        if let Some(faults) = crash_faults {
            let round_id = faults.next_write_round();
            let crashed = |g: usize| {
                faults.plan().agg_crash(g).is_some_and(|k| round_id >= k) && !faults.is_dead(g)
            };
            let newly: Vec<usize> = agg_globals
                .iter()
                .enumerate()
                .filter(|&(_, &g)| crashed(g))
                .map(|(ai, _)| ai)
                .collect();
            let rehome: Vec<usize> = adoptions
                .iter()
                .filter(|(sh, _)| crashed(comm.global_rank(sh.successor)))
                .map(|(sh, _)| sh.dead_agg)
                .collect();
            if !newly.is_empty() || !rehome.is_empty() {
                // Mark every rank that died this round before choosing
                // successors, so no domain lands on a fresh corpse.
                for &ai in &newly {
                    faults.mark_dead(agg_globals[ai]);
                    if setup.my_agg_idx == Some(ai) {
                        my_role_dead = true;
                    }
                }
                for (sh, ad) in adoptions.iter_mut() {
                    if rehome.contains(&sh.dead_agg) {
                        faults.mark_dead(comm.global_rank(sh.successor));
                        *ad = None;
                    }
                }
                // Domains to (re)assign, ascending: freshly dead ones
                // plus adopted ones whose successor died.
                let mut domains: Vec<usize> =
                    newly.iter().chain(rehome.iter()).copied().collect();
                domains.sort_unstable();
                domains.dedup();
                for dead_ai in domains {
                    adoptions.retain(|(sh, _)| sh.dead_agg != dead_ai);
                    let torn = newly.contains(&dead_ai)
                        && round >= 1
                        && faults.plan().torn_crash(agg_globals[dead_ai]);
                    if torn {
                        // Senders rewind one window; the heal exchange
                        // in this round's adopted batch re-consumes it.
                        if let Some(slot) = slot_of(&setup.my_req, dead_ai) {
                            send_pos[slot] -= sent_last[slot];
                        }
                    }
                    let (shared, mine) =
                        failover(comm, cfg, &setup, faults, dead_ai, round, torn);
                    adoptions.push((shared, mine));
                }
            }
            // The round before a torn crash: the dying aggregator's own
            // window write is half-applied (the exchange itself succeeds;
            // only the OST write is interrupted). Injected only when the
            // detection round still falls inside this call, so the heal
            // replay can run.
            let g = comm.global_rank(comm.rank());
            torn_write = setup.my_agg_idx.is_some()
                && !my_role_dead
                && round + 1 < setup.ntimes
                && faults.plan().torn_crash(g)
                && faults.plan().agg_crash(g) == Some(faults.write_round());
        }
        // Aggregator's window for this round. A dead I/O role lives on
        // as a sender, but its domain now belongs to the successor.
        let mine = setup
            .others_req
            .as_ref()
            .filter(|_| !my_role_dead)
            .map(|others| {
                let lo = setup.st_loc + round * cfg.cb_buffer_size;
                (others, (lo, lo + cfg.cb_buffer_size))
            });

        // Per-round MPI_Alltoall of transfer sizes — the global sync the
        // collective wall is made of. The aggregator announces how many
        // bytes it expects from each source this round, and keeps what
        // it announced: the receive phase needs the same values.
        let t = PhaseTimer::start(Phase::Sync, ep.now());
        let my_row = mine.map(|(others, window)| window_row(others, window));
        let expected = comm.alltoall_sizes_sparse(my_row.clone().unwrap_or_default());
        t.stop_traced(ep.now(), prof, ep.trace());

        // Senders: pack (local memcpy) and post (p2p) this round's bytes
        // for each aggregator that asked for some, in aggregator order.
        // Only an aggregator I sent a list to can ask.
        let mut self_payload: Option<IoBuffer> = None;
        for (slot, (a, list)) in setup.my_req.iter().enumerate() {
            let agg_rank = cfg.aggregators[*a];
            let n = value_of(&expected, agg_rank);
            sent_last[slot] = n;
            if n == 0 {
                continue;
            }
            let payload = pack(comm, buf, list, &mut send_pos[slot], n, cfg.checksums, prof);
            if agg_rank == comm.rank() {
                self_payload = Some(payload);
            } else {
                post(comm, agg_rank, DATA, &payload, cfg.checksums, prof);
            }
        }

        // Aggregator: collect this round's payloads, assemble the staging
        // buffer and perform file I/O.
        if let (Some((others, window)), Some(my_row)) = (mine, my_row) {
            let srcs = remote_sources(&my_row, comm.rank());
            let incoming = collect(comm, srcs, DATA, self_payload, cfg.checksums, prof);
            let lists = (others.as_slice(), recv_pos.as_mut_slice());
            write_window(comm, fh, space, prof, window, lists, incoming, torn_write);
        }

        // Adopted domains (after mid-call failovers): each runs its own
        // size and data exchange per round, in adoption order on every
        // rank (identical order everywhere keeps the eager exchanges
        // deadlock-free). A torn-crash domain detected this round first
        // heals the half-written previous window with a full re-exchange.
        let batches: Vec<(usize, u64)> = adoptions
            .iter()
            .enumerate()
            .flat_map(|(i, (sh, _))| {
                let heal = (sh.heal_at == Some(round)).then(|| (i, round - 1));
                heal.into_iter().chain(std::iter::once((i, round)))
            })
            .collect();
        for (i, wi) in batches {
            let (sh, adopted) = &mut adoptions[i];
            let (dead_agg, successor) = (sh.dead_agg, sh.successor);
            // Size exchange: the successor announces what it expects
            // inside the adopted domain's window `wi`.
            let t = PhaseTimer::start(Phase::Sync, ep.now());
            let window = adopted.as_ref().map(|ad| {
                let lo = ad.st_dead + wi * cfg.cb_buffer_size;
                (lo, lo + cfg.cb_buffer_size)
            });
            let my_row = match (adopted.as_ref(), window) {
                (Some(ad), Some(window)) => window_row(&ad.others, window),
                _ => Vec::new(),
            };
            let expected = comm.alltoall_sizes_sparse(my_row.clone());
            t.stop_traced(ep.now(), prof, ep.trace());

            // Senders: this window's bytes for the adopted domain go to
            // the successor (the dead role announces nothing after the
            // crash, so the main loop never touches its stream again).
            let mut adopt_self: Option<IoBuffer> = None;
            let n = value_of(&expected, successor);
            if n > 0 {
                let slot = slot_of(&setup.my_req, dead_agg)
                    .expect("the successor asks only ranks that sent it pieces");
                let list = &setup.my_req[slot].1;
                let pos = &mut send_pos[slot];
                let payload = pack(comm, buf, list, pos, n, cfg.checksums, prof);
                if successor == comm.rank() {
                    adopt_self = Some(payload);
                } else {
                    post(comm, successor, RECOVER_DATA, &payload, cfg.checksums, prof);
                }
            }

            // Successor: collect and write this window.
            if let (Some(ad), Some(window)) = (adopted.as_mut(), window) {
                let srcs = remote_sources(&my_row, comm.rank());
                let incoming = collect(comm, srcs, RECOVER_DATA, adopt_self, cfg.checksums, prof);
                let lists = (ad.others.as_slice(), ad.pos.as_mut_slice());
                write_window(comm, fh, space, prof, window, lists, incoming, false);
            }
        }

        let rec = ep.trace();
        if rec.enabled() {
            rec.span(
                "round",
                "write_round",
                round_start.as_micros(),
                ep.now().as_micros(),
                vec![
                    ("round", simtrace::ArgValue::from(round)),
                    ("of", simtrace::ArgValue::from(setup.ntimes)),
                ],
            );
        }
    }
    let rec = ep.trace();
    if rec.enabled() {
        rec.count("ext2ph_write_calls", 1);
        rec.observe("ext2ph_rounds", setup.ntimes as f64);
    }

    // No trailing barrier: as in ROMIO, a rank returns once its own
    // participation ends (its last sends are posted, its windows are
    // written). The next collective call — or the benchmark harness's
    // explicit barrier — absorbs any residual skew.
}

/// Cut `n` more bytes off `src`'s stream for every `(src, n)`: the pieces
/// this round moves, in the order given. Advances the stream positions.
fn cut_streams<'a>(
    (lists, pos): (&'a [(usize, Arc<PieceList>)], &mut [u64]),
    sizes: impl Iterator<Item = (usize, u64)>,
) -> Vec<Cut<'a>> {
    sizes
        .map(|(src, n)| {
            let slot = slot_of(lists, src).expect("bytes only from a source that sent a list");
            let cut = lists[slot].1.cut(pos[slot], n);
            pos[slot] += n;
            cut
        })
        .collect()
}

/// Land every payload's bytes on its cut's pieces inside `window` (which
/// starts at file offset `base`), then release the payloads. Host work
/// follows real bytes: one synthetic payload leaves the whole window
/// synthetic — what piece-by-piece degradation would — and no piece is
/// visited.
fn scatter(window: &mut IoBuffer, base: u64, cuts: &[Cut<'_>], payloads: Vec<(usize, IoBuffer)>) {
    let _hp = simtrace::host::scope(simtrace::host::Site::Unpack);
    if !payloads.iter().all(|(_, payload)| payload.is_real()) {
        *window = IoBuffer::synthetic(window.len());
        return;
    }
    let Some(dst) = window.as_mut_slice() else {
        return;
    };
    for (cut, (_, payload)) in cuts.iter().zip(&payloads) {
        let src = payload.as_slice().expect("checked real above");
        let mut at = 0usize;
        for piece in cut.iter() {
            let (to, n) = ((piece.file_off - base) as usize, piece.len as usize);
            dst[to..to + n].copy_from_slice(&src[at..at + n]);
            at += n;
        }
    }
}

/// Place one round of received pieces and write them out.
///
/// `torn` models an aggregator dying mid-OST-write: every chunk of this
/// window reaches storage truncated to its first half (the crash cuts
/// the transfer short). The heal replay in the next round's detection
/// rewrites the full window.
#[allow(clippy::too_many_arguments)]
fn write_window(
    comm: &Communicator<'_>,
    fh: &FileHandle,
    space: &dyn FileSpace,
    prof: &mut PhaseProfile,
    (lo, hi): (u64, u64),
    lists: (&[(usize, Arc<PieceList>)], &mut [u64]),
    incoming: Vec<(usize, IoBuffer)>,
    torn: bool,
) {
    let ep = comm.endpoint();
    if incoming.is_empty() {
        return;
    }
    // Targets: which pieces each payload's bytes land on, plus coverage.
    let t = PhaseTimer::start(Phase::Local, ep.now());
    let hp = simtrace::host::scope(simtrace::host::Site::Unpack);
    let sizes = incoming
        .iter()
        .map(|(src, payload)| (*src, payload.len() as u64));
    let cuts = cut_streams(lists, sizes);
    let total_bytes: usize = incoming.iter().map(|(_, payload)| payload.len()).sum();
    let runs = coverage(&cuts);
    ep.charge_memcpy(total_bytes); // staging-buffer assembly
    drop(hp);
    t.stop_traced(ep.now(), prof, ep.trace());

    let (write_lo, write_hi) = (runs[0].0, runs[runs.len() - 1].0 + runs[runs.len() - 1].1);
    debug_assert!(lo <= write_lo && write_hi <= hi);
    let span = write_hi - write_lo;

    // Both paths release the payloads (inside `scatter`) before waiting
    // on the OSTs: every aggregator sits in the admission gate at once,
    // and would otherwise hold window plus payloads concurrently.
    if runs.len() > 1 {
        // Holes. Read-modify-write: fetch the whole span, overlay, write
        // back — ROMIO's data-sieving write inside the collective path.
        let t = PhaseTimer::start(Phase::Io, ep.now());
        let (mut window_buf, done) = space.read(fh, write_lo, span, ep.now());
        ep.clock().advance_to(done);
        t.stop_traced(ep.now(), prof, ep.trace());
        let t = PhaseTimer::start(Phase::Local, ep.now());
        scatter(&mut window_buf, write_lo, &cuts, incoming);
        ep.charge_memcpy(total_bytes);
        t.stop_traced(ep.now(), prof, ep.trace());
        let t = PhaseTimer::start(Phase::Io, ep.now());
        let data = if torn {
            window_buf.sub(0, window_buf.len() / 2)
        } else {
            window_buf
        };
        if !data.is_empty() {
            let done = space.write(fh, write_lo, &data, ep.now());
            ep.clock().advance_to(done);
        }
        t.stop_traced(ep.now(), prof, ep.trace());
    } else {
        // Contiguous coverage: one large write. The staging buffer's
        // kind follows its payloads.
        let mut window_buf =
            IoBuffer::landing(span as usize, incoming.iter().map(|(_, payload)| payload));
        scatter(&mut window_buf, write_lo, &cuts, incoming);
        let t = PhaseTimer::start(Phase::Io, ep.now());
        if torn {
            window_buf = window_buf.sub(0, window_buf.len() / 2);
        }
        if !window_buf.is_empty() {
            let done = space.write(fh, write_lo, &window_buf, ep.now());
            ep.clock().advance_to(done);
        }
        t.stop_traced(ep.now(), prof, ep.trace());
    }
}

/// Append the union of two ascending `(offset, len)` run lists to `out`
/// as one list of maximal runs: a run that overlaps or abuts the one
/// before it grows that one.
fn merge_runs(
    a: impl Iterator<Item = (u64, u64)>,
    b: impl Iterator<Item = (u64, u64)>,
    out: &mut Vec<(u64, u64)>,
) {
    let from = out.len();
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if y.0 < x.0 => b.next(),
            (Some(_), _) => a.next(),
            (None, _) => b.next(),
        };
        let Some((off, len)) = next else { break };
        match out[from..].last_mut() {
            Some(last) if off <= last.0 + last.1 => last.1 = last.1.max(off + len - last.0),
            _ => out.push((off, len)),
        }
    }
}

/// What a round window's cuts cover, as maximal `(offset, len)` runs:
/// adjacent and overlapping pieces from any mix of sources merge into one
/// contiguous extent. The write side reads holes off it (more than one
/// run); the read side sieves by it, issues the minimum number of list-I/O
/// reads from it, and finds every clipped piece wholly inside one run.
///
/// Each cut is already sorted and disjoint, so this is a bottom-up merge
/// of the per-source lists, neighbours pairwise, coalescing as it goes
/// (two flat buffers, whatever the source count) — in place of sorting
/// every piece of every source, or of inserting them one by one into an
/// interval set.
fn coverage(cuts: &[Cut<'_>]) -> Vec<(u64, u64)> {
    let _hp = simtrace::host::scope(simtrace::host::Site::Coverage);
    fn runs_of<'a>(cut: &'a Cut<'_>) -> impl Iterator<Item = (u64, u64)> + 'a {
        cut.iter().map(|piece| (piece.file_off, piece.len))
    }
    // The lists of one level back to back; list `i` ends at `ends[i]`.
    let mut runs = Vec::with_capacity(cuts.iter().map(|cut| cut.iter().len()).sum());
    let mut ends = Vec::with_capacity(cuts.len().div_ceil(2));
    for pair in cuts.chunks(2) {
        merge_runs(
            runs_of(&pair[0]),
            pair[1..].iter().flat_map(runs_of),
            &mut runs,
        );
        ends.push(runs.len());
    }
    let mut merged = Vec::new();
    while ends.len() > 1 {
        merged.clear();
        merged.reserve(runs.len()); // allocates once: levels only shrink
        let mut start = 0;
        for pair in 0..ends.len().div_ceil(2) {
            let mid = ends[2 * pair];
            let end = ends.get(2 * pair + 1).copied().unwrap_or(mid);
            let (a, b) = (&runs[start..mid], &runs[mid..end]);
            merge_runs(a.iter().copied(), b.iter().copied(), &mut merged);
            ends[pair] = merged.len();
            start = end;
        }
        ends.truncate(ends.len().div_ceil(2));
        std::mem::swap(&mut runs, &mut merged);
    }
    runs
}

/// One source's payload out of the window's read buffers (`bufs[i]` holds
/// run `runs[i]`). Host work follows real bytes: when nothing read is
/// real the payload is synthetic and no piece is visited.
fn carve(runs: &[(u64, u64)], bufs: &[IoBuffer], cut: &Cut<'_>, n: u64) -> IoBuffer {
    if !bufs.iter().any(IoBuffer::is_real) {
        return IoBuffer::synthetic(n as usize);
    }
    let mut payload = BufferBuilder::with_capacity(n as usize);
    for piece in cut.iter() {
        // Runs are maximal covered intervals, so each clipped piece lies
        // wholly inside one of them.
        let i = runs.partition_point(|&(off, _)| off <= piece.file_off) - 1;
        payload.push(&bufs[i].sub((piece.file_off - runs[i].0) as usize, piece.len as usize));
    }
    payload.finish()
}

/// Collective read: mirror image of [`write_all`]. Returns this rank's
/// `plan.total` bytes in plan order.
///
/// With [`CollConfig::sieve_read`] on, each aggregator round is data-
/// sieved: the window's pieces are coalesced into maximal runs, and the
/// deterministic hole-density threshold picks between one covering read
/// (classic sieving — read holes too, carve what was asked) and one read
/// per coalesced run (list I/O, when holes dominate the span). Off, the
/// covering read is issued unconditionally — bitwise identical to the
/// protocol before sieving existed.
pub fn read_all(
    comm: &Communicator<'_>,
    fh: &FileHandle,
    space: &dyn FileSpace,
    plan: &AccessPlan,
    cfg: &CollConfig,
    prof: &mut PhaseProfile,
) -> IoBuffer {
    prof.calls += 1;
    let ep = comm.endpoint();
    // Mid-call crashes are a write-path concern (the round counter does
    // not advance during reads); reads still honor stalls and the dead
    // set accumulated so far.
    let degraded = fault_entry(comm, cfg, "read_all", prof);
    let cfg = degraded.as_ref().unwrap_or(cfg);
    let Some(setup) = setup(comm, plan, cfg, prof) else {
        return IoBuffer::empty();
    };

    // Created when the first verified payload is unpacked, so its kind
    // follows what actually arrives: every rank is inside this call at
    // once, and zero-filling `plan.total` up front costs ranks × bytes
    // read on synthetic runs that discard the pages at the first copy.
    let mut user_buf: Option<IoBuffer> = None;
    // Stream positions, slot for slot with the lists: mine from each
    // aggregator I asked for pieces, and, as an aggregator, each
    // source's inside my domain.
    let mut recv_pos = vec![0u64; setup.my_req.len()];
    let mut send_pos = vec![0u64; setup.others_req.as_ref().map_or(0, Vec::len)];

    for round in 0..setup.ntimes {
        prof.rounds += 1;
        let round_start = ep.now();
        let mine = setup.others_req.as_ref().map(|others| {
            let lo = setup.st_loc + round * cfg.cb_buffer_size;
            (others, (lo, lo + cfg.cb_buffer_size))
        });

        // Per-round alltoall of outgoing sizes — global sync.
        let t = PhaseTimer::start(Phase::Sync, ep.now());
        let my_row = mine.map(|(others, window)| window_row(others, window));
        let expected = comm.alltoall_sizes_sparse(my_row.clone().unwrap_or_default());
        t.stop_traced(ep.now(), prof, ep.trace());

        // Aggregator: read the window span once, carve out each source's
        // pieces, send.
        let mut self_payload: Option<IoBuffer> = None;
        if let (Some((others, _)), Some(sizes)) = (mine, my_row) {
            let cuts = cut_streams((others, &mut send_pos), sizes.iter().copied());
            if let Some((read_lo, read_hi)) = hull(cuts.iter().map(Cut::file_range)) {
                let span = read_hi - read_lo;
                // Sieve decision. Coalescing and the density test are
                // pure functions of the agreed piece lists, so every
                // rank that reaches this window takes the same branch.
                let runs: Vec<(u64, u64)> = if cfg.sieve_read {
                    let runs = coverage(&cuts);
                    let covered: u64 = runs.iter().map(|&(_, l)| l).sum();
                    let holes = span - covered;
                    if holes * 100 > span * u64::from(cfg.sieve_hole_pct) {
                        runs // holes dominate: list I/O, one read per run
                    } else {
                        vec![(read_lo, span)] // sieve: one covering read
                    }
                } else {
                    vec![(read_lo, span)]
                };
                let t = PhaseTimer::start(Phase::Io, ep.now());
                // Multiple runs go out as one vectored list-I/O request;
                // a single run (covering read, sieving on or off) stays
                // on the plain read so the off path is bitwise identical
                // to the pre-sieving protocol.
                let bufs: Vec<IoBuffer> = if runs.len() > 1 {
                    let (bufs, done) = space.read_list(fh, &runs, ep.now());
                    ep.clock().advance_to(done);
                    bufs
                } else {
                    let (buf, done) = space.read(fh, runs[0].0, runs[0].1, ep.now());
                    ep.clock().advance_to(done);
                    vec![buf]
                };
                t.stop_traced(ep.now(), prof, ep.trace());
                let rec = ep.trace();
                if cfg.sieve_read && rec.enabled() {
                    if runs.len() > 1 {
                        rec.count("sieve_list_reads", runs.len() as u64);
                    } else {
                        rec.count("sieve_covering_reads", 1);
                    }
                }

                for (&(src, n), cut) in sizes.iter().zip(&cuts) {
                    let t = PhaseTimer::start(Phase::Local, ep.now());
                    let hp = simtrace::host::scope(simtrace::host::Site::Pack);
                    let hp_sieve = cfg
                        .sieve_read
                        .then(|| simtrace::host::scope(simtrace::host::Site::SieveRead));
                    let payload = carve(&runs, &bufs, cut, n);
                    drop(hp_sieve);
                    ep.charge_memcpy(n as usize);
                    let payload = seal(payload, cfg.checksums);
                    drop(hp);
                    t.stop_traced(ep.now(), prof, ep.trace());
                    if src == comm.rank() {
                        self_payload = Some(payload);
                    } else {
                        post(comm, src, DATA, &payload, cfg.checksums, prof);
                    }
                }
                // `bufs` ends here, once the last source is carved: the
                // window is not held across the receive below.
            }
        }

        // Everyone: receive this round's pieces — from the aggregators I
        // asked that have some this round, in aggregator order, my own
        // last — verified (and repaired) before any byte lands in the
        // user buffer.
        let (mut srcs, mut slots, mut own_slot) = (Vec::new(), Vec::new(), None);
        for (slot, (a, _)) in setup.my_req.iter().enumerate() {
            let agg_rank = cfg.aggregators[*a];
            if value_of(&expected, agg_rank) == 0 {
                continue;
            }
            if agg_rank == comm.rank() {
                own_slot = Some(slot);
            } else {
                srcs.push(agg_rank);
                slots.push(slot);
            }
        }
        slots.extend(own_slot);
        let arrived = collect(comm, srcs, DATA, self_payload, cfg.checksums, prof);
        debug_assert_eq!(arrived.len(), slots.len());

        // Unpack: scatter received pieces into the user buffer — local
        // memory movement. An aggregator's stream is one contiguous range
        // of the buffer, so each payload lands with one copy.
        let t = PhaseTimer::start(Phase::Local, ep.now());
        let hp = simtrace::host::scope(simtrace::host::Site::Unpack);
        for (slot, (_, payload)) in slots.into_iter().zip(arrived) {
            let n = payload.len() as u64;
            let user_buf =
                user_buf.get_or_insert_with(|| IoBuffer::landing(plan.total as usize, [&payload]));
            let at = setup.my_req[slot].1.buffer_offset(recv_pos[slot], n);
            user_buf.copy_in(at as usize, &payload);
            recv_pos[slot] += n;
            ep.charge_memcpy(n as usize);
        }
        drop(hp);
        t.stop_traced(ep.now(), prof, ep.trace());

        let rec = ep.trace();
        if rec.enabled() {
            rec.span(
                "round",
                "read_round",
                round_start.as_micros(),
                ep.now().as_micros(),
                vec![
                    ("round", simtrace::ArgValue::from(round)),
                    ("of", simtrace::ArgValue::from(setup.ntimes)),
                ],
            );
        }
    }
    let rec = ep.trace();
    if rec.enabled() {
        rec.count("ext2ph_read_calls", 1);
        rec.observe("ext2ph_rounds", setup.ntimes as f64);
    }

    user_buf.unwrap_or_else(|| IoBuffer::zeroed(plan.total as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Ext;
    use proptest::prelude::*;
    use simfs::RangeSet;

    /// One list holding all of `extents` (sorted, disjoint).
    fn list(extents: &[(u64, u64)]) -> Arc<PieceList> {
        let plan = AccessPlan::from_extents(extents.iter().map(|&(o, l)| Ext::new(o, l)).collect());
        let req = calc_my_req(&plan, &[Ext::new(0, u64::MAX / 2)]);
        let first = req.into_iter().next();
        first.map_or_else(PieceList::empty, |(_, list)| list)
    }

    /// The reference the merge replaced: every piece of every source
    /// inserted into an interval set, one at a time.
    fn coverage_by_insert(cuts: &[Cut<'_>]) -> Vec<(u64, u64)> {
        let mut set = RangeSet::new();
        for piece in cuts.iter().flat_map(Cut::iter) {
            set.insert(piece.file_off, piece.end());
        }
        set.ranges().iter().map(|&(s, e)| (s, e - s)).collect()
    }

    #[test]
    fn abutting_overlapping_and_identical_sources_merge() {
        let a = list(&[(0, 10), (10, 5), (40, 10)]); // abuts itself
        let b = list(&[(15, 5), (45, 10), (70, 1)]); // abuts a, overlaps a
        let cuts = [a.cut(0, 25), b.cut(0, 16), a.cut(0, 25)]; // a twice
        assert_eq!(coverage(&cuts), [(0, 20), (40, 15), (70, 1)]);
        assert_eq!(coverage(&cuts), coverage_by_insert(&cuts));
        assert!(coverage(&[]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The pairwise merge equals per-piece `RangeSet::insert` for any
        /// number of sources, whole lists or clipped cuts of them, with
        /// some sources repeated verbatim.
        #[test]
        fn coverage_matches_interval_set(
            sources in proptest::collection::vec(
                (
                    proptest::collection::vec((0u64..6, 1u64..30), 1..25),
                    0u64..200,
                    0u64..400,
                    any::<bool>(),
                ),
                0..12,
            ),
        ) {
            let mut lists = Vec::new();
            for (steps, pos, n, repeat) in &sources {
                let mut at = 0u64;
                let extents: Vec<(u64, u64)> = steps
                    .iter()
                    .map(|&(gap, len)| {
                        let off = at + gap;
                        at = off + len;
                        (off, len)
                    })
                    .collect();
                let l = list(&extents);
                let pos = pos % l.total_bytes();
                let n = (*n).min(l.total_bytes() - pos);
                lists.push((Arc::clone(&l), pos, n));
                if *repeat {
                    lists.push((l, pos, n));
                }
            }
            let cuts: Vec<Cut<'_>> = lists.iter().map(|(l, pos, n)| l.cut(*pos, *n)).collect();
            prop_assert_eq!(coverage(&cuts), coverage_by_insert(&cuts));
        }
    }

    #[test]
    fn scatter_lands_real_bytes_in_source_order() {
        let (a, b) = (list(&[(10, 2), (14, 2)]), list(&[(11, 4)]));
        let cuts = [a.cut(0, 4), b.cut(0, 4)];
        let payloads = vec![
            (0, IoBuffer::from_slice(&[1, 2, 3, 4])),
            (1, IoBuffer::from_slice(&[9, 8, 7, 6])),
        ];
        let mut window = IoBuffer::zeroed(8);
        scatter(&mut window, 10, &cuts, payloads);
        // b's overlap of [11, 15) lands over a's bytes: later source wins.
        assert_eq!(window.as_slice().unwrap(), &[1, 9, 8, 7, 6, 4, 0, 0]);
    }

    #[test]
    fn one_synthetic_payload_makes_the_window_synthetic() {
        let (a, b) = (list(&[(0, 4)]), list(&[(4, 4)]));
        let cuts = [a.cut(0, 4), b.cut(0, 4)];
        let payloads = vec![
            (0, IoBuffer::from_slice(&[1; 4])),
            (1, IoBuffer::synthetic(4)),
        ];
        let mut window = IoBuffer::zeroed(8);
        scatter(&mut window, 0, &cuts, payloads);
        assert_eq!(window, IoBuffer::synthetic(8));
        // ... and a synthetic window (a synthetic read-modify-write
        // fetch) stays synthetic under real payloads.
        let mut window = IoBuffer::synthetic(8);
        scatter(
            &mut window,
            0,
            &cuts[..1],
            vec![(0, IoBuffer::from_slice(&[1; 4]))],
        );
        assert_eq!(window, IoBuffer::synthetic(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scatter_keeps_its_range_check() {
        let a = list(&[(6, 4)]);
        let mut window = IoBuffer::zeroed(8);
        scatter(
            &mut window,
            0,
            &[a.cut(0, 4)],
            vec![(0, IoBuffer::from_slice(&[1; 4]))],
        );
    }

    #[test]
    fn carve_follows_the_bytes_that_were_read() {
        let a = list(&[(2, 2), (10, 3)]);
        let runs = [(0, 4), (10, 4)];
        let real = [
            IoBuffer::from_slice(&[0, 1, 2, 3]),
            IoBuffer::from_slice(&[10, 11, 12, 13]),
        ];
        let got = carve(&runs, &real, &a.cut(0, 5), 5);
        assert_eq!(got.as_slice().unwrap(), &[2, 3, 10, 11, 12]);
        let synthetic = [IoBuffer::synthetic(4), IoBuffer::synthetic(4)];
        assert_eq!(
            carve(&runs, &synthetic, &a.cut(0, 5), 5),
            IoBuffer::synthetic(5)
        );
        // Mixed: a piece out of a synthetic run degrades the payload.
        let mixed = [real[0].clone(), IoBuffer::synthetic(4)];
        assert_eq!(
            carve(&runs, &mixed, &a.cut(0, 5), 5),
            IoBuffer::synthetic(5)
        );
        assert_eq!(
            carve(&runs, &mixed, &a.cut(0, 2), 2).as_slice().unwrap(),
            &[2, 3]
        );
    }
}
