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
//!    the `(offset, len)` lists ([`reqs`]).
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
//! trick).
//!
//! Every synchronizing step is bracketed with [`PhaseTimer`] so the
//! profile reproduces the paper's Figure 2 decomposition.

pub mod domains;
pub mod reqs;

use crate::profile::{Phase, PhaseProfile, PhaseTimer};
use crate::space::FileSpace;
use crate::view::AccessPlan;
use domains::{compute_file_domains, compute_file_domains_aligned};
use reqs::{calc_my_req, pieces_in_window, Piece, PieceIndex};
use simfs::{FileHandle, RangeSet};
use simmpi::{codec, Communicator, ReduceOp};
use simnet::buffer::BufferBuilder;
use simnet::{corrupt_flip, fnv1a, FaultState, IoBuffer};

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
/// Bytes of the FNV-1a checksum trailer sealed onto exchanged pieces.
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
    /// exchanged data payload with an FNV-1a trailer at pack time, verify
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

/// Seal a packed payload: append the 8-byte little-endian FNV-1a trailer
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

/// Cursor over a sorted piece list that yields clipped sub-pieces in
/// stream order. Sender and receiver advance matching cursors by equal
/// byte counts each round, which keeps them consistent without exchanging
/// offsets.
struct PieceCursor<'a> {
    pieces: &'a [Piece],
    idx: usize,
    within: u64,
}

impl<'a> PieceCursor<'a> {
    fn new(pieces: &'a [Piece]) -> Self {
        PieceCursor {
            pieces,
            idx: 0,
            within: 0,
        }
    }

    /// Cursor rebuilt at a saved `(piece index, bytes within)` position —
    /// used for adopted domains, whose cursor state outlives the borrow
    /// of any single round.
    fn at(pieces: &'a [Piece], idx: usize, within: u64) -> Self {
        PieceCursor {
            pieces,
            idx,
            within,
        }
    }

    /// The current position as a `(piece index, bytes within)` pair.
    fn position(&self) -> (usize, u64) {
        (self.idx, self.within)
    }

    /// Yield sub-pieces totaling exactly `n` bytes (panics if the stream
    /// runs dry first — a protocol invariant violation).
    fn consume(&mut self, mut n: u64, mut f: impl FnMut(Piece)) {
        while n > 0 {
            let p = self
                .pieces
                .get(self.idx)
                .unwrap_or_else(|| panic!("piece stream exhausted with {n} bytes pending"));
            let avail = p.len - self.within;
            let take = avail.min(n);
            f(Piece {
                file_off: p.file_off + self.within,
                len: take,
                buf_off: p.buf_off + self.within,
            });
            self.within += take;
            n -= take;
            if self.within == p.len {
                self.idx += 1;
                self.within = 0;
            }
        }
    }
}

/// Shared state computed by the setup phase.
struct Setup {
    /// Per-aggregator piece lists of *my* access.
    my_req: Vec<Vec<Piece>>,
    /// If I am an aggregator: per-source piece lists inside my domain,
    /// indexed for O(log n) per-round window queries.
    others_req: Option<Vec<PieceIndex>>,
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
    let p = comm.size();
    cfg.check(p);
    let naggs = cfg.aggregators.len();
    let my_agg_idx = cfg.aggregators.iter().position(|&a| a == comm.rank());

    // (1) Allgather of (start, end) — global sync.
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let my_range: Option<(u64, u64)> = plan.start().map(|s| (s, plan.end().unwrap()));
    let ranges = comm.allgather_t(my_range, 16);
    t.stop_traced(ep.now(), prof, ep.trace());

    let min_st = ranges.iter().flatten().map(|r| r.0).min()?;
    let max_end = ranges.iter().flatten().map(|r| r.1).max().unwrap();

    // (2) File domains, computed identically everywhere.
    let file_domains = match cfg.align {
        Some(align) => compute_file_domains_aligned(min_st, max_end, naggs, align),
        None => compute_file_domains(min_st, max_end, naggs),
    };
    let my_req = calc_my_req(plan, &file_domains);

    // (3a) Alltoall of piece counts — global sync.
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let mut counts_row = vec![0u64; p];
    for (a, pieces) in my_req.iter().enumerate() {
        counts_row[cfg.aggregators[a]] = pieces.len() as u64;
    }
    let counts_from = comm.alltoall_t(counts_row, 8);
    t.stop_traced(ep.now(), prof, ep.trace());

    // (3b) Point-to-point transfer of the (offset, len) lists.
    let t = PhaseTimer::start(Phase::P2p, ep.now());
    let mut others_req: Option<Vec<Vec<Piece>>> = my_agg_idx.map(|_| vec![Vec::new(); p]);
    for (a, pieces) in my_req.iter().enumerate() {
        if pieces.is_empty() {
            continue;
        }
        let dst = cfg.aggregators[a];
        if dst == comm.rank() {
            // Self-assignment: no message.
            others_req.as_mut().expect("I am this aggregator")[comm.rank()] = pieces.clone();
        } else {
            let pairs: Vec<(u64, u64)> = pieces.iter().map(|p| (p.file_off, p.len)).collect();
            comm.isend(dst, TAG_REQ, codec::encode_pairs(&pairs));
        }
    }
    if let Some(others) = others_req.as_mut() {
        let reqs: Vec<(usize, simmpi::RecvRequest)> = (0..p)
            .filter(|&src| src != comm.rank() && counts_from[src] > 0)
            .map(|src| (src, comm.irecv(src, TAG_REQ)))
            .collect();
        let payloads = comm.waitall(&reqs.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>());
        for ((src, _), payload) in reqs.iter().zip(payloads) {
            others[*src] = codec::decode_pairs(&payload)
                .into_iter()
                .map(|(off, len)| Piece {
                    file_off: off,
                    len,
                    buf_off: 0, // receiver side never consults buf_off
                })
                .collect();
        }
    }
    t.stop_traced(ep.now(), prof, ep.trace());

    // Index the received lists once; every round's window query reuses
    // the prefix sums.
    let others_req: Option<Vec<PieceIndex>> =
        others_req.map(|o| o.into_iter().map(PieceIndex::new).collect());

    // (4) Round count: ceil(touched-range / cb_buffer) per aggregator,
    // allreduce MAX — global sync.
    let (st_loc, my_ntimes) = match (&others_req, my_agg_idx) {
        (Some(others), Some(_)) => {
            let st = others
                .iter()
                .flat_map(PieceIndex::pieces)
                .map(|p| p.file_off)
                .min()
                .unwrap_or(0);
            let end = others
                .iter()
                .flat_map(PieceIndex::pieces)
                .map(Piece::end)
                .max()
                .unwrap_or(0);
            (st, (end - st).div_ceil(cfg.cb_buffer_size))
        }
        _ => (0, 0),
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
/// with dead I/O roles filtered out. Without an installed fault plan the
/// config is returned unchanged and no extra communication happens, so
/// the fault-free path stays bitwise identical.
fn fault_entry(
    comm: &Communicator<'_>,
    cfg: &CollConfig,
    phase: &'static str,
    prof: &mut PhaseProfile,
) -> CollConfig {
    let ep = comm.endpoint();
    let Some(faults) = ep.faults() else {
        return cfg.clone();
    };
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
        return cfg.clone();
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
    CollConfig {
        aggregators: live,
        cb_buffer_size: cfg.cb_buffer_size,
        align: cfg.align,
        checksums: cfg.checksums,
        sieve_read: cfg.sieve_read,
        sieve_hole_pct: cfg.sieve_hole_pct,
    }
}

/// Successor-side state after an aggregator failover: the adopted
/// domain's piece indexes and replayed cursor positions.
struct Adoption {
    /// Per-source pieces inside the dead aggregator's file domain.
    others: Vec<PieceIndex>,
    /// Per-source saved cursor positions (piece index, bytes within).
    cursor_pos: Vec<(usize, u64)>,
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
    let adoption = if comm.rank() == successor {
        let reqs: Vec<(usize, simmpi::RecvRequest)> = (0..p)
            .filter(|&src| src != comm.rank())
            .map(|src| (src, comm.irecv(src, TAG_RECOVER)))
            .collect();
        let payloads = comm.waitall(&reqs.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>());
        let mut others: Vec<Vec<Piece>> = vec![Vec::new(); p];
        for ((src, _), payload) in reqs.iter().zip(payloads) {
            others[*src] = codec::decode_pairs(&payload)
                .into_iter()
                .map(|(off, len)| Piece {
                    file_off: off,
                    len,
                    buf_off: 0,
                })
                .collect();
        }
        others[comm.rank()] = setup.my_req[dead_agg].clone();
        let others: Vec<PieceIndex> = others.into_iter().map(PieceIndex::new).collect();
        // Rebuilt from the same lists the dead aggregator indexed, so
        // this equals its `st_loc` and the window tiling lines up.
        let st_dead = others
            .iter()
            .flat_map(PieceIndex::pieces)
            .map(|p| p.file_off)
            .min()
            .unwrap_or(0);
        // Replay: advance each source's cursor past the rounds the dead
        // aggregator completed. Senders consumed exactly these byte
        // counts, so both sides stay in lock step. A torn crash backs up
        // one extra window — the dead role's last write was only half
        // applied, and the detection round re-exchanges it in full.
        let done_rounds = if torn { round - 1 } else { round };
        let cursor_pos = others
            .iter()
            .map(|idx| {
                let done =
                    idx.bytes_in_window(st_dead, st_dead + done_rounds * cfg.cb_buffer_size);
                let mut c = PieceCursor::new(idx.pieces());
                c.consume(done, |_| {});
                c.position()
            })
            .collect();
        Some(Adoption {
            others,
            cursor_pos,
            st_dead,
        })
    } else {
        let pairs: Vec<(u64, u64)> = setup.my_req[dead_agg]
            .iter()
            .map(|p| (p.file_off, p.len))
            .collect();
        comm.isend(successor, TAG_RECOVER, codec::encode_pairs(&pairs));
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
    let cfg = &fault_entry(comm, cfg, "write_all", prof);
    let Some(setup) = setup(comm, plan, cfg, prof) else {
        return;
    };
    let p = comm.size();

    // Per-aggregator send cursors over my pieces; per-source receive
    // cursors over pieces in my domain.
    let mut send_cursors: Vec<PieceCursor<'_>> =
        setup.my_req.iter().map(|v| PieceCursor::new(v)).collect();
    let mut recv_cursors: Option<Vec<PieceCursor<'_>>> = setup
        .others_req
        .as_ref()
        .map(|o| o.iter().map(|idx| PieceCursor::new(idx.pieces())).collect());

    // Crash bookkeeping: the lock-step round counter only advances (and
    // detection only runs) when the plan can kill aggregators, so the
    // fault-free path stays bitwise identical.
    let crash_faults = ep.faults().filter(|f| f.plan().has_crash_rules());
    let agg_globals: Vec<usize> = cfg
        .aggregators
        .iter()
        .map(|&a| comm.global_rank(a))
        .collect();
    let mut adoptions: Vec<(AdoptShared, Option<Adoption>)> = Vec::new();
    let mut my_role_dead = false;
    // Torn-write bookkeeping: cumulative and previous-round bytes this
    // rank sent toward each aggregator's domain, so a torn failover can
    // rewind the send cursor by exactly one window.
    let naggs = cfg.aggregators.len();
    let mut sent_total = vec![0u64; naggs];
    let mut sent_last = vec![0u64; naggs];

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
                        let back = sent_total[dead_ai] - sent_last[dead_ai];
                        let mut c = PieceCursor::new(&setup.my_req[dead_ai]);
                        c.consume(back, |_| {});
                        send_cursors[dead_ai] = c;
                        sent_total[dead_ai] = back;
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
        let window = if my_role_dead {
            None
        } else {
            setup.my_agg_idx.map(|_| {
                let lo = setup.st_loc + round * cfg.cb_buffer_size;
                (lo, lo + cfg.cb_buffer_size)
            })
        };

        // Per-round MPI_Alltoall of transfer sizes — the global sync the
        // collective wall is made of. The aggregator announces how many
        // bytes it expects from each source this round.
        let t = PhaseTimer::start(Phase::Sync, ep.now());
        let mut row = vec![0u64; p];
        if let (Some((lo, hi)), Some(others)) = (window, setup.others_req.as_ref()) {
            for (src, idx) in others.iter().enumerate() {
                row[src] = idx.bytes_in_window(lo, hi);
            }
        }
        // Keep what I announced: the receive phase needs the same values.
        let my_row = setup.my_agg_idx.map(|_| row.clone());
        let expected = comm.alltoall_sizes(row);
        t.stop_traced(ep.now(), prof, ep.trace());

        // Senders: pack (local memcpy) and post (p2p) this round's bytes
        // for each aggregator.
        let mut self_payload: Option<IoBuffer> = None;
        for (a, &agg_rank) in cfg.aggregators.iter().enumerate() {
            let n = expected[agg_rank];
            sent_last[a] = n;
            if n == 0 {
                continue;
            }
            let t = PhaseTimer::start(Phase::Local, ep.now());
            let hp = simtrace::host::scope(simtrace::host::Site::Pack);
            let mut payload = BufferBuilder::with_capacity(n as usize);
            send_cursors[a].consume(n, |piece| {
                payload.push(&buf.sub(piece.buf_off as usize, piece.len as usize));
            });
            ep.charge_memcpy(n as usize);
            let payload = seal(payload.finish(), cfg.checksums);
            drop(hp);
            t.stop_traced(ep.now(), prof, ep.trace());
            sent_total[a] += n;
            if agg_rank == comm.rank() {
                self_payload = Some(payload);
            } else {
                let t = PhaseTimer::start(Phase::P2p, ep.now());
                comm.isend(agg_rank, TAG_DATA, payload.clone());
                resend_if_corrupt(comm, agg_rank, TAG_REPAIR, &payload, cfg.checksums);
                t.stop_traced(ep.now(), prof, ep.trace());
            }
        }

        // Aggregator: collect this round's payloads.
        let mut incoming: Vec<(usize, IoBuffer)> = Vec::new();
        let t = PhaseTimer::start(Phase::P2p, ep.now());
        if setup.my_agg_idx.is_some() {
            let my_expect = my_row.expect("aggregator announced a row");
            let reqs: Vec<(usize, simmpi::RecvRequest)> = (0..p)
                .filter(|&src| src != comm.rank() && my_expect[src] > 0)
                .map(|src| (src, comm.irecv(src, TAG_DATA)))
                .collect();
            let payloads =
                comm.waitall(&reqs.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>());
            for ((src, _), payload) in reqs.iter().zip(payloads) {
                incoming.push((*src, payload));
            }
            if my_expect[comm.rank()] > 0 {
                incoming.push((
                    comm.rank(),
                    self_payload.take().expect("self payload was packed"),
                ));
            }
        }
        t.stop_traced(ep.now(), prof, ep.trace());

        // Verify (and, with checksums on, repair) every payload before it
        // reaches the staging buffer; with checksums off this is where a
        // planted in-flight flip lands in the data.
        let incoming: Vec<(usize, IoBuffer)> = incoming
            .into_iter()
            .map(|(src, payload)| {
                let payload =
                    verify_payload(comm, src, TAG_DATA, TAG_REPAIR, payload, cfg.checksums, prof);
                (src, payload)
            })
            .collect();

        // Aggregator: assemble the staging buffer and perform file I/O.
        if let (Some((lo, hi)), Some(cursors)) = (window, recv_cursors.as_mut()) {
            write_window(comm, fh, space, prof, lo, hi, cursors, incoming, torn_write);
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
            let (dead_agg, successor) = {
                let (sh, _) = &adoptions[i];
                (sh.dead_agg, sh.successor)
            };
            // Size exchange: the successor announces what it expects
            // inside the adopted domain's window `wi`.
            let t = PhaseTimer::start(Phase::Sync, ep.now());
            let mut row2 = vec![0u64; p];
            let mut win2 = (0, 0);
            if let (_, Some(ad)) = &adoptions[i] {
                let lo = ad.st_dead + wi * cfg.cb_buffer_size;
                win2 = (lo, lo + cfg.cb_buffer_size);
                for (src, idx) in ad.others.iter().enumerate() {
                    row2[src] = idx.bytes_in_window(win2.0, win2.1);
                }
            }
            let my_row2 = row2.clone();
            let expected2 = comm.alltoall_sizes(row2);
            t.stop_traced(ep.now(), prof, ep.trace());

            // Senders: this window's bytes for the adopted domain go to
            // the successor (the dead role announces nothing after the
            // crash, so the main loop never touches its cursor again).
            let mut adopt_self: Option<IoBuffer> = None;
            let n = expected2[successor];
            if n > 0 {
                let t = PhaseTimer::start(Phase::Local, ep.now());
                let hp = simtrace::host::scope(simtrace::host::Site::Pack);
                let mut payload = BufferBuilder::with_capacity(n as usize);
                send_cursors[dead_agg].consume(n, |piece| {
                    payload.push(&buf.sub(piece.buf_off as usize, piece.len as usize));
                });
                ep.charge_memcpy(n as usize);
                let payload = seal(payload.finish(), cfg.checksums);
                drop(hp);
                t.stop_traced(ep.now(), prof, ep.trace());
                sent_total[dead_agg] += n;
                if successor == comm.rank() {
                    adopt_self = Some(payload);
                } else {
                    let t = PhaseTimer::start(Phase::P2p, ep.now());
                    comm.isend(successor, TAG_RECOVER_DATA, payload.clone());
                    resend_if_corrupt(
                        comm,
                        successor,
                        TAG_RECOVER_REPAIR,
                        &payload,
                        cfg.checksums,
                    );
                    t.stop_traced(ep.now(), prof, ep.trace());
                }
            }

            // Successor: collect and write this window, rebuilding
            // transient cursors at the persisted positions.
            if adoptions[i].1.is_some() {
                let t = PhaseTimer::start(Phase::P2p, ep.now());
                let mut incoming2: Vec<(usize, IoBuffer)> = Vec::new();
                let reqs: Vec<(usize, simmpi::RecvRequest)> = (0..p)
                    .filter(|&src| src != comm.rank() && my_row2[src] > 0)
                    .map(|src| (src, comm.irecv(src, TAG_RECOVER_DATA)))
                    .collect();
                let payloads =
                    comm.waitall(&reqs.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>());
                for ((src, _), payload) in reqs.iter().zip(payloads) {
                    incoming2.push((*src, payload));
                }
                if my_row2[comm.rank()] > 0 {
                    incoming2.push((
                        comm.rank(),
                        adopt_self.take().expect("adopted self payload was packed"),
                    ));
                }
                t.stop_traced(ep.now(), prof, ep.trace());
                let incoming2: Vec<(usize, IoBuffer)> = incoming2
                    .into_iter()
                    .map(|(src, payload)| {
                        let payload = verify_payload(
                            comm,
                            src,
                            TAG_RECOVER_DATA,
                            TAG_RECOVER_REPAIR,
                            payload,
                            cfg.checksums,
                            prof,
                        );
                        (src, payload)
                    })
                    .collect();
                let ad = adoptions[i].1.as_mut().expect("successor checked above");
                let Adoption {
                    others, cursor_pos, ..
                } = ad;
                let mut tcursors: Vec<PieceCursor<'_>> = others
                    .iter()
                    .zip(cursor_pos.iter())
                    .map(|(idx, &(ci, w))| PieceCursor::at(idx.pieces(), ci, w))
                    .collect();
                write_window(
                    comm, fh, space, prof, win2.0, win2.1, &mut tcursors, incoming2, false,
                );
                for (pos, c) in cursor_pos.iter_mut().zip(&tcursors) {
                    *pos = c.position();
                }
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
    lo: u64,
    hi: u64,
    cursors: &mut [PieceCursor<'_>],
    incoming: Vec<(usize, IoBuffer)>,
    torn: bool,
) {
    let ep = comm.endpoint();
    if incoming.is_empty() {
        return;
    }
    // Targets: where each payload's bytes land, plus coverage tracking.
    let t = PhaseTimer::start(Phase::Local, ep.now());
    let hp = simtrace::host::scope(simtrace::host::Site::Unpack);
    let mut coverage = RangeSet::new();
    let mut placements: Vec<(u64, IoBuffer)> = Vec::new(); // (file_off, data)
    let mut total_bytes = 0u64;
    for (src, payload) in &incoming {
        let n = payload.len() as u64;
        total_bytes += n;
        let mut consumed = 0u64;
        cursors[*src].consume(n, |piece| {
            debug_assert!(piece.file_off >= lo && piece.end() <= hi);
            coverage.insert(piece.file_off, piece.end());
            placements.push((
                piece.file_off,
                payload.sub(consumed as usize, piece.len as usize),
            ));
            consumed += piece.len;
        });
    }
    ep.charge_memcpy(total_bytes as usize); // staging-buffer assembly
    drop(hp);
    t.stop_traced(ep.now(), prof, ep.trace());

    let write_lo = coverage.ranges().first().expect("non-empty round").0;
    let write_hi = coverage.ranges().last().unwrap().1;
    let span = write_hi - write_lo;
    let holes = coverage.covered() != span;

    if holes {
        // Read-modify-write: fetch the whole span, overlay, write back —
        // ROMIO's data-sieving write inside the collective path.
        let t = PhaseTimer::start(Phase::Io, ep.now());
        let (mut window_buf, done) = space.read(fh, write_lo, span, ep.now());
        ep.clock().advance_to(done);
        t.stop_traced(ep.now(), prof, ep.trace());
        let t = PhaseTimer::start(Phase::Local, ep.now());
        let hp = simtrace::host::scope(simtrace::host::Site::Unpack);
        for (off, data) in &placements {
            window_buf.copy_in((off - write_lo) as usize, data);
        }
        ep.charge_memcpy(total_bytes as usize);
        drop(hp);
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
        // Contiguous coverage: one large write per covered run (usually
        // exactly one). The staging buffer's kind follows its payloads.
        let mut window_buf = IoBuffer::landing(span as usize, placements.iter().map(|(_, d)| d));
        for (off, data) in &placements {
            window_buf.copy_in((off - write_lo) as usize, data);
        }
        let t = PhaseTimer::start(Phase::Io, ep.now());
        let mut now = ep.now();
        for &(s, e) in coverage.ranges() {
            let mut chunk = window_buf.sub((s - write_lo) as usize, (e - s) as usize);
            if torn {
                chunk = chunk.sub(0, chunk.len() / 2);
                if chunk.is_empty() {
                    continue;
                }
            }
            now = space.write(fh, s, &chunk, now);
        }
        ep.clock().advance_to(now);
        t.stop_traced(ep.now(), prof, ep.trace());
    }
}

/// Coalesce a round window's clipped pieces (per-source sorted lists)
/// into maximal covered `(offset, len)` runs: adjacent and overlapping
/// requests from any mix of sources merge into one contiguous extent, so
/// list-I/O mode issues the minimum number of OST reads and every clipped
/// piece falls wholly inside exactly one run.
fn coalesce_runs(in_window: &[Vec<Piece>]) -> Vec<(u64, u64)> {
    let mut ivs: Vec<(u64, u64)> = in_window
        .iter()
        .flatten()
        .map(|p| (p.file_off, p.end()))
        .collect();
    ivs.sort_unstable();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for (s, e) in ivs {
        match runs.last_mut() {
            Some(last) if s <= last.0 + last.1 => {
                let end = (last.0 + last.1).max(e);
                last.1 = end - last.0;
            }
            _ => runs.push((s, e - s)),
        }
    }
    runs
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
    let cfg = &fault_entry(comm, cfg, "read_all", prof);
    let Some(setup) = setup(comm, plan, cfg, prof) else {
        return IoBuffer::empty();
    };
    let p = comm.size();

    // Created when the first verified payload is unpacked, so its kind
    // follows what actually arrives: every rank is inside this call at
    // once, and zero-filling `plan.total` up front costs ranks × bytes
    // read on synthetic runs that discard the pages at the first copy.
    let mut user_buf: Option<IoBuffer> = None;
    let mut recv_cursors: Vec<PieceCursor<'_>> =
        setup.my_req.iter().map(|v| PieceCursor::new(v)).collect();
    let mut send_cursors: Option<Vec<PieceCursor<'_>>> = setup
        .others_req
        .as_ref()
        .map(|o| o.iter().map(|idx| PieceCursor::new(idx.pieces())).collect());

    for round in 0..setup.ntimes {
        prof.rounds += 1;
        let round_start = ep.now();
        let window = setup.my_agg_idx.map(|_| {
            let lo = setup.st_loc + round * cfg.cb_buffer_size;
            (lo, lo + cfg.cb_buffer_size)
        });

        // Per-round alltoall of outgoing sizes — global sync.
        let t = PhaseTimer::start(Phase::Sync, ep.now());
        let mut row = vec![0u64; p];
        if let (Some((lo, hi)), Some(others)) = (window, setup.others_req.as_ref()) {
            for (src, idx) in others.iter().enumerate() {
                row[src] = idx.bytes_in_window(lo, hi);
            }
        }
        let expected = comm.alltoall_sizes(row);
        t.stop_traced(ep.now(), prof, ep.trace());

        // Aggregator: read the window span once, carve out each source's
        // pieces, send.
        let mut self_payload: Option<IoBuffer> = None;
        if let (Some((lo, hi)), Some(cursors)) = (window, send_cursors.as_mut()) {
            let others = setup.others_req.as_ref().expect("aggregator state");
            let in_window: Vec<Vec<Piece>> = (0..p)
                .map(|src| pieces_in_window(others[src].pieces(), lo, hi))
                .collect();
            let read_lo = in_window.iter().flatten().map(|p| p.file_off).min();
            if let Some(read_lo) = read_lo {
                let read_hi = in_window.iter().flatten().map(Piece::end).max().unwrap();
                let span = read_hi - read_lo;
                // Sieve decision. Coalescing and the density test are
                // pure functions of the agreed piece lists, so every
                // rank that reaches this window takes the same branch.
                let runs: Vec<(u64, u64)> = if cfg.sieve_read {
                    let hp = simtrace::host::scope(simtrace::host::Site::RunCoalesce);
                    let runs = coalesce_runs(&in_window);
                    drop(hp);
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
                    let mut bufs = Vec::with_capacity(runs.len());
                    let mut now = ep.now();
                    for &(off, len) in &runs {
                        let (buf, done) = space.read(fh, off, len, now);
                        bufs.push(buf);
                        now = done;
                    }
                    ep.clock().advance_to(now);
                    bufs
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

                for src in 0..p {
                    let n: u64 = in_window[src].iter().map(|p| p.len).sum();
                    if n == 0 {
                        continue;
                    }
                    let t = PhaseTimer::start(Phase::Local, ep.now());
                    let hp = simtrace::host::scope(simtrace::host::Site::Pack);
                    let hp_sieve = cfg
                        .sieve_read
                        .then(|| simtrace::host::scope(simtrace::host::Site::SieveRead));
                    let mut payload = BufferBuilder::with_capacity(n as usize);
                    cursors[src].consume(n, |piece| {
                        // Runs are maximal covered intervals, so each
                        // clipped piece lies wholly inside one of them.
                        let i = runs.partition_point(|&(off, _)| off <= piece.file_off) - 1;
                        payload.push(
                            &bufs[i]
                                .sub((piece.file_off - runs[i].0) as usize, piece.len as usize),
                        );
                    });
                    drop(hp_sieve);
                    ep.charge_memcpy(n as usize);
                    let payload = seal(payload.finish(), cfg.checksums);
                    drop(hp);
                    t.stop_traced(ep.now(), prof, ep.trace());
                    if src == comm.rank() {
                        self_payload = Some(payload);
                    } else {
                        let t = PhaseTimer::start(Phase::P2p, ep.now());
                        comm.isend(src, TAG_DATA, payload.clone());
                        resend_if_corrupt(comm, src, TAG_REPAIR, &payload, cfg.checksums);
                        t.stop_traced(ep.now(), prof, ep.trace());
                    }
                }
            }
        }

        // Everyone: receive this round's pieces and scatter them into the
        // user buffer.
        let t = PhaseTimer::start(Phase::P2p, ep.now());
        let mut arrived: Vec<(usize, IoBuffer)> = Vec::new();
        let reqs: Vec<(usize, simmpi::RecvRequest)> = cfg
            .aggregators
            .iter()
            .filter(|&&a| a != comm.rank() && expected[a] > 0)
            .map(|&a| (a, comm.irecv(a, TAG_DATA)))
            .collect();
        let payloads = comm.waitall(&reqs.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>());
        for ((agg_rank, _), payload) in reqs.iter().zip(payloads) {
            arrived.push((*agg_rank, payload));
        }
        if let Some(selfp) = self_payload.take() {
            arrived.push((comm.rank(), selfp));
        }
        t.stop_traced(ep.now(), prof, ep.trace());

        // Verify (and repair) before any byte lands in the user buffer.
        let arrived: Vec<(usize, IoBuffer)> = arrived
            .into_iter()
            .map(|(agg_rank, payload)| {
                let payload = verify_payload(
                    comm,
                    agg_rank,
                    TAG_DATA,
                    TAG_REPAIR,
                    payload,
                    cfg.checksums,
                    prof,
                );
                (agg_rank, payload)
            })
            .collect();

        // Unpack: scatter received pieces into the user buffer — local
        // memory movement.
        let t = PhaseTimer::start(Phase::Local, ep.now());
        let hp = simtrace::host::scope(simtrace::host::Site::Unpack);
        for (agg_rank, payload) in arrived {
            let a = cfg
                .aggregators
                .iter()
                .position(|&x| x == agg_rank)
                .expect("payload from a configured aggregator");
            let n = payload.len() as u64;
            let user_buf =
                user_buf.get_or_insert_with(|| IoBuffer::landing(plan.total as usize, [&payload]));
            let mut consumed = 0u64;
            recv_cursors[a].consume(n, |piece| {
                user_buf.copy_in(
                    piece.buf_off as usize,
                    &payload.sub(consumed as usize, piece.len as usize),
                );
                consumed += piece.len;
            });
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
