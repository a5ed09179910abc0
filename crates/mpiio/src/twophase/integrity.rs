//! End-to-end piece integrity for the data exchange (`integrity_checksums`).
//!
//! A sealed payload carries an 8-byte checksum trailer; the receiver
//! verifies it before any byte lands anywhere, and a mismatch is repaired
//! from clean copies the sender already posted. With the hint off every
//! function here is the identity, apart from realizing a planted flip —
//! the silent corruption the layer exists to prevent.

use crate::profile::{Phase, PhaseProfile, PhaseTimer};
use simmpi::Communicator;
use simnet::buffer::BufferBuilder;
use simnet::{corrupt_flip, fnv1a, IoBuffer};

/// Bytes of the checksum trailer sealed onto exchanged pieces.
const TRAILER: usize = 8;

/// Seal a packed payload: append the 8-byte little-endian checksum trailer
/// over the payload bytes. Announced transfer sizes exclude the trailer,
/// so the protocol's size agreement and cursor lock-step are unchanged —
/// only the wire carries the extra bytes. Synthetic payloads stay
/// synthetic at `n + 8`: their integrity is modeled by the fault token (a
/// link-level checksum stands in for one over bytes never materialized).
pub(super) fn seal(payload: IoBuffer, checksums: bool) -> IoBuffer {
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
pub(super) fn resend_if_corrupt(
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
pub(super) fn verify_payload(
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
