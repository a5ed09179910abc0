//! Data messages of the exchange and their end-to-end integrity
//! (`integrity_checksums`).
//!
//! A message moves references, not bytes, and with the hint on an 8-byte
//! checksum trailer travels beside it — `n + 8` modelled wire bytes, never
//! appended on the host. The receiver verifies the sum before any byte
//! lands anywhere, and a mismatch is repaired from clean copies the sender
//! already posted. With the hint off nothing here hashes, and a planted
//! flip reaches the data — the silent corruption the layer prevents.

use super::reqs::Cut;
use super::window::{pieces, Fetched};
use crate::profile::{Phase, PhaseProfile, PhaseTimer};
use simmpi::Communicator;
use simnet::buffer::BufferBuilder;
use simnet::cksum::Fnv1a;
use simnet::{corrupt_flip, IoBuffer};
use simtrace::host::{self, Counter, Site};
use std::sync::Arc;

/// Bytes of the checksum trailer that travels with exchanged pieces.
const TRAILER: usize = 8;

/// The bytes of one data message, by reference.
#[derive(Clone)]
pub(super) enum Body {
    /// In stream order in one buffer: a write's window of the user buffer,
    /// a synthetic stand-in, or a message a corruption token materialised.
    Stream(IoBuffer),
    /// A read's fetched window, one `Arc` for every source with bytes in
    /// it: each carves its own cut, straight into its landing buffer.
    Window(Arc<Fetched>),
}

impl Body {
    /// What a read serves a source `n` bytes out of. Host work follows
    /// real bytes: when nothing read is real, no piece is ever visited.
    pub(super) fn of_window(fetched: &Arc<Fetched>, n: u64) -> Body {
        if fetched.1.iter().any(IoBuffer::is_real) {
            Body::Window(Arc::clone(fetched))
        } else {
            Body::Stream(IoBuffer::synthetic(n as usize))
        }
    }

    /// The bytes as one buffer in stream order: a stream as it is, a
    /// window's pieces concatenated (a single piece stays a view).
    pub(super) fn into_payload(self, cut: &Cut<'_>) -> IoBuffer {
        if let Body::Stream(payload) = self {
            return payload;
        }
        let mut payload = BufferBuilder::new();
        self.parts(cut).for_each(|part| payload.push(&part));
        payload.finish()
    }

    /// The bytes as windows, in stream order (`cut`: the receiver's pieces
    /// in a fetched window; a stream is its own single part).
    pub(super) fn parts<'a>(&'a self, cut: &'a Cut<'_>) -> impl Iterator<Item = IoBuffer> + 'a {
        let (stream, window) = match self {
            Body::Stream(payload) => (Some(payload.clone()), None),
            Body::Window(fetched) => (None, Some(&**fetched)),
        };
        let window = window.into_iter();
        stream.into_iter().chain(window.flat_map(move |(runs, bufs)| pieces(runs, bufs, cut)))
    }

    /// Land the bytes at `at` in `landed` — the one copy of the read path.
    /// A piece out of a synthetic run degrades the buffer, as it would
    /// have a carved payload.
    pub(super) fn land(&self, landed: &mut IoBuffer, at: usize, cut: &Cut<'_>) {
        let mut to = at;
        for part in self.parts(cut) {
            landed.copy_in(to, &part);
            to += part.len();
        }
    }

    /// Checksum of the `n` bytes in stream order, hashed where they lie.
    /// Synthetic bytes sum to 0: the fault token models their integrity (a
    /// link-level checksum stands in for one over bytes never materialized),
    /// and a synthetic stream is not even walked: host work follows real bytes.
    fn sum(&self, cut: &Cut<'_>, n: u64, site: Site) -> u64 {
        if matches!(self, Body::Stream(payload) if !payload.is_real()) {
            return 0;
        }
        let _hp = host::scope(site);
        let mut h = Fnv1a::new();
        for part in self.parts(cut) {
            match part.as_slice() {
                Some(bytes) => h.update(bytes),
                None => return 0,
            }
        }
        host::count(Counter::CksumBytes, n);
        h.digest()
    }
}

/// One data message: `len` stream bytes and, with checksums on, their sum.
/// Announced transfer sizes exclude the trailer, so size agreement and
/// cursor lock-step do not know it exists — only the wire carries it.
pub(super) struct Sealed {
    body: Body,
    pub(super) len: u64,
    sum: Option<u64>,
}

impl Sealed {
    /// Seal `len` bytes for the wire (`cut`: the receiver's window pieces).
    pub(super) fn new(body: Body, cut: &Cut<'_>, len: u64, checksums: bool) -> Arc<Sealed> {
        let sum = checksums.then(|| body.sum(cut, len, Site::CksumCompute));
        Arc::new(Sealed { body, len, sum })
    }

    /// Bytes the message is modelled as: charged, traced, fault-drawn.
    fn wire_len(&self) -> usize {
        self.len as usize + self.sum.map_or(0, |_| TRAILER)
    }

    /// Whether the trailer matches the bytes (vacuously without one).
    fn intact(&self, cut: &Cut<'_>) -> bool {
        let check = |sum| self.body.sum(cut, self.len, Site::CksumVerify) == sum;
        self.sum.is_none_or(check)
    }

    /// This message as a corruption `token` leaves it: a private copy of
    /// the bytes with one byte of payload ‖ trailer flipped. Self-inverse.
    fn flipped(&self, cut: &Cut<'_>, token: u64) -> Sealed {
        let mut payload = self.body.clone().into_payload(cut);
        let mut trailer = self.sum.unwrap_or(0).to_le_bytes();
        let sealed = self.wire_len() - self.len as usize;
        if let Some(bytes) = payload.as_mut_slice() {
            corrupt_flip(bytes, &mut trailer[..sealed], token);
        }
        let (body, len) = (Body::Stream(payload), self.len);
        let sum = self.sum.map(|_| u64::from_le_bytes(trailer));
        Sealed { body, len, sum }
    }
}

/// Post one data message as p2p time, then — sender side of the repair
/// protocol — when the fault layer corrupted it, post clean copies on the
/// repair tag until one survives its own corruption draw (or the retry
/// budget runs out). Sender and receiver derive the same copy count from
/// the same seeded draws, so no negative acknowledgement needs to travel.
pub(super) fn post(
    comm: &Communicator<'_>,
    dst: usize,
    (data_tag, repair_tag): (i32, i32),
    msg: &Arc<Sealed>,
    prof: &mut PhaseProfile,
) {
    let ep = comm.endpoint();
    let t = PhaseTimer::start(Phase::P2p, ep.now());
    comm.isend_t(dst, data_tag, Arc::clone(msg), msg.wire_len());
    let faults = ep.faults().filter(|f| f.plan().has_corrupt_rules());
    if let Some(faults) = faults.filter(|f| msg.sum.is_some() && f.last_send_corrupt() != 0) {
        for _ in 0..faults.plan().max_retries.max(1) {
            comm.isend_t(dst, repair_tag, Arc::clone(msg), msg.wire_len());
            if faults.last_send_corrupt() == 0 {
                break;
            }
        }
    }
    t.stop_traced(ep.now(), prof, ep.trace());
}

/// Receiver side of the end-to-end integrity protocol for one received
/// data message (`cut`: this rank's pieces in a window).
///
/// Delivery is tombstoned: the message arrives untouched and the consumer
/// realizes any corruption its packet drew, on a private copy. Without
/// checksums the flip is applied silently — exactly the wrong answer the
/// integrity layer exists to prevent. With checksums the trailer mismatch
/// is detected, an exponential-backoff re-request is charged per attempt,
/// and the sender's clean copies (already posted, see [`post`]) are
/// consumed until one verifies. If every copy was damaged in flight too,
/// the recorded flip — which is self-inverse — is inverted, so the
/// protocol never returns a silently wrong byte. Returns the verified
/// bytes.
pub(super) fn verify(
    comm: &Communicator<'_>,
    src: usize,
    (data_tag, repair_tag): (i32, i32),
    msg: Arc<Sealed>,
    cut: &Cut<'_>,
    prof: &mut PhaseProfile,
) -> Body {
    let ep = comm.endpoint();
    let faults = ep.faults().filter(|f| f.plan().has_corrupt_rules());
    let token = match &faults {
        Some(f) if src != comm.rank() => f.take_corrupt(src, data_tag),
        _ => 0,
    };
    if token == 0 && msg.intact(cut) {
        return msg.body.clone();
    }
    let damaged = msg.flipped(cut, token);
    if damaged.sum.is_none() {
        return damaged.body;
    }
    // Detected: consume the sender's clean copies, backing off per
    // attempt as a re-request round trip. All costs land in a `recovery`
    // span, like aggregator failover.
    let faults = faults.expect("a corrupted payload implies an installed plan");
    let plan = faults.plan();
    let t0 = ep.now();
    let t = PhaseTimer::start(Phase::P2p, ep.now());
    let mut repaired: Option<Body> = None;
    let retries = plan.max_retries.max(1);
    for attempt in 0..retries {
        ep.clock()
            .advance(plan.retry_timeout * (1u64 << attempt.min(20)) as f64);
        let copy = comm.recv_t::<Sealed>(src, repair_tag);
        let copy_token = faults.take_corrupt(src, repair_tag);
        if copy_token == 0 && copy.intact(cut) {
            repaired = Some(copy.body.clone());
            break;
        }
    }
    let fell_back = repaired.is_none();
    let body = repaired.unwrap_or_else(|| damaged.flipped(cut, token).body);
    t.stop_traced(ep.now(), prof, ep.trace());
    let rec = ep.trace();
    if rec.enabled() {
        let (from, to) = (t0.as_micros(), ep.now().as_micros());
        let at = vec![("at", simtrace::ArgValue::from("piece_repair"))];
        rec.span("phase", "recovery", from, to, at);
        let src = vec![("src", simtrace::ArgValue::from(src))];
        rec.span("fault", "piece_repair", from, to, src);
        rec.count("pieces_repaired", 1);
        if fell_back {
            rec.count("piece_repair_fallbacks", 1);
        }
    }
    body
}

#[cfg(test)]
mod tests {
    use super::super::reqs::tests::list;
    use super::*;

    #[test]
    fn a_window_lands_sums_and_materialises_as_its_carved_payload_would() {
        let (a, runs) = (list(&[(2, 2), (10, 3)]), vec![(0, 4), (10, 4)]);
        let cut = a.cut(0, 5);
        let real = [[0, 1, 2, 3], [10, 11, 12, 13]].map(|run| IoBuffer::from_slice(&run));
        let carved = Body::Stream(IoBuffer::from_slice(&[2, 3, 10, 11, 12]));
        let window = Body::of_window(&Arc::new((runs.clone(), real.to_vec())), 5);
        assert_eq!(window.sum(&cut, 5, Site::CksumVerify), carved.sum(&cut, 5, Site::CksumVerify));
        let mut landed = IoBuffer::landing(7, window.parts(&cut));
        window.land(&mut landed, 1, &cut);
        assert_eq!(landed.as_slice().unwrap(), &[0, 2, 3, 10, 11, 12, 0]);
        assert_eq!(window.into_payload(&cut), carved.into_payload(&cut));
        // Nothing real was read: a synthetic stream, no piece visited.
        let synthetic = IoBuffer::synthetic(4);
        let unread = Body::of_window(&Arc::new((runs.clone(), vec![synthetic.clone(); 2])), 5);
        assert_eq!(unread.into_payload(&cut), IoBuffer::synthetic(5));
        // Mixed: a piece out of a synthetic run degrades what it touches.
        let mixed = Body::of_window(&Arc::new((runs, vec![real[0].clone(), synthetic])), 5);
        assert_eq!(mixed.sum(&cut, 5, Site::CksumVerify), 0);
        assert_eq!(IoBuffer::landing(7, mixed.parts(&cut)), IoBuffer::synthetic(7));
        mixed.land(&mut landed, 1, &cut);
        assert_eq!(landed, IoBuffer::synthetic(7));
        assert_eq!(mixed.clone().into_payload(&cut), IoBuffer::synthetic(5));
        assert_eq!(mixed.into_payload(&a.cut(0, 2)).as_slice().unwrap(), &[2, 3]);
    }
}
