//! Data messages of the exchange and their end-to-end integrity
//! (`integrity_checksums`).
//!
//! A message moves references, not bytes, and with the hint on an 8-byte
//! checksum trailer travels beside it — `n + 8` modelled wire bytes, never
//! appended on the host. The receiver verifies the sum before any byte
//! lands anywhere, and a mismatch is repaired from clean copies the sender
//! already posted. With the hint off nothing here hashes, and a planted
//! flip reaches the data — the silent corruption the layer prevents.
//!
//! A stream without a trailer — every write message with the hint off —
//! travels as the byte payload itself ([`Msg::Plain`]), so posting it
//! allocates nothing; a sealed message or a read's window travels as one
//! shared [`Sealed`] ([`Msg::Shared`]), which the repair copies reuse.

use super::reqs::Cut;
use super::window::{pieces, Fetched};
use crate::profile::{Phase, PhaseProfile, PhaseTimer};
use simmpi::Communicator;
use simnet::buffer::BufferBuilder;
use simnet::cksum::digests;
use simnet::{corrupt_flip, IoBuffer, Payload};
use simtrace::host::{self, Counter, Site};
use std::ops::Deref;
use std::rc::Rc;

/// Bytes of the checksum trailer that travels with exchanged pieces.
const TRAILER: usize = 8;

/// The bytes of one data message, by reference.
#[derive(Clone)]
pub(super) enum Body {
    /// In stream order in one buffer: a write's window of the user buffer,
    /// a synthetic stand-in, or a message a corruption token materialised.
    Stream(IoBuffer),
    /// A read's fetched window, one `Rc` for every source with bytes in
    /// it: each takes its own cut as views of it.
    Window(Rc<Fetched>),
}

impl Body {
    /// What a read serves a source `n` bytes out of. Host work follows
    /// real bytes: when nothing read is real, no piece is ever visited.
    pub(super) fn of_window(fetched: &Rc<Fetched>, n: u64) -> Body {
        if fetched.iter().any(|(_, part)| part.is_real()) {
            Body::Window(Rc::clone(fetched))
        } else {
            Body::Stream(IoBuffer::synthetic(n as usize))
        }
    }

    /// The bytes as one buffer in stream order: a stream as it is, a
    /// window's pieces concatenated (pieces that continue each other in
    /// one store stay one view of it).
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
        stream
            .into_iter()
            .chain(window.flat_map(move |fetched| pieces(fetched, cut)))
    }

    /// Checksum of the `n` bytes in stream order, hashed where they lie
    /// ([`sums`] of this one message).
    fn sum(&self, cut: &Cut<'_>, n: u64, site: Site) -> u64 {
        sums([(self, cut, n)], site)[0]
    }

    /// The bytes as real windows in stream order; `None` if any is
    /// synthetic, and a synthetic stream is not even walked.
    fn real_parts(&self, cut: &Cut<'_>) -> Option<Vec<IoBuffer>> {
        if matches!(self, Body::Stream(payload) if !payload.is_real()) {
            return None;
        }
        let parts: Vec<IoBuffer> = self.parts(cut).collect();
        parts.iter().all(IoBuffer::is_real).then_some(parts)
    }
}

/// The checksum of each `(body, cut, n)`: its `n` bytes in stream order,
/// hashed where they lie, the messages in lockstep
/// (`simnet::cksum::digests`). Synthetic bytes sum to 0: the fault token
/// models their integrity (a link-level checksum stands in for one over
/// bytes never materialized), and host work follows real bytes.
fn sums<const N: usize>(msgs: [(&Body, &Cut<'_>, u64); N], site: Site) -> [u64; N] {
    let parts: [Option<Vec<IoBuffer>>; N] =
        std::array::from_fn(|i| msgs[i].0.real_parts(msgs[i].1));
    if parts.iter().all(Option::is_none) {
        return [0; N];
    }
    let _hp = host::scope(site);
    let mut streams = Vec::with_capacity(N);
    for (parts, (_, _, n)) in parts.iter().zip(&msgs) {
        if let Some(parts) = parts {
            host::count(Counter::CksumBytes, *n);
            streams.push(
                parts
                    .iter()
                    .map(|p| p.as_slice().expect("real parts"))
                    .collect(),
            );
        }
    }
    let mut digests = digests(&streams).into_iter();
    std::array::from_fn(|i| {
        parts[i]
            .as_ref()
            .map_or(0, |_| digests.next().expect("a digest each"))
    })
}

/// The buffer a collective read returns, as its messages arrive: each
/// one's parts at their offsets in the buffer, kept as views until the
/// call ends — or nothing, once a synthetic byte has arrived, since the
/// buffer is synthetic then whatever else comes.
pub(super) enum Landing {
    /// `(buffer offset, bytes)`, in arrival order.
    Parts(Vec<(usize, IoBuffer)>),
    /// A synthetic byte arrived.
    Synthetic,
}

impl Default for Landing {
    fn default() -> Self {
        Landing::Parts(Vec::new())
    }
}

impl Landing {
    /// Take `body`'s bytes (`cut`: my pieces in a fetched window) for
    /// the buffer from offset `at` on. A synthetic part — a synthetic
    /// stream, a piece out of a synthetic run — drops what is held.
    pub(super) fn land(&mut self, mut at: usize, body: &Body, cut: &Cut<'_>) {
        let Landing::Parts(parts) = self else {
            return;
        };
        for part in body.parts(cut) {
            if !part.is_real() {
                *self = Landing::Synthetic;
                return;
            }
            let n = part.len();
            parts.push((at, part));
            at += n;
        }
    }

    /// The `total`-byte buffer: the parts in buffer order, joined into one
    /// view while each continues the last in one store (a rank reading
    /// back what it wrote gets a view of its own buffer, no copy), else
    /// copied once — the read path's only copy. The messages of a read
    /// tile its buffer, so nothing is zero-filled.
    pub(super) fn finish(self, total: usize) -> IoBuffer {
        let mut parts = match self {
            Landing::Synthetic => return IoBuffer::synthetic(total),
            Landing::Parts(parts) => parts,
        };
        let _hp = host::scope(Site::Unpack);
        parts.sort_unstable_by_key(|&(at, _)| at);
        let mut out = BufferBuilder::with_capacity(total);
        for (at, part) in parts {
            debug_assert_eq!(at, out.len(), "the parts of a read tile its buffer");
            out.push(&part);
        }
        debug_assert_eq!(out.len(), total, "the parts of a read tile its buffer");
        out.finish()
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
    /// Seal every `(dst, body, cut, len)` of `msgs` for the wire and hand
    /// it to `sealed` with its destination, in order (`cut`: the
    /// receiver's window pieces); with checksums on, the sums are taken
    /// two messages at a time.
    pub(super) fn seal_all<'c>(
        msgs: impl Iterator<Item = (usize, Body, Cut<'c>, u64)>,
        checksums: bool,
        mut sealed: impl FnMut(usize, Msg),
    ) {
        if checksums {
            return Self::seal_all_summed(msgs, sealed);
        }
        for (dst, body, _, len) in msgs {
            let sum = None;
            sealed(dst, Msg::new(Sealed { body, len, sum }));
        }
    }

    /// [`Sealed::seal_all`] with checksums on, out of line: the sums'
    /// state stays off the stack of a round that takes none.
    #[inline(never)]
    fn seal_all_summed<'c>(
        mut msgs: impl Iterator<Item = (usize, Body, Cut<'c>, u64)>,
        mut sealed: impl FnMut(usize, Msg),
    ) {
        let mut seal = |dst, body, len, sum| sealed(dst, Msg::new(Sealed { body, len, sum }));
        while let Some((dst, body, cut, len)) = msgs.next() {
            let Some((next_dst, next, next_cut, next_len)) = msgs.next() else {
                let sum = body.sum(&cut, len, Site::CksumCompute);
                seal(dst, body, len, Some(sum));
                break;
            };
            let both = [(&body, &cut, len), (&next, &next_cut, next_len)];
            let [sum, next_sum] = sums(both, Site::CksumCompute);
            seal(dst, body, len, Some(sum));
            seal(next_dst, next, next_len, Some(next_sum));
        }
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

/// One data message as it travels.
pub(super) enum Msg {
    /// A stream without a trailer: on the wire it is its bytes
    /// (`Payload::Bytes`), so it allocates nothing.
    Plain(Sealed),
    /// A sealed message or a read's window: one `Rc` for the message and
    /// every repair copy of it (`Payload::Typed`).
    Shared(Rc<Sealed>),
}

impl Msg {
    fn new(sealed: Sealed) -> Msg {
        match (&sealed.body, sealed.sum) {
            (Body::Stream(_), None) => Msg::Plain(sealed),
            _ => Msg::Shared(Rc::new(sealed)),
        }
    }

    /// The message a payload carries: bytes are a plain stream.
    pub(super) fn from_payload(payload: Payload) -> Msg {
        match payload {
            Payload::Bytes(bytes) => Msg::Plain(Sealed {
                len: bytes.len() as u64,
                body: Body::Stream(bytes),
                sum: None,
            }),
            typed => Msg::Shared(typed.into_typed()),
        }
    }

    /// The message's bytes, taken out of a plain one.
    fn into_body(self) -> Body {
        match self {
            Msg::Plain(sealed) => sealed.body,
            Msg::Shared(sealed) => sealed.body.clone(),
        }
    }
}

impl Deref for Msg {
    type Target = Sealed;

    fn deref(&self) -> &Sealed {
        match self {
            Msg::Plain(sealed) => sealed,
            Msg::Shared(sealed) => sealed,
        }
    }
}

/// Post one data message as p2p time, then — sender side of the repair
/// protocol — when the fault layer corrupted a sealed one, post clean
/// copies on the repair tag until one survives its own corruption draw
/// (or the retry budget runs out). Sender and receiver derive the same
/// copy count from the same seeded draws, so no negative acknowledgement
/// needs to travel.
pub(super) fn post(
    comm: &Communicator<'_>,
    dst: usize,
    (data_tag, repair_tag): (i32, i32),
    msg: Msg,
    prof: &mut PhaseProfile,
) {
    let ep = comm.endpoint();
    let t = PhaseTimer::start(Phase::P2p, ep.now());
    match msg {
        Msg::Plain(plain) => comm.isend(dst, data_tag, plain.body.into_payload(&Cut::default())),
        Msg::Shared(msg) => post_shared(comm, dst, (data_tag, repair_tag), msg),
    }
    t.stop_traced(ep.now(), prof, ep.trace());
}

/// [`post`] of a sealed message or a read's window, and of the clean
/// copies a corrupted one is repaired from — out of line, so a plain
/// stream's send frame holds none of it.
#[inline(never)]
fn post_shared(
    comm: &Communicator<'_>,
    dst: usize,
    (data_tag, repair_tag): (i32, i32),
    msg: Rc<Sealed>,
) {
    comm.isend_t(dst, data_tag, Rc::clone(&msg), msg.wire_len());
    let faults = comm
        .endpoint()
        .faults()
        .filter(|f| f.plan().has_corrupt_rules());
    let corrupted = faults.filter(|f| msg.sum.is_some() && f.last_send_corrupt() != 0);
    if let Some(faults) = corrupted {
        for _ in 0..faults.plan().max_retries.max(1) {
            comm.isend_t(dst, repair_tag, Rc::clone(&msg), msg.wire_len());
            if faults.last_send_corrupt() == 0 {
                break;
            }
        }
    }
}

/// Receiver side of the end-to-end integrity protocol for the data
/// messages of one exchange, `(src, message, cut)` in order (`cut`: this
/// rank's pieces in a window): hands each one's `(src, len, cut)` and
/// verified bytes to `verified`, in order.
///
/// Delivery is tombstoned: the message arrives untouched and the consumer
/// realizes any corruption its packet drew, on a private copy. Without
/// checksums the flip is applied silently — exactly the wrong answer the
/// integrity layer exists to prevent. With checksums the trailer mismatch
/// is detected, an exponential-backoff re-request is charged per attempt,
/// and the sender's clean copies (already posted, see [`post`]) are
/// consumed until one verifies. If every copy was damaged in flight too,
/// the recorded flip — which is self-inverse — is inverted, so the
/// protocol never returns a silently wrong byte. A clean message with a
/// trailer is checked together with the next one when that is one too:
/// both draw their tokens, their sums are taken in lockstep, then each
/// is taken or repaired, in order.
pub(super) fn verify_all<'c>(
    comm: &Communicator<'_>,
    tags: (i32, i32),
    mut msgs: impl Iterator<Item = (usize, Msg, Cut<'c>)>,
    prof: &mut PhaseProfile,
    mut verified: impl FnMut(usize, u64, Cut<'c>, Body),
) {
    let faults = comm.endpoint().faults();
    let faults = faults.filter(|f| f.plan().has_corrupt_rules());
    let draw = |src: usize| match faults {
        Some(f) if src != comm.rank() => f.take_corrupt(src, tags.0),
        _ => 0,
    };
    let mut settle = |src, msg: Msg, cut: Cut<'c>, token, intact| {
        let len = msg.len;
        let body = match token == 0 && intact {
            true => msg.into_body(),
            false => repair(comm, src, tags, &msg, &cut, token, prof),
        };
        verified(src, len, cut, body);
    };
    let checked = |token: u64, msg: &Sealed| token == 0 && msg.sum.is_some();
    while let Some((src, msg, cut)) = msgs.next() {
        let token = draw(src);
        if !checked(token, &msg) {
            settle(src, msg, cut, token, true);
            continue;
        }
        let Some((next_src, next, next_cut)) = msgs.next() else {
            let intact = msg.intact(&cut);
            settle(src, msg, cut, token, intact);
            break;
        };
        let next_token = draw(next_src);
        let (intact, next_intact) = match checked(next_token, &next) {
            true => {
                let both = [
                    (&msg.body, &cut, msg.len),
                    (&next.body, &next_cut, next.len),
                ];
                let [sum, next_sum] = sums(both, Site::CksumVerify);
                (msg.sum == Some(sum), next.sum == Some(next_sum))
            }
            false => (msg.intact(&cut), true),
        };
        settle(src, msg, cut, token, intact);
        settle(next_src, next, next_cut, next_token, next_intact);
    }
}

/// The bytes of a message that drew corruption `token` or failed its
/// sum: the flip realized on a private copy and, with checksums on,
/// detected and repaired from the sender's clean copies.
fn repair(
    comm: &Communicator<'_>,
    src: usize,
    (_, repair_tag): (i32, i32),
    msg: &Sealed,
    cut: &Cut<'_>,
    token: u64,
    prof: &mut PhaseProfile,
) -> Body {
    let ep = comm.endpoint();
    let faults = ep.faults().filter(|f| f.plan().has_corrupt_rules());
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
pub(super) mod tests {
    use super::super::reqs::tests::{arb_pieces, list};
    use super::*;
    use proptest::prelude::*;

    /// The landing this module had before a read kept views: a
    /// zero-filled buffer whose kind follows the first arrival's parts,
    /// every message copied in where it goes, in arrival order. The
    /// reference [`Landing`] is held to.
    pub(in crate::twophase) fn land_by_copy(
        total: usize,
        arrivals: &[(usize, Body, Cut<'_>)],
    ) -> IoBuffer {
        let mut landed: Option<IoBuffer> = None;
        for (at, body, cut) in arrivals {
            let buf =
                landed.get_or_insert_with(|| match body.parts(cut).all(|part| part.is_real()) {
                    true => IoBuffer::zeroed(total),
                    false => IoBuffer::synthetic(total),
                });
            let mut to = *at;
            for part in body.parts(cut) {
                buf.copy_in(to, &part);
                to += part.len();
            }
        }
        landed.unwrap_or_else(|| IoBuffer::zeroed(total))
    }

    /// `Landing` of `arrivals` in their order, assembled.
    pub(in crate::twophase) fn land_by_views(
        total: usize,
        arrivals: &[(usize, Body, Cut<'_>)],
    ) -> IoBuffer {
        let mut landed = Landing::default();
        for (at, body, cut) in arrivals {
            landed.land(*at, body, cut);
        }
        landed.finish(total)
    }

    #[test]
    fn a_window_lands_sums_and_materialises_as_its_carved_payload_would() {
        let a = list(&[(2, 2), (10, 3)]);
        let cut = a.cut(0, 5);
        // Run [10, 14) was read as two parts: its piece meets both.
        let real: Fetched = vec![
            (0, IoBuffer::from_slice(&[0, 1, 2, 3])),
            (10, IoBuffer::from_slice(&[10, 11])),
            (12, IoBuffer::from_slice(&[12, 13])),
        ];
        let carved = Body::Stream(IoBuffer::from_slice(&[2, 3, 10, 11, 12]));
        let window = Body::of_window(&Rc::new(real.clone()), 5);
        assert_eq!(window.sum(&cut, 5, Site::CksumVerify), carved.sum(&cut, 5, Site::CksumVerify));
        let edge = |byte| Body::Stream(IoBuffer::from_slice(&[byte]));
        let arrivals = [
            (1, window.clone(), cut),
            (6, edge(9), Cut::default()),
            (0, edge(8), Cut::default()),
        ];
        let landed = land_by_views(7, &arrivals);
        assert_eq!(landed.as_slice().unwrap(), &[8, 2, 3, 10, 11, 12, 9]);
        assert_eq!(landed, land_by_copy(7, &arrivals));
        assert_eq!(window.into_payload(&cut), carved.into_payload(&cut));
        // One part is the buffer itself: no copy.
        let whole = IoBuffer::from_slice(&[1, 2, 3]);
        let one = land_by_views(3, &[(0, Body::Stream(whole.sub(0, 3)), Cut::default())]);
        assert!(whole.sub(0, 0).join(&one), "the view, not a copy");
        // Nothing real was read: a synthetic stream, no piece visited.
        let synthetic = IoBuffer::synthetic(4);
        let unread = vec![(0, synthetic.clone()), (10, synthetic.clone())];
        let unread = Body::of_window(&Rc::new(unread), 5);
        assert_eq!(unread.into_payload(&cut), IoBuffer::synthetic(5));
        // Mixed: a piece out of a synthetic run degrades what it touches.
        let mixed = Body::of_window(&Rc::new(vec![real[0].clone(), (10, synthetic)]), 5);
        assert_eq!(mixed.sum(&cut, 5, Site::CksumVerify), 0);
        let mut landed = Landing::default();
        landed.land(1, &mixed, &cut);
        assert!(
            matches!(landed, Landing::Synthetic),
            "nothing is held once synthetic"
        );
        assert_eq!(landed.finish(7), IoBuffer::synthetic(7));
        assert_eq!(mixed.clone().into_payload(&cut), IoBuffer::synthetic(5));
        assert_eq!(mixed.into_payload(&a.cut(0, 2)).as_slice().unwrap(), &[2, 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A client's stream split into messages anywhere, each a view of
        /// a fetched window read in parts cut anywhere or a carved copy of
        /// it, arriving in any order: views assembled at the end give the
        /// buffer copying in gave — all real, with one synthetic payload,
        /// and over synthetic file bytes, under a piece or in a hole.
        #[test]
        fn views_assembled_at_the_end_land_what_copying_in_did(
            pieces in arb_pieces(24),
            splits in proptest::collection::vec(1u64..400, 0..6),
            bounds in proptest::collection::vec(1u64..400, 0..6),
            carve in proptest::collection::vec(any::<bool>(), 7),
            case in 0u8..3,
            pick in any::<u64>(),
            order in any::<u64>(),
        ) {
            let l = list(&pieces);
            let total = l.total_bytes();
            prop_assume!(total > 0);
            let (lo, hi) = l.file_range().expect("a non-empty list");
            // The window [lo, hi) read as parts cut at `splits`.
            let mut at: Vec<u64> = splits.iter().map(|s| lo + s % (hi - lo)).collect();
            at.extend([lo, hi]);
            at.sort_unstable();
            at.dedup();
            let fetched: Fetched = at
                .windows(2)
                .enumerate()
                .map(|(i, w)| {
                    let n = (w[1] - w[0]) as usize;
                    let part = match case == 2 && pick as usize % (at.len() - 1) == i {
                        true => IoBuffer::synthetic(n),
                        false => IoBuffer::from_vec((w[0]..w[1]).map(|b| (b * 7 + 3) as u8).collect()),
                    };
                    (w[0], part)
                })
                .collect();
            let fetched = Rc::new(fetched);
            // The stream split into messages at `bounds`.
            let mut pos: Vec<u64> = bounds.iter().map(|b| b % total).collect();
            pos.extend([0, total]);
            pos.sort_unstable();
            pos.dedup();
            let mut arrivals: Vec<(usize, Body, Cut<'_>)> = pos
                .windows(2)
                .enumerate()
                .map(|(i, w)| {
                    let (cut, n) = (l.cut(w[0], w[1] - w[0]), w[1] - w[0]);
                    let window = Body::of_window(&fetched, n);
                    let body = if case == 1 && pick as usize % (pos.len() - 1) == i {
                        Body::Stream(IoBuffer::synthetic(n as usize))
                    } else if carve[i] {
                        Body::Stream(window.into_payload(&cut))
                    } else {
                        window
                    };
                    (w[0] as usize, body, cut)
                })
                .collect();
            let k = arrivals.len();
            arrivals.rotate_left(order as usize % k);
            if order & 1 == 1 {
                arrivals.reverse();
            }
            let by_views = land_by_views(total as usize, &arrivals);
            prop_assert_eq!(&by_views, &land_by_copy(total as usize, &arrivals));
            if case == 0 {
                let expect: Vec<u8> = l.pieces().iter().flat_map(|p| (p.file_off..p.end()).map(|b| (b * 7 + 3) as u8)).collect();
                prop_assert_eq!(by_views.as_slice().unwrap(), &expect[..]);
            }
        }
    }
}
