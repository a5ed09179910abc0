//! Point-to-point messaging on a communicator.
//!
//! Sends are *eager*: the payload is deposited at the destination mailbox
//! immediately (Catamount's Portals stack delivers user-space to user-space
//! without kernel buffering, and the two-phase exchange pre-posts receives,
//! so eager completion is the faithful model). `isend` therefore completes
//! locally at post time, and `irecv`/[`Communicator::waitall`] provide the
//! overlap semantics the two-phase protocol depends on: the clock advances
//! to the **maximum** arrival across the batch, not the sum.
//!
//! Protocol metadata can travel typed ([`Communicator::isend_t`] /
//! [`Communicator::waitall_into`]), the point-to-point form of
//! `allgather_t`'s `bytes_each`: the message is *modelled* — charged,
//! traced, fault-drawn — as the `wire_bytes` the real protocol would
//! serialize, while the host passes the sender's `Rc`.

use crate::comm::Communicator;
use simnet::{IoBuffer, Payload, SimTime};
use std::rc::Rc;

/// Handle for a posted non-blocking receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvRequest {
    pub(crate) src_local: usize,
    pub(crate) tag: i32,
}

impl Communicator<'_> {
    /// Blocking standard send to `dst` (local rank).
    pub fn send(&self, dst: usize, tag: i32, buf: IoBuffer) {
        self.post(dst, tag, buf.into());
    }

    fn post(&self, dst: usize, tag: i32, payload: Payload) {
        let global = self.global_rank(dst);
        let rec = self.ep.trace();
        if rec.enabled() {
            rec.observe("p2p_send_bytes", payload.wire_len() as f64);
            rec.count("p2p_sends", 1);
        }
        self.ep.send(global, self.shared.ctx, tag, payload);
    }

    /// Non-blocking send. With eager delivery this is identical to
    /// [`send`](Communicator::send); it exists so protocol code reads like
    /// its MPI original.
    pub fn isend(&self, dst: usize, tag: i32, buf: IoBuffer) {
        self.send(dst, tag, buf);
    }

    /// Non-blocking typed send: the receiver's
    /// [`waitall_into`](Communicator::waitall_into) opens this very `Rc`
    /// ([`Payload::into_typed`]); every model sees a message of
    /// `wire_bytes`.
    pub fn isend_t<T: 'static>(&self, dst: usize, tag: i32, value: Rc<T>, wire_bytes: usize) {
        self.post(dst, tag, Payload::Typed { value, wire_bytes });
    }

    /// Blocking receive from `src` (local rank) with `tag`.
    pub fn recv(&self, src: usize, tag: i32) -> IoBuffer {
        self.recv_one(src, tag, Payload::into_bytes)
    }

    /// [`recv`](Communicator::recv) of a typed message
    /// ([`isend_t`](Communicator::isend_t)): same clock advance, same
    /// trace span, the sender's `Rc`.
    pub fn recv_t<T: 'static>(&self, src: usize, tag: i32) -> Rc<T> {
        self.recv_one(src, tag, Payload::into_typed)
    }

    fn recv_one<R>(&self, src: usize, tag: i32, open: impl FnOnce(Payload) -> R) -> R {
        let global = self.global_rank(src);
        let entry = self.ep.now();
        let (payload, info) = self.ep.recv_payload(global, self.shared.ctx, tag);
        let bytes = payload.wire_len();
        self.ep.clock().advance_to(info.arrival);
        self.ep.clock().advance(self.ep.net().recv_overhead(bytes));
        let rec = self.ep.trace();
        if rec.enabled() {
            // Mailbox depth at entry, derived from virtual time (the
            // message had already landed iff arrival ≤ entry) — never
            // sampled from the host-side queue, which is racy.
            rec.counter(
                "mailbox_depth",
                entry.as_micros(),
                if info.arrival <= entry { 1.0 } else { 0.0 },
            );
            rec.span(
                "p2p",
                "recv",
                entry.as_micros(),
                self.ep.now().as_micros(),
                vec![
                    ("src", simtrace::ArgValue::from(global)),
                    ("tag", simtrace::ArgValue::from(tag as u64)),
                    ("bytes", simtrace::ArgValue::from(bytes)),
                    // Send→recv edge identity for trace analysis: when
                    // the sender posted and when the last byte landed.
                    ("sent_us", simtrace::ArgValue::from(info.sent.as_micros())),
                    ("arrival_us", simtrace::ArgValue::from(info.arrival.as_micros())),
                ],
            );
        }
        open(payload)
    }

    /// Post a non-blocking receive; complete it with
    /// [`waitall`](Communicator::waitall).
    pub fn irecv(&self, src: usize, tag: i32) -> RecvRequest {
        RecvRequest {
            src_local: src,
            tag,
        }
    }

    /// Complete a batch of posted receives. Payloads are returned in
    /// request order; the clock advances to the latest arrival plus one
    /// receive overhead per message (the CPU cost of completing each).
    pub fn waitall(&self, reqs: &[RecvRequest]) -> Vec<IoBuffer> {
        let mut out = Vec::with_capacity(reqs.len());
        self.waitall_into(reqs.iter().cloned(), &mut out, |_, payload| {
            payload.into_bytes()
        });
        out
    }

    /// [`waitall`](Communicator::waitall) into the caller's buffer, over
    /// messages that may be bytes or typed: each payload as it was sent,
    /// passed through `open` with its source (local rank), appended to
    /// `out` in request order. Same clock advance, same trace span; a
    /// buffer kept across batches makes a batch allocate nothing.
    pub fn waitall_into<R>(
        &self,
        reqs: impl IntoIterator<Item = RecvRequest>,
        out: &mut Vec<R>,
        mut open: impl FnMut(usize, Payload) -> R,
    ) {
        let entry = self.ep.now();
        let mut n = 0usize;
        let mut bytes = 0usize;
        let mut latest = SimTime::ZERO;
        let mut overhead = SimTime::ZERO;
        // The message whose arrival bounds the batch (ties → first in
        // request order), exported as the waitall's binding edge.
        let mut bind: Option<(usize, simnet::RecvInfo)> = None;
        let mut ready_at_entry = 0u64;
        for req in reqs {
            n += 1;
            let global = self.global_rank(req.src_local);
            let (payload, info) = self.ep.recv_payload(global, self.shared.ctx, req.tag);
            if info.arrival <= entry {
                ready_at_entry += 1;
            }
            if info.arrival > latest || bind.is_none() {
                bind = Some((global, info));
            }
            latest = latest.max(info.arrival);
            overhead += self.ep.net().recv_overhead(payload.wire_len());
            bytes += payload.wire_len();
            out.push(open(req.src_local, payload));
        }
        // hostprof: completion bookkeeping after every packet is in hand
        // (the receive loop above can block and stays outside the
        // scope); the trace span below nests under this frame.
        let _hp = simtrace::host::scope(simtrace::host::Site::P2pWaitall);
        self.ep.clock().advance_to(latest);
        self.ep.clock().advance(overhead);
        let rec = self.ep.trace();
        if rec.enabled() && n > 0 {
            let (bind_src, bind_info) = bind.expect("nonempty batch has a binding message");
            // Messages already landed when the wait began — the
            // virtual-time mailbox backlog this rank walked into.
            rec.counter("mailbox_depth", entry.as_micros(), ready_at_entry as f64);
            rec.span(
                "p2p",
                "waitall",
                entry.as_micros(),
                self.ep.now().as_micros(),
                vec![
                    ("n", simtrace::ArgValue::from(n)),
                    ("bytes", simtrace::ArgValue::from(bytes)),
                    // Binding-edge identity: the latest-arriving message
                    // (global sender, post instant, landing instant).
                    ("bind_src", simtrace::ArgValue::from(bind_src)),
                    ("bind_sent_us", simtrace::ArgValue::from(bind_info.sent.as_micros())),
                    ("bind_arrival_us", simtrace::ArgValue::from(bind_info.arrival.as_micros())),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Communicator;
    use simnet::{run_cluster, ClusterConfig};

    #[test]
    fn send_recv_round_trip() {
        run_cluster(ClusterConfig::ideal(2), |ep| {
            let comm = Communicator::world(&ep);
            if comm.rank() == 0 {
                comm.send(1, 5, IoBuffer::from_slice(b"hello"));
            } else {
                let got = comm.recv(0, 5);
                assert_eq!(got.as_slice().unwrap(), b"hello");
            }
        });
    }

    #[test]
    fn p2p_respects_subcommunicator_rank_translation() {
        run_cluster(ClusterConfig::ideal(4), |ep| {
            let world = Communicator::world(&ep);
            // Odd ranks form a subgroup; sub rank 0 is global 1.
            let sub = world.split(Some((ep.rank() % 2) as i64), 0).unwrap();
            if ep.rank() % 2 == 1 {
                if sub.rank() == 0 {
                    sub.send(1, 0, IoBuffer::from_slice(&[9]));
                } else {
                    let got = sub.recv(0, 0);
                    assert_eq!(got.as_slice().unwrap(), &[9]);
                }
            }
        });
    }

    #[test]
    fn waitall_completes_at_max_arrival_not_sum() {
        let out = run_cluster(ClusterConfig::ideal(5), |ep| {
            let comm = Communicator::world(&ep);
            if comm.rank() == 0 {
                let reqs: Vec<RecvRequest> = (1..5).map(|s| comm.irecv(s, 0)).collect();
                let bufs = comm.waitall(&reqs);
                assert_eq!(bufs.len(), 4);
                for (i, b) in bufs.iter().enumerate() {
                    assert_eq!(b.len(), (i + 1) * 1000);
                }
                ep.now().as_secs()
            } else {
                comm.send(0, 0, IoBuffer::synthetic(comm.rank() * 1000));
                0.0
            }
        });
        // Ideal net: 1GB/s, 1us latency. Largest message 4000B ~ 4us + 1us.
        // If arrivals were summed the time would exceed ~10us.
        let t = out[0] * 1e6;
        assert!(t < 8.0, "waitall took {t}us — arrivals were summed, not maxed");
    }

    #[test]
    fn messages_on_same_key_do_not_overtake() {
        run_cluster(ClusterConfig::ideal(2), |ep| {
            let comm = Communicator::world(&ep);
            if comm.rank() == 0 {
                for i in 0..20u8 {
                    comm.send(1, 3, IoBuffer::from_slice(&[i]));
                }
            } else {
                for i in 0..20u8 {
                    let got = comm.recv(0, 3);
                    assert_eq!(got.as_slice().unwrap(), &[i]);
                }
            }
        });
    }

    #[test]
    fn synthetic_payloads_flow_through_p2p() {
        run_cluster(ClusterConfig::ideal(2), |ep| {
            let comm = Communicator::world(&ep);
            if comm.rank() == 0 {
                comm.send(1, 0, IoBuffer::synthetic(1 << 20));
            } else {
                let got = comm.recv(0, 0);
                assert_eq!(got, IoBuffer::synthetic(1 << 20));
                // Clock must reflect the 1MB transfer (1ms at 1GB/s).
                assert!(ep.now().as_millis() >= 1.0);
            }
        });
    }
}
