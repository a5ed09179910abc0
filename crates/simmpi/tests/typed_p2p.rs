//! Contract of typed point-to-point messages
//! ([`Communicator::isend_t`] / [`Communicator::waitall_t`]): a typed
//! message is *modelled* exactly as a byte message of its `wire_bytes` —
//! same arrival instant, same receiver overhead, same `p2p_sends` /
//! `p2p_send_bytes`, same drop, delay and corruption draws in the same
//! per-`(src, tag)` order under a seeded fault plan, hence the same
//! exported trace bit for bit — while the host hands the receiver the
//! sender's own `Rc`. Checked in the default pop order and in a
//! shuffled host order.
//!
//! The order is the calling thread's choice ([`simnet::set_pop_order`]),
//! and each test runs on a thread of its own.

use simmpi::{Communicator, RecvRequest};
use simnet::{run_cluster, ClusterConfig, FaultPlan, IoBuffer, Mapping, PopOrder, SimTime};
use simtrace::{chrome_trace_json, metrics_json, TraceSink};
use std::rc::Rc;
use std::sync::Arc;

const RANKS: usize = 8;
const ROUNDS: usize = 6;
const TAGS: [i32; 2] = [0x7001, 0x7003];

type Pairs = Vec<(u64, u64)>;

/// What `src` sends `dst` in `round`: lengths differ by sender and
/// round, and some lists are empty (a zero-byte message still travels).
fn pairs(src: usize, dst: usize, round: usize) -> Pairs {
    (0..(src * 3 + dst + round * 5) % 11)
        .map(|i| ((src * 1000 + i) as u64, (round + 1) as u64))
        .collect()
}

/// A list as the byte message it models: 16 little-endian bytes a pair.
fn encode(list: &[(u64, u64)]) -> IoBuffer {
    let words = list.iter().flat_map(|&(a, b)| [a, b]);
    IoBuffer::from_vec(words.flat_map(u64::to_le_bytes).collect())
}

fn decode(buf: &IoBuffer) -> Pairs {
    let bytes = buf.as_slice().expect("a list travels as real bytes");
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8 bytes"));
    let pair = |c: &[u8]| (word(&c[..8]), word(&c[8..]));
    bytes.chunks_exact(16).map(pair).collect()
}

/// What one rank saw: its final clock, every list it received, the
/// addresses of the values it sent and received (typed runs only), and
/// the corruption tokens it drew per `(src, tag)`, in arrival order.
struct Seen {
    clock: SimTime,
    lists: Vec<Pairs>,
    sent_at: Vec<usize>,
    received_at: Vec<usize>,
    tokens: Vec<u64>,
}

fn exchange(typed: bool) -> (Vec<Seen>, String, String) {
    let mut cfg = ClusterConfig::cray_xt(RANKS, Mapping::Block);
    let sink = TraceSink::enabled();
    cfg.trace = sink.clone();
    cfg.faults = Some(Arc::new(
        FaultPlan::new(0x5EED)
            .msg_drop(0.25, None, None)
            .msg_delay_jitter(0.5, 0.5)
            .msg_corrupt(0.3, None, None),
    ));
    let seen = run_cluster(cfg, move |ep| {
        ep.compute(SimTime::micros(ep.rank() as f64 * 2.0));
        let comm = Communicator::world(&ep);
        let me = comm.rank();
        let peers: Vec<usize> = (0..RANKS).filter(|&r| r != me).collect();
        let mut seen = Seen {
            clock: SimTime::ZERO,
            lists: Vec::new(),
            sent_at: Vec::new(),
            received_at: Vec::new(),
            tokens: Vec::new(),
        };
        for round in 0..ROUNDS {
            let tag = TAGS[round % 2];
            for &dst in &peers {
                let list = pairs(me, dst, round);
                if typed {
                    let wire = 16 * list.len();
                    let list = Rc::new(list);
                    seen.sent_at.push(Rc::as_ptr(&list) as usize);
                    comm.isend_t(dst, tag, list, wire);
                } else {
                    comm.isend(dst, tag, encode(&list));
                }
            }
            let reqs: Vec<RecvRequest> = peers.iter().map(|&src| comm.irecv(src, tag)).collect();
            if typed {
                for list in comm.waitall_t::<Pairs>(&reqs) {
                    seen.received_at.push(Rc::as_ptr(&list) as usize);
                    seen.lists.push((*list).clone());
                }
            } else {
                for buf in comm.waitall(&reqs) {
                    seen.lists.push(decode(&buf));
                }
            }
            let faults = ep.faults().expect("plan installed");
            for &src in &peers {
                seen.tokens.push(faults.take_corrupt(src, tag));
            }
        }
        seen.clock = ep.now();
        seen
    });
    let trace = sink.finish();
    (seen, chrome_trace_json(&trace), metrics_json(&trace))
}

#[test]
fn typed_message_is_modelled_as_its_wire_bytes() {
    for order in [PopOrder::Fixed, PopOrder::Shuffled(1)] {
        simnet::set_pop_order(order);
        let what = format!("{order:?}");
        let (bytes, bytes_trace, bytes_metrics) = exchange(false);
        let (typed, typed_trace, typed_metrics) = exchange(true);

        assert!(
            bytes_trace.contains("msg_retry"),
            "{what}: the plan drops messages"
        );
        assert!(
            bytes.iter().any(|s| s.tokens.iter().any(|&t| t != 0)),
            "{what}: the plan corrupts messages"
        );
        assert!(bytes_metrics.contains("p2p_send_bytes") && bytes_metrics.contains("p2p_sends"));
        assert_eq!(typed_trace, bytes_trace, "{what}: exported trace");
        assert_eq!(
            typed_metrics, bytes_metrics,
            "{what}: counters and histograms"
        );
        for (rank, (t, b)) in typed.iter().zip(&bytes).enumerate() {
            assert_eq!(
                t.clock.as_secs().to_bits(),
                b.clock.as_secs().to_bits(),
                "{what}: rank {rank} clock"
            );
            assert_eq!(t.lists, b.lists, "{what}: rank {rank} received lists");
            assert_eq!(t.tokens, b.tokens, "{what}: rank {rank} corruption draws");
        }

        // The host passed references: every received value is one some
        // rank sent, at the same address.
        let sent: std::collections::HashSet<usize> = typed
            .iter()
            .flat_map(|s| s.sent_at.iter().copied())
            .collect();
        for (rank, s) in typed.iter().enumerate() {
            assert_eq!(s.received_at.len(), ROUNDS * (RANKS - 1));
            assert!(
                s.received_at.iter().all(|at| sent.contains(at)),
                "{what}: rank {rank} received a copy"
            );
        }
    }
}

#[test]
#[should_panic(expected = "typed message received as bytes")]
fn kinds_must_agree_per_tag() {
    run_cluster(ClusterConfig::ideal(2), |ep| {
        let comm = Communicator::world(&ep);
        if comm.rank() == 0 {
            comm.isend_t(1, 9, Rc::new(7u64), 8);
        } else {
            let _ = comm.recv(0, 9);
        }
    });
}
