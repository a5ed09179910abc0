//! Contract of the derive-at-meet allgather
//! ([`Communicator::allgather_t_derive`]): the closure runs exactly once
//! per collective, every member receives the same `Rc`, and clocks and
//! the exported trace are those of a plain `allgather_t` of the same
//! values, bit for bit — in the default pop order and in shuffled
//! host orders. Members
//! that serialize to different sizes are charged the largest. A panic
//! inside the closure surfaces as the run's panic with its own message
//! instead of hanging the rendezvous.
//!
//! The order is a process-global choice ([`simnet::set_pop_order`]), so
//! the tests in this file serialize on one mutex and restore the default.

use simmpi::Communicator;
use simnet::{run_cluster, ClusterConfig, IoBuffer, Mapping, PopOrder, SimTime};
use simtrace::{chrome_trace_json, ArgValue, Event, TraceSink, TrackKey};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

const RANKS: usize = 8;
const COLLECTIVES: usize = 3;

struct OrderGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn order_lock() -> OrderGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    OrderGuard(guard)
}

impl Drop for OrderGuard {
    fn drop(&mut self) {
        simnet::set_pop_order(PopOrder::Fixed);
    }
}

/// Pop orders under test.
const SUBSTRATES: [PopOrder; 3] = [
    PopOrder::Fixed,
    PopOrder::Shuffled(1),
    PopOrder::Shuffled(2),
];

fn cluster(trace: &TraceSink) -> ClusterConfig {
    let mut cfg = ClusterConfig::cray_xt(RANKS, Mapping::Block);
    cfg.trace = trace.clone();
    cfg
}

/// Serialized size of this rank's value in collective `i`: the largest
/// contribution moves to a different rank each time, so whichever rank
/// the host lets arrive last, some collective's largest is another's.
fn unequal_size(rank: usize, i: usize) -> usize {
    8 + (rank + 3 * i) % RANKS * 4
}

/// This rank's value in collective `i`, tagged with its serialized size.
fn contribution(rank: usize, i: usize) -> (u64, usize) {
    ((rank * 16 + i) as u64, unequal_size(rank, i))
}

#[test]
fn derive_runs_once_shares_one_arc_and_costs_a_plain_allgather() {
    let _guard = order_lock();
    for order in SUBSTRATES {
        simnet::set_pop_order(order);

        // Reference: plain allgather, every rank folding its own copy.
        let sink = TraceSink::enabled();
        let plain = run_cluster(cluster(&sink), |ep| {
            ep.compute(SimTime::micros(ep.rank() as f64 * 3.0));
            let comm = Communicator::world(&ep);
            let folded: Vec<Vec<u64>> = (0..COLLECTIVES)
                .map(|i| {
                    let (val, n) = contribution(comm.rank(), i);
                    comm.allgather_t(val, n).iter().map(|v| v * 2).collect()
                })
                .collect();
            (folded, ep.now())
        });
        let plain_trace = chrome_trace_json(&sink.finish());
        assert!(
            plain_trace.contains("allgather"),
            "the reference trace records the rdv spans"
        );

        // Same values through the derive-at-meet form.
        let calls = Arc::new(AtomicUsize::new(0));
        let sink = TraceSink::enabled();
        let calls2 = Arc::clone(&calls);
        let derived = run_cluster(cluster(&sink), move |ep| {
            ep.compute(SimTime::micros(ep.rank() as f64 * 3.0));
            let comm = Communicator::world(&ep);
            let shared: Vec<Rc<Vec<u64>>> = (0..COLLECTIVES)
                .map(|i| {
                    let (val, n) = contribution(comm.rank(), i);
                    comm.allgather_t_derive(val, n, |vals| {
                        calls2.fetch_add(1, Ordering::SeqCst);
                        vals.iter().map(|v| v * 2).collect()
                    })
                })
                .collect();
            (shared, ep.now())
        });
        let derived_trace = chrome_trace_json(&sink.finish());

        let what = format!("{order:?}");
        assert_eq!(
            calls.load(Ordering::SeqCst),
            COLLECTIVES,
            "{what}: once per collective"
        );
        for (rank, ((shared, clock), (folded, plain_clock))) in
            derived.iter().zip(&plain).enumerate()
        {
            assert_eq!(
                clock.as_secs().to_bits(),
                plain_clock.as_secs().to_bits(),
                "{what}: rank {rank} clock"
            );
            for i in 0..COLLECTIVES {
                assert!(
                    Rc::ptr_eq(&shared[i], &derived[0].0[i]),
                    "{what}: rank {rank} holds its own copy"
                );
                assert_eq!(*shared[i], folded[i], "{what}: rank {rank} collective {i}");
            }
        }
        assert_eq!(derived_trace, plain_trace, "{what}: exported trace");
    }
}

/// A typed allgather whose members serialize to different sizes is an
/// `MPI_Allgatherv`: every member completes, bit for bit, at the latest
/// entry plus the cost of an allgather of the *largest* size, and each
/// member's `rdv` span carries its own size.
#[test]
fn typed_allgather_of_unequal_sizes_charges_the_largest() {
    let _guard = order_lock();
    let net = cluster(&TraceSink::disabled()).net;
    for order in SUBSTRATES {
        simnet::set_pop_order(order);
        let sink = TraceSink::enabled();
        let out = run_cluster(cluster(&sink), move |ep| {
            ep.compute(SimTime::micros(ep.rank() as f64 * 3.0));
            let comm = Communicator::world(&ep);
            let me = comm.rank();
            (0..COLLECTIVES)
                .map(|i| {
                    let entry = ep.now();
                    let n = unequal_size(me, i);
                    let sizes = comm.allgather_t_derive(n, n, |sizes| sizes);
                    let expect: Vec<usize> = (0..RANKS).map(|r| unequal_size(r, i)).collect();
                    assert_eq!(*sizes, expect);
                    (entry, ep.now())
                })
                .collect::<Vec<(SimTime, SimTime)>>()
        });
        let what = format!("{order:?}");
        for i in 0..COLLECTIVES {
            let last_entry = out
                .iter()
                .map(|calls| calls[i].0)
                .fold(SimTime::ZERO, SimTime::max);
            let largest = (0..RANKS).map(|r| unequal_size(r, i)).max().unwrap();
            let done = last_entry + net.allgather_cost(RANKS, largest);
            for (rank, calls) in out.iter().enumerate() {
                assert_eq!(
                    calls[i].1.as_secs().to_bits(),
                    done.as_secs().to_bits(),
                    "{what}: rank {rank} completion of collective {i}"
                );
            }
        }
        let trace = sink.finish();
        for rank in 0..RANKS {
            let spans: Vec<u64> = trace
                .track(TrackKey::Rank(rank))
                .expect("every rank records its spans")
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Span { cat: "rdv", name, args, .. } if name == "allgather" => {
                        args.iter().find_map(|&(k, ref v)| match (k, v) {
                            ("bytes", ArgValue::U64(b)) => Some(*b),
                            _ => None,
                        })
                    }
                    _ => None,
                })
                .collect();
            let own: Vec<u64> = (0..COLLECTIVES)
                .map(|i| unequal_size(rank, i) as u64)
                .collect();
            assert_eq!(spans, own, "{what}: rank {rank}'s spans carry its own sizes");
        }
    }
}

#[test]
fn split_derive_runs_once_and_is_a_plain_split() {
    let _guard = order_lock();
    for order in SUBSTRATES {
        simnet::set_pop_order(order);
        let run = |derive_once: bool, calls: Arc<AtomicUsize>| {
            let sink = TraceSink::enabled();
            let out = run_cluster(cluster(&sink), move |ep| {
                ep.compute(SimTime::micros(ep.rank() as f64 * 3.0));
                let comm = Communicator::world(&ep);
                let color = Some((comm.rank() % 2) as i64);
                // What every rank can work out alone from inputs all hold.
                let decide = || (0..comm.size()).map(|r| r % 2).collect::<Vec<usize>>();
                let (sub, decided) = if derive_once {
                    comm.split_derive(color, 0, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        decide()
                    })
                } else {
                    (comm.split(color, 0), Rc::new(decide()))
                };
                let sub = sub.expect("every rank has a color");
                (sub.rank(), sub.size(), decided, ep.now())
            });
            (out, chrome_trace_json(&sink.finish()))
        };
        let calls = Arc::new(AtomicUsize::new(0));
        let (plain, plain_trace) = run(false, Arc::clone(&calls));
        let (derived, derived_trace) = run(true, Arc::clone(&calls));
        let what = format!("{order:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "{what}: once per split");
        for (rank, (d, p)) in derived.iter().zip(&plain).enumerate() {
            assert_eq!(
                (d.0, d.1),
                (p.0, p.1),
                "{what}: rank {rank} sub-communicator"
            );
            assert_eq!(*d.2, *p.2, "{what}: rank {rank} decision");
            assert!(
                Rc::ptr_eq(&d.2, &derived[0].2),
                "{what}: rank {rank} holds a copy"
            );
            assert_eq!(
                d.3.as_secs().to_bits(),
                p.3.as_secs().to_bits(),
                "{what}: rank {rank} clock"
            );
        }
        assert_eq!(derived_trace, plain_trace, "{what}: exported trace");
    }
}

#[test]
fn panic_in_derive_surfaces_with_its_own_message() {
    let _guard = order_lock();
    for order in SUBSTRATES {
        simnet::set_pop_order(order);
        // Whichever rank arrives last runs the closure: make each rank
        // the last arrival in turn by having it collect a token from
        // every peer before it enters the collective.
        for late in 0..RANKS {
            let run = std::panic::catch_unwind(move || {
                run_cluster(cluster(&TraceSink::disabled()), move |ep| {
                    let comm = Communicator::world(&ep);
                    if comm.rank() == late {
                        for src in (0..RANKS).filter(|&r| r != late) {
                            comm.recv(src, 7);
                        }
                    } else {
                        comm.send(late, 7, IoBuffer::synthetic(1));
                    }
                    comm.allgather_t_derive(0u64, 8, |_| -> usize {
                        panic!("derive exploded at the meeting point")
                    })
                })
            });
            let payload = run.expect_err("the closure's panic must end the run");
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                msg.contains("derive exploded at the meeting point"),
                "{order:?}, last arrival {late}: got {msg:?}"
            );
        }
    }
}
