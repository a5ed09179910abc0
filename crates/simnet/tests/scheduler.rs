//! The fiber scheduler from the outside: blocked ranks are parked, not
//! polled; a deadlock is diagnosed the moment nothing is runnable; a
//! rank panic unwinds every parked rank; and none of it shows in
//! virtual time — the admission order of a nested-communicator run is
//! the same whichever runnable fiber the scheduler resumes first.
//!
//! The pop order and the host profiler are process-global, so every
//! test here serializes on one lock and restores the defaults.

use simnet::rendezvous::PoisonFlag;
use simnet::{
    admit, run_cluster, ClusterConfig, Endpoint, IoBuffer, PopOrder, Rendezvous, SimTime,
};
use simtrace::host;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};

struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>, PopOrder);

fn serial() -> Serial {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    Serial(guard, simnet::pop_order())
}

impl Drop for Serial {
    fn drop(&mut self) {
        host::set_enabled(false);
        simnet::set_pop_order(self.1);
    }
}

/// Run `f` with the host profiler armed; return its panic message (if
/// any) and the number of fiber slices (resumes) the run took.
fn profiled(f: impl FnOnce()) -> (Option<String>, u64) {
    host::reset();
    host::set_enabled(true);
    let outcome = catch_unwind(AssertUnwindSafe(f));
    host::set_enabled(false);
    let slices = host::collect().samples(host::Site::FiberRun);
    let message = outcome.err().map(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    });
    (message, slices)
}

#[test]
fn receive_cycle_is_diagnosed_at_once() {
    let _serial = serial();
    simnet::set_pop_order(PopOrder::Fixed);
    const N: usize = 8;
    // Every rank receives from its neighbour and nobody sends.
    let (message, slices) = profiled(|| {
        run_cluster(ClusterConfig::ideal(N), |ep| {
            let _ = ep.recv((ep.rank() + 1) % N, 0, 9);
        });
    });
    let message = message.expect("a deadlocked cluster must panic, not return");
    assert!(
        message.contains("simnet cluster poisoned"),
        "unexpected panic text {message:?}"
    );
    // One slice to reach the receive, one to observe the poison. The
    // cycle-counting detector needed 1 000 idle scheduler cycles —
    // 1 000 resumes of every rank — to say the same.
    assert!(
        slices <= 4 * N as u64,
        "{slices} fiber slices to diagnose an {N}-rank deadlock"
    );
}

#[test]
fn a_rank_panic_unwinds_ranks_parked_at_every_wait_site() {
    let _serial = serial();
    for order in [PopOrder::Fixed, PopOrder::Shuffled(1)] {
        simnet::set_pop_order(order);
        let sub: OnceCell<Rendezvous> = OnceCell::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_cluster(ClusterConfig::ideal(8), |ep: Endpoint| {
                let me = ep.rank();
                if me != 2 {
                    ep.send(2, 0, 1, IoBuffer::empty());
                }
                match me {
                    // Mailbox: a two-rank receive cycle.
                    0 | 1 => drop(ep.recv(1 - me, 0, 99)),
                    // Rank 2 waits until everyone is about to block.
                    2 => {
                        for src in (0..8).filter(|&s| s != 2) {
                            let _ = ep.recv(src, 0, 1);
                        }
                        panic!("rank 2 exploded");
                    }
                    // Rendezvous: a meeting rank 2 never joins.
                    3 | 4 => {
                        let rdv =
                            sub.get_or_init(|| Rendezvous::for_ranks(vec![2, 3, 4], ep.poison()));
                        let _ = rdv.meet(me - 2, ep.now(), (), |_, max| ((), max));
                    }
                    // Admission gate: ranks 0 and 1 could still ask first.
                    _ => admit(SimTime::secs(1.0)),
                }
            });
        }));
        let payload = outcome.expect_err("the cluster must re-raise the rank's panic");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("rank 2 exploded"),
            "{order:?}: primary payload lost"
        );
    }
}

/// World barrier + two subgroup collectives + gate traffic from every
/// rank; returns the order in which the gate admitted the requests.
fn nested_communicator_run() -> Vec<(usize, u32)> {
    const N: usize = 12;
    let log = RefCell::new(Vec::new());
    let poison = Rc::new(PoisonFlag::default());
    let halves: Vec<Rendezvous> = [0..N / 2, N / 2..N]
        .into_iter()
        .map(|ranks| Rendezvous::for_ranks(ranks.collect::<Vec<_>>(), Rc::clone(&poison)))
        .collect();
    run_cluster(ClusterConfig::ideal(N), |ep| {
        let me = ep.rank();
        let request = |step: u32| {
            admit(ep.now());
            log.borrow_mut().push((me, step));
        };
        let meet = |rdv: &Rendezvous, idx: usize| {
            let (_, done) = rdv.meet(idx, ep.now(), (), |_, max| ((), max + SimTime::micros(3.0)));
            ep.clock().advance_to(done);
        };
        for step in 0..3 {
            // Rank-dependent skew, then a request; after a meeting all
            // members share one clock, so the next requests tie on
            // arrival and only the rank breaks the tie.
            ep.clock().advance(SimTime::micros(
                10.0 * ((me * 7 + step as usize) % 5 + 1) as f64,
            ));
            request(3 * step);
            meet(&halves[me / (N / 2)], me % (N / 2));
            request(3 * step + 1);
            request(3 * step + 2);
            meet(&ep.world_rendezvous(), me);
        }
    });
    log.into_inner()
}

#[test]
fn admission_order_is_the_same_in_every_pop_order() {
    let _serial = serial();
    simnet::set_pop_order(PopOrder::Fixed);
    let order = nested_communicator_run();
    assert_eq!(order.len(), 12 * 9);
    for seed in 1..=8 {
        simnet::set_pop_order(PopOrder::Shuffled(seed));
        assert_eq!(nested_communicator_run(), order, "pop order seed {seed}");
    }
}

#[test]
fn a_request_below_every_queued_key_takes_no_switch() {
    // A rank alone in its cluster, or the last one running, is always
    // the minimum: its requests are admitted without leaving its fiber.
    let _serial = serial();
    simnet::set_pop_order(PopOrder::Fixed);
    let (message, slices) = profiled(|| {
        run_cluster(ClusterConfig::ideal(1), |ep| {
            for i in 0..1000 {
                admit(ep.now() + SimTime::micros(i as f64));
            }
        });
    });
    assert_eq!((message, slices), (None, 1));
    let (message, slices) = profiled(|| {
        run_cluster(ClusterConfig::ideal(4), |ep| {
            // Ranks 0..3 finish at once; rank 3 then requests alone.
            if ep.rank() == 3 {
                for i in 0..1000 {
                    admit(SimTime::micros(i as f64));
                }
            }
        });
    });
    assert_eq!((message, slices), (None, 4));
}
