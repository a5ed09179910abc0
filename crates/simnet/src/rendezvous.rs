//! Deterministic N-party meeting point.
//!
//! All collective operations in the `simmpi` layer are built on one
//! primitive: every participant deposits a value and its current virtual
//! clock; the **last** arrival runs a combiner exactly once over the inputs
//! (ordered by participant index) and the maximum clock; every participant
//! then observes the same result and the same completion timestamp.
//!
//! This yields virtual-time semantics that match how a blocking MPI
//! collective behaves — nobody leaves before the operation completes, and
//! the completion time is `max(entry clocks) + model cost` — while keeping
//! the outcome fully deterministic regardless of host thread scheduling.
//!
//! The meeting point is reusable (generation-counted), so one `Rendezvous`
//! serves every collective ever executed on a communicator.

use crate::fiber::{self, Waker};
use crate::time::SimTime;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Process-global id source for rendezvous instances, so the progress
/// registry can tell meeting points apart when downgrading waiters.
static RDV_ID: AtomicU64 = AtomicU64::new(0);

/// Shared flag that aborts all blocked substrate waits when any rank
/// panics, so a failing test reports the panic instead of deadlocking.
#[derive(Debug, Default)]
pub struct PoisonFlag(AtomicBool);

impl PoisonFlag {
    /// Mark the cluster as poisoned.
    pub fn poison(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// Panic (propagating the failure) if poisoned.
    pub fn check(&self) {
        if self.is_poisoned() {
            panic!("simnet cluster poisoned: another rank panicked");
        }
    }
}

type BoxedInput = Box<dyn Any + Send>;
type SharedResult = Arc<dyn Any + Send + Sync>;

/// Arrival attribution for one completed meeting: which participant the
/// others waited for, and when it showed up. Computed once by the last
/// arrival and observed identically by every participant, so it is as
/// deterministic as the meeting result itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeetInfo {
    /// Generation number of the meeting (0-based, per rendezvous).
    pub seq: u64,
    /// Participant index with the latest entry clock (lowest index wins
    /// ties) — the straggler every other participant waited for.
    pub straggler: usize,
    /// The straggler's entry clock == `max(entry clocks)`.
    pub last_arrival: SimTime,
}

#[derive(Default)]
struct State {
    generation: u64,
    arrived: usize,
    inputs: Vec<Option<BoxedInput>>,
    clocks: Vec<SimTime>,
    /// Participants' fibers parked in [`Rendezvous::wait`], by index.
    parked: Vec<Option<Waker>>,
    result: Option<(SharedResult, SimTime, MeetInfo)>,
    draining: usize,
}

impl State {
    fn wake_all(&mut self) {
        self.parked.iter_mut().for_each(fiber::wake);
    }
}

/// A reusable meeting point for a fixed set of `n` participants.
pub struct Rendezvous {
    n: usize,
    /// Process-unique id, reported to the progress registry.
    id: u64,
    /// Global ranks of the participants, when known. Cluster-created
    /// rendezvous always carry them so the progress registry sees parked
    /// waiters as blocked and the last arrival can downgrade them; `None`
    /// (unit-test constructor) leaves waiters unregistered, ordered by
    /// their own floor as if running, which is sound.
    participants: Option<Arc<[usize]>>,
    state: Mutex<State>,
    cv: Condvar,
    poison: Arc<PoisonFlag>,
}

impl std::fmt::Debug for Rendezvous {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rendezvous").field("n", &self.n).finish()
    }
}

impl Rendezvous {
    /// Create a meeting point for `n` participants sharing `poison`.
    pub fn new(n: usize, poison: Arc<PoisonFlag>) -> Self {
        Self::build(n, None, poison)
    }

    /// Create a meeting point for the given **global ranks** (callers
    /// number participants by their position in `ranks`). Cluster code
    /// must use this constructor: the membership lets the progress
    /// registry take a parked waiter out of its admission order until the
    /// meeting completes. The list is kept as the caller's `Arc`, so a
    /// communicator and its meeting point hold one member list between
    /// them.
    pub fn for_ranks(ranks: impl Into<Arc<[usize]>>, poison: Arc<PoisonFlag>) -> Self {
        let ranks: Arc<[usize]> = ranks.into();
        Self::build(ranks.len(), Some(ranks), poison)
    }

    fn build(n: usize, participants: Option<Arc<[usize]>>, poison: Arc<PoisonFlag>) -> Self {
        assert!(n > 0, "rendezvous needs at least one participant");
        Rendezvous {
            n,
            id: RDV_ID.fetch_add(1, Ordering::Relaxed),
            participants,
            state: Mutex::new(State {
                inputs: (0..n).map(|_| None).collect(),
                clocks: vec![SimTime::ZERO; n],
                parked: vec![None; n],
                ..State::default()
            }),
            cv: Condvar::new(),
            poison,
        }
    }

    /// Number of participants.
    pub fn parties(&self) -> usize {
        self.n
    }

    /// The participants' global ranks, in participant order (`None` from
    /// the unit-test constructor). The world communicator's member list is
    /// this `Arc`: rank `i` of the world is participant `i`.
    pub fn participants(&self) -> Option<&Arc<[usize]>> {
        self.participants.as_ref()
    }

    /// Participate in the current collective.
    ///
    /// * `idx` — this participant's index in `0..n`. Each index must be
    ///   presented exactly once per generation (guaranteed when every rank
    ///   executes the same collective sequence, as MPI requires).
    /// * `now` — the participant's virtual clock at entry.
    /// * `input` — this participant's contribution.
    /// * `combine` — run once by the last arrival; receives all inputs
    ///   (indexed by participant) and the latest entry clock, returns the
    ///   shared result and the common completion timestamp.
    ///
    /// Returns the shared result and the completion timestamp; the caller
    /// is responsible for advancing its clock to the timestamp.
    pub fn meet<T, R, F>(&self, idx: usize, now: SimTime, input: T, combine: F) -> (Arc<R>, SimTime)
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>, SimTime) -> (R, SimTime),
    {
        let (result, completion, _) = self.meet_info(idx, now, input, combine);
        (result, completion)
    }

    /// Like [`meet`](Self::meet), additionally returning the
    /// [`MeetInfo`] arrival attribution (straggler index, its entry
    /// clock, and the meeting's generation number).
    pub fn meet_info<T, R, F>(
        &self,
        idx: usize,
        now: SimTime,
        input: T,
        combine: F,
    ) -> (Arc<R>, SimTime, MeetInfo)
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>, SimTime) -> (R, SimTime),
    {
        assert!(idx < self.n, "participant {idx} out of {}", self.n);
        let mut st = self.state.lock();

        // Wait for the previous generation to fully drain before joining.
        let mut polls = 0u32;
        while st.result.is_some() {
            polls += u32::from(!self.wait(&mut st, idx));
            if polls == crate::progress::STALL_DEBUG_POLLS && crate::progress::stall_debug() {
                eprintln!(
                    "rendezvous drain stalled: id {} gen {} idx {idx} draining {}",
                    self.id, st.generation, st.draining
                );
            }
        }

        let gen = st.generation;
        assert!(
            st.inputs[idx].is_none(),
            "participant {idx} arrived twice in one collective"
        );
        st.inputs[idx] = Some(Box::new(input));
        st.clocks[idx] = now;
        st.arrived += 1;

        if st.arrived == self.n {
            let inputs: Vec<T> = st
                .inputs
                .iter_mut()
                .map(|slot| {
                    *slot
                        .take()
                        .expect("all inputs present at full arrival")
                        .downcast::<T>()
                        .expect("all participants use the same input type")
                })
                .collect();
            let straggler = st
                .clocks
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| a.partial_cmp(b).unwrap().then(ib.cmp(ia)))
                .map(|(i, _)| i)
                .expect("at least one participant");
            let max_clock = st.clocks[straggler];
            let info = MeetInfo {
                seq: gen,
                straggler,
                last_arrival: max_clock,
            };
            let (result, completion) = combine(inputs, max_clock);
            debug_assert!(
                completion >= max_clock,
                "collective completion {completion:?} precedes last arrival {max_clock:?}"
            );
            st.result = Some((Arc::new(result), completion, info));
            st.draining = self.n;
            // The meeting is complete: downgrade every parked waiter in
            // the progress registry before any of them can wake. Done
            // under the state lock so no gate check observes a waiter
            // still marked as parked in a finished meeting.
            if let Some(members) = &self.participants {
                crate::progress::tl_complete_rdv(self.id, members);
            }
            fiber::notify_all(&self.cv);
            st.wake_all();
        } else {
            // Register this rank as parked in the meeting (atomic with
            // the deposit, under the state lock): it holds no place in
            // the progress registry's order until the meeting completes.
            if self.participants.is_some() {
                crate::progress::tl_block_rdv(self.id);
            }
            let mut polls = 0u32;
            while st.generation == gen && st.result.is_none() {
                polls += u32::from(!self.wait(&mut st, idx));
                if polls == crate::progress::STALL_DEBUG_POLLS && crate::progress::stall_debug() {
                    eprintln!(
                        "rendezvous stalled: id {} gen {gen} idx {idx} arrived {}/{}",
                        self.id, st.arrived, self.n
                    );
                }
            }
            // Normally the last arrival already downgraded us;
            // self-clear covers meetings completed by threads without a
            // progress context.
            crate::progress::tl_unblock();
        }

        let (shared, completion, info) = st
            .result
            .clone()
            .expect("result present when a participant is released");
        st.draining -= 1;
        if st.draining == 0 {
            st.result = None;
            st.arrived = 0;
            st.generation += 1;
            fiber::notify_all(&self.cv);
            st.wake_all();
        }
        drop(st);

        let typed = shared
            .downcast::<R>()
            .expect("all participants use the same result type");
        (typed, completion, info)
    }

    /// Block participant `idx` until the next `notify_all` (`false`: an
    /// OS thread's poll timed out instead).
    fn wait(&self, st: &mut parking_lot::MutexGuard<'_, State>, idx: usize) -> bool {
        fiber::wait(&self.cv, st, |s| &mut s.parked[idx], &self.poison)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn rdv(n: usize) -> Arc<Rendezvous> {
        Arc::new(Rendezvous::new(n, Arc::new(PoisonFlag::default())))
    }

    #[test]
    fn all_participants_see_same_result_and_completion() {
        let r = rdv(4);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    r.meet(i, SimTime::secs(i as f64), i as u64, |inputs, max| {
                        (inputs.iter().sum::<u64>(), max + SimTime::secs(1.0))
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (sum, done) in &results {
            assert_eq!(**sum, 1 + 2 + 3);
            // max entry clock is 3s, +1s cost
            assert!((done.as_secs() - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn inputs_are_ordered_by_participant_index() {
        let r = rdv(3);
        let handles: Vec<_> = (0..3)
            .rev() // arrive in reverse order on purpose
            .map(|i| {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    let (v, _) = r.meet(i, SimTime::ZERO, format!("p{i}"), |inputs, max| {
                        (inputs.clone(), max)
                    });
                    v
                })
            })
            .collect();
        for h in handles {
            let v = h.join().unwrap();
            assert_eq!(*v, vec!["p0".to_string(), "p1".into(), "p2".into()]);
        }
    }

    #[test]
    fn reusable_across_generations() {
        let r = rdv(2);
        let mk = |i: usize, r: &Arc<Rendezvous>| {
            let r = Arc::clone(r);
            thread::spawn(move || {
                let mut outs = Vec::new();
                for round in 0..50u64 {
                    let (sum, _) =
                        r.meet(i, SimTime::ZERO, round + i as u64, |ins, max| {
                            (ins.iter().sum::<u64>(), max)
                        });
                    outs.push(*sum);
                }
                outs
            })
        };
        let a = mk(0, &r);
        let b = mk(1, &r);
        let oa = a.join().unwrap();
        let ob = b.join().unwrap();
        for round in 0..50u64 {
            assert_eq!(oa[round as usize], 2 * round + 1);
            assert_eq!(ob[round as usize], 2 * round + 1);
        }
    }

    #[test]
    fn single_party_rendezvous_is_immediate() {
        let r = rdv(1);
        let (v, done) = r.meet(0, SimTime::secs(5.0), 42u32, |ins, max| {
            (ins[0], max + SimTime::secs(0.5))
        });
        assert_eq!(*v, 42);
        assert!((done.as_secs() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn completion_uses_latest_clock() {
        let r = rdv(2);
        let r2 = Arc::clone(&r);
        let h = thread::spawn(move || r2.meet(1, SimTime::secs(10.0), (), |_, max| ((), max)));
        let (_, done0) = r.meet(0, SimTime::secs(1.0), (), |_, max| ((), max));
        let (_, done1) = h.join().unwrap();
        assert_eq!(done0, SimTime::secs(10.0));
        assert_eq!(done1, SimTime::secs(10.0));
    }

    #[test]
    fn meet_info_names_the_straggler() {
        let clocks = [1.0, 7.0, 3.0];
        let r = rdv(3);
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    r.meet_info(i, SimTime::secs(clocks[i]), (), |_, max| {
                        ((), max + SimTime::secs(1.0))
                    })
                })
            })
            .collect();
        for h in handles {
            let (_, done, info) = h.join().unwrap();
            assert_eq!(info.seq, 0);
            assert_eq!(info.straggler, 1);
            assert!((info.last_arrival.as_secs() - 7.0).abs() < 1e-12);
            assert!((done.as_secs() - 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn straggler_ties_break_to_lowest_index() {
        let r = rdv(4);
        let handles: Vec<_> = (0..4)
            .rev()
            .map(|i| {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    let (_, _, info) =
                        r.meet_info(i, SimTime::secs(2.0), (), |_, max| ((), max));
                    info
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().straggler, 0);
        }
    }

    #[test]
    fn meet_info_seq_counts_generations() {
        let r = rdv(1);
        for expect in 0..3 {
            let (_, _, info) = r.meet_info(0, SimTime::ZERO, (), |_, max| ((), max));
            assert_eq!(info.seq, expect);
        }
    }

    #[test]
    fn a_sleeping_participant_is_woken_by_the_last_arrival_not_the_poll() {
        // Rank 0 parks as a registry rank so that the test can see it
        // block: it registers under the state lock and keeps the lock
        // until it sleeps, and the last arrival takes that lock first.
        let poison = Arc::new(PoisonFlag::default());
        let registry = Arc::new(crate::progress::ProgressRegistry::new(
            2,
            Arc::clone(&poison),
        ));
        let r = Arc::new(Rendezvous::for_ranks(vec![0, 1], poison));
        let parked = {
            let (r, registry) = (Arc::clone(&r), Arc::clone(&registry));
            thread::spawn(move || {
                let _ctx = crate::progress::install(registry, 0);
                r.meet(0, SimTime::ZERO, (), |_, max| ((), max));
                std::time::Instant::now()
            })
        };
        while !registry.is_blocked(0) {
            thread::yield_now();
        }
        let arrived = std::time::Instant::now();
        r.meet(1, SimTime::ZERO, (), |_, max| ((), max));
        let woken = parked.join().unwrap();
        assert!(
            woken.duration_since(arrived) < fiber::POISON_POLL / 2,
            "woken {:?} after the last arrival: by the poll, not the notify",
            woken.duration_since(arrived)
        );
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn poison_unblocks_waiters() {
        let poison = Arc::new(PoisonFlag::default());
        let r = Arc::new(Rendezvous::new(2, Arc::clone(&poison)));
        let p = Arc::clone(&poison);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            p.poison();
        });
        // Second participant never arrives; the poison must release us.
        let _ = r.meet(0, SimTime::ZERO, (), |_, max| ((), max));
    }
}
