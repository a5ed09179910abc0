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
//! the outcome fully deterministic whichever order the scheduler resumes
//! the participants in.
//!
//! The meeting point is reusable (generation-counted), so one `Rendezvous`
//! serves every collective ever executed on a communicator. Its state is
//! a `RefCell`: all participants are fibers on one thread, and no borrow
//! is held across a wait or across the combiner.

use crate::fiber::{self, Waker};
use crate::time::SimTime;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Shared flag that aborts all blocked substrate waits when any rank
/// panics, so a failing test reports the panic instead of deadlocking.
#[derive(Debug, Default)]
pub struct PoisonFlag(Cell<bool>);

impl PoisonFlag {
    /// Mark the cluster as poisoned.
    pub fn poison(&self) {
        self.0.set(true);
    }

    /// True once poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.0.get()
    }

    /// Panic (propagating the failure) if poisoned.
    pub fn check(&self) {
        if self.is_poisoned() {
            panic!("simnet cluster poisoned: another rank panicked");
        }
    }
}

type BoxedInput = Box<dyn Any>;
type SharedResult = Rc<dyn Any>;

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
    /// Global ranks of the participants, when known (a communicator's
    /// member list); `None` from the unit-test constructor.
    participants: Option<Rc<[usize]>>,
    state: RefCell<State>,
    poison: Rc<PoisonFlag>,
}

impl std::fmt::Debug for Rendezvous {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rendezvous").field("n", &self.n).finish()
    }
}

impl Rendezvous {
    /// Create a meeting point for `n` participants sharing `poison`.
    pub fn new(n: usize, poison: Rc<PoisonFlag>) -> Self {
        Self::build(n, None, poison)
    }

    /// Create a meeting point for the given **global ranks** (callers
    /// number participants by their position in `ranks`). The list is
    /// kept as the caller's `Rc`, so a communicator and its meeting
    /// point hold one member list between them.
    pub fn for_ranks(ranks: impl Into<Rc<[usize]>>, poison: Rc<PoisonFlag>) -> Self {
        let ranks: Rc<[usize]> = ranks.into();
        Self::build(ranks.len(), Some(ranks), poison)
    }

    fn build(n: usize, participants: Option<Rc<[usize]>>, poison: Rc<PoisonFlag>) -> Self {
        assert!(n > 0, "rendezvous needs at least one participant");
        Rendezvous {
            n,
            participants,
            state: RefCell::new(State {
                inputs: (0..n).map(|_| None).collect(),
                clocks: vec![SimTime::ZERO; n],
                parked: vec![None; n],
                ..State::default()
            }),
            poison,
        }
    }

    /// Number of participants.
    pub fn parties(&self) -> usize {
        self.n
    }

    /// The participants' global ranks, in participant order (`None` from
    /// the unit-test constructor). The world communicator's member list is
    /// this `Rc`: rank `i` of the world is participant `i`.
    pub fn participants(&self) -> Option<&Rc<[usize]>> {
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
    pub fn meet<T, R, F>(&self, idx: usize, now: SimTime, input: T, combine: F) -> (Rc<R>, SimTime)
    where
        T: 'static,
        R: 'static,
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
    ) -> (Rc<R>, SimTime, MeetInfo)
    where
        T: 'static,
        R: 'static,
        F: FnOnce(Vec<T>, SimTime) -> (R, SimTime),
    {
        assert!(idx < self.n, "participant {idx} out of {}", self.n);
        // Wait for the previous generation to fully drain before joining.
        self.wait_while(idx, |st| st.result.is_some());

        let mut st = self.state.borrow_mut();
        let gen = st.generation;
        assert!(
            st.inputs[idx].is_none(),
            "participant {idx} arrived twice in one collective"
        );
        st.inputs[idx] = Some(Box::new(input));
        st.clocks[idx] = now;
        st.arrived += 1;

        if st.arrived < self.n {
            drop(st);
            // Parked until the meeting completes, holding no key in the
            // run queue.
            self.wait_while(idx, |st| st.generation == gen && st.result.is_none());
        } else {
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
            // The combiner is the caller's code: it runs on no borrow.
            drop(st);
            let (result, completion) = combine(inputs, max_clock);
            debug_assert!(
                completion >= max_clock,
                "collective completion {completion:?} precedes last arrival {max_clock:?}"
            );
            let mut st = self.state.borrow_mut();
            st.result = Some((Rc::new(result), completion, info));
            st.draining = self.n;
            // The meeting is complete: every parked participant is
            // runnable again, queued at its floor.
            st.wake_all();
        }

        let mut st = self.state.borrow_mut();
        let (shared, completion, info) = st
            .result
            .clone()
            .expect("result present when a participant is released");
        st.draining -= 1;
        if st.draining == 0 {
            st.result = None;
            st.arrived = 0;
            st.generation += 1;
            st.wake_all();
        }
        drop(st);

        let typed = shared
            .downcast::<R>()
            .expect("all participants use the same result type");
        (typed, completion, info)
    }

    /// Block participant `idx` while `cond` holds of the meeting's state.
    fn wait_while(&self, idx: usize, cond: impl Fn(&State) -> bool) {
        while cond(&self.state.borrow()) {
            fiber::wait(&self.state, |s| &mut s.parked[idx], &self.poison);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fiber::{on_fibers, on_fibers_in};
    use crate::progress::PopOrder;

    fn rdv(n: usize) -> Rendezvous {
        Rendezvous::new(n, Rc::new(PoisonFlag::default()))
    }

    #[test]
    fn all_participants_see_same_result_and_completion() {
        let r = rdv(4);
        let results = on_fibers(4, |i| {
            r.meet(i, SimTime::secs(i as f64), i as u64, |inputs, max| {
                (inputs.iter().sum::<u64>(), max + SimTime::secs(1.0))
            })
        });
        for (sum, done) in &results {
            assert_eq!(**sum, 1 + 2 + 3);
            // max entry clock is 3s, +1s cost
            assert!((done.as_secs() - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn inputs_are_ordered_by_participant_index() {
        // Whichever participant the host lets arrive last.
        for order in [PopOrder::Fixed, PopOrder::Shuffled(5), PopOrder::Shuffled(6)] {
            let r = rdv(3);
            let got = on_fibers_in(order, 3, |i| {
                let (v, _) = r.meet(i, SimTime::ZERO, format!("p{i}"), |inputs, max| {
                    (inputs.clone(), max)
                });
                v
            });
            for v in got {
                assert_eq!(*v, vec!["p0".to_string(), "p1".into(), "p2".into()]);
            }
        }
    }

    #[test]
    fn reusable_across_generations() {
        // A participant that enters the next generation before the
        // last one drained waits for it, in any pop order.
        for order in [PopOrder::Fixed, PopOrder::Shuffled(9)] {
            let r = rdv(2);
            let outs = on_fibers_in(order, 2, |i| {
                (0..50u64)
                    .map(|round| {
                        let (sum, _) = r.meet(i, SimTime::ZERO, round + i as u64, |ins, max| {
                            (ins.iter().sum::<u64>(), max)
                        });
                        *sum
                    })
                    .collect::<Vec<_>>()
            });
            for out in outs {
                assert_eq!(
                    out,
                    (0..50u64).map(|round| 2 * round + 1).collect::<Vec<_>>()
                );
            }
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
        let clocks = [1.0, 10.0];
        let done = on_fibers(2, |i| {
            r.meet(i, SimTime::secs(clocks[i]), (), |_, max| ((), max))
                .1
        });
        assert_eq!(done, [SimTime::secs(10.0); 2]);
    }

    #[test]
    fn meet_info_names_the_straggler() {
        let clocks = [1.0, 7.0, 3.0];
        let r = rdv(3);
        let infos = on_fibers(3, |i| {
            r.meet_info(i, SimTime::secs(clocks[i]), (), |_, max| {
                ((), max + SimTime::secs(1.0))
            })
        });
        for (_, done, info) in infos {
            assert_eq!(info.seq, 0);
            assert_eq!(info.straggler, 1);
            assert!((info.last_arrival.as_secs() - 7.0).abs() < 1e-12);
            assert!((done.as_secs() - 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn straggler_ties_break_to_lowest_index() {
        let r = rdv(4);
        let infos = on_fibers_in(PopOrder::Shuffled(4), 4, |i| {
            r.meet_info(i, SimTime::secs(2.0), (), |_, max| ((), max)).2
        });
        assert!(infos.iter().all(|info| info.straggler == 0));
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
    #[should_panic(expected = "poisoned")]
    fn poison_unblocks_waiters() {
        // The second participant never arrives: it poisons the cluster
        // and finishes instead, and the parked first one must panic out
        // of its wait rather than hang.
        let poison = Rc::new(PoisonFlag::default());
        let r = Rendezvous::new(2, Rc::clone(&poison));
        on_fibers(2, |i| match i {
            0 => drop(r.meet(0, SimTime::ZERO, (), |_, max| ((), max))),
            _ => poison.poison(),
        });
    }
}
