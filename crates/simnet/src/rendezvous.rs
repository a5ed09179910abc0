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
    /// Which participants have arrived in the current generation.
    present: Vec<bool>,
    /// The slot table of the current generation's input type, fixed by
    /// its first arrival.
    input: Option<usize>,
    /// One slot table per input type the meetings have used: a `Vec<T>`
    /// of one slot per participant, type-erased. It lives as long as the
    /// rendezvous, so a slot keeps what its last meeting left in it (a
    /// row's capacity, say) and an arrival allocates nothing.
    slots: Vec<Box<dyn Any>>,
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

    /// Where the slot table of input type `T` sits in `slots`, made (of
    /// `n` default slots) the first time `T` meets.
    fn table_of<T: Default + 'static>(&mut self, n: usize) -> usize {
        match self.slots.iter().position(|table| table.is::<Vec<T>>()) {
            Some(at) => at,
            None => {
                let table: Vec<T> = (0..n).map(|_| T::default()).collect();
                self.slots.push(Box::new(table));
                self.slots.len() - 1
            }
        }
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
                present: vec![false; n],
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
    /// * `input` — this participant's contribution, stored in its slot.
    /// * `combine` — run once by the last arrival; receives all slots
    ///   (indexed by participant) and the latest entry clock, returns the
    ///   shared result and the common completion timestamp.
    ///
    /// Returns the shared result and the completion timestamp; the caller
    /// is responsible for advancing its clock to the timestamp.
    pub fn meet<T, R, F>(&self, idx: usize, now: SimTime, input: T, combine: F) -> (Rc<R>, SimTime)
    where
        T: Default + 'static,
        R: 'static,
        F: FnOnce(&mut [T], SimTime) -> (R, SimTime),
    {
        let (result, completion, _) = self.meet_info(idx, now, |slot| *slot = input, combine);
        (result, completion)
    }

    /// Like [`meet`](Self::meet), with the input written in place and the
    /// [`MeetInfo`] arrival attribution (straggler index, its entry clock,
    /// and the meeting's generation number) returned too.
    ///
    /// `fill` writes this participant's contribution into its slot, which
    /// holds whatever the last meeting of input type `T` left there: a
    /// row is cleared and refilled in the capacity it already has, so a
    /// steady-state meeting allocates only the result it shares. `fill`
    /// runs on the meeting's state and must not meet. Slots keep what
    /// they hold until the next meeting of their type; a combiner that
    /// consumes an input takes it out (`T = Option<_>`).
    pub fn meet_info<T, R, F>(
        &self,
        idx: usize,
        now: SimTime,
        fill: impl FnOnce(&mut T),
        combine: F,
    ) -> (Rc<R>, SimTime, MeetInfo)
    where
        T: Default + 'static,
        R: 'static,
        F: FnOnce(&mut [T], SimTime) -> (R, SimTime),
    {
        assert!(idx < self.n, "participant {idx} out of {}", self.n);
        // Wait for the previous generation to fully drain before joining.
        self.wait_while(idx, |st| st.result.is_some());

        let mut st = self.state.borrow_mut();
        let gen = st.generation;
        assert!(
            !st.present[idx],
            "participant {idx} arrived twice in one collective"
        );
        let at = st.table_of::<T>(self.n);
        assert!(
            *st.input.get_or_insert(at) == at,
            "all participants use the same input type"
        );
        let table = st.slots[at].downcast_mut::<Vec<T>>();
        fill(&mut table.expect("slot tables are keyed by type")[idx]);
        st.present[idx] = true;
        st.clocks[idx] = now;
        st.arrived += 1;

        if st.arrived < self.n {
            drop(st);
            // Parked until the meeting completes, holding no key in the
            // run queue.
            self.wait_while(idx, |st| st.generation == gen && st.result.is_none());
        } else {
            st.present.fill(false);
            st.input = None;
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
            // The combiner is the caller's code: it runs on no borrow,
            // over the slot table lent out of the state (a zero-sized
            // stand-in holds its place).
            let mut lent = std::mem::replace(&mut st.slots[at], Box::new(()));
            drop(st);
            let inputs = lent
                .downcast_mut::<Vec<T>>()
                .expect("slot tables are keyed by type");
            let (result, completion) = combine_out_of_line(combine, inputs, max_clock);
            debug_assert!(
                completion >= max_clock,
                "collective completion {completion:?} precedes last arrival {max_clock:?}"
            );
            let mut st = self.state.borrow_mut();
            st.slots[at] = lent;
            st.result = Some((Rc::new(result), completion, info));
            st.draining = self.n;
            // The meeting is complete: every parked participant is
            // runnable again, at the back of the run queue's FIFO.
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

/// Run a meeting's combiner in a frame of its own. Every participant
/// waits in [`Rendezvous::meet_info`]'s frame on its fiber stack, and
/// only the last arrival combines: inlined, a combiner's locals would
/// sit in every participant's frame.
#[inline(never)]
fn combine_out_of_line<T, R>(
    combine: impl FnOnce(&mut [T], SimTime) -> (R, SimTime),
    inputs: &mut [T],
    max_clock: SimTime,
) -> (R, SimTime) {
    combine(inputs, max_clock)
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
                    (inputs.to_vec(), max)
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

    /// Meetings of different input types interleave on one rendezvous,
    /// in any pop order: each type keeps its own slots, and a row slot
    /// comes back to its participant holding the last row it sent, to be
    /// refilled in place.
    #[test]
    fn input_types_alternate_across_generations() {
        for order in [
            PopOrder::Fixed,
            PopOrder::Shuffled(3),
            PopOrder::Shuffled(11),
        ] {
            let r = rdv(3);
            let outs = on_fibers_in(order, 3, |i| {
                let mut kept = 0;
                for round in 0..12u64 {
                    let me = round + i as u64;
                    match round % 3 {
                        0 => {
                            let (sum, _) = r.meet(i, SimTime::ZERO, me, |ins, max| {
                                (ins.iter().sum::<u64>(), max)
                            });
                            assert_eq!(*sum, 3 * round + 3);
                        }
                        1 => {
                            let fill = |row: &mut Vec<u64>| {
                                let sent_before =
                                    row.len() == 2 && row.iter().all(|&v| v + 3 == me);
                                kept += usize::from(sent_before);
                                row.clear();
                                row.extend([me, me]);
                            };
                            let (rows, _, _) =
                                r.meet_info(i, SimTime::ZERO, fill, |ins, max| (ins.concat(), max));
                            let want: Vec<u64> = (0..3).flat_map(|j| [round + j; 2]).collect();
                            assert_eq!(*rows, want);
                        }
                        _ => drop(r.meet(i, SimTime::ZERO, (), |_, max| ((), max))),
                    }
                }
                kept
            });
            // Rounds 4, 7 and 10 find the row their participant sent
            // three rounds before.
            assert_eq!(outs, [3; 3], "{order:?}");
        }
    }

    /// The panic message of `f` running on a fiber, after which the
    /// rendezvous is poisoned so the other participants unblock.
    fn panic_of(poison: &PoisonFlag, f: impl FnOnce()) -> String {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        poison.poison();
        let payload = caught.expect_err("the meeting panics");
        let text = payload.downcast_ref::<String>().map(String::as_str);
        text.or(payload.downcast_ref::<&str>().copied())
            .unwrap_or_default()
            .to_string()
    }

    #[test]
    fn arriving_twice_panics() {
        let poison = Rc::new(PoisonFlag::default());
        let r = Rendezvous::new(2, Rc::clone(&poison));
        // Both fibers claim participant 0: the second arrival panics,
        // and the first, parked, is released by the poison.
        let msgs = on_fibers(2, |_| {
            panic_of(&poison, || {
                drop(r.meet(0, SimTime::ZERO, 7u64, |_, max| ((), max)))
            })
        });
        assert!(msgs[0].contains("poisoned"), "{msgs:?}");
        assert!(msgs[1].contains("arrived twice"), "{msgs:?}");
    }

    #[test]
    fn mixed_input_types_panic() {
        let poison = Rc::new(PoisonFlag::default());
        let r = Rendezvous::new(2, Rc::clone(&poison));
        let msgs = on_fibers(2, |i| {
            panic_of(&poison, || match i {
                0 => drop(r.meet(0, SimTime::ZERO, 7u64, |_, max| ((), max))),
                _ => drop(r.meet(1, SimTime::ZERO, (), |_, max| ((), max))),
            })
        });
        assert!(msgs[0].contains("poisoned"), "{msgs:?}");
        assert!(msgs[1].contains("same input type"), "{msgs:?}");
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
            r.meet_info(
                i,
                SimTime::secs(clocks[i]),
                |_: &mut ()| (),
                |_, max| ((), max + SimTime::secs(1.0)),
            )
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
            r.meet_info(i, SimTime::secs(2.0), |_: &mut ()| (), |_, max| ((), max))
                .2
        });
        assert!(infos.iter().all(|info| info.straggler == 0));
    }

    #[test]
    fn meet_info_seq_counts_generations() {
        let r = rdv(1);
        for expect in 0..3 {
            let (_, _, info) = r.meet_info(0, SimTime::ZERO, |_: &mut ()| (), |_, max| ((), max));
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
