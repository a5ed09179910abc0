//! The fiber executor's run queue, which is also the admission gate of
//! shared virtual-time resources.
//!
//! Virtual arrival times in this simulator are deterministic, but a
//! shared *stateful* resource (an OST's serial queue and its seeded
//! jitter draws) must also be entered in a deterministic order: two
//! requests with different virtual arrivals that mutated it in either
//! order would permute queue depths and completion times from run to
//! run. A resource therefore calls [`admit`] before it mutates its
//! state, and admission waits (in host time only: no virtual time is
//! charged) until the request's key `(virtual arrival, rank)` is provably
//! the smallest the cluster can still produce. The admission order, and
//! every queue-dependent quantity with it, is then a pure function of
//! virtual time.
//!
//! # Two containers
//!
//! Every rank of a cluster is a fiber on one thread ([`crate::fiber`]).
//! The scheduler's run queue holds a runnable fiber in one of two
//! places:
//!
//! - a fiber made runnable (a delivery, a completed meeting) joins a
//!   FIFO;
//! - a fiber that requests an arrival joins a binary heap under its
//!   request's key `(arrival, rank)`.
//!
//! The queue resumes the FIFO's oldest fiber while there is one: a
//! receiver then finds every message its senders had time to post. Only
//! when the FIFO is empty does it take the heap's minimum, and resuming
//! that fiber is its request's admission. A request is admitted on the
//! spot, without leaving its fiber, when the FIFO is empty and its key
//! lies below the heap's minimum. A fiber blocked in a receive or a
//! meeting is in neither container, and neither is a finished one.
//!
//! # Why the minimum is enough
//!
//! Let the FIFO be empty and a request's key lie below every key in the
//! heap, and the program not be deadlocked. Every other rank is then
//! pending in the heap, blocked or finished: none is runnable. Follow a
//! blocked rank's chain: a receiver to its sender, a parked rank to a
//! member of its meeting still on its way (a meeting always has one: the
//! last arrival completes it instead of parking). The chain ends at a
//! pending rank, whose key is above the request's, whose later requests
//! arrive no earlier than this one and whose wake of the chain is
//! strictly later (every wake crosses a service, a message flight or a
//! collective); at the requester itself, which moves only after this
//! request is served; or at a finished rank, which wakes nobody. So no
//! rank can later request below the key.
//!
//! Two waits are not in that list, and neither breaks the argument. A
//! fiber woken by a delivery on another key than the one it waits for
//! joins the FIFO like any fiber made runnable: that only delays
//! admissions. A rank that enters a meeting again before its previous
//! generation has drained waits on members that the completion made
//! runnable, and no request is admitted while they are.
//!
//! The gate admits in global key order, so the admissions, and every
//! virtual time that follows from them, are those of any other sound
//! gate that admits in that order: holding requests back until nothing
//! is runnable changes host order only.
//!
//! # What it costs
//!
//! A wake is a push onto the FIFO and a resume a pop from its front,
//! `O(1)` each; a request that is not admitted on the spot is a push
//! onto the heap and, at its admission, a pop, `O(log pending)` levels
//! each. The `runq_steps` host counter counts queue operations (pushes
//! and pops), `runq_admits` the heap's pops. Nothing is woken when a
//! fiber blocks, finishes or is made runnable: a requester is resumed
//! once, when it is admitted.
//!
//! # The host-order oracle
//!
//! [`set_pop_order`]`(PopOrder::Shuffled(seed))` makes the queue resume
//! a queued fiber drawn at random from both containers instead. A
//! requester resumed that way checks its key against the queue again,
//! and queues itself anew until the FIFO is empty and it is the minimum,
//! so admission follows the same rule under any host order. Virtual
//! times, traces and file images must not depend on the pop order; the
//! determinism tests compare them bit for bit across seeds.
//!
//! Code outside a fiber (a unit test driving an `Ost` directly) is not
//! gated: [`admit`] returns at once.

use crate::noise::SplitMix64;
use crate::time::SimTime;
use simtrace::host::{self, Counter};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// How the run queue picks the next runnable fiber to resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopOrder {
    /// The fiber made runnable longest ago, else the pending request
    /// with the minimum key: the order every run uses by default.
    Fixed,
    /// A queued fiber drawn by a generator seeded with this value,
    /// requests still admitted only as the minimum with nothing else
    /// runnable: the host-order oracle (module doc).
    Shuffled(u64),
}

thread_local! {
    static POP_ORDER: Cell<PopOrder> = const { Cell::new(PopOrder::Fixed) };
}

/// Select the pop order of the calling thread's subsequent
/// [`crate::run_cluster`] calls; other threads keep theirs.
pub fn set_pop_order(order: PopOrder) {
    POP_ORDER.set(order);
}

/// The pop order [`crate::run_cluster`] uses on the calling thread.
pub fn pop_order() -> PopOrder {
    POP_ORDER.get()
}

/// `(time, rank)` as one integer that orders like the pair: the time's
/// bits in the high half, mapped so that integer order is
/// `f64::total_cmp` order, the rank in the low half.
pub(crate) fn key(time: SimTime, rank: usize) -> u128 {
    let bits = time.0.to_bits();
    // A positive time gains the sign bit, a negative one flips them all.
    let ordered = bits ^ ((bits as i64 >> 63) as u64 | (1 << 63));
    (u128::from(ordered) << 64) | rank as u128
}

/// The rank a [`key`] belongs to.
fn rank_of(key: u128) -> usize {
    key as u64 as usize
}

/// The runnable fibers of one scheduler loop: those made runnable in
/// the order they were, the pending requests by key.
#[derive(Default)]
pub(crate) struct RunQueue {
    /// The fibers made runnable, oldest first.
    woken: VecDeque<u32>,
    /// The pending requests' keys.
    requests: BinaryHeap<Reverse<u128>>,
    /// Set under [`PopOrder::Shuffled`].
    shuffle: Option<SplitMix64>,
    /// Pushes and pops not yet added to the `runq_steps` host counter.
    steps: u64,
    /// Heap pops not yet added to the `runq_admits` host counter.
    admits: u64,
}

impl RunQueue {
    /// A queue of `n` fibers none of which is queued.
    fn new(n: usize, order: PopOrder) -> Self {
        RunQueue {
            woken: VecDeque::with_capacity(n),
            requests: BinaryHeap::with_capacity(n),
            shuffle: match order {
                PopOrder::Fixed => None,
                PopOrder::Shuffled(seed) => Some(SplitMix64::new(seed)),
            },
            steps: 0,
            admits: 0,
        }
    }

    /// Whether fiber `rank` is queued: a linear scan, for debug checks.
    fn queued(&self, rank: usize) -> bool {
        self.woken.contains(&(rank as u32)) || self.requests.iter().any(|k| rank_of(k.0) == rank)
    }

    /// Queue fiber `rank`, just made runnable.
    fn wake(&mut self, rank: usize) {
        debug_assert!(!self.queued(rank), "fiber {rank} queued twice");
        self.woken.push_back(rank as u32);
        self.steps += 1;
    }

    /// Queue a requester under its request's `key`.
    fn request(&mut self, key: u128) {
        debug_assert!(
            !self.queued(rank_of(key)),
            "fiber {} queued twice",
            rank_of(key)
        );
        self.requests.push(Reverse(key));
        self.steps += 1;
    }

    /// The next fiber to resume: the one made runnable longest ago, else
    /// the pending request with the minimum key — that is its admission.
    /// Under a shuffled order, any queued fiber.
    fn pop(&mut self) -> Option<usize> {
        let rank = match &mut self.shuffle {
            None => match self.woken.pop_front() {
                Some(rank) => rank as usize,
                None => {
                    let Reverse(min) = self.requests.pop()?;
                    self.admits += 1;
                    rank_of(min)
                }
            },
            Some(rng) => {
                let n = self.woken.len() + self.requests.len();
                let i = rng.next_u64().checked_rem(n as u64)? as usize;
                match i.checked_sub(self.woken.len()) {
                    None => self.woken.remove(i).expect("a drawn fiber") as usize,
                    Some(i) => {
                        let Reverse(drawn) = *self.requests.iter().nth(i).expect("a drawn request");
                        self.requests.retain(|&Reverse(k)| k != drawn);
                        self.admits += 1;
                        rank_of(drawn)
                    }
                }
            }
        };
        self.steps += 1;
        Some(rank)
    }

    /// True when nothing is runnable and `key` lies below every pending
    /// request's.
    fn admits(&self, key: u128) -> bool {
        self.woken.is_empty() && self.requests.peek().is_none_or(|&Reverse(min)| key < min)
    }
}

thread_local! {
    /// The run queue of the scheduler loop running on this thread.
    static QUEUE: RefCell<RunQueue> = RefCell::default();
}

/// Run `f` on this thread's run queue, then publish its counts.
fn with_queue<T>(f: impl FnOnce(&mut RunQueue) -> T) -> T {
    QUEUE.with(|q| {
        let mut q = q.borrow_mut();
        let out = f(&mut q);
        host::count(Counter::RunqSteps, std::mem::take(&mut q.steps));
        host::count(Counter::RunqAdmits, std::mem::take(&mut q.admits));
        out
    })
}

/// Install the run queue of a scheduler loop over `n` fibers, all
/// runnable, popped in `order`.
pub(crate) fn start(n: usize, order: PopOrder) {
    with_queue(|q| {
        *q = RunQueue::new(n, order);
        (0..n).for_each(|r| q.wake(r));
    });
}

/// Queue fiber `rank`, just made runnable.
pub(crate) fn wake(rank: usize) {
    with_queue(|q| q.wake(rank));
}

/// The next fiber to resume, if any is runnable.
pub(crate) fn pop() -> Option<usize> {
    with_queue(RunQueue::pop)
}

/// The current fiber's global rank, if it runs inside a cluster.
pub fn current_rank() -> Option<usize> {
    crate::fiber::current()
}

/// Gate a shared-resource mutation whose request arrives at virtual time
/// `arrival`: return (host time) once no rank can still request below
/// `(arrival, rank)`. The caller completes its mutation before it next
/// blocks, which is before any other rank runs.
pub fn admit(arrival: SimTime) {
    let Some(rank) = crate::fiber::current() else {
        return;
    };
    let key = key(arrival, rank);
    // Resumed as the minimum this passes at once; under a shuffled pop
    // order the fiber may be resumed early, and queues itself again.
    loop {
        let queued = with_queue(|q| {
            let queue = !q.admits(key) && !early();
            if queue {
                q.request(key);
            }
            queue
        });
        if !queued {
            return;
        }
        crate::fiber::yield_queued();
    }
}

#[cfg(not(test))]
fn early() -> bool {
    false
}

#[cfg(test)]
thread_local! {
    /// Refused requests still to admit anyway: the planted mutation the
    /// oracle test must catch.
    static EARLY: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// The planted mutation: admit a request the gate refuses.
#[cfg(test)]
fn early() -> bool {
    EARLY.with(|e| {
        let left = e.get();
        e.set(left.saturating_sub(1));
        left > 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::IoBuffer;
    use crate::fiber::on_fibers_in;
    use crate::rendezvous::{PoisonFlag, Rendezvous};
    use crate::runtime::{run_cluster, ClusterConfig};
    use std::collections::HashMap;
    use std::rc::Rc;

    #[test]
    fn outside_a_fiber_admission_is_immediate() {
        admit(SimTime::secs(5.0));
        admit(SimTime::ZERO);
    }

    /// The order in which `arrivals[r]`, requested by fiber `r` right at
    /// its start, are admitted when fibers are popped in `pops`.
    fn admission_order(pops: PopOrder, arrivals: &[f64]) -> Vec<usize> {
        let order = RefCell::new(Vec::new());
        on_fibers_in(pops, arrivals.len(), |r| {
            admit(SimTime::secs(arrivals[r]));
            order.borrow_mut().push(r);
        });
        order.into_inner()
    }

    #[test]
    fn requests_are_admitted_in_key_order_whatever_the_pop_order() {
        for pops in [
            PopOrder::Fixed,
            PopOrder::Shuffled(7),
            PopOrder::Shuffled(8),
        ] {
            assert_eq!(
                admission_order(pops, &[3.0, 1.0, 2.0]),
                [1, 2, 0],
                "{pops:?}"
            );
            // Equal arrivals: the rank breaks the tie.
            assert_eq!(
                admission_order(pops, &[1.0, 1.0, 0.5]),
                [2, 0, 1],
                "{pops:?}"
            );
        }
    }

    #[test]
    fn a_runnable_rank_below_the_request_goes_first() {
        // Rank 0 asks for t=5 while rank 1, runnable at floor 0, could
        // still ask for less: rank 0 waits until rank 1 is done.
        let log = RefCell::new(Vec::new());
        on_fibers_in(PopOrder::Fixed, 2, |r| {
            if r == 0 {
                admit(SimTime::secs(5.0));
            }
            log.borrow_mut().push(r);
        });
        assert_eq!(log.into_inner(), [1, 0]);
    }

    #[test]
    fn ranks_blocked_on_the_requester_do_not_hold_it_back() {
        // Rank 1 receives from rank 0 and ranks 1..3 then park in a
        // meeting with it; rank 0 requests far in the future before it
        // sends. Neither wait holds a key, so the request goes at once.
        run_cluster(ClusterConfig::ideal(4), |ep| {
            let me = ep.rank();
            if me == 1 {
                let _ = ep.recv(0, 0, 7);
            }
            if me == 0 {
                admit(SimTime::secs(10.0));
                ep.send(1, 0, 7, IoBuffer::empty());
            }
            let rdv = ep.world_rendezvous();
            let _ = rdv.meet(me, ep.now(), (), |_, max| ((), max));
        });
    }

    // -----------------------------------------------------------------
    // The queue's verdict against the per-rank rule it implements
    // -----------------------------------------------------------------

    /// Admission key of one request, ordered by `(arrival, rank)`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct ReqKey {
        arrival: SimTime,
        rank: usize,
    }

    impl PartialOrd for ReqKey {
        fn partial_cmp(&self, other: &ReqKey) -> Option<std::cmp::Ordering> {
            Some(
                self.arrival
                    .0
                    .total_cmp(&other.arrival.0)
                    .then(self.rank.cmp(&other.rank)),
            )
        }
    }

    /// What a rank is doing, as the reference gates see it.
    #[derive(Debug, Clone)]
    enum Mode {
        /// Runnable: queued at its floor.
        Running,
        /// Blocked in a receive from `src`.
        Recv {
            src: usize,
        },
        /// Parked in meeting `id`.
        Rdv {
            id: u64,
        },
        /// Queued at its request's key.
        Pending {
            key: ReqKey,
        },
        Finished,
    }

    /// A cluster state: each rank's floor and mode, and the members of
    /// every meeting a rank is parked in.
    struct State {
        ranks: Vec<(SimTime, Mode)>,
        members: HashMap<u64, Rc<[usize]>>,
    }

    impl State {
        fn parked_in(&self, rank: usize, meeting: u64) -> bool {
            matches!(&self.ranks[rank].1, Mode::Rdv { id } if *id == meeting)
        }

        fn blocked(&self, rank: usize) -> bool {
            matches!(self.ranks[rank].1, Mode::Recv { .. } | Mode::Rdv { .. })
        }

        /// The run queue of this state: runnable ranks in the FIFO,
        /// pending ones in the heap at their requests' keys.
        fn queue(&self) -> RunQueue {
            let mut q = RunQueue::new(self.ranks.len(), PopOrder::Fixed);
            for (r, (_, mode)) in self.ranks.iter().enumerate() {
                match mode {
                    Mode::Running => q.wake(r),
                    Mode::Pending { key: k } => q.request(key(k.arrival, r)),
                    _ => {}
                }
            }
            q
        }

        fn running(&self) -> bool {
            self.ranks
                .iter()
                .any(|(_, mode)| matches!(mode, Mode::Running))
        }

        /// The queue's verdict on the pending request `req`: it is the
        /// fiber the queue resumes next.
        fn admits(&self, req: &ReqKey) -> bool {
            self.queue().pop() == Some(req.rank)
        }
    }

    /// The gate as it was before admission became a comparison with
    /// one minimum: a per-rank recursion that walks every member of a
    /// meeting for every rank parked in it and cuts cycles where it
    /// finds them, and the exact solution of the rule it implements.
    /// Kept as the references the property tests compare against.
    mod reference {
        use super::*;

        /// Lower bound on a rank's future request arrivals. `strict`
        /// means the arrivals are **strictly** greater than `time`: the
        /// bound was derived through a blocked edge (Recv/Rdv), and a
        /// blocked rank's wake strictly advances virtual time past its
        /// dependee's bound. Strictness is what resolves equal-arrival
        /// ties against lower-numbered blocked ranks.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub(super) struct Bound {
            time: SimTime,
            strict: bool,
        }

        impl Bound {
            /// The weakest bound: what a dependency cycle among blocked
            /// ranks contributes, for the enclosing `max` to ignore.
            const WEAKEST: Bound = Bound {
                time: SimTime::ZERO,
                strict: false,
            };

            fn at(time: SimTime) -> Bound {
                Bound {
                    time,
                    strict: false,
                }
            }

            /// Tighter of two lower bounds: later time wins; on equal
            /// times a strict bound subsumes a non-strict one.
            fn max(self, other: Bound) -> Bound {
                if other.time > self.time {
                    other
                } else if self.time > other.time {
                    self
                } else {
                    Bound {
                        time: self.time,
                        strict: self.strict || other.strict,
                    }
                }
            }

            /// The bound one blocked edge downstream: the wake strictly
            /// follows.
            fn woken_after(self) -> Bound {
                Bound {
                    time: self.time,
                    strict: true,
                }
            }

            /// True when a request by `rank` under this bound cannot
            /// precede `key`.
            fn clears(self, key: &ReqKey, rank: usize) -> bool {
                if self.strict {
                    key.arrival.0.total_cmp(&self.time.0).is_le()
                } else {
                    *key < ReqKey {
                        arrival: self.time,
                        rank,
                    }
                }
            }
        }

        #[derive(Clone, Copy)]
        enum Memo {
            Unvisited,
            InStack,
            Done(Option<Bound>),
        }

        fn floor_of(s: &State, r: usize, requester: usize, memo: &mut [Memo]) -> Option<Bound> {
            if r == requester {
                return None;
            }
            match memo[r] {
                Memo::Done(v) => return v,
                Memo::InStack => return Some(Bound::WEAKEST),
                Memo::Unvisited => {}
            }
            memo[r] = Memo::InStack;
            let (floor, mode) = &s.ranks[r];
            let own = Bound::at(*floor);
            let out = match mode {
                Mode::Finished => None,
                Mode::Pending { key } => Some(own.max(Bound::at(key.arrival))),
                Mode::Running => Some(own),
                Mode::Recv { src } => {
                    floor_of(s, *src, requester, memo).map(|f| own.max(f.woken_after()))
                }
                Mode::Rdv { id } => {
                    let mut best = Some(own);
                    for &p in s.members[id].iter() {
                        match floor_of(s, p, requester, memo) {
                            None => {
                                best = None;
                                break;
                            }
                            Some(f) => best = best.map(|b| b.max(f.woken_after())),
                        }
                    }
                    best
                }
            };
            memo[r] = Memo::Done(out);
            out
        }

        pub(super) fn admissible(s: &State, key: &ReqKey) -> bool {
            for (r, (_, mode)) in s.ranks.iter().enumerate() {
                if let Mode::Pending { key: other } = mode {
                    if r != key.rank && other < key {
                        return false;
                    }
                }
            }
            let n = s.ranks.len();
            let mut memo = vec![Memo::Unvisited; n];
            for r in 0..n {
                if r == key.rank || matches!(s.ranks[r].1, Mode::Pending { .. }) {
                    continue;
                }
                if let Some(f) = floor_of(s, r, key.rank, &mut memo) {
                    if !f.clears(key, r) {
                        return false;
                    }
                }
            }
            true
        }

        /// The per-rank rule solved exactly: Kleene iteration from the
        /// weakest bound to the least fixpoint of "a receiver is bounded
        /// by its sender, a parked rank by every member of its meeting".
        /// Anything at or below this is justified; `None` is the top.
        pub(super) fn fixpoint_admissible(s: &State, key: &ReqKey) -> bool {
            let n = s.ranks.len();
            let mut f: Vec<Option<Bound>> = vec![Some(Bound::WEAKEST); n];
            loop {
                let bound = |(r, (floor, mode)): (usize, &(SimTime, Mode))| {
                    let own = Bound::at(*floor);
                    match mode {
                        _ if r == key.rank => None,
                        Mode::Finished => None,
                        Mode::Pending { key } => Some(own.max(Bound::at(key.arrival))),
                        Mode::Running => Some(own),
                        Mode::Recv { src } => f[*src].map(|b| own.max(b.woken_after())),
                        Mode::Rdv { id } => s.members[id]
                            .iter()
                            .try_fold(own, |acc, &p| f[p].map(|b| acc.max(b.woken_after()))),
                    }
                };
                let next: Vec<Option<Bound>> = s.ranks.iter().enumerate().map(bound).collect();
                if next == f {
                    break;
                }
                f = next;
            }
            let pending = s.ranks.iter().filter_map(|(_, mode)| match mode {
                Mode::Pending { key } => Some(key),
                _ => None,
            });
            let min_other = pending
                .filter(|k| k.rank != key.rank)
                .fold(None, |m: Option<&ReqKey>, k| {
                    Some(m.map_or(k, |m| if k < m { k } else { m }))
                });
            min_other.is_none_or(|k| key < k)
                && (0..n).all(|r| {
                    r == key.rank
                        || matches!(s.ranks[r].1, Mode::Pending { .. })
                        || f[r].is_none_or(|b| b.clears(key, r))
                })
        }
    }

    /// A rank pending at its request's key `(arrival, rank)`.
    fn pending(arrival: SimTime, rank: usize) -> Mode {
        Mode::Pending {
            key: ReqKey { arrival, rank },
        }
    }

    /// The meetings a generated state draws from: the world, two halves
    /// and a set that straddles them.
    fn meetings(n: usize) -> Vec<Rc<[usize]>> {
        vec![
            (0..n).collect(),
            (0..n / 2).collect(),
            (n / 2..n).collect(),
            (0..n).filter(|r| r % 3 != 1).collect(),
        ]
    }

    /// Build a cluster state from raw draws: per rank a floor, a mode
    /// selector and an operand (receive source / meeting choice /
    /// pending arrival). Times are small integers so ties — where
    /// strictness decides — are common.
    fn state_from(draws: &[(u8, u8, u8)], requester: usize, arrival: u8) -> (State, ReqKey) {
        let n = draws.len();
        let meetings = meetings(n);
        let mut s = State {
            ranks: Vec::with_capacity(n),
            members: HashMap::new(),
        };
        for (r, &(floor, sel, operand)) in draws.iter().enumerate() {
            let mode = match sel % 8 {
                0 | 1 => Mode::Running,
                2 => match operand as usize % n {
                    src if src != r => Mode::Recv { src },
                    _ => Mode::Running,
                },
                3..=5 => {
                    // Park only in a meeting the rank belongs to.
                    let m = (0..meetings.len())
                        .map(|k| (operand as usize + k) % meetings.len())
                        .find(|&k| meetings[k].contains(&r))
                        .expect("every rank is in the world meeting");
                    s.members.insert(m as u64, Rc::clone(&meetings[m]));
                    Mode::Rdv { id: m as u64 }
                }
                6 => pending(SimTime::secs((floor + operand % 4) as f64), r),
                _ => Mode::Finished,
            };
            s.ranks.push((SimTime::secs(floor as f64), mode));
        }
        let requester = requester % n;
        let key = ReqKey {
            arrival: SimTime::secs(arrival as f64),
            rank: requester,
        };
        let floor = s.ranks[requester].0.max(key.arrival);
        s.ranks[requester] = (floor, Mode::Pending { key });
        (s, key)
    }

    /// True when the blocked ranks wait on each other in a cycle that
    /// does not pass through the requester: a receiver waits on its
    /// sender, a parked rank on the members still on their way. Such a
    /// state is a deadlock of the simulated program — the cluster is
    /// about to be poisoned, and no rank in the cycle ever requests
    /// again.
    fn deadlocked(s: &State, requester: usize) -> bool {
        fn visit(s: &State, r: usize, requester: usize, seen: &mut [u8]) -> bool {
            if r == requester || seen[r] == 2 {
                return false;
            }
            if seen[r] == 1 {
                return true;
            }
            seen[r] = 1;
            let cyclic = match &s.ranks[r].1 {
                Mode::Recv { src } => visit(s, *src, requester, seen),
                Mode::Rdv { id } => s.members[id]
                    .iter()
                    .any(|&p| !s.parked_in(p, *id) && visit(s, p, requester, seen)),
                _ => false,
            };
            seen[r] = 2;
            cyclic
        }
        let mut seen = vec![0u8; s.ranks.len()];
        (0..s.ranks.len()).any(|r| visit(s, r, requester, &mut seen))
    }

    /// True when some meeting has every member parked in it. No run
    /// reaches such a state: the last member to arrive completes the
    /// meeting instead of parking (`rendezvous.rs`, the branch where
    /// `st.arrived` reaches `self.n`).
    fn fully_parked(s: &State) -> bool {
        let parked = |id: u64, members: &[usize]| members.iter().all(|&p| s.parked_in(p, id));
        s.members.iter().any(|(&id, members)| parked(id, members))
    }

    /// On every state a run can reach — not deadlocked, no meeting with
    /// all its members parked — the queue admits only what the exact
    /// solution of the rule the walks implemented admits, and only what
    /// the recursive walk admits. Where no rank is runnable its verdict
    /// is the exact one; a runnable rank holds every request back,
    /// whatever its floor, and that is the only place the two differ.
    /// Two generators: every mode, and only receiving, parked, pending
    /// and finished ranks with floors and arrivals drawn from four
    /// values, so that ties — between floors, between pending keys and
    /// across the two — are the common case.
    #[test]
    fn the_queue_is_sound_everywhere_and_exact_when_no_rank_is_runnable() {
        use proptest::strategy::Strategy;
        let (mut past_blocked, mut held_back, mut tied) = (0, 0, 0);
        for (seed, floors, modes, ranks, arrivals) in [
            (
                "linear_gate",
                6u8,
                &[0, 1, 2, 3, 4, 5, 6, 7][..],
                14usize,
                8u8,
            ),
            // Selector 2 receiving, 3 parked, 6 pending, 7 finished.
            ("tree_minimum", 4, &[2, 3, 6, 6, 6, 7][..], 40, 5),
        ] {
            let strategy = (
                proptest::collection::vec((0..floors, 0..modes.len() as u8, 0u8..255), 2..ranks),
                0..ranks,
                0..arrivals,
            );
            let mut rng = proptest::test_runner::TestRng::deterministic(seed);
            let (mut live, mut idle) = (0, 0);
            for _ in 0..20_000 {
                let (mut draws, requester, arrival) = strategy.generate(&mut rng);
                draws.iter_mut().for_each(|d| d.1 = modes[d.1 as usize]);
                let (s, key) = state_from(&draws, requester, arrival);
                if deadlocked(&s, key.rank) || fully_parked(&s) {
                    continue;
                }
                let new = s.admits(&key);
                let exact = reference::fixpoint_admissible(&s, &key);
                let walk = reference::admissible(&s, &key);
                let blocked = (0..s.ranks.len()).any(|r| s.blocked(r));
                live += 1;
                assert!(
                    !new || exact,
                    "admits what the fixpoint refuses: {draws:?} {key:?}"
                );
                assert!(
                    !new || walk,
                    "admits what the walk refuses: {draws:?} {key:?}"
                );
                if s.running() {
                    assert!(!new, "admitted past a runnable rank: {draws:?} {key:?}");
                    held_back += usize::from(exact);
                } else {
                    assert_eq!(new, exact, "not exact: {draws:?} {key:?}");
                    assert!(blocked || new == walk, "{draws:?} {key:?}");
                    idle += 1;
                }
                past_blocked += usize::from(new && blocked);
                tied += usize::from(s.ranks.iter().enumerate().any(|(r, (floor, mode))| {
                    r != key.rank && !matches!(mode, Mode::Finished) && *floor == key.arrival
                }));
            }
            assert!(
                live > 2_000,
                "{seed}: only {live} reachable states generated"
            );
            assert!(idle > 1_000, "{seed}: only {idle} with no rank runnable");
        }
        assert!(
            past_blocked > 2_000,
            "only {past_blocked} admissions with a rank blocked"
        );
        assert!(
            held_back > 1_000,
            "only {held_back} held back by a runnable rank"
        );
        assert!(tied > 5_000, "only {tied} states with a tie at the arrival");
    }

    #[test]
    fn an_admission_is_one_heap_push_and_pop_whoever_is_parked() {
        // 1 024 ranks pending at assorted arrivals, some of them parked
        // in meetings; one asks. Queueing the request and resuming the
        // minimum are one heap push and one pop: no rank and no meeting
        // member is looked at, whatever the meetings' shapes.
        const P: usize = 1024;
        let requester = P / 2;
        let world: Rc<[usize]> = (0..P).collect();
        let others: Rc<[usize]> = (0..P).filter(|&r| r != requester).collect();
        let subgroup = |r: usize| -> Rc<[usize]> { (r / 64 * 64..(r / 64 + 1) * 64).collect() };
        // Who parks where — each meeting keeps a member on its way: the
        // requester, rank 7, or each subgroup's last rank.
        type Parks<'a> = &'a dyn Fn(usize) -> Option<(u64, Rc<[usize]>)>;
        let nobody: Parks = &|_| None;
        let all_with_requester: Parks = &|r| (r != requester).then(|| (0, Rc::clone(&world)));
        let all_but_a_straggler: Parks =
            &|r| (r != requester && r != 7).then(|| (1, Rc::clone(&others)));
        let subgroups: Parks =
            &|r| (r != requester && r % 64 != 63).then(|| (2 + r as u64 / 64, subgroup(r)));
        let cases: [(Parks, usize, f64, bool); 9] = [
            (nobody, 700, 1.0, true),
            (nobody, 3, 2.0, false),
            (nobody, 0, 2.0, true),
            (all_with_requester, requester, 1.0, true),
            (all_with_requester, requester, 9.0, true),
            (all_but_a_straggler, requester, 1.0, true),
            // Rank 7 asks at t=2 and wins the tie.
            (all_but_a_straggler, requester, 2.0, false),
            (subgroups, requester, 1.0, true),
            (subgroups, requester, 5.0, false),
        ];
        for (parks, requester, arrival, admitted) in cases {
            let mut s = State {
                ranks: Vec::with_capacity(P),
                members: HashMap::new(),
            };
            for r in 0..P {
                let at = SimTime::secs(2.0 + (r % 7) as f64);
                let mode = match parks(r) {
                    Some((id, members)) => {
                        s.members.insert(id, members);
                        Mode::Rdv { id }
                    }
                    None => pending(at, r),
                };
                s.ranks.push((at, mode));
            }
            let req = ReqKey {
                arrival: SimTime::secs(arrival),
                rank: requester,
            };
            // The requester is the running fiber: not in the queue.
            s.ranks[requester].1 = Mode::Finished;
            let mut q = s.queue();
            (q.steps, q.admits) = (0, 0);
            let on_the_spot = q.admits(key(req.arrival, requester));
            if !on_the_spot {
                q.request(key(req.arrival, requester));
                q.pop();
            }
            assert_eq!(
                (q.steps, q.admits),
                if on_the_spot { (0, 0) } else { (2, 1) },
                "queue operations for one admission among {P} ranks"
            );
            s.ranks[requester].1 = Mode::Pending { key: req };
            assert_eq!(on_the_spot, admitted);
            assert_eq!(s.admits(&req), admitted);
            assert_eq!(reference::fixpoint_admissible(&s, &req), admitted);
        }
    }

    #[test]
    fn a_subgroup_request_waits_for_the_other_subgroups_straggler() {
        // ParColl's shape: 1 024 ranks in 16 subgroups of 64. The
        // requester's subgroup is parked while it writes; so is another
        // subgroup but for one straggler, whose arrival at the meeting
        // bounds its members' next requests. The rest of the ranks are
        // pending at t=3. While the straggler runs, the request waits;
        // once it asks, the keys decide, equal arrivals by rank.
        const P: usize = 1024;
        const G: usize = 64;
        let (requester, other) = (100, 5);
        let straggler = other * G + 7;
        let at = SimTime::secs;
        let key = ReqKey {
            arrival: SimTime::secs(1.0),
            rank: requester,
        };
        for (straggler_mode, admitted) in [
            (Mode::Running, false),
            (pending(at(2.0), straggler), true),
            (pending(at(1.0), straggler), true),
            (pending(at(0.5), straggler), false),
        ] {
            let mut s = State {
                ranks: (0..P).map(|r| (at(3.0), pending(at(3.0), r))).collect(),
                members: HashMap::new(),
            };
            for group in [requester / G, other] {
                let members: Rc<[usize]> = (group * G..(group + 1) * G).collect();
                for &r in members.iter() {
                    s.ranks[r] = (at(0.5), Mode::Rdv { id: group as u64 });
                }
                s.members.insert(group as u64, members);
            }
            let running = matches!(straggler_mode, Mode::Running);
            s.ranks[straggler].1 = straggler_mode;
            s.ranks[requester].1 = Mode::Pending { key };
            assert_eq!(s.admits(&key), admitted, "{:?}", s.ranks[straggler]);
            if !running {
                assert_eq!(reference::fixpoint_admissible(&s, &key), admitted);
                assert_eq!(reference::admissible(&s, &key), admitted);
            }
        }
    }

    #[test]
    fn woken_fibers_pop_oldest_first_then_requests_in_key_order() {
        let times = [5.0, 1.0, 3.0, 2.0, 4.0];
        let drain = |q: &mut RunQueue| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        let mut q = RunQueue::new(5, PopOrder::Fixed);
        for (r, t) in times.iter().enumerate() {
            q.request(key(SimTime::secs(*t), r));
        }
        assert_eq!(drain(&mut q), [1, 3, 2, 4, 0]);
        assert_eq!(q.admits, 5);
        for r in [3, 0, 4, 1, 2] {
            q.wake(r);
        }
        assert_eq!(drain(&mut q), [3, 0, 4, 1, 2]);
        // A woken fiber goes first even below a request's key: it may
        // still ask for less.
        q.request(key(SimTime::secs(0.5), 0));
        q.wake(3);
        q.request(key(SimTime::secs(0.25), 4));
        q.wake(1);
        assert!(!q.admits(key(SimTime::ZERO, 2)));
        assert_eq!(drain(&mut q), [3, 1, 4, 0]);
        assert!(q.admits(key(SimTime::ZERO, 2)));
        // Shuffled, any fiber of either container comes first; what is
        // left pops woken fibers in wake order, then requests by key.
        let mut firsts = std::collections::HashSet::new();
        for seed in 0..64 {
            let mut q = RunQueue::new(5, PopOrder::Shuffled(seed));
            for (r, t) in times.iter().enumerate() {
                if r % 2 == 0 {
                    q.wake(r);
                } else {
                    q.request(key(SimTime::secs(*t), r));
                }
            }
            let first = q.pop().unwrap();
            firsts.insert(first);
            q.shuffle = None;
            let left: Vec<usize> = [0, 2, 4, 1, 3]
                .into_iter()
                .filter(|&r| r != first)
                .collect();
            assert_eq!(drain(&mut q), left);
        }
        assert_eq!(
            firsts.len(),
            times.len(),
            "some fiber was never drawn first"
        );
    }

    #[test]
    fn keys_order_like_request_keys() {
        // Arrivals across signs, zeros, infinities and NaNs; ranks tied
        // and not: the integer order is `(arrival.total_cmp, rank)`.
        let times = [
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            1e-300,
            2.0,
            2.0 + f64::EPSILON,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let keys: Vec<ReqKey> = times
            .iter()
            .flat_map(|&t| {
                [0, 1, usize::MAX >> 1].map(|rank| ReqKey {
                    arrival: SimTime(t),
                    rank,
                })
            })
            .collect();
        for a in &keys {
            for b in &keys {
                let integer = key(a.arrival, a.rank).cmp(&key(b.arrival, b.rank));
                assert_eq!(Some(integer), a.partial_cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    // -----------------------------------------------------------------
    // The host-order oracle, and the mutation it must catch
    // -----------------------------------------------------------------

    /// A serial resource with a seeded service draw: which request is
    /// served first changes every later completion time.
    struct Server {
        state: RefCell<(SimTime, crate::noise::SplitMix64)>,
    }

    impl Server {
        fn serve(&self, arrival: SimTime) -> SimTime {
            admit(arrival);
            let mut st = self.state.borrow_mut();
            let start = st.0.max(arrival);
            st.0 = start + SimTime::micros(1.0 + st.1.next_f64());
            st.0
        }
    }

    /// Twelve ranks: skewed compute, requests to one server, a ring of
    /// messages and subgroup and world meetings. Returns every rank's
    /// clock bits after each step.
    fn oracle_run() -> Vec<Vec<u64>> {
        const N: usize = 12;
        let server = Rc::new(Server {
            state: RefCell::new((SimTime::ZERO, crate::noise::SplitMix64::new(42))),
        });
        let poison = Rc::new(PoisonFlag::default());
        let halves: Rc<Vec<Rendezvous>> = Rc::new(
            [0..N / 2, N / 2..N]
                .into_iter()
                .map(|r| Rendezvous::for_ranks(r.collect::<Vec<_>>(), Rc::clone(&poison)))
                .collect(),
        );
        run_cluster(ClusterConfig::ideal(N), move |ep| {
            let me = ep.rank();
            let mut clocks = Vec::new();
            for step in 0..4usize {
                ep.clock()
                    .advance(SimTime::micros(((me * 5 + step * 3) % 7) as f64));
                let done = server.serve(ep.now());
                ep.clock().advance_to(done);
                ep.send((me + 1) % N, 0, step as i32, IoBuffer::empty());
                let _ = ep.recv((me + N - 1) % N, 0, step as i32);
                let done = server.serve(ep.now());
                ep.clock().advance_to(done);
                let (_, t) = halves[me / (N / 2)].meet(me % (N / 2), ep.now(), (), |_, m| ((), m));
                ep.clock().advance_to(t);
                let done = server.serve(ep.now() + SimTime::micros(me as f64 * 0.25));
                ep.clock().advance_to(done);
                let (_, t) = ep.world_rendezvous().meet(me, ep.now(), (), |_, m| ((), m));
                ep.clock().advance_to(t);
                clocks.push(ep.now().0.to_bits());
            }
            clocks
        })
    }

    #[test]
    fn shuffled_pops_reproduce_the_queue_and_catch_an_early_admission() {
        set_pop_order(PopOrder::Fixed);
        let reference = oracle_run();
        for seed in 0..16 {
            set_pop_order(PopOrder::Shuffled(seed));
            assert_eq!(oracle_run(), reference, "pop order seed {seed}");
        }
        // The mutation: requests admitted while the gate refuses them.
        // In the default order the first refusal is rank 0's request at
        // t=0, which is the minimum anyway; the second is rank 1's at
        // 5 µs, while rank 2 will still ask at 3 µs. Planted twice into
        // the queue, the oracle sees it in the default order and under
        // every seed.
        for pops in std::iter::once(PopOrder::Fixed).chain((0..16).map(PopOrder::Shuffled)) {
            set_pop_order(pops);
            EARLY.with(|e| e.set(2));
            let mutated = oracle_run();
            EARLY.with(|e| e.set(0));
            assert_ne!(
                mutated, reference,
                "{pops:?}: an early admission went unseen"
            );
        }
        set_pop_order(PopOrder::Fixed);
    }
}
