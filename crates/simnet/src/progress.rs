//! Deterministic admission ordering for shared virtual-time resources.
//!
//! Virtual arrival times in this simulator are deterministic, but shared
//! *stateful* resources (an OST's serial queue) used to admit requests
//! in whatever order the OS happened to run the rank threads. Two
//! requests with different virtual arrivals could therefore mutate the
//! resource in either order, permuting queue depths, jitter draws and
//! completion times run-to-run.
//!
//! The [`ProgressRegistry`] closes that hole: every cluster run carries
//! one registry, each rank thread installs a thread-local handle, and a
//! resource calls [`admit`] before mutating its state. Admission blocks
//! (in *host* time only — no virtual time is charged) until the request's
//! key `(virtual arrival, rank, seq)` is provably the smallest the
//! cluster can still produce, which makes the admission order — and hence
//! every queue-dependent quantity — a pure function of virtual time.
//!
//! # How "provably smallest" is decided
//!
//! The registry tracks, per rank, a *floor* — a lower bound on the
//! virtual arrival of any request the rank may still issue — and what
//! the rank is doing: `Running` (its next request arrives no earlier
//! than its floor), `Pending` in this gate (requests within one I/O call
//! share an arrival, so its key bounds its later ones), blocked in a
//! `Recv` or parked in a `Rdv`, or `Finished`. Each running and pending
//! rank holds its *earliest possible key*, `(floor, rank)` or
//! `(arrival, rank)`, in a tournament tree: one integer leaf per rank,
//! the minimum at the root, allocated once. Blocked and finished ranks
//! hold no leaf. A request is admitted exactly when its key is the root.
//!
//! That is enough. Let the root be the request's key and the program
//! not be deadlocked, and follow a blocked rank's chain: a receiver to
//! its sender, a parked rank to a member of its meeting still on its way
//! (a meeting always has one: the last arrival completes it instead of
//! parking). The chain ends at a running or pending rank, whose leaf is
//! at or above the key and whose wake of the chain is strictly later
//! (every wake crosses a service, a message flight or a collective); at
//! the requester itself, which moves only after this request is served;
//! or at a finished rank, which wakes nobody. So no blocked rank can
//! later request below the key.
//!
//! # What a check costs
//!
//! A state change rewrites at most one leaf-to-root path of the tree,
//! `O(log ranks)`; a check compares with the root. The same root says
//! whom to wake. Only the minimum pending key can be admissible, and not
//! even that one while some *running* rank's floor lies below it — so
//! after a state change the registry wakes the root's rank if it is
//! pending and nobody if it is running: the pending ranks cannot move
//! before that rank does, and when it does, that is a state change
//! again.
//!
//! The argument needs a rank without a leaf to be really blocked, an
//! invariant maintained jointly with [`crate::mailbox::Mailbox`] and
//! [`crate::Rendezvous`]: a rank is registered as `Recv` **only while no
//! matching packet exists in its mailbox** (registration happens under
//! the mailbox lock after a failed match, and delivery of a matching
//! packet downgrades the mode under the same lock). Likewise a rank
//! stays `Rdv` only until the meeting completes: the last arrival
//! downgrades every parked participant under the rendezvous lock when it
//! publishes the result, before any of them observably wakes.
//!
//! Threads without an installed context (plain unit tests driving an
//! `Ost` or `Mailbox` directly) bypass the gate entirely: [`admit`] is a
//! no-op and behavior is byte-identical to the ungated code.

use crate::fiber::{self, Waker};
use crate::rendezvous::PoisonFlag;
use crate::time::SimTime;
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::sync::Arc;

/// Admission key of one resource request. Ordered lexicographically by
/// `(arrival, rank, seq)`; unique because `seq` is globally monotone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReqKey {
    /// Virtual arrival of the request at the resource.
    pub arrival: SimTime,
    /// Requesting global rank.
    pub rank: usize,
    /// Global issue number (tie-break among same-arrival requests).
    pub seq: u64,
}

impl Ord for ReqKey {
    fn cmp(&self, other: &ReqKey) -> std::cmp::Ordering {
        self.arrival
            .0
            .total_cmp(&other.arrival.0)
            .then(self.rank.cmp(&other.rank))
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for ReqKey {
    fn partial_cmp(&self, other: &ReqKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for ReqKey {}

/// `(arrival, rank)` as one integer that orders like [`ReqKey`]: the
/// arrival's bits in the high half, mapped so that integer order is
/// `f64::total_cmp` order, the rank in the low half. `seq` is left out:
/// a rank owns one leaf of the tree, so it never decides between two.
fn tree_key(arrival: SimTime, rank: usize) -> u128 {
    let bits = arrival.0.to_bits();
    // A positive arrival gains the sign bit, a negative one flips them all.
    let ordered = bits ^ ((bits as i64 >> 63) as u64 | (1 << 63));
    (u128::from(ordered) << 64) | rank as u128
}

/// The tree leaf of a rank that holds no key.
const NO_KEY: u128 = u128::MAX;

#[derive(Debug, Clone)]
enum Mode {
    Running,
    Recv { src: usize, ctx: u32, tag: i32 },
    Rdv { id: u64 },
    Pending { key: ReqKey },
    Finished,
}

struct RankState {
    /// Lower bound (virtual time) on this rank's future request arrivals.
    floor: SimTime,
    mode: Mode,
    /// The rank's fiber while it is parked in [`ProgressRegistry::acquire`].
    waker: Option<Waker>,
}

/// Tournament tree over one key per rank ([`tree_key`], or [`NO_KEY`]):
/// an inner node holds the smaller of its two children, so the minimum
/// is a read of the root and changing one rank's key rewrites one
/// leaf-to-root path. Sized once at construction; no operation allocates.
struct MinTree {
    /// `node[1]` is the root and rank `r`'s leaf is `node[leaves + r]`
    /// (`leaves` is a power of two; `node[0]` is unused).
    node: Vec<u128>,
    leaves: usize,
}

impl MinTree {
    fn new(n: usize) -> Self {
        let leaves = n.next_power_of_two();
        MinTree {
            node: vec![NO_KEY; 2 * leaves],
            leaves,
        }
    }

    /// The smallest key any rank holds.
    fn min(&self) -> u128 {
        self.node[1]
    }

    /// Replace rank `r`'s key; returns the nodes it looked at.
    fn set(&mut self, r: usize, key: u128) -> usize {
        let (mut i, mut smaller, mut looked_at) = (self.leaves + r, key, 1);
        // Stop at the first node that keeps its value: nothing above it
        // can change either.
        while self.node[i] != smaller {
            self.node[i] = smaller;
            if i == 1 {
                break;
            }
            i /= 2;
            looked_at += 2;
            smaller = self.node[2 * i].min(self.node[2 * i + 1]);
        }
        looked_at
    }
}

struct Inner {
    ranks: Vec<RankState>,
    next_seq: u64,
    /// Every rank's *earliest possible key*: a `Running` rank's
    /// `(floor, rank)`, a `Pending` rank's `(arrival, rank)`, nothing
    /// for a blocked or finished one. A pending key is admissible
    /// exactly when it is this tree's minimum (module doc).
    earliest: MinTree,
    /// Visits not yet added to the `gate_visits` host counter, which
    /// [`ProgressRegistry::wake_min`] feeds once per state change.
    unpublished: std::cell::Cell<usize>,
    /// Tree nodes the gate looked at (complexity pin).
    #[cfg(test)]
    visits: std::cell::Cell<usize>,
    /// Wakes [`ProgressRegistry::wake_min`] issued.
    #[cfg(test)]
    wakes: std::cell::Cell<usize>,
    /// The members of each meeting a test parks ranks in, by id: what
    /// the reference gates bound a parked rank by.
    #[cfg(test)]
    members: std::collections::HashMap<u64, Arc<[usize]>>,
}

impl Inner {
    /// Change `rank`'s mode (after any change to its floor), keeping its
    /// tree leaf in step.
    fn set_mode(&mut self, rank: usize, mode: Mode) {
        let earliest = match &mode {
            Mode::Running => tree_key(self.ranks[rank].floor, rank),
            Mode::Pending { key } => tree_key(key.arrival, rank),
            Mode::Recv { .. } | Mode::Rdv { .. } | Mode::Finished => NO_KEY,
        };
        self.ranks[rank].mode = mode;
        let looked_at = self.earliest.set(rank, earliest);
        self.visit(looked_at);
    }

    fn parked_in(&self, rank: usize, meeting: u64) -> bool {
        matches!(&self.ranks[rank].mode, Mode::Rdv { id } if *id == meeting)
    }

    /// Count `n` tree nodes looked at.
    fn visit(&self, n: usize) {
        #[cfg(test)]
        self.visits.set(self.visits.get() + n);
        self.unpublished.set(self.unpublished.get() + n);
    }
}

/// Cluster-wide admission gate; one per [`crate::run_cluster`] run.
///
/// Wakeups are *targeted*: at any instant at most one pending request —
/// the one with the smallest `(arrival, rank, seq)` key — can possibly
/// be admissible (any larger pending key fails against it), so a state
/// change wakes at most that request's rank (its parked fiber, or its
/// condition variable if a thread sleeps there) instead of broadcasting
/// to all waiting ranks — and wakes nobody while a *running* rank's
/// floor lies below every pending key: nothing is admissible until that
/// rank moves, and its move is a state change of its own.
///
/// Costs, for `n` ranks: a state change rewrites at most one path of
/// the tournament tree, `O(log n)`, allocating nothing; a check reads
/// its root, whoever is blocked.
pub struct ProgressRegistry {
    inner: Mutex<Inner>,
    /// One condvar per rank; rank `r` waits only on `cvs[r]`.
    cvs: Box<[Condvar]>,
    poison: Arc<PoisonFlag>,
}

/// Number of poll timeouts after which a blocked OS thread reports
/// itself when `SIMNET_STALL_DEBUG` is set (~5s of host time — far
/// beyond any legitimate wait in the test suite, short enough to
/// diagnose hangs; fibers never time out, their deadlocks are exact).
pub(crate) const STALL_DEBUG_POLLS: u32 = 100;

/// True when substrate waits should print a one-shot diagnostic after
/// [`STALL_DEBUG_POLLS`] polls. Keyed off the `SIMNET_STALL_DEBUG`
/// environment variable; checked only on the stall path, never per-poll.
pub(crate) fn stall_debug() -> bool {
    std::env::var_os("SIMNET_STALL_DEBUG").is_some()
}

impl ProgressRegistry {
    /// Registry for `n` ranks sharing the cluster poison flag.
    pub fn new(n: usize, poison: Arc<PoisonFlag>) -> Self {
        let mut inner = Inner {
            ranks: (0..n)
                .map(|_| RankState {
                    floor: SimTime::ZERO,
                    mode: Mode::Running,
                    waker: None,
                })
                .collect(),
            next_seq: 0,
            earliest: MinTree::new(n),
            unpublished: std::cell::Cell::new(0),
            #[cfg(test)]
            visits: std::cell::Cell::new(0),
            #[cfg(test)]
            wakes: std::cell::Cell::new(0),
            #[cfg(test)]
            members: Default::default(),
        };
        // Every rank starts out running at floor zero: enter those keys.
        (0..n).for_each(|r| inner.set_mode(r, Mode::Running));
        ProgressRegistry {
            inner: Mutex::new(inner),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            poison,
        }
    }

    /// Wake the one rank whose pending request could now be admissible:
    /// the holder of the minimum pending key — unless a running rank's
    /// floor lies below it, in which case nothing is admissible until
    /// that rank changes state, which ends here again. Every state
    /// change ends here. (If the minimum's rank currently *holds* the
    /// admission rather than waiting, this is a no-op and the next wake
    /// happens at its release — which comes back here.)
    fn wake_min(&self, inner: &mut Inner) {
        let _hp = simtrace::host::scope(simtrace::host::Site::GateWake);
        let visits = inner.unpublished.take() as u64;
        simtrace::host::count(simtrace::host::Counter::GateVisits, visits);
        let min = inner.earliest.min();
        let r = min as u64 as usize;
        if min != NO_KEY && matches!(inner.ranks[r].mode, Mode::Pending { .. }) {
            #[cfg(test)]
            inner.wakes.set(inner.wakes.get() + 1);
            fiber::notify_one(&self.cvs[r]);
            fiber::wake(&mut inner.ranks[r].waker);
        }
    }

    /// True when no other rank can still produce a request key below
    /// `key` — i.e. admitting `key` now preserves global key order:
    /// when `key`, in the tree since its rank is `Pending`, is the
    /// tree's minimum (module doc).
    fn admissible(inner: &Inner, key: &ReqKey) -> bool {
        inner.visit(1);
        inner.earliest.min() == tree_key(key.arrival, key.rank)
    }

    /// Block (host time) until a request by `rank` arriving at `arrival`
    /// is the cluster-wide minimum, then hold the admission.
    fn acquire(&self, rank: usize, arrival: SimTime) {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let key = ReqKey { arrival, rank, seq };
        let st = &mut inner.ranks[rank];
        st.floor = st.floor.max(arrival);
        inner.set_mode(rank, Mode::Pending { key });
        // The new pending key raises this rank's bound for everyone
        // else, possibly unblocking the current minimum pending request.
        self.wake_min(&mut inner);
        let mut polls = 0u32;
        while !Self::admissible(&inner, &key) {
            let cv = &self.cvs[rank];
            let woken = fiber::wait(cv, &mut inner, |i| &mut i.ranks[rank].waker, &self.poison);
            polls += u32::from(!woken);
            if polls == STALL_DEBUG_POLLS && stall_debug() {
                eprintln!("progress gate stalled: rank {rank} key {key:?}");
                for (r, st) in inner.ranks.iter().enumerate() {
                    eprintln!("  rank {r}: floor {:?} mode {:?}", st.floor, st.mode);
                }
            }
        }
    }

    /// Release a held admission: the rank runs again and its floor
    /// remembers the served arrival.
    fn release(&self, rank: usize) {
        let mut inner = self.inner.lock();
        let st = &mut inner.ranks[rank];
        if let Mode::Pending { key } = &st.mode {
            st.floor = st.floor.max(key.arrival);
        }
        inner.set_mode(rank, Mode::Running);
        self.wake_min(&mut inner);
    }

    /// Register `rank` as blocked on a receive with no matching packet
    /// present. Must be called under the mailbox lock that also guards
    /// [`deliver_downgrade`](Self::deliver_downgrade).
    pub(crate) fn block_recv(&self, rank: usize, src: usize, ctx: u32, tag: i32) {
        let mut inner = self.inner.lock();
        inner.set_mode(rank, Mode::Recv { src, ctx, tag });
        self.wake_min(&mut inner);
    }

    /// A packet `(src, ctx, tag)` was just delivered to `dst`'s mailbox:
    /// if `dst` is registered as blocked on exactly that match, it is no
    /// longer "waiting on the sender's future" — downgrade to `Running`
    /// before any gate check can observe the stale mode.
    pub(crate) fn deliver_downgrade(&self, dst: usize, src: usize, ctx: u32, tag: i32) {
        let mut inner = self.inner.lock();
        if matches!(&inner.ranks[dst].mode, Mode::Recv { src: s, ctx: c, tag: t } if *s == src && *c == ctx && *t == tag)
        {
            inner.set_mode(dst, Mode::Running);
            self.wake_min(&mut inner);
        }
    }

    /// Register `rank` as parked in rendezvous `id`. Must be called under
    /// the rendezvous state lock that also guards
    /// [`complete_rdv`](Self::complete_rdv).
    pub(crate) fn block_rdv(&self, rank: usize, id: u64) {
        let mut inner = self.inner.lock();
        inner.set_mode(rank, Mode::Rdv { id });
        self.wake_min(&mut inner);
    }

    /// The meeting `id` just completed: downgrade every participant still
    /// registered as parked in it (their floors — last raised at their
    /// entry — remain sound lower bounds).
    pub(crate) fn complete_rdv(&self, id: u64, members: &[usize]) {
        let mut inner = self.inner.lock();
        let mut changed = false;
        for &p in members {
            if inner.parked_in(p, id) {
                inner.set_mode(p, Mode::Running);
                changed = true;
            }
        }
        if changed {
            self.wake_min(&mut inner);
        }
    }

    /// Clear `rank`'s own blocked registration (wake paths where the
    /// counterpart had no registry, e.g. mixed gated/ungated callers).
    pub(crate) fn unblock(&self, rank: usize) {
        let mut inner = self.inner.lock();
        if !matches!(inner.ranks[rank].mode, Mode::Running) {
            inner.set_mode(rank, Mode::Running);
            self.wake_min(&mut inner);
        }
    }

    /// True while `rank` is registered as blocked in a receive or a
    /// meeting. A blocking rank registers under its wait site's lock and
    /// keeps that lock until it sleeps, so a test that sees this and
    /// then takes the site's lock knows the rank is asleep.
    #[cfg(test)]
    pub(crate) fn is_blocked(&self, rank: usize) -> bool {
        let mode = &self.inner.lock().ranks[rank].mode;
        matches!(mode, Mode::Recv { .. } | Mode::Rdv { .. })
    }

    /// The rank's closure returned: it will never request again.
    fn finish(&self, rank: usize) {
        let mut inner = self.inner.lock();
        inner.set_mode(rank, Mode::Finished);
        self.wake_min(&mut inner);
    }
}

// ---------------------------------------------------------------------
// Thread-local context: which registry/rank the current thread acts as.
// ---------------------------------------------------------------------

#[derive(Clone)]
pub(crate) struct Ctx {
    registry: Arc<ProgressRegistry>,
    rank: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Detach the thread's progress context (fiber scheduler hook: the
/// context is rank-affine state, parked with the suspended fiber).
pub(crate) fn tl_take() -> Option<Ctx> {
    CTX.with(|c| c.borrow_mut().take())
}

/// Install a previously [taken](tl_take) progress context (fiber
/// scheduler hook, run before resuming the owning fiber).
pub(crate) fn tl_set(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// RAII installation of a rank's progress context; created by
/// [`crate::run_cluster`] around each rank closure. Dropping marks the
/// rank [finished](ProgressRegistry) and clears the thread-local.
pub(crate) struct CtxGuard {
    registry: Arc<ProgressRegistry>,
    rank: usize,
}

pub(crate) fn install(registry: Arc<ProgressRegistry>, rank: usize) -> CtxGuard {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            registry: Arc::clone(&registry),
            rank,
        });
    });
    CtxGuard { registry, rank }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| *c.borrow_mut() = None);
        self.registry.finish(self.rank);
    }
}

fn with_ctx<T>(f: impl FnOnce(&Ctx) -> T) -> Option<T> {
    CTX.with(|c| c.borrow().as_ref().map(f))
}

/// The current thread's global rank, if it runs inside a cluster.
pub fn current_rank() -> Option<usize> {
    with_ctx(|ctx| ctx.rank)
}

/// A held admission; the resource mutation must complete before this is
/// dropped. Outside a cluster context this is an inert no-op.
pub struct Admission(Option<Ctx>);

impl Drop for Admission {
    fn drop(&mut self) {
        if let Some(ctx) = &self.0 {
            ctx.registry.release(ctx.rank);
        }
    }
}

/// Gate a shared-resource mutation whose request arrives at virtual time
/// `arrival`: blocks (host time) until every request with a smaller
/// `(arrival, rank, seq)` key has been admitted and released.
pub fn admit(arrival: SimTime) -> Admission {
    let ctx = with_ctx(Clone::clone);
    if let Some(ctx) = &ctx {
        ctx.registry.acquire(ctx.rank, arrival);
    }
    Admission(ctx)
}

/// Mailbox hook: the current thread's rank blocks on `(src, ctx, tag)`.
pub(crate) fn tl_block_recv(src: usize, ctx: u32, tag: i32) {
    with_ctx(|c| c.registry.block_recv(c.rank, src, ctx, tag));
}

/// Mailbox hook: a packet was delivered to `dst` (called on the sender's
/// thread; both threads share the run's registry).
pub(crate) fn tl_deliver_downgrade(dst: usize, src: usize, ctx: u32, tag: i32) {
    with_ctx(|c| c.registry.deliver_downgrade(dst, src, ctx, tag));
}

/// Rendezvous hook: the current thread's rank parks in meeting `id`.
pub(crate) fn tl_block_rdv(id: u64) {
    with_ctx(|c| c.registry.block_rdv(c.rank, id));
}

/// Rendezvous hook: meeting `id` completed (called on the last arrival's
/// thread, under the rendezvous lock, before waiters wake).
pub(crate) fn tl_complete_rdv(id: u64, members: &[usize]) {
    with_ctx(|c| c.registry.complete_rdv(id, members));
}

/// Self-service unblock after waking from a blocked wait.
pub(crate) fn tl_unblock() {
    with_ctx(|c| c.registry.unblock(c.rank));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn registry(n: usize) -> Arc<ProgressRegistry> {
        Arc::new(ProgressRegistry::new(n, Arc::new(PoisonFlag::default())))
    }

    impl Inner {
        /// The ranks blocked in a receive or a meeting, ascending.
        fn blocked_ranks(&self) -> impl Iterator<Item = usize> + '_ {
            let blocked = |m: &Mode| matches!(m, Mode::Recv { .. } | Mode::Rdv { .. });
            (0..self.ranks.len()).filter(move |&r| blocked(&self.ranks[r].mode))
        }
    }

    #[test]
    fn no_context_admits_immediately() {
        // Plain threads (unit tests) bypass the gate.
        let _a = admit(SimTime::secs(5.0));
        let _b = admit(SimTime::ZERO);
    }

    #[test]
    fn pending_requests_admit_in_key_order() {
        let reg = registry(3);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = [(0usize, 3.0f64), (1, 1.0), (2, 2.0)]
            .into_iter()
            .map(|(rank, t)| {
                let reg = Arc::clone(&reg);
                let order = Arc::clone(&order);
                thread::spawn(move || {
                    let _g = install(Arc::clone(&reg), rank);
                    // Give every rank time to post its request so floors
                    // (from Pending modes) are in place.
                    thread::sleep(Duration::from_millis(20 * rank as u64));
                    let _a = admit(SimTime::secs(t));
                    order.lock().push(rank);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![1, 2, 0]);
    }

    #[test]
    fn equal_arrivals_tie_break_by_rank() {
        let reg = registry(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = [1usize, 0]
            .into_iter()
            .map(|rank| {
                let reg = Arc::clone(&reg);
                let order = Arc::clone(&order);
                thread::spawn(move || {
                    let _g = install(Arc::clone(&reg), rank);
                    // Rank 1 posts first in host time; rank 0 must still
                    // be admitted first.
                    thread::sleep(Duration::from_millis(if rank == 0 { 30 } else { 0 }));
                    let _a = admit(SimTime::secs(1.0));
                    order.lock().push(rank);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![0, 1]);
    }

    #[test]
    fn finished_ranks_do_not_block_admission() {
        let reg = registry(2);
        {
            let _g = install(Arc::clone(&reg), 1);
        } // rank 1 finished immediately
        let h = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let _g = install(Arc::clone(&reg), 0);
                let _a = admit(SimTime::secs(10.0));
            })
        };
        h.join().unwrap(); // must not hang on rank 1's zero floor
    }

    #[test]
    fn rank_blocked_on_requester_recv_is_unconstrained() {
        let reg = registry(2);
        // Rank 1 is blocked receiving from rank 0 (the requester): its
        // wake is causally after rank 0's pending request.
        reg.block_recv(1, 0, 0, 7);
        let h = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let _g = install(Arc::clone(&reg), 0);
                let _a = admit(SimTime::secs(10.0));
            })
        };
        h.join().unwrap();
    }

    #[test]
    fn rdv_chain_through_requester_is_unconstrained() {
        let reg = registry(3);
        // Ranks 1 and 2 are parked in a rendezvous whose membership
        // includes requester 0 — the classic "everyone is in the barrier
        // except the rank doing I/O" steady state.
        reg.block_rdv(1, 42);
        reg.block_rdv(2, 42);
        let h = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let _g = install(Arc::clone(&reg), 0);
                let _a = admit(SimTime::secs(3.0));
            })
        };
        h.join().unwrap();
    }

    #[test]
    fn running_rank_with_low_floor_blocks_admission_until_it_moves() {
        let reg = registry(2);
        let admitted = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let h = {
            let reg = Arc::clone(&reg);
            let admitted = Arc::clone(&admitted);
            thread::spawn(move || {
                let _g = install(Arc::clone(&reg), 0);
                let _a = admit(SimTime::secs(5.0));
                admitted.store(true, std::sync::atomic::Ordering::SeqCst);
            })
        };
        thread::sleep(Duration::from_millis(50));
        assert!(
            !admitted.load(std::sync::atomic::Ordering::SeqCst),
            "rank 1 (Running, floor 0) could still produce an earlier request"
        );
        // Rank 1 parks in a rendezvous containing rank 0 — unconstrained.
        reg.block_rdv(1, 7);
        h.join().unwrap();
        assert!(admitted.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn deliver_downgrade_restores_constraint() {
        let reg = registry(3);
        // Rank 1 blocked on recv from rank 2 (not the requester): floor
        // chains to rank 2's floor (0) — admission of rank 0 must wait.
        reg.block_recv(1, 2, 0, 1);
        let admitted = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let h = {
            let reg = Arc::clone(&reg);
            let admitted = Arc::clone(&admitted);
            thread::spawn(move || {
                let _g = install(Arc::clone(&reg), 0);
                let _a = admit(SimTime::secs(1.0));
                admitted.store(true, std::sync::atomic::Ordering::SeqCst);
            })
        };
        thread::sleep(Duration::from_millis(50));
        assert!(!admitted.load(std::sync::atomic::Ordering::SeqCst));
        // The matching packet arrives: rank 1 is Running again (stale
        // floor 0) — still blocking. Rank 1 then finishes; rank 2 parks
        // in a rendezvous with the requester.
        reg.deliver_downgrade(1, 2, 0, 1);
        reg.finish(1);
        reg.block_rdv(2, 9);
        h.join().unwrap();
        assert!(admitted.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn complete_rdv_downgrades_all_parked_members() {
        let reg = registry(4);
        reg.block_rdv(1, 5);
        reg.block_rdv(2, 5);
        reg.complete_rdv(5, &[1, 2, 3]);
        let inner = reg.inner.lock();
        assert!(matches!(inner.ranks[1].mode, Mode::Running));
        assert!(matches!(inner.ranks[2].mode, Mode::Running));
        assert!(matches!(inner.ranks[3].mode, Mode::Running));
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn poison_unblocks_gate_waiters() {
        let poison = Arc::new(PoisonFlag::default());
        let reg = Arc::new(ProgressRegistry::new(2, Arc::clone(&poison)));
        let p = Arc::clone(&poison);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            p.poison();
        });
        let _g = install(Arc::clone(&reg), 0);
        // Rank 1 never moves; only the poison releases us.
        let _a = admit(SimTime::secs(1.0));
    }

    // -----------------------------------------------------------------
    // The root test against the walks it replaced
    // -----------------------------------------------------------------

    impl Inner {
        /// Park `rank` in meeting `id` of `members`, which the reference
        /// gates read.
        fn park(&mut self, rank: usize, id: u64, members: &Arc<[usize]>) {
            self.members.insert(id, Arc::clone(members));
            self.set_mode(rank, Mode::Rdv { id });
        }
    }

    /// The gate as it was before meetings were bounded once per check:
    /// a per-rank recursion that walks every member of a meeting for
    /// every rank parked in it and cuts cycles where it finds them, and
    /// the exact solution of the rule it implements. Kept as the
    /// references the property test compares against.
    mod reference {
        use super::super::*;

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
                    let earliest = ReqKey {
                        arrival: self.time,
                        rank,
                        seq: 0,
                    };
                    *key < earliest
                }
            }
        }

        #[derive(Clone, Copy)]
        enum Memo {
            Unvisited,
            InStack,
            Done(Option<Bound>),
        }

        fn floor_of(inner: &Inner, r: usize, requester: usize, memo: &mut [Memo]) -> Option<Bound> {
            if r == requester {
                return None;
            }
            match memo[r] {
                Memo::Done(v) => return v,
                Memo::InStack => return Some(Bound::WEAKEST),
                Memo::Unvisited => {}
            }
            memo[r] = Memo::InStack;
            let st = &inner.ranks[r];
            let own = Bound::at(st.floor);
            let out = match &st.mode {
                Mode::Finished => None,
                Mode::Pending { key } => Some(own.max(Bound::at(key.arrival))),
                Mode::Running => Some(own),
                Mode::Recv { src, .. } => {
                    floor_of(inner, *src, requester, memo).map(|f| own.max(f.woken_after()))
                }
                Mode::Rdv { id } => {
                    let mut best = Some(own);
                    for &p in inner.members[id].iter() {
                        match floor_of(inner, p, requester, memo) {
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

        pub(super) fn admissible(inner: &Inner, key: &ReqKey) -> bool {
            for (r, st) in inner.ranks.iter().enumerate() {
                if r == key.rank {
                    continue;
                }
                if let Mode::Pending { key: other } = &st.mode {
                    if other < key {
                        return false;
                    }
                }
            }
            let n = inner.ranks.len();
            let mut memo = vec![Memo::Unvisited; n];
            for r in 0..n {
                if r == key.rank || matches!(inner.ranks[r].mode, Mode::Pending { .. }) {
                    continue;
                }
                if let Some(f) = floor_of(inner, r, key.rank, &mut memo) {
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
        pub(super) fn fixpoint_admissible(inner: &Inner, key: &ReqKey) -> bool {
            let n = inner.ranks.len();
            let mut f: Vec<Option<Bound>> = vec![Some(Bound::WEAKEST); n];
            loop {
                let bound = |(r, st): (usize, &RankState)| {
                    let own = Bound::at(st.floor);
                    match &st.mode {
                        _ if r == key.rank => None,
                        Mode::Finished => None,
                        Mode::Pending { key } => Some(own.max(Bound::at(key.arrival))),
                        Mode::Running => Some(own),
                        Mode::Recv { src, .. } => f[*src].map(|b| own.max(b.woken_after())),
                        Mode::Rdv { id } => inner.members[id]
                            .iter()
                            .try_fold(own, |acc, &p| f[p].map(|b| acc.max(b.woken_after()))),
                    }
                };
                let next: Vec<Option<Bound>> = inner.ranks.iter().enumerate().map(bound).collect();
                if next == f {
                    break;
                }
                f = next;
            }
            let pending = inner.ranks.iter().filter_map(|st| match &st.mode {
                Mode::Pending { key } => Some(key),
                _ => None,
            });
            let min_other = pending.filter(|k| k.rank != key.rank).min();
            min_other.is_none_or(|k| key < k)
                && (0..n).all(|r| {
                    r == key.rank
                        || matches!(inner.ranks[r].mode, Mode::Pending { .. })
                        || f[r].is_none_or(|b| b.clears(key, r))
                })
        }
    }

    /// The meetings a generated state draws from: the world, two halves
    /// and a set that straddles them.
    fn meetings(n: usize) -> Vec<Arc<[usize]>> {
        vec![
            (0..n).collect(),
            (0..n / 2).collect(),
            (n / 2..n).collect(),
            (0..n).filter(|r| r % 3 != 1).collect(),
        ]
    }

    /// Build a registry state from raw draws: per rank a floor, a mode
    /// selector and an operand (receive source / meeting choice /
    /// pending arrival). Times are small integers so ties — where
    /// strictness decides — are common.
    fn state_from(draws: &[(u8, u8, u8)], requester: usize, arrival: u8) -> (Inner, ReqKey) {
        let n = draws.len();
        let meetings = meetings(n);
        let reg = ProgressRegistry::new(n, Arc::new(PoisonFlag::default()));
        let mut inner = reg.inner.into_inner();
        for (r, &(floor, sel, operand)) in draws.iter().enumerate() {
            inner.ranks[r].floor = SimTime::secs(floor as f64);
            let mode = match sel % 8 {
                0 | 1 => Mode::Running,
                2 => match operand as usize % n {
                    src if src != r => Mode::Recv {
                        src,
                        ctx: 0,
                        tag: 0,
                    },
                    _ => Mode::Running,
                },
                3..=5 => {
                    // Park only in a meeting the rank belongs to.
                    let m = (0..meetings.len())
                        .map(|k| (operand as usize + k) % meetings.len())
                        .find(|&k| meetings[k].contains(&r))
                        .expect("every rank is in the world meeting");
                    inner.members.insert(m as u64, Arc::clone(&meetings[m]));
                    Mode::Rdv { id: m as u64 }
                }
                6 => {
                    inner.next_seq += 1;
                    let key = ReqKey {
                        arrival: SimTime::secs((floor + operand % 4) as f64),
                        rank: r,
                        seq: inner.next_seq,
                    };
                    Mode::Pending { key }
                }
                _ => Mode::Finished,
            };
            inner.set_mode(r, mode);
        }
        let requester = requester % n;
        inner.next_seq += 1;
        let key = ReqKey {
            arrival: SimTime::secs(arrival as f64),
            rank: requester,
            seq: inner.next_seq,
        };
        inner.ranks[requester].floor = inner.ranks[requester].floor.max(key.arrival);
        inner.set_mode(requester, Mode::Pending { key });
        (inner, key)
    }

    /// True when the blocked ranks wait on each other in a cycle that
    /// does not pass through the requester: a receiver waits on its
    /// sender, a parked rank on the members still on their way. Such a
    /// state is a deadlock of the simulated program — the cluster is
    /// about to be poisoned, and no rank in the cycle ever requests
    /// again.
    fn deadlocked(inner: &Inner, requester: usize) -> bool {
        fn visit(inner: &Inner, r: usize, requester: usize, seen: &mut [u8]) -> bool {
            if r == requester || seen[r] == 2 {
                return false;
            }
            if seen[r] == 1 {
                return true;
            }
            seen[r] = 1;
            let cyclic = match &inner.ranks[r].mode {
                Mode::Recv { src, .. } => visit(inner, *src, requester, seen),
                Mode::Rdv { id } => inner.members[id]
                    .iter()
                    .any(|&p| !inner.parked_in(p, *id) && visit(inner, p, requester, seen)),
                _ => false,
            };
            seen[r] = 2;
            cyclic
        }
        let mut seen = vec![0u8; inner.ranks.len()];
        (0..inner.ranks.len()).any(|r| visit(inner, r, requester, &mut seen))
    }

    /// True when some meeting has every member parked in it. No run
    /// reaches such a state: the last member to arrive completes the
    /// meeting under the rendezvous lock instead of parking
    /// (`rendezvous.rs`, `if st.arrived == self.n`).
    fn fully_parked(inner: &Inner) -> bool {
        let parked = |id: u64, members: &[usize]| members.iter().all(|&p| inner.parked_in(p, id));
        inner
            .members
            .iter()
            .any(|(&id, members)| parked(id, members))
    }

    /// On every state a run can reach — not deadlocked, no meeting with
    /// all its members parked — the root test is the exact solution of
    /// the rule the walks implemented, and so never stricter than the
    /// recursive walk. On the states set aside the two differ: there a
    /// walk cuts a cycle that no run can close.
    #[test]
    fn the_root_test_is_exact_on_every_reachable_state() {
        use proptest::strategy::Strategy;
        let strategy = (
            proptest::collection::vec((0u8..6, 0u8..8, 0u8..255), 2..14),
            0usize..14,
            0u8..8,
        );
        let mut rng = proptest::test_runner::TestRng::deterministic("linear_gate");
        let (mut live, mut differ, mut past_blocked) = (0, 0, 0);
        for _ in 0..20_000 {
            let (draws, requester, arrival) = strategy.generate(&mut rng);
            let (inner, key) = state_from(&draws, requester, arrival);
            let old = reference::admissible(&inner, &key);
            let new = ProgressRegistry::admissible(&inner, &key);
            differ += usize::from(old != new);
            if deadlocked(&inner, key.rank) || fully_parked(&inner) {
                continue;
            }
            let exact = reference::fixpoint_admissible(&inner, &key);
            live += 1;
            past_blocked += usize::from(new && inner.blocked_ranks().next().is_some());
            assert!(
                !old || new,
                "stricter than the recursive gate: {draws:?} {key:?}"
            );
            assert_eq!(new, exact, "not exact: {draws:?} {key:?}");
        }
        assert!(live > 2_000, "only {live} reachable states generated");
        assert!(
            past_blocked > 1_000,
            "only {past_blocked} admissions with a rank blocked"
        );
        assert!(
            differ > 0,
            "the root test never disagreed with the recursive gate: the states set aside are vacuous"
        );
    }

    /// With nobody blocked the verdict is a comparison against the
    /// tree's minimum, and it is the exact one: states of running,
    /// pending and finished ranks only, floors and arrivals drawn from
    /// four values so that ties — between floors, between pending keys
    /// and across the two — are the common case.
    #[test]
    fn the_tree_minimum_is_the_exact_verdict_when_nobody_is_blocked() {
        use proptest::strategy::Strategy;
        let strategy = (
            proptest::collection::vec((0u8..4, 0u8..5, 0u8..255), 2..40),
            0usize..40,
            0u8..5,
        );
        let mut rng = proptest::test_runner::TestRng::deterministic("tree_minimum");
        let (mut admitted, mut tied) = (0, 0);
        for _ in 0..20_000 {
            let (mut draws, requester, arrival) = strategy.generate(&mut rng);
            for d in &mut draws {
                // Selector 0..=1 running, 6 pending, 7 finished.
                d.1 = [0, 1, 6, 6, 7][d.1 as usize];
            }
            let (inner, key) = state_from(&draws, requester, arrival);
            assert_eq!(inner.blocked_ranks().next(), None);
            let new = ProgressRegistry::admissible(&inner, &key);
            let exact = reference::fixpoint_admissible(&inner, &key);
            assert_eq!(new, exact, "{draws:?} {key:?}");
            assert_eq!(new, reference::admissible(&inner, &key));
            admitted += usize::from(new);
            tied += usize::from(inner.ranks.iter().enumerate().any(|(r, st)| {
                r != key.rank && !matches!(st.mode, Mode::Finished) && st.floor == key.arrival
            }));
        }
        assert!(admitted > 1_000, "only {admitted} admissible states");
        assert!(
            tied > 10_000,
            "only {tied} states with a tie at the arrival"
        );
    }

    #[test]
    fn an_admission_looks_at_one_tree_path_whoever_is_parked() {
        // 1 024 ranks running at assorted floors, some of them parked in
        // meetings; one asks. The request's state change rewrites one
        // leaf-to-root path (two children per level) and the check reads
        // the root: no rank and no meeting member is looked at, whatever
        // the meetings' shapes — a gate that bounds parked meetings would
        // look at the members of each one the requester is not in.
        const P: usize = 1024;
        let requester = P / 2;
        let world: Arc<[usize]> = (0..P).collect();
        let others: Arc<[usize]> = (0..P).filter(|&r| r != requester).collect();
        let subgroup = |r: usize| -> Arc<[usize]> { (r / 64 * 64..(r / 64 + 1) * 64).collect() };
        // Who parks where — each meeting keeps a member on its way: the
        // requester, rank 7, or each subgroup's last rank.
        type Parks<'a> = &'a dyn Fn(usize) -> Option<(u64, Arc<[usize]>)>;
        let nobody: Parks = &|_| None;
        let all_with_requester: Parks = &|r| (r != requester).then(|| (0, Arc::clone(&world)));
        let all_but_a_straggler: Parks =
            &|r| (r != requester && r != 7).then(|| (1, Arc::clone(&others)));
        let subgroups: Parks =
            &|r| (r != requester && r % 64 != 63).then(|| (2 + r as u64 / 64, subgroup(r)));
        let cases: [(Parks, usize, f64, bool); 9] = [
            (nobody, 700, 1.0, true),
            (nobody, 3, 2.0, false),
            (nobody, 0, 2.0, true),
            (all_with_requester, requester, 1.0, true),
            (all_with_requester, requester, 9.0, true),
            (all_but_a_straggler, requester, 1.0, true),
            // Rank 7 runs at floor 2 and wins the tie at t=2.
            (all_but_a_straggler, requester, 2.0, false),
            (subgroups, requester, 1.0, true),
            (subgroups, requester, 5.0, false),
        ];
        for (parks, requester, arrival, admitted) in cases {
            let reg = registry(P);
            let mut inner = reg.inner.lock();
            for r in 0..P {
                inner.ranks[r].floor = SimTime::secs(2.0 + (r % 7) as f64);
                match parks(r) {
                    Some((id, members)) => inner.park(r, id, &members),
                    None => inner.set_mode(r, Mode::Running),
                }
            }
            let key = ReqKey {
                arrival: SimTime::secs(arrival),
                rank: requester,
                seq: 9,
            };
            inner.visits.set(0);
            inner.set_mode(requester, Mode::Pending { key });
            assert_eq!(ProgressRegistry::admissible(&inner, &key), admitted);
            let visits = inner.visits.get();
            assert!(
                visits <= 2 * P.ilog2() as usize + 2,
                "{visits} entries looked at for one admission among {P} ranks"
            );
            assert_eq!(reference::fixpoint_admissible(&inner, &key), admitted);
        }
    }

    #[test]
    fn a_running_floor_below_every_pending_key_wakes_nobody() {
        // Rank 1 pends at t=5 behind rank 0, running at floor 0: no
        // state change short of rank 0's own can admit it, so none wakes
        // it. Rank 0 blocking on rank 1 does.
        let reg = registry(3);
        let key = ReqKey {
            arrival: SimTime::secs(5.0),
            rank: 1,
            seq: 0,
        };
        reg.inner.lock().set_mode(1, Mode::Pending { key });
        let wakes = || reg.inner.lock().wakes.get();
        reg.finish(2); // a bystander's state change
        assert_eq!(wakes(), 0);
        assert!(!ProgressRegistry::admissible(&reg.inner.lock(), &key));
        reg.block_recv(0, 1, 0, 7);
        assert_eq!(wakes(), 1);
        assert!(ProgressRegistry::admissible(&reg.inner.lock(), &key));
    }

    /// A rank asleep in the gate on an OS thread is woken by the state
    /// change that admits it — through the counted condvar — and not by
    /// the poison poll the wait falls back on.
    #[test]
    fn a_pending_thread_is_woken_by_the_notify_not_the_poll() {
        let reg = registry(2);
        let h = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let _g = install(Arc::clone(&reg), 0);
                let _a = admit(SimTime::secs(5.0));
                std::time::Instant::now()
            })
        };
        // Rank 0 is `Pending` from before its first check until it is
        // admitted, and holds the registry lock until it sleeps: once
        // the mode shows, the next lock acquisition follows its wait.
        while !matches!(reg.inner.lock().ranks[0].mode, Mode::Pending { .. }) {
            thread::yield_now();
        }
        let notified = std::time::Instant::now();
        reg.finish(1);
        let woken = h.join().unwrap();
        assert!(
            woken.duration_since(notified) < crate::fiber::POISON_POLL / 2,
            "woken {:?} after the admitting state change: by the poll, not the notify",
            woken.duration_since(notified)
        );
    }

    #[test]
    fn a_subgroup_check_waits_for_the_other_subgroups_straggler() {
        // ParColl's shape: 1 024 ranks in 16 subgroups of 64. The
        // requester's subgroup is parked while it writes; so is another
        // subgroup but for one straggler still running at `other_floor`,
        // whose arrival at the meeting bounds its members' next
        // requests. The rest of the ranks run at floors above the
        // arrival.
        const P: usize = 1024;
        const G: usize = 64;
        let (requester, other) = (100, 5);
        let straggler = other * G + 7;
        let arrival = SimTime::secs(1.0);
        for (other_floor, admitted) in [(2.0, true), (1.0, true), (0.5, false)] {
            let reg = registry(P);
            let mut inner = reg.inner.lock();
            for r in 0..P {
                inner.ranks[r].floor = SimTime::secs(3.0);
                inner.set_mode(r, Mode::Running);
            }
            for (group, floor) in [(requester / G, 2.0), (other, other_floor)] {
                let members: Arc<[usize]> = (group * G..(group + 1) * G).collect();
                for &r in members.iter() {
                    inner.ranks[r].floor = SimTime::secs(floor);
                    if r != requester && r != straggler {
                        inner.park(r, group as u64, &members);
                    }
                }
            }
            inner.set_mode(straggler, Mode::Running);
            let key = ReqKey {
                arrival,
                rank: requester,
                seq: 0,
            };
            inner.set_mode(requester, Mode::Pending { key });
            assert_eq!(ProgressRegistry::admissible(&inner, &key), admitted);
            assert_eq!(reference::admissible(&inner, &key), admitted);
            assert_eq!(reference::fixpoint_admissible(&inner, &key), admitted);
        }
    }

    #[test]
    fn a_release_at_its_own_arrival_looks_at_one_tree_node_and_wakes_nobody() {
        // Rank 5 holds an admission at t=2 and rank 9 waits behind it at
        // t=4; everyone else has finished. Released, rank 5 runs again
        // at floor 2 — exactly the key it held — so its leaf keeps its
        // value, no path is rewritten, and rank 9 stays asleep: rank 5
        // may still request at t=2.
        const P: usize = 1024;
        let reg = registry(P);
        for r in (0..P).filter(|&r| r != 5 && r != 9) {
            reg.finish(r);
        }
        let waiting = ReqKey {
            arrival: SimTime::secs(4.0),
            rank: 9,
            seq: 0,
        };
        reg.inner.lock().set_mode(9, Mode::Pending { key: waiting });
        reg.acquire(5, SimTime::secs(2.0));
        {
            let inner = reg.inner.lock();
            inner.visits.set(0);
            inner.wakes.set(0);
        }
        reg.release(5);
        let inner = reg.inner.lock();
        assert_eq!(inner.visits.get(), 1, "a release rewrote a tree path");
        assert_eq!(inner.wakes.get(), 0, "a release woke a rank that cannot go");
        assert_eq!(inner.earliest.min(), tree_key(SimTime::secs(2.0), 5));
    }

    #[test]
    fn tree_keys_order_like_request_keys() {
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
                    seq: 0,
                })
            })
            .collect();
        for a in &keys {
            for b in &keys {
                let integer = tree_key(a.arrival, a.rank).cmp(&tree_key(b.arrival, b.rank));
                assert_eq!(integer, a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }
}
