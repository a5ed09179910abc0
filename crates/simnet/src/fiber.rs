//! Cooperative fiber executor: all ranks of a cluster on the calling
//! thread.
//!
//! # Why
//!
//! The simulator's unit of concurrency is a *rank*, and ranks spend most
//! of their host life blocked on each other: every rendezvous parks
//! `p - 1` ranks, every receive parks one. With one OS thread per rank,
//! each park/wake pair costs a futex syscall plus a kernel context switch
//! (~6 µs on a single-CPU host), and none of that parallelism is real:
//! on one CPU the threads strictly take turns anyway. A *fiber*
//! (stackful coroutine) makes the turn-taking explicit: every rank gets
//! a heap-allocated stack, and a scheduler switches between them in
//! userspace (~tens of nanoseconds: the callee-saved registers and the
//! stack pointer).
//!
//! # Blocked ranks cost nothing
//!
//! The scheduler resumes only *runnable* fibers. A rank that must block
//! calls `wait` — the one wait primitive shared by the mailbox, the
//! rendezvous and the admission gate — which leaves its `Waker` in a
//! slot guarded by the wait site's own lock, drops that lock and leaves
//! the run queue. The site's notify path (the same place that signals
//! the condition variable OS threads sleep on) takes the waker out of
//! the slot and wakes it: a push onto the scheduler's thread-local run
//! queue, no lock and no system call. A parked fiber is not touched
//! again until then, so host time follows events, not ranks × scheduler
//! cycles.
//!
//! Only a fiber of the same run can issue that wake — every fiber of a
//! cluster runs on the thread that called [`crate::run_cluster`], one at
//! a time — and a wake from any other thread is a bug that panics
//! rather than touch a run queue it does not own (DESIGN.md §9.1 records
//! why the executor no longer spreads a cluster over worker threads).
//! A wake can still find its fiber mid-slice (a fiber waking itself, a
//! handle left in a slot by an earlier wait): each fiber carries a
//! three-state flag, the scheduler marks a fiber parked only after the
//! switch away from it has completed, and a wake that finds the fiber
//! running leaves a notification the scheduler honours by re-queueing
//! it at once.
//!
//! Code that drives the primitives from plain OS threads (the
//! `Threads` executor, unit tests spawning `std::thread`) is untouched:
//! without a fiber context `wait` sleeps on the site's condvar. That
//! branch of `wait` is the only place anything sleeps on a wait site's
//! condvar, and it counts the threads inside it, so the notify path
//! (`notify_one` / `notify_all`) signals a condvar only when a
//! thread can be asleep on one: a run on fibers makes no futex call per
//! message, meeting or gate state change.
//!
//! # What stays identical
//!
//! Virtual time. The simulation's timestamps are a pure function of
//! configuration — deterministic under *any* host interleaving (the
//! regress gate enforces it; the one-thread-per-rank executor is the
//! existence proof) — and each scheduler merely picks one interleaving.
//! The deterministic merge points are the existing primitives:
//! rendezvous completion is `max` over entry clocks, and every
//! shared-resource admission is ordered by the virtual-time key
//! `(arrival, rank, seq)` in the progress registry, not by host arrival
//! order. [`run_cluster`](crate::run_cluster) consults [`executor`]:
//! `Fibers` (the default on x86_64) or `Threads` (every other
//! architecture, nested clusters, or [`set_executor`] — the oracle the
//! determinism tests compare against; the two must produce
//! bitwise-identical virtual times).
//!
//! # Deadlock detection
//!
//! Because only runnable fibers are ever queued, a deadlock is an exact
//! condition rather than a timeout: the run queue is empty while fibers
//! remain. Only a running fiber can wake another, so nothing is in
//! flight either, and the scheduler calls the stall callback (which
//! poisons the cluster) on the spot. Poisoning — by a stall or by a
//! rank panic — re-queues every parked fiber once, so each one observes
//! the poison flag in its wait loop and unwinds; a queue that runs dry
//! a second time aborts the run.
//!
//! # Safety notes
//!
//! The context switch is a few instructions of x86_64 assembly: push
//! the callee-saved registers, swap the stack pointer, pop, return. No
//! other architecture has one; there, ranks run on OS threads. Panics
//! never cross the assembly boundary —
//! each fiber body runs under `catch_unwind` and the payload is carried
//! back to the scheduler by value, mirroring `JoinHandle::join`. Fiber
//! stacks have no OS guard page; a canary word at the stack base turns
//! silent overflow corruption into a loud panic at fiber completion.
//! Fibers never leave the scheduler's thread, so each fiber's stack and
//! progress context are only ever touched by that thread.
//! A finished run's stacks are kept for the next run of the process
//! (`STACK_POOL`) rather than freed: a stack is a megabyte of which a
//! rank touches the top few pages, and such holes in the allocator's
//! free lists made a process's resident size depend on the order the
//! previous run happened to free its memory in.

use crate::rendezvous::PoisonFlag;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which substrate [`crate::run_cluster`] runs ranks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// Cooperative fibers on the calling thread (default on x86_64).
    Fibers,
    /// One OS thread per rank (fallback; always available).
    Threads,
}

/// 0 = unresolved, 1 = fibers, 2 = threads.
static EXECUTOR: AtomicU8 = AtomicU8::new(0);

/// True when fiber switching is implemented for this architecture: x86_64
/// only. Every other architecture runs [`Executor::Threads`].
const ARCH_SUPPORTED: bool = cfg!(target_arch = "x86_64");

/// Select the executor for subsequent [`crate::run_cluster`] calls.
/// Requesting `Fibers` on an unsupported architecture silently keeps
/// `Threads`.
pub fn set_executor(e: Executor) {
    let v = match e {
        Executor::Fibers if ARCH_SUPPORTED => 1,
        _ => 2,
    };
    EXECUTOR.store(v, Ordering::Relaxed);
}

/// The currently selected executor: fibers where supported, unless
/// [`set_executor`] chose otherwise.
pub fn executor() -> Executor {
    match EXECUTOR.load(Ordering::Relaxed) {
        2 => Executor::Threads,
        1 => Executor::Fibers,
        _ if ARCH_SUPPORTED => Executor::Fibers,
        _ => Executor::Threads,
    }
}

// The frozen `benchmark/src/child.rs` is this function's one caller; it
// goes when the benchmark is next editable.
#[doc(hidden)]
pub fn set_workers(n: usize) {
    assert!(
        n == 1,
        "simnet runs every rank of a cluster on the calling thread; \
         {n} workers were asked for (DESIGN.md §9.1: the sharded executor was removed)"
    );
}

// ---------------------------------------------------------------------
// Context switch
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod arch {
    // simnet_fiber_switch(save: *mut usize, restore: *const usize)
    //
    // System V AMD64: saves the suspending context's callee-saved
    // registers on its own stack and stores its rsp through `save`
    // (rdi); loads rsp from `restore` (rsi) and pops the resuming
    // context's registers. The caller-saved half of the register file is
    // handled by the compiler because this is an ordinary `extern "C"`
    // call. `ret` then resumes the target — either past its own
    // `simnet_fiber_switch` call or, for a fresh fiber, into the entry
    // trampoline address planted by `init_frame`.
    std::arch::global_asm!(
        ".globl simnet_fiber_switch",
        ".hidden simnet_fiber_switch",
        "simnet_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    );

    unsafe extern "C" {
        pub(super) fn simnet_fiber_switch(save: *mut usize, restore: *const usize);
    }

    /// Switch away from the current context: store its rsp in `save`,
    /// resume the context whose rsp is in `restore`.
    ///
    /// # Safety
    /// `restore` must hold an rsp produced by this function (or by
    /// `init_frame`), on a stack that is still alive.
    pub(super) unsafe fn switch(save: *mut usize, restore: *const usize) {
        unsafe { simnet_fiber_switch(save, restore) }
    }

    /// Lay out a fresh fiber's initial frame below the 16-aligned stack
    /// `top` so that restoring from the returned rsp pops six zeroed
    /// callee-saved registers and `ret`s into `entry` with the stack
    /// alignment of a freshly `call`ed function. The slot above, where
    /// `entry`'s own return address would sit, is zeroed: `entry` never
    /// returns, but a stack walk (a panic under `RUST_BACKTRACE=1`)
    /// reads it, and the unwinder ends the walk at a null return address
    /// where it would chase leftover heap bytes.
    ///
    /// # Safety
    /// `top` must be the 16-aligned top of a live allocation with at
    /// least 64 bytes below it.
    pub(super) unsafe fn init_frame(top: usize, entry: usize) -> usize {
        unsafe {
            let ret_slot = top - 16; // 16-aligned => rsp ≡ 8 (mod 16) at entry
            (ret_slot as *mut usize).write(entry);
            ((top - 8) as *mut usize).write(0);
            let rsp = ret_slot - 6 * 8;
            std::ptr::write_bytes(rsp as *mut u8, 0, 6 * 8);
            rsp
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod arch {
    /// Not x86_64: `executor()` never selects fibers, so this is
    /// unreachable.
    pub(super) unsafe fn switch(_save: *mut usize, _restore: *const usize) {
        unreachable!("fiber executor is not supported on this architecture")
    }

    /// Unreachable twin of the x86_64 `init_frame`.
    pub(super) unsafe fn init_frame(_top: usize, _entry: usize) -> usize {
        unreachable!("fiber executor is not supported on this architecture")
    }
}

// ---------------------------------------------------------------------
// Fiber stacks
// ---------------------------------------------------------------------

/// Magic planted at the low end of every fiber stack; checked when the
/// fiber completes to catch silent overflows (heap stacks have no guard
/// page).
const STACK_CANARY: u64 = 0x5A5A_F1BE_5A5A_F1BE;

struct StackMem {
    base: *mut u8,
    layout: std::alloc::Layout,
}

// SAFETY: a `StackMem` owns its allocation exclusively; between runs it
// is plain memory nothing points into.
unsafe impl Send for StackMem {}

/// Stacks of finished runs, kept for the next run of the process. A
/// rank touches the top few pages of its stack and nothing below, so a
/// *freed* stack is a megabyte-wide hole of mostly untouched pages in
/// the allocator's free lists: whatever lands there next — the next
/// run's stacks at other offsets, or anything else — touches new pages,
/// and the resident size of a process that runs clusters back to back
/// then depends on the order the previous run freed its memory in (the
/// file-system seed moved one workload's peak RSS by a fifth). A kept
/// stack is reused by the same rank of the next run, pages and all. The
/// pool never holds more stacks than were live at once.
static STACK_POOL: Mutex<Vec<StackMem>> = Mutex::new(Vec::new());

impl StackMem {
    fn new(size: usize) -> Self {
        // 16-byte alignment satisfies both ABIs; size floor keeps the
        // canary + initial frame sane.
        let size = size.max(16 * 1024) & !15;
        let pooled = {
            let mut pool = STACK_POOL.lock();
            pool.iter()
                .rposition(|s| s.layout.size() == size)
                .map(|i| pool.remove(i))
        };
        let stack = pooled.unwrap_or_else(|| {
            let layout =
                std::alloc::Layout::from_size_align(size, 16).expect("valid stack layout");
            let base = unsafe { std::alloc::alloc(layout) };
            assert!(!base.is_null(), "fiber stack allocation failed");
            StackMem { base, layout }
        });
        unsafe { (stack.base as *mut u64).write(STACK_CANARY) };
        stack
    }

    /// Keep the stack of a finished fiber for a later run. Release a
    /// run's stacks last fiber first: [`StackMem::new`] takes the most
    /// recently kept one, so fiber `i` of the next run gets the stack
    /// fiber `i` had.
    fn recycle(self) {
        STACK_POOL.lock().push(self);
    }

    /// Plant the architecture-specific initial frame; restoring from the
    /// returned stack pointer resumes into `entry`.
    fn prepare(&self, entry: extern "C" fn() -> !) -> usize {
        let top = (self.base as usize + self.layout.size()) & !15;
        unsafe { arch::init_frame(top, entry as usize) }
    }

    fn canary_intact(&self) -> bool {
        unsafe { (self.base as *const u64).read() == STACK_CANARY }
    }
}

impl Drop for StackMem {
    fn drop(&mut self) {
        unsafe { std::alloc::dealloc(self.base, self.layout) };
    }
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

/// Why a fiber switched back to the scheduler.
enum Action {
    /// Blocked in [`wait`]; off the run queue until woken.
    Parked,
    /// The body returned (or unwound); never resume.
    Done,
}

/// [`Parker::state`]: queued and not yet woken again, or mid-slice.
const RUNNING: u8 = 0;
/// [`Parker::state`]: off every queue; the next wake re-queues the fiber.
const PARKED: u8 = 1;
/// [`Parker::state`]: woken — already queued, or still mid-slice and to
/// be re-queued the moment it parks.
const NOTIFIED: u8 = 2;

/// One fiber's wake handle. A blocking rank leaves a clone in the wait
/// site's slot (under the site's lock); whoever satisfies the wait takes
/// it out and calls [`wake`](Parker::wake).
pub(crate) struct Parker {
    /// [`RUNNING`] / [`PARKED`] / [`NOTIFIED`]. The scheduler stores
    /// `PARKED` only after the switch away from the fiber has completed,
    /// so a waker that reads `PARKED` re-queues a fully suspended fiber;
    /// every other transition is a swap.
    state: AtomicU8,
    /// [`RUN`] of the scheduler loop that owns the fiber.
    run: usize,
    /// The fiber's index in that loop (its rank).
    idx: usize,
}

/// Shared handle to a [`Parker`].
pub(crate) type Waker = Arc<Parker>;

impl Parker {
    /// Make the fiber runnable. Idempotent until the fiber runs again;
    /// on a fiber that is mid-slice it leaves a notification the
    /// scheduler turns into a re-queue.
    ///
    /// # Panics
    /// When the calling thread is not running the scheduler loop the
    /// fiber belongs to: the run queue is that thread's alone.
    pub(crate) fn wake(&self) {
        assert!(
            RUN.with(Cell::get) == self.run,
            "fiber {} woken from a thread that is not running its scheduler: \
             only a fiber of the same cluster run may wake another",
            self.idx
        );
        if self.state.swap(NOTIFIED, Ordering::AcqRel) == PARKED {
            RUNQ.with(|q| q.borrow_mut().push_back(self.idx));
        }
    }
}

/// Wake and clear the waiter registered in `slot`, if any: the fiber
/// half of a notify. The thread half is [`notify_one`] / [`notify_all`]
/// on the site's condvar.
pub(crate) fn wake(slot: &mut Option<Waker>) {
    if let Some(w) = slot.take() {
        w.wake();
    }
}

/// OS threads asleep in [`wait`]'s condvar branch, process-wide. One
/// counter for every wait site of every cluster: the condvars themselves
/// exist per rank and per (rank, rank) pair, where eight more bytes each
/// are megabytes per cluster.
static SLEEPERS: AtomicUsize = AtomicUsize::new(0);

/// True when some thread may be asleep on a wait site's condvar. The
/// vendored `Condvar` is `std`'s, whose notify is an unconditional
/// `FUTEX_WAKE`; under the fiber executor nobody ever sleeps there, and
/// a system call per message, per meeting and per gate state change was
/// a quarter of an I/O-bound run's host time.
///
/// Exact for the caller's own site: a sleeper counts itself under the
/// site's lock before its wait releases that lock, and every notifier
/// changes the site's state under the same lock first. So either the
/// notifier's critical section came second and sees the count, or it
/// came first and the sleeper sees the new state and does not sleep.
fn any_sleeper() -> bool {
    SLEEPERS.load(Ordering::SeqCst) != 0
}

/// The thread half of a notify: signal one thread asleep on `cv` in
/// [`wait`], if any thread sleeps anywhere.
pub(crate) fn notify_one(cv: &Condvar) {
    if any_sleeper() {
        simtrace::host::count(simtrace::host::Counter::CondvarNotify, 1);
        cv.notify_one();
    }
}

/// [`notify_one`] for sites several ranks wait on.
pub(crate) fn notify_all(cv: &Condvar) {
    if any_sleeper() {
        simtrace::host::count(simtrace::host::Counter::CondvarNotify, 1);
        cv.notify_all();
    }
}

/// Per-fiber runtime shared between the scheduler and the fiber itself
/// (via the thread-local [`CURRENT`] pointer). Boxed so its address is
/// stable across scheduler Vec reallocation.
struct FiberRt {
    /// Fiber's stack pointer while suspended.
    fiber_rsp: usize,
    /// Scheduler's stack pointer while the fiber runs.
    sched_rsp: usize,
    action: Action,
    parker: Waker,
    /// The body; taken by the entry trampoline on first resume.
    entry: Option<Box<dyn FnOnce()>>,
    /// Panic payload captured by the trampoline's `catch_unwind`.
    panic: Option<Box<dyn Any + Send>>,
    /// The rank's progress context, parked here while the fiber is
    /// suspended (thread-locals are per OS thread, not per fiber, so the
    /// scheduler swaps it in and out around every switch).
    saved_ctx: Option<crate::progress::Ctx>,
}

thread_local! {
    /// The fiber currently running on this thread, if any.
    static CURRENT: Cell<*mut FiberRt> = const { Cell::new(std::ptr::null_mut()) };
    /// Which [`run_fibers`] loop runs on this thread (0 = none): lets a
    /// wake check that it is pushing onto its own scheduler's queue.
    static RUN: Cell<usize> = const { Cell::new(0) };
    /// That loop's run queue (fiber indices). Thread-local so a wake
    /// issued from inside a running fiber can push without a lock.
    static RUNQ: RefCell<VecDeque<usize>> = const { RefCell::new(VecDeque::new()) };
}

/// True when the calling code runs inside a fiber.
pub(crate) fn in_fiber() -> bool {
    CURRENT.with(|c| !c.get().is_null())
}

/// Switch the current fiber out; it runs again once woken.
fn park() {
    let rt = CURRENT.with(Cell::get);
    assert!(!rt.is_null(), "park outside a fiber");
    // SAFETY: `rt` is the live `FiberRt` the scheduler installed before
    // resuming this fiber, and `sched_rsp` was saved by that resume.
    unsafe {
        (*rt).action = Action::Parked;
        arch::switch(&raw mut (*rt).fiber_rsp, &raw const (*rt).sched_rsp);
    }
}

/// How long a blocked OS thread sleeps between poison checks. Purely a
/// liveness knob for failure cases; correct runs are woken by notify.
pub(crate) const POISON_POLL: Duration = Duration::from_millis(50);

/// The one blocking primitive of the substrate: release `guard`, block
/// until the wait site notifies this rank, re-acquire. Callers loop on
/// their own condition; a return is a hint, not a guarantee. Returns
/// `false` only for a thread's poll timeout. Panics if the cluster is
/// poisoned before or after blocking.
///
/// Under fibers the rank's [`Waker`] goes into `slot` — part of the
/// state `guard` protects, so the notifier, which takes it under the
/// same lock, can never miss it — and the fiber leaves the run queue.
/// Under OS threads the rank sleeps on `cv` — the only place anything
/// sleeps on a wait site's condvar — and is counted while it does, so
/// the same notifier's [`notify_one`] / [`notify_all`] know whether a
/// signal can have a receiver.
pub(crate) fn wait<T>(
    cv: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    slot: impl FnOnce(&mut T) -> &mut Option<Waker>,
    poison: &PoisonFlag,
) -> bool {
    poison.check();
    let rt = CURRENT.with(Cell::get);
    let notified = if rt.is_null() {
        // Counted while `guard` is still held; see `any_sleeper`.
        SLEEPERS.fetch_add(1, Ordering::SeqCst);
        let timed_out = cv.wait_for(guard, POISON_POLL).timed_out();
        SLEEPERS.fetch_sub(1, Ordering::SeqCst);
        !timed_out
    } else {
        // SAFETY: non-null `CURRENT` is the running fiber's live state.
        *slot(guard) = Some(Arc::clone(unsafe { &(*rt).parker }));
        MutexGuard::unlocked(guard, park);
        true
    };
    poison.check();
    notified
}

/// First frame of every fiber: runs the body under `catch_unwind`, then
/// switches back to the scheduler for good.
extern "C" fn fiber_main() -> ! {
    let rt = CURRENT.with(Cell::get);
    debug_assert!(!rt.is_null(), "fiber_main outside a fiber");
    unsafe {
        let body = (*rt).entry.take().expect("fiber body present on first resume");
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            (*rt).panic = Some(payload);
        }
        (*rt).action = Action::Done;
        let mut discard = 0usize;
        arch::switch(&raw mut discard, &raw const (*rt).sched_rsp);
    }
    unreachable!("completed fiber resumed")
}

/// Source of [`RUN`] ids: one per [`run_fibers`] call, never reused, so
/// a handle that outlives its run matches no later one.
static NEXT_RUN: AtomicUsize = AtomicUsize::new(1);

/// Run `tasks` as cooperatively-scheduled fibers on the calling thread
/// until all complete, resuming only those that are runnable; returns
/// each task's panic payload (`None` = clean return), index-aligned
/// with `tasks`. No thread is spawned, so thread-local caches stay warm
/// across runs.
///
/// `on_stall` is invoked once if the fiber set deadlocks (fibers remain
/// and none is runnable — see the module docs). It is expected to
/// poison the cluster; the scheduler then re-queues every parked fiber
/// so each panics out of its wait loop.
pub(crate) fn run_fibers<'a>(
    tasks: Vec<Box<dyn FnOnce() + 'a>>,
    stack_size: usize,
    on_stall: impl Fn(),
) -> Vec<Option<Box<dyn Any + Send>>> {
    assert!(
        !in_fiber(),
        "nested fiber executors on one thread are not supported"
    );
    let run = NEXT_RUN.fetch_add(1, Ordering::Relaxed);
    let mut fibers: Vec<(StackMem, Box<FiberRt>)> = Vec::with_capacity(tasks.len());
    for (idx, task) in tasks.into_iter().enumerate() {
        // SAFETY: every fiber completes before this function returns (the
        // loop below runs until none is unfinished, or panics with the
        // bodies still owned by `fibers`), so the borrowed body cannot
        // outlive `'a` behind its `'static` trait object.
        let body: Box<dyn FnOnce() + 'static> =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + 'a>, _>(task) };
        let stack = StackMem::new(stack_size);
        let rt = Box::new(FiberRt {
            fiber_rsp: stack.prepare(fiber_main),
            sched_rsp: 0,
            action: Action::Parked,
            parker: Arc::new(Parker {
                state: AtomicU8::new(RUNNING),
                run,
                idx,
            }),
            entry: Some(body),
            panic: None,
            saved_ctx: None,
        });
        fibers.push((stack, rt));
    }
    let mut panics: Vec<Option<Box<dyn Any + Send>>> = fibers.iter().map(|_| None).collect();
    // A loop that unwinds leaves its id behind; only a thread running a
    // loop — which sets it afresh — ever issues a wake.
    RUN.with(|r| r.set(run));
    RUNQ.with(|q| {
        let mut q = q.borrow_mut();
        q.clear();
        q.extend(0..fibers.len());
    });
    let mut unfinished = fibers.len();
    // A rank panicked: its poison guard has already flagged the cluster.
    let mut poisoned = false;
    // The parked fibers were re-queued to observe the poison flag.
    let mut requeued = false;
    // hostprof: the whole scheduler loop is one frame; fiber slices nest
    // inside it, so this frame's self time is pure scheduling overhead
    // (run-queue churn and context-switch cost).
    let _sched_scope = simtrace::host::scope(simtrace::host::Site::FiberSched);
    while unfinished > 0 {
        let Some(idx) = RUNQ.with(|q| q.borrow_mut().pop_front()) else {
            // Nothing is runnable and only a running fiber could change
            // that: a deadlock, unless a panic poisoned the cluster and
            // the parked fibers have yet to be told.
            assert!(
                !requeued,
                "fiber deadlock: {unfinished} fibers still blocked after poisoning"
            );
            if !poisoned {
                on_stall();
            }
            requeued = true;
            for (_, rt) in &fibers {
                rt.parker.wake();
            }
            continue;
        };
        let (stack, rt) = &mut fibers[idx];
        rt.parker.state.store(RUNNING, Ordering::Release);
        let rtp: *mut FiberRt = &mut **rt;
        // hostprof: time one slice (resume -> suspend). The guard is
        // created and dropped on the scheduler side of the switch, so
        // it never spans a park; probes inside the fiber body nest
        // under this frame because fibers share the thread-local
        // profiler stack.
        let run_scope = simtrace::host::scope(simtrace::host::Site::FiberRun);
        unsafe {
            crate::progress::tl_set((*rtp).saved_ctx.take());
            CURRENT.with(|c| c.set(rtp));
            arch::switch(&raw mut (*rtp).sched_rsp, &raw const (*rtp).fiber_rsp);
            CURRENT.with(|c| c.set(std::ptr::null_mut()));
            (*rtp).saved_ctx = crate::progress::tl_take();
        }
        drop(run_scope);
        match rt.action {
            Action::Parked => {
                // The fiber is fully switched out only now. A wake that
                // found it mid-slice left NOTIFIED behind: run it again.
                let parked = rt.parker.state.compare_exchange(
                    RUNNING,
                    PARKED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                if parked.is_err() {
                    RUNQ.with(|q| q.borrow_mut().push_back(idx));
                }
            }
            Action::Done => {
                unfinished -= 1;
                assert!(
                    stack.canary_intact(),
                    "fiber {idx} overflowed its {stack_size}-byte stack \
                     (canary clobbered); raise ClusterConfig::stack_size"
                );
                panics[idx] = rt.panic.take();
                poisoned |= panics[idx].is_some();
            }
        }
    }
    RUN.with(|r| r.set(0));
    for (stack, _) in fibers.into_iter().rev() {
        stack.recycle();
    }
    panics
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32};

    type Task<'a> = Box<dyn FnOnce() + 'a>;
    type Panics = Vec<Option<Box<dyn Any + Send>>>;

    /// The running fiber's wake handle.
    fn current_waker() -> Waker {
        let rt = CURRENT.with(Cell::get);
        assert!(!rt.is_null(), "current_waker outside a fiber");
        Arc::clone(unsafe { &(*rt).parker })
    }

    /// Round-robin yield for the scheduler tests: a fiber that wakes
    /// itself and parks is re-queued behind the other runnable fibers.
    fn yield_now() {
        current_waker().wake();
        park();
    }

    /// Run with small stacks, no stall expected.
    fn run(tasks: Vec<Task<'_>>) -> Panics {
        run_fibers(tasks, 64 * 1024, || panic!("unexpected stall"))
    }

    fn payload_str(p: &Option<Box<dyn Any + Send>>) -> Option<&str> {
        p.as_ref().and_then(|p| p.downcast_ref::<&str>().copied())
    }

    #[test]
    fn fibers_run_to_completion_in_order() {
        let log = Mutex::new(Vec::new());
        let tasks: Vec<Task> = (0..4)
            .map(|i| {
                let log = &log;
                Box::new(move || log.lock().push(i)) as Task
            })
            .collect();
        assert!(run(tasks).iter().all(Option::is_none));
        assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn yielding_interleaves_round_robin() {
        let log = Mutex::new(Vec::new());
        let tasks: Vec<Task> = (0..3)
            .map(|i| {
                let log = &log;
                Box::new(move || {
                    for step in 0..3 {
                        log.lock().push((i, step));
                        yield_now();
                    }
                }) as Task
            })
            .collect();
        run(tasks);
        // Steps proceed in lockstep: all fibers' step 0, then step 1, ...
        let expect: Vec<(usize, usize)> =
            (0..3).flat_map(|s| (0..3).map(move |i| (i, s))).collect();
        assert_eq!(*log.lock(), expect);
    }

    #[test]
    fn panic_is_captured_on_the_right_index_not_propagated() {
        let tasks: Vec<Task> = vec![
            Box::new(yield_now),
            Box::new(|| panic!("fiber boom")),
            Box::new(|| {}),
        ];
        let panics = run(tasks);
        assert!(panics[0].is_none());
        assert_eq!(payload_str(&panics[1]), Some("fiber boom"));
        assert!(panics[2].is_none());
    }

    #[test]
    fn backtrace_from_a_fiber_ends_at_its_base_frame() {
        // A panic under RUST_BACKTRACE=1 walks the whole stack. Hand the
        // allocator dirty memory first, so the walk past `fiber_main`
        // reads a planted end-of-stack marker, not leftover bytes.
        drop(std::hint::black_box(vec![0xAAu8; 64 * 1024]));
        let tasks: Vec<Task> = vec![Box::new(|| {
            let bt = std::backtrace::Backtrace::force_capture();
            assert_eq!(bt.status(), std::backtrace::BacktraceStatus::Captured);
        })];
        assert!(run(tasks)[0].is_none());
    }

    #[test]
    fn deep_stack_use_within_bounds_is_fine() {
        fn burn(depth: usize) -> usize {
            let pad = [depth as u8; 64];
            if depth == 0 {
                pad[0] as usize
            } else {
                burn(depth - 1) + pad.len()
            }
        }
        let tasks: Vec<Task> = vec![Box::new(|| {
            assert_eq!(burn(100), 6400);
        })];
        let panics = run_fibers(tasks, 256 * 1024, || panic!("stall"));
        assert!(panics[0].is_none());
    }

    #[test]
    fn a_later_run_gets_the_stacks_of_an_earlier_one_fiber_for_fiber() {
        // The pool is process-wide and matches by size: a size no other
        // test asks for keeps this one's stacks to itself.
        const SIZE: usize = 80 * 1024 + 16;
        let frames_of = |fibers: usize| {
            let frames = Mutex::new(vec![0usize; fibers]);
            let tasks: Vec<Task> = (0..fibers)
                .map(|i| {
                    let frames = &frames;
                    Box::new(move || {
                        let local = 0u8;
                        frames.lock()[i] = std::hint::black_box(&local) as *const u8 as usize;
                    }) as Task
                })
                .collect();
            let panics = run_fibers(tasks, SIZE, || panic!("stall"));
            assert!(panics.iter().all(Option::is_none));
            frames.into_inner()
        };
        let first = frames_of(4);
        assert_eq!(frames_of(4), first);
        // A smaller run takes the stacks of the first fibers, a larger
        // one allocates the difference.
        assert_eq!(frames_of(2), first[..2]);
        assert_eq!(frames_of(6)[..4], first);
    }

    #[test]
    fn deadlock_is_diagnosed_at_once_and_parked_fibers_are_requeued() {
        // One fiber parks on something nothing will signal. The stall
        // callback plays the poison role; the scheduler must re-queue
        // the fiber so it sees the flag — after exactly one diagnosis
        // and without the fiber being resumed in between.
        let flag = AtomicBool::new(false);
        let stalls = AtomicU32::new(0);
        let resumes = AtomicU32::new(0);
        let tasks: Vec<Task> = vec![Box::new(|| {
            while !flag.load(Ordering::Acquire) {
                park();
                resumes.fetch_add(1, Ordering::Relaxed);
            }
        })];
        let panics = run_fibers(tasks, 64 * 1024, || {
            stalls.fetch_add(1, Ordering::Relaxed);
            flag.store(true, Ordering::Release);
        });
        assert!(panics[0].is_none());
        assert_eq!(stalls.load(Ordering::Relaxed), 1);
        assert_eq!(
            resumes.load(Ordering::Relaxed),
            1,
            "a parked fiber is resumed only by a wake"
        );
    }

    #[test]
    #[should_panic(expected = "still blocked after poisoning")]
    fn fibers_that_ignore_the_poison_abort_the_scheduler() {
        let tasks: Vec<Task> = vec![Box::new(|| loop {
            park();
        })];
        run_fibers(tasks, 64 * 1024, || {});
    }

    #[test]
    fn executor_selection_round_trips() {
        let before = executor();
        set_executor(Executor::Threads);
        assert_eq!(executor(), Executor::Threads);
        set_executor(Executor::Fibers);
        if ARCH_SUPPORTED {
            assert_eq!(executor(), Executor::Fibers);
        } else {
            assert_eq!(executor(), Executor::Threads);
        }
        set_executor(before);
    }

    #[test]
    fn the_worker_count_shim_accepts_one_and_nothing_else() {
        set_workers(1);
        let refused = catch_unwind(|| set_workers(2)).expect_err("two workers must be refused");
        let msg = refused.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("DESIGN.md §9.1"), "{msg}");
    }

    /// A two-party turn counter built on [`wait`], the way the real
    /// wait sites are: the slot lives under the lock, the notifier takes
    /// it there.
    struct Turns {
        state: Mutex<(u32, Option<Waker>)>,
        cv: Condvar,
        poison: PoisonFlag,
    }

    impl Turns {
        fn new() -> Self {
            Turns {
                state: Mutex::new((0, None)),
                cv: Condvar::new(),
                poison: PoisonFlag::default(),
            }
        }

        /// Block until the counter's parity is `me`, then bump it.
        fn take_turn(&self, me: u32) {
            let mut st = self.state.lock();
            while st.0 % 2 != me {
                wait(&self.cv, &mut st, |s| &mut s.1, &self.poison);
            }
            st.0 += 1;
            notify_one(&self.cv);
            wake(&mut st.1);
        }
    }

    #[test]
    fn ping_pong_through_the_wait_primitive() {
        // Two ranks alternate turns; every turn is a park and a wake: on
        // fibers a push onto the run queue, on plain OS threads the same
        // primitive sleeps on the condvar instead.
        let turns = Turns::new();
        let tasks: Vec<Task> = (0..2u32)
            .map(|me| {
                let turns = &turns;
                Box::new(move || (0..25).for_each(|_| turns.take_turn(me))) as Task
            })
            .collect();
        assert!(run(tasks).iter().all(Option::is_none));
        assert_eq!(turns.state.lock().0, 50);
        let turns = Turns::new();
        std::thread::scope(|s| {
            for me in 0..2u32 {
                let turns = &turns;
                s.spawn(move || (0..25).for_each(|_| turns.take_turn(me)));
            }
        });
        assert_eq!(turns.state.lock().0, 50);
    }

    #[test]
    fn a_wake_from_a_foreign_thread_panics_instead_of_queueing() {
        // Fiber 0 publishes its waker and parks. Fiber 1 hands the waker
        // to a plain OS thread: that wake must panic there, naming the
        // violation, and leave fiber 0 parked until fiber 1 wakes it the
        // legitimate way (a stall here would mean it never was).
        let slot: Mutex<Option<Waker>> = Mutex::new(None);
        let tasks: Vec<Task> = vec![
            Box::new(|| {
                *slot.lock() = Some(current_waker());
                park();
            }),
            Box::new(|| {
                let w = slot.lock().take().expect("fiber 0 ran first and parked");
                let foreign = Arc::clone(&w);
                let refused = std::thread::spawn(move || foreign.wake())
                    .join()
                    .expect_err("a wake from outside the scheduler's thread must panic");
                let msg = refused.downcast_ref::<String>().expect("formatted panic message");
                assert!(msg.contains("not running its scheduler"), "{msg}");
                assert_eq!(w.state.load(Ordering::Acquire), PARKED);
                w.wake();
            }),
        ];
        assert!(run(tasks).iter().all(Option::is_none));
    }
}
