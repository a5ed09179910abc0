//! Cooperative fiber executor: the ranks of a cluster on one OS thread,
//! or sharded across a small pool of worker threads.
//!
//! # Why
//!
//! The simulator's unit of concurrency is a *rank*, and ranks spend most
//! of their host life blocked on each other: every rendezvous parks
//! `p - 1` ranks, every receive parks one. With one OS thread per rank,
//! each park/wake pair costs a futex syscall plus a kernel context switch
//! — measured at ~6 µs on a single-CPU host, which multiplied by the
//! hundreds of parks in even a quick figure run dwarfs the actual
//! simulation work. None of that parallelism is real: on one CPU the
//! threads strictly take turns anyway.
//!
//! A *fiber* (stackful coroutine) makes the turn-taking explicit. Every
//! rank gets its own heap-allocated stack, and a scheduler round-robins
//! them with a userspace context switch (~tens of nanoseconds: the
//! callee-saved registers and the stack pointer). A rank that would park
//! instead yields (`yield_now`); the peers it is waiting for run
//! immediately after, on the same thread.
//!
//! # Sharding
//!
//! ParColl subgroups are communication-independent by construction, so
//! their fibers can run on *different* worker threads with real
//! parallelism on a multi-core host. `run_fibers_sharded` partitions
//! the fiber set by a placement map (one worker per ParColl subgroup
//! block, by default contiguous rank blocks) and runs one scheduler
//! loop per worker. Cross-worker interactions — cluster-wide
//! rendezvous, mailbox traffic between subgroups, shared-OST admission
//! — go through the same mutex-protected wait sites as ever; a fiber
//! polling a condition another worker will satisfy simply yields until
//! the producing worker's store is visible under the lock.
//!
//! # What stays identical
//!
//! Virtual time. The simulation's timestamps are already a pure function
//! of configuration — deterministic under *any* host interleaving (the
//! regress gate enforces it; the one-thread-per-rank executor is the
//! existence proof) — and each scheduler merely picks one particular
//! interleaving. The deterministic merge points are the existing
//! primitives: rendezvous completion is `max` over entry clocks
//! (commutative, order-blind), and every shared-resource admission is
//! ordered by the virtual-time key `(arrival, rank, seq)` in the
//! progress registry, not by host arrival order. The blocking
//! primitives keep their mutex protocols; the only difference is *how*
//! a blocked rank waits (yield vs. condvar), selected per call site by
//! the private `in_fiber` probe.
//!
//! Code that drives the primitives from plain OS threads (unit tests
//! spawning `std::thread`) is untouched: without a fiber context the
//! wait sites fall back to their condition variables.
//!
//! # Executor selection
//!
//! [`run_cluster`](crate::run_cluster) consults [`executor`]: `Fibers`
//! (the default on x86_64 and aarch64) or `Threads` (other
//! architectures, nested clusters, or an explicit
//! `SIMNET_EXECUTOR=threads` / [`set_executor`] override — useful for
//! A/B-ing the two modes, which must produce bitwise-identical virtual
//! times). Orthogonally, [`workers`] (env `SIMNET_WORKERS`, default 1,
//! or [`set_workers`]) picks how many OS threads the fiber executor
//! shards ranks across.
//!
//! # Stall detection across workers
//!
//! A deadlock is "every fiber yielding, nothing moving". With one
//! worker that is one local judgment; with many it must be global — a
//! worker whose own fibers are all parked is *not* stalled while a
//! fiber on another worker is mid-slice and about to deliver. Each
//! worker therefore publishes an idle claim only after `STALL_CYCLES`
//! consecutive unproductive cycles, stamped with the `EVENTS` value
//! it observed; the stall callback fires only when every worker has
//! published a claim (or finished) and the global event counter still
//! equals every stamp — i.e. nothing has moved anywhere for as long as
//! the most recently idle worker has been spinning.
//!
//! # Safety notes
//!
//! The context switch is a few instructions of inline assembly per
//! architecture: push the callee-saved registers, swap the stack
//! pointer, pop, return. Panics never cross the assembly boundary —
//! each fiber body runs under `catch_unwind` and the payload is carried
//! back to the scheduler by value, mirroring `JoinHandle::join`. Fiber
//! stacks have no OS guard page; a canary word at the stack base turns
//! silent overflow corruption into a loud panic at fiber completion.
//! Fibers never migrate between workers, so each fiber's stack and
//! progress context are only ever touched by the worker that owns it.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Which substrate [`crate::run_cluster`] runs ranks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// Cooperative fibers on the calling thread, optionally sharded
    /// across [`workers`] worker threads (default on x86_64/aarch64).
    Fibers,
    /// One OS thread per rank (fallback; always available).
    Threads,
}

/// 0 = unresolved, 1 = fibers, 2 = threads.
static EXECUTOR: AtomicU8 = AtomicU8::new(0);

/// True when fiber switching is implemented for this architecture.
const ARCH_SUPPORTED: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

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

/// The currently selected executor. First use resolves the default:
/// `SIMNET_EXECUTOR=threads|fibers` if set, else fibers where supported.
pub fn executor() -> Executor {
    match EXECUTOR.load(Ordering::Relaxed) {
        1 => Executor::Fibers,
        2 => Executor::Threads,
        _ => {
            let e = match std::env::var("SIMNET_EXECUTOR").as_deref() {
                Ok("threads") => Executor::Threads,
                Ok("fibers") => Executor::Fibers,
                _ => Executor::Fibers,
            };
            set_executor(e);
            executor()
        }
    }
}

/// 0 = unresolved; otherwise the worker-thread count for the fiber
/// executor.
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-default worker count for subsequent
/// [`crate::run_cluster`] calls (clamped to ≥ 1). Virtual time is
/// bitwise identical for every value; workers only change which OS
/// threads host which fibers.
pub fn set_workers(n: usize) {
    WORKERS.store(n.max(1), Ordering::Relaxed);
}

/// The process-default fiber-executor worker count. First use resolves
/// `SIMNET_WORKERS=<n>` if set, else 1 (the classic single-threaded
/// scheduler).
pub fn workers() -> usize {
    match WORKERS.load(Ordering::Relaxed) {
        0 => {
            let n = std::env::var("SIMNET_WORKERS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1);
            set_workers(n);
            n
        }
        n => n,
    }
}

/// Global event counter for stall detection: bumped by every operation
/// that can unblock a waiter (packet delivery, rendezvous arrival,
/// progress-registry transition). A full scheduler cycle in which every
/// fiber yields and this counter stays put means nobody on that worker
/// could make progress; all workers observing that simultaneously means
/// a genuine deadlock rather than ordinary waiting.
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Record an unblocking-relevant event (cheap relaxed increment).
pub(crate) fn note_event() {
    EVENTS.fetch_add(1, Ordering::Relaxed);
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

#[cfg(target_arch = "aarch64")]
mod arch {
    // simnet_fiber_switch(save: *mut usize, restore: *const usize)
    //
    // AAPCS64: the callee-saved state is x19–x28, the frame pointer
    // (x29), the link register (x30) and the low halves of v8–v15
    // (d8–d15) — 160 bytes, kept 16-aligned as the ABI requires of sp
    // at all times. The suspending context stores them on its own stack
    // and its sp through `save` (x0); the resuming context's sp is
    // loaded from `restore` (x1) and its registers popped. `ret`
    // branches to the restored x30 — either past the resuming context's
    // own call, or into the entry trampoline planted by `init_frame`
    // for a fresh fiber.
    std::arch::global_asm!(
        ".globl simnet_fiber_switch",
        ".hidden simnet_fiber_switch",
        "simnet_fiber_switch:",
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "ldr x9, [x1]",
        "mov sp, x9",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    );

    unsafe extern "C" {
        pub(super) fn simnet_fiber_switch(save: *mut usize, restore: *const usize);
    }

    /// See the x86_64 twin.
    ///
    /// # Safety
    /// `restore` must hold an sp produced by this function (or by
    /// `init_frame`), on a stack that is still alive.
    pub(super) unsafe fn switch(save: *mut usize, restore: *const usize) {
        unsafe { simnet_fiber_switch(save, restore) }
    }

    /// Lay out a fresh fiber's initial frame: a full 160-byte save area
    /// of zeroed registers with `entry` in the x30 slot, so the restore
    /// path of `simnet_fiber_switch` `ret`s into the trampoline with
    /// sp == `top` (16-aligned, as AAPCS64 demands).
    ///
    /// # Safety
    /// `top` must be the 16-aligned top of a live allocation with at
    /// least 160 bytes below it.
    pub(super) unsafe fn init_frame(top: usize, entry: usize) -> usize {
        unsafe {
            let sp = top - 160;
            std::ptr::write_bytes(sp as *mut u8, 0, 160);
            ((sp + 88) as *mut usize).write(entry); // x30 slot of the frame
            sp
        }
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod arch {
    /// Unsupported architecture: `executor()` never selects fibers, so
    /// this is unreachable.
    pub(super) unsafe fn switch(_save: *mut usize, _restore: *const usize) {
        unreachable!("fiber executor is not supported on this architecture")
    }

    /// Unreachable twin of the supported architectures' `init_frame`.
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

impl StackMem {
    fn new(size: usize) -> Self {
        // 16-byte alignment satisfies both ABIs; size floor keeps the
        // canary + initial frame sane.
        let size = size.max(16 * 1024) & !15;
        let layout = std::alloc::Layout::from_size_align(size, 16).expect("valid stack layout");
        let base = unsafe { std::alloc::alloc(layout) };
        assert!(!base.is_null(), "fiber stack allocation failed");
        unsafe { (base as *mut u64).write(STACK_CANARY) };
        StackMem { base, layout }
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Blocked in a wait site; re-run it later.
    Yielded,
    /// The body returned (or unwound); never resume.
    Done,
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
}

/// True when the calling code runs inside a fiber — wait sites use this
/// to pick cooperative yielding over condvar parking.
pub(crate) fn in_fiber() -> bool {
    CURRENT.with(|c| !c.get().is_null())
}

/// Yield the current fiber back to the scheduler; it will be re-run
/// after the other runnable fibers. Must only be called [`in_fiber`].
pub(crate) fn yield_now() {
    let rt = CURRENT.with(Cell::get);
    assert!(!rt.is_null(), "yield_now outside a fiber");
    unsafe {
        (*rt).action = Action::Yielded;
        arch::switch(&raw mut (*rt).fiber_rsp, &raw const (*rt).sched_rsp);
    }
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

/// Consecutive fully-unproductive scheduler cycles a worker tolerates
/// before publishing an idle claim (generous: ordinary waiting always
/// produces events every cycle).
const STALL_CYCLES: u64 = 1000;
/// Additional unproductive cycles after the stall callback before the
/// scheduler aborts hard (the callback is expected to poison the cluster,
/// which makes every waiting fiber panic and drain within one cycle).
const ABORT_CYCLES: u64 = 100_000;

/// Idle-slot sentinel: the worker has not published an idle claim.
const NOT_IDLE: u64 = u64::MAX;
/// Idle-slot sentinel: the worker drained its run queue and exited; it
/// counts as permanently idle for the all-idle stall condition (a
/// deadlock among the remaining workers must still be diagnosed).
const FINISHED: u64 = u64::MAX - 1;

/// Stall-detection state shared by the workers of one fiber run. With
/// one worker this reduces exactly to the classic single-threaded
/// detector: the all-idle condition is the worker's own idle claim and
/// the event stamp is trivially current.
struct StallCoord<'a, F: Fn() -> bool> {
    /// Per-worker idle slots: [`NOT_IDLE`], [`FINISHED`], or the
    /// `EVENTS` value the worker observed across its last
    /// `STALL_CYCLES` unproductive cycles.
    slots: Vec<AtomicU64>,
    /// Bumped when a stall diagnosis is deferred (fault timer in
    /// flight); every worker re-arms its detector on observing a bump.
    defer_epoch: AtomicU64,
    /// Set once the stall callback acknowledged a genuine deadlock.
    stalled: AtomicBool,
    /// Serializes stall firing so `on_stall` runs at most once per
    /// diagnosis.
    fire: parking_lot::Mutex<()>,
    on_stall: &'a F,
}

impl<'a, F: Fn() -> bool> StallCoord<'a, F> {
    fn new(workers: usize, on_stall: &'a F) -> Self {
        StallCoord {
            slots: (0..workers).map(|_| AtomicU64::new(NOT_IDLE)).collect(),
            defer_epoch: AtomicU64::new(0),
            stalled: AtomicBool::new(false),
            fire: parking_lot::Mutex::new(()),
            on_stall,
        }
    }

    /// True when every worker has published an idle claim (or finished)
    /// and the global event counter still equals every claim's stamp —
    /// nothing has moved anywhere since the most recent claim.
    fn all_idle(&self) -> bool {
        let events_now = EVENTS.load(Ordering::SeqCst);
        self.slots.iter().all(|s| {
            let v = s.load(Ordering::Acquire);
            v == FINISHED || v == events_now
        })
    }

    /// Called by a worker whose own detector tripped. Fires `on_stall`
    /// at most once per diagnosis, and only if the stall is global.
    fn maybe_fire(&self) {
        if self.stalled.load(Ordering::Relaxed) || !self.all_idle() {
            return;
        }
        let _g = self.fire.lock();
        if self.stalled.load(Ordering::Relaxed) {
            return;
        }
        // Re-check under the lock after a scheduling gap: event counters
        // are bumped just *after* the producing mutation's lock is
        // released, so there is a nanoseconds-wide window in which a
        // worker can have made progress the counter does not show yet.
        std::thread::yield_now();
        if !self.all_idle() {
            return;
        }
        if (self.on_stall)() {
            self.stalled.store(true, Ordering::Release);
        } else {
            // Deferred (e.g. a fault-injection timer is outstanding):
            // every worker — including the one firing — re-arms its
            // detector from scratch on observing the epoch bump.
            self.defer_epoch.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// Park politely between unproductive cycles of a multi-worker run: an
/// idle worker's fibers are waiting on another worker, and burning the
/// core spinning steals it from the worker that could unblock them
/// (fatal on a single-CPU host). The sleep stays small enough that
/// stall detection still fires within tens of milliseconds.
#[inline]
fn idle_backoff(unproductive: u64) {
    if unproductive > 256 {
        std::thread::sleep(std::time::Duration::from_micros(50));
    } else if unproductive > 2 {
        std::thread::yield_now();
    }
}

/// One worker's scheduler loop: round-robin the fibers in `fibers`
/// (pairs of global task index and fiber state) to completion, feeding
/// the shared stall coordinator. Returns each fiber's panic payload
/// keyed by its global index.
fn worker_loop<F: Fn() -> bool>(
    me: usize,
    mut fibers: Vec<(usize, StackMem, Box<FiberRt>)>,
    stack_size: usize,
    coord: &StallCoord<'_, F>,
) -> Vec<(usize, Option<Box<dyn Any + Send>>)> {
    let multi = coord.slots.len() > 1;
    let mut runq: std::collections::VecDeque<usize> = (0..fibers.len()).collect();
    let mut out: Vec<(usize, Option<Box<dyn Any + Send>>)> =
        fibers.iter().map(|(g, _, _)| (*g, None)).collect();
    let mut unproductive = 0u64;
    let mut idle_claimed = false;
    let mut seen_epoch = coord.defer_epoch.load(Ordering::Acquire);
    // hostprof: the whole scheduler loop is one frame per worker; fiber
    // slices nest inside it, so this frame's self time is pure
    // scheduling overhead (run-queue churn, context-switch cost, stall
    // detection, cross-worker idle backoff).
    let _sched_scope = simtrace::host::scope(simtrace::host::Site::FiberSched);
    while !runq.is_empty() {
        // A deferred stall diagnosis re-arms detection everywhere.
        let epoch = coord.defer_epoch.load(Ordering::Acquire);
        if epoch != seen_epoch {
            seen_epoch = epoch;
            unproductive = 0;
            if idle_claimed {
                coord.slots[me].store(NOT_IDLE, Ordering::Release);
                idle_claimed = false;
            }
        }
        let events_before = EVENTS.load(Ordering::Relaxed);
        let mut any_done = false;
        // One cycle: resume every currently-runnable fiber once.
        for _ in 0..runq.len() {
            let idx = runq.pop_front().expect("runq non-empty within cycle");
            let (_, stack, rt) = &mut fibers[idx];
            let rtp: *mut FiberRt = &mut **rt;
            // hostprof: time one slice (resume -> suspend). The guard is
            // created and dropped on the scheduler side of the switch, so
            // it never spans a yield; probes inside the fiber body nest
            // under this frame because fibers share the worker's
            // thread-local profiler stack.
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
                Action::Yielded => runq.push_back(idx),
                Action::Done => {
                    any_done = true;
                    assert!(
                        stack.canary_intact(),
                        "fiber {idx} overflowed its {stack_size}-byte stack \
                         (canary clobbered); raise ClusterConfig::stack_size"
                    );
                    out[idx].1 = rt.panic.take();
                }
            }
        }
        if any_done || EVENTS.load(Ordering::Relaxed) != events_before {
            unproductive = 0;
            if idle_claimed {
                coord.slots[me].store(NOT_IDLE, Ordering::Release);
                idle_claimed = false;
            }
        } else {
            unproductive += 1;
            if unproductive >= STALL_CYCLES {
                if !idle_claimed {
                    // Publish the idle claim stamped with the event count
                    // this whole unproductive stretch observed.
                    coord.slots[me].store(events_before, Ordering::Release);
                    idle_claimed = true;
                }
                coord.maybe_fire();
            }
            assert!(
                unproductive < STALL_CYCLES + ABORT_CYCLES,
                "fiber deadlock: {} fibers still blocked after poisoning",
                runq.len()
            );
            if multi {
                idle_backoff(unproductive);
            }
        }
    }
    coord.slots[me].store(FINISHED, Ordering::Release);
    out
}

/// Run `tasks` as cooperatively-scheduled fibers on the calling thread
/// until all complete; returns each task's panic payload (`None` = clean
/// return), index-aligned with `tasks`.
///
/// `on_stall` is invoked if the fiber set deadlocks (every fiber
/// yielding, no unblocking events). Returning `true` acknowledges the
/// stall — the callback is expected to have poisoned the cluster so the
/// waiting fibers panic out of their wait loops. Returning `false`
/// defers the diagnosis (e.g. ranks are legitimately held back by an
/// in-flight fault-injection timer): the unproductive-cycle count resets
/// and detection re-arms from scratch.
pub(crate) fn run_fibers<'a>(
    tasks: Vec<Box<dyn FnOnce() + 'a>>,
    stack_size: usize,
    on_stall: impl Fn() -> bool,
) -> Vec<Option<Box<dyn Any + Send>>> {
    assert!(
        !in_fiber(),
        "nested fiber executors on one thread are not supported"
    );
    let n = tasks.len();
    let fibers: Vec<(usize, StackMem, Box<FiberRt>)> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, task)| {
            // The scheduler outlives every fiber (the loop runs them all
            // to completion before returning), so parking the borrowed
            // body behind a 'static trait object is sound.
            let body: Box<dyn FnOnce() + 'static> =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + 'a>, _>(task) };
            let (stack, rt) = new_fiber(body, stack_size);
            (i, stack, rt)
        })
        .collect();
    let coord = StallCoord::new(1, &on_stall);
    let mut panics: Vec<Option<Box<dyn Any + Send>>> = (0..n).map(|_| None).collect();
    for (i, p) in worker_loop(0, fibers, stack_size, &coord) {
        panics[i] = p;
    }
    panics
}

/// Allocate a stack and fiber state for one task body.
fn new_fiber(body: Box<dyn FnOnce()>, stack_size: usize) -> (StackMem, Box<FiberRt>) {
    let stack = StackMem::new(stack_size);
    let rt = Box::new(FiberRt {
        fiber_rsp: stack.prepare(fiber_main),
        sched_rsp: 0,
        action: Action::Yielded,
        entry: Some(body),
        panic: None,
        saved_ctx: None,
    });
    (stack, rt)
}

/// Run `tasks` as fibers sharded across `workers` OS threads, task `i`
/// on worker `placement[i]` (clamped into range); returns each task's
/// panic payload, index-aligned with `tasks`. Semantics match
/// [`run_fibers`] — in particular virtual time is bitwise identical for
/// any worker count or placement — with stall detection coordinated
/// globally across the workers (see the module docs).
///
/// Fibers never migrate: each worker round-robins only its own shard,
/// so per-fiber state needs no synchronization. Cross-shard blocking
/// runs through the ordinary mutex-protected wait sites, with idle
/// workers backing off politely so they do not starve the worker that
/// can unblock them on small hosts.
pub(crate) fn run_fibers_sharded<'a>(
    tasks: Vec<Box<dyn FnOnce() + Send + 'a>>,
    placement: &[usize],
    workers: usize,
    stack_size: usize,
    on_stall: impl Fn() -> bool + Sync,
) -> Vec<Option<Box<dyn Any + Send>>> {
    assert!(
        !in_fiber(),
        "nested fiber executors on one thread are not supported"
    );
    assert!(workers >= 1, "sharded executor needs at least one worker");
    assert_eq!(placement.len(), tasks.len(), "placement must cover every task");
    let n = tasks.len();
    type ShardedBody = (usize, Box<dyn FnOnce() + Send + 'static>);
    let mut shards: Vec<Vec<ShardedBody>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        // Sound for the same reason as in `run_fibers`: the scope join
        // below guarantees every worker loop (and thus every fiber)
        // completes before the borrowed data can go away.
        let body: Box<dyn FnOnce() + Send + 'static> =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, _>(task) };
        shards[placement[i].min(workers - 1)].push((i, body));
    }
    let coord = StallCoord::new(workers, &on_stall);
    let mut panics: Vec<Option<Box<dyn Any + Send>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(w, bodies)| {
                let coord = &coord;
                std::thread::Builder::new()
                    .name(format!("simnet-worker-{w}"))
                    .spawn_scoped(s, move || {
                        // Stacks and fiber state are built on the worker
                        // that owns them and never leave it.
                        let fibers: Vec<(usize, StackMem, Box<FiberRt>)> = bodies
                            .into_iter()
                            .map(|(i, body)| {
                                let (stack, rt) = new_fiber(body, stack_size);
                                (i, stack, rt)
                            })
                            .collect();
                        worker_loop(w, fibers, stack_size, coord)
                    })
                    .expect("failed to spawn fiber worker thread")
            })
            .collect();
        for h in handles {
            for (i, p) in h.join().expect("fiber worker thread panicked") {
                panics[i] = p;
            }
        }
    });
    panics
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn run_simple(tasks: Vec<Box<dyn FnOnce() + '_>>) -> Vec<Option<Box<dyn Any + Send>>> {
        run_fibers(tasks, 64 * 1024, || panic!("unexpected stall"))
    }

    #[test]
    fn fibers_run_to_completion_in_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let tasks: Vec<Box<dyn FnOnce()>> = (0..4)
            .map(|i| {
                let log = Rc::clone(&log);
                Box::new(move || log.borrow_mut().push(i)) as Box<dyn FnOnce()>
            })
            .collect();
        let panics = run_simple(tasks);
        assert!(panics.iter().all(Option::is_none));
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn yielding_interleaves_round_robin() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let tasks: Vec<Box<dyn FnOnce()>> = (0..3)
            .map(|i| {
                let log = Rc::clone(&log);
                Box::new(move || {
                    for step in 0..3 {
                        log.borrow_mut().push((i, step));
                        yield_now();
                    }
                }) as Box<dyn FnOnce()>
            })
            .collect();
        run_simple(tasks);
        // Steps proceed in lockstep: all fibers' step 0, then step 1, ...
        let expect: Vec<(usize, usize)> =
            (0..3).flat_map(|s| (0..3).map(move |i| (i, s))).collect();
        assert_eq!(*log.borrow(), expect);
    }

    #[test]
    fn panic_is_captured_not_propagated() {
        let tasks: Vec<Box<dyn FnOnce()>> = vec![
            Box::new(|| {}),
            Box::new(|| panic!("fiber boom")),
            Box::new(yield_now),
        ];
        let panics = run_simple(tasks);
        assert!(panics[0].is_none());
        let msg = panics[1]
            .as_ref()
            .and_then(|p| p.downcast_ref::<&str>().copied())
            .expect("payload preserved");
        assert_eq!(msg, "fiber boom");
        assert!(panics[2].is_none());
    }

    #[test]
    fn backtrace_from_a_fiber_ends_at_its_base_frame() {
        // A panic under RUST_BACKTRACE=1 walks the whole stack. Hand the
        // allocator dirty memory first, so the walk past `fiber_main`
        // reads a planted end-of-stack marker, not leftover bytes.
        drop(std::hint::black_box(vec![0xAAu8; 64 * 1024]));
        let tasks: Vec<Box<dyn FnOnce()>> = vec![Box::new(|| {
            let bt = std::backtrace::Backtrace::force_capture();
            assert_eq!(bt.status(), std::backtrace::BacktraceStatus::Captured);
        })];
        assert!(run_simple(tasks)[0].is_none());
    }

    #[test]
    fn cooperative_ping_pong_via_shared_state() {
        // Two fibers alternate incrementing a counter, each waiting for
        // the other's turn — the pattern every blocking primitive reduces
        // to under the fiber executor.
        let turn = Rc::new(Cell::new(0u32));
        let tasks: Vec<Box<dyn FnOnce()>> = (0..2u32)
            .map(|me| {
                let turn = Rc::clone(&turn);
                Box::new(move || {
                    for _ in 0..10 {
                        while turn.get() % 2 != me {
                            yield_now();
                        }
                        turn.set(turn.get() + 1);
                        note_event();
                    }
                }) as Box<dyn FnOnce()>
            })
            .collect();
        run_simple(tasks);
        assert_eq!(turn.get(), 20);
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
        let tasks: Vec<Box<dyn FnOnce()>> = vec![Box::new(|| {
            assert_eq!(burn(100), 6400);
        })];
        let panics = run_fibers(tasks, 256 * 1024, || panic!("stall"));
        assert!(panics[0].is_none());
    }

    #[test]
    fn stall_detection_fires_and_callback_can_release() {
        // One fiber waits for a flag nothing will set; the stall callback
        // plays the poison role and sets it.
        let flag = Rc::new(Cell::new(false));
        let f2 = Rc::clone(&flag);
        let tasks: Vec<Box<dyn FnOnce() + '_>> = vec![Box::new(|| {
            while !flag.get() {
                yield_now();
            }
        })];
        let panics = run_fibers(tasks, 64 * 1024, move || {
            f2.set(true);
            true
        });
        assert!(panics[0].is_none());
    }

    #[test]
    fn deferred_stall_rearms_instead_of_aborting() {
        // The callback excuses the first few stall diagnoses (as the
        // fault layer does while an injected delay is outstanding); the
        // detector must re-arm rather than hit the hard-abort assert,
        // then fire again and release the fiber on the final diagnosis.
        let flag = Rc::new(Cell::new(false));
        let f2 = Rc::clone(&flag);
        let deferrals = Rc::new(Cell::new(0u32));
        let d2 = Rc::clone(&deferrals);
        let tasks: Vec<Box<dyn FnOnce() + '_>> = vec![Box::new(|| {
            while !flag.get() {
                yield_now();
            }
        })];
        let panics = run_fibers(tasks, 64 * 1024, move || {
            if d2.get() < 3 {
                d2.set(d2.get() + 1);
                return false;
            }
            f2.set(true);
            true
        });
        assert!(panics[0].is_none());
        assert_eq!(deferrals.get(), 3, "stall must re-fire after deferrals");
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
    fn worker_count_round_trips_and_clamps() {
        let before = workers();
        set_workers(4);
        assert_eq!(workers(), 4);
        set_workers(0);
        assert_eq!(workers(), 1, "worker count clamps to at least one");
        set_workers(before);
    }

    fn run_sharded(
        tasks: Vec<Box<dyn FnOnce() + Send + '_>>,
        workers: usize,
    ) -> Vec<Option<Box<dyn Any + Send>>> {
        let n = tasks.len();
        let placement: Vec<usize> = (0..n).map(|i| i * workers / n.max(1)).collect();
        run_fibers_sharded(tasks, &placement, workers, 64 * 1024, || {
            panic!("unexpected stall")
        })
    }

    #[test]
    fn sharded_tasks_all_complete_and_results_stay_indexed() {
        let done: Vec<AtomicU32> = (0..10).map(|_| AtomicU32::new(0)).collect();
        let done = Arc::new(done);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..10)
            .map(|i| {
                let done = Arc::clone(&done);
                Box::new(move || {
                    for _ in 0..3 {
                        yield_now();
                    }
                    done[i].store(i as u32 + 1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let panics = run_sharded(tasks, 4);
        assert!(panics.iter().all(Option::is_none));
        for (i, d) in done.iter().enumerate() {
            assert_eq!(d.load(Ordering::Relaxed), i as u32 + 1);
        }
    }

    #[test]
    fn sharded_ping_pong_across_workers() {
        // Two fibers placed on *different* workers alternate turns via
        // shared atomics — the cross-worker analogue of the cooperative
        // ping-pong above, exercising the idle-backoff path.
        let turn = Arc::new(AtomicU32::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2u32)
            .map(|me| {
                let turn = Arc::clone(&turn);
                Box::new(move || {
                    for _ in 0..25 {
                        while turn.load(Ordering::Acquire) % 2 != me {
                            yield_now();
                        }
                        turn.fetch_add(1, Ordering::AcqRel);
                        note_event();
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let panics = run_fibers_sharded(tasks, &[0, 1], 2, 64 * 1024, || {
            panic!("unexpected stall")
        });
        assert!(panics.iter().all(Option::is_none));
        assert_eq!(turn.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn sharded_panic_is_captured_on_the_right_index() {
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(yield_now),
            Box::new(|| panic!("worker fiber boom")),
            Box::new(|| {}),
        ];
        let panics = run_sharded(tasks, 3);
        assert!(panics[0].is_none());
        let msg = panics[1]
            .as_ref()
            .and_then(|p| p.downcast_ref::<&str>().copied())
            .expect("payload preserved");
        assert_eq!(msg, "worker fiber boom");
        assert!(panics[2].is_none());
    }

    #[test]
    fn sharded_stall_requires_every_worker_idle() {
        // Worker 0's fiber busy-works with events for a while (so worker
        // 0 is productive), then releases worker 1's fiber. The stall
        // callback must NOT fire: only *global* quiescence is a stall.
        let release = Arc::new(AtomicU32::new(0));
        let r2 = Arc::clone(&release);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(move || {
                for _ in 0..5000 {
                    note_event();
                    yield_now();
                }
                r2.store(1, Ordering::Release);
                note_event();
            }),
            Box::new(move || {
                while release.load(Ordering::Acquire) == 0 {
                    yield_now();
                }
            }),
        ];
        let panics = run_fibers_sharded(tasks, &[0, 1], 2, 64 * 1024, || {
            panic!("spurious stall: one worker was still productive")
        });
        assert!(panics.iter().all(Option::is_none));
    }

    #[test]
    fn sharded_global_deadlock_is_diagnosed() {
        // Both workers' fibers wait on a flag only the stall callback
        // sets — the genuine global deadlock case, including a finished
        // worker (task 2 returns immediately, draining worker 2).
        let flag = Arc::new(AtomicU32::new(0));
        let f1 = Arc::clone(&flag);
        let f2 = Arc::clone(&flag);
        let f3 = Arc::clone(&flag);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(move || {
                while f1.load(Ordering::Acquire) == 0 {
                    yield_now();
                }
            }),
            Box::new(move || {
                while f2.load(Ordering::Acquire) == 0 {
                    yield_now();
                }
            }),
            Box::new(|| {}),
        ];
        let panics = run_fibers_sharded(tasks, &[0, 1, 2], 3, 64 * 1024, move || {
            f3.store(1, Ordering::Release);
            note_event();
            true
        });
        assert!(panics.iter().all(Option::is_none));
    }

    #[test]
    fn sharded_matches_solo_for_send_tasks() {
        // The same Send workload through both entry points finishes with
        // the same per-task results (panics and effects), whatever the
        // worker count — including more workers than tasks.
        let run_with = |workers: Option<usize>| -> Vec<u32> {
            let out: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
            let out = Arc::new(out);
            let mk = |i: usize, out: &Arc<Vec<AtomicU32>>| {
                let out = Arc::clone(out);
                move || {
                    for step in 0..4u32 {
                        out[i].fetch_add(step + i as u32, Ordering::Relaxed);
                        yield_now();
                    }
                }
            };
            match workers {
                None => {
                    let tasks: Vec<Box<dyn FnOnce() + '_>> =
                        (0..6).map(|i| Box::new(mk(i, &out)) as Box<dyn FnOnce() + '_>).collect();
                    run_fibers(tasks, 64 * 1024, || panic!("stall"));
                }
                Some(w) => {
                    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
                        .map(|i| Box::new(mk(i, &out)) as Box<dyn FnOnce() + Send + '_>)
                        .collect();
                    let placement: Vec<usize> = (0..6).map(|i| i % w).collect();
                    run_fibers_sharded(tasks, &placement, w, 64 * 1024, || panic!("stall"));
                }
            }
            out.iter().map(|a| a.load(Ordering::Relaxed)).collect()
        };
        let solo = run_with(None);
        for w in [1, 2, 4, 8] {
            assert_eq!(run_with(Some(w)), solo, "worker count {w} changed results");
        }
    }
}
