//! Cooperative fiber executor: all ranks of a cluster on the calling
//! thread.
//!
//! # Why
//!
//! The simulator's unit of concurrency is a *rank*, and ranks spend most
//! of their host life blocked on each other: every rendezvous parks
//! `p - 1` ranks, every receive parks one. None of that concurrency is
//! real work that could overlap: a rank runs until it blocks. A *fiber*
//! (stackful coroutine) makes the turn-taking explicit: every rank gets
//! a stack mapping of its own, and a scheduler switches between them in
//! userspace (~tens of nanoseconds: the callee-saved registers and the
//! stack pointer), with no thread, lock handoff or system call per turn.
//!
//! # Blocked ranks cost nothing
//!
//! Only *runnable* fibers are resumed. A rank that must block calls
//! `wait` — the one wait primitive shared by the mailbox and the
//! rendezvous — which leaves its `Waker` in a slot of the wait site's
//! `RefCell`, lets go of the borrow and switches away. The site's wake
//! path takes the waker out of the slot and wakes it: a push onto the
//! thread-local run queue, no lock and no system call. A parked fiber is
//! not touched again until then, so host time follows events, not
//! ranks × scheduler cycles.
//!
//! The run queue is also the admission gate of the shared virtual-time
//! resources ([`crate::progress`]): a fiber made runnable joins a FIFO,
//! a fiber that requests an OST joins a heap under the request's key,
//! and a requester is resumed — admitted — when nothing else is
//! runnable and its key is the minimum. A
//! fiber that switches away pops the next fiber itself and switches
//! straight to it — one context switch per handoff, not two through a
//! scheduler stack; the scheduler loop runs only to start the fibers,
//! to collect the finished ones and when nothing is runnable.
//!
//! Every fiber of a cluster runs on the thread that called
//! [`crate::run_cluster`], one at a time (DESIGN.md §9.1 records why the
//! executor does not spread a cluster over worker threads), so the
//! state the fibers share is single-threaded by type: a [`Waker`] is an
//! `Rc` and cannot leave the thread, wait sites are `RefCell`s, and a
//! wait never holds a borrow across the switch. A handle left over from
//! an earlier run of the same thread is a bug that panics rather than
//! touch a run queue it does not belong to. A wake can still find its
//! fiber mid-slice (a fiber waking itself, a handle left in a slot by an
//! earlier wait): each fiber carries a three-state flag, a fiber marks
//! itself parked only on its way out, after the last check of its wait
//! condition, and a wake that finds it running leaves a notification
//! that re-queues it as it switches away.
//!
//! # What stays identical
//!
//! Virtual time. The simulation's timestamps are a pure function of
//! configuration, deterministic under *any* order in which the scheduler
//! resumes runnable fibers. The deterministic merge points are the
//! existing primitives: rendezvous completion is `max` over entry
//! clocks, a receive matches one fully qualified key in send order, and
//! every shared-resource admission is ordered by the virtual-time key
//! `(arrival, rank)`, not by host order. The seeded shuffled pop order
//! ([`crate::progress::PopOrder::Shuffled`]) is the oracle that holds
//! the scheduler to this: the determinism tests compare its runs with
//! the default order's bit for bit.
//!
//! # Deadlock detection
//!
//! Because only runnable fibers are ever queued, a deadlock is an exact
//! condition rather than a timeout: the run queue is empty while fibers
//! remain: a fiber that parks with nothing runnable returns to the
//! scheduler loop. Only a running fiber can wake another, so nothing is
//! in flight either, and the loop calls the stall callback (which
//! poisons the cluster) on the spot. Poisoning — by a stall or by a
//! rank panic — re-queues every parked fiber once, so each one observes
//! the poison flag in its wait loop and unwinds; a queue that runs dry
//! a second time aborts the run.
//!
//! # Safety notes
//!
//! The context switch is a few instructions of x86_64 assembly: push
//! the callee-saved registers, swap the stack pointer, pop, return. It
//! is the only implementation, so the simulator builds for x86_64 only.
//! Panics never cross the assembly boundary —
//! each fiber body runs under `catch_unwind` and the payload is carried
//! back to the scheduler by value, mirroring `JoinHandle::join`. Each
//! fiber stack is a mapping of its own with a `PROT_NONE` guard page
//! below it: an overflow faults at the instruction that overflows and
//! the process dies by SIGSEGV — not a panic, and nothing outside the
//! stack is written first. Fibers never leave the scheduler's thread, so
//! each fiber's stack is only ever touched by that thread.
//! A stack costs the pages its fiber touches ([`pooled_stack_pages`]
//! counts them; a rank of the benchmark shapes stays within two, DESIGN.md
//! §9.3). A finished run's stacks are kept for the next run on the same
//! thread (`STACK_POOL`, a thread-local) rather than unmapped, so a
//! sequence of runs takes no page fault and no system call for stacks
//! after the first.

#[cfg(not(target_arch = "x86_64"))]
compile_error!("simnet's fiber context switch is written for x86_64 only");

use crate::progress::{self, PopOrder};
use crate::rendezvous::PoisonFlag;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

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

// ---------------------------------------------------------------------
// Fiber stacks
// ---------------------------------------------------------------------

/// The page size of x86_64 Linux: the unit of a stack's mapping, of its
/// guard and of what it costs resident.
pub const PAGE: usize = 4096;

mod os {
    //! The four system calls a fiber stack needs, declared by hand (as the
    //! context switch is written by hand) rather than through a crate.
    use std::ffi::c_void;

    pub(super) const PROT_NONE: i32 = 0;
    pub(super) const PROT_READ: i32 = 1;
    pub(super) const PROT_WRITE: i32 = 2;
    pub(super) const MAP_PRIVATE: i32 = 0x02;
    pub(super) const MAP_ANONYMOUS: i32 = 0x20;
    pub(super) const MAP_NORESERVE: i32 = 0x4000;
    pub(super) const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    unsafe extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        pub(super) fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub(super) fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> i32;
    }
}

/// One fiber stack: a mapping of its own, a `PROT_NONE` guard page at
/// the bottom and the stack's pages above it. The mapping reserves no
/// swap (`MAP_NORESERVE`) and the kernel backs a page only once it is
/// touched, so a stack costs the pages its fiber reaches and nothing
/// more; it shares no page with anything else. A fiber that runs past
/// its stack faults on the guard at the instruction that overflows: the
/// process dies by SIGSEGV, before any byte outside the stack is
/// written.
struct StackMem {
    /// Start of the mapping: the guard page.
    map: *mut u8,
    /// Bytes of the mapping, guard page included.
    len: usize,
}

thread_local! {
    /// Stacks of finished runs, kept for the next run on this thread. A
    /// kept stack is reused by the same rank of the next run, pages and
    /// all: a sequence of clusters faults in no new stack page and makes
    /// no system call for its stacks once the first has run. The pool
    /// never holds more stacks than were live at once.
    static STACK_POOL: RefCell<Vec<StackMem>> = const { RefCell::new(Vec::new()) };
}

impl StackMem {
    /// A stack of `size` bytes rounded up to whole pages (16 KiB at
    /// least), from the pool if it holds one of that size.
    fn new(size: usize) -> Self {
        let size = size.max(16 * 1024).next_multiple_of(PAGE);
        let len = size + PAGE;
        let pooled = STACK_POOL.with_borrow_mut(|pool| {
            pool.iter()
                .rposition(|s| s.len == len)
                .map(|i| pool.remove(i))
        });
        pooled.unwrap_or_else(|| {
            // SAFETY: a fresh private anonymous mapping aliases nothing;
            // the guard is its first page.
            unsafe {
                let map = os::mmap(
                    std::ptr::null_mut(),
                    len,
                    os::PROT_READ | os::PROT_WRITE,
                    os::MAP_PRIVATE | os::MAP_ANONYMOUS | os::MAP_NORESERVE,
                    -1,
                    0,
                );
                assert!(map != os::MAP_FAILED, "fiber stack mapping failed");
                assert_eq!(
                    os::mprotect(map, PAGE, os::PROT_NONE),
                    0,
                    "fiber stack guard page failed"
                );
                StackMem {
                    map: map.cast(),
                    len,
                }
            }
        })
    }

    /// Keep the stack of a finished fiber for a later run. Release a
    /// run's stacks last fiber first: [`StackMem::new`] takes the most
    /// recently kept one, so fiber `i` of the next run gets the stack
    /// fiber `i` had.
    fn recycle(self) {
        STACK_POOL.with_borrow_mut(|pool| pool.push(self));
    }

    /// Plant the architecture-specific initial frame; restoring from the
    /// returned stack pointer resumes into `entry`.
    fn prepare(&self, entry: extern "C" fn() -> !) -> usize {
        // SAFETY: the mapping's top is page-aligned and its top page is
        // writable.
        unsafe { arch::init_frame(self.map as usize + self.len, entry as usize) }
    }

    /// How many of the stack's pages are resident (`mincore`).
    fn resident_pages(&self) -> usize {
        let stack = self.len / PAGE - 1;
        let mut vec = vec![0u8; stack];
        // SAFETY: the range is this stack's live mapping above the guard,
        // and `vec` holds one byte per page of it.
        let rc = unsafe { os::mincore(self.map.add(PAGE).cast(), stack * PAGE, vec.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore over a fiber stack failed");
        vec.iter().filter(|&&b| b & 1 != 0).count()
    }
}

impl Drop for StackMem {
    fn drop(&mut self) {
        // SAFETY: `map`/`len` are the mapping `new` made; no fiber runs on
        // a stack that is dropped (a live one is owned by its run).
        unsafe { os::munmap(self.map.cast(), self.len) };
    }
}

/// The resident pages of each stack the calling thread's pool holds:
/// after a run of `n` fibers, entry `i` is fiber `i`'s stack. A page is resident once its fiber touched it, in
/// this run or an earlier one on the same stack, so the count is the
/// deepest any of those fibers went, in pages. This is host memory no
/// allocator sees.
pub fn pooled_stack_pages() -> Vec<usize> {
    STACK_POOL.with_borrow(|pool| pool.iter().rev().map(StackMem::resident_pages).collect())
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

/// [`Parker::state`]: mid-slice.
const RUNNING: u8 = 0;
/// [`Parker::state`]: off every queue; the next wake re-queues the fiber.
const PARKED: u8 = 1;
/// [`Parker::state`]: woken or queued — already in the run queue, or
/// still mid-slice and to be re-queued the moment it parks.
const NOTIFIED: u8 = 2;

/// One fiber's wake handle. A blocking rank leaves a clone in the wait
/// site's slot; whoever satisfies the wait takes it out and wakes it.
/// It is not `Send`: the run queue it pushes onto is its thread's.
pub struct Parker {
    /// [`RUNNING`] / [`PARKED`] / [`NOTIFIED`]. A fiber stores `PARKED`
    /// only on its way out, after the last check of its wait condition,
    /// so a waker that reads `PARKED` re-queues a fiber that is off the
    /// queue and about to switch away.
    state: Cell<u8>,
    /// [`RUN`] of the scheduler loop that owns the fiber.
    run: usize,
    /// The fiber's index in that loop (its rank).
    idx: usize,
}

/// Shared handle to a [`Parker`].
pub type Waker = Rc<Parker>;

impl Parker {
    /// Make the fiber runnable. Idempotent until the fiber runs again;
    /// on a fiber that is mid-slice it leaves a notification that turns
    /// into a re-queue when the fiber switches away.
    ///
    /// # Panics
    /// When the thread is not running the scheduler loop the fiber
    /// belongs to: a handle that outlived its run wakes nothing.
    pub(crate) fn wake(&self) {
        assert!(
            RUN.with(Cell::get) == self.run,
            "fiber {} woken outside the scheduler run it belongs to: \
             only a fiber of the same cluster run may wake another",
            self.idx
        );
        if self.state.replace(NOTIFIED) == PARKED {
            progress::wake(self.idx);
        }
    }
}

/// Wake and clear the waiter registered in `slot`, if any.
pub(crate) fn wake(slot: &mut Option<Waker>) {
    if let Some(w) = slot.take() {
        w.wake();
    }
}

/// Per-fiber runtime shared between the scheduler and the fibers (via
/// the thread-local [`CURRENT`] pointer and [`FIBERS`] table). Boxed so
/// its address is stable across scheduler Vec reallocation.
struct FiberRt {
    /// Fiber's stack pointer while suspended.
    fiber_rsp: usize,
    /// The body returned (or unwound): never resume. A fiber that is not
    /// done switches back to the scheduler loop only when it parks with
    /// nothing else runnable.
    done: bool,
    parker: Waker,
    /// The body; taken by the entry trampoline on first resume.
    entry: Option<Box<dyn FnOnce()>>,
    /// Panic payload captured by the trampoline's `catch_unwind`.
    panic: Option<Box<dyn Any + Send>>,
    /// hostprof: times the fiber's current slice, from the switch to it
    /// to the switch away. Fibers share the thread-local profiler stack,
    /// so probes inside the body nest under it.
    slice: Option<simtrace::host::ScopeGuard>,
}

thread_local! {
    /// The fiber currently running on this thread, if any.
    static CURRENT: Cell<*mut FiberRt> = const { Cell::new(std::ptr::null_mut()) };
    /// Which [`run_fibers`] loop runs on this thread (0 = none): lets a
    /// wake check that it is pushing onto its own scheduler's queue.
    static RUN: Cell<usize> = const { Cell::new(0) };
    /// Source of [`RUN`] ids: one per [`run_fibers`] call, never reused
    /// on this thread, so a handle that outlives its run matches no later
    /// one (a handle cannot reach another thread).
    static NEXT_RUN: Cell<usize> = const { Cell::new(1) };
    /// That loop's stack pointer while a fiber runs.
    static SCHED_RSP: Cell<usize> = const { Cell::new(0) };
    /// That loop's fibers by index: where a fiber finds the one it hands
    /// the thread to.
    static FIBERS: RefCell<Vec<*mut FiberRt>> = const { RefCell::new(Vec::new()) };
}

/// The index of the fiber running on this thread (its rank in a
/// cluster), if any.
pub(crate) fn current() -> Option<usize> {
    let rt = CURRENT.with(Cell::get);
    // SAFETY: non-null `CURRENT` is the running fiber's live state.
    (!rt.is_null()).then(|| unsafe { &*rt }.parker.idx)
}

/// Make fiber `next` the running one and switch to it, saving the
/// suspended context's stack pointer at `save`. `slice` is the closing
/// slice's timer when a fiber hands the thread to the next one: it ends
/// that slice and starts `next`'s at one instant; from the scheduler loop
/// a new one opens.
///
/// # Safety
/// `next` must be a fiber of the loop running on this thread, off the
/// run queue and suspended; `save` must be the stack-pointer slot of the
/// context that calls this (the loop's or the running fiber's).
unsafe fn resume(save: *mut usize, next: usize, slice: Option<simtrace::host::ScopeGuard>) {
    let rt = FIBERS.with(|f| f.borrow()[next]);
    let slice = match slice {
        Some(mut slice) => {
            slice.lap();
            slice
        }
        None => simtrace::host::scope(simtrace::host::Site::FiberRun),
    };
    // SAFETY: `FIBERS` holds the loop's live boxed fibers; `next` is
    // suspended, so nothing else touches its state, and its saved stack
    // pointer came from a switch away from it or from `init_frame`.
    unsafe {
        let parker: &Parker = &(*rt).parker;
        parker.state.set(RUNNING);
        (*rt).slice = Some(slice);
        CURRENT.with(|c| c.set(rt));
        arch::switch(save, &raw const (*rt).fiber_rsp);
    }
}

/// Switch the current fiber out — `queued` if it put itself in the run
/// queue under a request's key, parked otherwise — and return once it is
/// resumed. The thread goes straight to the next fiber the queue pops,
/// or back to the scheduler loop when nothing is runnable.
fn switch_out(queued: bool) {
    let rt = CURRENT.with(Cell::get);
    assert!(
        !rt.is_null(),
        "a rank blocked outside a fiber: nothing would ever resume it"
    );
    // SAFETY: `rt` is the running fiber's live state; the loop's and
    // every other fiber's saved stack pointers are valid while it runs.
    unsafe {
        let parker: &Parker = &(*rt).parker;
        let (me, state) = (parker.idx, &parker.state);
        if queued {
            // In the queue already: a wake must not queue it twice.
            state.set(NOTIFIED);
        } else if state.get() == RUNNING {
            state.set(PARKED);
        } else {
            // Woken while it ran: queue it like any wake.
            progress::wake(me);
        }
        let next = progress::pop();
        if next == Some(me) {
            state.set(RUNNING);
            return;
        }
        match next {
            Some(next) => resume(&raw mut (*rt).fiber_rsp, next, (*rt).slice.take()),
            None => {
                // The slice ends now: this frame resumes only once the
                // fiber is woken.
                (*rt).slice = None;
                arch::switch(&raw mut (*rt).fiber_rsp, SCHED_RSP.with(Cell::as_ptr));
            }
        }
    }
}

/// Switch the current fiber out; it runs again once woken.
fn park() {
    switch_out(false);
}

/// Switch the current fiber out after it queued itself under a
/// request's key; it runs again when the queue pops it.
pub(crate) fn yield_queued() {
    switch_out(true);
}

/// The one blocking primitive of the substrate: leave this rank's
/// [`Waker`] in the `slot` of the wait site's `state` and block until the
/// site wakes it. Callers check their condition under a borrow of their
/// own, release it and call this; they loop on the condition, since a
/// return is a hint, not a guarantee. Panics if the cluster is poisoned
/// before or after blocking.
///
/// Nothing else runs between the caller's check and the switch, so a
/// notifier, which takes the waker out of the same slot, cannot miss it;
/// and the borrow here ends before the switch, so no fiber ever finds a
/// wait site borrowed.
pub(crate) fn wait<T>(
    state: &RefCell<T>,
    slot: impl FnOnce(&mut T) -> &mut Option<Waker>,
    poison: &PoisonFlag,
) {
    poison.check();
    let rt = CURRENT.with(Cell::get);
    assert!(
        !rt.is_null(),
        "a rank blocked outside a fiber: nothing would ever wake it"
    );
    // SAFETY: non-null `CURRENT` is the running fiber's live state.
    *slot(&mut state.borrow_mut()) = Some(Rc::clone(unsafe { &(*rt).parker }));
    park();
    poison.check();
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
        (*rt).done = true;
        (*rt).slice = None;
        let mut discard = 0usize;
        arch::switch(&raw mut discard, SCHED_RSP.with(Cell::as_ptr));
    }
    unreachable!("completed fiber resumed")
}

/// Run `tasks` as cooperatively-scheduled fibers on the calling thread
/// until all complete, resuming only those that are runnable, in
/// `order`; returns each task's panic payload (`None` = clean return),
/// index-aligned with `tasks`. No thread is spawned, so thread-local
/// caches stay warm across runs.
///
/// `on_stall` is invoked once if the fiber set deadlocks (fibers remain
/// and none is runnable — see the module docs). It is expected to
/// poison the cluster; the scheduler then re-queues every parked fiber
/// so each panics out of its wait loop.
pub(crate) fn run_fibers<'a>(
    tasks: Vec<Box<dyn FnOnce() + 'a>>,
    stack_size: usize,
    order: PopOrder,
    on_stall: impl Fn(),
) -> Vec<Option<Box<dyn Any + Send>>> {
    assert!(
        current().is_none(),
        "a cluster cannot be started from inside another cluster's rank"
    );
    let run = NEXT_RUN.with(|n| n.replace(n.get() + 1));
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
            done: false,
            parker: Rc::new(Parker {
                state: Cell::new(RUNNING),
                run,
                idx,
            }),
            entry: Some(body),
            panic: None,
            slice: None,
        });
        fibers.push((stack, rt));
    }
    let mut panics: Vec<Option<Box<dyn Any + Send>>> = fibers.iter().map(|_| None).collect();
    // A loop that unwinds leaves its id behind; only a thread running a
    // loop — which sets it afresh — ever issues a wake.
    RUN.with(|r| r.set(run));
    FIBERS.with(|f| {
        let mut f = f.borrow_mut();
        f.clear();
        f.extend(fibers.iter_mut().map(|(_, rt)| &mut **rt as *mut FiberRt));
    });
    progress::start(fibers.len(), order);
    let mut unfinished = fibers.len();
    // A rank panicked: its poison guard has already flagged the cluster.
    let mut poisoned = false;
    // The parked fibers were re-queued to observe the poison flag.
    let mut requeued = false;
    // hostprof: the whole scheduler loop is one frame; fiber slices nest
    // inside it, so this frame's self time is what the loop itself does
    // (a fiber that switches out pops and resumes the next one inside its
    // own slice, and comes back here only to finish or when nothing else
    // is runnable).
    let _sched_scope = simtrace::host::scope(simtrace::host::Site::FiberSched);
    while unfinished > 0 {
        let Some(idx) = progress::pop() else {
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
        // SAFETY: `idx` came off the queue, so it is suspended; the loop's
        // stack-pointer slot is this thread's.
        unsafe { resume(SCHED_RSP.with(Cell::as_ptr), idx, None) };
        // Back from whichever fiber finished, or parked with nothing
        // left to run.
        let rtp = CURRENT.with(|c| c.replace(std::ptr::null_mut()));
        // SAFETY: the fiber that switched back left itself in `CURRENT`.
        let idx = unsafe { &(*rtp).parker }.idx;
        let (_, rt) = &mut fibers[idx];
        if rt.done {
            unfinished -= 1;
            panics[idx] = rt.panic.take();
            poisoned |= panics[idx].is_some();
        }
    }
    RUN.with(|r| r.set(0));
    FIBERS.with(|f| f.borrow_mut().clear());
    for (stack, _) in fibers.into_iter().rev() {
        stack.recycle();
    }
    panics
}

/// Run `f(i)` on fibers `0..n` popped in `order`, re-raising the first
/// panic; the results in fiber order. A test harness for the wait sites:
/// a stall wakes the parked fibers once (a poisoned one then panics),
/// and aborts the run if they all wait again.
#[cfg(test)]
pub(crate) fn on_fibers_in<T>(order: PopOrder, n: usize, f: impl Fn(usize) -> T) -> Vec<T> {
    let slots: Vec<Cell<Option<T>>> = (0..n).map(|_| Cell::new(None)).collect();
    let tasks: Vec<Box<dyn FnOnce() + '_>> = slots
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            let f = &f;
            Box::new(move || slot.set(Some(f(i)))) as Box<dyn FnOnce()>
        })
        .collect();
    let panics = run_fibers(tasks, 256 * 1024, order, || {});
    if let Some(payload) = panics.into_iter().flatten().next() {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("fiber completed"))
        .collect()
}

/// [`on_fibers_in`] in the default pop order.
#[cfg(test)]
pub(crate) fn on_fibers<T>(n: usize, f: impl Fn(usize) -> T) -> Vec<T> {
    on_fibers_in(PopOrder::Fixed, n, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Task<'a> = Box<dyn FnOnce() + 'a>;
    type Panics = Vec<Option<Box<dyn Any + Send>>>;

    /// The running fiber's wake handle.
    fn current_waker() -> Waker {
        let rt = CURRENT.with(Cell::get);
        assert!(!rt.is_null(), "current_waker outside a fiber");
        Rc::clone(unsafe { &(*rt).parker })
    }

    /// A fiber that wakes itself and parks is queued behind the fibers
    /// already runnable.
    fn yield_now() {
        current_waker().wake();
        park();
    }

    /// Run with small stacks, in the default pop order, no stall
    /// expected.
    fn run(tasks: Vec<Task<'_>>) -> Panics {
        run_fibers(tasks, 64 * 1024, PopOrder::Fixed, || {
            panic!("unexpected stall")
        })
    }

    fn payload_str(p: &Option<Box<dyn Any + Send>>) -> Option<&str> {
        p.as_ref().and_then(|p| p.downcast_ref::<&str>().copied())
    }

    #[test]
    fn fibers_run_to_completion_in_order() {
        let log = RefCell::new(Vec::new());
        let tasks: Vec<Task> = (0..4)
            .map(|i| {
                let log = &log;
                Box::new(move || log.borrow_mut().push(i)) as Task
            })
            .collect();
        assert!(run(tasks).iter().all(Option::is_none));
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn yielding_interleaves_round_robin() {
        // A fiber that wakes itself and parks is queued behind the
        // fibers made runnable before it: steps proceed in lockstep, all
        // fibers' step 0, then step 1, ... Shuffled, the steps interleave
        // otherwise, and each fiber's own steps still come in order.
        let steps = |order| {
            let log = RefCell::new(Vec::new());
            on_fibers_in(order, 3, |i| {
                for step in 0..3 {
                    log.borrow_mut().push((i, step));
                    yield_now();
                }
            });
            log.into_inner()
        };
        let expect: Vec<(usize, usize)> =
            (0..3).flat_map(|s| (0..3).map(move |i| (i, s))).collect();
        assert_eq!(steps(PopOrder::Fixed), expect);
        let shuffled: Vec<_> = (0..8).map(|seed| steps(PopOrder::Shuffled(seed))).collect();
        assert!(
            shuffled.iter().any(|log| *log != expect),
            "no seed interleaved"
        );
        for log in shuffled {
            for i in 0..3 {
                let own: Vec<usize> = log.iter().filter(|e| e.0 == i).map(|e| e.1).collect();
                assert_eq!(own, [0, 1, 2]);
            }
        }
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
        let panics = run_fibers(tasks, 256 * 1024, PopOrder::Fixed, || panic!("stall"));
        assert!(panics[0].is_none());
    }

    #[test]
    fn a_later_run_gets_the_stacks_of_an_earlier_one_fiber_for_fiber() {
        const SIZE: usize = 64 * 1024;
        let frames_of = |fibers: usize| {
            let frames = RefCell::new(vec![0usize; fibers]);
            let tasks: Vec<Task> = (0..fibers)
                .map(|i| {
                    let frames = &frames;
                    Box::new(move || {
                        let local = 0u8;
                        frames.borrow_mut()[i] = std::hint::black_box(&local) as *const u8 as usize;
                    }) as Task
                })
                .collect();
            let panics = run_fibers(tasks, SIZE, PopOrder::Fixed, || panic!("stall"));
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
        let flag = Cell::new(false);
        let stalls = Cell::new(0);
        let resumes = Cell::new(0);
        let tasks: Vec<Task> = vec![Box::new(|| {
            while !flag.get() {
                park();
                resumes.set(resumes.get() + 1);
            }
        })];
        let panics = run_fibers(tasks, 64 * 1024, PopOrder::Fixed, || {
            stalls.set(stalls.get() + 1);
            flag.set(true);
        });
        assert!(panics[0].is_none());
        assert_eq!(stalls.get(), 1);
        assert_eq!(resumes.get(), 1, "a parked fiber is resumed only by a wake");
    }

    #[test]
    #[should_panic(expected = "still blocked after poisoning")]
    fn fibers_that_ignore_the_poison_abort_the_scheduler() {
        let tasks: Vec<Task> = vec![Box::new(|| loop {
            park();
        })];
        run_fibers(tasks, 64 * 1024, PopOrder::Fixed, || {});
    }

    #[test]
    #[should_panic(expected = "outside a fiber")]
    fn a_wait_outside_a_fiber_panics_instead_of_hanging() {
        let state = RefCell::new(None);
        wait(&state, |s| s, &PoisonFlag::default());
    }

    #[test]
    fn the_worker_count_shim_accepts_one_and_nothing_else() {
        set_workers(1);
        let refused = catch_unwind(|| set_workers(2)).expect_err("two workers must be refused");
        let msg = refused.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("DESIGN.md §9.1"), "{msg}");
    }

    /// A two-party turn counter built on [`wait`], the way the real
    /// wait sites are: the condition is checked under a borrow that ends
    /// before the wait, the notifier takes the slot's waker out.
    struct Turns {
        state: RefCell<(u32, Option<Waker>)>,
        poison: PoisonFlag,
    }

    impl Turns {
        /// Block until the counter's parity is `me`, then bump it.
        fn take_turn(&self, me: u32) {
            while self.state.borrow().0 % 2 != me {
                wait(&self.state, |s| &mut s.1, &self.poison);
            }
            let mut st = self.state.borrow_mut();
            st.0 += 1;
            wake(&mut st.1);
        }
    }

    #[test]
    fn ping_pong_through_the_wait_primitive() {
        // Two ranks alternate turns; every turn is a park and a wake, a
        // push onto the run queue, in either pop order.
        for order in [PopOrder::Fixed, PopOrder::Shuffled(3)] {
            let turns = Turns {
                state: RefCell::new((0, None)),
                poison: PoisonFlag::default(),
            };
            on_fibers_in(order, 2, |me| {
                (0..25).for_each(|_| turns.take_turn(me as u32))
            });
            assert_eq!(turns.state.borrow().0, 50);
        }
    }

    #[test]
    fn a_handle_left_over_from_an_earlier_run_panics_instead_of_queueing() {
        // A fiber of the first run leaves its waker behind. Waking it
        // from the second run must panic there, naming the violation,
        // rather than push a stale index onto the second run's queue.
        let slot: RefCell<Option<Waker>> = RefCell::new(None);
        let leave: Vec<Task> = vec![Box::new(|| *slot.borrow_mut() = Some(current_waker()))];
        assert!(run(leave).iter().all(Option::is_none));
        let stale = slot.take().expect("the first run left its waker");
        let panics = run(vec![Box::new(move || stale.wake())]);
        let msg = panics[0]
            .as_ref()
            .and_then(|p| p.downcast_ref::<String>())
            .expect("a formatted panic message");
        assert!(
            msg.contains("outside the scheduler run it belongs to"),
            "{msg}"
        );
    }
}
