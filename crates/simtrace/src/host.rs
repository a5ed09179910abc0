//! Host-time profiler (`hostprof`): wall-clock attribution for the
//! simulator's own hot paths.
//!
//! Everything else in this crate measures **virtual** time; this module
//! measures the **host** time the simulator spends producing it — fiber
//! context switches, mailbox delivery, pooled-buffer churn, datatype
//! flattening, two-phase pack/unpack memcpy, OST bookkeeping, and trace
//! recording itself. It exists so host-performance work starts from
//! measured sinks instead of guesses.
//!
//! # Design
//!
//! * **Static site registry.** Probe sites are a fixed enum ([`Site`]);
//!   names, subsystems and ids are compile-time constants. No
//!   registration, no string hashing on the hot path.
//! * **Scoped timers, thread-local rings.** [`scope`] pushes the site
//!   onto a thread-local stack and, on drop, records one
//!   `(path, duration)` sample into a fixed-capacity [`RingBuf`].
//!   Paths encode up to [`MAX_DEPTH`] nested sites in one `u64`, so a
//!   sample is 16 bytes and recording never allocates. A full ring
//!   folds into the thread's preallocated aggregate table (amortized,
//!   off the per-sample path).
//! * **Runtime gate.** Every probe starts with one relaxed atomic load
//!   ([`enabled`]); disarmed probes do nothing else. The `hostperf`
//!   A/B gate in CI holds this runtime-off overhead under 2% against a
//!   build with the probes compiled out.
//! * **Compile-time off.** Building `simtrace` with the `hostprof-off`
//!   feature replaces the whole API with inlineable no-ops, so call
//!   sites in other crates compile to nothing (the zero-cost baseline
//!   the overhead gate compares against).
//! * **Determinism.** Nothing here touches virtual time: samples are
//!   host-side only and are published through [`collect`], never
//!   through traces, digests or metrics JSON. Virtual-time artifacts
//!   are byte-identical with profiling on or off (asserted by
//!   `bench/tests/hostprof_determinism.rs`), extending the rule that
//!   host timing never enters deterministic artifacts.
//!
//! # Fiber rule
//!
//! A scoped timer must never span a fiber yield: the fiber executor
//! multiplexes many ranks on one OS thread, so a scope crossing a yield
//! would absorb *other* fibers' runtime. Probe sites are therefore
//! placed only around non-yielding sections; the scheduler itself times
//! each fiber slice (resume → suspend) as the [`Site::FiberRun`] frame,
//! which leaf probes nest under.
//!
//! # Example
//!
//! ```
//! use simtrace::host;
//!
//! host::reset();
//! host::set_enabled(true);
//! {
//!     let _outer = host::scope(host::Site::Scenario);
//!     let _inner = host::scope(host::Site::PoolTake);
//! }
//! host::set_enabled(false);
//! let report = host::collect();
//! # #[cfg(not(feature = "hostprof-off"))]
//! assert!(report.paths.iter().any(|p| p.names().ends_with("pool_take")));
//! ```

/// Deepest scope nesting a sample path can encode (one byte per level).
/// Deeper scopes still run; their samples fold into the deepest
/// representable ancestor path.
pub const MAX_DEPTH: usize = 8;

// ---------------------------------------------------------------------
// Site registry
// ---------------------------------------------------------------------

/// A probe site: one named section of simulator host work. The set is
/// closed on purpose — sites are identified by their discriminant on
/// the hot path and carry their name/subsystem as compile-time data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Site {
    /// Whole-scenario root frame opened by the driver binary; its self
    /// time is everything no finer probe accounts for (setup, workload
    /// verification, result folding).
    Scenario = 0,
    /// Fiber scheduler: run-queue bookkeeping and context-switch cost
    /// (self time of the whole `run_fibers` loop minus the fiber slices
    /// nested inside it).
    FiberSched,
    /// One fiber slice: resume → suspend. Self time is the simulated
    /// rank's own code between the finer probes below.
    FiberRun,
    /// Mailbox packet deposit on the sender side (queue push + targeted
    /// notify).
    MboxDeliver,
    /// Mailbox receive matching: one lock-held check iteration of the
    /// blocking receive loop (never the wait itself).
    MboxRecv,
    /// `waitall` completion bookkeeping in simmpi after all packets are
    /// in hand (clock advance, binding-edge search, trace emission).
    P2pWaitall,
    /// Pooled scratch-buffer acquisition ([`IoBuffer`] backing stores).
    ///
    /// [`IoBuffer`]: ../../simnet/enum.IoBuffer.html
    PoolTake,
    /// Scratch-buffer return to the per-thread pool.
    PoolPut,
    /// `Datatype::flatten_cached` lookup (hash of the type tree) and,
    /// on a miss, the full flatten walk.
    Flatten,
    /// Two-phase pack: gathering user-buffer pieces into send payloads
    /// (sender side of the exchange, plus the read-path carve-out).
    Pack,
    /// Two-phase unpack: cutting each source's piece stream for the
    /// round and scattering payloads into the aggregator window or the
    /// user buffer (receiver-side memcpy); the coverage merge nested
    /// inside is [`Site::Coverage`].
    Unpack,
    /// OST serve bookkeeping under the state mutex (queue maintenance,
    /// jitter draw, service arithmetic, trace emission) — never the
    /// admission gate, which can block.
    OstServe,
    /// TraceSink event append (so tracing overhead is self-measured).
    TraceRecord,
    /// No probe enters this site: the on-disk trace spill it timed is
    /// gone. The variant stays so that site ids, `SITE_COUNT` and code
    /// that names it (the benchmark's simtrace layer) keep compiling
    /// unchanged; it always reads zero.
    TraceSpill,
    /// Integrity checksum computation over packed piece payloads
    /// (sender side) and at-rest page sums on the simfs write path.
    CksumCompute,
    /// Integrity checksum verification: trailer checks at unpack and
    /// stored-sum checks on the simfs read/scrub path.
    CksumVerify,
    /// Collective-read data sieving: hole-density accounting plus the
    /// per-run carve-out of requested pieces from sieved read buffers
    /// (the read-side analogue of [`Site::Pack`], active only when the
    /// `cb_ds_read` hint is on).
    SieveRead,
    /// Admission gate scan: one `O(ranks)` admissibility check of a
    /// pending request against every other rank's floor (the progress
    /// registry, under its lock — never the wait between checks).
    GateScan,
    /// Admission gate handoff: the targeted wake of the minimum pending
    /// key's rank that ends every registry state change.
    GateWake,
    /// Two-phase window coverage: merging the per-source piece cuts of
    /// one round window into maximal covered runs — hole detection on
    /// the write side, the sieve decision and list-I/O runs on the read
    /// side. The per-piece work a synthetic round still does.
    Coverage,
    /// The transfer-size exchange of one two-phase round (and the piece
    /// count exchange of setup): an aggregator building the row it
    /// announces, and the combiner that buckets every rank's entries by
    /// destination at the meeting point — never the wait for the
    /// meeting.
    SizeExchange,
    /// Two-phase setup between its collectives: file domains,
    /// `calc_my_req`, building and indexing the request lists, the
    /// aggregator's touched range and round count.
    CollSetup,
    /// `File::plan`: one call's access plan, built from the view's
    /// flattened runs by run arithmetic.
    Plan,
}

/// Number of probe sites in the registry.
pub const SITE_COUNT: usize = 23;

/// Static description of one site.
struct SiteInfo {
    name: &'static str,
    subsystem: &'static str,
}

const SITES: [SiteInfo; SITE_COUNT] = [
    SiteInfo { name: "scenario", subsystem: "bench" },
    SiteInfo { name: "fiber_sched", subsystem: "simnet" },
    SiteInfo { name: "fiber_run", subsystem: "simnet" },
    SiteInfo { name: "mbox_deliver", subsystem: "simnet" },
    SiteInfo { name: "mbox_recv", subsystem: "simnet" },
    SiteInfo { name: "p2p_waitall", subsystem: "simmpi" },
    SiteInfo { name: "pool_take", subsystem: "simnet" },
    SiteInfo { name: "pool_put", subsystem: "simnet" },
    SiteInfo { name: "flatten_cached", subsystem: "mpiio" },
    SiteInfo { name: "twophase_pack", subsystem: "mpiio" },
    SiteInfo { name: "twophase_unpack", subsystem: "mpiio" },
    SiteInfo { name: "ost_serve", subsystem: "simfs" },
    SiteInfo { name: "trace_record", subsystem: "simtrace" },
    SiteInfo { name: "trace_spill", subsystem: "simtrace" },
    SiteInfo { name: "cksum_compute", subsystem: "integrity" },
    SiteInfo { name: "cksum_verify", subsystem: "integrity" },
    SiteInfo { name: "sieve_read", subsystem: "mpiio" },
    SiteInfo { name: "gate_scan", subsystem: "simnet" },
    SiteInfo { name: "gate_wake", subsystem: "simnet" },
    SiteInfo { name: "twophase_coverage", subsystem: "mpiio" },
    SiteInfo { name: "size_exchange", subsystem: "simmpi" },
    SiteInfo { name: "coll_setup", subsystem: "mpiio" },
    SiteInfo { name: "view_plan", subsystem: "mpiio" },
];

impl Site {
    /// The site's short name (stable; used in collapsed stacks and
    /// report rows).
    pub fn name(self) -> &'static str {
        SITES[self as usize].name
    }

    /// The crate-level subsystem the site belongs to.
    pub fn subsystem(self) -> &'static str {
        SITES[self as usize].subsystem
    }

    fn from_id(id: u8) -> Option<Site> {
        if (id as usize) < SITE_COUNT {
            // Safety not needed: match keeps this fully safe code.
            Some(match id {
                0 => Site::Scenario,
                1 => Site::FiberSched,
                2 => Site::FiberRun,
                3 => Site::MboxDeliver,
                4 => Site::MboxRecv,
                5 => Site::P2pWaitall,
                6 => Site::PoolTake,
                7 => Site::PoolPut,
                8 => Site::Flatten,
                9 => Site::Pack,
                10 => Site::Unpack,
                11 => Site::OstServe,
                12 => Site::TraceRecord,
                13 => Site::TraceSpill,
                14 => Site::CksumCompute,
                15 => Site::CksumVerify,
                16 => Site::SieveRead,
                17 => Site::GateScan,
                18 => Site::GateWake,
                19 => Site::Coverage,
                20 => Site::SizeExchange,
                21 => Site::CollSetup,
                22 => Site::Plan,
                _ => unreachable!(),
            })
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// A monotone host-side event counter. Like timer samples these are
/// host-execution facts (they depend on the executor and on pooling
/// mode), so they are published only through [`collect`] — never
/// through the deterministic metrics export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Counter {
    /// `flatten_cached` served from the per-thread cache.
    FlattenHit = 0,
    /// `flatten_cached` had to run the full flatten walk.
    FlattenMiss,
    /// Scratch-buffer request satisfied by a recycled backing store.
    PoolReuse,
    /// Scratch-buffer request that fell through to a fresh allocation
    /// (pool empty, pooling off, or size outside the pooled range).
    PoolMiss,
    /// A wait site signalled its condition variable for real (a
    /// `FUTEX_WAKE`): some OS thread was asleep in the substrate's wait
    /// primitive. Zero under the fiber executor, where ranks park.
    CondvarNotify,
    /// Elements a size exchange touched: the lists an aggregator looked
    /// at to build its row, and the entries and per-rank slots the
    /// combiner walked. Follows non-empty (rank, aggregator) pairs plus
    /// ranks, not ranks squared.
    SizeExchangeElems,
    /// Bytes fed to the integrity checksum: added once per piece seal,
    /// trailer check and storage range hash. A verify-mode run hashes
    /// every file byte seven times (DESIGN.md §14.6); this count is what
    /// keeps an eighth pass from arriving unseen.
    CksumBytes,
    /// Real bytes `memcpy`d on the data path (window scatter, page patch,
    /// `Storage::read`'s copying arm, `IoBuffer` copy-in / copy-on-write /
    /// concatenation). A verify run copies every file byte twice — into the
    /// staging window, out to the landing buffer — and this count pins it.
    CopyBytes,
}

/// Number of counters in the registry.
pub const COUNTER_COUNT: usize = 8;

const COUNTER_NAMES: [&str; COUNTER_COUNT] = [
    "flatten_hit",
    "flatten_miss",
    "pool_reuse",
    "pool_miss",
    "condvar_notify",
    "size_exchange_elems",
    "cksum_bytes",
    "copy_bytes",
];

impl Counter {
    /// The counter's short name (stable; used in report rows).
    pub fn name(self) -> &'static str {
        COUNTER_NAMES[self as usize]
    }
}

// ---------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------

/// Fixed-capacity FIFO ring. Never reallocates after construction: a
/// push into a full ring **drops the sample and counts it** in
/// [`dropped`](RingBuf::dropped) instead of growing — the profiler
/// must never let bookkeeping distort the measurement with allocator
/// traffic. The profiler's own rings are drained into the aggregate
/// table before they fill, so drops there mean the drain itself failed.
#[derive(Debug)]
pub struct RingBuf<T> {
    buf: Vec<T>,
    head: usize,
    len: usize,
    dropped: u64,
}

impl<T: Copy + Default> RingBuf<T> {
    /// New ring holding at most `cap` elements (capacity is fixed for
    /// the ring's lifetime).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        RingBuf { buf: vec![T::default(); cap], head: 0, len: 0, dropped: 0 }
    }

    /// Append `v`; returns `false` (and counts a drop) when full.
    pub fn push(&mut self, v: T) -> bool {
        if self.len == self.buf.len() {
            self.dropped += 1;
            return false;
        }
        let idx = (self.head + self.len) % self.buf.len();
        self.buf[idx] = v;
        self.len += 1;
        true
    }

    /// Remove and return the oldest element.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head = (self.head + 1) % self.buf.len();
        self.len -= 1;
        Some(v)
    }

    /// Elements currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Samples dropped by pushes into a full ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discard all held elements (capacity and drop count unchanged).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

// ---------------------------------------------------------------------
// Report types (shared by both compile modes)
// ---------------------------------------------------------------------

/// Aggregate of one distinct scope path.
#[derive(Debug, Clone)]
pub struct PathRow {
    /// The nested sites, outermost first.
    pub sites: Vec<Site>,
    /// Times the exact path was sampled.
    pub count: u64,
    /// Total (inclusive) nanoseconds across those samples.
    pub total_ns: u64,
    /// Self nanoseconds: total minus the totals of direct child paths
    /// (clamped at zero against clock skew).
    pub self_ns: u64,
}

impl PathRow {
    /// The path as `outer;inner;...` (collapsed-stack frame syntax).
    pub fn names(&self) -> String {
        let parts: Vec<&str> = self.sites.iter().map(|s| s.name()).collect();
        parts.join(";")
    }

    /// The innermost site of the path.
    pub fn leaf(&self) -> Site {
        *self.sites.last().expect("paths are non-empty")
    }
}

/// Folded per-site attribution (self time summed over every path
/// ending at the site).
#[derive(Debug, Clone)]
pub struct SiteAgg {
    /// The site.
    pub site: Site,
    /// Total samples ending at this site.
    pub count: u64,
    /// Self nanoseconds attributed to this site.
    pub self_ns: u64,
}

/// Snapshot of everything the profiler gathered since the last
/// [`reset`]: per-path timing aggregates plus the counter values.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Distinct sampled paths, sorted by path (stable across runs of
    /// identical shape).
    pub paths: Vec<PathRow>,
    /// Counter values, in [`Counter`] declaration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Samples dropped by full rings (0 in normal operation: rings
    /// drain into the aggregate table before they fill).
    pub dropped: u64,
    /// Per-thread drop counts, summed by thread name and sorted by it;
    /// only threads that dropped anything appear. Each thread records
    /// into its own ring (the thread executor has one per rank), so a
    /// drop is reported against that thread's name instead of being
    /// silently folded into the total.
    pub dropped_by_thread: Vec<(String, u64)>,
}

impl Report {
    /// Total nanoseconds attributed to named sites (sum of self time
    /// over all paths — equals the inclusive total of the root frames).
    pub fn attributed_ns(&self) -> u64 {
        self.paths.iter().map(|p| p.self_ns).sum()
    }

    /// Fold self time by innermost site, descending by self time.
    pub fn by_site(&self) -> Vec<SiteAgg> {
        let mut agg: [(u64, u64); SITE_COUNT] = [(0, 0); SITE_COUNT];
        for p in &self.paths {
            let i = p.leaf() as usize;
            agg[i].0 += p.count;
            agg[i].1 += p.self_ns;
        }
        let mut out: Vec<SiteAgg> = (0..SITE_COUNT)
            .filter(|&i| agg[i].0 > 0)
            .map(|i| SiteAgg {
                site: Site::from_id(i as u8).expect("registry index"),
                count: agg[i].0,
                self_ns: agg[i].1,
            })
            .collect();
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.site.name().cmp(b.site.name())));
        out
    }

    /// Samples recorded at `site` over every path ending there — for
    /// [`Site::FiberRun`], the number of fiber slices (resumes).
    pub fn samples(&self, site: Site) -> u64 {
        let at_site = self.paths.iter().filter(|p| p.leaf() == site);
        at_site.map(|p| p.count).sum()
    }

    /// Fold self time by subsystem, descending by self time.
    pub fn by_subsystem(&self) -> Vec<(&'static str, u64)> {
        let mut pairs: Vec<(&'static str, u64)> = Vec::new();
        for s in self.by_site() {
            let subsystem = s.site.subsystem();
            match pairs.iter_mut().find(|(name, _)| *name == subsystem) {
                Some((_, ns)) => *ns += s.self_ns,
                None => pairs.push((subsystem, s.self_ns)),
            }
        }
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        pairs
    }

    /// Render the report as collapsed stacks (`outer;inner self_ns`,
    /// one line per path), the input format of standard flamegraph
    /// tools (`flamegraph.pl`, inferno, speedscope).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            if p.self_ns == 0 {
                continue;
            }
            out.push_str(&p.names());
            out.push(' ');
            out.push_str(&p.self_ns.to_string());
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------
// Recording engine (compiled out under `hostprof-off`)
// ---------------------------------------------------------------------

#[cfg(not(feature = "hostprof-off"))]
mod engine {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
    use std::time::Instant;

    /// Staged samples per thread before a fold into the aggregate table.
    const RING_CAP: usize = 1024;

    /// Runtime gate: one relaxed load per disarmed probe.
    pub(super) static ENABLED: AtomicBool = AtomicBool::new(false);
    /// Bumped by [`reset`]; thread states lazily clear and re-register
    /// when they observe a new epoch.
    static EPOCH: AtomicU64 = AtomicU64::new(0);
    pub(super) static COUNTERS: [AtomicU64; COUNTER_COUNT] =
        [const { AtomicU64::new(0) }; COUNTER_COUNT];

    #[derive(Clone, Copy, Default)]
    struct Sample {
        path: u64,
        dur_ns: u64,
    }

    #[derive(Default)]
    pub(super) struct PathStat {
        pub(super) count: u64,
        pub(super) total_ns: u64,
    }

    /// Per-thread aggregate shared with the collector via the registry.
    struct ThreadAgg {
        /// The owning thread's name at registration time; anonymous
        /// threads get their `ThreadId` rendering.
        name: String,
        stats: Mutex<HashMap<u64, PathStat>>,
        dropped: AtomicU64,
    }

    impl ThreadAgg {
        fn for_current_thread() -> Self {
            let t = std::thread::current();
            let name = match t.name() {
                Some(n) => n.to_string(),
                None => format!("{:?}", t.id()),
            };
            ThreadAgg {
                name,
                stats: Mutex::new(HashMap::new()),
                dropped: AtomicU64::new(0),
            }
        }
    }

    fn registry() -> &'static Mutex<Vec<Arc<ThreadAgg>>> {
        static REGISTRY: Mutex<Vec<Arc<ThreadAgg>>> = Mutex::new(Vec::new());
        &REGISTRY
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    struct ThreadState {
        epoch: u64,
        /// Site-id stack; the top's encoded path is in `path`.
        stack: Vec<u8>,
        /// Path key of the current scope: one byte per level (site id
        /// + 1), outermost in the highest occupied byte.
        path: u64,
        ring: RingBuf<Sample>,
        /// Ring drops already published to `agg` (the ring's counter is
        /// cumulative; only the delta is new on each flush).
        reported_drops: u64,
        agg: Arc<ThreadAgg>,
    }

    impl ThreadState {
        fn new() -> Self {
            let agg = Arc::new(ThreadAgg::for_current_thread());
            let epoch = EPOCH.load(Ordering::Relaxed);
            lock(registry()).push(Arc::clone(&agg));
            ThreadState {
                epoch,
                stack: Vec::with_capacity(2 * MAX_DEPTH),
                path: 0,
                ring: RingBuf::new(RING_CAP),
                reported_drops: 0,
                agg,
            }
        }

        /// Re-sync with the global epoch after a [`reset`]: discard
        /// stale samples and re-register the aggregate (reset cleared
        /// the registry). Open scopes keep their stack so drops stay
        /// balanced; their samples land in the fresh epoch.
        fn resync(&mut self) {
            let epoch = EPOCH.load(Ordering::Relaxed);
            if self.epoch != epoch {
                self.epoch = epoch;
                self.ring.clear();
                lock(&self.agg.stats).clear();
                self.agg.dropped.store(0, Ordering::Relaxed);
                lock(registry()).push(Arc::clone(&self.agg));
            }
        }

        fn flush(&mut self) {
            if !self.ring.is_empty() {
                let mut stats = lock(&self.agg.stats);
                while let Some(s) = self.ring.pop() {
                    let e = stats.entry(s.path).or_default();
                    e.count += 1;
                    e.total_ns += s.dur_ns;
                }
            }
            // The ring's drop counter is cumulative over its lifetime;
            // publish only what has not been reported yet.
            let total = self.ring.dropped();
            if total > self.reported_drops {
                self.agg
                    .dropped
                    .fetch_add(total - self.reported_drops, Ordering::Relaxed);
                self.reported_drops = total;
            }
        }

        fn record(&mut self, path: u64, dur_ns: u64) {
            if self.ring.len() == self.ring.capacity() {
                self.flush();
            }
            self.ring.push(Sample { path, dur_ns });
        }
    }

    impl Drop for ThreadState {
        fn drop(&mut self) {
            // Thread exit: publish whatever is still staged.
            self.flush();
        }
    }

    thread_local! {
        static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::new());
    }

    pub(super) fn enter(site: Site) {
        let _ = STATE.try_with(|st| {
            let mut st = st.borrow_mut();
            st.resync();
            st.stack.push(site as u8);
            if st.stack.len() <= MAX_DEPTH {
                st.path = (st.path << 8) | (site as u64 + 1);
            }
        });
    }

    pub(super) fn exit(site: Site, dur_ns: u64) {
        let _ = STATE.try_with(|st| {
            let mut st = st.borrow_mut();
            let popped = st.stack.pop();
            debug_assert_eq!(
                popped,
                Some(site as u8),
                "hostprof scope imbalance: a scope crossed a yield or was dropped out of order"
            );
            let _ = popped;
            let path = st.path;
            if st.stack.len() < MAX_DEPTH {
                st.path >>= 8;
            }
            st.record(path, dur_ns);
        });
    }

    /// Scoped timer handle; records on drop. Inert when created while
    /// the profiler is disabled.
    pub struct ScopeGuard {
        site: Site,
        start: Option<Instant>,
    }

    impl ScopeGuard {
        /// Disarmed probes must stay one load + one branch at the call
        /// site: only the check is inlined, the armed path is outlined
        /// and `#[cold]` so the hot loops' codegen is undisturbed.
        #[inline(always)]
        pub(super) fn new(site: Site) -> ScopeGuard {
            if ENABLED.load(Ordering::Relaxed) {
                Self::new_armed(site)
            } else {
                ScopeGuard { site, start: None }
            }
        }

        #[cold]
        #[inline(never)]
        fn new_armed(site: Site) -> ScopeGuard {
            enter(site);
            ScopeGuard { site, start: Some(Instant::now()) }
        }

        #[cold]
        #[inline(never)]
        fn finish(&mut self) {
            if let Some(t0) = self.start.take() {
                let dur = t0.elapsed();
                exit(self.site, dur.as_nanos() as u64);
            }
        }
    }

    impl Drop for ScopeGuard {
        #[inline(always)]
        fn drop(&mut self) {
            if self.start.is_some() {
                self.finish();
            }
        }
    }

    pub(super) fn reset_impl() {
        for c in &COUNTERS {
            c.store(0, Ordering::Relaxed);
        }
        lock(registry()).clear();
        EPOCH.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn collect_impl() -> Report {
        // Publish the calling thread's staged samples first (the fiber
        // executor runs every rank on this thread, so this is usually
        // all of them).
        let _ = STATE.try_with(|st| st.borrow_mut().flush());
        let mut merged: HashMap<u64, PathStat> = HashMap::new();
        let mut dropped = 0u64;
        let mut by_thread: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        for agg in lock(registry()).iter() {
            for (path, stat) in lock(&agg.stats).iter() {
                let e = merged.entry(*path).or_default();
                e.count += stat.count;
                e.total_ns += stat.total_ns;
            }
            let d = agg.dropped.load(Ordering::Relaxed);
            dropped += d;
            if d > 0 {
                *by_thread.entry(agg.name.clone()).or_default() += d;
            }
        }
        let mut keys: Vec<u64> = merged.keys().copied().collect();
        keys.sort_unstable();
        // Direct-child inclusive totals, for self-time computation.
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for k in &keys {
            if let Some(parent) = parent_of(*k) {
                *child_ns.entry(parent).or_default() += merged[k].total_ns;
            }
        }
        let paths = keys
            .iter()
            .map(|k| {
                let stat = &merged[k];
                let nested = child_ns.get(k).copied().unwrap_or(0);
                PathRow {
                    sites: decode_path(*k),
                    count: stat.count,
                    total_ns: stat.total_ns,
                    self_ns: stat.total_ns.saturating_sub(nested),
                }
            })
            .collect();
        let counters = (0..COUNTER_COUNT)
            .map(|i| (COUNTER_NAMES[i], COUNTERS[i].load(Ordering::Relaxed)))
            .collect();
        Report {
            paths,
            counters,
            dropped,
            dropped_by_thread: by_thread.into_iter().collect(),
        }
    }

    /// Test-only: register `n` synthetic ring drops on the calling
    /// thread, as a full ring whose drain failed would.
    #[cfg(test)]
    pub(super) fn inject_drops_for_test(n: u64) {
        let _ = STATE.try_with(|st| {
            let mut st = st.borrow_mut();
            st.resync();
            st.agg.dropped.fetch_add(n, Ordering::Relaxed);
        });
    }

    fn parent_of(path: u64) -> Option<u64> {
        let parent = path >> 8;
        (parent != 0).then_some(parent)
    }

    fn decode_path(mut path: u64) -> Vec<Site> {
        let mut rev = Vec::new();
        while path != 0 {
            let id = (path & 0xFF) as u8 - 1;
            rev.push(Site::from_id(id).expect("encoded site id"));
            path >>= 8;
        }
        rev.reverse();
        rev
    }
}

#[cfg(not(feature = "hostprof-off"))]
pub use engine::ScopeGuard;

#[cfg(not(feature = "hostprof-off"))]
use std::sync::atomic::Ordering;

/// Is the profiler armed? Disarmed probes cost one relaxed load.
#[cfg(not(feature = "hostprof-off"))]
#[inline]
pub fn enabled() -> bool {
    engine::ENABLED.load(Ordering::Relaxed)
}

/// Arm or disarm the profiler process-wide. Purely host-side: virtual
/// time and every deterministic artifact are identical either way.
#[cfg(not(feature = "hostprof-off"))]
pub fn set_enabled(on: bool) {
    engine::ENABLED.store(on, Ordering::Relaxed);
}

/// Open a scoped timer on `site`; the sample is recorded when the
/// returned guard drops. Must not span a fiber yield (see module docs).
#[cfg(not(feature = "hostprof-off"))]
#[inline]
pub fn scope(site: Site) -> ScopeGuard {
    ScopeGuard::new(site)
}

/// Add `n` to a counter (no-op while disarmed). Like [`scope`], only
/// the armed check is inlined; the atomic add is outlined and cold.
#[cfg(not(feature = "hostprof-off"))]
#[inline(always)]
pub fn count(counter: Counter, n: u64) {
    #[cold]
    #[inline(never)]
    fn add(counter: Counter, n: u64) {
        engine::COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
    if enabled() {
        add(counter, n);
    }
}

/// Discard all samples and counters gathered so far.
#[cfg(not(feature = "hostprof-off"))]
pub fn reset() {
    engine::reset_impl();
}

/// Snapshot the aggregates gathered since the last [`reset`] into a
/// [`Report`] (flushes the calling thread's staged samples first).
#[cfg(not(feature = "hostprof-off"))]
pub fn collect() -> Report {
    engine::collect_impl()
}

// ---------------------------------------------------------------------
// Compile-time-off stubs
// ---------------------------------------------------------------------

/// Inert scope handle of the `hostprof-off` build.
#[cfg(feature = "hostprof-off")]
pub struct ScopeGuard;

/// Always `false`: the probes are compiled out.
#[cfg(feature = "hostprof-off")]
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// No-op: the probes are compiled out.
#[cfg(feature = "hostprof-off")]
#[inline(always)]
pub fn set_enabled(_on: bool) {}

/// No-op scope: compiles to nothing at the call site.
#[cfg(feature = "hostprof-off")]
#[inline(always)]
pub fn scope(_site: Site) -> ScopeGuard {
    ScopeGuard
}

/// No-op counter: compiles to nothing at the call site.
#[cfg(feature = "hostprof-off")]
#[inline(always)]
pub fn count(_counter: Counter, _n: u64) {}

/// No-op: nothing to discard.
#[cfg(feature = "hostprof-off")]
#[inline(always)]
pub fn reset() {}

/// Always the empty report in the `hostprof-off` build.
#[cfg(feature = "hostprof-off")]
pub fn collect() -> Report {
    Report::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overflow_drops_and_counts_without_reallocating() {
        let mut ring: RingBuf<u64> = RingBuf::new(4);
        for i in 0..4 {
            assert!(ring.push(i));
        }
        assert_eq!(ring.capacity(), 4);
        // Overflow: dropped, counted, capacity untouched.
        assert!(!ring.push(99));
        assert!(!ring.push(100));
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.capacity(), 4);
        assert_eq!(ring.len(), 4);
        // FIFO order survives, and the dropped values never appear.
        assert_eq!(ring.pop(), Some(0));
        assert!(ring.push(5));
        let rest: Vec<u64> = std::iter::from_fn(|| ring.pop()).collect();
        assert_eq!(rest, vec![1, 2, 3, 5]);
        assert_eq!(ring.dropped(), 2, "draining does not rewrite history");
    }

    #[test]
    fn ring_clear_keeps_capacity_and_drop_count() {
        let mut ring: RingBuf<u8> = RingBuf::new(2);
        ring.push(1);
        ring.push(2);
        ring.push(3);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.capacity(), 2);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn site_registry_is_complete_and_named() {
        for id in 0..SITE_COUNT as u8 {
            let site = Site::from_id(id).expect("every id under SITE_COUNT resolves");
            assert_eq!(site as u8, id);
            assert!(!site.name().is_empty());
            assert!(!site.subsystem().is_empty());
        }
        assert!(Site::from_id(SITE_COUNT as u8).is_none());
    }

    /// The recording tests mutate process-global profiler state
    /// (enable flag, epoch, registry); serialize them.
    #[cfg(not(feature = "hostprof-off"))]
    fn recording_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[cfg(not(feature = "hostprof-off"))]
    #[test]
    fn dropped_samples_are_attributed_to_their_thread() {
        let _serial = recording_lock();
        std::thread::Builder::new()
            .name("drop-source".into())
            .spawn(|| {
                engine::inject_drops_for_test(3);
                engine::inject_drops_for_test(2);
            })
            .expect("spawn drop-source")
            .join()
            .expect("join drop-source");
        let report = collect();
        let per_thread = report
            .dropped_by_thread
            .iter()
            .find(|(name, _)| name == "drop-source")
            .expect("dropping thread reported by name");
        assert_eq!(per_thread.1, 5);
        assert!(report.dropped >= 5, "total covers the per-thread rows");
        assert_eq!(
            report.dropped_by_thread.iter().map(|(_, d)| d).sum::<u64>(),
            report.dropped,
            "per-thread rows tile the total"
        );
        reset();
        assert!(collect().dropped_by_thread.is_empty());
    }

    // The recording tests mutate process-global profiler state, so they
    // run as one test body.
    #[cfg(not(feature = "hostprof-off"))]
    #[test]
    fn scopes_nest_counters_count_and_reset_clears() {
        let _serial = recording_lock();
        reset();
        set_enabled(true);
        {
            let _outer = scope(Site::Scenario);
            for _ in 0..3 {
                let _inner = scope(Site::PoolTake);
                std::hint::black_box(0u64);
            }
            count(Counter::PoolReuse, 2);
            count(Counter::PoolMiss, 1);
        }
        set_enabled(false);
        // Disarmed probes record nothing.
        {
            let _ghost = scope(Site::Flatten);
            count(Counter::FlattenHit, 7);
        }
        let report = collect();
        assert_eq!(report.dropped, 0);
        let outer = report
            .paths
            .iter()
            .find(|p| p.names() == "scenario")
            .expect("root path present");
        let inner = report
            .paths
            .iter()
            .find(|p| p.names() == "scenario;pool_take")
            .expect("nested path present");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert!(
            outer.total_ns >= inner.total_ns,
            "inclusive parent covers child"
        );
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(!report.paths.iter().any(|p| p.leaf() == Site::Flatten));
        let counters: std::collections::BTreeMap<_, _> = report.counters.iter().copied().collect();
        assert_eq!(counters["pool_reuse"], 2);
        assert_eq!(counters["pool_miss"], 1);
        assert_eq!(counters["flatten_hit"], 0);
        // by_site folds self time by leaf; collapsed emits one frame
        // per nonzero-self path.
        let by_site = report.by_site();
        assert!(by_site.iter().any(|s| s.site == Site::PoolTake && s.count == 3));
        assert!(report.collapsed().contains("scenario;pool_take "));
        assert_eq!(
            report.attributed_ns(),
            outer.total_ns,
            "self times tile the root's inclusive total"
        );
        // Subsystem fold covers both sampled subsystems.
        let subs = report.by_subsystem();
        assert!(subs.iter().any(|(s, _)| *s == "bench"));
        assert!(subs.iter().any(|(s, _)| *s == "simnet"));
        // Reset forgets everything, including counters.
        reset();
        let empty = collect();
        assert!(empty.paths.is_empty());
        assert!(empty.counters.iter().all(|(_, v)| *v == 0));
    }

    #[cfg(not(feature = "hostprof-off"))]
    #[test]
    fn deep_nesting_folds_into_deepest_representable_ancestor() {
        let _serial = recording_lock();
        // Depth > MAX_DEPTH must not lose time or unbalance the stack.
        fn nest(depth: usize) {
            if depth == 0 {
                return;
            }
            let _g = scope(Site::Pack);
            nest(depth - 1);
        }
        // Serialize against the other recording test via reset-epoch
        // semantics: this test only asserts on its own thread's paths
        // being balanced, not on global counts.
        nest(MAX_DEPTH + 3);
        let report = collect();
        for p in &report.paths {
            assert!(p.sites.len() <= MAX_DEPTH);
        }
    }
}
