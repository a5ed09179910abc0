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
//! * **Scoped timers, one thread-local table.** [`scope`] pushes the
//!   site onto the calling thread's probe stack and, on drop, folds one
//!   `(path, duration)` sample straight into the thread's path→stat
//!   map. Paths encode up to [`MAX_DEPTH`] nested sites in one `u64`, so
//!   a path is a map key with no hashing of vectors.
//! * **Runtime gate.** Every probe starts with one read of a
//!   thread-local flag ([`enabled`]); disarmed probes do nothing else.
//!   The `hostperf` A/B gate in CI holds this runtime-off overhead under
//!   2% against a build with the probes compiled out.
//! * **One thread by type.** The flag, the counters, the probe stack and
//!   the map belong to the calling thread: every rank of a cluster is a
//!   fiber on the thread that runs it, so [`set_enabled`], [`reset`] and
//!   [`collect`] on that thread see the whole run, and a run on another
//!   thread (a test, say) neither disturbs nor shows in it.
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
//! which leaf probes nest under. A fiber that hands the thread to the
//! next one passes its slice's timer on ([`ScopeGuard::lap`]): one clock
//! read per handoff, and the closing slice ends where the next begins.
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
    /// time is everything no finer probe accounts for outside the ranks
    /// (setup, result folding). Work a rank does itself runs inside its
    /// fiber slices and lands in [`Site::FiberRun`] under fibers, but for
    /// the finer sites below (its verification pattern is
    /// [`Site::Pattern`]).
    Scenario = 0,
    /// Fiber scheduler loop: starting the fibers, collecting finished
    /// ones, deadlock diagnosis (self time of the whole `run_fibers` loop
    /// minus the fiber slices nested inside it).
    FiberSched,
    /// One fiber slice: resume → suspend. Self time is the simulated
    /// rank's own code between the finer probes below; a fiber that
    /// hands the thread straight to the next one also pays its own
    /// switch-out (the run-queue pop and the context switch), since its
    /// slice ends at the instant the next one begins.
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
    /// round, placing payloads as views on the aggregator window's pieces,
    /// and assembling a read's user buffer (its one memcpy); the coverage
    /// merge nested inside is [`Site::Coverage`].
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
    /// Collective-read gap decision: closing the holes of a read
    /// window's coverage that are cheaper to read through than to skip
    /// (only windows with holes enter it).
    SieveRead,
    /// Two-phase window coverage: merging the per-source piece cuts of
    /// one round window into maximal covered runs — hole detection on
    /// the write side, the runs a read fetches on the read side. The
    /// per-piece work a synthetic round still does.
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
    /// Verification pattern: generating a transfer's bytes
    /// (`workloads::pattern_buffer`) and checking its read-back against
    /// them (`workloads::pattern_mismatch`).
    Pattern,
}

/// Number of probe sites in the registry.
pub const SITE_COUNT: usize = 22;

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
    SiteInfo { name: "twophase_coverage", subsystem: "mpiio" },
    SiteInfo { name: "size_exchange", subsystem: "simmpi" },
    SiteInfo { name: "coll_setup", subsystem: "mpiio" },
    SiteInfo { name: "view_plan", subsystem: "mpiio" },
    SiteInfo { name: "pattern", subsystem: "workloads" },
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
                17 => Site::Coverage,
                18 => Site::SizeExchange,
                19 => Site::CollSetup,
                20 => Site::Plan,
                21 => Site::Pattern,
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
    /// A collective call (per rank) took the last call's index as it is:
    /// its request lists, and the domain it serves with its window
    /// coverage (`mpiio::twophase::Memo`). Nothing was rebuilt.
    ShapeHit,
    /// A collective call (per rank) rebuilt its index: a first call, or
    /// one shaped unlike the last.
    ShapeMiss,
    /// Scratch-buffer request satisfied by a recycled backing store.
    PoolReuse,
    /// Scratch-buffer request that fell through to a fresh allocation
    /// (pool empty, pooling off, or size outside the pooled range).
    PoolMiss,
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
    /// Real bytes `memcpy`d on the data path (a read's assembly, a
    /// remnant extent copied out, `Storage::read`'s copying arm,
    /// `IoBuffer` copy-in / copy-on-write / concatenation). A verify run
    /// copies every file byte once — into the reader's buffer, at the end
    /// of its read — and this count pins it.
    CopyBytes,
    /// Run-queue work: one per push or pop of the fiber scheduler's
    /// priority queue, plus the heap levels it moved an entry through.
    /// Follows `log ranks` per event (OST request, send, collective
    /// entry).
    RunqSteps,
}

/// Number of counters in the registry.
pub const COUNTER_COUNT: usize = 10;

const COUNTER_NAMES: [&str; COUNTER_COUNT] = [
    "flatten_hit",
    "flatten_miss",
    "shape_hit",
    "shape_miss",
    "pool_reuse",
    "pool_miss",
    "size_exchange_elems",
    "cksum_bytes",
    "copy_bytes",
    "runq_steps",
];

impl Counter {
    /// The counter's short name (stable; used in report rows).
    pub fn name(self) -> &'static str {
        COUNTER_NAMES[self as usize]
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
    /// Always 0: every sample folds straight into the table, so none is
    /// ever dropped. The field stays so that code reading it (the
    /// benchmark's `simtrace.hostprof_dropped`) keeps compiling
    /// unchanged, as [`Site::TraceSpill`] does.
    pub dropped: u64,
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
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;
    use std::time::Instant;

    #[derive(Default)]
    struct PathStat {
        count: u64,
        total_ns: u64,
    }

    /// What the calling thread gathered since its last [`reset`].
    #[derive(Default)]
    struct State {
        /// Site-id stack; the top's encoded path is in `path`.
        stack: Vec<u8>,
        /// Path key of the current scope: one byte per level (site id
        /// + 1), outermost in the highest occupied byte.
        path: u64,
        counters: [u64; COUNTER_COUNT],
        stats: HashMap<u64, PathStat>,
    }

    impl State {
        fn record(&mut self, path: u64, dur_ns: u64) {
            let e = self.stats.entry(path).or_default();
            e.count += 1;
            e.total_ns += dur_ns;
        }
    }

    thread_local! {
        /// Runtime gate: one thread-local read per disarmed probe.
        pub(super) static ENABLED: Cell<bool> = const { Cell::new(false) };
        static STATE: RefCell<State> = RefCell::default();
    }

    /// Run `f` on the calling thread's state; a probe that fires as the
    /// thread exits (a buffer a thread-local drops) finds it gone and
    /// records nothing.
    fn with_state(f: impl FnOnce(&mut State)) {
        let _ = STATE.try_with(|st| f(&mut st.borrow_mut()));
    }

    fn enter(site: Site) {
        with_state(|st| {
            st.stack.push(site as u8);
            if st.stack.len() <= MAX_DEPTH {
                st.path = (st.path << 8) | (site as u64 + 1);
            }
        });
    }

    fn exit(site: Site, dur_ns: u64) {
        with_state(|st| {
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

    /// Record one sample of the open scope `site`, the top of the stack,
    /// and stay in it.
    fn lap_record(site: Site, dur_ns: u64) {
        with_state(|st| {
            debug_assert_eq!(
                st.stack.last(),
                Some(&(site as u8)),
                "hostprof lap: the scope is not the innermost open one"
            );
            let path = st.path;
            st.record(path, dur_ns);
        });
    }

    #[cold]
    #[inline(never)]
    pub(super) fn add(counter: Counter, n: u64) {
        with_state(|st| st.counters[counter as usize] += n);
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
            if ENABLED.get() {
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

        /// End this scope's sample here and start the next sample of the
        /// same site at the same instant, without leaving the scope: a
        /// run of back-to-back scopes of one site (the fiber executor's
        /// slices, handed from fiber to fiber) costs one clock read per
        /// boundary, and no time falls between two of them. Inert on an
        /// inert guard.
        #[inline(always)]
        pub fn lap(&mut self) {
            if self.start.is_some() {
                self.lap_armed();
            }
        }

        #[cold]
        #[inline(never)]
        fn lap_armed(&mut self) {
            if let Some(t0) = self.start {
                let now = Instant::now();
                lap_record(self.site, (now - t0).as_nanos() as u64);
                self.start = Some(now);
            }
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

    /// Forget the samples and counters; open scopes keep their stack, so
    /// their drops stay balanced and land in the fresh table.
    pub(super) fn reset_impl() {
        with_state(|st| {
            st.counters = [0; COUNTER_COUNT];
            st.stats.clear();
        });
    }

    pub(super) fn collect_impl() -> Report {
        let mut report = Report::default();
        with_state(|st| {
            let mut keys: Vec<u64> = st.stats.keys().copied().collect();
            keys.sort_unstable();
            // Direct-child inclusive totals, for self-time computation.
            let mut child_ns: HashMap<u64, u64> = HashMap::new();
            for k in &keys {
                if let Some(parent) = parent_of(*k) {
                    *child_ns.entry(parent).or_default() += st.stats[k].total_ns;
                }
            }
            report.paths = keys
                .iter()
                .map(|k| {
                    let stat = &st.stats[k];
                    let nested = child_ns.get(k).copied().unwrap_or(0);
                    PathRow {
                        sites: decode_path(*k),
                        count: stat.count,
                        total_ns: stat.total_ns,
                        self_ns: stat.total_ns.saturating_sub(nested),
                    }
                })
                .collect();
            report.counters = COUNTER_NAMES.iter().copied().zip(st.counters).collect();
        });
        report
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

/// Is the profiler armed on the calling thread? Disarmed probes cost one
/// thread-local read.
#[cfg(not(feature = "hostprof-off"))]
#[inline]
pub fn enabled() -> bool {
    engine::ENABLED.get()
}

/// Arm or disarm the profiler on the calling thread, and so for every
/// rank of the clusters it runs. Purely host-side: virtual time and
/// every deterministic artifact are identical either way.
#[cfg(not(feature = "hostprof-off"))]
pub fn set_enabled(on: bool) {
    engine::ENABLED.set(on);
}

/// Open a scoped timer on `site`; the sample is recorded when the
/// returned guard drops. Must not span a fiber yield (see module docs).
#[cfg(not(feature = "hostprof-off"))]
#[inline]
pub fn scope(site: Site) -> ScopeGuard {
    ScopeGuard::new(site)
}

/// Add `n` to a counter (no-op while disarmed). Like [`scope`], only
/// the armed check is inlined; the add is outlined and cold.
#[cfg(not(feature = "hostprof-off"))]
#[inline(always)]
pub fn count(counter: Counter, n: u64) {
    if enabled() {
        engine::add(counter, n);
    }
}

/// Discard the samples and counters the calling thread gathered so far.
#[cfg(not(feature = "hostprof-off"))]
pub fn reset() {
    engine::reset_impl();
}

/// Snapshot what the calling thread gathered since its last [`reset`]
/// into a [`Report`].
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

#[cfg(feature = "hostprof-off")]
impl ScopeGuard {
    /// No-op: the probes are compiled out.
    #[inline(always)]
    pub fn lap(&mut self) {}
}

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
    fn site_registry_is_complete_and_named() {
        for id in 0..SITE_COUNT as u8 {
            let site = Site::from_id(id).expect("every id under SITE_COUNT resolves");
            assert_eq!(site as u8, id);
            assert!(!site.name().is_empty());
            assert!(!site.subsystem().is_empty());
        }
        assert!(Site::from_id(SITE_COUNT as u8).is_none());
    }

    #[cfg(not(feature = "hostprof-off"))]
    #[test]
    fn scopes_nest_counters_count_and_reset_clears() {
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
    fn laps_split_one_scope_into_back_to_back_samples() {
        reset();
        set_enabled(true);
        {
            let _outer = scope(Site::FiberSched);
            let mut slice = scope(Site::FiberRun);
            for _ in 0..4 {
                std::hint::black_box(0u64);
                slice.lap();
            }
        }
        set_enabled(false);
        let report = collect();
        let row = |names: &str| report.paths.iter().find(|p| p.names() == names).cloned();
        let slices = row("fiber_sched;fiber_run").expect("slice path present");
        let sched = row("fiber_sched").expect("root path present");
        // Four laps and the closing drop: five samples on one path, and
        // the stack is balanced (no sample nested under a lap).
        assert_eq!(slices.count, 5);
        assert!(row("fiber_sched;fiber_run;fiber_run").is_none());
        assert!(sched.total_ns >= slices.total_ns);
        reset();
    }

    #[cfg(not(feature = "hostprof-off"))]
    #[test]
    fn deep_nesting_folds_into_deepest_representable_ancestor() {
        // Depth > MAX_DEPTH must not lose time or unbalance the stack.
        fn nest(depth: usize) {
            if depth == 0 {
                return;
            }
            let _g = scope(Site::Pack);
            nest(depth - 1);
        }
        reset();
        set_enabled(true);
        nest(MAX_DEPTH + 3);
        set_enabled(false);
        let report = collect();
        assert_eq!(report.paths.len(), MAX_DEPTH);
        for p in &report.paths {
            assert!(p.sites.len() <= MAX_DEPTH);
        }
        // The three scopes below the deepest level fold into its path.
        assert_eq!(report.paths.last().map(|p| p.count), Some(4));
    }
}
