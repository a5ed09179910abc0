//! The file system: metadata service, files, and client operations.

use crate::config::FsConfig;
use crate::integrity::{IntegrityError, IntegrityStore, ScrubReport, PAGE_SIZE};
use crate::layout::StripeLayout;
use crate::ost::{Ost, OstStats};
use crate::storage::Storage;
use simnet::{FaultPlan, IoBuffer, Jitter, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// One file's metadata and contents.
#[derive(Debug)]
struct FileEntry {
    layout: StripeLayout,
    storage: RefCell<Storage>,
    /// Per-page checksums and rot bookkeeping; present iff
    /// [`FsConfig::integrity`] is on.
    integrity: Option<RefCell<IntegrityStore>>,
}

#[derive(Debug)]
struct Mds {
    files: HashMap<String, Rc<FileEntry>>,
    next_first_ost: usize,
    next_free: SimTime,
    opens: u64,
}

#[derive(Debug)]
struct FsInner {
    cfg: FsConfig,
    osts: Vec<Ost>,
    /// The OSTs' service-time jitter, `cfg.jitter_cv`'s.
    jitter: Jitter,
    mds: RefCell<Mds>,
    next_client: Cell<u64>,
    /// The installed fault plan (rot rules address file extents through
    /// it); `None` until [`FileSystem::install_faults`].
    faults: RefCell<Option<Arc<FaultPlan>>>,
}

/// A shared parallel file system instance. Cheap to clone (`Rc` inside);
/// one instance is shared by every rank of a cluster run, all of them on
/// the thread that built it (the `simfs` crate docs).
///
/// # Examples
///
/// ```
/// use simfs::{FileSystem, FsConfig};
/// use simnet::{IoBuffer, SimTime};
///
/// let fs = FileSystem::new(FsConfig::tiny());
/// let (file, t_open) = fs.open("/data", SimTime::ZERO);
/// let t_write = file.write_at(0, &IoBuffer::from_slice(b"striped"), t_open);
/// let (data, _) = file.read_at(0, 7, t_write);
/// assert_eq!(data.as_slice().unwrap(), b"striped");
/// assert!(t_write > t_open); // virtual time advanced through the OSTs
/// ```
#[derive(Debug, Clone)]
pub struct FileSystem {
    inner: Rc<FsInner>,
}

/// An open file. Cheap to clone; all clones address the same file and
/// share the opener's client identity (for lock-contention accounting).
#[derive(Debug, Clone)]
pub struct FileHandle {
    fs: FileSystem,
    path: String,
    entry: Rc<FileEntry>,
    client: u64,
}

/// Aggregate file system statistics.
#[derive(Debug, Clone, Default)]
pub struct FsStats {
    /// Per-OST statistics, by pool index.
    pub osts: Vec<OstStats>,
    /// Total bytes served across all targets.
    pub total_bytes: u64,
    /// Total chunk requests across all targets.
    pub total_requests: u64,
    /// Metadata opens served.
    pub opens: u64,
    /// Busy time of the busiest target — the straggler that lock-step
    /// collective rounds end up waiting for.
    pub max_ost_busy: SimTime,
    /// Bytes of file-image pages resident in memory across all files.
    pub image_resident_bytes: u64,
    /// At-rest extents detected and repaired by the integrity layer
    /// (read-path verification plus scrub passes), across all files.
    pub integrity_repaired: u64,
    /// Pages currently poisoned: corruption detected on data with no
    /// durable copy to repair from.
    pub integrity_poisoned: u64,
}

impl FileSystem {
    /// Create a file system from a validated configuration.
    pub fn new(cfg: FsConfig) -> Self {
        cfg.validate();
        let osts = (0..cfg.n_osts)
            .map(|i| Ost::new(cfg.seed.wrapping_add(0x9E37 * i as u64 + 1)))
            .collect();
        FileSystem {
            inner: Rc::new(FsInner {
                jitter: Jitter::new(cfg.jitter_cv),
                cfg,
                osts,
                mds: RefCell::new(Mds {
                    files: HashMap::new(),
                    next_first_ost: 0,
                    next_free: SimTime::ZERO,
                    opens: 0,
                }),
                next_client: Cell::new(1),
                faults: RefCell::new(None),
            }),
        }
    }

    fn new_entry(&self, layout: StripeLayout) -> Rc<FileEntry> {
        Rc::new(FileEntry {
            layout,
            storage: RefCell::new(Storage::new()),
            integrity: self
                .inner
                .cfg
                .integrity
                .then(|| RefCell::new(IntegrityStore::new())),
        })
    }

    fn next_client(&self) -> u64 {
        let client = self.inner.next_client.get();
        self.inner.next_client.set(client + 1);
        client
    }

    /// The configuration in force.
    pub fn config(&self) -> &FsConfig {
        &self.inner.cfg
    }

    /// Attach a trace sink: each OST gets a recorder on its own `ost<i>`
    /// track and emits service intervals, queue waits and volume metrics
    /// for every request it serves. With a disabled sink this is a no-op
    /// installation (recording calls stay single-branch cheap).
    pub fn attach_trace(&self, sink: &simtrace::TraceSink) {
        for (i, ost) in self.inner.osts.iter().enumerate() {
            ost.attach_trace(sink.recorder(simtrace::TrackKey::Ost(i)));
        }
    }

    /// Install a fault plan on every OST: `ost_slow` / `ost_fail_after`
    /// rules address targets by their index here. Uninstalled (the
    /// default), the service model is byte-for-byte the unperturbed one.
    pub fn install_faults(&self, plan: &Arc<FaultPlan>) {
        for (i, ost) in self.inner.osts.iter().enumerate() {
            ost.install_faults(Arc::clone(plan), i);
        }
        // Keep the plan: `ost_rot` rules address at-rest file extents,
        // which the integrity layer materializes at read/scrub time.
        *self.inner.faults.borrow_mut() = Some(Arc::clone(plan));
    }

    /// Open (creating if absent) with the default stripe parameters.
    /// Returns the handle and the virtual completion time of the open.
    pub fn open(&self, path: &str, now: SimTime) -> (FileHandle, SimTime) {
        let (sc, ss) = (
            self.inner.cfg.default_stripe_count,
            self.inner.cfg.default_stripe_size,
        );
        self.open_with_layout(path, sc, ss, now)
    }

    /// Open (creating if absent) with explicit striping. Striping of an
    /// existing file is immutable — the parameters apply only on create,
    /// as in Lustre.
    pub fn open_with_layout(
        &self,
        path: &str,
        stripe_count: usize,
        stripe_size: u64,
        now: SimTime,
    ) -> (FileHandle, SimTime) {
        let cfg = &self.inner.cfg;
        let mut mds = self.inner.mds.borrow_mut();
        mds.opens += 1;
        // MDS is a serial resource for the per-open bookkeeping; the base
        // latency overlaps across clients.
        let start = mds.next_free.max(now + cfg.rpc_latency);
        mds.next_free = start + cfg.open_per_client;
        let done = mds.next_free + cfg.open_base + cfg.rpc_latency;

        let entry = match mds.files.get(path) {
            Some(e) => Rc::clone(e),
            None => {
                let first = mds.next_first_ost;
                mds.next_first_ost = (mds.next_first_ost + 1) % cfg.n_osts;
                let entry =
                    self.new_entry(StripeLayout::new(first, stripe_count, stripe_size, cfg.n_osts));
                mds.files.insert(path.to_string(), Rc::clone(&entry));
                entry
            }
        };
        drop(mds);
        let client = self.next_client();
        (
            FileHandle {
                fs: self.clone(),
                path: path.to_string(),
                entry,
                client,
            },
            done,
        )
    }

    /// Charge one *collective* open: `parties` clients that have already
    /// agreed on a common clock `now` are served back-to-back by the
    /// serial MDS bookkeeping. Returns the completion instant of the
    /// last-served client. Creates the file (with the given striping) if
    /// absent, exactly as [`open_with_layout`](Self::open_with_layout);
    /// fetch per-client handles afterwards with [`handle`](Self::handle).
    ///
    /// Charging the whole group in one call is what keeps virtual time
    /// independent of host order: `parties` per-client opens would be
    /// queued in whatever order the scheduler resumed the ranks.
    pub fn open_collective(
        &self,
        path: &str,
        stripe_count: usize,
        stripe_size: u64,
        now: SimTime,
        parties: usize,
    ) -> SimTime {
        let cfg = &self.inner.cfg;
        let mut mds = self.inner.mds.borrow_mut();
        mds.opens += parties as u64;
        let start = mds.next_free.max(now + cfg.rpc_latency);
        mds.next_free = start + cfg.open_per_client * parties as f64;
        let done = mds.next_free + cfg.open_base + cfg.rpc_latency;
        if !mds.files.contains_key(path) {
            let first = mds.next_first_ost;
            mds.next_first_ost = (mds.next_first_ost + 1) % cfg.n_osts;
            let entry =
                self.new_entry(StripeLayout::new(first, stripe_count, stripe_size, cfg.n_osts));
            mds.files.insert(path.to_string(), entry);
        }
        done
    }

    /// A handle to an already-opened file, with a fresh client identity.
    /// Used by clients whose open was charged collectively via
    /// [`open_collective`](Self::open_collective).
    ///
    /// # Panics
    ///
    /// Panics if `path` has never been opened.
    pub fn handle(&self, path: &str) -> FileHandle {
        let entry = self
            .inner
            .mds
            .borrow()
            .files
            .get(path)
            .map(Rc::clone)
            .expect("handle() requires a prior open of the path");
        let client = self.next_client();
        FileHandle {
            fs: self.clone(),
            path: path.to_string(),
            entry,
            client,
        }
    }

    /// Remove a file's metadata and contents. Existing handles keep their
    /// (now unlinked) contents alive, POSIX-style.
    pub fn unlink(&self, path: &str) -> bool {
        self.inner.mds.borrow_mut().files.remove(path).is_some()
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.mds.borrow().files.contains_key(path)
    }

    /// The instant every queued byte is durable — what an `fsync`/close
    /// barrier waits for. Write-back caching lets writes complete ahead
    /// of the media; a benchmark that measures "bandwidth to stable
    /// storage" must include this drain.
    pub fn drain_time(&self) -> SimTime {
        self.inner
            .osts
            .iter()
            .map(Ost::next_free)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Snapshot aggregate statistics.
    pub fn stats(&self) -> FsStats {
        let osts: Vec<OstStats> = self.inner.osts.iter().map(Ost::stats).collect();
        let (opens, image_resident_bytes, integrity_repaired, integrity_poisoned) = {
            let mds = self.inner.mds.borrow();
            let (mut res, mut rep, mut poi) = (0u64, 0u64, 0u64);
            for entry in mds.files.values() {
                if let Some(integ) = &entry.integrity {
                    let integ = integ.borrow();
                    rep += integ.repaired_extents();
                    poi += integ.poisoned_pages();
                }
                res += entry.storage.borrow().resident_bytes();
            }
            (mds.opens, res, rep, poi)
        };
        FsStats {
            total_bytes: osts.iter().map(|s| s.bytes).sum(),
            total_requests: osts.iter().map(|s| s.requests).sum(),
            opens,
            max_ost_busy: osts
                .iter()
                .map(|s| s.busy)
                .fold(SimTime::ZERO, SimTime::max),
            osts,
            image_resident_bytes,
            integrity_repaired,
            integrity_poisoned,
        }
    }

    /// Walk every file's extents against its stored page sums in virtual
    /// time: materialize pending rot, repair what the durable-copy
    /// journal covers, and report the rest. Files are scanned in path
    /// order, so two runs with the same plan produce byte-identical
    /// reports. Returns the findings and the virtual completion instant
    /// (an idle background scan: OST bandwidth in parallel across
    /// targets, without perturbing foreground queue accounting).
    ///
    /// Without [`FsConfig::integrity`] there are no stored sums and the
    /// report is trivially clean.
    pub fn scrub(&self, now: SimTime) -> (ScrubReport, SimTime) {
        let cfg = &self.inner.cfg;
        let plan = self.inner.faults.borrow().clone();
        let files: Vec<(String, Rc<FileEntry>)> = {
            let mds = self.inner.mds.borrow();
            let mut v: Vec<_> = mds
                .files
                .iter()
                .map(|(p, e)| (p.clone(), Rc::clone(e)))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let mut report = ScrubReport::default();
        let mut repairs = 0u64;
        for (path, entry) in files {
            report.files_scanned += 1;
            let Some(integ) = &entry.integrity else {
                continue;
            };
            let mut integ = integ.borrow_mut();
            let mut storage = entry.storage.borrow_mut();
            let size = storage.size();
            report.bytes_scanned += size;
            let out = integ.verify_range(&mut storage, plan.as_deref(), 0, size);
            repairs += out.repaired.len() as u64;
            for (o, l) in out.repaired {
                report.repaired.push((path.clone(), o, l));
            }
            for (o, l) in out.unrepairable {
                report.unrepairable.push((path.clone(), o, l));
            }
        }
        let scan = SimTime::secs(
            report.bytes_scanned as f64 / (cfg.ost_bandwidth_bps * cfg.n_osts as f64),
        );
        let repair_cost = (cfg.request_overhead
            + SimTime::secs(PAGE_SIZE as f64 / cfg.ost_bandwidth_bps))
            * repairs as f64;
        (report, now + cfg.rpc_latency * 2.0 + scan + repair_cost)
    }
}

impl FsStats {
    /// Mean per-OST busy time.
    pub fn mean_busy(&self) -> SimTime {
        if self.osts.is_empty() {
            return SimTime::ZERO;
        }
        self.osts.iter().map(|o| o.busy).sum::<SimTime>() / self.osts.len() as f64
    }

    /// Load-imbalance factor: busiest target's busy time over the mean
    /// (1.0 = perfectly balanced). Lock-step collective rounds stall on
    /// exactly this straggler.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_busy().as_secs();
        if mean == 0.0 {
            1.0
        } else {
            self.max_ost_busy.as_secs() / mean
        }
    }

    /// Mean request size in bytes (0 if no requests) — small values are
    /// the signature of the over-partitioned / scatter regimes.
    pub fn mean_request_bytes(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.total_requests as f64
        }
    }
}

thread_local! {
    /// A list read's load per OST, by pool index, while it is summed.
    static LIST_LOADS: Cell<Vec<(u64, u64)>> = const { Cell::new(Vec::new()) };
}

impl FileHandle {
    /// The file's path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The file's striping layout.
    pub fn layout(&self) -> &StripeLayout {
        &self.entry.layout
    }

    /// Current file size.
    pub fn size(&self) -> u64 {
        self.entry.storage.borrow().size()
    }

    /// Write `data` at `offset`, arriving at virtual time `now`; returns
    /// the completion instant (all stripes durable).
    pub fn write_at(&self, offset: u64, data: &IoBuffer, now: SimTime) -> SimTime {
        self.write_pieces(offset, data.len() as u64, &[(0, data.clone())], now)
    }

    /// One write request for the span `[offset, offset + len)`, arriving
    /// at `now`, charged as [`write_at`](Self::write_at) of `len` bytes:
    /// each `(at, bytes)` of `pieces` lands at `offset + at`, in order, a
    /// later piece winning an overlap; bytes of the span no piece covers
    /// keep the file's, and piece bytes past the span are not written
    /// (`Storage::write_pieces`). A two-phase round window is one such
    /// request: the file keeps views of its sources' payloads.
    pub fn write_pieces(
        &self,
        offset: u64,
        len: u64,
        pieces: &[(u64, IoBuffer)],
        now: SimTime,
    ) -> SimTime {
        let done = self.charge_io(offset, len, now, true);
        if len > 0 {
            let integ = self.entry.integrity.as_ref().map(RefCell::borrow_mut);
            let mut st = self.entry.storage.borrow_mut();
            st.write_pieces(offset, len, pieces);
            if let Some(mut integ) = integ {
                integ.note_write(&st, offset, len);
            }
        }
        done
    }

    /// Read `len` bytes at `offset`, arriving at `now`; returns the data
    /// and the completion instant. With integrity on, the range is
    /// verified against stored sums first and any repairable corruption
    /// is repaired (charged to the completion time).
    ///
    /// # Panics
    ///
    /// Panics on unrepairable corruption — a read must never silently
    /// return wrong bytes.
    pub fn read_at(&self, offset: u64, len: usize, now: SimTime) -> (IoBuffer, SimTime) {
        let done = self.charge_io(offset, len as u64, now, false);
        let range = std::iter::once((offset, len as u64));
        self.verified(range, done, |st| st.read(offset, len))
    }

    /// [`read_at`](Self::read_at), appending the range to `parts` as the
    /// views of the file image that hold it, in order
    /// (`Storage::read_parts`): no byte moves. Returns the completion
    /// instant.
    pub fn read_parts(
        &self,
        offset: u64,
        len: usize,
        now: SimTime,
        parts: &mut Vec<IoBuffer>,
    ) -> SimTime {
        let done = self.charge_io(offset, len as u64, now, false);
        let range = std::iter::once((offset, len as u64));
        let ((), done) = self.verified(range, done, |st| st.parts_into(offset, len as u64, parts));
        done
    }

    /// Read a batch of discontiguous extents as one vectored *list-I/O*
    /// request (DESIGN.md §15): the extent list travels in a single RPC
    /// round-trip, and each OST serves its share as one request whose
    /// first chunk unit pays the full
    /// [`request_overhead`](crate::FsConfig::request_overhead) while
    /// every further unit costs only
    /// [`list_extent_overhead`](crate::FsConfig::list_extent_overhead) —
    /// the extents share the lock acquisition and queue admission.
    /// Returns one buffer per extent plus the completion instant.
    ///
    /// # Panics
    ///
    /// Panics on unrepairable corruption, like [`read_at`](Self::read_at).
    pub fn read_list(&self, extents: &[(u64, u64)], now: SimTime) -> (Vec<IoBuffer>, SimTime) {
        let done = self.charge_list(extents, now);
        let nonempty = extents.iter().copied().filter(|e| e.1 > 0);
        self.verified(nonempty, done, |st| st.read_list(extents))
    }

    /// [`read_list`](Self::read_list), appending every extent to `parts`
    /// as the views that hold it, in order (`Storage::read_list_parts`).
    /// Returns the completion instant.
    pub fn read_list_parts(
        &self,
        extents: &[(u64, u64)],
        now: SimTime,
        parts: &mut Vec<IoBuffer>,
    ) -> SimTime {
        let done = self.charge_list(extents, now);
        let nonempty = extents.iter().copied().filter(|e| e.1 > 0);
        let ((), done) = self.verified(nonempty, done, |st| st.read_list_parts(extents, parts));
        done
    }

    /// `read` of the file image, completing at `done`, after verifying
    /// `ranges` against their stored sums when integrity is on: a
    /// repair re-reads one page from the redundant copy (one request
    /// plus one page transfer, added to `done`).
    ///
    /// # Panics
    ///
    /// Panics on unrepairable corruption.
    fn verified<T>(
        &self,
        ranges: impl Iterator<Item = (u64, u64)>,
        mut done: SimTime,
        read: impl FnOnce(&Storage) -> T,
    ) -> (T, SimTime) {
        let integ = self.entry.integrity.as_ref().map(RefCell::borrow_mut);
        let mut st = self.entry.storage.borrow_mut();
        if let Some(mut integ) = integ {
            let plan = self.fs.inner.faults.borrow().clone();
            let mut repairs = 0usize;
            let mut unrepairable = Vec::new();
            for (off, len) in ranges {
                let out = integ.verify_range(&mut st, plan.as_deref(), off, len);
                repairs += out.repaired.len();
                unrepairable.extend(out.unrepairable);
            }
            if repairs > 0 {
                let cfg = &self.fs.inner.cfg;
                done += (cfg.request_overhead
                    + SimTime::secs(PAGE_SIZE as f64 / cfg.ost_bandwidth_bps))
                    * repairs as f64;
            }
            if !unrepairable.is_empty() {
                let path = self.path.clone();
                let e = IntegrityError {
                    path,
                    extents: unrepairable,
                };
                panic!("integrity failure on read: {e}");
            }
        }
        (read(&st), done)
    }

    /// The completion instant of a list read of `extents` arriving at
    /// `now`.
    fn charge_list(&self, extents: &[(u64, u64)], now: SimTime) -> SimTime {
        let (cfg, layout) = (&self.fs.inner.cfg, &self.entry.layout);
        // The chunk-unit load per OST, by pool index: the OSTs are served
        // in ascending order, a deterministic admission sequence. An
        // extent inside the stripe unit of the one before it (ascending
        // lists mostly are) is one more unit on that unit's OST. The
        // table is this thread's, and the loads go out as the list of
        // OSTs they touch: a request parks in each OST's admission, and
        // every serving rank of a collective read can be parked at once.
        let mut per_ost = LIST_LOADS.take();
        per_ost.clear();
        per_ost.resize(layout.pool_size, (0u64, 0u64));
        let mut unit = (0u64, 0u64, 0usize); // [start, end) and OST of the last unit
        for &(off, len) in extents {
            if len == 0 {
                continue;
            }
            if off < unit.0 || off >= unit.1 {
                let start = off - off % layout.stripe_size;
                unit = (start, start + layout.stripe_size, layout.ost_of(off));
            }
            if off + len <= unit.1 {
                let load = &mut per_ost[unit.2];
                *load = (load.0 + len, load.1 + 1);
                continue;
            }
            for (ost, bytes, requests) in layout.ost_load(off, len) {
                let load = &mut per_ost[ost];
                *load = (load.0 + bytes, load.1 + requests);
            }
        }
        let touched = per_ost.iter().enumerate().filter(|(_, load)| load.1 > 0);
        let touched: Vec<(usize, (u64, u64))> = touched.map(|(ost, &load)| (ost, load)).collect();
        LIST_LOADS.set(per_ost);
        let arrival = now + cfg.rpc_latency;
        let cache_window = SimTime::secs(cfg.cache_bytes as f64 / cfg.ost_bandwidth_bps);
        // Admitted once for every OST it touches (see `charge_io`).
        if !touched.is_empty() {
            simnet::progress::admit(arrival);
        }
        let mut done = arrival;
        for (ost, (bytes, units)) in touched {
            let overhead = cfg.request_overhead + cfg.list_extent_overhead * (units - 1) as f64;
            let completion = self.fs.inner.osts[ost].serve(
                arrival,
                bytes,
                1,
                overhead,
                cfg.ost_bandwidth_bps,
                self.fs.inner.jitter,
                cfg.contention_per_queued,
                cfg.slow_prob,
                cfg.slow_factor,
                None,
                cache_window,
            );
            done = done.max(completion);
        }
        done + cfg.rpc_latency
    }

    /// The widest hole a list read should read through rather than skip:
    /// moving that many bytes costs no more than one more list extent
    /// ([`list_extent_overhead`](crate::FsConfig::list_extent_overhead) ×
    /// [`ost_bandwidth_bps`](crate::FsConfig::ost_bandwidth_bps), in
    /// whole bytes). 9 750 B on [`FsConfig::jaguar`](crate::FsConfig::jaguar).
    pub fn list_break_even_gap(&self) -> u64 {
        let cfg = &self.fs.inner.cfg;
        (cfg.list_extent_overhead.as_secs() * cfg.ost_bandwidth_bps).round() as u64
    }

    fn charge_io(&self, offset: u64, len: u64, now: SimTime, is_write: bool) -> SimTime {
        let cfg = &self.fs.inner.cfg;
        if len == 0 {
            return now + cfg.rpc_latency * 2.0;
        }
        let writer = (is_write && cfg.lock_handoff > SimTime::ZERO)
            .then_some((self.client, cfg.lock_handoff, cfg.lock_exempt_bytes));
        let cache_window = SimTime::secs(cfg.cache_bytes as f64 / cfg.ost_bandwidth_bps);
        let arrival = now + cfg.rpc_latency;
        // Deterministic admission, once per request and before any OST
        // is served (`Ost::serve` mutates seeded state): a rank waits for
        // its turn with this frame the deepest on its stack.
        simnet::progress::admit(arrival);
        let mut done = arrival;
        for (ost, bytes, requests) in self.entry.layout.ost_load(offset, len) {
            let completion = self.fs.inner.osts[ost].serve(
                arrival,
                bytes,
                requests,
                cfg.request_overhead,
                cfg.ost_bandwidth_bps,
                self.fs.inner.jitter,
                cfg.contention_per_queued,
                cfg.slow_prob,
                cfg.slow_factor,
                writer,
                cache_window,
            );
            done = done.max(completion);
        }
        done + cfg.rpc_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FsConfig;

    fn fs() -> FileSystem {
        FileSystem::new(FsConfig::tiny())
    }

    #[test]
    fn open_write_read_round_trip() {
        let fs = fs();
        let (f, t_open) = fs.open("/a", SimTime::ZERO);
        assert!(t_open > SimTime::ZERO);
        let t1 = f.write_at(0, &IoBuffer::from_slice(b"parallel io"), t_open);
        assert!(t1 > t_open);
        let (data, t2) = f.read_at(0, 11, t1);
        assert!(t2 > t1);
        assert_eq!(data.as_slice().unwrap(), b"parallel io");
    }

    #[test]
    fn list_read_returns_per_extent_buffers_cheaper_than_serial() {
        let fs = fs();
        let (f, t) = fs.open("/l", SimTime::ZERO);
        let image: Vec<u8> = (0..64u8).collect();
        let t = f.write_at(0, &IoBuffer::from_vec(image.clone()), t);
        let runs = [(0u64, 8u64), (16, 8), (32, 8), (48, 8)];
        let (bufs, done) = f.read_list(&runs, t);
        assert_eq!(bufs.len(), 4);
        for (i, &(off, len)) in runs.iter().enumerate() {
            assert_eq!(
                bufs[i].as_slice().unwrap(),
                &image[off as usize..(off + len) as usize]
            );
        }
        // Batched cost: one RPC round-trip and, per OST, one full
        // request overhead plus the cheap per-extent units — strictly
        // below four chained read_at calls on an identical file.
        let fs2 = FileSystem::new(FsConfig::tiny());
        let (g, t2) = fs2.open("/l", SimTime::ZERO);
        let t2 = g.write_at(0, &IoBuffer::from_vec(image), t2);
        let mut serial = t2;
        for &(off, len) in &runs {
            serial = g.read_at(off, len as usize, serial).1;
        }
        assert!(done > t, "a list read still takes time");
        assert!(done - t < serial - t2, "batching must beat chained reads");
        // Empty list: pure RPC round-trip, no OST touched.
        let before = fs.stats().total_requests;
        let (none, t3) = f.read_list(&[], done);
        assert!(none.is_empty());
        assert!(t3 > done);
        assert_eq!(fs.stats().total_requests, before);
    }

    #[test]
    fn break_even_gap_is_one_list_extent_of_transfer() {
        let file = |cfg| FileSystem::new(cfg).open("/g", SimTime::ZERO).0;
        assert_eq!(file(FsConfig::jaguar()).list_break_even_gap(), 9_750);
        assert_eq!(file(FsConfig::tiny()).list_break_even_gap(), 2);
    }

    #[test]
    fn reopen_sees_existing_contents() {
        let fs = fs();
        let (f, t) = fs.open("/a", SimTime::ZERO);
        f.write_at(5, &IoBuffer::from_slice(&[1, 2, 3]), t);
        let (g, t2) = fs.open("/a", t);
        let (data, _) = g.read_at(5, 3, t2);
        assert_eq!(data.as_slice().unwrap(), &[1, 2, 3]);
        assert_eq!(g.size(), 8);
    }

    #[test]
    fn distinct_paths_are_independent() {
        let fs = fs();
        let (a, t) = fs.open("/a", SimTime::ZERO);
        let (b, t2) = fs.open("/b", t);
        a.write_at(0, &IoBuffer::from_slice(&[1]), t2);
        let (data, _) = b.read_at(0, 1, t2);
        assert_eq!(data.as_slice().unwrap(), &[0]); // hole, not /a's byte
    }

    #[test]
    fn striping_spreads_load_across_osts() {
        let fs = fs();
        let (f, t) = fs.open("/striped", SimTime::ZERO);
        // 4KB write over 1KB stripes on 4 OSTs: each gets 1KB.
        f.write_at(0, &IoBuffer::synthetic(4096), t);
        let st = fs.stats();
        let loaded: Vec<u64> = st.osts.iter().map(|o| o.bytes).collect();
        assert_eq!(loaded.iter().sum::<u64>(), 4096);
        assert_eq!(loaded.iter().filter(|&&b| b == 1024).count(), 4);
    }

    #[test]
    fn parallel_osts_beat_single_ost() {
        // Same volume, stripe over 4 targets vs 1: wide layout is faster.
        let fs1 = fs();
        let (wide, t) = fs1.open_with_layout("/w", 4, 1024, SimTime::ZERO);
        let t_wide = wide.write_at(0, &IoBuffer::synthetic(1 << 20), t) - t;

        let fs2 = fs();
        let (narrow, t) = fs2.open_with_layout("/n", 1, 1024, SimTime::ZERO);
        let t_narrow = narrow.write_at(0, &IoBuffer::synthetic(1 << 20), t) - t;
        assert!(
            t_narrow.as_secs() > 3.0 * t_wide.as_secs(),
            "narrow {t_narrow} should be ~4x wide {t_wide}"
        );
    }

    #[test]
    fn contention_serializes_clients_on_one_ost() {
        let fs = fs();
        let (f, t) = fs.open_with_layout("/one", 1, 1024, SimTime::ZERO);
        // Two 1MB writes arriving simultaneously to the same OST.
        let d1 = f.write_at(0, &IoBuffer::synthetic(1 << 20), t);
        let d2 = f.write_at(1 << 20, &IoBuffer::synthetic(1 << 20), t);
        // Second completes roughly one service later than the first.
        assert!((d2 - d1).as_secs() > 0.9 * (1 << 20) as f64 / 1e6);
    }

    #[test]
    fn synthetic_and_real_data_coexist_across_files() {
        let fs = fs();
        let (f, t) = fs.open("/mix", SimTime::ZERO);
        f.write_at(0, &IoBuffer::from_slice(&[9; 64]), t);
        f.write_at(1 << 30, &IoBuffer::synthetic(1 << 20), t);
        let (head, _) = f.read_at(0, 64, t);
        assert_eq!(head.as_slice().unwrap(), &[9; 64]);
        let (tail, _) = f.read_at(1 << 30, 1 << 20, t);
        assert!(!tail.is_real());
    }

    #[test]
    fn unlink_removes_path() {
        let fs = fs();
        let (_f, _) = fs.open("/gone", SimTime::ZERO);
        assert!(fs.exists("/gone"));
        assert!(fs.unlink("/gone"));
        assert!(!fs.exists("/gone"));
        assert!(!fs.unlink("/gone"));
    }

    #[test]
    fn opens_accumulate_mds_cost() {
        let fs = fs();
        let (_, t1) = fs.open("/f", SimTime::ZERO);
        let (_, t2) = fs.open("/f", SimTime::ZERO);
        let (_, t3) = fs.open("/f", SimTime::ZERO);
        assert!(t2 > t1 || t3 > t2, "serialized MDS time must show up");
        assert_eq!(fs.stats().opens, 3);
    }

    #[test]
    fn first_ost_rotates_per_file() {
        let fs = fs();
        let (a, _) = fs.open_with_layout("/r1", 1, 1024, SimTime::ZERO);
        let (b, _) = fs.open_with_layout("/r2", 1, 1024, SimTime::ZERO);
        assert_ne!(a.layout().first_ost, b.layout().first_ost);
    }

    #[test]
    fn stats_track_requests_and_straggler() {
        let fs = fs();
        let (f, t) = fs.open("/s", SimTime::ZERO);
        f.write_at(0, &IoBuffer::synthetic(10 * 1024), t);
        let st = fs.stats();
        assert_eq!(st.total_bytes, 10 * 1024);
        assert_eq!(st.total_requests, 10); // 10 stripe chunks of 1KB
        assert!(st.max_ost_busy > SimTime::ZERO);
    }

    #[test]
    fn stats_diagnostics() {
        let fs = fs();
        let (f, t) = fs.open("/diag", SimTime::ZERO);
        // 2KB over 1KB stripes on 4 OSTs: 2 targets loaded, 2 idle.
        f.write_at(0, &IoBuffer::synthetic(2048), t);
        let st = fs.stats();
        assert!(st.imbalance() >= 1.0);
        assert!((st.mean_request_bytes() - 1024.0).abs() < 1e-9);
        assert!(st.mean_busy() > SimTime::ZERO);
    }

    #[test]
    fn empty_stats_are_sane() {
        let fs = fs();
        let st = fs.stats();
        assert_eq!(st.mean_request_bytes(), 0.0);
        assert_eq!(st.imbalance(), 1.0);
    }

    #[test]
    fn zero_length_io_costs_only_rpc() {
        let fs = fs();
        let (f, t) = fs.open("/z", SimTime::ZERO);
        let done = f.write_at(0, &IoBuffer::empty(), t);
        assert!((done - t).as_micros() <= 3.0);
        let st = fs.stats();
        assert_eq!(st.total_bytes, 0);
    }

    #[test]
    fn jaguar_preset_constructs() {
        let fs = FileSystem::new(FsConfig::jaguar());
        let (f, t) = fs.open("/big", SimTime::ZERO);
        assert_eq!(f.layout().stripe_count, 64);
        assert_eq!(f.layout().stripe_size, 4 << 20);
        let done = f.write_at(0, &IoBuffer::synthetic(512 << 20), t);
        // 512MB over 64 OSTs at 450MB/s each: lower bound ~17.8ms + overheads.
        assert!(done.as_millis() > 15.0);
        assert!(done.as_secs() < 2.0);
    }
}
