//! Partitioned collective read/write and the [`ParcollFile`] wrapper.
//!
//! The flow per collective call (paper Figure 3):
//!
//! 1. Gather every rank's file range (one small allgather — this is the
//!    *only* whole-group synchronization ParColl retains per call).
//! 2. Partition processes and file into subgroups with disjoint FAs
//!    ([`crate::fa`]); if the FAs intersect, switch to an intermediate
//!    file view ([`crate::iview`]) and partition the logical file
//!    instead.
//! 3. Distribute the configured I/O aggregators over the subgroups
//!    ([`crate::aggdist`]).
//! 4. Split the communicator and run the unmodified extended two-phase
//!    engine within each subgroup — "the original ext2ph protocol is
//!    still retained as a part of ParColl". All the per-round alltoalls
//!    now span `P/G` ranks instead of `P`.
//!
//! Subgroup membership is cached across calls: workloads like IOR issue
//! many collective writes with the same rank ordering, and the
//! communicator split is reused when the membership vector is unchanged.

use crate::aggdist::distribute_aggregators;
use crate::config::ParcollConfig;
use crate::fa::{partition_file_areas, Grouping};
use crate::iview::{LogicalMap, MappedSpace};
use mpiio::profile::{Phase, PhaseTimer};
use mpiio::twophase::{self, CollConfig, Dir, Memo};
use mpiio::{AccessPlan, Datatype, DirectSpace, Ext, File, PhaseProfile, Run};
use simfs::FileSystem;
use simmpi::{Communicator, Info};
use simnet::IoBuffer;
use std::rc::Rc;

/// Cached partitioning decision, established at the first collective
/// call after open/`set_view` and reused for subsequent calls with the
/// same access *shape* — mirroring the paper, which fixes the
/// partitioning (and any view switching) "at the file view initiation
/// time". Reuse removes every whole-group collective from steady-state
/// calls, letting subgroups drift through their call sequences
/// independently — the effect behind ParColl's IOR and Flash gains.
pub struct GroupCache<'ep> {
    sub: Communicator<'ep>,
    subcfg: CollConfig,
    n_groups: usize,
    /// My plan at cache time. A later call whose runs are these shifted
    /// ([`AccessPlan::same_shape`]) is the same pattern; views tile, so
    /// the shift is uniform across ranks.
    shape: AccessPlan,
    /// Dead-set epoch at cache time: an aggregator crash bumps the epoch
    /// and forces a repartition on the next call.
    dead_epoch: u64,
    mode: CachedMode,
    /// Partitioning decisions (communicator splits) made so far through
    /// this cache slot, this one included.
    splits: u64,
    /// The subgroup's index of its last collective call: a steady-state
    /// call builds no plan split, domain or window coverage either. On the
    /// heap, as [`File`]'s is.
    memo: Box<Memo>,
}

enum CachedMode {
    Direct,
    Iview {
        map: Rc<LogicalMap>,
        logical_plan: AccessPlan,
        base_start: u64,
        scatter: bool,
    },
}

/// Which path a partitioned collective took (exposed for tests and the
/// benchmark harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMode {
    /// One subgroup — plain ext2ph (ParColl degenerates to the baseline).
    Single,
    /// Direct file-area partitioning (patterns (a)/(b)).
    Direct {
        /// Subgroups formed.
        groups: usize,
    },
    /// Intermediate file view (pattern (c)).
    IntermediateView {
        /// Subgroups formed.
        groups: usize,
    },
}

/// Record the pattern classification (and, with an alignment unit in
/// force, how many subgroup FA boundaries land on a stripe boundary — the
/// figure of merit for aligned partitioning).
#[inline(never)]
fn trace_partition(
    ep: &simnet::Endpoint,
    pattern: &'static str,
    grouping: Option<&Grouping>,
    align: Option<u64>,
) {
    let rec = ep.trace();
    if !rec.enabled() {
        return;
    }
    let groups = grouping.map_or(1, Grouping::n_groups);
    rec.instant(
        "parcoll",
        "partition",
        ep.now().as_micros(),
        vec![
            ("pattern", simtrace::ArgValue::from(pattern)),
            ("groups", simtrace::ArgValue::from(groups)),
        ],
    );
    if let Some(g) = grouping {
        let mut boundaries = 0u64;
        let mut aligned = 0u64;
        for &(s, e) in &g.fas {
            if s == e {
                continue;
            }
            boundaries += 1;
            if align.is_some_and(|unit| unit > 0 && s.is_multiple_of(unit)) {
                aligned += 1;
            }
        }
        rec.count("fa_boundaries", boundaries);
        rec.count("fa_stripe_aligned", aligned);
    }
}

/// Exchange and union the known-dead set across the whole group — only
/// when the installed fault plan can kill aggregators, so the fault-free
/// path stays bitwise identical and cache hits stay communication-free.
/// Returns the agreed dead-set epoch (0 without crash faults).
fn sync_dead_set(file: &mut File<'_>) -> u64 {
    match file.comm().endpoint().faults() {
        Some(faults) if faults.plan().has_crash_rules() => exchange_dead_set(file),
        _ => 0,
    }
}

/// [`sync_dead_set`]'s exchange, out of line: only a fault plan that can
/// kill aggregators runs it.
#[cold]
#[inline(never)]
fn exchange_dead_set(file: &mut File<'_>) -> u64 {
    let comm = file.comm().clone();
    let ep = comm.endpoint();
    let faults = ep.faults().expect("a fault plan with crash rules");
    let prof = file.profile_mut();
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    // Charged as the list of little-endian `u64`s a real program sends.
    let mine = faults.dead_ranks();
    let bytes = 8 * mine.len();
    let all = comm.allgather_t(mine, bytes);
    t.stop_traced(ep.now(), prof, ep.trace());
    for &r in all.iter().flatten() {
        faults.mark_dead(r);
    }
    faults.dead_epoch()
}

/// Degraded mode: dissolve any subgroup whose *hinted* aggregator ranks
/// have all crashed into a neighboring file area, so its members are
/// served by the neighbor's surviving aggregators instead of a promoted
/// compute rank. Subgroups without hinted members keep their promotion
/// fallback. The grouping every rank shares is copied only if a merge
/// changes it.
#[inline(never)]
fn merge_dead_groups(comm: &Communicator<'_>, hints: &[usize], grouping: &mut Rc<Grouping>) {
    let ep = comm.endpoint();
    let Some(faults) = ep.faults() else {
        return;
    };
    if faults.dead_epoch() == 0 {
        return;
    }
    'scan: loop {
        if grouping.n_groups() <= 1 {
            return;
        }
        for g in 0..grouping.n_groups() {
            let mut hinted = hints
                .iter()
                .copied()
                .filter(|&r| grouping.group_of[r] == g)
                .peekable();
            if hinted.peek().is_some()
                && hinted.all(|r| faults.is_dead(comm.global_rank(r)))
            {
                let nb = Rc::make_mut(grouping).merge_into_neighbor(g);
                let rec = ep.trace();
                if rec.enabled() {
                    rec.instant(
                        "parcoll",
                        "fa_merge",
                        ep.now().as_micros(),
                        vec![
                            ("group", simtrace::ArgValue::from(g)),
                            ("into", simtrace::ArgValue::from(nb)),
                        ],
                    );
                    rec.count("fa_merges", 1);
                }
                continue 'scan;
            }
        }
        return;
    }
}

/// The partitioned collective in direction `dir` over `nbytes` at view
/// offset `offset`. `file`'s hints supply the aggregator configuration,
/// `pcfg` the ParColl knobs; a read returns this rank's bytes.
///
/// This is every call's frame on the rank's stack, so what only some
/// calls do — the fault path's dead-set exchange, the deciding call, the
/// intermediate view — runs out of line.
pub fn run_partitioned<'ep>(
    file: &mut File<'ep>,
    pcfg: &ParcollConfig,
    cache: &mut Option<GroupCache<'ep>>,
    offset: u64,
    nbytes: u64,
    dir: Dir<'_>,
) -> (PartitionMode, Option<IoBuffer>) {
    let groups = pcfg.effective_groups(file.comm().size());
    let plan = file.plan(offset, nbytes);

    if groups <= 1 {
        return (PartitionMode::Single, file.collective(&plan, dir));
    }

    // Fault path: agree on the cluster-wide dead set before consulting
    // the cache, so every rank repartitions (or not) identically.
    let dead_epoch = sync_dead_set(file);

    // Steady state: a cached decision whose shape matches needs no
    // whole-group communication at all — each subgroup proceeds at its
    // own pace. Otherwise decide and store first; a call that stores
    // nothing (nobody moves bytes, or view switching is forbidden) runs
    // the whole group for its collective semantics.
    let hit = cache
        .as_ref()
        .is_some_and(|c| c.shape.same_shape(&plan) && c.dead_epoch == dead_epoch);
    if !hit && !decide(file, pcfg, cache, &plan, groups) {
        return (PartitionMode::Single, file.collective(&plan, dir));
    }

    let c = cache.as_mut().expect("a decision was cached or just stored");
    let (fh, prof) = file.handle_and_profile();
    let (sub, subcfg, memo) = (&c.sub, &c.subcfg, &mut c.memo);
    let groups = c.n_groups;
    match &c.mode {
        CachedMode::Direct => {
            let data = twophase::collective(sub, fh, &DirectSpace, &plan, dir, subcfg, memo, prof);
            (PartitionMode::Direct { groups }, data)
        }
        CachedMode::Iview { .. } => {
            let data = run_iview(c, fh, prof, &plan, dir);
            (PartitionMode::IntermediateView { groups }, data)
        }
    }
}

/// A call through the cached intermediate view of `c`, whose plan is
/// `plan` in the original view.
#[inline(never)]
fn run_iview(
    c: &mut GroupCache<'_>,
    fh: &simfs::FileHandle,
    prof: &mut PhaseProfile,
    plan: &AccessPlan,
    dir: Dir<'_>,
) -> Option<IoBuffer> {
    let (sub, subcfg, memo) = (&c.sub, &c.subcfg, &mut c.memo);
    let CachedMode::Iview {
        map,
        logical_plan,
        base_start,
        scatter,
    } = &c.mode
    else {
        unreachable!("an intermediate-view call on a direct partition")
    };
    // Views tile, so this call's runs are the cached ones shifted
    // uniformly by the call stride (zero on the deciding call).
    //
    // The intermediate view *re-addresses the file*: data is stored in
    // logical order (each process's segments consecutive), so aggregator
    // I/O is large and contiguous. The original view remains the
    // semantic map between application addresses and logical offsets
    // ("the original file view is still needed to provide the physical
    // layout and distribution of I/O segments"); reads through this
    // library translate consistently. `parcoll_iview_scatter` instead
    // materializes at the original physical offsets — an ablation that
    // demonstrates the cost of doing so — and keeps logical offsets
    // unshifted for the map, which slides.
    let delta = plan.start().unwrap_or(*base_start) as i64 - *base_start as i64;
    if *scatter {
        let space = MappedSpace::with_delta(Rc::clone(map), delta);
        twophase::collective(sub, fh, &space, logical_plan, dir, subcfg, memo, prof)
    } else {
        let shifted = logical_plan.shifted(delta);
        twophase::collective(sub, fh, &DirectSpace, &shifted, dir, subcfg, memo, prof)
    }
}

/// First call for this shape: whole-group range gather, pattern
/// classification, partitioning and the subgroup split (paper Figure 3
/// flow), stored in `cache` for this and later calls to dispatch from.
/// Returns `false`, storing nothing, when there is nothing to partition:
/// no rank moves bytes (a degenerate decision is not cached), or the
/// pattern needs a view and view switching is forbidden. Out of line:
/// steady-state calls never enter it.
#[cold]
#[inline(never)]
fn decide<'ep>(
    file: &mut File<'ep>,
    pcfg: &ParcollConfig,
    cache: &mut Option<GroupCache<'ep>>,
    plan: &AccessPlan,
    groups: usize,
) -> bool {
    let comm = file.comm().clone();
    let ep = comm.endpoint();
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let my_range: Option<(u64, u64)> = plan.start().map(|s| (s, plan.end().unwrap()));
    // Every rank would partition the same ranges identically: the
    // partition is made once, where the range allgather meets.
    let decision = comm.allgather_t_derive(my_range, 16, |ranges| {
        partition_ranges(&ranges, groups)
    });
    t.stop_traced(ep.now(), file.profile_mut(), ep.trace());

    let (mut grouping, pattern, mode) = match &*decision {
        Ranges::Idle => return false,
        Ranges::Disjoint(grouping) => (Rc::clone(grouping), "direct", CachedMode::Direct),
        Ranges::Intersecting if !pcfg.view_switching => {
            // View switching forbidden: degenerate to the baseline.
            trace_partition(ep, "single", None, None);
            return false;
        }
        Ranges::Intersecting => {
            let (grouping, mode) = intermediate_view(file, pcfg, plan, groups);
            (grouping, "iview", mode)
        }
    };
    merge_dead_groups(&comm, &file.coll_config().aggregators, &mut grouping);
    let n_groups = grouping.n_groups();
    trace_partition(ep, pattern, Some(&grouping), file.hints().cb_align);
    let (sub, subcfg) = subgroup_setup(file, &grouping.group_of, n_groups);
    *cache = Some(GroupCache {
        sub,
        subcfg,
        n_groups,
        shape: plan.clone(),
        dead_epoch: ep.faults().map_or(0, |f| f.dead_epoch()),
        mode,
        splits: cache.as_ref().map_or(0, |c| c.splits) + 1,
        memo: Memo::boxed(),
    });
    true
}

/// Pattern (c): build the intermediate file view — everyone shares its
/// access plan (modelled volume ∝ pieces) — and partition the logical
/// file into `groups` subgroups.
#[inline(never)]
fn intermediate_view(
    file: &mut File<'_>,
    pcfg: &ParcollConfig,
    plan: &AccessPlan,
    groups: usize,
) -> (Rc<Grouping>, CachedMode) {
    let comm = file.comm().clone();
    let ep = comm.endpoint();
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let (origin, runs) = (plan.start().unwrap_or(0), Rc::clone(plan.shape()));
    let (map, grouping) = gather_logical_map(&comm, origin, runs, groups);
    t.stop_traced(ep.now(), file.profile_mut(), ep.trace());

    let (ls, le) = map.rank_range(comm.rank());
    let logical_plan = if ls < le {
        AccessPlan::from_extents(vec![Ext::new(ls, le - ls)])
    } else {
        AccessPlan::default()
    };
    let mode = CachedMode::Iview {
        map,
        logical_plan,
        base_start: plan.start().unwrap_or(0),
        scatter: pcfg.iview_scatter,
    };
    (grouping, mode)
}

/// What the range allgather decides, once for every rank.
enum Ranges {
    /// No rank moves bytes: nothing to partition (and nothing cached).
    Idle,
    /// The file areas come out disjoint (patterns (a)/(b)).
    Disjoint(Rc<Grouping>),
    /// The file areas intersect (pattern (c)): partition through an
    /// intermediate file view.
    Intersecting,
}

/// Partition the gathered file ranges into `groups` subgroups with
/// disjoint file areas.
fn partition_ranges(ranges: &[Option<(u64, u64)>], groups: usize) -> Ranges {
    if ranges.iter().all(Option::is_none) {
        return Ranges::Idle;
    }
    match partition_file_areas(ranges, groups) {
        Ok(g) => Ranges::Disjoint(Rc::new(g)),
        Err(_) => Ranges::Intersecting,
    }
}

/// Allgather every rank's access plan — its origin and its runs, by
/// reference — build the intermediate view's [`LogicalMap`] from them,
/// and partition the *logical* file into `groups` subgroups. The
/// collective is modelled as ROMIO's allgather of the `(offset, len)`
/// list, 16 bytes a piece; the host moves one `Rc` per rank. The map is
/// validated and indexed, and the partition made, once, at the meeting
/// point, and every rank receives the same `Rc`s: the map's host cost is
/// O(total runs) per collective, not O(P × total pieces).
fn gather_logical_map(
    comm: &Communicator<'_>,
    origin: u64,
    runs: Rc<[Run]>,
    groups: usize,
) -> (Rc<LogicalMap>, Rc<Grouping>) {
    let pieces: u64 = runs.iter().map(|r| r.count).sum();
    let met = comm.allgather_t_derive((origin, runs), 16 * pieces as usize, |plans| {
        let p = plans.len();
        let map = LogicalMap::from_runs(plans);
        // Rank regions of the logical file are serial: pattern (a) by
        // construction.
        let logical_ranges: Vec<Option<(u64, u64)>> = (0..p)
            .map(|r| {
                let (s, e) = map.rank_range(r);
                (s < e).then_some((s, e))
            })
            .collect();
        let grouping = partition_file_areas(&logical_ranges, groups)
            .expect("logical rank regions are serial and disjoint");
        (Rc::new(map), Rc::new(grouping))
    });
    (Rc::clone(&met.0), Rc::clone(&met.1))
}

/// Split the subgroup communicator and build its collective
/// configuration with the distributed aggregators.
#[inline(never)]
fn subgroup_setup<'ep>(
    file: &mut File<'ep>,
    group_of: &[usize],
    n_groups: usize,
) -> (Communicator<'ep>, CollConfig) {
    let comm = file.comm().clone();
    let ep = comm.endpoint();
    let parent_cfg = file.coll_config().clone();
    let my_group = group_of[comm.rank()];

    // Crashed ranks never serve as aggregator hints; with every hint
    // dead, the empty list makes `distribute_aggregators` fall back to
    // each subgroup's first member (and the two-phase engine promotes
    // past any dead fallback at call time). The open's list is shared,
    // and copied only when a hint is dead.
    let dead = |r: usize| ep.faults().is_some_and(|f| f.is_dead(comm.global_rank(r)));
    let hints: Rc<[usize]> = if parent_cfg.aggregators.iter().any(|&r| dead(r)) {
        let hinted = parent_cfg.aggregators.iter().copied();
        hinted.filter(|&r| !dead(r)).collect()
    } else {
        Rc::clone(&parent_cfg.aggregators)
    };
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let color = Some(my_group as i64);
    // Every rank holds the same hints, dead set and grouping, so the
    // distribution is decided once, where the split meets.
    let (sub, group_aggs) = comm.split_derive(color, 0, || {
        distribute_aggregators(&hints, group_of, n_groups, |r| comm.node_of(r))
    });
    let sub = sub.expect("every rank belongs to a subgroup");
    t.stop_traced(ep.now(), file.profile_mut(), ep.trace());

    // Translate my group's aggregators from parent ranks to sub ranks.
    let sub_aggs: Vec<usize> = group_aggs[my_group]
        .iter()
        .map(|&parent_local| {
            let global = comm.global_rank(parent_local);
            sub.local_rank_of_global(global)
                .expect("aggregator belongs to this subgroup")
        })
        .collect();
    let rec = ep.trace();
    if rec.enabled() {
        rec.instant(
            "parcoll",
            "aggregators",
            ep.now().as_micros(),
            vec![
                ("group", simtrace::ArgValue::from(my_group)),
                ("n_groups", simtrace::ArgValue::from(n_groups)),
                ("aggs", simtrace::ArgValue::from(sub_aggs.len())),
                ("sub_size", simtrace::ArgValue::from(sub.size())),
            ],
        );
    }
    let subcfg = CollConfig {
        aggregators: sub_aggs.into(),
        ..parent_cfg
    };
    (sub, subcfg)
}

/// A drop-in MPI-IO file whose collective operations run the ParColl
/// protocol. Construction mirrors [`File::open`]; ParColl knobs ride in
/// the same `MPI_Info` as the collective-buffering hints.
///
/// # Examples
///
/// ```
/// use parcoll::{coll::PartitionMode, ParcollFile};
/// use simfs::{FileSystem, FsConfig};
/// use simmpi::{Communicator, Info};
/// use simnet::{run_cluster, ClusterConfig, IoBuffer};
///
/// let fs = FileSystem::new(FsConfig::tiny());
/// let fs2 = fs.clone();
/// run_cluster(ClusterConfig::cray_xt(8, simnet::Mapping::Block), move |ep| {
///     let comm = Communicator::world(&ep);
///     // Two subgroups via hints — no API change vs plain MPI-IO.
///     let info = Info::new().with("parcoll_groups", 2).with("parcoll_min_group", 2);
///     let mut f = ParcollFile::open(&comm, &fs2, "/pc", &info);
///     f.write_at_all((comm.rank() * 512) as u64, &IoBuffer::synthetic(512));
///     assert_eq!(f.last_mode(), Some(PartitionMode::Direct { groups: 2 }));
///     f.close();
/// });
/// ```
pub struct ParcollFile<'ep> {
    file: File<'ep>,
    pcfg: ParcollConfig,
    cache: Option<GroupCache<'ep>>,
    last_mode: Option<PartitionMode>,
}

impl<'ep> ParcollFile<'ep> {
    fn build(file: File<'ep>, info: &Info) -> ParcollFile<'ep> {
        ParcollFile {
            file,
            pcfg: ParcollConfig::from_info(info),
            cache: None,
            last_mode: None,
        }
    }

    /// Collectively open with default striping.
    pub fn open(
        comm: &Communicator<'ep>,
        fs: &FileSystem,
        path: &str,
        info: &Info,
    ) -> ParcollFile<'ep> {
        Self::build(File::open(comm, fs, path, info), info)
    }

    /// Collectively open with explicit striping.
    pub fn open_with_layout(
        comm: &Communicator<'ep>,
        fs: &FileSystem,
        path: &str,
        info: &Info,
        stripe_count: usize,
        stripe_size: u64,
    ) -> ParcollFile<'ep> {
        Self::build(
            File::open_with_layout(comm, fs, path, info, stripe_count, stripe_size),
            info,
        )
    }

    /// Set the file view (collective). Invalidates the subgroup cache —
    /// "file view switching ... detects such pattern at the file view
    /// initiation time".
    pub fn set_view(&mut self, displacement: u64, filetype: &Datatype) {
        self.cache = None;
        self.file.set_view(displacement, filetype);
    }

    /// Partitioned collective write at a view offset.
    pub fn write_at_all(&mut self, offset: u64, buf: &IoBuffer) {
        self.run(offset, buf.len() as u64, Dir::Write(buf));
    }

    /// Partitioned collective read at a view offset.
    pub fn read_at_all(&mut self, offset: u64, nbytes: u64) -> IoBuffer {
        let data = self.run(offset, nbytes, Dir::Read);
        data.expect("a collective read returns its bytes")
    }

    /// One partitioned collective call.
    fn run(&mut self, offset: u64, nbytes: u64, dir: Dir<'_>) -> Option<IoBuffer> {
        let (mode, data) = run_partitioned(
            &mut self.file,
            &self.pcfg,
            &mut self.cache,
            offset,
            nbytes,
            dir,
        );
        self.last_mode = Some(mode);
        data
    }

    /// Independent write passthrough.
    pub fn write_at(&mut self, offset: u64, buf: &IoBuffer) {
        self.file.write_at(offset, buf);
    }

    /// Independent read passthrough.
    pub fn read_at(&mut self, offset: u64, nbytes: u64) -> IoBuffer {
        self.file.read_at(offset, nbytes)
    }

    /// Which path the last collective took.
    pub fn last_mode(&self) -> Option<PartitionMode> {
        self.last_mode
    }

    /// How many communicator splits this file has performed (repetitive
    /// workloads should split once and reuse the subgroups).
    pub fn split_count(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.splits)
    }

    /// The wrapped plain MPI-IO file.
    pub fn inner(&self) -> &File<'ep> {
        &self.file
    }

    /// Mutable access to the wrapped file.
    pub fn inner_mut(&mut self) -> &mut File<'ep> {
        &mut self.file
    }

    /// This rank's accumulated phase profile.
    pub fn profile(&self) -> &PhaseProfile {
        self.file.profile()
    }

    /// Collectively close, returning the profile.
    pub fn close(self) -> PhaseProfile {
        self.file.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::FsConfig;
    use simnet::{run_cluster, ClusterConfig, Mapping};

    fn fill(rank: usize, n: usize) -> Vec<u8> {
        (0..n).map(|i| ((rank * 131 + i * 7) % 251) as u8).collect()
    }

    fn info_groups(g: usize) -> Info {
        Info::new()
            .with("parcoll_groups", g)
            .with("parcoll_min_group", 1)
    }

    /// Pattern (a): serial blocks. ParColl output must equal a plain
    /// collective write, byte for byte.
    #[test]
    fn serial_pattern_matches_baseline() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(8, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let n = 512usize;
            // Baseline file.
            let mut base = File::open(&comm, &fs2, "/base", &Info::new());
            base.write_at_all(
                (comm.rank() * n) as u64,
                &IoBuffer::from_vec(fill(comm.rank(), n)),
            );
            base.close();
            // ParColl file, 4 groups of 2.
            let mut pc = ParcollFile::open(&comm, &fs2, "/pc", &info_groups(4));
            pc.write_at_all(
                (comm.rank() * n) as u64,
                &IoBuffer::from_vec(fill(comm.rank(), n)),
            );
            assert_eq!(pc.last_mode(), Some(PartitionMode::Direct { groups: 4 }));
            comm.barrier();
            if comm.rank() == 0 {
                let (a, _) = pc.inner().handle().read_at(0, 8 * n, ep.now());
                let mut expect = Vec::new();
                for r in 0..8 {
                    expect.extend_from_slice(&fill(r, n));
                }
                assert_eq!(a.as_slice().unwrap(), expect.as_slice());
            }
            pc.close();
        });
    }

    /// Pattern (b): interleaved tile-like ranges. Groups of adjacent
    /// ranks form disjoint FAs; data must land exactly.
    #[test]
    fn tiled_pattern_partitions_directly() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            // Rank r writes rows r*2 and r*2+1 of an 8x32 byte array —
            // contiguous 64B at r*64: trivially disjoint, but shift the
            // start so ranges share boundaries.
            let ft = Datatype::tile_2d(8, 32, 2, 32, comm.rank() * 2, 0, 1);
            let mut pc = ParcollFile::open(&comm, &fs2, "/tiles", &info_groups(2));
            pc.set_view(0, &ft);
            let mine = fill(comm.rank(), 64);
            pc.write_at_all(0, &IoBuffer::from_slice(&mine));
            assert!(matches!(
                pc.last_mode(),
                Some(PartitionMode::Direct { groups: 2 })
            ));
            comm.barrier();
            let got = pc.read_at_all(0, 64);
            assert_eq!(got.as_slice().unwrap(), mine.as_slice());
            pc.close();
        });
    }

    /// Pattern (c): each rank's segments spread across the file —
    /// intermediate view engages and the physical bytes land per the
    /// original view.
    #[test]
    fn spread_pattern_uses_intermediate_view() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            // Rank r owns 4 segments of 16B at offsets r*16 + k*256
            // (k = 0..4): BT-like cyclic spread.
            let ft = Datatype::HIndexed {
                blocks: (0..4).map(|k| ((comm.rank() * 16 + k * 256) as u64, 1)).collect(),
                inner: Box::new(Datatype::Bytes(16)),
            };
            let mut pc = ParcollFile::open(&comm, &fs2, "/spread", &info_groups(2));
            pc.set_view(0, &ft);
            let mine = fill(comm.rank(), 64);
            pc.write_at_all(0, &IoBuffer::from_slice(&mine));
            assert_eq!(
                pc.last_mode(),
                Some(PartitionMode::IntermediateView { groups: 2 })
            );
            comm.barrier();
            // Read back through the same view collectively.
            let got = pc.read_at_all(0, 64);
            assert_eq!(got.as_slice().unwrap(), mine.as_slice());
            // The intermediate view stores the file in LOGICAL order:
            // each rank's segments concatenated, ranks ordered by their
            // first offset (= rank order here). Spot-check from rank 0.
            if comm.rank() == 0 {
                for r in 0..4usize {
                    let (raw, _) = pc.inner().handle().read_at((r * 64) as u64, 64, ep.now());
                    assert_eq!(
                        raw.as_slice().unwrap(),
                        fill(r, 64).as_slice(),
                        "rank {r} logical region misplaced"
                    );
                }
            }
            pc.close();
        });
    }

    /// The `parcoll_iview_scatter` ablation materializes data at the
    /// *original* physical offsets (interoperable layout), at the cost of
    /// one small request per segment.
    #[test]
    fn scatter_ablation_preserves_physical_layout() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let info = info_groups(2).with("parcoll_iview_scatter", "true");
            let ft = Datatype::HIndexed {
                blocks: (0..4).map(|k| ((comm.rank() * 16 + k * 256) as u64, 1)).collect(),
                inner: Box::new(Datatype::Bytes(16)),
            };
            let mut pc = ParcollFile::open(&comm, &fs2, "/scatter", &info);
            pc.set_view(0, &ft);
            let mine = fill(comm.rank(), 64);
            pc.write_at_all(0, &IoBuffer::from_slice(&mine));
            assert_eq!(
                pc.last_mode(),
                Some(PartitionMode::IntermediateView { groups: 2 })
            );
            comm.barrier();
            let got = pc.read_at_all(0, 64);
            assert_eq!(got.as_slice().unwrap(), mine.as_slice());
            // Original (view) placement preserved on disk.
            if comm.rank() == 0 {
                for r in 0..4usize {
                    let (raw, _) =
                        pc.inner().handle().read_at((r * 16 + 256) as u64, 16, ep.now());
                    assert_eq!(
                        raw.as_slice().unwrap(),
                        &fill(r, 64)[16..32],
                        "rank {r} segment k=1 misplaced under scatter mode"
                    );
                }
            }
            pc.close();
        });
    }

    /// The intermediate view's map and its partition are built once per
    /// collective and shared: every rank holds the same allocations.
    #[test]
    fn logical_map_is_built_once_and_shared() {
        let maps = run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), |ep| {
            let comm = Communicator::world(&ep);
            let mine: Vec<Ext> = (0..4)
                .map(|k| Ext::new((comm.rank() * 16 + k * 256) as u64, 16))
                .collect();
            let plan = AccessPlan::from_extents(mine);
            assert_eq!(plan.runs().len(), 1, "four pieces, one strided run");
            gather_logical_map(&comm, plan.start().unwrap(), Rc::clone(plan.shape()), 2)
        });
        let (map, grouping) = &maps[0];
        assert_eq!(map.nprocs(), 4);
        assert_eq!(map.rank_range(3), (192, 256));
        assert_eq!(grouping.group_of, [0, 0, 1, 1]);
        assert_eq!(grouping.fas, [(0, 128), (128, 256)]);
        for (m, g) in &maps {
            assert!(Rc::ptr_eq(m, map) && Rc::ptr_eq(g, grouping));
        }
    }

    /// Rank 2 contributes `bad`, every other rank one piece.
    fn gather_with_one_bad_rank(bad: Vec<Run>) {
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let (origin, mine) = if comm.rank() == 2 {
                (0, bad.clone())
            } else {
                (100 * comm.rank() as u64, vec![Run::piece(0, 10)])
            };
            gather_logical_map(&comm, origin, mine.into(), 2);
        });
    }

    /// The map's validation runs inside the collective's meeting point; a
    /// rank contributing overlapping runs fails the run with the assert's
    /// own message instead of hanging the other ranks.
    #[test]
    #[should_panic(expected = "physical extents must be sorted and disjoint per rank")]
    fn invalid_extents_fail_the_run_at_the_meeting_point() {
        // The strided run's last piece is [40, 50); the next run starts at 45.
        let strided = Run {
            off: 0,
            len: 10,
            stride: 20,
            count: 3,
        };
        gather_with_one_bad_rank(vec![strided, Run::piece(45, 10)]);
    }

    /// A run whose pieces are longer than its stride overlaps itself.
    #[test]
    #[should_panic(expected = "physical extents must be sorted and disjoint per rank")]
    fn a_run_longer_than_its_stride_fails_the_run_at_the_meeting_point() {
        let overlapping = Run {
            off: 0,
            len: 10,
            stride: 5,
            count: 3,
        };
        gather_with_one_bad_rank(vec![overlapping]);
    }

    /// `parcoll_force_iview=false` on a pattern-(c) workload degenerates to one
    /// group (baseline) but stays correct.
    #[test]
    fn forbidden_iview_falls_back_to_single_group() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let info = info_groups(2).with("parcoll_force_iview", "false");
            let ft = Datatype::HIndexed {
                blocks: (0..4).map(|k| ((comm.rank() * 16 + k * 256) as u64, 1)).collect(),
                inner: Box::new(Datatype::Bytes(16)),
            };
            let mut pc = ParcollFile::open(&comm, &fs2, "/noiview", &info);
            pc.set_view(0, &ft);
            let mine = fill(comm.rank(), 64);
            pc.write_at_all(0, &IoBuffer::from_slice(&mine));
            assert_eq!(pc.last_mode(), Some(PartitionMode::Single));
            comm.barrier();
            let got = pc.read_at_all(0, 64);
            assert_eq!(got.as_slice().unwrap(), mine.as_slice());
            pc.close();
        });
    }

    /// Repeated collective writes with the same rank ordering reuse the
    /// cached subgroup split.
    #[test]
    fn subgroup_cache_reused_across_calls() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(8, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let mut pc = ParcollFile::open(&comm, &fs2, "/cache", &info_groups(4));
            let n = 128usize;
            for call in 0..4u64 {
                let off = (call as usize * 8 * n + comm.rank() * n) as u64;
                pc.write_at_all(off, &IoBuffer::from_vec(fill(comm.rank(), n)));
            }
            // Same rank ordering every call: exactly one split.
            assert_eq!(pc.split_count(), 1);
            let _ = ep;
            pc.close();
        });
    }

    /// ParColl with groups=1 equals the baseline mode marker.
    #[test]
    fn single_group_degenerates() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let mut pc = ParcollFile::open(&comm, &fs2, "/one", &info_groups(1));
            pc.write_at_all(
                (comm.rank() * 64) as u64,
                &IoBuffer::from_vec(fill(comm.rank(), 64)),
            );
            assert_eq!(pc.last_mode(), Some(PartitionMode::Single));
            pc.close();
        });
    }

    /// Synthetic buffers run the whole partitioned path.
    #[test]
    fn synthetic_partitioned_write() {
        let fs = FileSystem::new(FsConfig::jaguar());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::cray_xt(16, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let mut pc = ParcollFile::open(&comm, &fs2, "/synth", &info_groups(4));
            let n = 4 << 20;
            pc.write_at_all((comm.rank() * n) as u64, &IoBuffer::synthetic(n));
            assert_eq!(pc.last_mode(), Some(PartitionMode::Direct { groups: 4 }));
            comm.barrier();
            assert_eq!(pc.inner().handle().size(), 16 * n as u64);
            pc.close();
        });
    }

    /// A synthetic partitioned read whose modelled size could never be
    /// zero-filled: 4 ranks × 16 GiB in 2 subgroups through 1 GiB staging
    /// rounds.
    #[test]
    fn synthetic_partitioned_read_allocates_nothing() {
        const N: usize = 16 << 30;
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        let out = run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let info = info_groups(2).with("cb_buffer_size", 1usize << 30);
            let mut pc = ParcollFile::open_with_layout(&comm, &fs2, "/huge", &info, 4, 1 << 30);
            pc.write_at_all((comm.rank() * N) as u64, &IoBuffer::synthetic(N));
            let got = pc.read_at_all((comm.rank() * N) as u64, N as u64);
            assert_eq!(pc.last_mode(), Some(PartitionMode::Direct { groups: 2 }));
            pc.close();
            got
        });
        for got in out {
            assert_eq!(got, IoBuffer::synthetic(N));
            // Range checks still run on the synthetic path.
            assert!(std::panic::catch_unwind(|| got.sub(N - 1, 2)).is_err());
            let mut dst = got.clone();
            let oob = std::panic::AssertUnwindSafe(|| dst.copy_in(N - 1, &IoBuffer::synthetic(2)));
            assert!(std::panic::catch_unwind(oob).is_err());
        }
    }

    /// The headline effect: with the same direct (pattern-a) workload and
    /// identical file I/O, partitioning cuts time spent in global
    /// synchronization — the collective wall (paper Figure 8).
    #[test]
    fn parcoll_reduces_sync_time() {
        // 256 ranks, small transfers: the per-call global collectives
        // (pairwise alltoalls over the whole group) dominate, as on the
        // paper's 512-process runs.
        const P: usize = 256;
        let run = |groups: usize| {
            // An I/O-light file system (fast, deterministic, finely
            // striped) so the measurement isolates collective-operation
            // cost rather than storage contention.
            let fs = FileSystem::new(FsConfig {
                n_osts: 64,
                default_stripe_count: 64,
                default_stripe_size: 64 << 10,
                ost_bandwidth_bps: 10e9,
                request_overhead: simnet::SimTime::micros(20.0),
                list_extent_overhead: simnet::SimTime::micros(2.0),
                rpc_latency: simnet::SimTime::micros(10.0),
                open_base: simnet::SimTime::micros(100.0),
                open_per_client: simnet::SimTime::micros(5.0),
                jitter_cv: 0.0,
                contention_per_queued: 0.0,
                cache_bytes: 0,
                lock_handoff: simnet::SimTime::ZERO,
                lock_exempt_bytes: 0,
                slow_prob: 0.0,
                slow_factor: 1.0,
                seed: 7,
                integrity: false,
            });
            let fs2 = fs.clone();
            let profs = run_cluster(ClusterConfig::cray_xt(P, Mapping::Block), move |ep| {
                let comm = Communicator::world(&ep);
                let info = Info::new()
                    .with("parcoll_groups", groups)
                    .with("parcoll_min_group", 1);
                let mut pc = ParcollFile::open(&comm, &fs2, "/sync", &info);
                let n = 16usize << 10;
                for call in 0..4usize {
                    let off = ((call * P + comm.rank()) * n) as u64;
                    pc.write_at_all(off, &IoBuffer::synthetic(n));
                }
                let _ = ep;
                pc.close()
            });
            let mut acc = PhaseProfile::new();
            for p in &profs {
                acc.merge(p);
            }
            acc.sync.as_secs() / profs.len() as f64
        };
        let sync_1 = run(1);
        let sync_32 = run(32);
        assert!(
            sync_32 < sync_1 * 0.7,
            "32 groups should cut mean sync time: baseline {sync_1}s vs parcoll {sync_32}s"
        );
    }
}
