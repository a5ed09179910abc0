//! Workload execution and measurement harness.
//!
//! Runs a [`Workload`] on a virtual Cray XT cluster through one of three
//! I/O paths — the baseline extended two-phase collective (standing in
//! for the Cray/OPAL MPI-IO of the paper), ParColl with a chosen subgroup
//! count, or independent I/O (the paper's "Cray w/o Coll") — over
//! synthetic paper-scale data or real verifiable bytes, and reports
//! aggregate bandwidth plus the phase profile. Every figure reproduction
//! in the `bench` crate is a sweep over these runs.

use crate::{pattern_buffer, pattern_mismatch, Workload};
use mpiio::{File, PhaseProfile};
use parcoll::ParcollFile;
use simfs::{FileSystem, FsConfig};
use simmpi::{Communicator, Info};
use simnet::{run_cluster, ClusterConfig, IoBuffer, Mapping};
use std::sync::Arc;

/// Which I/O path to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// Baseline collective I/O: the unmodified extended two-phase
    /// protocol over the whole communicator.
    Collective,
    /// ParColl with an explicit subgroup count.
    Parcoll {
        /// Number of subgroups.
        groups: usize,
    },
    /// Independent (non-collective) I/O — "Cray w/o Coll".
    Independent,
}

/// Real, verified data or synthetic paper-scale data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Byte-exact verification: write a deterministic pattern, read it
    /// back collectively, compare.
    Verify,
    /// Unmaterialized buffers; only byte counts drive the cost model.
    Synthetic,
}

/// One measurement configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// I/O path.
    pub mode: IoMode,
    /// Data handling.
    pub data: DataMode,
    /// Extra MPI-IO hints (`cb_nodes`, aggregator lists, ...).
    pub info: Info,
    /// Rank-to-node placement.
    pub mapping: Mapping,
    /// File system parameters.
    pub fs: FsConfig,
    /// Also measure a collective read-back pass.
    pub read_back: bool,
    /// Trace sink wired through the cluster, the MPI/IO layers and the
    /// OSTs. Disabled (zero-cost) by default.
    pub trace: simtrace::TraceSink,
    /// Seeded fault plan installed on the network endpoints and every
    /// OST. `None` (the default) leaves all paths bitwise identical to a
    /// fault-free build.
    pub faults: Option<Arc<simnet::FaultPlan>>,
    /// End-to-end integrity: per-page checksums in the file system (read
    /// verification, scrubbing) plus the `integrity_checksums` MPI-IO
    /// hint (checksummed exchange pieces with detect-and-repair). Off by
    /// default — runs are bitwise identical to a build without the layer.
    pub integrity: bool,
    /// Run an at-rest scrub pass after the workload completes (requires
    /// [`RunConfig::integrity`]); the report lands in
    /// [`RunResult::scrub`].
    pub scrub: bool,
    /// Online autotuning: `Some(cache)` sets the `parcoll_autotune` hint
    /// (leaving the subgroup count to the tuner, so `mode` should be
    /// [`IoMode::Collective`]) and threads the policy cache through every
    /// rank's file, so sweeps that reuse one cache across
    /// [`run_workload`] calls resume the learned configuration on each
    /// reopen — one run per epoch. `None` (the default) changes nothing.
    pub autotune: Option<parcoll::PolicyCache>,
}

impl RunConfig {
    /// The paper's environment: Jaguar file system, block mapping,
    /// synthetic data, no read-back.
    pub fn paper(mode: IoMode) -> Self {
        RunConfig {
            mode,
            data: DataMode::Synthetic,
            info: Info::new(),
            mapping: Mapping::Block,
            fs: FsConfig::jaguar(),
            read_back: false,
            trace: simtrace::TraceSink::disabled(),
            faults: None,
            integrity: false,
            scrub: false,
            autotune: None,
        }
    }

    /// A miniature verifying configuration for tests.
    pub fn verify(mode: IoMode) -> Self {
        RunConfig {
            mode,
            data: DataMode::Verify,
            info: Info::new(),
            mapping: Mapping::Block,
            fs: FsConfig::tiny(),
            read_back: true,
            trace: simtrace::TraceSink::disabled(),
            faults: None,
            integrity: false,
            scrub: false,
            autotune: None,
        }
    }
}

/// Aggregated measurement of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Virtual seconds from the pre-write barrier to the post-write
    /// barrier (identical on all ranks).
    pub write_seconds: f64,
    /// Aggregate write bandwidth, decimal MB/s as the paper reports.
    pub write_mbps: f64,
    /// Read-back elapsed time, if measured.
    pub read_seconds: Option<f64>,
    /// Read-back bandwidth, if measured.
    pub read_mbps: Option<f64>,
    /// Per-phase times of the slowest rank.
    pub profile_max: PhaseProfile,
    /// Per-phase times averaged over ranks.
    pub profile_avg: PhaseProfile,
    /// Bytes moved by the write pass.
    pub total_bytes: u64,
    /// The autotuner's epoch-by-epoch decisions (identical on all ranks;
    /// reported from rank 0). Empty unless [`RunConfig::autotune`] was
    /// set.
    pub autotune_log: Vec<parcoll::DecisionRecord>,
    /// File-system statistics at the end of the run (request counts,
    /// per-OST load, imbalance diagnostics).
    pub fs_stats: simfs::FsStats,
    /// At-rest scrub report, when [`RunConfig::scrub`] was set.
    pub scrub: Option<simfs::ScrubReport>,
}

/// Execute `workload` under `cfg` and collect the aggregate result.
pub fn run_workload<W: Workload + 'static>(workload: W, cfg: RunConfig) -> RunResult {
    run_workload_with_net(workload, cfg, |_| {})
}

/// [`run_workload`] with a hook that adjusts the network cost model
/// before the cluster starts (algorithmic ablations).
pub fn run_workload_with_net<W, F>(workload: W, cfg: RunConfig, tweak: F) -> RunResult
where
    W: Workload + 'static,
    F: FnOnce(&mut simnet::NetworkModel),
{
    let nprocs = workload.nprocs();
    let total_bytes = workload.total_bytes();
    let mut fs_cfg = cfg.fs.clone();
    if cfg.integrity {
        fs_cfg.integrity = true;
    }
    let fs = FileSystem::new(fs_cfg);
    fs.attach_trace(&cfg.trace);
    if let Some(plan) = &cfg.faults {
        fs.install_faults(plan);
    }
    let workload = Arc::new(workload);
    let mut net = simnet::NetworkModel::cray_xt_seastar();
    tweak(&mut net);
    let cluster = ClusterConfig {
        topology: simnet::Topology::dual_core(nprocs, cfg.mapping),
        net,
        machine: simnet::MachineModel::catamount(),
        stack_size: simnet::default_stack_size(),
        trace: cfg.trace.clone(),
        faults: cfg.faults.clone(),
    };

    struct RankOut {
        write_s: f64,
        read_s: Option<f64>,
        profile: PhaseProfile,
        tune_log: Vec<parcoll::DecisionRecord>,
    }

    let cfg2 = cfg.clone();
    let fs_for_stats = fs.clone();
    let outs: Vec<RankOut> = run_cluster(cluster, move |ep| {
        let comm = Communicator::world(&ep);
        let rank = comm.rank();
        let w = Arc::clone(&workload);
        let mut info = cfg2.info.clone();
        if cfg2.integrity {
            info.set("integrity_checksums", "enable");
        }
        if cfg2.autotune.is_some() {
            // Tuned run: leave the ParColl defaults in force and let the
            // controller move the knobs from there.
            info.set("parcoll_autotune", "enable");
        } else if let IoMode::Parcoll { groups } = cfg2.mode {
            info.set("parcoll_groups", groups);
            info.set("parcoll_min_group", 1);
        } else {
            info.set("parcoll_groups", 1);
        }

        let (disp, ft) = w.view(rank);
        let make_buf = |call: usize, bytes: u64| match cfg2.data {
            DataMode::Synthetic => IoBuffer::synthetic(bytes as usize),
            DataMode::Verify => IoBuffer::from_vec(pattern_buffer(rank, call, bytes)),
        };

        match cfg2.mode {
            IoMode::Independent => {
                let mut f = File::open(&comm, &fs, &w.path(), &info);
                f.set_view(disp, &ft);
                comm.barrier();
                let t0 = ep.now();
                for call in 0..w.ncalls() {
                    // Issue the workload's native independent units (e.g.
                    // HDF5 per-block hyperslabs for Flash-IO), slicing
                    // the call's buffer in order.
                    let (_, total) = w.call(rank, call);
                    let full = make_buf(call, total);
                    let mut consumed = 0usize;
                    for (off, bytes) in w.independent_pieces(rank, call) {
                        f.write_at(off, &full.sub(consumed, bytes as usize));
                        consumed += bytes as usize;
                    }
                }
                // Close-time sync: wait for the server caches to drain.
                let t = mpiio::profile::PhaseTimer::start(mpiio::profile::Phase::Io, ep.now());
                ep.clock().advance_to(fs.drain_time());
                t.stop_traced(ep.now(), f.profile_mut(), ep.trace());
                comm.barrier();
                let write_s = (ep.now() - t0).as_secs();
                let read_s = measure_read_plain(&mut f, w.as_ref(), rank, &cfg2, &comm, &ep);
                RankOut {
                    write_s,
                    read_s,
                    profile: f.close(),
                    tune_log: Vec::new(),
                }
            }
            _ => {
                let mut f = ParcollFile::open(&comm, &fs, &w.path(), &info);
                if let Some(pc) = &cfg2.autotune {
                    f.set_policy_cache(pc.clone());
                }
                f.set_view(disp, &ft);
                comm.barrier();
                let t0 = ep.now();
                for call in 0..w.ncalls() {
                    let (off, bytes) = w.call(rank, call);
                    f.write_at_all(off, &make_buf(call, bytes));
                }
                // Close-time sync: wait for the server caches to drain.
                let t = mpiio::profile::PhaseTimer::start(mpiio::profile::Phase::Io, ep.now());
                ep.clock().advance_to(fs.drain_time());
                t.stop_traced(ep.now(), f.inner_mut().profile_mut(), ep.trace());
                comm.barrier();
                let write_s = (ep.now() - t0).as_secs();
                let read_s = measure_read_parcoll(&mut f, w.as_ref(), rank, &cfg2, &comm, &ep);
                let tune_log = if rank == 0 {
                    f.autotune_log().map(<[_]>::to_vec).unwrap_or_default()
                } else {
                    Vec::new()
                };
                RankOut {
                    write_s,
                    read_s,
                    profile: f.close(),
                    tune_log,
                }
            }
        }
    });

    let write_seconds = outs[0].write_s;
    let read_seconds = outs[0].read_s;
    let mut profile_max = PhaseProfile::new();
    let mut profile_sum = PhaseProfile::new();
    for o in &outs {
        profile_sum.merge(&o.profile);
        profile_max = PhaseProfile {
            sync: profile_max.sync.max(o.profile.sync),
            p2p: profile_max.p2p.max(o.profile.p2p),
            io: profile_max.io.max(o.profile.io),
            local: profile_max.local.max(o.profile.local),
            calls: profile_max.calls.max(o.profile.calls),
            rounds: profile_max.rounds.max(o.profile.rounds),
        };
    }
    let n = outs.len() as f64;
    let profile_avg = PhaseProfile {
        sync: profile_sum.sync / n,
        p2p: profile_sum.p2p / n,
        io: profile_sum.io / n,
        local: profile_sum.local / n,
        calls: (profile_sum.calls as f64 / n) as u64,
        rounds: (profile_sum.rounds as f64 / n) as u64,
    };

    RunResult {
        write_seconds,
        write_mbps: total_bytes as f64 / write_seconds / 1e6,
        read_seconds,
        read_mbps: read_seconds.map(|s| total_bytes as f64 / s / 1e6),
        profile_max,
        profile_avg,
        total_bytes,
        autotune_log: outs
            .first()
            .map(|o| o.tune_log.clone())
            .unwrap_or_default(),
        scrub: cfg.scrub.then(|| {
            let (report, _done) = fs_for_stats.scrub(fs_for_stats.drain_time());
            report
        }),
        fs_stats: fs_for_stats.stats(),
    }
}

fn measure_read_parcoll<W: Workload + ?Sized>(
    f: &mut ParcollFile<'_>,
    w: &W,
    rank: usize,
    cfg: &RunConfig,
    comm: &Communicator<'_>,
    ep: &simnet::Endpoint,
) -> Option<f64> {
    if !cfg.read_back {
        return None;
    }
    comm.barrier();
    let t0 = ep.now();
    for call in 0..w.ncalls() {
        let (off, bytes) = w.call(rank, call);
        let got = f.read_at_all(off, bytes);
        if cfg.data == DataMode::Verify {
            let got = got.as_slice().expect("verify mode reads real data");
            assert_eq!(got.len() as u64, bytes, "rank {rank} call {call}: short read");
            if let Some(at) = pattern_mismatch(rank, call, 0, got) {
                panic!("rank {rank} call {call}: read-back mismatch at byte {at}");
            }
        }
    }
    comm.barrier();
    Some((ep.now() - t0).as_secs())
}

fn measure_read_plain<W: Workload + ?Sized>(
    f: &mut File<'_>,
    w: &W,
    rank: usize,
    cfg: &RunConfig,
    comm: &Communicator<'_>,
    ep: &simnet::Endpoint,
) -> Option<f64> {
    if !cfg.read_back {
        return None;
    }
    comm.barrier();
    let t0 = ep.now();
    for call in 0..w.ncalls() {
        let (off, bytes) = w.call(rank, call);
        let got = f.read_at(off, bytes);
        if cfg.data == DataMode::Verify {
            let got = got.as_slice().expect("verify mode reads real data");
            assert_eq!(got.len() as u64, bytes, "rank {rank} call {call}: short read");
            if let Some(at) = pattern_mismatch(rank, call, 0, got) {
                panic!("rank {rank} call {call}: independent read-back mismatch at byte {at}");
            }
        }
    }
    comm.barrier();
    Some((ep.now() - t0).as_secs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btio::BtIo;
    use crate::flashio::FlashIo;
    use crate::ior::Ior;
    use crate::tileio::TileIo;

    #[test]
    fn ior_verifies_under_all_modes() {
        for mode in [
            IoMode::Collective,
            IoMode::Parcoll { groups: 2 },
            IoMode::Independent,
        ] {
            let r = run_workload(Ior::tiny(4), RunConfig::verify(mode));
            assert!(r.write_seconds > 0.0, "{mode:?}");
            assert!(r.read_seconds.unwrap() > 0.0);
            assert_eq!(r.total_bytes, 4 * 4096);
        }
    }

    #[test]
    fn tileio_verifies_under_all_modes() {
        for mode in [
            IoMode::Collective,
            IoMode::Parcoll { groups: 2 },
            IoMode::Independent,
        ] {
            let r = run_workload(TileIo::tiny(4), RunConfig::verify(mode));
            assert!(r.write_mbps > 0.0, "{mode:?}");
        }
    }

    #[test]
    fn btio_verifies_under_all_modes() {
        for mode in [IoMode::Collective, IoMode::Parcoll { groups: 2 }] {
            let r = run_workload(BtIo::tiny(4), RunConfig::verify(mode));
            assert!(r.write_mbps > 0.0, "{mode:?}");
        }
    }

    #[test]
    fn flashio_verifies_under_all_modes() {
        for mode in [
            IoMode::Collective,
            IoMode::Parcoll { groups: 2 },
            IoMode::Independent,
        ] {
            let r = run_workload(FlashIo::tiny(4), RunConfig::verify(mode));
            assert!(r.write_mbps > 0.0, "{mode:?}");
        }
    }

    #[test]
    fn profiles_populated_for_collective_modes() {
        let r = run_workload(TileIo::tiny(8), RunConfig::verify(IoMode::Collective));
        assert!(r.profile_max.sync.as_secs() > 0.0);
        assert!(r.profile_max.io.as_secs() > 0.0);
        assert!(r.profile_avg.sync <= r.profile_max.sync);
        assert!(r.profile_max.calls >= 1);
    }

    #[test]
    fn fs_stats_are_attached() {
        let r = run_workload(Ior::tiny(4), RunConfig::verify(IoMode::Collective));
        assert!(r.fs_stats.total_bytes >= r.total_bytes);
        assert!(r.fs_stats.opens >= 4);
        assert!(r.fs_stats.imbalance() >= 1.0);
    }

    #[test]
    fn synthetic_runs_report_bandwidth() {
        let r = run_workload(
            Ior::tiny(8),
            RunConfig {
                read_back: false,
                ..RunConfig::paper(IoMode::Parcoll { groups: 2 })
            },
        );
        assert!(r.write_mbps > 0.0);
        assert!(r.read_seconds.is_none());
    }
}
