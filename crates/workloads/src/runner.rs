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
use mpiio::PhaseProfile;
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
    /// File-system statistics at the end of the run (request counts,
    /// per-OST load, imbalance diagnostics).
    pub fs_stats: simfs::FsStats,
    /// At-rest scrub report, when [`RunConfig::scrub`] was set.
    pub scrub: Option<simfs::ScrubReport>,
}

/// Execute `workload` under `cfg` and collect the aggregate result.
pub fn run_workload<W: Workload>(workload: W, cfg: RunConfig) -> RunResult {
    run_workload_with_net(workload, cfg, |_| {})
}

/// [`run_workload`] with a hook that adjusts the network cost model
/// before the cluster starts (algorithmic ablations).
pub fn run_workload_with_net<W, F>(workload: W, cfg: RunConfig, tweak: F) -> RunResult
where
    W: Workload,
    F: FnOnce(&mut simnet::NetworkModel),
{
    let nprocs = workload.nprocs();
    let total_bytes = workload.total_bytes();
    let mut net = simnet::NetworkModel::cray_xt_seastar();
    tweak(&mut net);
    let (fs, cluster) = setup(&cfg, nprocs, net);

    // One hint set for the run, borrowed by every rank.
    let info = hints(&cfg);
    let outs: Vec<Pass> = run_cluster(cluster, |ep| {
        let comm = Communicator::world(&ep);
        let rank = comm.rank();
        let w = &workload;
        let independent = cfg.mode == IoMode::Independent;
        let make_buf = |call: usize, bytes: u64| match cfg.data {
            DataMode::Synthetic => IoBuffer::synthetic(bytes as usize),
            DataMode::Verify => pattern_buffer(rank, call, bytes),
        };
        let mut write = |f: &mut ParcollFile<'_>| {
            for call in 0..w.ncalls() {
                let (off, bytes) = w.call(rank, call);
                let buf = make_buf(call, bytes);
                if !independent {
                    f.write_at_all(off, &buf);
                    continue;
                }
                // Write the workload's native independent units (e.g.
                // HDF5 per-block hyperslabs for Flash-IO), slicing the
                // call's buffer in order.
                let mut consumed = 0usize;
                for (off, bytes) in w.independent_pieces(rank, call) {
                    f.write_at(off, &buf.sub(consumed, bytes as usize));
                    consumed += bytes as usize;
                }
            }
        };
        let mut read = |f: &mut ParcollFile<'_>| {
            for call in 0..w.ncalls() {
                let (off, bytes) = w.call(rank, call);
                let got = if independent {
                    f.read_at(off, bytes)
                } else {
                    f.read_at_all(off, bytes)
                };
                if cfg.data == DataMode::Verify {
                    let got = got.as_slice().expect("verify mode reads real data");
                    assert_eq!(got.len() as u64, bytes, "rank {rank} call {call}: short read");
                    if let Some(at) = pattern_mismatch(rank, call, 0, got) {
                        panic!("rank {rank} call {call}: read-back mismatch at byte {at}");
                    }
                }
            }
        };
        let read = cfg.read_back.then_some(&mut read as Step<'_>);
        let file = (w.path(), w.view(rank));
        pass(&comm, &fs, &info, file, Some(&mut write), read)
    });

    let write_seconds = outs[0].write_s;
    let read_seconds = outs[0].read_s;
    let mut profile_sum = PhaseProfile::new();
    for o in &outs {
        profile_sum.merge(&o.profile);
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
        profile_max: profile_max(outs.iter().map(|o| &o.profile)),
        profile_avg,
        total_bytes,
        scrub: cfg.scrub.then(|| {
            let (report, _done) = fs.scrub(fs.drain_time());
            report
        }),
        fs_stats: fs.stats(),
    }
}

/// The file system and cluster of a run under `cfg` on `nprocs` ranks
/// over `net`: integrity, trace sink and fault plan wired through both.
pub(crate) fn setup(
    cfg: &RunConfig,
    nprocs: usize,
    net: simnet::NetworkModel,
) -> (FileSystem, ClusterConfig) {
    let mut fs_cfg = cfg.fs.clone();
    if cfg.integrity {
        fs_cfg.integrity = true;
    }
    let fs = FileSystem::new(fs_cfg);
    fs.attach_trace(&cfg.trace);
    if let Some(plan) = &cfg.faults {
        fs.install_faults(plan);
    }
    let cluster = ClusterConfig {
        topology: simnet::Topology::dual_core(nprocs, cfg.mapping),
        net,
        machine: simnet::MachineModel::catamount(),
        stack_size: simnet::default_stack_size(),
        trace: cfg.trace.clone(),
        faults: cfg.faults.clone(),
    };
    (fs, cluster)
}

/// The MPI-IO hints of a run under `cfg`: its own, plus integrity and
/// the ParColl subgroup count.
pub(crate) fn hints(cfg: &RunConfig) -> Info {
    let mut info = cfg.info.clone();
    if cfg.integrity {
        info.set("integrity_checksums", "enable");
    }
    if let IoMode::Parcoll { groups } = cfg.mode {
        info.set("parcoll_groups", groups);
        info.set("parcoll_min_group", 1);
    } else {
        info.set("parcoll_groups", 1);
    }
    info
}

/// What one rank's [`pass`] over a file measured.
pub(crate) struct Pass {
    /// Virtual seconds of the write and the drain behind it (0 without).
    pub(crate) write_s: f64,
    /// Virtual seconds of the read, if one ran.
    pub(crate) read_s: Option<f64>,
    /// The rank's profile at close.
    pub(crate) profile: PhaseProfile,
}

/// A step of a [`pass`]: what one rank does with the open file.
pub(crate) type Step<'s> = &'s mut dyn FnMut(&mut ParcollFile<'_>);

/// One rank's open → write → drain → read → close: open `path` under
/// `info` with the view `(disp, filetype)`, then `write` and the
/// close-time drain of the server caches, then `read`, each timed
/// barrier to barrier, and close.
pub(crate) fn pass<'ep>(
    comm: &Communicator<'ep>,
    fs: &FileSystem,
    info: &Info,
    (path, (disp, filetype)): (String, (u64, mpiio::Datatype)),
    write: Option<Step<'_>>,
    read: Option<Step<'_>>,
) -> Pass {
    let ep = comm.endpoint();
    let timed = |body: &mut dyn FnMut()| {
        comm.barrier();
        let t0 = ep.now();
        body();
        comm.barrier();
        (ep.now() - t0).as_secs()
    };
    let mut f = ParcollFile::open(comm, fs, &path, info);
    f.set_view(disp, &filetype);
    let write_s = write.map_or(0.0, |write| {
        timed(&mut || {
            write(&mut f);
            let t = mpiio::profile::PhaseTimer::start(mpiio::profile::Phase::Io, ep.now());
            ep.clock().advance_to(fs.drain_time());
            t.stop_traced(ep.now(), f.inner_mut().profile_mut(), ep.trace());
        })
    });
    let read_s = read.map(|read| timed(&mut || read(&mut f)));
    Pass {
        write_s,
        read_s,
        profile: f.close(),
    }
}

/// The per-phase maximum over ranks' profiles: the slowest rank's time
/// in each phase, taken phase by phase.
pub(crate) fn profile_max<'a>(profiles: impl Iterator<Item = &'a PhaseProfile>) -> PhaseProfile {
    profiles.fold(PhaseProfile::new(), |m, p| PhaseProfile {
        sync: m.sync.max(p.sync),
        p2p: m.p2p.max(p.p2p),
        io: m.io.max(p.io),
        local: m.local.max(p.local),
        calls: m.calls.max(p.calls),
        rounds: m.rounds.max(p.rounds),
    })
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
