//! The MPI-IO file object: open / set_view / read / write / close.

use crate::aggsel::select_aggregators;
use crate::datatype::Datatype;
use crate::hints::Hints;
use crate::independent;
use crate::profile::{Phase, PhaseProfile, PhaseTimer};
use crate::space::DirectSpace;
use crate::twophase::{self, CollConfig, Dir, Memo};
use crate::view::{AccessPlan, FileView};
use simfs::{FileHandle, FileSystem};
use simmpi::{Communicator, Info};
use simnet::IoBuffer;

/// An open MPI-IO file, mirroring `MPI_File`.
///
/// All `*_all` operations are collective over the opening communicator and
/// must be called by every member with consistent arguments, exactly as in
/// MPI. Offsets are in *view data space* (bytes of visible data, as with
/// an `MPI_BYTE` etype).
///
/// # Examples
///
/// ```
/// use mpiio::File;
/// use simfs::{FileSystem, FsConfig};
/// use simmpi::{Communicator, Info};
/// use simnet::{run_cluster, ClusterConfig, IoBuffer};
///
/// let fs = FileSystem::new(FsConfig::tiny());
/// let fs2 = fs.clone();
/// run_cluster(ClusterConfig::ideal(4), move |ep| {
///     let comm = Communicator::world(&ep);
///     let mut f = File::open(&comm, &fs2, "/shared", &Info::new());
///     // Each rank collectively writes its 1 KiB block...
///     let mine = vec![comm.rank() as u8; 1024];
///     f.write_at_all((comm.rank() * 1024) as u64, &IoBuffer::from_slice(&mine));
///     comm.barrier();
///     // ...and reads its neighbour's back.
///     let peer = (comm.rank() + 1) % 4;
///     let got = f.read_at((peer * 1024) as u64, 1024);
///     assert!(got.as_slice().unwrap().iter().all(|&b| b == peer as u8));
///     f.close();
/// });
/// ```
pub struct File<'ep> {
    comm: Communicator<'ep>,
    fh: FileHandle,
    view: FileView,
    hints: Hints,
    /// The collective configuration the hints and topology give: derived
    /// once per open.
    cfg: CollConfig,
    /// The last plan built, and the view offset it was built at.
    last_plan: Option<(u64, AccessPlan)>,
    /// The index of the last collective call ([`Memo`]).
    memo: Memo,
    profile: PhaseProfile,
}

impl<'ep> File<'ep> {
    /// Collectively open (creating if needed) with default striping.
    pub fn open(
        comm: &Communicator<'ep>,
        fs: &FileSystem,
        path: &str,
        info: &Info,
    ) -> File<'ep> {
        let cfg = fs.config();
        let (sc, ss) = (cfg.default_stripe_count, cfg.default_stripe_size);
        Self::open_with_layout(comm, fs, path, info, sc, ss)
    }

    /// Collectively open with explicit striping (applies on create only).
    pub fn open_with_layout(
        comm: &Communicator<'ep>,
        fs: &FileSystem,
        path: &str,
        info: &Info,
        stripe_count: usize,
        stripe_size: u64,
    ) -> File<'ep> {
        let ep = comm.endpoint();
        let mut profile = PhaseProfile::new();
        // MPI_File_open is collective: the ranks meet, and the serial MDS
        // bookkeeping for the whole group is charged once at the agreed
        // clock. Charging per client as each rank arrives would queue
        // them at the MDS in the order the scheduler resumed them, and
        // make virtual time depend on host order.
        //
        // The collective configuration is derived there too, once for
        // every rank (hints are identical across the group, as MPI
        // requires): one aggregator list per open, not one per rank.
        let t = PhaseTimer::start(Phase::Io, ep.now());
        let fs2 = fs.clone();
        let parties = comm.size();
        let path2 = path.to_string();
        let hints = Hints::from_info(info);
        let cfg = comm.once_at_meet("file_open", |max| {
            let done = fs2.open_collective(&path2, stripe_count, stripe_size, max, parties);
            (coll_config(comm, &hints), done)
        });
        t.stop_traced(ep.now(), &mut profile, ep.trace());
        let fh = fs.handle(path);
        // The post-open agreement barrier MPI_File_open implies.
        let t = PhaseTimer::start(Phase::Sync, ep.now());
        comm.barrier();
        t.stop_traced(ep.now(), &mut profile, ep.trace());
        File {
            cfg: CollConfig::clone(&cfg),
            comm: comm.clone(),
            fh,
            view: FileView::contiguous(0),
            hints,
            last_plan: None,
            memo: Memo::default(),
            profile,
        }
    }

    /// Set the file view (`MPI_File_set_view`). Collective; datatype
    /// flattening is local, agreement costs a barrier.
    pub fn set_view(&mut self, displacement: u64, filetype: &Datatype) {
        self.view = FileView::new(displacement, filetype);
        self.last_plan = None;
        let ep = self.comm.endpoint();
        let t = PhaseTimer::start(Phase::Sync, ep.now());
        self.comm.barrier();
        t.stop_traced(ep.now(), &mut self.profile, ep.trace());
    }

    /// The current view.
    pub fn view(&self) -> &FileView {
        &self.view
    }

    /// The communicator the file was opened on.
    pub fn comm(&self) -> &Communicator<'ep> {
        &self.comm
    }

    /// The underlying file-system handle.
    pub fn handle(&self) -> &FileHandle {
        &self.fh
    }

    /// Parsed hints in force.
    pub fn hints(&self) -> &Hints {
        &self.hints
    }

    /// The collective configuration derived from hints and topology —
    /// exposed so the ParColl layer can redistribute the same aggregator
    /// list over its subgroups.
    pub fn coll_config(&self) -> &CollConfig {
        &self.cfg
    }

    /// Build the access plan for `[offset, offset + nbytes)` of the view.
    /// A call of the last one's length, starting at the same position in
    /// the view's tile, is the last plan shifted by whole tiles: it shares
    /// that plan's runs and does not walk the view.
    pub fn plan(&mut self, offset: u64, nbytes: u64) -> AccessPlan {
        let _hp = simtrace::host::scope(simtrace::host::Site::Plan);
        let last = self.last_plan.as_ref().filter(|(_, p)| p.total == nbytes);
        let shifted = last.and_then(|(at, plan)| self.view.shift_plan(plan, *at, offset));
        let plan = shifted.unwrap_or_else(|| AccessPlan::from_view(&self.view, offset, nbytes));
        self.last_plan = Some((offset, plan.clone()));
        plan
    }

    /// One collective operation over a plan already built, on the file's
    /// own communicator and physical address space: what
    /// [`File::write_at_all`] and [`File::read_at_all`] run, and what a
    /// layer stacked on top (ParColl) falls back to when it does not
    /// partition. A read returns its bytes.
    pub fn collective(&mut self, plan: &AccessPlan, dir: Dir<'_>) -> Option<IoBuffer> {
        let (comm, cfg, memo, prof) = (&self.comm, &self.cfg, &mut self.memo, &mut self.profile);
        twophase::collective(comm, &self.fh, &DirectSpace, plan, dir, cfg, memo, prof)
    }

    /// Collective write at a view offset (`MPI_File_write_at_all`).
    pub fn write_at_all(&mut self, offset: u64, buf: &IoBuffer) {
        let plan = self.plan(offset, buf.len() as u64);
        self.collective(&plan, Dir::Write(buf));
    }

    /// Collective read at a view offset (`MPI_File_read_at_all`).
    pub fn read_at_all(&mut self, offset: u64, nbytes: u64) -> IoBuffer {
        let plan = self.plan(offset, nbytes);
        let data = self.collective(&plan, Dir::Read);
        data.expect("a collective read returns its bytes")
    }

    /// Independent write at a view offset (`MPI_File_write_at`): one file
    /// request per run of the view.
    pub fn write_at(&mut self, offset: u64, buf: &IoBuffer) {
        let plan = self.plan(offset, buf.len() as u64);
        let ep = self.comm.endpoint();
        independent::write_plan(ep, &self.fh, &plan, buf, &mut self.profile);
    }

    /// Independent read at a view offset (`MPI_File_read_at`): holes up
    /// to the file's break-even gap are read through, and what is left
    /// is one plain or one list-I/O request ([`independent::read_plan`]).
    pub fn read_at(&mut self, offset: u64, nbytes: u64) -> IoBuffer {
        let plan = self.plan(offset, nbytes);
        let ep = self.comm.endpoint();
        independent::read_plan(ep, &self.fh, &plan, &mut self.profile)
    }

    /// This rank's accumulated phase profile.
    pub fn profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Mutable access for protocol layers stacked on top (ParColl).
    pub fn profile_mut(&mut self) -> &mut PhaseProfile {
        &mut self.profile
    }

    /// The file-system handle and the phase profile at once, for a layer
    /// stacked on top (ParColl) that runs the engine on a communicator of
    /// its own: the handle borrowed, not copied with its path.
    pub fn handle_and_profile(&mut self) -> (&FileHandle, &mut PhaseProfile) {
        (&self.fh, &mut self.profile)
    }

    /// Collectively close, returning this rank's profile ("when a file is
    /// closed, a summary is reported", paper §2.2).
    pub fn close(mut self) -> PhaseProfile {
        let ep = self.comm.endpoint();
        let t = PhaseTimer::start(Phase::Sync, ep.now());
        self.comm.barrier();
        t.stop_traced(ep.now(), &mut self.profile, ep.trace());
        self.profile
    }
}

/// The collective configuration `hints` give on `comm`.
fn coll_config(comm: &Communicator<'_>, hints: &Hints) -> CollConfig {
    CollConfig {
        aggregators: select_aggregators(comm, hints).into(),
        cb_buffer_size: hints.cb_buffer_size,
        align: hints.cb_align,
        checksums: hints.integrity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Datatype;
    use simfs::FsConfig;
    use simnet::{run_cluster, ClusterConfig};

    fn fill(rank: usize, n: usize) -> Vec<u8> {
        (0..n).map(|i| (rank * 37 + i * 11 % 251) as u8).collect()
    }

    /// Each of 4 ranks collectively writes a contiguous 1KB block; read
    /// back independently and verify byte-exactness.
    #[test]
    fn collective_contiguous_write_round_trip() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::ideal(4), move |ep| {
            let comm = Communicator::world(&ep);
            let mut f = File::open(&comm, &fs2, "/coll", &Info::new());
            let n = 1024usize;
            let mine = fill(comm.rank(), n);
            f.write_at_all((comm.rank() * n) as u64, &IoBuffer::from_slice(&mine));
            comm.barrier();
            // Every rank reads its neighbour's block independently.
            let peer = (comm.rank() + 1) % comm.size();
            let got = f.read_at((peer * n) as u64, n as u64);
            assert_eq!(got.as_slice().unwrap(), fill(peer, n).as_slice());
            f.close();
        });
    }

    /// Interleaved strided pattern: rank r owns every 4th block of 64B.
    /// The two-phase exchange must reassemble perfectly.
    #[test]
    fn collective_strided_write_round_trip() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::ideal(4), move |ep| {
            let comm = Communicator::world(&ep);
            let mut f = File::open(&comm, &fs2, "/strided", &Info::new());
            let blocks = 8usize;
            let bs = 64usize;
            // View: my blocks at stride 4, starting at my rank.
            let ft = Datatype::Vector {
                count: blocks,
                blocklen: 1,
                stride: 4,
                inner: Box::new(Datatype::Bytes(bs as u64)),
            };
            f.set_view((comm.rank() * bs) as u64, &ft);
            let mine = fill(comm.rank(), blocks * bs);
            f.write_at_all(0, &IoBuffer::from_slice(&mine));
            comm.barrier();

            // Collective read back through the same view.
            let got = f.read_at_all(0, (blocks * bs) as u64);
            assert_eq!(got.as_slice().unwrap(), mine.as_slice());

            // And the physical file interleaves all ranks.
            if comm.rank() == 0 {
                let (raw, _) = f.handle().read_at(0, 4 * bs, ep.now());
                let raw = raw.as_slice().unwrap().to_vec();
                for r in 0..4 {
                    assert_eq!(
                        &raw[r * bs..(r + 1) * bs],
                        &fill(r, blocks * bs)[0..bs],
                        "rank {r} block misplaced"
                    );
                }
            }
            f.close();
        });
    }

    /// Small cb_buffer forces multiple exchange rounds; data must still be
    /// exact and the round counter must show it.
    #[test]
    fn multi_round_exchange_is_correct() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::ideal(4), move |ep| {
            let comm = Communicator::world(&ep);
            let info = Info::new().with("cb_buffer_size", 256).with("cb_nodes", 2);
            let mut f = File::open(&comm, &fs2, "/rounds", &Info::new());
            f.hints = crate::hints::Hints::from_info(&info);
            f.cfg = coll_config(&comm, &f.hints);
            let n = 2048usize;
            let mine = fill(comm.rank(), n);
            f.write_at_all((comm.rank() * n) as u64, &IoBuffer::from_slice(&mine));
            assert!(
                f.profile().rounds >= 4,
                "expected multiple rounds, got {}",
                f.profile().rounds
            );
            comm.barrier();
            let got = f.read_at((comm.rank() * n) as u64, n as u64);
            assert_eq!(got.as_slice().unwrap(), mine.as_slice());
            f.close();
        });
    }

    /// Holes in the collective pattern trigger read-modify-write and must
    /// not clobber pre-existing bytes.
    #[test]
    fn rmw_preserves_unwritten_gaps() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::ideal(2), move |ep| {
            let comm = Communicator::world(&ep);
            // Pre-fill the file with a sentinel pattern.
            let mut f = File::open(&comm, &fs2, "/rmw", &Info::new());
            if comm.rank() == 0 {
                f.write_at(0, &IoBuffer::from_slice(&[0xEE; 1000]));
            }
            comm.barrier();
            // Sparse collective write: rank r writes 10B at r*100 + 50.
            let ft = Datatype::HIndexed {
                blocks: vec![((comm.rank() * 100 + 50) as u64, 1)],
                inner: Box::new(Datatype::Bytes(10)),
            };
            f.set_view(0, &ft);
            f.write_at_all(0, &IoBuffer::from_slice(&[comm.rank() as u8 + 1; 10]));
            comm.barrier();
            if comm.rank() == 0 {
                let (raw, _) = f.handle().read_at(0, 300, ep.now());
                let raw = raw.as_slice().unwrap();
                assert_eq!(&raw[50..60], &[1; 10]);
                assert_eq!(&raw[150..160], &[2; 10]);
                // Sentinels around the writes survive.
                assert_eq!(&raw[40..50], &[0xEE; 10]);
                assert_eq!(&raw[60..70], &[0xEE; 10]);
                assert_eq!(&raw[160..170], &[0xEE; 10]);
            }
            f.close();
        });
    }

    /// A collective call where only some ranks contribute data.
    #[test]
    fn partial_participation() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::ideal(4), move |ep| {
            let comm = Communicator::world(&ep);
            let mut f = File::open(&comm, &fs2, "/partial", &Info::new());
            let buf = if comm.rank() < 2 {
                IoBuffer::from_vec(fill(comm.rank(), 256))
            } else {
                IoBuffer::empty()
            };
            f.write_at_all((comm.rank() * 256) as u64, &buf);
            comm.barrier();
            if comm.rank() == 3 {
                let (raw, _) = f.handle().read_at(0, 512, ep.now());
                let raw = raw.as_slice().unwrap();
                assert_eq!(&raw[0..256], fill(0, 256).as_slice());
                assert_eq!(&raw[256..512], fill(1, 256).as_slice());
            }
            f.close();
        });
    }

    /// All ranks pass empty buffers: the collective must return without
    /// touching storage.
    #[test]
    fn all_empty_collective_is_a_noop() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::ideal(3), move |ep| {
            let comm = Communicator::world(&ep);
            let mut f = File::open(&comm, &fs2, "/none", &Info::new());
            f.write_at_all(0, &IoBuffer::empty());
            let got = f.read_at_all(0, 0);
            assert!(got.is_empty());
            assert_eq!(f.handle().size(), 0);
            f.close();
        });
    }

    /// Collective read of data written independently. The inputs vary
    /// which blocks hold real bytes and whether a rank sits the call out:
    /// the returned buffer's kind follows the payloads that land in it.
    #[test]
    fn collective_read_after_independent_write() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::ideal(4), move |ep| {
            let comm = Communicator::world(&ep);
            let n = 512usize;
            // One aggregator, one block per round: payloads reach every
            // rank in ascending block order.
            let info = Info::new().with("cb_nodes", 1).with("cb_buffer_size", n);
            // (first synthetic block, rank that reads nothing)
            let cases = [(4, None), (2, None), (0, None), (4, Some(3))];
            for (case, (synthetic_from, idle)) in cases.into_iter().enumerate() {
                let mut f = File::open(&comm, &fs2, &format!("/cr{case}"), &info);
                let block = if comm.rank() < synthetic_from {
                    IoBuffer::from_vec(fill(comm.rank(), n))
                } else {
                    IoBuffer::synthetic(n)
                };
                f.write_at((comm.rank() * n) as u64, &block);
                comm.barrier();
                // Everyone collectively reads the rank-reversed block and
                // the one two further on, in file order.
                let peer = comm.size() - 1 - comm.rank();
                let (lo, hi) = (peer.min(peer ^ 2), peer.max(peer ^ 2));
                let ft = Datatype::HIndexed {
                    blocks: vec![((lo * n) as u64, 1), ((hi * n) as u64, 1)],
                    inner: Box::new(Datatype::Bytes(n as u64)),
                };
                f.set_view(0, &ft);
                if idle == Some(comm.rank()) {
                    // Zero-byte plan inside a live collective.
                    assert_eq!(f.read_at_all(0, 0), IoBuffer::empty());
                } else {
                    let got = f.read_at_all(0, 2 * n as u64);
                    if hi < synthetic_from {
                        // All real: byte-exact.
                        let want = [fill(lo, n), fill(hi, n)].concat();
                        assert_eq!(got.as_slice().unwrap(), want.as_slice());
                    } else {
                        // Real then synthetic (or all synthetic):
                        // synthetic of the full length.
                        assert_eq!(got, IoBuffer::synthetic(2 * n));
                    }
                }
                f.close();
            }
        });
    }

    /// A synthetic collective read whose modelled size could never be
    /// zero-filled: 4 ranks × 16 GiB through 1 GiB staging rounds. Host
    /// memory follows real bytes — none.
    #[test]
    fn synthetic_collective_read_allocates_nothing() {
        const N: usize = 16 << 30;
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        let out = run_cluster(ClusterConfig::ideal(4), move |ep| {
            let comm = Communicator::world(&ep);
            let info = Info::new().with("cb_buffer_size", 1usize << 30);
            let mut f = File::open_with_layout(&comm, &fs2, "/huge", &info, 4, 1 << 30);
            f.write_at_all((comm.rank() * N) as u64, &IoBuffer::synthetic(N));
            let got = f.read_at_all((comm.rank() * N) as u64, N as u64);
            assert!(f.profile().rounds >= 16, "staged through many rounds");
            f.close();
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

    /// Profile accounting: a collective write attributes time to sync,
    /// p2p and io, and close reports it.
    #[test]
    fn profile_phases_are_populated() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        let profs = run_cluster(ClusterConfig::cray_xt(8, simnet::Mapping::Block), move |ep| {
            let comm = Communicator::world(&ep);
            let mut f = File::open(&comm, &fs2, "/prof", &Info::new());
            let n = 4096usize;
            f.write_at_all((comm.rank() * n) as u64, &IoBuffer::synthetic(n));
            let _ = ep; // clocks advanced inside
            f.close()
        });
        let total: PhaseProfile = {
            let mut acc = PhaseProfile::new();
            for p in &profs {
                acc.merge(p);
            }
            acc
        };
        assert!(total.sync > simnet::SimTime::ZERO, "sync time recorded");
        assert!(total.io > simnet::SimTime::ZERO, "io time recorded");
        assert_eq!(profs[0].calls, 1);
        assert!(profs[0].rounds >= 1);
    }

    /// Synthetic buffers flow end to end through the collective path.
    #[test]
    fn synthetic_collective_write_marks_file() {
        let fs = FileSystem::new(FsConfig::tiny());
        let fs2 = fs.clone();
        run_cluster(ClusterConfig::ideal(4), move |ep| {
            let comm = Communicator::world(&ep);
            let mut f = File::open(&comm, &fs2, "/synth", &Info::new());
            let n = 100_000usize;
            f.write_at_all((comm.rank() * n) as u64, &IoBuffer::synthetic(n));
            comm.barrier();
            assert_eq!(f.handle().size(), 4 * n as u64);
            let (data, _) = f.handle().read_at(0, 64, ep.now());
            assert!(!data.is_real(), "synthetic data stays synthetic");
            f.close();
        });
    }
}
