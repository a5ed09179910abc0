//! Checkpoint-restart: write a tiled image, reopen, read a hole-dense
//! subset back through a partitioned `read_at_all`.
//!
//! The restart pattern is the read-path stress the write suites never
//! exercise: the checkpoint writes whole [`TileIo`] tiles, but the
//! restarting application re-reads only the first `1/den` columns of
//! every tile (a downsampled or decomposed restart — common when the
//! restart runs at different scale or only needs a subset of fields).
//! Per dataset row the aggregators see one requested run per tile
//! followed by a `(den-1)/den` hole — exactly the regime where a read
//! aggregator must choose, hole by hole, between reading through it and
//! one more list-I/O extent.

use crate::runner::{hints, pass, profile_max, setup, DataMode, IoMode, Pass, RunConfig, Step};
use crate::tileio::TileIo;
use crate::{pattern_buffer, pattern_mismatch, Workload};
use mpiio::{Datatype, PhaseProfile};
use simmpi::Communicator;
use simnet::{run_cluster, IoBuffer};

/// Checkpoint-restart configuration: a full-tile checkpoint plus the
/// narrow restart view.
#[derive(Debug, Clone)]
pub struct Restart {
    /// The checkpoint image (written in full, one tile per rank).
    pub tile: TileIo,
    /// Restart narrowing denominator: the restart reads the first
    /// `tile_x / den` columns of each tile, leaving `(den-1)/den` of
    /// every covering extent as holes.
    pub den: usize,
}

impl Restart {
    /// Paper-scale restart: the full 1024×768×64B tile checkpoint, read
    /// back at quarter width (75 % holes).
    pub fn paper(nprocs: usize) -> Self {
        Self::with_den(TileIo::paper(nprocs), 4)
    }

    /// Miniature configuration for correctness tests.
    pub fn tiny(nprocs: usize) -> Self {
        Self::with_den(TileIo::tiny(nprocs), 4)
    }

    /// Wrap a tile geometry with an explicit narrowing denominator.
    pub fn with_den(tile: TileIo, den: usize) -> Self {
        assert!(den >= 1, "denominator must be positive");
        assert!(
            tile.tile_x.is_multiple_of(den),
            "tile_x {} must divide by den {den}",
            tile.tile_x
        );
        Restart { tile, den }
    }

    /// File path of the checkpoint.
    pub fn path(&self) -> String {
        "/restart".to_string()
    }

    /// The restart read view of `rank`: the same tile origin, `1/den` of
    /// the columns.
    pub fn read_view(&self, rank: usize) -> (u64, Datatype) {
        assert!(rank < self.tile.nprocs());
        let ty = rank / self.tile.ntx;
        let tx = rank % self.tile.ntx;
        let ft = Datatype::tile_2d(
            self.tile.height(),
            self.tile.width(),
            self.tile.tile_y,
            self.tile.tile_x / self.den,
            ty * self.tile.tile_y,
            tx * self.tile.tile_x,
            self.tile.elem,
        );
        (0, ft)
    }

    /// Bytes each rank reads on restart.
    pub fn read_bytes(&self) -> u64 {
        (self.tile.tile_x / self.den) as u64 * self.tile.tile_y as u64 * self.tile.elem
    }

    /// Where `rank`'s restart read `got` first differs from its
    /// checkpoint, if anywhere, as (tile row, byte in the row). The write
    /// view linearizes tile rows consecutively and the narrow view keeps
    /// the first `1/den` of each, so row `r` is checked against its own
    /// offset into the checkpoint transfer; nothing else is generated.
    pub(crate) fn mismatch(&self, rank: usize, got: &[u8]) -> Option<(usize, usize)> {
        let row = self.tile.tile_x as u64 * self.tile.elem;
        let narrow = (self.tile.tile_x / self.den) * self.tile.elem as usize;
        got.chunks(narrow).enumerate().find_map(|(r, bytes)| {
            pattern_mismatch(rank, 0, r as u64 * row, bytes).map(|at| (r, at))
        })
    }
}

/// Aggregated measurement of one checkpoint-restart run.
#[derive(Debug, Clone)]
pub struct RestartResult {
    /// Checkpoint elapsed virtual seconds (barrier to barrier).
    pub write_seconds: f64,
    /// Checkpoint aggregate bandwidth, decimal MB/s.
    pub write_mbps: f64,
    /// Restart read elapsed virtual seconds.
    pub read_seconds: f64,
    /// Restart aggregate bandwidth over the bytes actually requested.
    pub read_mbps: f64,
    /// Bytes the checkpoint wrote (all ranks).
    pub write_bytes: u64,
    /// Bytes the restart read (all ranks).
    pub read_bytes: u64,
    /// Per-phase times of the slowest rank, checkpoint + restart.
    pub profile_max: PhaseProfile,
    /// File-system statistics at the end of the run.
    pub fs_stats: simfs::FsStats,
}

/// Execute a checkpoint-restart cycle under `cfg`: open, write the full
/// image, close; reopen, set the narrow restart view, partitioned
/// `read_at_all`, verify (in [`DataMode::Verify`]), close.
///
/// `cfg.read_back` is ignored — the restart read *is* the measurement.
/// [`IoMode::Independent`] is not supported (the restart read is the
/// collective under test).
pub fn run_restart(w: Restart, cfg: RunConfig) -> RestartResult {
    assert!(
        !matches!(cfg.mode, IoMode::Independent),
        "restart measures the collective read path"
    );
    let nprocs = w.tile.nprocs();
    let write_bytes = w.tile.total_bytes();
    let read_bytes = w.read_bytes() * nprocs as u64;
    let (fs, cluster) = setup(&cfg, nprocs, simnet::NetworkModel::cray_xt_seastar());

    // One hint set for the run, borrowed by every rank. A restart
    // reopens the checkpoint under a *different* view, so the image must
    // stay physically addressed: the intermediate view's logical
    // re-addressing is only consistent with reads through the same view.
    // Forbid view switching — patterns whose cuts fail degenerate to one
    // group instead (and stay correct).
    let mut info = hints(&cfg);
    info.set("parcoll_force_iview", "false");
    let outs: Vec<Pass> = run_cluster(cluster, |ep| {
        let comm = Communicator::world(&ep);
        let rank = comm.rank();

        // Checkpoint: the full tile image.
        let buf = match cfg.data {
            DataMode::Synthetic => IoBuffer::synthetic(w.tile.tile_bytes() as usize),
            DataMode::Verify => pattern_buffer(rank, 0, w.tile.tile_bytes()),
        };
        let write: Step<'_> = &mut |f| f.write_at_all(0, &buf);
        let (path, (disp, filetype)) = (w.path(), w.tile.view(rank));
        let file = (&*path, (disp, &filetype));
        let checkpoint = pass(&comm, &fs, &info, file, Some(write), None);

        // Restart: reopen and read the narrow view collectively.
        let read: Step<'_> = &mut |f| {
            let got = f.read_at_all(0, w.read_bytes());
            if cfg.data == DataMode::Verify {
                let got = got.as_slice().expect("verify mode reads real data");
                assert_eq!(got.len() as u64, w.read_bytes(), "rank {rank}: short restart read");
                if let Some((row, at)) = w.mismatch(rank, got) {
                    panic!("rank {rank}: restart read mismatch in row {row} at byte {at}");
                }
            }
        };
        let (disp, filetype) = w.read_view(rank);
        let file = (&*path, (disp, &filetype));
        let restart = pass(&comm, &fs, &info, file, None, Some(read));
        let mut profile = checkpoint.profile;
        profile.merge(&restart.profile);
        Pass {
            read_s: restart.read_s,
            profile,
            ..checkpoint
        }
    });

    let write_seconds = outs[0].write_s;
    let read_seconds = outs[0].read_s.expect("the restart pass reads");
    RestartResult {
        write_seconds,
        write_mbps: write_bytes as f64 / write_seconds / 1e6,
        read_seconds,
        read_mbps: read_bytes as f64 / read_seconds / 1e6,
        write_bytes,
        read_bytes,
        profile_max: profile_max(outs.iter().map(|o| &o.profile)),
        fs_stats: fs.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_verifies_under_all_collective_modes() {
        for mode in [IoMode::Collective, IoMode::Parcoll { groups: 2 }] {
            let r = run_restart(Restart::tiny(4), RunConfig::verify(mode));
            assert!(r.write_mbps > 0.0, "{mode:?}");
            assert!(r.read_mbps > 0.0, "{mode:?}");
            assert_eq!(r.read_bytes * 4, r.write_bytes, "den=4 reads a quarter");
        }
    }

    #[test]
    fn expected_is_per_row_prefixes() {
        let w = Restart::tiny(4); // 8x4 tiles of 4B elems, den 4 -> 2 cols
        let full = pattern_buffer(1, 0, w.tile.tile_bytes()).into_bytes();
        // Row r's prefix: bytes 32r..32r+8 of the full tile buffer.
        let mut got: Vec<u8> = full.chunks(32).flat_map(|row| &row[..8]).copied().collect();
        assert_eq!(got.len(), w.read_bytes() as usize);
        assert_eq!(w.mismatch(1, &got), None);
        assert!(w.mismatch(2, &got).is_some(), "another rank's bytes are not mine");
        got[8 + 3] ^= 0x10;
        assert_eq!(w.mismatch(1, &got), Some((1, 3)));
    }
}
