//! # workloads — the paper's benchmark I/O kernels
//!
//! Generators for the four workloads of the evaluation (paper §5), each
//! expressed as per-rank MPI-IO file views plus a sequence of collective
//! calls:
//!
//! * [`ior`] — IOR: every process collectively writes a contiguous
//!   block (512 MB in 4 MB transfer units in the paper) into a shared
//!   file. Pattern (a): serial, non-intersecting ranges.
//! * [`tileio`] — MPI-Tile-IO: each process renders one 1024×768 tile of
//!   64-byte elements in a 2-D dense dataset; non-contiguous, one
//!   collective call. Pattern (b): tile ranges interleave between
//!   horizontal neighbours.
//! * [`btio`] — NAS BT-IO (full mode): diagonal multi-partitioning of a
//!   cubic grid over `q² = P` processes, 5 doubles per cell, appended
//!   every few timesteps. Pattern (c): every rank's cells spread across
//!   the whole file, exercising ParColl's intermediate file views.
//! * [`flashio`] — Flash-IO: the I/O kernel of the FLASH astrophysics
//!   code; 80 blocks of 32³ cells per process, 24 double-precision
//!   variables written one dataset at a time (HDF5-style), yielding few,
//!   large, serial segments per call.
//! * [`restart`] — checkpoint-restart: write the full tile image, reopen
//!   and read a hole-dense subset back through a partitioned
//!   `read_at_all` — the read-path (data sieving / list-I/O) stress.
//!
//! [`runner`] executes any workload against the baseline two-phase path,
//! the ParColl path, or independent I/O, over real (verifiable) or
//! synthetic (paper-scale) data, and reports bandwidth plus the phase
//! profile — the measurement harness behind every figure reproduction in
//! the `bench` crate.

#![warn(missing_docs)]

pub mod btio;
pub mod flashio;
pub mod ior;
pub mod restart;
pub mod runner;
pub mod tileio;

use mpiio::Datatype;

/// A parallel I/O workload: per-rank views and a sequence of collective
/// transfers.
pub trait Workload: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Number of MPI processes the workload is defined for.
    fn nprocs(&self) -> usize;

    /// File path the workload targets.
    fn path(&self) -> String {
        format!("/{}", self.name())
    }

    /// The file view of `rank`: displacement and filetype.
    fn view(&self, rank: usize) -> (u64, Datatype);

    /// Number of collective calls each rank issues.
    fn ncalls(&self) -> usize;

    /// The `call`-th transfer of `rank`: (view-space offset, bytes).
    fn call(&self, rank: usize, call: usize) -> (u64, u64);

    /// How the transfer decomposes when issued *without* collective
    /// buffering: high-level libraries write their native units (HDF5
    /// writes per block), not one giant stream. Defaults to the whole
    /// transfer in one piece.
    fn independent_pieces(&self, rank: usize, call: usize) -> Vec<(u64, u64)> {
        vec![self.call(rank, call)]
    }

    /// Total bytes moved by all ranks across all calls.
    fn total_bytes(&self) -> u64 {
        (0..self.nprocs())
            .map(|r| {
                (0..self.ncalls())
                    .map(|c| self.call(r, c).1)
                    .sum::<u64>()
            })
            .sum()
    }
}

/// Deterministic content for verification runs: byte `i` of rank `r`'s
/// `call`-th transfer.
pub fn pattern_byte(rank: usize, call: usize, i: u64) -> u8 {
    let x = (rank as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((call as u64).wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(i.wrapping_mul(0x94D049BB133111EB));
    (x >> 32) as u8
}

/// Materialize a verification buffer for one transfer.
pub fn pattern_buffer(rank: usize, call: usize, bytes: u64) -> Vec<u8> {
    (0..bytes).map(|i| pattern_byte(rank, call, i)).collect()
}

/// Where `got` first differs from `rank`'s `call`-th transfer, if anywhere:
/// the byte-for-byte read-back check, expected bytes a block at a time.
pub fn pattern_mismatch(rank: usize, call: usize, got: &[u8]) -> Option<usize> {
    const BLOCK: usize = 4096;
    let mut block = [0u8; BLOCK];
    for (b, chunk) in got.chunks(BLOCK).enumerate() {
        // The same loop shape as `pattern_buffer`'s: it vectorizes.
        let expect = &mut block[..chunk.len()];
        for (e, i) in expect.iter_mut().zip((b * BLOCK) as u64..) {
            *e = pattern_byte(rank, call, i);
        }
        if *expect != *chunk {
            let at = expect.iter().zip(chunk).position(|(e, g)| e != g);
            return Some(b * BLOCK + at.expect("the blocks differ"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_deterministic_and_varied() {
        assert_eq!(pattern_byte(3, 1, 100), pattern_byte(3, 1, 100));
        let a = pattern_buffer(0, 0, 256);
        let b = pattern_buffer(1, 0, 256);
        assert_ne!(a, b);
        // Not constant within a buffer.
        assert!(a.iter().any(|&x| x != a[0]));
    }
}
