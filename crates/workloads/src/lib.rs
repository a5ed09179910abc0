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
use simnet::IoBuffer;

/// A parallel I/O workload: per-rank views and a sequence of collective
/// transfers.
pub trait Workload {
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

/// The per-byte step of the verification sequence.
const STEP: u64 = 0x94D049BB133111EB;

/// Element `i` of the 64-bit sequence behind rank `rank`'s `call`-th
/// transfer; its bits 32..39 are the byte.
fn sequence(rank: usize, call: usize, i: u64) -> u64 {
    (rank as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((call as u64).wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(i.wrapping_mul(STEP))
}

/// Deterministic content for verification runs: byte `i` of rank `r`'s
/// `call`-th transfer.
pub fn pattern_byte(rank: usize, call: usize, i: u64) -> u8 {
    (sequence(rank, call, i) >> 32) as u8
}

/// Bytes the generators produce from one sequence element.
const BLOCK: usize = 4096;

/// Bits `shift..shift + 8` of `j·STEP`, for `j` in one block.
const fn step_table(shift: u32) -> [u8; BLOCK] {
    let mut t = [0; BLOCK];
    let mut j = 0;
    while j < BLOCK {
        t[j] = ((j as u64).wrapping_mul(STEP) >> shift) as u8;
        j += 1;
    }
    t
}

/// Bits 24..31 of `j·STEP`: the top byte of its low half.
static TOP: [u8; BLOCK] = step_table(24);

/// Bits 32..39 of `j·STEP`.
static HI: [u8; BLOCK] = step_table(32);

/// The block's indices grouped by their `TOP` byte, ascending within a
/// group: the `j` with `TOP[j] == v` are `TIES.1[TIES.0[v]..TIES.0[v + 1]]`
/// (15 to 19 of them for every `v`).
static TIES: ([u16; 257], [u16; BLOCK]) = {
    let mut at = [0u16; 257];
    let mut j = 0;
    while j < BLOCK {
        at[TOP[j] as usize + 1] += 1;
        j += 1;
    }
    let mut v = 0;
    while v < 256 {
        at[v + 1] += at[v];
        v += 1;
    }
    let mut next = at;
    let mut list = [0u16; BLOCK];
    j = 0;
    while j < BLOCK {
        let v = TOP[j] as usize;
        list[next[v] as usize] = j as u16;
        next[v] += 1;
        j += 1;
    }
    (at, list)
};

/// The `n ≤ BLOCK` pattern bytes from sequence element `x` on, but for
/// the ties [`settle_ties`] corrects. Byte `j` is bits 32..39 of
/// `x + j·STEP`: the high byte `h` of `x` plus `HI[j]`, plus the carry out
/// of the low 32-bit halves, which is `LO[j] > t` for `t = !(x as u32)`
/// and `LO[j]` the low half of `j·STEP`. Top bytes decide that compare
/// unless they tie, so `TOP[j] > t >> 24` is the carry everywhere else:
/// one u8 compare and two u8 adds a byte, which the compiler vectorises
/// sixteen lanes wide.
fn top_byte_block(x: u64, n: usize) -> impl Iterator<Item = u8> {
    let (h, t8) = ((x >> 32) as u8, (!(x as u32) >> 24) as u8);
    TOP[..n]
        .iter()
        .zip(&HI[..n])
        .map(move |(&top, &hi)| h.wrapping_add(hi).wrapping_add((top > t8) as u8))
}

/// Give the bytes of `block`, generated by [`top_byte_block`] from
/// sequence element `x`, the carries their top bytes tied on: where
/// `TOP[j]` equals the top byte of `t = !(x as u32)`, the carry is the
/// full 32-bit compare `LO[j] > t`, and `LO[j]` one multiply.
fn settle_ties(x: u64, block: &mut [u8]) {
    let t = !(x as u32);
    let (at, list) = &TIES;
    let v = (t >> 24) as usize;
    for &j in &list[at[v] as usize..at[v + 1] as usize] {
        let j = usize::from(j);
        if j >= block.len() {
            break;
        }
        if (j as u32).wrapping_mul(STEP as u32) > t {
            block[j] = block[j].wrapping_add(1);
        }
    }
}

/// Materialize a verification buffer for one transfer, into a store of
/// the `IoBuffer` scratch pool: a run reuses what the last run's file
/// image let go of.
pub fn pattern_buffer(rank: usize, call: usize, bytes: u64) -> IoBuffer {
    let _hp = simtrace::host::scope(simtrace::host::Site::Pattern);
    IoBuffer::generate(bytes as usize, |out| {
        for start in (0..bytes).step_by(BLOCK) {
            let n = (bytes - start).min(BLOCK as u64) as usize;
            let x = sequence(rank, call, start);
            let at = out.len();
            out.extend(top_byte_block(x, n));
            settle_ties(x, &mut out[at..]);
        }
    })
}

/// Where `got` first differs from bytes `start..` of `rank`'s `call`-th
/// transfer, if anywhere (an index into `got`): the byte-for-byte
/// read-back check, expected bytes a block at a time. The block is on
/// the heap, one per call: this runs on a rank's fiber stack, which a
/// 4 KiB array would take a page of.
pub fn pattern_mismatch(rank: usize, call: usize, start: u64, got: &[u8]) -> Option<usize> {
    let _hp = simtrace::host::scope(simtrace::host::Site::Pattern);
    let mut expect = Vec::with_capacity(got.len().min(BLOCK));
    for (b, chunk) in got.chunks(BLOCK).enumerate() {
        let from = sequence(rank, call, start + (b * BLOCK) as u64);
        expect.clear();
        expect.extend(top_byte_block(from, chunk.len()));
        settle_ties(from, &mut expect);
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

    /// The `n` bytes of a block from sequence element `x` as both
    /// generators make them: top bytes, then the ties.
    fn pattern_block(x: u64, n: usize) -> impl Iterator<Item = u8> {
        let mut block: Vec<u8> = top_byte_block(x, n).collect();
        settle_ties(x, &mut block);
        block.into_iter()
    }

    #[test]
    fn pattern_is_deterministic_and_varied() {
        assert_eq!(pattern_byte(3, 1, 100), pattern_byte(3, 1, 100));
        let a = pattern_buffer(0, 0, 256).into_bytes();
        let b = pattern_buffer(1, 0, 256).into_bytes();
        assert_ne!(a, b);
        // Not constant within a buffer.
        assert!(a.iter().any(|&x| x != a[0]));
    }

    /// Blocks whose low 32 bits sit at the carry edges — the smallest
    /// low half whose first step carries, the largest whose first step
    /// does not, no carry anywhere, a carry at every step past the first
    /// — against the per-byte definition.
    #[test]
    fn blocks_at_the_carry_edge_match_the_definition() {
        let k = STEP as u32;
        // `k` is odd, so it has an inverse mod 2³²: a start index can be
        // solved for any low half.
        let mut inv = k;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(k.wrapping_mul(inv)));
        }
        let (rank, call) = (5, 3);
        let base = sequence(rank, call, 0) as u32;
        for l in [0u32.wrapping_sub(k), 0u32.wrapping_sub(k) - 1, 0, u32::MAX] {
            let start = u64::from(l.wrapping_sub(base).wrapping_mul(inv));
            assert_eq!(sequence(rank, call, start) as u32, l);
            let expect: Vec<u8> =
                (start..start + BLOCK as u64).map(|i| pattern_byte(rank, call, i)).collect();
            let got: Vec<u8> = pattern_block(sequence(rank, call, start), BLOCK).collect();
            assert_eq!(got, expect, "low half {l:#x}");
            assert_eq!(pattern_mismatch(rank, call, start, &expect), None, "low half {l:#x}");
        }
    }
}
