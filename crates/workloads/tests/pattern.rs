//! The block generators against the per-byte definition of the pattern.

use proptest::prelude::*;
use workloads::{pattern_buffer, pattern_byte, pattern_mismatch};

/// Bytes `start..start + n` of `rank`'s `call`-th transfer, one
/// `pattern_byte` at a time: the reference both generators must equal.
fn reference(rank: usize, call: usize, start: u64, n: usize) -> Vec<u8> {
    (start..start + n as u64).map(|i| pattern_byte(rank, call, i)).collect()
}

fn lengths() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..=64, 4090usize..=4100, 8190usize..=8200, 0usize..=20_000]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `pattern_buffer` is the definition, byte for byte: inside a
    /// block, across block boundaries, and in the last (partial) one.
    #[test]
    fn buffer_equals_the_definition(
        rank in 0usize..512,
        call in 0usize..40,
        len in lengths(),
    ) {
        prop_assert_eq!(pattern_buffer(rank, call, len as u64).into_bytes(), reference(rank, call, 0, len));
    }

    /// The check finds nothing in the definition's bytes, from any
    /// starting index, and a single flipped byte exactly where it is.
    #[test]
    fn check_finds_the_first_difference_from_the_definition(
        rank in 0usize..512,
        call in 0usize..40,
        start in prop_oneof![Just(0u64), 0u64..100_000, any::<u64>()],
        len in lengths(),
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let start = start.min(u64::MAX - len as u64);
        let mut got = reference(rank, call, start, len);
        prop_assert_eq!(pattern_mismatch(rank, call, start, &got), None);
        if len > 0 {
            let at = (at % len as u64) as usize;
            got[at] ^= mask;
            prop_assert_eq!(pattern_mismatch(rank, call, start, &got), Some(at));
            got[at] ^= mask;
            // Another rank's (or call's) bytes are not mine.
            prop_assert!(len < 8 || pattern_mismatch(rank + 1, call, start, &got).is_some());
        }
    }
}

#[test]
fn every_position_of_a_two_and_a_bit_block_buffer_is_checked() {
    let len = 2 * 4096 + 17;
    let mut got = reference(3, 1, 0, len);
    for at in (0..len).step_by(7).chain([4095, 4096, 8191, 8192, len - 1]) {
        got[at] ^= 0x40;
        assert_eq!(pattern_mismatch(3, 1, 0, &got), Some(at));
        got[at] ^= 0x40;
    }
    assert_eq!(pattern_mismatch(3, 1, 0, &got), None);
}

/// The sequence behind rank `rank`'s first transfer, restated: element
/// `i` is `rank·R + i·STEP` mod 2⁶⁴, and `pattern_byte` is its bits
/// 32..39. The tie test below needs its low 32 bits, which no byte
/// shows; `the_restated_sequence_is_the_pattern` holds it to the bytes.
const R: u64 = 0x9E3779B97F4A7C15;
const STEP: u64 = 0x94D049BB133111EB;
const BLOCK: usize = 4096;

fn sequence(rank: usize, i: u64) -> u64 {
    (rank as u64)
        .wrapping_mul(R)
        .wrapping_add(i.wrapping_mul(STEP))
}

/// The inverse of an odd `k` mod 2³² (Newton's iteration), so that an
/// index can be solved for any low half.
fn inverse(k: u32) -> u32 {
    let mut inv = k;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u32.wrapping_sub(k.wrapping_mul(inv)));
    }
    assert_eq!(inv.wrapping_mul(k), 1);
    inv
}

#[test]
fn the_restated_sequence_is_the_pattern() {
    for rank in [0, 1, 5, 511, 0x8000_0001, u32::MAX as usize] {
        for i in (0..3 * BLOCK as u64).chain(u64::MAX - 4096..=u64::MAX) {
            assert_eq!(
                (sequence(rank, i) >> 32) as u8,
                pattern_byte(rank, 0, i),
                "rank {rank}, i {i}"
            );
        }
    }
}

/// Blocks whose carries the top bytes cannot decide: the generators
/// compare the top byte of the low half of `j·STEP` with that of `!l`
/// (`l` the low half of the block's first element) and settle a tie
/// with the full 32-bit compare. For the first, second and last entry
/// of a block: `!l` equal to that low half (no carry) and one below it
/// (a carry), in a whole block and in a partial block that ends just
/// before the entry — both generators against `pattern_byte`.
#[test]
fn blocks_whose_carry_ties_on_the_top_byte_match_the_definition() {
    let (k, k_inv, r_inv) = (STEP as u32, inverse(STEP as u32), inverse(R as u32));
    for j in [0u32, 1, BLOCK as u32 - 1] {
        let lo = j.wrapping_mul(k);
        for l in [!lo, !lo.wrapping_sub(1)] {
            // Rank 0's element `start` and rank `rank`'s element 0 both
            // have low half `l`.
            let start = u64::from(l.wrapping_mul(k_inv));
            let rank = l.wrapping_mul(r_inv) as usize;
            assert_eq!(
                (sequence(0, start) as u32, sequence(rank, 0) as u32),
                (l, l)
            );
            for n in [BLOCK, j as usize] {
                let what = format!("entry {j}, low half {l:#x}, {n} bytes");
                let buffer = pattern_buffer(rank, 0, n as u64).into_bytes();
                assert_eq!(buffer, reference(rank, 0, 0, n), "{what}");
                assert_eq!(
                    pattern_mismatch(0, 0, start, &reference(0, 0, start, n)),
                    None,
                    "{what}"
                );
            }
        }
    }
}
