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
