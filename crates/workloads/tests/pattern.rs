//! The streaming read-back check against the materialized comparison it
//! replaced.

use proptest::prelude::*;
use workloads::{pattern_buffer, pattern_mismatch};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same verdict as `pattern_buffer` + compare, and a single flipped
    /// byte is found where it is — in the first block, the last (partial)
    /// one, or on a block boundary.
    #[test]
    fn streaming_check_agrees_with_the_materialized_one(
        rank in 0usize..512,
        call in 0usize..40,
        len in prop_oneof![0usize..64, 4090usize..4100, 8190usize..8200, 0usize..20_000],
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let mut got = pattern_buffer(rank, call, len as u64);
        prop_assert_eq!(pattern_mismatch(rank, call, &got), None);
        if len > 0 {
            let at = (at % len as u64) as usize;
            got[at] ^= mask;
            prop_assert_eq!(pattern_mismatch(rank, call, &got), Some(at));
            let expect = pattern_buffer(rank, call, len as u64);
            prop_assert_eq!(expect.iter().zip(&got).position(|(e, g)| e != g), Some(at));
            // Another rank's (or call's) bytes are not mine.
            prop_assert!(len < 8 || pattern_mismatch(rank + 1, call, &expect).is_some());
        }
    }
}

#[test]
fn every_position_of_a_two_and_a_bit_block_buffer_is_checked() {
    let len = 2 * 4096 + 17;
    let mut got = pattern_buffer(3, 1, len as u64);
    for at in (0..len).step_by(7).chain([4095, 4096, 8191, 8192, len - 1]) {
        got[at] ^= 0x40;
        assert_eq!(pattern_mismatch(3, 1, &got), Some(at));
        got[at] ^= 0x40;
    }
    assert_eq!(pattern_mismatch(3, 1, &got), None);
}
