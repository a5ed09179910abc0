//! Byte encoding helpers for protocol metadata.
//!
//! ParColl's tuner policy broadcast travels as bytes, as in a real MPI
//! program; this module provides the little-endian `u64` encode/decode
//! pair it uses, so the layout lives in one place. Metadata with a typed
//! collective (`allgather_t`, `isend_t`) is shared by reference and
//! charged its serialized size instead.

use simnet::IoBuffer;

/// Encode a slice of `u64` as little-endian bytes.
pub fn encode_u64s(vals: &[u64]) -> IoBuffer {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    IoBuffer::from_vec(out)
}

/// Decode a buffer produced by [`encode_u64s`]. Panics on a synthetic or
/// misaligned buffer — metadata is always real, even in synthetic-data
/// performance runs.
pub fn decode_u64s(buf: &IoBuffer) -> Vec<u64> {
    let bytes = buf
        .as_slice()
        .expect("protocol metadata must be a real buffer");
    assert!(
        bytes.len().is_multiple_of(8),
        "u64 metadata payload has odd length {}",
        bytes.len()
    );
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip() {
        let vals = vec![0u64, 1, u64::MAX, 42, 1 << 40];
        assert_eq!(decode_u64s(&encode_u64s(&vals)), vals);
    }

    #[test]
    fn empty_slices_round_trip() {
        assert!(decode_u64s(&encode_u64s(&[])).is_empty());
    }

    #[test]
    #[should_panic(expected = "real buffer")]
    fn synthetic_metadata_rejected() {
        decode_u64s(&IoBuffer::synthetic(8));
    }

    #[test]
    #[should_panic(expected = "odd length")]
    fn misaligned_payload_rejected() {
        decode_u64s(&IoBuffer::from_slice(&[1, 2, 3]));
    }
}
