//! Byte encoding helpers for protocol metadata.
//!
//! The MPI-IO protocols exchange small metadata payloads — offset lists,
//! length lists, (start, end) ranges — over point-to-point messages. As in
//! a real MPI program, those travel as bytes; this module provides the
//! little-endian encode/decode pairs used throughout, so message layouts
//! live in one place.

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

/// Encode `(u64, u64)` pairs (e.g. offset/length runs).
pub fn encode_pairs(pairs: &[(u64, u64)]) -> IoBuffer {
    let mut out = Vec::with_capacity(pairs.len() * 16);
    for (a, b) in pairs {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
    IoBuffer::from_vec(out)
}

/// Decode a buffer produced by [`encode_pairs`].
pub fn decode_pairs(buf: &IoBuffer) -> Vec<(u64, u64)> {
    let vals = decode_u64s(buf);
    assert!(vals.len().is_multiple_of(2), "pair payload has odd element count");
    vals.chunks_exact(2).map(|c| (c[0], c[1])).collect()
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
    fn pairs_round_trip() {
        let pairs = vec![(0u64, 7u64), (1 << 33, 4096), (u64::MAX, 0)];
        assert_eq!(decode_pairs(&encode_pairs(&pairs)), pairs);
    }

    #[test]
    fn empty_slices_round_trip() {
        assert!(decode_u64s(&encode_u64s(&[])).is_empty());
        assert!(decode_pairs(&encode_pairs(&[])).is_empty());
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
