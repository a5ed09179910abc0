//! Checksums for end-to-end data integrity.
//!
//! Both the MPI-IO exchange layer (piece trailers) and the file-system
//! layer (at-rest page sums) tag data with the same cheap checksum, so a
//! byte corrupted anywhere between a sender's pack buffer and an OST's
//! platter is caught at the next verification point.
//!
//! The hash is **word-parallel**: the stream is cut into 32-byte blocks
//! (by absolute stream position), each block is four little-endian
//! `u64` words, and word `i` goes to lane `i` as
//! `lane = ((lane ^ word) × K).rotate_left(R)` with `K` odd. The digest
//! zero-pads a partial last block, then folds the four lane states and
//! the stream length through the same step. A verify-mode run hashes
//! every file byte seven times (DESIGN.md §14.6), so the hash has to run
//! at the speed memory is read: one multiply per *word* on four
//! independent dependency chains does, where one multiply per byte — an
//! FNV-1a, however many lanes it is dealt across — runs at an eighth of
//! it. The names [`fnv1a`] and [`Fnv1a`] date from such a function and
//! stay because callers outside this workspace use them; no FNV
//! arithmetic is left.
//!
//! **Guaranteed:** every step is a bijection of the lane state for a
//! fixed word and of the word for a fixed state, and so is the fold. A
//! corruption confined to one aligned 8-byte word — any single-bit or
//! single-byte flip in particular — therefore *always* changes the
//! digest, and the length fold separates a stream from its zero-padded
//! extensions. **Not guaranteed:** anything about corruptions spread
//! over several words beyond the 2⁻⁶⁴ odds of a well-mixed 64-bit
//! state, and nothing against an adversary — the threat is random bit
//! rot (Byzantine aggregators are an explicit non-goal, DESIGN.md §14).

/// Independent lanes; one `u64` word of every block goes to each.
const LANES: usize = 4;
/// Bytes absorbed per step of all lanes.
const BLOCK: usize = 8 * LANES;
/// Lane multiplier: odd, so multiplication is a bijection mod 2⁶⁴
/// (2⁶⁴/φ, bits spread over the whole word).
const K: u64 = 0x9e37_79b9_7f4a_7c15;
/// Lane rotation: carries a word's top bits, which a multiply can only
/// move further up and out, back down into the next step's multiply.
const R: u32 = 29;
/// Initial state of every lane and of the digest fold.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(K).rotate_left(R)
}

fn absorb(lanes: &mut [u64; LANES], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        *lane = step(*lane, word);
    }
}

/// Streaming hasher: feed byte slices, read the digest at any point.
/// Chunk boundaries never matter — blocks are cut by absolute stream
/// position and an unfinished block waits in a carry buffer, so a split
/// feed digests identically to one shot.
///
/// # Examples
///
/// ```
/// use simnet::cksum::{fnv1a, Fnv1a};
///
/// let mut h = Fnv1a::new();
/// h.update(b"par");
/// h.update(b"coll");
/// assert_eq!(h.digest(), fnv1a(b"parcoll"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    lanes: [u64; LANES],
    /// The unfinished block: its first `len % BLOCK` bytes are stream
    /// bytes, the rest are zero.
    carry: [u8; BLOCK],
    len: u64,
}

impl Fnv1a {
    /// Fresh hasher: every lane at the seed, nothing carried.
    pub fn new() -> Self {
        Fnv1a {
            lanes: [SEED; LANES],
            carry: [0; BLOCK],
            len: 0,
        }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let bytes = self.finish_carry(bytes);
        self.len += bytes.len() as u64;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            absorb(&mut self.lanes, block);
        }
        let tail = blocks.remainder();
        self.carry[..tail.len()].copy_from_slice(tail);
    }

    /// Absorb `x` into this hasher and `y` into `other`, exactly as two
    /// [`update`](Self::update)s would, taking the whole blocks of both
    /// in lockstep. Two independent streams keep twice the loads and
    /// multiplies in flight: on bytes outside the L2 cache that nearly
    /// doubles the rate of one stream, which the dependency chain of its
    /// lanes holds back.
    pub fn update_pair(&mut self, x: &[u8], other: &mut Fnv1a, y: &[u8]) {
        let (x, y) = (self.finish_carry(x), other.finish_carry(y));
        let n = x.len().min(y.len()) / BLOCK * BLOCK;
        for (a, b) in x[..n].chunks_exact(BLOCK).zip(y[..n].chunks_exact(BLOCK)) {
            absorb(&mut self.lanes, a);
            absorb(&mut other.lanes, b);
        }
        (self.len, other.len) = (self.len + n as u64, other.len + n as u64);
        self.update(&x[n..]);
        other.update(&y[n..]);
    }

    /// Complete the block in flight, if any, from the front of `bytes`;
    /// the rest of them, which starts a block unless it is empty.
    fn finish_carry<'a>(&mut self, bytes: &'a [u8]) -> &'a [u8] {
        let carried = (self.len % BLOCK as u64) as usize;
        if carried == 0 {
            return bytes;
        }
        let take = bytes.len().min(BLOCK - carried);
        self.carry[carried..carried + take].copy_from_slice(&bytes[..take]);
        self.len += take as u64;
        if carried + take == BLOCK {
            absorb(&mut self.lanes, &self.carry);
            self.carry = [0; BLOCK];
        }
        &bytes[take..]
    }

    /// The digest over everything absorbed so far: the zero-padded
    /// partial block (if any), then the lane states and the stream
    /// length folded into one word.
    pub fn digest(&self) -> u64 {
        let mut lanes = self.lanes;
        if !self.len.is_multiple_of(BLOCK as u64) {
            absorb(&mut lanes, &self.carry);
        }
        step(lanes.into_iter().fold(SEED, step), self.len)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// One-shot digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.digest()
}

/// The digest of every stream of `streams`, each given as its slices in
/// order — [`fnv1a`] of each concatenation — hashed two streams at a
/// time in lockstep ([`Fnv1a::update_pair`]).
pub fn digests(streams: &[Vec<&[u8]>]) -> Vec<u64> {
    let mut out = Vec::with_capacity(streams.len());
    for pair in streams.chunks(2) {
        let (mut ha, mut hb) = (Fnv1a::new(), Fnv1a::new());
        let mut xs = pair[0].iter().copied();
        let mut ys = pair.get(1).into_iter().flatten().copied();
        let (mut x, mut y): (&[u8], &[u8]) = (&[], &[]);
        loop {
            if x.is_empty() {
                let Some(next) = xs.next() else { break };
                x = next;
            }
            if y.is_empty() {
                let Some(next) = ys.next() else { break };
                y = next;
            }
            let k = x.len().min(y.len());
            ha.update_pair(&x[..k], &mut hb, &y[..k]);
            (x, y) = (&x[k..], &y[k..]);
        }
        std::iter::once(x).chain(xs).for_each(|x| ha.update(x));
        std::iter::once(y).chain(ys).for_each(|y| hb.update(y));
        out.push(ha.digest());
        if pair.len() == 2 {
            out.push(hb.digest());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded test bytes, so a failure names a reproducible position.
    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        (0..n as u64).map(|i| crate::fault::mix64(seed << 32 | i) as u8).collect()
    }

    #[test]
    fn pinned_digests() {
        // Wire-format stability: trailers and stored page sums embed
        // these values, so the function must never drift silently.
        // Re-pinned once, deliberately, by the PR that replaced the
        // byte-wise 8-lane FNV-1a variant with the word-parallel function
        // (ISSUE 21); no committed trace, row or file image holds a digest.
        assert_eq!(fnv1a(b""), 0x17ecb357603750ca);
        assert_eq!(fnv1a(b"a"), 0x3f5efe242dadfff5);
        assert_eq!(fnv1a(b"foobar"), 0xe41829ea9dfa1311);
        assert_eq!(fnv1a(&[0u8; 4096]), 0x674fc86f57ed43ee);
    }

    #[test]
    fn streaming_matches_one_shot_at_every_cut_and_chunk_size() {
        let data = bytes(1, 100);
        for cut in 0..=data.len() {
            let mut h = Fnv1a::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.digest(), fnv1a(&data), "cut at {cut}");
        }
        let data = bytes(2, 3 * 65_536 + 77);
        for chunk_len in [1, 3, 7, 8, 31, 32, 33, 65_536] {
            let mut h = Fnv1a::new();
            for chunk in data.chunks(chunk_len) {
                h.update(chunk);
            }
            assert_eq!(h.digest(), fnv1a(&data), "chunk size {chunk_len}");
        }
    }

    #[test]
    fn a_pair_of_streams_digests_as_each_alone() {
        let (x, y) = (bytes(8, 3 * 4096 + 45), bytes(9, 2 * 4096 + 3));
        for (cx, cy) in [
            (0, 0),
            (1, 0),
            (13, 77),
            (32, 31),
            (4096, 100),
            (x.len(), 5),
        ] {
            let (mut a, mut b) = (Fnv1a::new(), Fnv1a::new());
            a.update(&x[..cx]);
            b.update(&y[..cy]);
            a.update_pair(&x[cx..cx + (x.len() - cx) / 2], &mut b, &y[cy..cy + 40]);
            a.update_pair(&x[cx + (x.len() - cx) / 2..], &mut b, &y[cy + 40..]);
            assert_eq!(
                (a.digest(), b.digest()),
                (fnv1a(&x), fnv1a(&y)),
                "cut at {cx}, {cy}"
            );
        }
    }

    #[test]
    fn streams_in_pairs_digest_as_each_alone() {
        let data = bytes(10, 5000);
        let streams: Vec<Vec<&[u8]>> = vec![
            vec![&data[..100], &data[100..3000]],
            vec![&data[7..9], &data[9..10], &data[2000..4999]],
            vec![],
            vec![&data[..4096], &[], &data[4096..]],
            vec![&data[33..1000]],
        ];
        let each: Vec<u64> = streams.iter().map(|s| fnv1a(&s.concat())).collect();
        assert_eq!(digests(&streams), each);
    }

    #[test]
    fn digest_is_a_pure_observation() {
        // Reading the digest mid-stream (padding the partial block) must
        // not disturb what is absorbed afterwards.
        let data = bytes(3, 75);
        let mut h = Fnv1a::new();
        h.update(&data[..41]);
        assert_eq!(h.digest(), fnv1a(&data[..41]));
        h.update(&data[41..]);
        assert_eq!(h.digest(), fnv1a(&data));
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        // 257 bytes: eight whole blocks and a one-byte padded tail, all
        // 2 056 bits.
        let mut data = bytes(4, 257);
        let base = fnv1a(&data);
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv1a(&data), base, "flip of bit {bit} must be visible");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        // A storage page: its first and last bits and a seeded sample.
        let mut page = bytes(5, 65_536);
        let base = fnv1a(&page);
        let bits = page.len() * 8;
        let sample = bytes(6, 8 * 512);
        let sampled = sample
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()) as usize % bits);
        for bit in [0, bits - 1].into_iter().chain(sampled) {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv1a(&page), base, "flip of page bit {bit} must be visible");
            page[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn swapping_two_distinct_words_changes_the_digest() {
        let data = bytes(7, 256);
        let base = fnv1a(&data);
        let words = data.len() / 8;
        for a in 0..words {
            for b in a + 1..words {
                if data[a * 8..a * 8 + 8] == data[b * 8..b * 8 + 8] {
                    continue;
                }
                let mut swapped = data.clone();
                for i in 0..8 {
                    swapped.swap(a * 8 + i, b * 8 + i);
                }
                assert_ne!(fnv1a(&swapped), base, "words {a} and {b} swapped");
            }
        }
    }

    #[test]
    fn length_is_folded_in() {
        // Zero-padding changes the digest even though every lane absorbs
        // the same words either way.
        assert_eq!(fnv1a(b""), Fnv1a::new().digest());
        assert_ne!(fnv1a(b""), fnv1a(&[0u8; 1]));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abc\0"));
        assert_ne!(fnv1a(&[0u8; 8]), fnv1a(&[0u8; 16]));
        assert_ne!(fnv1a(&[0u8; 32]), fnv1a(&[0u8; 64]));
        assert_ne!(fnv1a(b""), fnv1a(&[0u8; 32]));
    }
}
