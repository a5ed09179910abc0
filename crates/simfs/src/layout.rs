//! File striping across object storage targets.

/// A file's striping layout, Lustre-style: the file's byte stream is
/// round-robined over `stripe_count` OSTs in `stripe_size` units, starting
/// at OST `first_ost` within the file system's OST pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeLayout {
    /// Index of the first OST in the stripe set (files are rotated over
    /// the pool so a full machine's files spread load).
    pub first_ost: usize,
    /// Number of OSTs the file is striped over.
    pub stripe_count: usize,
    /// Stripe unit in bytes.
    pub stripe_size: u64,
    /// Total OSTs in the pool (for mapping stripe index → pool index).
    pub pool_size: usize,
}

/// One per-OST piece of a striped request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// OST (pool index) serving this chunk.
    pub ost: usize,
    /// File offset of the chunk start.
    pub file_offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

impl StripeLayout {
    /// Construct and validate a layout.
    pub fn new(first_ost: usize, stripe_count: usize, stripe_size: u64, pool_size: usize) -> Self {
        assert!(pool_size > 0, "empty OST pool");
        assert!(
            (1..=pool_size).contains(&stripe_count),
            "stripe count {stripe_count} must be in 1..={pool_size}"
        );
        assert!(stripe_size > 0, "stripe size must be positive");
        assert!(first_ost < pool_size, "first OST out of pool");
        StripeLayout {
            first_ost,
            stripe_count,
            stripe_size,
            pool_size,
        }
    }

    /// The OST serving the byte at `offset`.
    pub fn ost_of(&self, offset: u64) -> usize {
        let stripe_index = (offset / self.stripe_size) as usize % self.stripe_count;
        (self.first_ost + stripe_index) % self.pool_size
    }

    /// Decompose `[offset, offset+len)` into per-stripe chunks, in file
    /// order. Adjacent stripes on the same OST (stripe_count == 1) are
    /// still reported per stripe unit: each unit is a separate server
    /// request, which is what the cost model charges.
    pub fn chunks(&self, offset: u64, len: u64) -> Vec<Chunk> {
        let mut out = Vec::new();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let stripe_end = (pos / self.stripe_size + 1) * self.stripe_size;
            let chunk_end = stripe_end.min(end);
            out.push(Chunk {
                ost: self.ost_of(pos),
                file_offset: pos,
                len: chunk_end - pos,
            });
            pos = chunk_end;
        }
        out
    }

    /// Sum of chunk lengths per OST for `[offset, offset+len)` — the load
    /// vector the contention model consumes — as (ost, bytes, requests)
    /// triples for the OSTs with non-zero load, in ascending OST order
    /// (the order the caller serves them in, and so part of the
    /// admission sequence).
    ///
    /// Computed in closed form, one triple per touched OST and no heap
    /// allocation: the request covers `units` consecutive stripe units,
    /// stripe position `j` holds every `stripe_count`-th of them, and
    /// only the first and the last unit can be partial.
    pub fn ost_load(&self, offset: u64, len: u64) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        let (ss, sc) = (self.stripe_size, self.stripe_count as u64);
        let end = offset + len;
        let first_unit = offset / ss;
        let units = match len {
            0 => 0,
            _ => (end - 1) / ss - first_unit + 1,
        };
        let j0 = first_unit % sc;
        // Stripe positions touched: all of them once the request wraps,
        // else the cyclic run of `units` positions from `j0` — as one
        // range, or two where it passes the last position.
        let (low, high) = if units >= sc {
            (0..0, 0..sc)
        } else {
            (0..(j0 + units).saturating_sub(sc), j0..(j0 + units).min(sc))
        };
        // Positions from `wrap` on fall off the end of the pool and land
        // on its lowest-numbered OSTs, so they come first.
        let wrap = ((self.pool_size - self.first_ost) as u64).min(sc);
        let clip = |r: &std::ops::Range<u64>, lo: u64, hi: u64| r.start.max(lo)..r.end.min(hi);
        let ascending = [
            clip(&low, wrap, sc),
            clip(&high, wrap, sc),
            clip(&low, 0, wrap),
            clip(&high, 0, wrap),
        ];
        ascending.into_iter().flatten().map(move |j| {
            let after_first = (j + sc - j0) % sc; // units between the first one and j's first
            let requests = (units - after_first - 1) / sc + 1;
            let mut bytes = requests * ss;
            if after_first == 0 {
                bytes -= offset - first_unit * ss;
            }
            if after_first == (units - 1) % sc {
                bytes -= (first_unit + units) * ss - end;
            }
            let ost = (self.first_ost + j as usize) % self.pool_size;
            (ost, bytes, requests)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> StripeLayout {
        // 4 OSTs in an 8-OST pool, 1KB stripes, starting at OST 2.
        StripeLayout::new(2, 4, 1024, 8)
    }

    #[test]
    fn ost_rotation_is_round_robin() {
        let l = layout();
        assert_eq!(l.ost_of(0), 2);
        assert_eq!(l.ost_of(1023), 2);
        assert_eq!(l.ost_of(1024), 3);
        assert_eq!(l.ost_of(2048), 4);
        assert_eq!(l.ost_of(3072), 5);
        assert_eq!(l.ost_of(4096), 2); // wraps after stripe_count
    }

    #[test]
    fn chunks_split_on_stripe_boundaries() {
        let l = layout();
        let cs = l.chunks(512, 2048);
        assert_eq!(
            cs,
            vec![
                Chunk { ost: 2, file_offset: 512, len: 512 },
                Chunk { ost: 3, file_offset: 1024, len: 1024 },
                Chunk { ost: 4, file_offset: 2048, len: 512 },
            ]
        );
    }

    #[test]
    fn chunks_cover_exactly_the_request() {
        let l = layout();
        for (off, len) in [(0u64, 1u64), (1000, 5000), (1024, 1024), (4095, 2)] {
            let cs = l.chunks(off, len);
            assert_eq!(cs.iter().map(|c| c.len).sum::<u64>(), len);
            assert_eq!(cs[0].file_offset, off);
            for w in cs.windows(2) {
                assert_eq!(w[0].file_offset + w[0].len, w[1].file_offset);
            }
        }
    }

    #[test]
    fn empty_request_has_no_chunks() {
        assert!(layout().chunks(100, 0).is_empty());
    }

    /// The per-chunk accumulation the closed form replaced.
    fn ost_load_by_chunks(l: &StripeLayout, offset: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let mut per: std::collections::BTreeMap<usize, (u64, u64)> = Default::default();
        for c in l.chunks(offset, len) {
            let e = per.entry(c.ost).or_insert((0, 0));
            e.0 += c.len;
            e.1 += 1;
        }
        per.into_iter().map(|(o, (b, r))| (o, b, r)).collect()
    }

    #[test]
    fn ost_load_aggregates_per_target() {
        let l = layout();
        // 8KB from 0 covers each of the 4 OSTs twice (stripe wrap).
        let load: Vec<_> = l.ost_load(0, 8192).collect();
        let each = |ost| (ost, 2048, 2);
        assert_eq!(load, [each(2), each(3), each(4), each(5)]);
        assert_eq!(load, ost_load_by_chunks(&l, 0, 8192));
        assert_eq!(l.ost_load(100, 0).count(), 0);
    }

    #[test]
    fn ost_load_wraps_many_times_and_around_the_pool() {
        // Stripe set 6, 7, 0, 1, 2 of an 8-OST pool: positions 2.. fall
        // off the end of the pool, so they are served first.
        let l = StripeLayout::new(6, 5, 1000, 8);
        // Units 3..=26, ragged at both ends: every OST four or five
        // times.
        let load: Vec<_> = l.ost_load(3_400, 23_500).collect();
        assert_eq!(
            load,
            [
                (0, 4000, 4),
                (1, 4600, 5), // holds the first unit, 400 bytes short
                (2, 5000, 5),
                (6, 5000, 5),
                (7, 4900, 5), // holds the last unit, 100 bytes short
            ]
        );
        assert_eq!(load.iter().map(|t| t.1).sum::<u64>(), 23_500);
        // Against the per-chunk accumulation over a sweep of shapes: no
        // wrap, exactly one cycle, many cycles, single-byte and
        // sub-stripe requests, every starting position.
        for (first, count, pool) in [(6, 5, 8), (0, 8, 8), (3, 1, 4), (2, 4, 8), (7, 8, 8)] {
            let l = StripeLayout::new(first, count, 1000, pool);
            for off in (0..9_000).step_by(250) {
                for len in [1, 999, 1000, 1001, 2500, 4000, 7999, 8000, 8001, 40_123] {
                    assert_eq!(
                        l.ost_load(off, len).collect::<Vec<_>>(),
                        ost_load_by_chunks(&l, off, len),
                        "layout ({first}, {count}, {pool}) request ({off}, {len})"
                    );
                }
            }
        }
    }

    #[test]
    fn single_stripe_file_uses_one_ost() {
        let l = StripeLayout::new(0, 1, 4096, 4);
        for off in [0u64, 4096, 123456] {
            assert_eq!(l.ost_of(off), 0);
        }
        assert_eq!(l.chunks(0, 10000).iter().map(|c| c.len).sum::<u64>(), 10000);
    }

    #[test]
    #[should_panic(expected = "stripe count")]
    fn oversized_stripe_count_rejected() {
        StripeLayout::new(0, 9, 1024, 8);
    }
}
