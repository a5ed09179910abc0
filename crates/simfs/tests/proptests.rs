//! Property-based tests for the file system substrate.

use proptest::prelude::*;
use simfs::layout::StripeLayout;
use simfs::ost::Ost;
use simfs::rangeset::RangeSet;
use simfs::storage::Storage;
use simfs::{FileSystem, FsConfig};
use simnet::{IoBuffer, Jitter, SimTime};

proptest! {
    /// OST queueing invariants under arbitrary request sequences:
    /// completions are causal (>= arrival), the backlog clock never goes
    /// backwards, and total busy time equals the sum of services
    /// (work conservation), independent of arrival pattern.
    #[test]
    fn ost_queueing_invariants(reqs in proptest::collection::vec(
        (0u64..1000, 1u64..1_000_000, 1u64..4), 1..40)) {
        let ost = Ost::new(42);
        let mut arrival = SimTime::ZERO;
        let mut prev_free = SimTime::ZERO;
        for (gap_ms, bytes, chunks) in reqs {
            arrival += SimTime::millis(gap_ms as f64);
            let done = ost.serve(
                arrival, bytes, chunks,
                SimTime::micros(100.0), 1e9,
                Jitter::new(0.0), 0.001, 0.0, 1.0, None, SimTime::millis(5.0),
            );
            prop_assert!(done > arrival, "completion must follow arrival");
            let free = ost.next_free();
            prop_assert!(free >= prev_free, "backlog clock must be monotone");
            prop_assert!(free >= done - SimTime::millis(5.0) - SimTime::nanos(1.0));
            prev_free = free;
        }
        let st = ost.stats();
        // Busy time bounded below by pure service of all bytes.
        prop_assert!(st.busy.as_secs() >= st.bytes as f64 / 1e9 - 1e-9);
    }

    /// A list read returns what reading its extents one by one returns —
    /// over synthetic, real and unwritten bytes, in any order, empty
    /// extents included — and charges every OST exactly the bytes
    /// `ost_load` puts on it, as one request per OST it reaches.
    #[test]
    fn list_read_is_its_extents_read_one_by_one(
        extents in proptest::collection::vec((0u64..12_000, 0u64..3_000), 0..24),
        real_at in 0u64..10_000,
    ) {
        let fs = FileSystem::new(FsConfig::tiny());
        let (f, t) = fs.open("/l", SimTime::ZERO);
        let t = f.write_at(0, &IoBuffer::synthetic(8192), t);
        let real: Vec<u8> = (0..2000u32).map(|i| i as u8).collect();
        let t = f.write_at(real_at, &IoBuffer::from_vec(real), t);
        let mut want = vec![(0u64, 0u64); FsConfig::tiny().n_osts];
        for &(off, len) in &extents {
            for (ost, bytes, _) in f.layout().ost_load(off, len) {
                want[ost] = (want[ost].0 + bytes, 1);
            }
        }
        let before = fs.stats().osts;
        let (bufs, _) = f.read_list(&extents, t);
        for ((b, a), want) in before.iter().zip(&fs.stats().osts).zip(want) {
            prop_assert_eq!((a.bytes - b.bytes, a.requests - b.requests), want);
        }
        for (buf, &(off, len)) in bufs.iter().zip(&extents) {
            prop_assert_eq!(buf, &f.read_at(off, len as usize, t).0);
        }
    }
}

/// Reference implementation of a range set: a boolean vector.
fn apply_ops(ops: &[(bool, u64, u64)], universe: u64) -> (RangeSet, Vec<bool>) {
    let mut rs = RangeSet::new();
    let mut reference = vec![false; universe as usize];
    for &(insert, a, b) in ops {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (lo, hi) = (lo % universe, hi % universe);
        if insert {
            rs.insert(lo, hi);
            for x in lo..hi {
                reference[x as usize] = true;
            }
        } else {
            rs.remove(lo, hi);
            for x in lo..hi {
                reference[x as usize] = false;
            }
        }
    }
    (rs, reference)
}

/// The maximal runs of covered bytes in `model`, as `[start, end)`.
fn runs(model: &[bool]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (x, _) in model.iter().enumerate().filter(|(_, &covered)| covered) {
        let x = x as u64;
        match out.last_mut() {
            Some(run) if run.1 == x => run.1 = x + 1,
            _ => out.push((x, x + 1)),
        }
    }
    out
}

proptest! {
    /// After every step the ranges are exactly the model's maximal runs:
    /// inserts that meet no range, one or several, removes that cut
    /// nothing, trim, split or swallow ranges, and empty ones of both.
    #[test]
    fn rangeset_ranges_are_the_models_maximal_runs(ops in proptest::collection::vec(
        (0u8..3, 0u64..96, 0u64..12), 1..120)) {
        let mut rs = RangeSet::new();
        let mut model = vec![false; 108];
        for (op, start, len) in ops {
            let (s, e) = (start as usize, (start + len) as usize);
            if op < 2 {
                rs.insert(start, start + len);
                model[s..e].fill(true);
            } else {
                rs.remove(start, start + len);
                model[s..e].fill(false);
            }
            prop_assert_eq!(rs.ranges(), &runs(&model)[..]);
        }
    }

    /// RangeSet agrees with a boolean-vector reference under arbitrary
    /// insert/remove interleavings, and stays sorted + disjoint.
    #[test]
    fn rangeset_matches_reference(ops in proptest::collection::vec(
        (any::<bool>(), 0u64..64, 0u64..64), 1..40)) {
        let universe = 64;
        let (rs, reference) = apply_ops(&ops, universe);
        // Structural invariants.
        for w in rs.ranges().windows(2) {
            prop_assert!(w[0].1 < w[1].0, "ranges must be disjoint, non-adjacent: {:?}", rs.ranges());
        }
        for &(s, e) in rs.ranges() {
            prop_assert!(s < e);
        }
        // Pointwise agreement.
        for x in 0..universe {
            let covered = rs.intersects(x, x + 1);
            prop_assert_eq!(covered, reference[x as usize], "byte {}", x);
        }
        prop_assert_eq!(rs.covered(), reference.iter().filter(|&&b| b).count() as u64);
    }

    /// Stripe chunk decomposition exactly tiles any request.
    #[test]
    fn chunks_tile_request(first in 0usize..8, count in 1usize..8,
                           ssize in 1u64..4096, off in 0u64..100_000, len in 0u64..100_000) {
        let pool = 8;
        let count = count.min(pool);
        let l = StripeLayout::new(first % pool, count, ssize, pool);
        let cs = l.chunks(off, len);
        prop_assert_eq!(cs.iter().map(|c| c.len).sum::<u64>(), len);
        let mut pos = off;
        for c in &cs {
            prop_assert_eq!(c.file_offset, pos);
            prop_assert!(c.len > 0);
            prop_assert!(c.len <= ssize);
            prop_assert_eq!(c.ost, l.ost_of(c.file_offset));
            // A chunk never crosses a stripe boundary.
            prop_assert_eq!(c.file_offset / ssize, (c.file_offset + c.len - 1) / ssize);
            pos += c.len;
        }
    }

    /// Storage write/read round-trips arbitrary real data at arbitrary
    /// offsets, including cross-page patterns.
    #[test]
    fn storage_round_trip(writes in proptest::collection::vec(
        (0u64..300_000, proptest::collection::vec(any::<u8>(), 1..2000)), 1..12)) {
        let mut s = Storage::new();
        let mut reference: std::collections::BTreeMap<u64, u8> = Default::default();
        for (off, data) in &writes {
            s.write(*off, &IoBuffer::from_slice(data));
            for (i, &b) in data.iter().enumerate() {
                reference.insert(off + i as u64, b);
            }
        }
        for (off, data) in &writes {
            let got = s.read(*off, data.len());
            let bytes = got.as_slice().unwrap();
            for (i, got_b) in bytes.iter().enumerate() {
                let want = reference.get(&(off + i as u64)).copied().unwrap_or(0);
                prop_assert_eq!(*got_b, want, "offset {}", off + i as u64);
            }
        }
    }

    /// ost_load conserves bytes and request counts.
    #[test]
    fn ost_load_conserves(off in 0u64..1_000_000, len in 0u64..1_000_000) {
        let l = StripeLayout::new(3, 5, 4096, 7);
        let load: Vec<_> = l.ost_load(off, len).collect();
        prop_assert_eq!(load.iter().map(|&(_, b, _)| b).sum::<u64>(), len);
        prop_assert_eq!(
            load.iter().map(|&(_, _, r)| r).sum::<u64>() as usize,
            l.chunks(off, len).len()
        );
    }
}
