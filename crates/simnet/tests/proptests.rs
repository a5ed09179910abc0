//! Property-based tests for the simnet substrate.

use proptest::prelude::*;
use simnet::buffer::{BufferBuilder, IoBuffer};
use simnet::{Mapping, SimTime, SplitMix64, Topology};

proptest! {
    /// Sub-slicing a real buffer always matches slicing the underlying bytes.
    #[test]
    fn real_sub_matches_slice(bytes in proptest::collection::vec(any::<u8>(), 0..256),
                              a in 0usize..256, b in 0usize..256) {
        let buf = IoBuffer::from_slice(&bytes);
        let start = a.min(bytes.len());
        let len = b.min(bytes.len() - start);
        let sub = buf.sub(start, len);
        prop_assert_eq!(sub.as_slice().unwrap(), &bytes[start..start + len]);
    }

    /// `join` is the inverse of `sub`: it grows a window over exactly the
    /// neighbour that begins where it ends in the same backing store, and
    /// refuses — changing nothing — anything else.
    #[test]
    fn join_undoes_sub(bytes in proptest::collection::vec(any::<u8>(), 2..256),
                       a in 0usize..256, b in 0usize..256, c in 0usize..256) {
        let buf = IoBuffer::from_slice(&bytes);
        let mut cuts = [a % bytes.len(), b % bytes.len(), c % bytes.len()];
        cuts.sort_unstable();
        let [lo, mid, hi] = cuts;
        let mut w = buf.sub(lo, mid - lo);
        prop_assert!(w.join(&buf.sub(mid, hi - mid)));
        prop_assert_eq!(w.as_slice().unwrap(), &bytes[lo..hi]);
        // A gap, another store with the same bytes, a synthetic piece.
        prop_assert!(!w.join(&buf.sub(hi + 1, 0)));
        prop_assert!(!w.join(&IoBuffer::from_slice(&bytes[hi..])));
        prop_assert!(!w.join(&IoBuffer::synthetic(1)));
        prop_assert!(!IoBuffer::synthetic(1).join(&IoBuffer::synthetic(1)));
        prop_assert_eq!(w, buf.sub(lo, hi - lo));
    }

    /// A builder joins what continues in one store and copies the rest:
    /// windows of one to three stores, each cut at arbitrary points and
    /// pushed in any order, build exactly the concatenation of the
    /// pieces, and the result is a view of the first piece's store
    /// (an empty window at its start joins it) exactly when every piece
    /// begins where the previous one ended in the same store.
    #[test]
    fn builder_joins_adjacent_views_and_copies_the_rest(
        stores in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..48),
             proptest::collection::vec(0usize..48, 0..4)),
            1..4),
        shuffled in any::<bool>(),
        order in proptest::collection::vec(any::<u64>(), 16),
    ) {
        // (store, start, len) of every piece, in store order.
        let bufs: Vec<IoBuffer> = stores.iter().map(|(b, _)| IoBuffer::from_slice(b)).collect();
        let mut pieces = Vec::new();
        for (s, (bytes, cuts)) in stores.iter().enumerate() {
            let mut at: Vec<usize> = cuts.iter().map(|c| c % bytes.len()).collect();
            at.extend([0, bytes.len()]);
            at.sort_unstable();
            at.dedup();
            pieces.extend(at.windows(2).map(|w| (s, w[0], w[1] - w[0])));
        }
        if shuffled {
            let mut keyed: Vec<(u64, (usize, usize, usize))> =
                pieces.iter().enumerate().map(|(i, &p)| (order[i % 16] ^ i as u64, p)).collect();
            keyed.sort_unstable();
            pieces = keyed.into_iter().map(|(_, p)| p).collect();
        }
        let mut bb = BufferBuilder::new();
        let mut expect = Vec::new();
        for &(s, start, len) in &pieces {
            bb.push(&bufs[s].sub(start, len));
            expect.extend_from_slice(&stores[s].0[start..start + len]);
        }
        let out = bb.finish();
        prop_assert_eq!(out.as_slice().unwrap(), &expect[..]);
        let chained = pieces
            .windows(2)
            .all(|w| w[1].0 == w[0].0 && w[1].1 == w[0].1 + w[0].2);
        let (s, start, _) = pieces[0];
        prop_assert_eq!(bufs[s].sub(start, 0).join(&out), chained);
    }

    /// Builder concatenation length equals the sum of piece lengths whether
    /// or not synthetic pieces are present.
    #[test]
    fn builder_length_is_sum(pieces in proptest::collection::vec(
        (any::<bool>(), 0usize..64), 0..16)) {
        let mut bb = BufferBuilder::new();
        let mut expect = 0usize;
        let mut any_synth = false;
        for (synth, len) in &pieces {
            expect += len;
            if *synth {
                any_synth = true;
                bb.push(&IoBuffer::synthetic(*len));
            } else {
                bb.push(&IoBuffer::zeroed(*len));
            }
        }
        let out = bb.finish();
        prop_assert_eq!(out.len(), expect);
        prop_assert_eq!(out.is_real(), !any_synth);
    }

    /// copy_in of real into real matches a reference implementation.
    #[test]
    fn copy_in_matches_reference(dst in proptest::collection::vec(any::<u8>(), 1..128),
                                 src in proptest::collection::vec(any::<u8>(), 0..64),
                                 off in 0usize..128) {
        prop_assume!(off + src.len() <= dst.len());
        let mut buf = IoBuffer::from_slice(&dst);
        buf.copy_in(off, &IoBuffer::from_slice(&src));
        let mut expect = dst.clone();
        expect[off..off + src.len()].copy_from_slice(&src);
        prop_assert_eq!(buf.as_slice().unwrap(), expect.as_slice());
    }

    /// Every rank maps to exactly one valid node, and node_of is the
    /// inverse of ranks_on_node, for both mappings and arbitrary shapes.
    #[test]
    fn topology_partition_property(nnodes in 1usize..32, cores in 1usize..8,
                                   fill in 1usize..100, cyclic in any::<bool>()) {
        let cap = nnodes * cores;
        let nranks = 1 + fill % cap;
        let mapping = if cyclic { Mapping::Cyclic } else { Mapping::Block };
        let t = Topology::new(nnodes, cores, nranks, mapping).unwrap();
        let mut count = vec![0usize; nranks];
        for node in 0..nnodes {
            for r in t.ranks_on_node(node) {
                prop_assert_eq!(t.node_of(r), node);
                count[r] += 1;
            }
        }
        prop_assert!(count.iter().all(|&c| c == 1));
        // No node exceeds its core count under block mapping.
        if mapping == Mapping::Block {
            for node in 0..nnodes {
                prop_assert!(t.ranks_on_node(node).len() <= cores);
            }
        }
    }

    /// SimTime max/min are a lattice: max(a,b) >= both, min(a,b) <= both.
    #[test]
    fn simtime_lattice(a in 0.0f64..1e6, b in 0.0f64..1e6) {
        let (ta, tb) = (SimTime::secs(a), SimTime::secs(b));
        prop_assert!(ta.max(tb) >= ta && ta.max(tb) >= tb);
        prop_assert!(ta.min(tb) <= ta && ta.min(tb) <= tb);
    }

    /// Jitter is always strictly positive for any cv and seed.
    #[test]
    fn jitter_positive(seed in any::<u64>(), cv in 0.0f64..1.0) {
        let mut g = SplitMix64::new(seed);
        for _ in 0..32 {
            prop_assert!(g.jitter(cv) > 0.0);
        }
    }
}
