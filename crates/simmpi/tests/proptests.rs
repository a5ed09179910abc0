//! Property-based tests for the MPI-like layer: collectives agree with
//! straightforward reference computations for arbitrary inputs and group
//! shapes.

use proptest::prelude::*;
use simmpi::{Communicator, ReduceOp};
use simnet::{run_cluster, ClusterConfig, IoBuffer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Allgather returns everyone's contribution in rank order for any
    /// cluster size and payloads.
    #[test]
    fn allgather_matches_reference(n in 1usize..12,
                                   seeds in proptest::collection::vec(any::<u8>(), 1..12)) {
        prop_assume!(seeds.len() >= n);
        let seeds2 = seeds.clone();
        let out = run_cluster(ClusterConfig::ideal(n), move |ep| {
            let comm = Communicator::world(&ep);
            let mine = vec![seeds2[comm.rank()]; comm.rank() + 1];
            let bytes = mine.len();
            comm.allgather_t(mine, bytes).to_vec()
        });
        for got in out {
            for (r, v) in got.iter().enumerate() {
                prop_assert_eq!(v, &vec![seeds[r]; r + 1]);
            }
        }
    }

    /// Allreduce equals a sequential fold for every operator.
    #[test]
    fn allreduce_matches_fold(n in 1usize..10,
                              vals in proptest::collection::vec(0u64..1000, 1..10),
                              op_pick in 0usize..4) {
        prop_assume!(vals.len() >= n);
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::LOr][op_pick];
        let vals2 = vals.clone();
        let out = run_cluster(ClusterConfig::ideal(n), move |ep| {
            let comm = Communicator::world(&ep);
            comm.allreduce_u64(&[vals2[comm.rank()]], op)[0]
        });
        let expect = vals[..n].iter().copied().reduce(|a, b| op.apply_u64(a, b)).unwrap();
        prop_assert!(out.iter().all(|&v| v == expect));
    }

    /// Split by arbitrary colors: each subgroup sums only its members.
    #[test]
    fn split_partitions_correctly(n in 2usize..10,
                                  colors in proptest::collection::vec(0i64..3, 2..10)) {
        prop_assume!(colors.len() >= n);
        let colors2 = colors.clone();
        let out = run_cluster(ClusterConfig::ideal(n), move |ep| {
            let comm = Communicator::world(&ep);
            let sub = comm.split(Some(colors2[comm.rank()]), 0).unwrap();
            (sub.size(), sub.allreduce_u64(&[comm.rank() as u64], ReduceOp::Sum)[0])
        });
        for (rank, (size, sum)) in out.iter().enumerate() {
            let members: Vec<usize> =
                (0..n).filter(|&r| colors[r] == colors[rank]).collect();
            prop_assert_eq!(*size, members.len());
            prop_assert_eq!(*sum, members.iter().map(|&r| r as u64).sum::<u64>());
        }
    }

    /// Point-to-point payloads arrive unmodified under arbitrary tags.
    #[test]
    fn p2p_payload_integrity(data in proptest::collection::vec(any::<u8>(), 0..200),
                             tag in 0i32..1000) {
        let data2 = data.clone();
        let out = run_cluster(ClusterConfig::ideal(2), move |ep| {
            let comm = Communicator::world(&ep);
            if comm.rank() == 0 {
                comm.send(1, tag, IoBuffer::from_slice(&data2));
                Vec::new()
            } else {
                comm.recv(0, tag).as_slice().unwrap().to_vec()
            }
        });
        prop_assert_eq!(&out[1], &data);
    }
}
