//! Default I/O-aggregator selection.
//!
//! ROMIO's default on clusters is one aggregator per physical node (the
//! `cb_config_list = *:1` rule), capped by `cb_nodes`. The paper relies on
//! this default list ("the I/O aggregators selected by default", §4.2);
//! ParColl's distribution algorithm then re-partitions whatever list this
//! module (or the user's explicit hint) produces.

use crate::hints::Hints;
use simmpi::Communicator;

/// Compute the aggregator list (local ranks, ascending) for a collective
/// operation on `comm` under `hints`.
///
/// Rules:
/// 1. An explicit `cb_config_list` names ranks directly (entries not in
///    the communicator are dropped).
/// 2. Otherwise **every process** is an aggregator — the behaviour of the
///    Cray XT MPI-IO stack of the paper's era (and of OPAL): with a
///    single-core lightweight kernel there is no benefit in idling
///    processes, so collective buffering spreads over the whole group.
///    (`cb_nodes = <n>` caps this to the lowest rank of each of the first
///    `n` nodes, ROMIO's one-per-node rule.)
pub fn select_aggregators(comm: &Communicator<'_>, hints: &Hints) -> Vec<usize> {
    let mut aggs: Vec<usize> = if let Some(list) = &hints.cb_aggregator_list {
        let mut v: Vec<usize> = list.iter().copied().filter(|&r| r < comm.size()).collect();
        v.sort_unstable();
        v.dedup();
        v
    } else if let Some(cap) = hints.cb_nodes {
        // One aggregator per node, capped at cb_nodes: the lowest rank of
        // each node, by one pass with a bitmap of the nodes seen.
        let (cap, mut seen, mut v) = (cap.max(1), Vec::<u64>::new(), Vec::new());
        for local in 0..comm.size() {
            let node = comm.node_of(local);
            if seen.len() <= node / 64 {
                seen.resize(node / 64 + 1, 0);
            }
            let (word, bit) = (&mut seen[node / 64], 1u64 << (node % 64));
            if *word & bit == 0 {
                *word |= bit;
                v.push(local);
                if v.len() == cap {
                    break;
                }
            }
        }
        v
    } else {
        (0..comm.size()).collect()
    };
    if let Some(cap) = hints.cb_nodes {
        let cap = cap.max(1);
        aggs.truncate(cap);
    }
    if aggs.is_empty() {
        aggs.push(0);
    }
    aggs
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::Info;
    use simnet::{run_cluster, ClusterConfig, Mapping};

    fn hints(info: Info) -> Hints {
        Hints::from_info(&info)
    }

    #[test]
    fn default_is_all_ranks() {
        let out = run_cluster(ClusterConfig::cray_xt(8, Mapping::Block), |ep| {
            let comm = Communicator::world(&ep);
            select_aggregators(&comm, &Hints::default())
        });
        assert_eq!(out[0], (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn cb_nodes_selects_one_per_node_block_mapping() {
        let out = run_cluster(ClusterConfig::cray_xt(8, Mapping::Block), |ep| {
            let comm = Communicator::world(&ep);
            select_aggregators(&comm, &hints(Info::new().with("cb_nodes", 4)))
        });
        // Block on dual-core: nodes are {0,1},{2,3},{4,5},{6,7}.
        assert_eq!(out[0], vec![0, 2, 4, 6]);
    }

    #[test]
    fn cb_nodes_selects_one_per_node_cyclic_mapping() {
        let out = run_cluster(ClusterConfig::cray_xt(8, Mapping::Cyclic), |ep| {
            let comm = Communicator::world(&ep);
            select_aggregators(&comm, &hints(Info::new().with("cb_nodes", 4)))
        });
        // Cyclic: ranks 0..3 land on distinct nodes; 4..7 repeat them.
        assert_eq!(out[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn cb_nodes_caps_the_list() {
        let out = run_cluster(ClusterConfig::cray_xt(8, Mapping::Block), |ep| {
            let comm = Communicator::world(&ep);
            select_aggregators(&comm, &hints(Info::new().with("cb_nodes", 2)))
        });
        assert_eq!(out[0], vec![0, 2]);
    }

    #[test]
    fn explicit_list_wins() {
        let out = run_cluster(ClusterConfig::cray_xt(8, Mapping::Block), |ep| {
            let comm = Communicator::world(&ep);
            select_aggregators(&comm, &hints(Info::new().with("cb_config_list", "5,1,3")))
        });
        assert_eq!(out[0], vec![1, 3, 5]);
    }

    #[test]
    fn explicit_list_filtered_to_members() {
        let out = run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), |ep| {
            let comm = Communicator::world(&ep);
            select_aggregators(&comm, &hints(Info::new().with("cb_config_list", "2,9,2")))
        });
        assert_eq!(out[0], vec![2]);
    }

    #[test]
    fn never_empty() {
        let out = run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), |ep| {
            let comm = Communicator::world(&ep);
            select_aggregators(&comm, &hints(Info::new().with("cb_config_list", "99")))
        });
        assert_eq!(out[0], vec![0]);
    }

    #[test]
    fn subcommunicator_uses_local_nodes() {
        let out = run_cluster(ClusterConfig::cray_xt(8, Mapping::Block), |ep| {
            let world = Communicator::world(&ep);
            // Odd ranks only: global 1,3,5,7 live on nodes 0,1,2,3.
            let sub = world.split(Some((ep.rank() % 2) as i64), 0);
            sub.map(|s| select_aggregators(&s, &hints(Info::new().with("cb_nodes", 4))))
        });
        // For members of the odd group, every rank is on a distinct node.
        assert_eq!(out[1].as_ref().unwrap(), &vec![0, 1, 2, 3]);
    }
}
