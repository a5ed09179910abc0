//! Node topology and rank-to-node mapping.
//!
//! Cray XT launchers place consecutive ranks on nodes either in *block*
//! fashion (fill a node's cores, then the next node) or *cyclic* fashion
//! (round-robin over nodes). ParColl's aggregator-distribution rules are
//! stated in terms of physical nodes (paper §4.2, Figure 5): no node's
//! processes may serve as aggregators for different subgroups. This module
//! provides the mapping both the paper's examples and the benchmarks use.

use crate::error::{SimError, SimResult};

/// Rank-to-node placement scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Ranks 0..c fill node 0, ranks c..2c fill node 1, ... (c = cores per
    /// node). Figure 5's "Block" column: N0 (P0, P1), N1 (P2, P3), ...
    Block,
    /// Rank r lives on node r mod nnodes. Figure 5's "Cyclic" column:
    /// N0 (P0, P4), N1 (P1, P5), ...
    Cyclic,
}

/// A cluster's node layout.
#[derive(Debug, Clone)]
pub struct Topology {
    nnodes: usize,
    cores_per_node: usize,
    nranks: usize,
    mapping: Mapping,
}

impl Topology {
    /// Build a topology. `nranks` must fit in `nnodes × cores_per_node`.
    pub fn new(
        nnodes: usize,
        cores_per_node: usize,
        nranks: usize,
        mapping: Mapping,
    ) -> SimResult<Self> {
        if nnodes == 0 || cores_per_node == 0 {
            return Err(SimError::BadConfig(
                "topology needs at least one node and one core".into(),
            ));
        }
        if nranks == 0 {
            return Err(SimError::BadConfig("topology needs at least one rank".into()));
        }
        if nranks > nnodes * cores_per_node {
            return Err(SimError::BadConfig(format!(
                "{nranks} ranks do not fit on {nnodes} nodes x {cores_per_node} cores"
            )));
        }
        Ok(Topology {
            nnodes,
            cores_per_node,
            nranks,
            mapping,
        })
    }

    /// Dual-core Cray XT style topology sized exactly for `nranks` ranks
    /// with the given mapping ("All our tests are conducted using both
    /// cores on the compute PEs", paper §5).
    pub fn dual_core(nranks: usize, mapping: Mapping) -> Self {
        let nnodes = nranks.div_ceil(2).max(1);
        Topology::new(nnodes, 2, nranks.max(1), mapping).expect("dual_core sizing is always valid")
    }

    /// Number of nodes.
    pub fn nnodes(&self) -> usize {
        self.nnodes
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.cores_per_node
    }

    /// Number of ranks placed.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The placement scheme.
    pub fn mapping(&self) -> Mapping {
        self.mapping
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        assert!(rank < self.nranks, "rank {rank} out of {}", self.nranks);
        match self.mapping {
            Mapping::Block => rank / self.cores_per_node,
            Mapping::Cyclic => rank % self.nnodes,
        }
    }

    /// All ranks hosted on `node`, ascending.
    pub fn ranks_on_node(&self, node: usize) -> Vec<usize> {
        assert!(node < self.nnodes, "node {node} out of {}", self.nnodes);
        (0..self.nranks).filter(|&r| self.node_of(r) == node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_block_mapping() {
        // Paper Figure 5: 8 processes, 4 nodes, 2 cores. Block:
        // N0 (P0, P1), N1 (P2, P3), N2 (P4, P5), N3 (P6, P7).
        let t = Topology::new(4, 2, 8, Mapping::Block).unwrap();
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(1), 0);
        assert_eq!(t.node_of(2), 1);
        assert_eq!(t.node_of(3), 1);
        assert_eq!(t.node_of(6), 3);
        assert_eq!(t.node_of(7), 3);
        assert_eq!(t.ranks_on_node(2), vec![4, 5]);
    }

    #[test]
    fn figure5_cyclic_mapping() {
        // Cyclic: N0 (P0, P4), N1 (P1, P5), N2 (P2, P6), N3 (P3, P7).
        let t = Topology::new(4, 2, 8, Mapping::Cyclic).unwrap();
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(4), 0);
        assert_eq!(t.node_of(1), 1);
        assert_eq!(t.node_of(5), 1);
        assert_eq!(t.node_of(3), 3);
        assert_eq!(t.node_of(7), 3);
        assert_eq!(t.ranks_on_node(0), vec![0, 4]);
    }

    #[test]
    fn dual_core_sizes_nodes() {
        let t = Topology::dual_core(8, Mapping::Block);
        assert_eq!(t.nnodes(), 4);
        assert_eq!(t.cores_per_node(), 2);
        let t = Topology::dual_core(7, Mapping::Block);
        assert_eq!(t.nnodes(), 4); // 7 ranks need ceil(7/2)=4 nodes
        assert_eq!(t.nranks(), 7);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(Topology::new(0, 2, 1, Mapping::Block).is_err());
        assert!(Topology::new(2, 0, 1, Mapping::Block).is_err());
        assert!(Topology::new(2, 2, 0, Mapping::Block).is_err());
        assert!(Topology::new(2, 2, 5, Mapping::Block).is_err());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn node_of_rejects_out_of_range() {
        Topology::new(2, 2, 4, Mapping::Block).unwrap().node_of(4);
    }

    #[test]
    fn every_rank_lands_on_exactly_one_node() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            let t = Topology::new(5, 3, 13, mapping).unwrap();
            let mut seen = vec![0usize; t.nranks()];
            for node in 0..t.nnodes() {
                for r in t.ranks_on_node(node) {
                    seen[r] += 1;
                    assert_eq!(t.node_of(r), node);
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{mapping:?}: {seen:?}");
        }
    }

    #[test]
    fn block_never_exceeds_cores_per_node() {
        let t = Topology::new(4, 2, 8, Mapping::Block).unwrap();
        for node in 0..4 {
            assert!(t.ranks_on_node(node).len() <= 2);
        }
    }
}
