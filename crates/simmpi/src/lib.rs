//! # simmpi — an MPI-like message-passing layer over `simnet`
//!
//! This crate provides the communication API surface that MPI-IO
//! implementations (ROMIO's generic ADIO driver, the paper's OPAL library,
//! and our `mpiio`/`parcoll` crates) are written against:
//!
//! * [`Communicator`] — world, `split`, local/global rank translation,
//!   node lookup;
//! * point-to-point — `send`/`recv`, non-blocking `isend`/`irecv` with
//!   [`Communicator::waitall`] (completion at the *maximum* arrival time,
//!   as for a real `MPI_Waitall` over independent messages);
//! * collectives — the ones the two-phase engine and ParColl run:
//!   `barrier`, `allgather(v)`, the size and count alltoalls, and
//!   `allreduce`;
//! * [`Info`] — the string key/value hint dictionary of MPI, through which
//!   applications tune collective I/O (`cb_nodes`, `cb_buffer_size`,
//!   ParColl's group hints).
//!
//! ## Timing semantics
//!
//! Every operation advances the calling rank's virtual clock according to
//! the `simnet` cost model. Collective operations complete at
//! `max(entry clocks) + algorithmic cost`: a rank that arrives early pays
//! the *wait* for stragglers inside the collective, exactly the effect the
//! paper measures as the collective wall (§2.2). Data movement through
//! collectives and p2p alike is real — bytes sent are bytes received — so
//! data-path correctness is testable end to end.

#![warn(missing_docs)]

pub mod coll;
pub mod comm;
pub mod info;
pub mod p2p;

pub use coll::SparseRow;
pub use comm::Communicator;
pub use info::Info;
pub use p2p::RecvRequest;

/// Reduction operators for [`Communicator::allreduce_u64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of elements.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Logical OR over integer 0/1 flags.
    LOr,
}

impl ReduceOp {
    /// Apply to a pair of `u64` values.
    pub fn apply_u64(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::LOr => u64::from(a != 0 || b != 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_op_u64_semantics() {
        assert_eq!(ReduceOp::Sum.apply_u64(3, 4), 7);
        assert_eq!(ReduceOp::Max.apply_u64(3, 4), 4);
        assert_eq!(ReduceOp::Min.apply_u64(3, 4), 3);
        assert_eq!(ReduceOp::LOr.apply_u64(0, 0), 0);
        assert_eq!(ReduceOp::LOr.apply_u64(0, 9), 1);
    }
}
