//! # parcoll — Partitioned Collective I/O
//!
//! The paper's contribution (ParColl, Yu & Vetter, ICPP 2008): collective
//! I/O whose global synchronization has been broken up by partitioning
//! both the process group and the file into disjoint pieces.
//!
//! The extended two-phase protocol (`mpiio::twophase`) coordinates its
//! interleaved exchange/I-O rounds with collectives over the *whole*
//! communicator; their cost grows with the group size and comes to
//! dominate at scale — the *collective wall* (paper Figures 1–2). ParColl
//! keeps ext2ph as the inner aggregation engine but runs it over small
//! subgroups, each owning a disjoint **File Area**:
//!
//! * [`fa`] — file-area partitioning. Processes are ordered by their file
//!   ranges and cut into contiguous groups whose FAs must not intersect
//!   (patterns (a) serial and (b) tiled of Figure 4). Intersection is
//!   detected dynamically.
//! * [`iview`] — intermediate file views for pattern (c) (BT-IO-like
//!   types whose segments spread across the whole file): each process's
//!   segments are virtually concatenated into a *logical* file which
//!   partitions trivially; at the moment of file I/O, logical runs are
//!   translated back to the physical runs of the original view
//!   ([`iview::MappedSpace`] implements `mpiio::FileSpace`).
//! * [`aggdist`] — I/O-aggregator distribution honoring the user's
//!   aggregator hints: every subgroup gets at least one aggregator, no
//!   physical node serves two subgroups, distribution is round-robin
//!   (Figure 5 semantics, reproduced exactly in tests).
//! * [`coll`] — the partitioned collective read/write themselves, plus
//!   [`coll::ParcollFile`], a drop-in wrapper over [`mpiio::File`]
//!   configured entirely through `MPI_Info` hints (`parcoll_groups`,
//!   `parcoll_min_group`) — ParColl "does not alter the semantics of
//!   MPI-IO".

#![warn(missing_docs)]

pub mod aggdist;
pub mod coll;
pub mod config;
pub mod fa;
pub mod iview;

pub use coll::ParcollFile;
pub use config::ParcollConfig;
pub use fa::{partition_file_areas, FaError, Grouping};
pub use iview::{LogicalMap, MappedSpace};
