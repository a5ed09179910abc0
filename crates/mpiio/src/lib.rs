//! # mpiio — an MPI-IO layer with the extended two-phase collective protocol
//!
//! This crate is the open-source-MPI-IO-equivalent of the paper's baseline
//! (the authors use their OPAL library, reported to perform comparably to
//! Cray's proprietary MPI-IO, to dissect collective I/O). It provides:
//!
//! * **Datatypes and file views** ([`datatype`], [`view`]) — contiguous,
//!   vector, (h)indexed, struct, subarray and resized constructors; types
//!   are flattened once, as ROMIO's `ADIOI_Flatten` does, into strided
//!   `(offset, len, stride, count)` [`Run`]s, and a [`view::FileView`]
//!   tiles the flattened type across the file from a displacement.
//! * **Independent I/O** ([`independent`]) — per-process reads/writes
//!   through the view, with data sieving for non-contiguous reads.
//! * **Collective I/O** ([`twophase`]) — the *extended two-phase* protocol
//!   (`ext2ph`, Thakur & Choudhary) in its ROMIO "generic" shape:
//!   file-range allgather, even file-domain partitioning among I/O
//!   aggregators, request metadata exchange, then interleaved rounds of
//!   data exchange and file I/O with a **per-round `MPI_Alltoall`** of
//!   transfer sizes — the global synchronization whose cost the paper
//!   names the *collective wall*.
//! * **Phase profiling** ([`profile`]) — per-rank accounting of time in
//!   synchronization, point-to-point exchange, file I/O and memory
//!   copies, mirroring the instrumentation behind the paper's Figures 1,
//!   2 and 8 ("when a file is closed, a summary is reported").
//! * **A file API** ([`file::File`]) — `open` / `set_view` /
//!   `write_at_all` / `read_at_all` / independent variants / `close`,
//!   carrying `MPI_Info` hints (`cb_nodes`, `cb_buffer_size`, explicit
//!   aggregator lists). Every access takes an explicit offset: there are
//!   no file pointers, split collectives or file sizing calls
//!   (DESIGN.md §2).
//!
//! The ParColl optimization in the `parcoll` crate reuses [`twophase`]
//! unchanged over sub-communicators — the paper's design retains ext2ph
//! "as a built-in component" — via the [`space::FileSpace`] abstraction,
//! which also hosts ParColl's intermediate-file-view translation.

#![warn(missing_docs)]

pub mod aggsel;
pub mod datatype;
pub mod file;
pub mod hints;
pub mod independent;
pub mod profile;
pub mod space;
pub mod twophase;
pub mod view;

pub use datatype::{Datatype, Ext, FlatType, Run};
pub use file::File;
pub use hints::Hints;
pub use profile::PhaseProfile;
pub use space::{DirectSpace, FileSpace};
pub use view::{AccessPlan, FileView};
