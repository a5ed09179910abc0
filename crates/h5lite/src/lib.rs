//! # h5lite — a minimal parallel hierarchical data format over MPI-IO
//!
//! The paper's Flash-IO kernel writes its checkpoints "through the HDF5
//! data format. MPI-IO is used internally in the HDF5 library" (§5.4).
//! This crate plays HDF5's role in the reproduction: a self-describing
//! container of named n-dimensional datasets with attributes, whose bulk
//! data moves through `mpiio`/`parcoll` collective I/O — so ParColl's
//! hints tune a high-level library exactly the way the paper tunes HDF5.
//!
//! ## Format (version 1)
//!
//! ```text
//! [0 .. 64 KiB)   metadata region
//!     superblock: magic "H5L1", dataset count, attribute count
//!     dataset table: (name, elem_size, ndims, dims[], data offset)
//!     attribute table: (dataset name, key, value bytes)
//! [64 KiB ..)     dataset payloads, allocated sequentially
//! ```
//!
//! Metadata lives at fixed offsets and is (re)written by rank 0 at close;
//! dataset payloads are written by everyone through collective I/O.
//! Dataset creation is collective and deterministic, so every rank can
//! compute every offset locally — the property that lets hyperslab writes
//! proceed with no metadata traffic, mirroring HDF5's collective mode.

#![warn(missing_docs)]

pub mod dataset;
pub mod file;
pub mod meta;

pub use dataset::Dataset;
pub use file::H5File;
pub use meta::{AttrValue, DatasetInfo, Metadata, DATA_REGION_START, MAGIC};
