//! # simfs — a Lustre-like parallel file system simulator
//!
//! The paper's evaluation runs on a Jaguar Lustre file system: 72 object
//! storage targets (OSTs) behind 4 Gb/s Fibre Channel, files striped over
//! 64 targets with a 4 MB stripe size (paper §5). This crate reproduces
//! the properties of that system the evaluation depends on:
//!
//! * **Striping** — a file's byte range is round-robined over its stripe
//!   set in `stripe_size` units ([`StripeLayout`]); a request touching `k`
//!   stripes decomposes into `k` per-OST chunk requests.
//! * **Per-OST contention** — each [`ost::Ost`] is a serial resource with a
//!   virtual-time queue: a request starts at `max(arrival, ost_free)` and
//!   occupies the target for `per-request overhead + bytes / bandwidth`,
//!   so concurrent clients hitting one target serialize while different
//!   targets proceed in parallel.
//! * **Service-time jitter** — optional, seeded multiplicative noise on
//!   OST service times ([`simnet::SplitMix64`]). Lock-step collective
//!   rounds must wait for the *slowest* server each round; jitter is what
//!   separates `max` from `mean` and is a principal amplifier of the
//!   collective wall at scale.
//! * **Real data** — writes carry [`simnet::IoBuffer`]; the file image is
//!   an extent map of views of the buffers that wrote it
//!   ([`storage::Storage`]), read back byte-exact, so the whole MPI-IO
//!   stack is correctness-testable. Synthetic buffers mark extents
//!   and cost virtual time without consuming memory, enabling the paper's
//!   full-size runs (a 486 GB Flash-IO checkpoint) in a laptop process.
//!
//! Metadata operations go through a single [`fs::FileSystem`]-internal MDS
//! with a per-client open cost, matching Lustre's single-MDS design of the
//! era.

#![warn(missing_docs)]

pub mod config;
pub mod fs;
pub mod integrity;
pub mod layout;
pub mod ost;
pub mod rangeset;
pub mod storage;

pub use config::FsConfig;
pub use fs::{FileHandle, FileSystem, FsStats};
pub use integrity::{IntegrityError, ScrubReport};
pub use layout::StripeLayout;
pub use rangeset::RangeSet;

/// Lock `m` whatever a panic left behind: a rank that panics poisons its
/// cluster, and the ranks unwinding after it must see that rank's panic,
/// not a poisoned lock of the file system they share.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
