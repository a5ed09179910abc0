//! # simnet — virtual-time cluster substrate
//!
//! This crate provides the execution substrate on which the ParColl
//! reproduction runs. The paper's platform is Jaguar, a Cray XT with the
//! Catamount lightweight kernel, a SeaStar interconnect and a Lustre file
//! system. None of that hardware is available here, so we substitute a
//! *virtual-time* cluster:
//!
//! * Every MPI rank is a fiber that really exchanges bytes, so all
//!   protocol logic (two-phase collective I/O, ParColl partitioning) is
//!   executed faithfully and its data-path correctness is testable.
//! * *Time* is virtual. Each rank owns a [`Clock`] advanced by an analytic
//!   cost model ([`NetworkModel`], plus the Lustre model in the `simfs`
//!   crate). Synchronizing operations (collectives, message receives) make
//!   ranks wait for each other in virtual time exactly the way MPI
//!   operations do in wall time, which is the phenomenon the paper studies
//!   (the "collective wall").
//!
//! The design goal is **determinism**: for a fixed configuration, virtual
//! timestamps are a pure function of the program, independent of host
//! scheduling, as long as message matching is deterministic (no wildcard
//! receives — the MPI-IO protocols in this repository never use them).
//!
//! The crate deliberately knows nothing about MPI or files; it provides
//! four primitives that the higher layers compose:
//!
//! 1. [`Endpoint`] — a rank's handle: clock, compute/copy charging, raw
//!    point-to-point `send`/`recv` with `(context, tag)` matching.
//! 2. [`Rendezvous`] — a deterministic N-party meeting point used to build
//!    collective operations: all parties deposit a value, the last arrival
//!    runs a combiner once, everyone observes the same result and the same
//!    completion clock.
//! 3. [`Topology`] — node layout and block/cyclic rank-to-node mapping
//!    (the Cray XT placement schemes from Figure 5 of the paper).
//! 4. [`run_cluster`] — runs `n` ranks as fibers on the calling thread
//!    and joins their results.
//!
//! # Single-threaded by type
//!
//! Every rank of a cluster is a fiber on the thread that called
//! [`run_cluster`], so what the ranks of a run share is built from `Rc`,
//! `RefCell`, `Cell` and `OnceCell`: a message or a meeting takes no
//! lock and runs no atomic instruction. The compiler keeps it on its
//! thread — a mailbox, a rendezvous and an endpoint are not `Sync`:
//!
//! ```compile_fail
//! fn shared_between_threads<T: Sync>() {}
//! shared_between_threads::<simnet::mailbox::Mailbox>();
//! ```
//!
//! ```compile_fail
//! fn shared_between_threads<T: Sync>() {}
//! shared_between_threads::<simnet::Rendezvous>();
//! ```
//!
//! ```compile_fail
//! fn shared_between_threads<T: Sync>() {}
//! shared_between_threads::<simnet::Endpoint>();
//! ```
//!
//! a fiber's wake handle is not `Send`, so no other thread can push
//! onto its run queue:
//!
//! ```compile_fail
//! fn sent_to_another_thread<T: Send>() {}
//! sent_to_another_thread::<simnet::fiber::Waker>();
//! ```
//!
//! and neither is what outlives a run: an [`IoBuffer`], whose store a
//! file image keeps as a view, or the trace sink the ranks record into
//! (`simfs`'s crate docs hold the same proof for its `FileSystem`):
//!
//! ```compile_fail
//! fn sent_to_another_thread<T: Send>() {}
//! sent_to_another_thread::<simnet::IoBuffer>();
//! ```
//!
//! ```compile_fail
//! fn sent_to_another_thread<T: Send>() {}
//! sent_to_another_thread::<simtrace::TraceSink>();
//! ```
//!
//! (Those six names exist; it is the bound that fails.)
//!
//! ```
//! fn named<T>() {}
//! named::<simnet::mailbox::Mailbox>();
//! named::<simnet::Rendezvous>();
//! named::<simnet::Endpoint>();
//! named::<simnet::fiber::Waker>();
//! named::<simnet::IoBuffer>();
//! named::<simtrace::TraceSink>();
//! ```
//!
//! The switches that shape a run — the pop order ([`set_pop_order`]) and
//! the default fiber stack size ([`set_default_stack_size`]) — and the
//! pool of finished runs' fiber stacks belong to the calling thread as
//! well: a thread that sets one changes no other thread's runs.

#![warn(missing_docs)]

pub mod buffer;
pub mod cksum;
pub mod clock;
pub mod endpoint;
pub mod error;
pub mod fault;
pub mod fiber;
pub mod mailbox;
pub mod model;
pub mod noise;
pub mod progress;
pub mod rendezvous;
pub mod runtime;
pub mod time;
pub mod topology;

pub use buffer::IoBuffer;
pub use clock::Clock;
pub use endpoint::{Endpoint, RecvInfo};
pub use error::{SimError, SimResult};
pub use cksum::{fnv1a, Fnv1a};
pub use fault::{corrupt_flip, FaultPlan, FaultRule, FaultState, MsgFault};
pub use fiber::set_workers;
pub use mailbox::Payload;
pub use model::{CollectiveAlg, MachineModel, NetworkModel};
pub use noise::{Jitter, SplitMix64};
pub use progress::{admit, current_rank, pop_order, set_pop_order, PopOrder};
pub use rendezvous::{MeetInfo, Rendezvous};
pub use runtime::{default_stack_size, run_cluster, set_default_stack_size, ClusterConfig};
pub use time::SimTime;
pub use topology::{Mapping, Topology};
