//! Cluster runtime: run one fiber per rank, join results.

use crate::endpoint::Endpoint;
use crate::fault::{FaultPlan, FaultState};
use crate::mailbox::Mailbox;
use crate::model::{MachineModel, NetworkModel};
use crate::rendezvous::{PoisonFlag, Rendezvous};
use crate::topology::{Mapping, Topology};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-wide default for [`ClusterConfig::stack_size`], picked up by
/// every constructor (and by harnesses that build configs indirectly,
/// e.g. the heap-ledger test's 128 KiB stacks). Stack pages
/// are committed lazily by the OS, so the default only bounds virtual
/// address space; see the `stack_size` field for the measured footprint.
static DEFAULT_STACK_SIZE: AtomicUsize = AtomicUsize::new(1 << 20);

/// Override the default per-rank stack size for subsequently built
/// [`ClusterConfig`]s. Zero restores the built-in 1 MiB default.
pub fn set_default_stack_size(bytes: usize) {
    let v = if bytes == 0 { 1 << 20 } else { bytes };
    DEFAULT_STACK_SIZE.store(v, Ordering::Relaxed);
}

/// The current default per-rank stack size (see
/// [`set_default_stack_size`]).
pub fn default_stack_size() -> usize {
    DEFAULT_STACK_SIZE.load(Ordering::Relaxed)
}

/// Configuration for [`run_cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node layout and rank placement.
    pub topology: Topology,
    /// Network cost model.
    pub net: NetworkModel,
    /// Local machine cost model.
    pub machine: MachineModel,
    /// Fiber stack size per rank. The protocols here iterate rather than
    /// recurse, so ranks are shallow: the quick-scale figure sweeps
    /// passed with 32 KiB fiber stacks (canary-checked — an overflow
    /// panics rather than corrupting), measured via
    /// [`set_default_stack_size`]. The default stays at 1 MiB of *virtual*
    /// reservation: pages are committed on touch, so 1024 ranks cost
    /// 1 GiB of address space but only a few MiB of resident stack, and
    /// the margin matters for fiber stacks, which have no guard page.
    /// Fiber stacks are kept from one cluster to the next of a process
    /// (matched by size), so a sequence of clusters touches the same
    /// few MiB again instead of new ones.
    pub stack_size: usize,
    /// Trace sink shared by every rank. Disabled by default: each
    /// recording call returns after one branch, so uninstrumented runs
    /// keep their virtual and host timings.
    pub trace: simtrace::TraceSink,
    /// Fault-injection plan shared by every rank. `None` (the default)
    /// is the unperturbed cluster, bitwise identical to a build without
    /// the fault layer.
    pub faults: Option<Arc<FaultPlan>>,
}

impl ClusterConfig {
    /// A cluster of `n` ranks on dual-core nodes with the given mapping
    /// and the Cray XT-calibrated cost models.
    pub fn cray_xt(n: usize, mapping: Mapping) -> Self {
        ClusterConfig {
            topology: Topology::dual_core(n, mapping),
            net: NetworkModel::cray_xt_seastar(),
            machine: MachineModel::catamount(),
            stack_size: default_stack_size(),
            trace: simtrace::TraceSink::disabled(),
            faults: None,
        }
    }

    /// An idealized, noise-free cluster for unit tests.
    pub fn ideal(n: usize) -> Self {
        ClusterConfig {
            topology: Topology::dual_core(n, Mapping::Block),
            net: NetworkModel::ideal(),
            machine: MachineModel::ideal(),
            stack_size: default_stack_size(),
            trace: simtrace::TraceSink::disabled(),
            faults: None,
        }
    }
}

/// Run `f` once per rank and collect the return values in rank order.
///
/// Ranks execute as cooperative fibers on the calling thread, resumed
/// in [`crate::progress::pop_order`]; virtual-time results are bitwise
/// identical whatever that order. Nothing the ranks share leaves that
/// thread, so neither `f` nor its results need be `Send` or `Sync`, and
/// `f` may borrow from the caller. A cluster cannot be started from
/// inside another cluster's rank.
///
/// If any rank panics, the cluster is poisoned (unblocking every rank
/// stuck in a receive or collective) and this function re-panics with the
/// original rank's panic payload, so test failures surface rather than
/// deadlock.
///
/// # Examples
///
/// ```
/// use simnet::{run_cluster, ClusterConfig, IoBuffer};
///
/// // Four ranks pass a token around a ring.
/// let out = run_cluster(ClusterConfig::ideal(4), |ep| {
///     let next = (ep.rank() + 1) % ep.size();
///     let prev = (ep.rank() + ep.size() - 1) % ep.size();
///     ep.send(next, 0, 7, IoBuffer::from_slice(&[ep.rank() as u8]));
///     ep.recv(prev, 0, 7).as_slice().unwrap()[0]
/// });
/// assert_eq!(out, vec![3, 0, 1, 2]);
/// ```
pub fn run_cluster<T, F>(cfg: ClusterConfig, f: F) -> Vec<T>
where
    F: Fn(Endpoint) -> T,
{
    let n = cfg.topology.nranks();
    let poison = Rc::new(PoisonFlag::default());
    let mailboxes: Rc<[Mailbox]> = (0..n)
        .map(|_| Mailbox::new(n, Rc::clone(&poison)))
        .collect();
    let topology = Rc::new(cfg.topology);
    let net = Rc::new(cfg.net);
    let machine = Rc::new(cfg.machine);
    let world_rdv = Rc::new(Rendezvous::for_ranks(
        (0..n).collect::<Rc<[usize]>>(),
        Rc::clone(&poison),
    ));
    let ctx_counter = Rc::new(Cell::new(1)); // 0 is reserved for world

    /// Poisons the cluster if the owning fiber unwinds.
    struct PoisonOnPanic(Rc<PoisonFlag>);
    impl Drop for PoisonOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.poison();
            }
        }
    }

    let make_ep = |rank: usize| {
        let trace = cfg.trace.recorder_on_node(
            simtrace::TrackKey::Rank(rank),
            Some(topology.node_of(rank)),
        );
        let faults = cfg
            .faults
            .as_ref()
            .map(|plan| FaultState::new(Arc::clone(plan)));
        Endpoint::new(
            rank,
            Rc::clone(&mailboxes),
            Rc::clone(&topology),
            Rc::clone(&net),
            Rc::clone(&machine),
            Rc::clone(&poison),
            Rc::clone(&world_rdv),
            Rc::clone(&ctx_counter),
            trace,
            faults,
        )
    };

    let slots: Vec<Cell<Option<T>>> = (0..n).map(|_| Cell::new(None)).collect();
    let tasks: Vec<Box<dyn FnOnce() + '_>> = slots
        .iter()
        .enumerate()
        .map(|(rank, slot)| {
            let ep = make_ep(rank);
            let f = &f;
            let guard_flag = Rc::clone(&poison);
            Box::new(move || {
                let _guard = PoisonOnPanic(guard_flag);
                slot.set(Some(f(ep)));
            }) as Box<dyn FnOnce() + '_>
        })
        .collect();
    // A deadlock (fibers remain, none runnable) is resolved like a rank
    // panic: poison the cluster so the blocked fibers panic out of their
    // waits and report.
    let order = crate::progress::pop_order();
    let panics = crate::fiber::run_fibers(tasks, cfg.stack_size, order, || poison.poison());
    if let Some(payload) = pick_primary(panics.into_iter().flatten()) {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("every fiber completed without panicking")
        })
        .collect()
}

/// Pick the panic to re-throw from a cluster run: prefer the originating
/// panic over secondary "cluster poisoned" panics raised by ranks that
/// were unblocked by the poison flag.
fn pick_primary(
    panics: impl IntoIterator<Item = Box<dyn std::any::Any + Send>>,
) -> Option<Box<dyn std::any::Any + Send>> {
    fn is_echo(p: &(dyn std::any::Any + Send)) -> bool {
        p.downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .is_some_and(|s| s.contains("cluster poisoned"))
    }
    let mut first: Option<Box<dyn std::any::Any + Send>> = None;
    for payload in panics {
        let replace = match &first {
            None => true,
            Some(prev) => is_echo(prev.as_ref()) && !is_echo(payload.as_ref()),
        };
        if replace {
            first = Some(payload);
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::IoBuffer;
    use crate::time::SimTime;

    #[test]
    fn ranks_get_distinct_ids_in_order() {
        let out = run_cluster(ClusterConfig::ideal(8), |ep| ep.rank());
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ring_pass_delivers_and_times_correctly() {
        // Rank r sends r to r+1; everyone receives and checks the value.
        let out = run_cluster(ClusterConfig::ideal(4), |ep| {
            let n = ep.size();
            let next = (ep.rank() + 1) % n;
            let prev = (ep.rank() + n - 1) % n;
            ep.send(next, 0, 1, IoBuffer::from_slice(&[ep.rank() as u8]));
            let got = ep.recv(prev, 0, 1);
            (got.as_slice().unwrap()[0] as usize, ep.now())
        });
        for (r, (val, t)) in out.iter().enumerate() {
            assert_eq!(*val, (r + 4 - 1) % 4);
            // Ideal net: 1us latency; clock must have advanced at least that.
            assert!(t.as_micros() >= 1.0, "rank {r} clock {t}");
        }
    }

    #[test]
    fn virtual_times_are_deterministic_across_runs() {
        let run = || {
            run_cluster(ClusterConfig::cray_xt(16, Mapping::Block), |ep| {
                // Everyone sends to rank 0 with distinct tags; rank 0 drains.
                if ep.rank() == 0 {
                    for src in 1..ep.size() {
                        let _ = ep.recv(src, 0, src as i32);
                    }
                } else {
                    ep.send(0, 0, ep.rank() as i32, IoBuffer::synthetic(1 << 16));
                }
                ep.now().as_secs()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "virtual time must not depend on host scheduling");
    }

    #[test]
    fn world_rendezvous_spans_all_ranks() {
        let out = run_cluster(ClusterConfig::ideal(6), |ep| {
            let rdv = ep.world_rendezvous();
            let (sum, done) = rdv.meet(ep.rank(), ep.now(), ep.rank() as u64, |ins, max| {
                (ins.iter().sum::<u64>(), max + SimTime::micros(5.0))
            });
            ep.clock().advance_to(done);
            *sum
        });
        assert!(out.iter().all(|&s| s == 15));
    }

    #[test]
    fn context_ids_are_unique() {
        let out = run_cluster(ClusterConfig::ideal(4), |ep| {
            let ctx = ep.ctx_allocator();
            ctx.replace(ctx.get() + 1)
        });
        let mut ids = out.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "duplicate context ids: {out:?}");
        assert!(ids.iter().all(|&i| i >= 1));
    }

    #[test]
    #[should_panic(expected = "rank 2 exploded")]
    fn rank_panic_propagates_instead_of_deadlocking() {
        run_cluster(ClusterConfig::ideal(4), |ep| {
            if ep.rank() == 2 {
                panic!("rank 2 exploded");
            }
            // Other ranks block on a message that will never come.
            let _ = ep.recv((ep.rank() + 1) % 4, 0, 99);
        });
    }

    #[test]
    fn large_cluster_spawns() {
        // Smoke test that 512 fibers with 1MiB stacks are fine.
        let out = run_cluster(ClusterConfig::ideal(512), |ep| {
            let rdv = ep.world_rendezvous();
            let (_, done) = rdv.meet(ep.rank(), ep.now(), (), |_, max| ((), max));
            ep.clock().advance_to(done);
            ep.rank()
        });
        assert_eq!(out.len(), 512);
    }
}
