//! Communicators: process groups with isolated contexts.

use simnet::rendezvous::{PoisonFlag, Rendezvous};
use simnet::{Endpoint, SimTime};
use std::rc::Rc;

/// Group state shared by all members of a communicator.
#[derive(Debug)]
pub(crate) struct CommShared {
    /// Context id isolating this communicator's point-to-point traffic.
    pub(crate) ctx: u32,
    /// Global rank of each local rank, ascending by local rank: one list
    /// for the whole group, shared with its rendezvous when ascending.
    pub(crate) members: Rc<[usize]>,
    /// Collective meeting point for this group.
    pub(crate) rdv: Rc<Rendezvous>,
}

impl CommShared {
    /// The state of a new group of the global ranks `members` (ascending
    /// by their new local rank) under context `ctx` — built out of line,
    /// as the split's meeting builds one per color: the rendezvous is
    /// sized by its group.
    #[inline(never)]
    fn new(ctx: u32, members: Rc<[usize]>, poison: &Rc<PoisonFlag>) -> Rc<CommShared> {
        let rdv = Rendezvous::for_ranks(Rc::clone(&members), Rc::clone(poison));
        Rc::new(CommShared {
            ctx,
            members,
            rdv: Rc::new(rdv),
        })
    }
}

/// A process group, mirroring `MPI_Comm`.
///
/// A `Communicator` borrows the rank's [`Endpoint`] (it cannot leave the
/// rank's fiber) and shares the group state with its peers. All the MPI-like
/// operations — point-to-point in [`crate::p2p`], collectives in
/// [`crate::coll`] — are methods on this type.
///
/// # Examples
///
/// ```
/// use simmpi::{Communicator, ReduceOp};
/// use simnet::{run_cluster, ClusterConfig};
///
/// let sums = run_cluster(ClusterConfig::ideal(4), |ep| {
///     let world = Communicator::world(&ep);
///     // Split into even/odd halves, sum ranks within each.
///     let half = world.split(Some((ep.rank() % 2) as i64), 0).unwrap();
///     half.allreduce_u64(&[ep.rank() as u64], ReduceOp::Sum)[0]
/// });
/// assert_eq!(sums, vec![2, 4, 2, 4]); // evens: 0+2, odds: 1+3
/// ```
pub struct Communicator<'ep> {
    pub(crate) ep: &'ep Endpoint,
    pub(crate) shared: Rc<CommShared>,
    pub(crate) my_local: usize,
}

/// Trace label for one collective entering the group rendezvous: the
/// MPI-level operation name, the algorithm the cost model charges for it,
/// and this rank's contributed byte count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MeetLabel {
    pub(crate) op: &'static str,
    pub(crate) alg: &'static str,
    pub(crate) bytes: u64,
}

impl Clone for Communicator<'_> {
    fn clone(&self) -> Self {
        Communicator {
            ep: self.ep,
            shared: Rc::clone(&self.shared),
            my_local: self.my_local,
        }
    }
}

impl std::fmt::Debug for Communicator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("ctx", &self.shared.ctx)
            .field("rank", &self.my_local)
            .field("size", &self.size())
            .finish()
    }
}

impl<'ep> Communicator<'ep> {
    /// The world communicator containing every rank of the cluster. Its
    /// member list is the world rendezvous's participant list: every
    /// world communicator of a cluster shares that one list.
    pub fn world(ep: &'ep Endpoint) -> Self {
        let rdv = ep.world_rendezvous();
        let members = Rc::clone(
            rdv.participants()
                .expect("the world rendezvous knows its ranks"),
        );
        debug_assert_eq!(members.len(), ep.size());
        Communicator {
            ep,
            my_local: ep.rank(),
            shared: Rc::new(CommShared {
                ctx: 0,
                members,
                rdv,
            }),
        }
    }

    /// This rank's id within the communicator.
    pub fn rank(&self) -> usize {
        self.my_local
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.shared.members.len()
    }

    /// The underlying endpoint.
    pub fn endpoint(&self) -> &'ep Endpoint {
        self.ep
    }

    /// Translate a local rank to the cluster-global rank.
    pub fn global_rank(&self, local: usize) -> usize {
        self.shared.members[local]
    }

    /// Translate a global rank to a local rank, if a member.
    ///
    /// Linear scan: membership lists are consulted rarely (aggregator
    /// selection, once per open) and reordering keys make them unsorted.
    pub fn local_rank_of_global(&self, global: usize) -> Option<usize> {
        self.shared.members.iter().position(|&g| g == global)
    }

    /// Physical node hosting the given local rank.
    pub fn node_of(&self, local: usize) -> usize {
        self.ep.topology().node_of(self.global_rank(local))
    }

    /// Internal helper: run a collective through the group rendezvous,
    /// advancing this rank's clock to the common completion time.
    ///
    /// `fill` writes this rank's input into its slot of the group's
    /// meeting point, which keeps what the last meeting of that input
    /// type left in it ([`Rendezvous::meet_info`]). `combine` receives the
    /// slots ordered by local rank and the maximum entry clock, and
    /// returns the shared result plus the completion time.
    ///
    /// When tracing is enabled, each rank emits a `rdv` span on its own
    /// timeline covering its entry to the last participant's arrival (the
    /// span duration *is* the collective wall this rank paid), tagged with
    /// the straggler's global rank and the operation's algorithm/volume.
    pub(crate) fn meet<T, R, F>(
        &self,
        label: MeetLabel,
        fill: impl FnOnce(&mut T),
        combine: F,
    ) -> Rc<R>
    where
        T: Default + 'static,
        R: 'static,
        F: FnOnce(&mut [T], SimTime) -> (R, SimTime),
    {
        let entry = self.ep.now();
        let (result, completion, info) =
            self.shared
                .rdv
                .meet_info(self.my_local, entry, fill, combine);
        self.ep.clock().advance_to(completion);
        let rec = self.ep.trace();
        if rec.enabled() {
            rec.span(
                "rdv",
                label.op,
                entry.as_micros(),
                info.last_arrival.as_micros(),
                vec![
                    ("ctx", simtrace::ArgValue::from(self.shared.ctx as u64)),
                    ("seq", simtrace::ArgValue::from(info.seq)),
                    ("n", simtrace::ArgValue::from(self.size())),
                    (
                        "straggler",
                        simtrace::ArgValue::from(self.shared.members[info.straggler]),
                    ),
                    ("alg", simtrace::ArgValue::from(label.alg)),
                    ("bytes", simtrace::ArgValue::from(label.bytes)),
                    ("done_us", simtrace::ArgValue::from(completion.as_micros())),
                ],
            );
        }
        result
    }

    /// Run `f` exactly once at the group's meeting point and advance
    /// every member's clock to the completion instant `f` returns.
    ///
    /// `f` receives the latest entry clock among the members. Only the
    /// last-arriving member's closure executes, so side effects happen
    /// once per collective — which is what lets I/O layers charge a
    /// shared serial resource (e.g. a file system's metadata server) for
    /// the whole group at a virtual-time-keyed instant, independent of
    /// the order the scheduler happened to resume the ranks in.
    pub fn once_at_meet<R, F>(&self, op: &'static str, f: F) -> Rc<R>
    where
        R: 'static,
        F: FnOnce(SimTime) -> (R, SimTime),
    {
        self.meet(
            MeetLabel {
                op,
                alg: "rendezvous",
                bytes: 0,
            },
            |_: &mut ()| (),
            move |_, max| f(max),
        )
    }

    /// Split into disjoint sub-communicators by `color`, ordering members
    /// by `(key, parent rank)` — the `MPI_Comm_split` contract. Ranks
    /// passing `None` (MPI_UNDEFINED) receive `None`.
    ///
    /// This is a collective over the parent communicator; its cost is that
    /// of an 16-byte allgather (color+key), which is how implementations
    /// realize it.
    pub fn split(&self, color: Option<i64>, key: i64) -> Option<Communicator<'ep>> {
        self.split_derive(color, key, || ()).0
    }

    /// [`split`](Self::split) that also decides something once: `derive`
    /// runs exactly once at the meeting point (on the last arrival) and
    /// every member receives the same `Rc` of what it built — the
    /// [`allgather_t_derive`](Self::allgather_t_derive) idiom for metadata
    /// every member would otherwise compute identically from inputs they
    /// all already hold. Same collective, same cost, same trace span.
    /// Every member must pass an equivalent `derive`.
    pub fn split_derive<R, F>(
        &self,
        color: Option<i64>,
        key: i64,
        derive: F,
    ) -> (Option<Communicator<'ep>>, Rc<R>)
    where
        R: 'static,
        F: FnOnce() -> R,
    {
        let poison = self.ep.poison();
        let ctx_alloc = self.ep.ctx_allocator();
        let net = self.ep.net();
        let p = self.size();
        let members = Rc::clone(&self.shared.members);

        // Each rank contributes (color, key, global rank). The combiner
        // builds every subgroup once and hands each parent rank its
        // (shared state, local rank) assignment.
        type SplitOut = Vec<Option<(Rc<CommShared>, usize)>>;
        let met: Rc<(SplitOut, Rc<R>)> = self.meet(
            MeetLabel {
                op: "comm_split",
                alg: "recursive_doubling",
                bytes: 16,
            },
            |slot| *slot = (color, key),
            move |inputs: &mut [(Option<i64>, i64)], max_clock| {
                let mut by_color: std::collections::BTreeMap<i64, Vec<(i64, usize)>> =
                    std::collections::BTreeMap::new();
                for (parent_local, (c, k)) in inputs.iter().enumerate() {
                    if let Some(c) = c {
                        by_color.entry(*c).or_default().push((*k, parent_local));
                    }
                }
                let mut out: SplitOut = vec![None; inputs.len()];
                for group in by_color.values() {
                    let mut group = group.clone();
                    group.sort_unstable_by_key(|&(k, parent_local)| (k, parent_local));
                    let group_members: Rc<[usize]> =
                        group.iter().map(|&(_, pl)| members[pl]).collect();
                    debug_assert!(
                        group.iter().map(|&(k, _)| k).all(|k| k == group[0].0)
                            || group_members.windows(2).all(|w| w[0] != w[1]),
                        "split produced duplicate members"
                    );
                    let ctx = ctx_alloc.replace(ctx_alloc.get() + 1);
                    let shared = CommShared::new(ctx, group_members, &poison);
                    for (new_local, &(_, parent_local)) in group.iter().enumerate() {
                        out[parent_local] = Some((Rc::clone(&shared), new_local));
                    }
                }
                (
                    (out, Rc::new(derive())),
                    max_clock + net.allgather_cost(p, 16),
                )
            },
        );

        let (assignment, derived) = &*met;
        let sub = assignment[self.my_local]
            .as_ref()
            .map(|(shared, local)| Communicator {
                ep: self.ep,
                shared: Rc::clone(shared),
                my_local: *local,
            });
        (sub, Rc::clone(derived))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{run_cluster, ClusterConfig};

    #[test]
    fn world_has_full_membership() {
        run_cluster(ClusterConfig::ideal(6), |ep| {
            let world = Communicator::world(&ep);
            assert_eq!(world.size(), 6);
            assert_eq!(world.rank(), ep.rank());
            for l in 0..6 {
                assert_eq!(world.global_rank(l), l);
                assert_eq!(world.local_rank_of_global(l), Some(l));
            }
        });
    }

    #[test]
    fn world_communicators_share_one_member_list() {
        let lists = run_cluster(ClusterConfig::ideal(5), |ep| {
            let world = Communicator::world(&ep);
            assert!(Rc::ptr_eq(
                &world.shared.members,
                &Communicator::world(&ep).shared.members
            ));
            Rc::clone(&world.shared.members)
        });
        assert!(lists.iter().all(|l| Rc::ptr_eq(l, &lists[0])));
        assert_eq!(*lists[0], [0, 1, 2, 3, 4]);
    }

    #[test]
    fn split_by_parity_forms_two_groups() {
        let out = run_cluster(ClusterConfig::ideal(8), |ep| {
            let world = Communicator::world(&ep);
            let sub = world.split(Some((ep.rank() % 2) as i64), 0).unwrap();
            (sub.size(), sub.rank(), sub.global_rank(sub.rank()))
        });
        for (rank, (size, local, global)) in out.iter().enumerate() {
            assert_eq!(*size, 4);
            assert_eq!(*local, rank / 2);
            assert_eq!(*global, rank);
        }
    }

    #[test]
    fn split_orders_by_key_then_rank() {
        let out = run_cluster(ClusterConfig::ideal(4), |ep| {
            let world = Communicator::world(&ep);
            // Reverse order via key = -rank.
            let sub = world.split(Some(0), -(ep.rank() as i64)).unwrap();
            sub.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    /// A subgroup and its rendezvous hold one member list between them,
    /// in key order or not.
    #[test]
    fn a_subgroup_shares_its_list_with_its_rendezvous() {
        let shared = run_cluster(ClusterConfig::ideal(4), |ep| {
            let world = Communicator::world(&ep);
            let rank = ep.rank() as i64;
            let sub = |key| world.split(Some(0), key).unwrap().shared;
            let same = |s: &CommShared| Rc::ptr_eq(&s.members, s.rdv.participants().unwrap());
            (same(&sub(rank)), same(&sub(-rank)))
        });
        assert!(shared.iter().all(|&s| s == (true, true)));
    }

    #[test]
    fn undefined_color_yields_none() {
        let out = run_cluster(ClusterConfig::ideal(4), |ep| {
            let world = Communicator::world(&ep);
            let color = if ep.rank() < 2 { Some(7) } else { None };
            world.split(color, 0).map(|c| c.size())
        });
        assert_eq!(out, vec![Some(2), Some(2), None, None]);
    }

    #[test]
    fn subgroup_contexts_are_distinct_from_parent() {
        run_cluster(ClusterConfig::ideal(4), |ep| {
            let world = Communicator::world(&ep);
            let sub = world.split(Some((ep.rank() / 2) as i64), 0).unwrap();
            assert_ne!(sub.shared.ctx, world.shared.ctx);
        });
    }

    #[test]
    fn split_advances_clock() {
        run_cluster(ClusterConfig::ideal(4), |ep| {
            let world = Communicator::world(&ep);
            let before = ep.now();
            let _ = world.split(Some(0), 0).unwrap();
            assert!(ep.now() > before, "split must charge collective cost");
        });
    }

    #[test]
    fn nested_split_works() {
        let out = run_cluster(ClusterConfig::ideal(8), |ep| {
            let world = Communicator::world(&ep);
            let half = world.split(Some((ep.rank() / 4) as i64), 0).unwrap();
            let quarter = half.split(Some((half.rank() / 2) as i64), 0).unwrap();
            (quarter.size(), quarter.global_rank(0))
        });
        // Groups: {0,1},{2,3},{4,5},{6,7}
        for (rank, (size, first_global)) in out.iter().enumerate() {
            assert_eq!(*size, 2);
            assert_eq!(*first_global, rank / 2 * 2);
        }
    }
}
