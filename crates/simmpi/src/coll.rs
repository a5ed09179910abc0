//! Collective operations.
//!
//! All collectives rendezvous the whole group: completion time is
//! `max(entry clocks) + algorithmic cost` from [`simnet::NetworkModel`],
//! and every member leaves with its clock set to that completion. The data
//! combination itself happens once, on whichever rank arrives last, which
//! keeps results bit-identical across hosts and runs.
//!
//! The operations are the MPI calls the ROMIO two-phase driver and the
//! ParColl layer use: `MPI_Allgather` (file ranges), `MPI_Alltoall`
//! (request counts, and again *once per exchange round* — the proximate
//! cause of the collective wall), `MPI_Allreduce` (round count) and
//! `MPI_Barrier`. Those two alltoalls carry one `u64` per
//! pair, nearly all of them zero, so they exist in a sparse form that is
//! charged and traced as the dense operation it models
//! ([`alltoall_sizes_sparse`](Communicator::alltoall_sizes_sparse),
//! [`alltoall_counts_sparse`](Communicator::alltoall_counts_sparse)).

use crate::comm::{Communicator, MeetLabel};
use crate::ReduceOp;
use simnet::CollectiveAlg;
use std::rc::Rc;

impl Communicator<'_> {
    /// Trace name of the algorithm the cost model charges for alltoall.
    fn alltoall_alg(&self) -> &'static str {
        match self.ep.net().alltoall_alg {
            CollectiveAlg::Bruck => "bruck",
            CollectiveAlg::Pairwise => "pairwise",
        }
    }

    /// Synchronize all members (`MPI_Barrier`).
    pub fn barrier(&self) {
        let net = self.ep.net().clone();
        let p = self.size();
        let label = MeetLabel {
            op: "barrier",
            alg: "dissemination",
            bytes: 0,
        };
        let _ = self.meet(
            label,
            |_: &mut ()| (),
            move |_, max| ((), max + net.barrier_cost(p)),
        );
    }

    /// Typed allgather for protocol metadata; `bytes_each` is the
    /// serialized per-rank size charged to the cost model. Returns the
    /// values by local rank as the meeting's own `Rc`, shared by every
    /// member: a table of `P` entries exists once per collective, not
    /// once per rank.
    pub fn allgather_t<T>(&self, val: T, bytes_each: usize) -> Rc<Vec<T>>
    where
        T: 'static,
    {
        self.allgather_t_derive(val, bytes_each, |inputs| inputs)
    }

    /// [`allgather_t`](Self::allgather_t) that builds something once
    /// from the gathered values: `derive` runs exactly once at the
    /// meeting point (on the last arrival, over the values by local
    /// rank) and every member receives the same `Rc` of what it built.
    /// Same collective, same cost, same trace span.
    ///
    /// Use it for metadata all members would otherwise each decode and
    /// index identically (the `comm_split` idiom): host memory and work
    /// are then O(gathered values), not O(members × gathered values).
    /// Every member must pass an equivalent `derive`; a panic inside it
    /// poisons the cluster and surfaces as the run's panic.
    ///
    /// Members may serialize to different sizes (`MPI_Allgatherv`): the
    /// cost model charges the largest `bytes_each`, and each member's
    /// `rdv` span carries its own.
    pub fn allgather_t_derive<T, R, F>(&self, val: T, bytes_each: usize, derive: F) -> Rc<R>
    where
        T: 'static,
        R: 'static,
        F: FnOnce(Vec<T>) -> R,
    {
        let net = self.ep.net().clone();
        let p = self.size();
        let label = MeetLabel {
            op: "allgather",
            alg: "recursive_doubling",
            bytes: bytes_each as u64,
        };
        let combine = move |inputs: &mut [Option<(T, usize)>], max| {
            let n_each = inputs.iter().flatten().map(|&(_, n)| n).max().unwrap_or(0);
            let taken = inputs
                .iter_mut()
                .map(|slot| slot.take().expect("every member's value"));
            let values = taken.map(|(v, _)| v).collect();
            (derive(values), max + net.allgather_cost(p, n_each))
        };
        self.meet(label, |slot| *slot = Some((val, bytes_each)), combine)
    }

    /// The per-round transfer-size alltoall of two-phase collective I/O,
    /// over the non-zero sizes only: `entries` holds this rank's
    /// `(dst, bytes)` announcements (each destination at most once;
    /// zero-byte entries are dropped), and the result is every non-zero
    /// `(src, bytes)` announced to this rank, ascending by source: this
    /// rank's row of the meeting's result, which every member shares.
    ///
    /// It is *modelled dense and computed sparse*. The wire model and
    /// the trace see the `MPI_Alltoall` of one `u64` per pair that ROMIO
    /// performs — the cost of an 8-byte alltoall over the whole group,
    /// `8·P` bytes contributed per rank — plus the network model's
    /// congestion noise whenever the announced round moves any
    /// cross-rank bytes (off-diagonal entries): the size exchange then
    /// competes with the round's bulk data for links, which is where the
    /// collective wall's superlinear cost comes from. The host touches
    /// one slot per rank and one per entry: a tile or checkpoint rank
    /// exchanges with a handful of peers, and a dense `P × P` transpose
    /// per round was half the host time of a 1 024-rank run. The entries
    /// go into this rank's slot of the meeting point, which keeps the
    /// last row's capacity, so a steady-state exchange allocates only
    /// the shared result.
    pub fn alltoall_sizes_sparse(
        &self,
        entries: impl IntoIterator<Item = (usize, u64)>,
    ) -> SparseRow {
        self.alltoall_sparse("alltoall_sizes", entries, true)
    }

    /// The request count exchange of two-phase setup: an 8-byte
    /// `MPI_Alltoall` with absent entries zero, charged and traced like
    /// [`alltoall_sizes_sparse`](Self::alltoall_sizes_sparse) but without
    /// the congestion term.
    pub fn alltoall_counts_sparse(
        &self,
        entries: impl IntoIterator<Item = (usize, u64)>,
    ) -> SparseRow {
        self.alltoall_sparse("alltoall", entries, false)
    }

    fn alltoall_sparse(
        &self,
        op: &'static str,
        entries: impl IntoIterator<Item = (usize, u64)>,
        congestion: bool,
    ) -> SparseRow {
        let p = self.size();
        let net = self.ep.net().clone();
        let label = MeetLabel {
            op,
            alg: self.alltoall_alg(),
            bytes: (p * 8) as u64,
        };
        let fill = |row: &mut Vec<(usize, u64)>| {
            row.clear();
            row.extend(entries);
        };
        let combine = move |inputs: &mut [Vec<(usize, u64)>], max| {
            let _hp = simtrace::host::scope(simtrace::host::Site::SizeExchange);
            let by_dst = SparseRows::bucket(p, inputs);
            let visited = p + inputs.iter().map(Vec::len).sum::<usize>();
            simtrace::host::count(simtrace::host::Counter::SizeExchangeElems, visited as u64);
            let mut cost = net.alltoall_cost(p, 8);
            if congestion && by_dst.cross > 0 {
                cost += net.congestion_noise(p);
            }
            (by_dst, max + cost)
        };
        SparseRow {
            rows: self.meet(label, fill, combine),
            dst: self.rank(),
        }
    }

    /// The size exchange over dense rows: `row[d]` goes to member `d`,
    /// the result holds one value per source, through
    /// [`alltoall_sizes_sparse`](Self::alltoall_sizes_sparse). The
    /// two-phase engine does not call it; it is kept as the benchmark's
    /// `probe_alltoall_us` operation (ARCHITECTURE.md, "Benchmark API").
    pub fn alltoall_sizes(&self, row: Vec<u64>) -> Vec<u64> {
        let p = self.size();
        assert_eq!(row.len(), p, "alltoall needs one value per member");
        let entries = row.into_iter().enumerate().filter(|&(_, b)| b > 0);
        let mut out = vec![0; p];
        for &(src, bytes) in self.alltoall_sizes_sparse(entries).iter() {
            out[src] = bytes;
        }
        out
    }

    /// The size exchange as it was before it went sparse — dense rows, a
    /// `P × P` transpose at the meeting point. The oracle the sparse
    /// form is held to: same outputs, same clocks, same trace.
    #[cfg(test)]
    fn alltoall_sizes_dense(&self, row: Vec<u64>) -> Vec<u64> {
        let p = self.size();
        assert_eq!(row.len(), p, "alltoall needs one value per member");
        let net = self.ep.net().clone();
        let me = self.rank();
        let label = MeetLabel {
            op: "alltoall_sizes",
            alg: self.alltoall_alg(),
            bytes: (row.len() * 8) as u64,
        };
        let fill = |slot: &mut Vec<u64>| *slot = row;
        let out = self.meet(label, fill, move |inputs: &mut [Vec<u64>], max| {
            let cross: u64 = inputs
                .iter()
                .enumerate()
                .map(|(src, r)| {
                    r.iter()
                        .enumerate()
                        .filter(|&(dst, _)| dst != src)
                        .map(|(_, &b)| b)
                        .sum::<u64>()
                })
                .sum();
            let mut cost = net.alltoall_cost(p, 8);
            if cross > 0 {
                cost += net.congestion_noise(p);
            }
            let transposed: Vec<Vec<u64>> = (0..p)
                .map(|dst| inputs.iter().map(|r| r[dst]).collect())
                .collect();
            (transposed, max + cost)
        });
        out[me].clone()
    }

    /// Elementwise allreduce over `u64` vectors (`MPI_Allreduce`).
    /// Reduction is applied in ascending rank order, so results are
    /// deterministic for non-commutative uses too. `vals` is copied into
    /// this rank's slot of the meeting point, and the result is the
    /// meeting's own `Rc`, shared by every member.
    pub fn allreduce_u64(&self, vals: &[u64], op: ReduceOp) -> Rc<Vec<u64>> {
        let net = self.ep.net().clone();
        let p = self.size();
        let bytes = vals.len() * 8;
        let label = MeetLabel {
            op: "allreduce",
            alg: "recursive_doubling",
            bytes: bytes as u64,
        };
        let fill = |row: &mut Vec<u64>| {
            row.clear();
            row.extend_from_slice(vals);
        };
        self.meet(label, fill, move |inputs: &mut [Vec<u64>], max| {
            let (first, rest) = inputs.split_first().expect("a member");
            let mut acc = first.clone();
            for row in rest {
                assert_eq!(row.len(), acc.len(), "allreduce width mismatch");
                for (a, &b) in acc.iter_mut().zip(row) {
                    *a = op.apply_u64(*a, b);
                }
            }
            (acc, max + net.allreduce_cost(p, bytes))
        })
    }
}

/// One member's row of a sparse exchange
/// ([`alltoall_sizes_sparse`](Communicator::alltoall_sizes_sparse)): the
/// non-zero `(src, value)` entries announced to it, ascending by source,
/// as a view of the meeting's result — one table per exchange, shared by
/// every member, not a copy per member.
pub struct SparseRow {
    rows: Rc<SparseRows>,
    dst: usize,
}

impl std::ops::Deref for SparseRow {
    type Target = [(usize, u64)];

    fn deref(&self) -> &[(usize, u64)] {
        self.rows.row(self.dst)
    }
}

impl std::fmt::Debug for SparseRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What a sparse exchange delivers, for every destination at once: the
/// non-zero `(src, value)` entries bucketed by destination, each bucket
/// ascending by source, in two flat arrays.
struct SparseRows {
    /// Destination `d`'s entries are `entries[starts[d]..starts[d + 1]]`.
    starts: Vec<usize>,
    entries: Vec<(usize, u64)>,
    /// Sum of the off-diagonal values.
    cross: u64,
}

impl SparseRows {
    /// Bucket `inputs[src]`'s `(dst, value)` entries by destination: a
    /// counting pass, a prefix sum, a placing pass — sources in order,
    /// so every bucket comes out sorted. The placing pass advances each
    /// bucket's start to its end, and one shift puts the starts back.
    fn bucket(p: usize, inputs: &[Vec<(usize, u64)>]) -> SparseRows {
        let mut starts = vec![0usize; p + 1];
        let mut cross = 0u64;
        fn nonzero(row: &[(usize, u64)]) -> impl Iterator<Item = (usize, u64)> + '_ {
            row.iter().copied().filter(|&(_, v)| v > 0)
        }
        for (src, row) in inputs.iter().enumerate() {
            for (dst, v) in nonzero(row) {
                assert!(dst < p, "sparse alltoall destination {dst} out of {p}");
                starts[dst + 1] += 1;
                if dst != src {
                    cross += v;
                }
            }
        }
        for d in 0..p {
            starts[d + 1] += starts[d];
        }
        let mut entries = vec![(0, 0); starts[p]];
        for (src, row) in inputs.iter().enumerate() {
            for (dst, v) in nonzero(row) {
                entries[starts[dst]] = (src, v);
                starts[dst] += 1;
            }
        }
        // `starts[d]` is bucket `d`'s end now, which is bucket `d + 1`'s
        // start.
        starts.copy_within(0..p, 1);
        starts[0] = 0;
        SparseRows {
            starts,
            entries,
            cross,
        }
    }

    fn row(&self, dst: usize) -> &[(usize, u64)] {
        &self.entries[self.starts[dst]..self.starts[dst + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Communicator;
    use simnet::{run_cluster, ClusterConfig, SimTime};

    #[test]
    fn barrier_aligns_clocks() {
        let out = run_cluster(ClusterConfig::ideal(4), |ep| {
            // Skew the ranks, then barrier; afterwards all clocks agree.
            ep.compute(SimTime::secs(ep.rank() as f64));
            let comm = Communicator::world(&ep);
            comm.barrier();
            ep.now().as_secs()
        });
        let reference = out[0];
        assert!(out.iter().all(|&t| (t - reference).abs() < 1e-12));
        assert!(reference >= 3.0, "barrier completes no earlier than last entry");
    }

    #[test]
    fn allgather_t_shares_typed_values() {
        let out = run_cluster(ClusterConfig::ideal(3), |ep| {
            let comm = Communicator::world(&ep);
            comm.allgather_t((comm.rank(), comm.rank() * 100), 16)
        });
        for got in &out {
            assert_eq!(**got, [(0, 0), (1, 100), (2, 200)]);
        }
    }

    /// One gathered table per collective: every member of an
    /// `allgather_t` holds the meeting's `Rc`.
    #[test]
    fn every_member_gets_the_meetings_arc() {
        let out = run_cluster(ClusterConfig::ideal(6), |ep| {
            let comm = Communicator::world(&ep);
            comm.allgather_t(comm.rank() as u64, 8)
        });
        for typed in &out {
            assert!(Rc::ptr_eq(typed, &out[0]));
        }
        assert_eq!(*out[0], [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn alltoall_sizes_transposes_and_charges_congestion() {
        // Cross-rank traffic pays the congestion term; diagonal-only does
        // not.
        let run = |cross: bool| {
            run_cluster(
                {
                    let mut c = ClusterConfig::ideal(8);
                    c.net.noise_quad = simnet::SimTime::micros(100.0);
                    c
                },
                move |ep| {
                    let comm = Communicator::world(&ep);
                    let me = comm.rank();
                    let row: Vec<u64> = (0..8)
                        .map(|d| if cross || d == me { 100 } else { 0 })
                        .collect();
                    let got = comm.alltoall_sizes(row);
                    // Transposition check.
                    for (src, &v) in got.iter().enumerate() {
                        let expect = if cross || src == me { 100 } else { 0 };
                        assert_eq!(v, expect);
                    }
                    ep.now().as_secs()
                },
            )[0]
        };
        let t_self = run(false);
        let t_cross = run(true);
        // quad = 100us * 64 = 6.4ms difference.
        assert!(t_cross > t_self + 5e-3, "self {t_self} cross {t_cross}");
    }

    #[test]
    fn sparse_sizes_drop_zeros_and_come_back_sorted() {
        let out = run_cluster(ClusterConfig::ideal(4), |ep| {
            let comm = Communicator::world(&ep);
            let me = comm.rank();
            // Everyone announces to rank 2 (descending destinations, a
            // zero in between); rank 3 announces nothing.
            let entries = match me {
                3 => vec![],
                _ => vec![(3, 0), (2, 10 + me as u64), (0, 5)],
            };
            comm.alltoall_sizes_sparse(entries)
        });
        assert_eq!(*out[0], [(0, 5), (1, 5), (2, 5)]);
        assert_eq!(*out[1], []);
        assert_eq!(*out[2], [(0, 10), (1, 11), (2, 12)]);
        assert_eq!(*out[3], []);
    }

    /// One bucketed table per sparse exchange: every member's row is a
    /// view of the meeting's `Rc`, as an allgather's table is.
    #[test]
    fn every_members_sparse_row_views_one_meeting_result() {
        let out = run_cluster(ClusterConfig::ideal(5), |ep| {
            let comm = Communicator::world(&ep);
            let me = comm.rank();
            // Everyone announces `me + 1` bytes to its right neighbour.
            let sizes = comm.alltoall_sizes_sparse([((me + 1) % 5, me as u64 + 1)]);
            let counts = comm.alltoall_counts_sparse([(me, 1)]);
            (sizes, counts)
        });
        for (me, (sizes, counts)) in out.iter().enumerate() {
            assert!(Rc::ptr_eq(&sizes.rows, &out[0].0.rows));
            assert!(Rc::ptr_eq(&counts.rows, &out[0].1.rows));
            assert!(
                !Rc::ptr_eq(&sizes.rows, &counts.rows),
                "one result per exchange"
            );
            let left = (me + 4) % 5;
            assert_eq!(**sizes, [(left, left as u64 + 1)]);
            assert_eq!(**counts, [(me, 1)]);
        }
    }

    /// What one run of a size-exchange sequence leaves behind: every
    /// rank's results (as dense rows) and final clock, the exported
    /// trace and the metrics document.
    type ExchangeRun = (Vec<(Vec<Vec<u64>>, u64)>, String, String);

    /// Exchange the rows of each matrix in turn on `p` ranks whose clocks
    /// are skewed apart, through the sparse form or the dense oracle.
    fn exchange_run(p: usize, matrices: &[Vec<Vec<u64>>], sparse: bool) -> ExchangeRun {
        let sink = simtrace::TraceSink::enabled();
        let mut cfg = ClusterConfig::cray_xt(p, simnet::Mapping::Block);
        cfg.trace = sink.clone();
        let matrices = matrices.to_vec();
        let out = run_cluster(cfg, move |ep| {
            ep.compute(SimTime::micros(ep.rank() as f64 * 3.0));
            let comm = Communicator::world(&ep);
            // `alltoall_sizes` is the sparse exchange under dense rows.
            let rows = matrices.iter().map(|m| match sparse {
                true => comm.alltoall_sizes(m[comm.rank()].clone()),
                false => comm.alltoall_sizes_dense(m[comm.rank()].clone()),
            });
            (rows.collect(), ep.now().as_secs().to_bits())
        });
        let trace = sink.finish();
        let exported = simtrace::chrome_trace_json(&trace);
        (out, exported, simtrace::metrics_json(&trace))
    }

    /// The sparse exchange against the dense one it replaced, on random
    /// size matrices and the shapes the engine produces — empty rows
    /// (non-aggregators), a diagonal (every aggregator its own only
    /// source: no cross traffic, no congestion term), one full row —
    /// in the default pop order and in a shuffled one: same
    /// results, same clocks, same trace, same metrics.
    #[test]
    fn sparse_alltoall_sizes_is_the_dense_exchange_bit_for_bit() {
        use proptest::strategy::Strategy;
        // One cell in four is non-zero.
        let cell = (0u8..4, 1u64..5_000_000).prop_map(|(keep, b)| if keep == 0 { b } else { 0 });
        let mut rng = proptest::test_runner::TestRng::deterministic("sparse_alltoall_sizes");
        for case in 0..24 {
            let p = (2usize..10).generate(&mut rng);
            let row = proptest::collection::vec(&cell, p..p + 1);
            let matrix = proptest::collection::vec(row, p..p + 1);
            let (mut matrices, shape) =
                (proptest::collection::vec(matrix, 1..4), 0usize..4).generate(&mut rng);
            let first = &mut matrices[0];
            match shape {
                // Empty rows: only every third rank announces anything.
                0 => {
                    for r in (0..p).filter(|r| r % 3 != 0) {
                        first[r] = vec![0; p];
                    }
                }
                // Diagonal only.
                1 => {
                    for (r, row) in first.iter_mut().enumerate() {
                        *row = (0..p).map(|d| row[d] * (d == r) as u64).collect();
                    }
                }
                // One full row, the others as drawn.
                2 => first[p / 2] = (1..=p as u64).collect(),
                _ => {}
            }
            for order in [simnet::PopOrder::Fixed, simnet::PopOrder::Shuffled(case)] {
                simnet::set_pop_order(order);
                let sparse = exchange_run(p, &matrices, true);
                let dense = exchange_run(p, &matrices, false);
                let what = format!("case {case}, {p} ranks, {order:?}");
                assert_eq!(sparse.0, dense.0, "{what}: results or clocks");
                assert!(sparse.1.contains("alltoall_sizes"), "{what}: no rdv span");
                assert!(sparse.1 == dense.1, "{what}: exported traces differ");
                assert!(sparse.2 == dense.2, "{what}: metrics documents differ");
                // Rows really were transposed.
                for (dst, (rows, _)) in sparse.0.iter().enumerate() {
                    for (m, row) in matrices.iter().zip(rows) {
                        let want: Vec<u64> = (0..p).map(|src| m[src][dst]).collect();
                        assert_eq!(row, &want, "{what}: rank {dst}");
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_sum_and_max() {
        let out = run_cluster(ClusterConfig::ideal(4), |ep| {
            let comm = Communicator::world(&ep);
            let r = comm.rank() as u64;
            let sum = comm.allreduce_u64(&[r, 1], ReduceOp::Sum);
            let max = comm.allreduce_u64(&[r, 1], ReduceOp::Max);
            (sum, max)
        });
        for (sum, max) in &out {
            assert_eq!(**sum, [6, 4]);
            assert_eq!(**max, [3, 1]);
            assert!(Rc::ptr_eq(sum, &out[0].0), "one result per allreduce");
        }
    }

    #[test]
    fn collectives_on_subcommunicators_are_independent() {
        let out = run_cluster(ClusterConfig::ideal(6), |ep| {
            let world = Communicator::world(&ep);
            let sub = world.split(Some((ep.rank() % 2) as i64), 0).unwrap();
            let sums = sub.allreduce_u64(&[ep.rank() as u64], ReduceOp::Sum);
            sums[0]
        });
        // Even group {0,2,4}: 6. Odd group {1,3,5}: 9.
        assert_eq!(out, vec![6, 9, 6, 9, 6, 9]);
    }

    /// The per-round size exchange, the collective that is the wall,
    /// grows with the group: pairwise, 8× the ranks costs well over 4×.
    #[test]
    fn collective_cost_grows_with_group_size() {
        let time_for = |n: usize| {
            let out = run_cluster(ClusterConfig::cray_xt(n, simnet::Mapping::Block), |ep| {
                let comm = Communicator::world(&ep);
                let _ = comm.alltoall_sizes(vec![8; comm.size()]);
                ep.now().as_secs()
            });
            out[0]
        };
        let t8 = time_for(8);
        let t64 = time_for(64);
        assert!(
            t64 > 4.0 * t8,
            "pairwise size exchange cost must grow ~linearly: t8={t8} t64={t64}"
        );
    }
}
