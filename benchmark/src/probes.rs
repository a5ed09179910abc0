//! Layer probes: benchmark-owned timed calls into each crate's public
//! functions on the workload's own views, offsets and rank count.
//!
//! The in-program profiler books most of a run to the `fiber_run`
//! catch-all frame (rank code it cannot see into), so the per-layer host
//! numbers come from outside: every probe repeats one public function for
//! a fixed host-time budget and reports the median cost per call.

use crate::metrics::median;
use crate::spans::Spans;
use crate::spec::{Scale, Spec};
use h5lite::H5File;
use mpiio::twophase::domains::compute_file_domains;
use mpiio::twophase::reqs::calc_my_req;
use mpiio::{AccessPlan, Ext, FileView};
use parcoll::aggdist::distribute_aggregators;
use parcoll::{partition_file_areas, LogicalMap};
use simfs::{FileSystem, FsConfig};
use simmpi::{Communicator, Info};
use simnet::{run_cluster, ClusterConfig, IoBuffer, Mapping, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use workloads::runner::IoMode;

/// Piece size of the `IoBuffer` copy probe (a typical exchange piece).
const PIECE_BYTES: usize = 64 << 10;
/// Collective operations per rank inside one probe cluster, so that the
/// cluster's spawn cost is a small, subtracted share.
const OPS_PER_CLUSTER: usize = 20;

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Probe runner: names, budget, results.
pub struct Probes<'a> {
    spans: &'a mut Spans,
    /// Minimum host seconds each probe repeats for.
    budget_s: f64,
    /// Bytes moved by the bandwidth probes (checksum, copy, real storage
    /// I/O): well past the last-level cache at full scale.
    bulk_bytes: usize,
    /// Metric name → value, in probe order.
    pub values: BTreeMap<String, f64>,
}

impl<'a> Probes<'a> {
    /// Full scale: 0.2 s and 64 MiB per probe; the self-test miniatures
    /// only need every probe to run.
    pub fn new(spans: &'a mut Spans, scale: Scale) -> Self {
        let (budget_s, bulk_bytes) = match scale {
            Scale::Full => (0.2, 64 << 20),
            Scale::Mini => (0.002, 1 << 20),
        };
        Probes {
            spans,
            budget_s,
            bulk_bytes,
            values: BTreeMap::new(),
        }
    }

    /// Repeat `rep` until the budget is spent (at least five times). Each
    /// repetition returns the host seconds it measured and the units of
    /// work done in them; the median seconds per unit is recorded under
    /// `metric` in the unit its name ends in, and returned.
    fn per_unit(&mut self, metric: &str, mut rep: impl FnMut() -> (f64, f64)) -> f64 {
        let span = format!("probe.{}", metric.replace("probe_", ""));
        let budget = self.budget_s;
        let (samples, _) = self.spans.within(&span, None, |_| {
            let started = Instant::now();
            let mut samples = Vec::new();
            while samples.len() < 5 || started.elapsed().as_secs_f64() < budget {
                let (s, units) = rep();
                samples.push(s / units);
            }
            samples
        });
        let secs_per_unit = median(&samples);
        let value = match metric.rsplit('_').next() {
            Some("us") => secs_per_unit * 1e6,
            Some("mbps") => 1.0 / secs_per_unit / 1e6,
            _ => secs_per_unit,
        };
        self.values.insert(metric.to_string(), value);
        secs_per_unit
    }

    /// [`per_unit`](Self::per_unit) for the common case: each repetition
    /// is one timed call of `f` doing `units` of work.
    fn timed<T>(&mut self, metric: &str, units: f64, mut f: impl FnMut() -> T) -> f64 {
        self.per_unit(metric, || (secs(|| drop(black_box(f()))), units))
    }

    /// Run every layer probe for `spec`.
    pub fn run_all(&mut self, spec: &Spec, seed: u64) {
        self.mpiio_and_parcoll(spec);
        self.simnet_and_simmpi(spec.nprocs());
        self.simfs(seed);
        self.h5lite(spec.nprocs().min(64), seed);
    }

    fn mpiio_and_parcoll(&mut self, spec: &Spec) {
        let access = spec.access();
        let n = access.len();
        // A rank from the middle of the grid: edge ranks of a tiled
        // dataset see fewer neighbours than the typical one.
        let mid = n / 2;
        let ((disp, ft), (off, bytes)) = access[mid].clone();

        self.timed("mpiio.probe_flatten_us", 1.0, || black_box(&ft).flatten());
        let view = FileView::new(disp, &ft);
        self.timed("mpiio.probe_extents_us", 1.0, || view.extents(off, bytes));

        let plans: Vec<AccessPlan> = access
            .iter()
            .map(|((d, t), (o, b))| AccessPlan::from_view(&FileView::new(*d, t), *o, *b))
            .collect();
        let ranges: Vec<Option<(u64, u64)>> =
            plans.iter().map(|p| p.start().zip(p.end())).collect();
        let min_st = ranges.iter().flatten().map(|r| r.0).min().unwrap_or(0);
        let max_end = ranges.iter().flatten().map(|r| r.1).max().unwrap_or(0);
        // The default aggregator set: one per dual-core node.
        let agg_ranks: Vec<usize> = (0..n).step_by(2).collect();
        let naggs = agg_ranks.len();
        self.timed("mpiio.probe_domains_us", 1.0, || {
            compute_file_domains(black_box(min_st), max_end, naggs)
        });
        let domains = compute_file_domains(min_st, max_end, naggs);
        self.timed("mpiio.probe_my_req_us", 1.0, || {
            calc_my_req(&plans[mid], &domains)
        });

        let groups = match spec.legs[1].mode {
            IoMode::Parcoll { groups } => groups,
            _ => 1,
        };
        self.timed("parcoll.probe_partition_us", 1.0, || {
            partition_file_areas(black_box(&ranges), groups)
        });
        let group_of: Vec<usize> = (0..n).map(|r| r * groups / n).collect();
        self.timed("parcoll.probe_aggdist_us", 1.0, || {
            distribute_aggregators(&agg_ranks, &group_of, groups, |r| r / 2)
        });

        let extent_lists: Vec<Vec<Ext>> = access
            .iter()
            .map(|((d, t), (o, b))| FileView::new(*d, t).extents(*o, *b))
            .collect();
        // `LogicalMap::new` consumes its input; the copy stays untimed.
        self.per_unit("parcoll.probe_iview_build_us", || {
            let lists = extent_lists.clone();
            (secs(|| drop(black_box(LogicalMap::new(lists)))), 1.0)
        });
        let map = LogicalMap::new(extent_lists);
        // One round window: a collective buffer's worth of logical bytes
        // from the middle of the logical file.
        let window = map.total().min(4 << 20);
        let at = (map.total() - window) / 2;
        self.timed("parcoll.probe_iview_translate_us", 1.0, || {
            map.to_physical(black_box(at), window)
        });
    }

    fn simnet_and_simmpi(&mut self, n: usize) {
        let cluster = || ClusterConfig::cray_xt(n, Mapping::Block);
        let spawn_s = self.timed("simnet.probe_spawn_us", n as f64, || {
            run_cluster(cluster(), |_| ())
        }) * n as f64;

        // Host µs per rank per operation, with the spawn cost of the
        // probe's own cluster taken out; the operation's virtual cost
        // comes back from rank 0.
        let collective = |this: &mut Self, metric: &str, op: fn(&Communicator<'_>)| -> f64 {
            let mut sim_us = 0.0;
            this.per_unit(metric, || {
                let mut out = Vec::new();
                let s = secs(|| {
                    out = run_cluster(cluster(), move |ep| {
                        let comm = Communicator::world(&ep);
                        let t0 = ep.now();
                        for _ in 0..OPS_PER_CLUSTER {
                            op(&comm);
                        }
                        (ep.now() - t0).as_micros() / OPS_PER_CLUSTER as f64
                    });
                });
                sim_us = out[0];
                ((s - spawn_s).max(0.0), (n * OPS_PER_CLUSTER) as f64)
            });
            sim_us
        };
        let sim_barrier = collective(self, "simmpi.probe_barrier_us", |c| c.barrier());
        collective(self, "simmpi.probe_allgather_us", |c| {
            drop(black_box(c.allgather_t((c.rank() as u64, 0u64), 16)))
        });
        let sim_alltoall = collective(self, "simmpi.probe_alltoall_us", |c| {
            drop(black_box(c.alltoall_sizes(vec![1; c.size()])))
        });
        collective(self, "simmpi.probe_p2p_us", |c| {
            let (me, p) = (c.rank(), c.size());
            c.isend((me + 1) % p, 7, IoBuffer::synthetic(PIECE_BYTES));
            drop(black_box(c.waitall(&[c.irecv((me + p - 1) % p, 7)])));
        });
        self.values
            .insert("simmpi.sim_barrier_us".to_string(), sim_barrier);
        self.values
            .insert("simmpi.sim_alltoall_us".to_string(), sim_alltoall);

        let bulk_bytes = self.bulk_bytes;
        let bulk: Vec<u8> = (0..bulk_bytes).map(|i| (i * 31) as u8).collect();
        self.timed("simnet.probe_cksum_mbps", bulk_bytes as f64, || {
            simnet::fnv1a(black_box(&bulk))
        });
        // The pack/unpack idiom: window a real buffer piece by piece and
        // copy each piece into place.
        let src = IoBuffer::from_vec(bulk);
        let mut dst = IoBuffer::zeroed(bulk_bytes);
        self.timed("simnet.probe_iobuf_copy_mbps", bulk_bytes as f64, || {
            for at in (0..bulk_bytes).step_by(PIECE_BYTES) {
                dst.copy_in(at, &src.sub(at, PIECE_BYTES));
            }
        });
        black_box(dst.as_slice());
    }

    fn simfs(&mut self, seed: u64) {
        let cfg = FsConfig {
            seed,
            ..FsConfig::jaguar()
        };
        let stripe = cfg.default_stripe_size as usize;
        let fs = FileSystem::new(cfg);
        let (file, _) = fs.open("/probe", SimTime::ZERO);
        // Walk stripe by stripe so every OST takes its turn; arrivals
        // follow the file system's drain time so queues stay shallow.
        let mut k = 0u64;
        let mut next = move || {
            k += 1;
            (k % 4096) * stripe as u64
        };
        let chunk = IoBuffer::synthetic(stripe);
        self.timed("simfs.probe_write_us", 1.0, || {
            file.write_at(next(), &chunk, fs.drain_time())
        });
        self.timed("simfs.probe_read_us", 1.0, || {
            file.read_at(next(), stripe, fs.drain_time())
        });
        // 64 quarter-full 64 KiB rows: the restart workload's hole shape.
        let extents: Vec<(u64, u64)> = (0..64u64)
            .map(|i| (i * PIECE_BYTES as u64, PIECE_BYTES as u64 / 4))
            .collect();
        self.timed("simfs.probe_read_list_us", extents.len() as f64, || {
            file.read_list(&extents, fs.drain_time())
        });

        let (real, _) = fs.open("/probe_real", SimTime::ZERO);
        let bulk_bytes = self.bulk_bytes;
        let data = IoBuffer::from_vec((0..bulk_bytes).map(|i| (i * 131) as u8).collect());
        self.timed("simfs.probe_real_write_mbps", bulk_bytes as f64, || {
            real.write_at(0, &data, fs.drain_time())
        });
        // Read back stripe by stripe, as the aggregators do: each buffer
        // is dropped before the next read, so `IoBuffer`'s pool hands the
        // same backing store back and the probe times the storage layer,
        // not the kernel faulting in a fresh 64 MiB mapping.
        self.timed("simfs.probe_real_read_mbps", bulk_bytes as f64, || {
            for at in (0..bulk_bytes).step_by(stripe) {
                let len = stripe.min(bulk_bytes - at);
                drop(black_box(real.read_at(at as u64, len, fs.drain_time())));
            }
        });
    }

    /// A Flash-style checkpoint through the hierarchical container: 24
    /// datasets of real 4 KiB blocks, four blocks per rank and dataset.
    fn h5lite(&mut self, n: usize, seed: u64) {
        const NVARS: usize = 24;
        const BLOCKS_PER_RANK: u64 = 4;
        const NB: u64 = 8; // 8³ cells of 8 bytes = one 4 KiB block
        let rank_bytes = BLOCKS_PER_RANK * NB * NB * NB * 8;
        let names: Vec<String> = (0..NVARS).map(|v| format!("var{v:02}")).collect();
        let mut sim_s = 0.0;
        self.timed("h5lite.probe_ckpt_host_s", 1.0, || {
            let fs = FileSystem::new(FsConfig {
                seed,
                ..FsConfig::jaguar()
            });
            let names = names.clone();
            let out = run_cluster(ClusterConfig::cray_xt(n, Mapping::Block), move |ep| {
                let comm = Communicator::world(&ep);
                let rank = comm.rank() as u64;
                let block = IoBuffer::from_vec(vec![rank as u8; rank_bytes as usize]);
                comm.barrier();
                let t0 = ep.now();
                let mut h5 = H5File::create(&comm, &fs, "/ckpt.h5", &Info::new());
                for name in &names {
                    let ds = h5.create_dataset(name, &[n as u64 * BLOCKS_PER_RANK, NB, NB, NB], 8);
                    ds.write_slab_all(
                        h5.raw(),
                        &[rank * BLOCKS_PER_RANK, 0, 0, 0],
                        &[BLOCKS_PER_RANK, NB, NB, NB],
                        &block,
                    );
                }
                h5.close();
                comm.barrier();
                (ep.now() - t0).as_secs()
            });
            sim_s = out[0];
        });
        self.values.insert(
            "h5lite.sim_ckpt_mbps".to_string(),
            (n * NVARS) as f64 * rank_bytes as f64 / sim_s / 1e6,
        );
    }
}
