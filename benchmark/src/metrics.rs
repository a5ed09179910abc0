//! The benchmark's vocabulary: workloads, legs, metric names, units,
//! directions and regression bounds — the single source `BENCHMARK.json`
//! is generated from (`--manifest`) and checked against (self-tests).

use crate::json::{obj, text, texts, Json};

/// How long one run measures when the caller does not say (seconds);
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// The leg names. Every workload runs all three, in this order; one
/// *iteration* is every leg once.
pub const LEGS: [&str; 3] = ["base", "pc", "var"];

/// Tolerance for simulated metrics when both sides ran the same seed:
/// the repo's `regress` gate (the simulator is bit-reproducible, so on
/// one machine this is exact).
pub const SAME_SEED_TOLERANCE: f64 = 1e-6;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `better` string of `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock or host memory: noisy, compared through bounds.
    Host,
    /// Virtual time: repeats bit for bit under one seed.
    Simulated,
}

/// An end-to-end metric: what a user of the reproduction sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Clock the metric is read from.
    pub clock: Clock,
}

/// The end-to-end metrics, reported by every workload.
///
/// The simulated bounds cover the seed-to-seed spread of the OST jitter
/// and straggler draws (the contract compares medians taken over
/// *different* seeds); `--compare` tightens them to
/// [`SAME_SEED_TOLERANCE`] when both result sets ran one seed.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "host_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "sim_base_mbps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.20,
        clock: Clock::Simulated,
    },
    EndToEnd {
        name: "sim_pc_mbps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.20,
        clock: Clock::Simulated,
    },
    EndToEnd {
        name: "sim_var_mbps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.20,
        clock: Clock::Simulated,
    },
];

/// A per-layer metric (layers are the crates; the prefix names one).
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// Metric name, `<crate>.<what>[.<leg>]`.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// The per-layer metrics in report order: stem, unit, direction, and how
/// many of [`LEGS`] the metric exists for (0 = not per leg, 2 = `base`
/// and `pc`, 3 = every leg).
const PER_LAYER: &[(&str, &str, Better, usize)] = {
    use Better::{Higher, Lower};
    &[
        ("workloads.leg_host_s", "s", Lower, 3),
        ("workloads.write_mbps", "MB/s", Higher, 3),
        ("workloads.read_mbps", "MB/s", Higher, 3),
        ("workloads.host_us_per_event", "us", Lower, 3),
        ("workloads.host_cpu_s", "s", Lower, 0),
        ("mpiio.sim_sync_s", "s", Lower, 3),
        ("mpiio.sim_p2p_s", "s", Lower, 3),
        ("mpiio.sim_io_s", "s", Lower, 3),
        ("mpiio.sim_local_s", "s", Lower, 3),
        ("mpiio.sync_share_pct", "%", Lower, 3),
        ("mpiio.rounds", "count", Lower, 3),
        ("mpiio.paper_sync_share_err_pts", "pts", Lower, 0),
        ("mpiio.sieve_covering_reads", "count", Lower, 0),
        ("mpiio.sieve_list_reads", "count", Lower, 0),
        ("mpiio.host_pack_s", "s", Lower, 0),
        ("mpiio.host_unpack_s", "s", Lower, 0),
        ("mpiio.host_flatten_s", "s", Lower, 0),
        ("mpiio.host_sieve_s", "s", Lower, 0),
        ("mpiio.flatten_miss", "count", Lower, 0),
        ("mpiio.probe_flatten_us", "us", Lower, 0),
        ("mpiio.probe_extents_us", "us", Lower, 0),
        ("mpiio.probe_domains_us", "us", Lower, 0),
        ("mpiio.probe_my_req_us", "us", Lower, 0),
        ("parcoll.sync_cut_x", "x", Higher, 0),
        ("parcoll.speedup_x", "x", Higher, 0),
        ("parcoll.paper_speedup_err_pct", "%", Lower, 0),
        ("parcoll.groups", "count", Higher, 0),
        ("parcoll.iview_used", "count", Lower, 0),
        ("parcoll.fa_boundaries", "count", Higher, 0),
        ("parcoll.fa_merges", "count", Lower, 0),
        ("parcoll.host_self_s", "s", Lower, 0),
        ("parcoll.probe_partition_us", "us", Lower, 0),
        ("parcoll.probe_aggdist_us", "us", Lower, 0),
        ("parcoll.probe_iview_build_us", "us", Lower, 0),
        ("parcoll.probe_iview_translate_us", "us", Lower, 0),
        ("simmpi.p2p_sends", "count", Lower, 2),
        ("simmpi.p2p_bytes", "MB", Lower, 2),
        ("simmpi.coll_ops", "count", Lower, 2),
        ("simmpi.coll_wait_s", "s", Lower, 2),
        ("simmpi.host_self_s", "s", Lower, 0),
        ("simmpi.probe_barrier_us", "us", Lower, 0),
        ("simmpi.probe_allgather_us", "us", Lower, 0),
        ("simmpi.probe_alltoall_us", "us", Lower, 0),
        ("simmpi.probe_p2p_us", "us", Lower, 0),
        ("simmpi.sim_barrier_us", "us", Lower, 0),
        ("simmpi.sim_alltoall_us", "us", Lower, 0),
        ("simnet.host_fiber_run_s", "s", Lower, 0),
        ("simnet.host_fiber_sched_s", "s", Lower, 0),
        ("simnet.host_mbox_s", "s", Lower, 0),
        ("simnet.host_pool_s", "s", Lower, 0),
        ("simnet.fiber_run_share_pct", "%", Lower, 0),
        ("simnet.pool_miss", "count", Lower, 0),
        ("simnet.probe_spawn_us", "us", Lower, 0),
        ("simnet.probe_cksum_mbps", "MB/s", Higher, 0),
        ("simnet.probe_iobuf_copy_mbps", "MB/s", Higher, 0),
        ("simfs.ost_requests", "count", Lower, 3),
        ("simfs.ost_bytes", "MB", Lower, 3),
        ("simfs.max_ost_busy_s", "s", Lower, 3),
        ("simfs.imbalance", "ratio", Lower, 0),
        ("simfs.image_resident_mb", "MB", Lower, 0),
        ("simfs.integrity_repaired", "count", Lower, 0),
        ("simfs.host_ost_serve_s", "s", Lower, 0),
        ("simfs.host_cksum_s", "s", Lower, 0),
        ("simfs.probe_write_us", "us", Lower, 0),
        ("simfs.probe_read_us", "us", Lower, 0),
        ("simfs.probe_read_list_us", "us", Lower, 0),
        ("simfs.probe_real_write_mbps", "MB/s", Higher, 0),
        ("simfs.probe_real_read_mbps", "MB/s", Higher, 0),
        ("simtrace.trace_overhead_pct", "%", Lower, 0),
        ("simtrace.events", "count", Lower, 0),
        ("simtrace.host_record_s", "s", Lower, 0),
        ("simtrace.finish_s", "s", Lower, 0),
        ("simtrace.critical_path_s", "s", Lower, 0),
        ("simtrace.export_s", "s", Lower, 0),
        ("simtrace.hostprof_dropped", "count", Lower, 0),
        ("simtrace.cp_sync_pct", "%", Lower, 2),
        ("simtrace.cp_io_pct", "%", Lower, 2),
        ("h5lite.probe_ckpt_host_s", "s", Lower, 0),
        ("h5lite.sim_ckpt_mbps", "MB/s", Higher, 0),
    ]
};

/// Every per-layer metric, in report order, per-leg rows expanded.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for &(stem, unit, better, legs) in PER_LAYER {
        let names = match legs {
            0 => vec![stem.to_string()],
            n => LEGS[..n]
                .iter()
                .map(|leg| format!("{stem}.{leg}"))
                .collect(),
        };
        out.extend(
            names
                .into_iter()
                .map(|name| PerLayer { name, unit, better }),
        );
    }
    out
}

/// `BENCHMARK.json`, generated from this module and the workload list.
pub fn manifest(workloads: &[(&str, &str)]) -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = workloads
        .iter()
        .map(|&(name, why)| obj([("name", text(name)), ("why", text(why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        obj([
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = per_layer().into_iter().map(|m| {
        obj([
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
        ])
    });
    obj([
        ("command", texts(&command)),
        ("paths", texts(&["benchmark"])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
    .pretty()
        + "\n"
}

/// Order statistics of a sample, as printed beside every host metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `samples` (must be non-empty). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (exclusive method) from three
    /// samples up, so the spreads printed here are the ones the
    /// acceptance procedure computes.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quantile = |k: usize| {
            if n == 1 {
                return v[0];
            }
            // Python: j = k*(n+1)//4 clamped to [1, n-1], linear between
            // the j-th and (j+1)-th order statistics (1-based).
            let pos = k * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 - (j * 4) as f64;
            // Two samples would extrapolate past both; stay inside them.
            ((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0).clamp(v[0], v[n - 1])
        };
        Summary {
            n,
            min: v[0],
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
            max: v[n - 1],
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `samples` (must be non-empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn registry_respects_the_contract_limits() {
        let ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let layers = per_layer();
        assert!(
            END_TO_END.len() <= 16 && layers.len() <= 128,
            "{} per-layer metrics",
            layers.len()
        );
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(layers.iter().map(|m| m.name.as_str()));
        assert!(names.iter().all(|n| ok(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }
}
