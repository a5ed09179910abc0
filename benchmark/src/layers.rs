//! Per-layer metrics, from three sources outside the crates: **R** — the
//! results of the untraced iterations; **T** — the traced iteration
//! (virtual-time trace plus host profiler); **P** — the layer probes.

use crate::child::Timings;
use crate::metrics::{median, LEGS};
use crate::spec::LegSim;
use simtrace::host::{Report, Site};
use simtrace::{ArgValue, CriticalPath, Event, Trace, TrackKey};
use std::collections::BTreeMap;

/// The paper's measured synchronisation share of a 512-process
/// MPI-Tile-IO write (§2.2), percent.
const PAPER_SYNC_SHARE_PCT: f64 = 72.0;
/// The paper's ParColl-64 improvement over the baseline on 512-process
/// MPI-Tile-IO (§5.2), percent.
const PAPER_SPEEDUP_PCT: f64 = 210.0;

/// What the traced execution of one leg yielded.
pub struct TracedLeg {
    /// Host seconds of the traced `run_workload` call.
    pub wall_s: f64,
    /// Point-to-point sends.
    pub p2p_sends: u64,
    /// Point-to-point bytes sent.
    pub p2p_bytes: f64,
    /// Collective operations (one per rendezvous).
    pub coll_ops: u64,
    /// Rank entries into collectives (sum of participants).
    pub coll_entries: u64,
    /// Virtual seconds ranks sat waiting in collectives.
    pub coll_wait_s: f64,
    /// OST requests served.
    pub ost_requests: u64,
    /// Aggregator rounds served by one covering read.
    pub sieve_covering_reads: u64,
    /// Coalesced runs fetched by list I/O.
    pub sieve_list_reads: u64,
    /// Subgroups of the last partitioning (rank 0's view).
    pub groups: u64,
    /// Any partitioning switched to the intermediate file view.
    pub iview_used: bool,
    /// Non-empty file-area boundaries (rank 0's count).
    pub fa_boundaries: u64,
    /// File areas merged away after aggregator loss (rank 0's count).
    pub fa_merges: u64,
    /// Events in the trace.
    pub events: u64,
    /// Critical-path share inside `sync` phases, percent.
    pub cp_sync_pct: f64,
    /// Critical-path share inside `io` phases, percent.
    pub cp_io_pct: f64,
    /// Host seconds of `TraceSink::finish`.
    pub finish_s: f64,
    /// Host seconds of `critical_path`.
    pub critical_path_s: f64,
    /// Host seconds of `metrics_json` + `chrome_trace_json`.
    pub export_s: f64,
    /// The host profiler's report for this leg.
    pub host: Report,
}

impl TracedLeg {
    /// Fold a finished trace and profiler report.
    pub fn new(
        wall_s: f64,
        trace: &Trace,
        path: Option<&CriticalPath>,
        host: Report,
        finish_s: f64,
        critical_path_s: f64,
        export_s: f64,
    ) -> Self {
        let counter = |name: &str| -> u64 {
            trace
                .tracks
                .iter()
                .filter_map(|t| t.counters.get(name))
                .sum()
        };
        let ops = simtrace::collective_ops(trace);
        let rank0 = trace.track(TrackKey::Rank(0));
        let rank0_counter = |name: &str| {
            rank0
                .and_then(|t| t.counters.get(name).copied())
                .unwrap_or(0)
        };
        let mut groups = 1;
        let mut iview_used = false;
        for event in rank0.map_or(&[][..], |t| &t.events[..]) {
            let Event::Instant {
                cat: "parcoll",
                name,
                args,
                ..
            } = event
            else {
                continue;
            };
            if name != "partition" {
                continue;
            }
            for (key, value) in args {
                match (*key, value) {
                    ("groups", ArgValue::U64(g)) => groups = *g,
                    ("pattern", ArgValue::Str(p)) => iview_used |= p.as_ref() == "iview",
                    _ => {}
                }
            }
        }
        let cp_share = |phase: &str| {
            path.map_or(0.0, |p| {
                100.0 * p.breakdown().get(phase).copied().unwrap_or(0.0)
                    / p.wall_us.max(f64::MIN_POSITIVE)
            })
        };
        TracedLeg {
            wall_s,
            p2p_sends: counter("p2p_sends"),
            p2p_bytes: trace
                .tracks
                .iter()
                .filter_map(|t| t.hists.get("p2p_send_bytes"))
                // An empty float `sum()` is -0.0; start from +0.0.
                .fold(0.0, |bytes, h| bytes + h.sum),
            coll_ops: ops.len() as u64,
            coll_entries: ops.iter().map(|o| o.participants).sum(),
            coll_wait_s: ops.iter().fold(0.0, |us, o| us + o.total_wait_us) / 1e6,
            ost_requests: counter("ost_requests"),
            sieve_covering_reads: counter("sieve_covering_reads"),
            sieve_list_reads: counter("sieve_list_reads"),
            groups,
            iview_used,
            fa_boundaries: rank0_counter("fa_boundaries"),
            fa_merges: rank0_counter("fa_merges"),
            events: trace.tracks.iter().map(|t| t.events.len() as u64).sum(),
            cp_sync_pct: cp_share("sync"),
            cp_io_pct: cp_share("io"),
            finish_s,
            critical_path_s,
            export_s,
            host,
        }
    }

    /// Self seconds the host profiler booked to `sites`.
    pub fn site_s(&self, sites: &[Site]) -> f64 {
        self.host
            .by_site()
            .iter()
            .filter(|s| sites.contains(&s.site))
            .map(|s| s.self_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    fn subsystem_s(&self, subsystem: &str) -> f64 {
        self.host
            .by_subsystem()
            .iter()
            .filter(|(name, _)| *name == subsystem)
            .map(|(_, ns)| *ns)
            .sum::<u64>() as f64
            / 1e9
    }

    fn host_counter(&self, name: &str) -> f64 {
        self.host
            .counters
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
    }

    /// Share of the traced wall the profiler attributed to named sites,
    /// percent (the repo's attribution bar is 80).
    pub fn attributed_pct(&self) -> f64 {
        100.0 * self.host.attributed_ns() as f64 / 1e9 / self.wall_s.max(f64::MIN_POSITIVE)
    }
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInput<'a> {
    /// **R**: each leg's reference result (panel member 0: the file
    /// system seeded with the run's seed itself).
    pub reference: &'a BTreeMap<&'static str, &'a LegSim>,
    /// **R**: host seconds of the untraced iterations.
    pub timings: &'a Timings,
    /// **T**: the traced iteration, by leg.
    pub traced: &'a BTreeMap<&'static str, TracedLeg>,
    /// **P**: probe results by metric name.
    pub probes: &'a BTreeMap<String, f64>,
    /// CPU seconds of the child so far.
    pub cpu_s: f64,
}

/// Every per-layer metric by name. All legs must be present in
/// `reference` and `traced`.
pub fn layer_metrics(input: &LayerInput<'_>) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = input.probes.clone();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    let sim = |leg: &str| input.reference[leg];
    let traced = |leg: &str| &input.traced[leg];
    let all = |f: &dyn Fn(&TracedLeg) -> f64| -> f64 { input.traced.values().map(f).sum() };
    // Fastest, not median: see `driver::measure_end_to_end`.
    let leg_host_s = |leg: &str| {
        let samples = input.timings.leg_host_s.get(leg);
        samples
            .and_then(|v| v.iter().copied().reduce(f64::min))
            .unwrap_or(0.0)
    };

    for leg in LEGS {
        let (r, t) = (sim(leg), traced(leg));
        put(&format!("workloads.leg_host_s.{leg}"), leg_host_s(leg));
        put(&format!("workloads.write_mbps.{leg}"), r.write_mbps());
        put(&format!("workloads.read_mbps.{leg}"), r.read_mbps());
        let events = (t.p2p_sends + t.ost_requests + t.coll_entries).max(1);
        put(
            &format!("workloads.host_us_per_event.{leg}"),
            leg_host_s(leg) * 1e6 / events as f64,
        );
        put(&format!("mpiio.sim_sync_s.{leg}"), r.sync_s);
        put(&format!("mpiio.sim_p2p_s.{leg}"), r.p2p_s);
        put(&format!("mpiio.sim_io_s.{leg}"), r.io_s);
        put(&format!("mpiio.sim_local_s.{leg}"), r.local_s);
        put(&format!("mpiio.sync_share_pct.{leg}"), r.sync_share_pct());
        put(&format!("mpiio.rounds.{leg}"), r.rounds as f64);
        put(&format!("simfs.ost_requests.{leg}"), r.ost_requests as f64);
        put(&format!("simfs.ost_bytes.{leg}"), r.ost_bytes as f64 / 1e6);
        put(&format!("simfs.max_ost_busy_s.{leg}"), r.max_ost_busy_s);
    }
    for leg in &LEGS[..2] {
        let t = traced(leg);
        put(&format!("simmpi.p2p_sends.{leg}"), t.p2p_sends as f64);
        put(&format!("simmpi.p2p_bytes.{leg}"), t.p2p_bytes / 1e6);
        put(&format!("simmpi.coll_ops.{leg}"), t.coll_ops as f64);
        put(&format!("simmpi.coll_wait_s.{leg}"), t.coll_wait_s);
        put(&format!("simtrace.cp_sync_pct.{leg}"), t.cp_sync_pct);
        put(&format!("simtrace.cp_io_pct.{leg}"), t.cp_io_pct);
    }
    put("workloads.host_cpu_s", input.cpu_s);

    let (base, pc) = (sim(LEGS[0]), sim(LEGS[1]));
    put(
        "mpiio.paper_sync_share_err_pts",
        (base.sync_share_pct() - PAPER_SYNC_SHARE_PCT).abs(),
    );
    put(
        "mpiio.sieve_covering_reads",
        all(&|t| t.sieve_covering_reads as f64),
    );
    put(
        "mpiio.sieve_list_reads",
        all(&|t| t.sieve_list_reads as f64),
    );
    put("mpiio.host_pack_s", all(&|t| t.site_s(&[Site::Pack])));
    put("mpiio.host_unpack_s", all(&|t| t.site_s(&[Site::Unpack])));
    put("mpiio.host_flatten_s", all(&|t| t.site_s(&[Site::Flatten])));
    put("mpiio.host_sieve_s", all(&|t| t.site_s(&[Site::SieveRead])));
    put(
        "mpiio.flatten_miss",
        all(&|t| t.host_counter("flatten_miss")),
    );

    // A sync-free ParColl leg would divide by zero; the cut is then
    // bounded by the base leg's own sync time in microseconds.
    put("parcoll.sync_cut_x", base.sync_s / pc.sync_s.max(1e-6));
    put("parcoll.speedup_x", pc.mbps() / base.mbps());
    put(
        "parcoll.paper_speedup_err_pct",
        ((pc.mbps() / base.mbps() - 1.0) * 100.0 - PAPER_SPEEDUP_PCT).abs(),
    );
    let t_pc = traced(LEGS[1]);
    put("parcoll.groups", t_pc.groups as f64);
    put("parcoll.iview_used", f64::from(u8::from(t_pc.iview_used)));
    put("parcoll.fa_boundaries", t_pc.fa_boundaries as f64);
    put("parcoll.fa_merges", t_pc.fa_merges as f64);
    put("parcoll.host_self_s", all(&|t| t.subsystem_s("parcoll")));

    put("simmpi.host_self_s", all(&|t| t.subsystem_s("simmpi")));

    let traced_wall_s = all(&|t| t.wall_s);
    let fiber_run_s = all(&|t| t.site_s(&[Site::FiberRun]));
    put("simnet.host_fiber_run_s", fiber_run_s);
    put(
        "simnet.host_fiber_sched_s",
        all(&|t| t.site_s(&[Site::FiberSched])),
    );
    put(
        "simnet.host_mbox_s",
        all(&|t| t.site_s(&[Site::MboxDeliver, Site::MboxRecv])),
    );
    put(
        "simnet.host_pool_s",
        all(&|t| t.site_s(&[Site::PoolTake, Site::PoolPut])),
    );
    put(
        "simnet.fiber_run_share_pct",
        100.0 * fiber_run_s / traced_wall_s.max(f64::MIN_POSITIVE),
    );
    put("simnet.pool_miss", all(&|t| t.host_counter("pool_miss")));

    put("simfs.imbalance", pc.imbalance);
    put(
        "simfs.image_resident_mb",
        LEGS.iter()
            .map(|l| sim(l).image_resident_bytes)
            .max()
            .unwrap_or(0) as f64
            / 1e6,
    );
    put(
        "simfs.integrity_repaired",
        LEGS.iter().map(|l| sim(l).integrity_repaired).sum::<u64>() as f64,
    );
    put(
        "simfs.host_ost_serve_s",
        all(&|t| t.site_s(&[Site::OstServe])),
    );
    put(
        "simfs.host_cksum_s",
        all(&|t| t.site_s(&[Site::CksumCompute, Site::CksumVerify])),
    );

    let untraced_wall_s = if input.timings.iter_wall_s.is_empty() {
        traced_wall_s
    } else {
        median(&input.timings.iter_wall_s)
    };
    put(
        "simtrace.trace_overhead_pct",
        100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s.max(f64::MIN_POSITIVE),
    );
    put("simtrace.events", all(&|t| t.events as f64));
    put(
        "simtrace.host_record_s",
        all(&|t| t.site_s(&[Site::TraceRecord, Site::TraceSpill])),
    );
    put("simtrace.finish_s", all(&|t| t.finish_s));
    put("simtrace.critical_path_s", all(&|t| t.critical_path_s));
    put("simtrace.export_s", all(&|t| t.export_s));
    put("simtrace.hostprof_dropped", all(&|t| t.host.dropped as f64));
    out
}
