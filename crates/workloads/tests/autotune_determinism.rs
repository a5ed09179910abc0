//! Determinism of the autotune control loop (DESIGN.md §11): the tuner's
//! decisions are pure functions of agreed virtual-time state, so two
//! identical tuned sweeps must make identical epoch-by-epoch decisions,
//! produce byte-identical file images and trace artifacts, and a cache-
//! resumed open must settle without re-exploring.

use parcoll::PolicyCache;
use simtrace::{chrome_trace_json, metrics_json, TraceSink};
use workloads::runner::{run_workload, IoMode, RunConfig, RunResult};
use workloads::tileio::TileIo;

/// One tuned epoch: a full open→write→read-back→close cycle resuming
/// from `cache`. Verify mode asserts the file image matches the
/// deterministic rank/call pattern byte for byte inside the run.
fn tuned_epoch(cache: &PolicyCache, trace: Option<&TraceSink>) -> RunResult {
    let mut cfg = RunConfig::verify(IoMode::Collective);
    cfg.autotune = Some(cache.clone());
    if let Some(t) = trace {
        cfg.trace = t.clone();
    }
    run_workload(TileIo::tiny(16), cfg)
}

fn sweep(epochs: usize) -> (Vec<RunResult>, String, String) {
    let cache = PolicyCache::new();
    let sink = TraceSink::enabled();
    let results = (0..epochs).map(|_| tuned_epoch(&cache, Some(&sink))).collect();
    let trace = sink.finish();
    (results, chrome_trace_json(&trace), metrics_json(&trace))
}

#[test]
fn identical_tuned_sweeps_decide_identically() {
    let (a, trace_a, metrics_a) = sweep(3);
    let (b, trace_b, metrics_b) = sweep(3);
    for (e, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(
            ra.autotune_log, rb.autotune_log,
            "epoch {e}: decisions must be identical across runs"
        );
        assert_eq!(
            ra.write_seconds, rb.write_seconds,
            "epoch {e}: virtual wall time must be bitwise reproducible"
        );
    }
    // The epochs ran under DataMode::Verify, so each run's file image
    // was checked byte-for-byte against the deterministic pattern —
    // identical decisions + verified images ⇒ identical images.
    assert_eq!(trace_a, trace_b, "tuned trace JSON must be byte-identical");
    assert_eq!(metrics_a, metrics_b, "tuned metrics JSON must be byte-identical");
}

#[test]
fn policy_cache_resumes_learned_state_across_opens() {
    let cache = PolicyCache::new();
    let mut explored = 0usize;
    let mut last_seconds = None;
    for _ in 0..6 {
        let r = tuned_epoch(&cache, None);
        if r.autotune_log.is_empty() {
            // Settled epoch: knobs held, zero tuning collectives — and
            // from here on the timeline must be in steady state.
            if let Some(prev) = last_seconds {
                assert_eq!(prev, r.write_seconds, "settled epochs must repeat exactly");
            }
            last_seconds = Some(r.write_seconds);
        } else {
            explored += r.autotune_log.len();
            last_seconds = None;
        }
    }
    assert!(explored >= 1, "the sweep must have explored at least one epoch");
    assert!(
        last_seconds.is_some(),
        "six epochs over one policy cache must reach the settled state"
    );
    // The verify-mode epochs write and read back; only the writes are
    // epochs, so one policy is learned.
    assert_eq!(cache.len(), 1, "reads learn no policy of their own");
}

#[test]
fn reads_are_no_epochs() {
    // An open that writes then reads: every logged epoch is one of the
    // writes, and the one cache entry is the write pattern's. An open
    // whose first collective is a read builds no tuner at all.
    use parcoll::ParcollFile;
    use simfs::{FileSystem, FsConfig};
    use simmpi::{Communicator, Info};
    use simnet::IoBuffer;

    const WRITES: usize = 4;
    let fs = FileSystem::new(FsConfig::tiny());
    let cache = PolicyCache::new();
    let cache2 = cache.clone();
    let cluster = simnet::ClusterConfig::cray_xt(8, simnet::Mapping::Block);
    let outs = simnet::run_cluster(cluster, move |ep| {
        let comm = Communicator::world(&ep);
        let info = Info::new()
            .with("parcoll_autotune", "true")
            .with("parcoll_min_group", 1);
        let n = 256usize;
        let off = |call: usize| ((call * 8 + comm.rank()) * n) as u64;

        let mut f = ParcollFile::open(&comm, &fs, "/rw", &info);
        f.set_policy_cache(cache2.clone());
        for call in 0..WRITES {
            f.write_at_all(off(call), &IoBuffer::synthetic(n));
        }
        let after_writes = f.autotune_log().map(<[_]>::to_vec);
        for call in 0..WRITES {
            f.read_at_all(off(call), n as u64);
        }
        let after_reads = f.autotune_log().map(<[_]>::to_vec);
        f.close();

        let mut f = ParcollFile::open(&comm, &fs, "/rw", &info);
        f.set_policy_cache(cache2.clone());
        f.read_at_all(off(0), n as u64);
        let read_first = f.autotune_log().is_none();
        f.close();
        (after_writes, after_reads, read_first)
    });
    let (after_writes, after_reads, read_first) = &outs[0];
    let log = after_writes.as_ref().expect("the first write builds the tuner");
    assert!(!log.is_empty() && log.len() <= WRITES, "one epoch per write: {log:?}");
    assert_eq!(after_reads, after_writes, "reads log no epoch");
    assert_eq!(cache.len(), 1, "one entry, the write pattern's");
    assert!(*read_first, "a read-first open builds no tuner");
}

#[test]
fn autotune_off_is_unchanged_by_the_cache_field() {
    // The control loop must be fully gated on the hint: a config with
    // `autotune: None` takes the exact pre-autotune code path, so two
    // runs (and their traces) stay byte-identical — the regress gate
    // extends this to bitwise identity against committed baselines.
    let run = || {
        let sink = TraceSink::enabled();
        let mut cfg = RunConfig::verify(IoMode::Parcoll { groups: 2 });
        cfg.trace = sink.clone();
        let r = run_workload(TileIo::tiny(16), cfg);
        assert!(r.autotune_log.is_empty(), "no tuner without the hint");
        let trace = sink.finish();
        (r.write_seconds, chrome_trace_json(&trace))
    };
    assert_eq!(run(), run());
}

#[test]
fn degraded_reopen_invalidates_healthy_policy() {
    // PR 4's degraded mode: an aggregator crash bumps the dead-set
    // epoch, which must invalidate policies learned on the healthy
    // cluster — a reopen after the crash must miss the cache and
    // re-explore instead of replaying a layout the dead aggregator
    // anchored. One cluster, three opens of the same file: learn, resume
    // settled, then resume degraded.
    use parcoll::ParcollFile;
    use simfs::{FileSystem, FsConfig};
    use simmpi::{Communicator, Info};
    use simnet::IoBuffer;

    let fs = FileSystem::new(FsConfig::tiny());
    let cache = PolicyCache::new();
    // The crash rule keeps the degraded-mode machinery armed but fires
    // far past this test's write rounds; the dead set is bumped
    // explicitly below so the invalidation point is deterministic.
    let plan = std::sync::Arc::new(simnet::FaultPlan::new(11).aggregator_crash(0, 1_000_000));
    fs.install_faults(&plan);
    let cluster = simnet::ClusterConfig {
        topology: simnet::Topology::dual_core(8, simnet::Mapping::Block),
        net: simnet::NetworkModel::cray_xt_seastar(),
        machine: simnet::MachineModel::catamount(),
        stack_size: simnet::default_stack_size(),
        trace: TraceSink::disabled(),
        faults: Some(plan),
    };
    let fs2 = fs.clone();
    let cache2 = cache.clone();
    let outs: Vec<(usize, usize)> = simnet::run_cluster(cluster, move |ep| {
        let comm = Communicator::world(&ep);
        let info = Info::new()
            .with("parcoll_autotune", "true")
            .with("parcoll_min_group", 1);
        let n = 256usize;
        let write_epochs = |f: &mut ParcollFile<'_>, k: usize| {
            for call in 0..k {
                let off = ((call * 8 + comm.rank()) * n) as u64;
                f.write_at_all(off, &IoBuffer::synthetic(n));
            }
        };

        // Open 1: learn until settled, store under dead-set epoch 0.
        let mut f = ParcollFile::open(&comm, &fs2, "/inv", &info);
        f.set_policy_cache(cache2.clone());
        write_epochs(&mut f, 6);
        f.close();

        // Open 2 (still healthy): the learned policy resumes settled —
        // no exploration, empty log.
        let mut f = ParcollFile::open(&comm, &fs2, "/inv", &info);
        f.set_policy_cache(cache2.clone());
        write_epochs(&mut f, 1);
        let resumed_log = f.autotune_log().map_or(0, <[_]>::len);
        f.close();

        // The crash: every rank learns rank 0's aggregator died, bumping
        // the shared dead-set epoch.
        ep.faults().expect("fault plan installed").mark_dead(0);

        // Open 3 (degraded): the healthy policy must not be replayed.
        let mut f = ParcollFile::open(&comm, &fs2, "/inv", &info);
        f.set_policy_cache(cache2.clone());
        write_epochs(&mut f, 1);
        let degraded_log = f.autotune_log().map_or(0, <[_]>::len);
        f.close();
        (resumed_log, degraded_log)
    });
    let (resumed_log, degraded_log) = outs[0];
    assert_eq!(resumed_log, 0, "healthy reopen must resume the settled policy");
    assert!(
        degraded_log >= 1,
        "degraded reopen must miss the healthy policy and re-explore"
    );
    assert_eq!(cache.len(), 1, "the degraded policy replaces the stale entry");
}
