//! Object storage target: a serial virtual-time resource.

use crate::lock;
use simnet::{Jitter, SimTime, SplitMix64};
use std::sync::Mutex;

/// Accumulated service statistics of one OST.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OstStats {
    /// Total virtual busy time.
    pub busy: SimTime,
    /// Total bytes served.
    pub bytes: u64,
    /// Total chunk requests served.
    pub requests: u64,
}

#[derive(Debug)]
struct OstState {
    next_free: SimTime,
    stats: OstStats,
    rng: SplitMix64,
    /// (completion instant, writing client) of queued/in-flight
    /// requests, ascending by completion; used for queue depth and
    /// extent-lock conflict detection at each arrival.
    completions: std::collections::VecDeque<(SimTime, Option<u64>)>,
    /// Holder of the most recently granted write extent lock. Lustre
    /// locks persist after the I/O completes, so a later small write by a
    /// different client conflicts even on an idle target.
    lock_holder: Option<u64>,
    /// Trace recorder for this target's timeline (disabled by default;
    /// installed by `FileSystem::attach_trace`). Emissions happen under
    /// the state mutex, and the sink content-sorts OST events at export,
    /// so host arrival order cannot leak into the merged trace.
    trace: simtrace::Recorder,
    /// Fault plan and this target's index in it, when installed by
    /// `FileSystem::install_faults`. Consulted once per request under the
    /// state mutex, so fault arithmetic is admission-ordered.
    faults: Option<(std::sync::Arc<simnet::FaultPlan>, usize)>,
    /// Cumulative requests admitted, including retry attempts burned by
    /// fail windows — the deterministic coordinate of `ost_fail_after`.
    ops: u64,
}

/// One object storage target.
///
/// The OST is modeled as a serial server: a request arriving at `t` starts
/// service at `max(t, previous completion)` and occupies the target for
/// `requests · overhead + bytes / bandwidth`, optionally scaled by seeded
/// jitter. Different OSTs are independent, so striped requests proceed in
/// parallel across targets while colliding clients on one target queue.
///
/// Note on determinism: inside a cluster run, requests are admitted in
/// `(virtual arrival, rank)` order by the [`simnet::progress`] gate, so
/// queue depths, jitter draws and completion times are a pure function of
/// virtual time — concurrent-writer runs are byte-reproducible. Outside a
/// cluster (direct unit-test calls) the gate is a no-op and the queue
/// order is simply call order.
#[derive(Debug)]
pub struct Ost {
    state: Mutex<OstState>,
}

impl Ost {
    /// New idle OST with a jitter stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Ost {
            state: Mutex::new(OstState {
                next_free: SimTime::ZERO,
                stats: OstStats::default(),
                rng: SplitMix64::new(seed),
                completions: std::collections::VecDeque::new(),
                lock_holder: None,
                trace: simtrace::Recorder::disabled(),
                faults: None,
                ops: 0,
            }),
        }
    }

    /// Install a trace recorder; every subsequent [`serve`](Ost::serve)
    /// emits its service interval, queue wait and volume metrics on it.
    pub fn attach_trace(&self, rec: simtrace::Recorder) {
        lock(&self.state).trace = rec;
    }

    /// Install a fault plan; this target is `index` in the plan's
    /// `ost_slow` / `ost_fail_after` rules.
    pub fn install_faults(&self, plan: std::sync::Arc<simnet::FaultPlan>, index: usize) {
        lock(&self.state).faults = Some((plan, index));
    }

    /// Serve a request of `bytes` in `requests` chunk units arriving at
    /// `arrival`; returns the completion instant.
    ///
    /// `contention_per_queued` inflates the service time by that fraction
    /// per request still pending at arrival, modeling Lustre's
    /// shared-object extent-lock contention under deep write pile-ups.
    #[allow(clippy::too_many_arguments)]
    pub fn serve(
        &self,
        mut arrival: SimTime,
        bytes: u64,
        requests: u64,
        overhead: SimTime,
        bandwidth_bps: f64,
        jitter: Jitter,
        contention_per_queued: f64,
        slow_prob: f64,
        slow_factor: f64,
        writer: Option<(u64, SimTime, u64)>,
        cache_window: SimTime,
    ) -> SimTime {
        // Deterministic admission: the OST mutates seeded RNG and queue
        // state, so concurrent requests must enter in virtual-time order,
        // not host order. Nothing below blocks, so no other rank runs
        // before the mutation is done.
        simnet::progress::admit(arrival);
        let mut st = lock(&self.state);
        // hostprof: everything under the state lock (fault arithmetic,
        // queue maintenance, jitter, trace emission) is non-yielding;
        // the admission gate above can block and stays outside the scope.
        let _hp = simtrace::host::scope(simtrace::host::Site::OstServe);
        let mut fault_factor = 1.0f64;
        if let Some((plan, idx)) = st.faults.clone() {
            // The op counter and the queue mutate under one admission +
            // one lock acquisition, so the number of failed attempts is
            // plain arithmetic over the fail window — no re-admission,
            // and the I/O APIs stay infallible.
            let op = st.ops;
            st.ops += 1;
            fault_factor = plan.ost_slow_factor(idx, arrival);
            let fails = plan.ost_failures(idx, op);
            if fails > 0 {
                assert!(
                    fails <= plan.max_retries as u64,
                    "OST {idx} failed permanently: {fails} consecutive failures \
                     exceed the retry bound of {}",
                    plan.max_retries
                );
                st.ops += fails; // each failed attempt burns one op slot
                let backoff = plan.retry_penalty(fails as u32, SimTime::ZERO);
                if st.trace.enabled() {
                    st.trace.span(
                        "fault",
                        "ost_retry",
                        arrival.as_micros(),
                        (arrival + backoff).as_micros(),
                        vec![("attempts", simtrace::ArgValue::from(fails))],
                    );
                    st.trace.count("ost_fault_retries", fails);
                }
                // The request re-arrives after the backoff drains.
                arrival += backoff;
            }
        }
        while st.completions.front().is_some_and(|&(c, _)| c <= arrival) {
            st.completions.pop_front();
        }
        let depth = st.completions.len() as f64;
        let jitter = jitter.draw(&mut st.rng);
        let straggle = if slow_prob > 0.0 && st.rng.next_f64() < slow_prob {
            slow_factor
        } else {
            1.0
        };
        let mut service = (overhead * requests as f64
            + SimTime::secs(bytes as f64 / bandwidth_bps))
            * jitter
            * straggle
            * fault_factor
            * (1.0 + contention_per_queued * depth);
        if let Some((client, handoff, exempt)) = writer {
            // Extent-lock conflict: ours is too small to hold a wide
            // (amortizing) extent lock, and either another client's write
            // is in flight or another client holds the extent lock from a
            // completed write (Lustre locks persist until revoked).
            let conflicted = bytes < exempt
                && (st
                    .completions
                    .iter()
                    .any(|&(_, w)| w.is_some_and(|other| other != client))
                    || st.lock_holder.is_some_and(|holder| holder != client));
            if conflicted {
                service += handoff;
            }
            st.lock_holder = Some(client);
        }
        // Work-conserving backlog; the write-back cache absorbs up to
        // `cache_window` of it before the requester feels queueing.
        let backlog_start = st.next_free.max(arrival);
        let felt_start = (st.next_free - cache_window).max(arrival);
        st.next_free = backlog_start + service;
        let done = felt_start + service;
        let writer_id = writer.map(|(c, _, _)| c);
        let backlog_done = st.next_free;
        st.completions.push_back((backlog_done, writer_id));
        st.stats.busy += service;
        st.stats.bytes += bytes;
        st.stats.requests += requests;
        if st.trace.enabled() {
            let queue_wait = backlog_start - arrival;
            if queue_wait > SimTime::ZERO {
                st.trace.span(
                    "ost",
                    "queue",
                    arrival.as_micros(),
                    backlog_start.as_micros(),
                    vec![("depth", simtrace::ArgValue::from(depth))],
                );
            }
            let mut args = vec![
                ("bytes", simtrace::ArgValue::from(bytes)),
                ("requests", simtrace::ArgValue::from(requests)),
                ("queue_wait_us", simtrace::ArgValue::from(queue_wait.as_micros())),
                // The completion instant the requester observes (the
                // write-back cache can make it earlier than the span's
                // backlog end) — the queue→serve edge target for
                // critical-path reconstruction.
                ("done_us", simtrace::ArgValue::from(done.as_micros())),
            ];
            if let Some(rank) = simnet::progress::current_rank() {
                args.push(("rank", simtrace::ArgValue::from(rank)));
            }
            st.trace.span(
                "ost",
                "serve",
                backlog_start.as_micros(),
                backlog_done.as_micros(),
                args,
            );
            st.trace.counter("ost_queue_depth", arrival.as_micros(), depth);
            // Outstanding work on this target as of this arrival: how
            // far its device clock runs ahead of the request stream.
            st.trace.counter(
                "ost_backlog_us",
                arrival.as_micros(),
                (backlog_done - arrival).as_micros(),
            );
            st.trace.count("ost_requests", requests);
            st.trace.observe("ost_req_bytes", bytes as f64);
        }
        done
    }

    /// Snapshot of this target's statistics.
    pub fn stats(&self) -> OstStats {
        lock(&self.state).stats
    }

    /// The instant the target becomes idle.
    pub fn next_free(&self) -> SimTime {
        lock(&self.state).next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: f64 = 1e6; // 1 MB/s
    const OH: SimTime = SimTime(10e-6);

    #[test]
    fn idle_ost_serves_at_arrival() {
        let ost = Ost::new(1);
        let done = ost.serve(SimTime::secs(5.0), 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        // 1MB at 1MB/s + 10us overhead.
        assert!((done.as_secs() - 6.00001).abs() < 1e-9);
    }

    #[test]
    fn queued_requests_serialize() {
        let ost = Ost::new(1);
        let d1 = ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        let d2 = ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        assert!(d2 > d1);
        assert!((d2.as_secs() - 2.0 * (1.0 + 1e-5)).abs() < 1e-9);
    }

    #[test]
    fn later_arrival_after_idle_gap() {
        let ost = Ost::new(1);
        let d1 = ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        // Arrives well after the first completes: no queueing.
        let arrival = d1 + SimTime::secs(10.0);
        let d2 = ost.serve(arrival, 500_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        assert!((d2.as_secs() - (arrival.as_secs() + 0.5 + 1e-5)).abs() < 1e-9);
    }

    #[test]
    fn per_request_overhead_scales_with_chunks() {
        let ost = Ost::new(1);
        let done = ost.serve(SimTime::ZERO, 0, 100, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        assert!((done.as_millis() - 1.0).abs() < 1e-9); // 100 * 10us
    }

    #[test]
    fn stats_accumulate() {
        let ost = Ost::new(1);
        ost.serve(SimTime::ZERO, 1000, 2, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        ost.serve(SimTime::ZERO, 500, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        let s = ost.stats();
        assert_eq!(s.bytes, 1500);
        assert_eq!(s.requests, 3);
        assert!(s.busy > SimTime::ZERO);
    }

    #[test]
    fn contention_inflates_deep_queues() {
        let ost = Ost::new(1);
        // First request: empty queue, no inflation.
        let d1 = ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.1, 0.0, 1.0, None, SimTime::ZERO);
        assert!((d1.as_secs() - (1.0 + 1e-5)).abs() < 1e-9);
        // Second arrives while the first is pending: 10% slower.
        let d2 = ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.1, 0.0, 1.0, None, SimTime::ZERO);
        assert!((d2 - d1).as_secs() > 1.09 * (1.0 + 1e-5) * 0.999);
        // A request arriving after everything drained is uninflated.
        let d3 = ost.serve(d2 + SimTime::secs(1.0), 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.1, 0.0, 1.0, None, SimTime::ZERO);
        assert!(((d3 - d2 - SimTime::secs(1.0)).as_secs() - (1.0 + 1e-5)).abs() < 1e-9);
    }

    #[test]
    fn lock_handoff_charged_on_concurrent_foreign_writer() {
        let ost = Ost::new(1);
        let handoff = SimTime::secs(0.5);
        let w = |client: u64| Some((client, handoff, 1_000_000u64));
        // Lone small write: no conflict.
        let d1 = ost.serve(SimTime::ZERO, 1000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, w(1), SimTime::ZERO);
        let base = d1.as_secs();
        assert!(base < 0.1, "no handoff for a lone writer");
        // A different client's write arrives while client 1's pends.
        let d2 = ost.serve(SimTime::ZERO, 1000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, w(2), SimTime::ZERO);
        assert!((d2 - d1).as_secs() > 0.5, "concurrent foreign writer pays");
        // A third client takes the lock (conflicted), then writes again
        // while holding it: the second write is free.
        let d3 = ost.serve(d2, 1000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, w(3), SimTime::ZERO);
        assert!((d3 - d2).as_secs() > 0.5, "foreign lock holder pays");
        let d4 = ost.serve(d3, 1000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, w(3), SimTime::ZERO);
        assert!((d4 - d3).as_secs() < base + 1e-6, "own lock is no conflict");
        // Exempt-size write by a new client amid pending foreign writes.
        let d5 = ost.serve(d4 - SimTime::nanos(1.0), 2_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, w(4), SimTime::ZERO);
        assert!((d5 - d4).as_secs() < 2.1, "large writes are exempt");
        // Reads (no writer identity) never pay and never conflict others.
        let d6 = ost.serve(d5 + SimTime::secs(5.0), 1000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        assert!((d6 - d5 - SimTime::secs(5.0)).as_secs() < base + 1e-6);
    }

    #[test]
    fn cache_window_absorbs_bursts_but_conserves_throughput() {
        let w = SimTime::secs(2.0); // 2s of cache at 1 MB/s = 2 MB
        let ost = Ost::new(1);
        // Burst of 3 x 1MB at t=0: with the cache, the 2nd and 3rd feel
        // little queueing...
        let d1 = ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, w);
        let d2 = ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, w);
        let d3 = ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, w);
        assert!(d2.as_secs() < 1.1, "2nd absorbed: {d2:?}");
        assert!(d3.as_secs() < 1.1, "3rd absorbed: {d3:?}");
        assert!((d1.as_secs() - (1.0 + 1e-5)).abs() < 1e-9);
        // ...but the backlog persists: a 4th arriving immediately pays
        // the full accumulated queue minus the cache window.
        let d4 = ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, w);
        assert!(d4.as_secs() > 1.9, "sustained overload still queues: {d4:?}");
        // next_free reflects all four services (work conservation).
        assert!((ost.next_free().as_secs() - 4.0 * (1.0 + 1e-5)).abs() < 1e-6);
    }

    #[test]
    fn stragglers_inflate_some_requests() {
        let ost = Ost::new(11);
        let mut slow = 0;
        let mut prev = SimTime::ZERO;
        for _ in 0..500 {
            let arrival = prev + SimTime::secs(10.0); // no queueing
            let done = ost.serve(arrival, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.1, 8.0, None, SimTime::ZERO);
            let service = (done - arrival).as_secs();
            if service > 4.0 {
                slow += 1;
                assert!((service - 8.0 * (1.0 + 1e-5)).abs() < 1e-6);
            }
            prev = done;
        }
        // ~10% +- sampling noise.
        assert!((20..=90).contains(&slow), "straggler count {slow}");
    }

    #[test]
    fn jitter_changes_service_but_stays_positive() {
        let a = Ost::new(7);
        let b = Ost::new(7);
        // Same seed -> same jitter sequence -> identical completions.
        let da = a.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.3), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        let db = b.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.3), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        assert_eq!(da, db);
        assert!(da > SimTime::ZERO);
        // Different seed -> (almost surely) different service time.
        let c = Ost::new(8);
        let dc = c.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.3), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        assert_ne!(da, dc);
    }

    #[test]
    fn fault_slow_window_scales_service_inside_window_only() {
        use simnet::FaultPlan;
        use std::sync::Arc;
        let ost = Ost::new(1);
        ost.install_faults(
            Arc::new(FaultPlan::new(0).ost_slow(
                Some(0),
                4.0,
                SimTime::ZERO,
                SimTime::secs(10.0),
            )),
            0,
        );
        let d1 = ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        assert!((d1.as_secs() - 4.0 * (1.0 + 1e-5)).abs() < 1e-9, "4x inside window: {d1:?}");
        let arrival = SimTime::secs(20.0);
        let d2 = ost.serve(arrival, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        assert!(
            ((d2 - arrival).as_secs() - (1.0 + 1e-5)).abs() < 1e-9,
            "clean outside window: {d2:?}"
        );
    }

    #[test]
    fn fault_fail_window_charges_backoff_then_drains() {
        use simnet::FaultPlan;
        use std::sync::Arc;
        let mut plan = FaultPlan::new(0).ost_fail_after(0, 1, 2);
        plan.retry_timeout = SimTime::secs(0.25);
        let ost = Ost::new(1);
        ost.install_faults(Arc::new(plan), 0);
        // Op 0: before the window, clean.
        let d0 = ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        assert!((d0.as_secs() - (1.0 + 1e-5)).abs() < 1e-9);
        // Op 1 hits the window [1, 3): two failed attempts burn ops 1–2
        // and charge 0.25 + 0.5 of backoff before the clean retry.
        let a1 = d0 + SimTime::secs(5.0);
        let d1 = ost.serve(a1, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        assert!(
            ((d1 - a1).as_secs() - (0.75 + 1.0 + 1e-5)).abs() < 1e-9,
            "backoff + service: {:?}",
            d1 - a1
        );
        // The window is drained: the next request is clean again.
        let a2 = d1 + SimTime::secs(5.0);
        let d2 = ost.serve(a2, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
        assert!(((d2 - a2).as_secs() - (1.0 + 1e-5)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "failed permanently")]
    fn fail_window_beyond_retry_bound_is_a_hard_failure() {
        use simnet::FaultPlan;
        use std::sync::Arc;
        let ost = Ost::new(1);
        ost.install_faults(Arc::new(FaultPlan::new(0).ost_fail_after(0, 0, 100)), 0);
        ost.serve(SimTime::ZERO, 1_000_000, 1, OH, BW, Jitter::new(0.0), 0.0, 0.0, 1.0, None, SimTime::ZERO);
    }
}
