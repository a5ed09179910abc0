//! File system configuration.

use simnet::SimTime;

/// Parameters of the simulated Lustre deployment.
///
/// [`FsConfig::jaguar`] reproduces the paper's test file system (§5):
/// 72 OSTs, 4 Gb/s Fibre Channel per target, files striped across 64
/// targets with a 4 MB stripe size. Bandwidth and overhead constants are
/// calibrated against the companion measurement paper (Yu, Vetter, Oral:
/// "Performance Characterization and Optimization of Parallel I/O on the
/// Cray XT", IPDPS'08), which reports per-OST streaming rates of roughly
/// 350–500 MB/s and millisecond-scale request latencies under load.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Number of object storage targets in the file system.
    pub n_osts: usize,
    /// Stripe count for newly created files (≤ `n_osts`).
    pub default_stripe_count: usize,
    /// Stripe size in bytes for newly created files.
    pub default_stripe_size: u64,
    /// Sustained per-OST bandwidth, bytes/second.
    pub ost_bandwidth_bps: f64,
    /// Fixed service time an OST spends per chunk request (seek, lock,
    /// RAID bookkeeping) regardless of size.
    pub request_overhead: SimTime,
    /// Per-extent service time inside a batched *list-I/O* read
    /// ([`crate::FileHandle::read_list`]): the extent list travels in one
    /// RPC and the extents share the lock acquisition and queue
    /// admission, so each chunk unit beyond the first costs only this
    /// (command processing + block-layer scatter-gather) instead of the
    /// full [`FsConfig::request_overhead`].
    pub list_extent_overhead: SimTime,
    /// One-way client↔server RPC latency.
    pub rpc_latency: SimTime,
    /// Base cost of a metadata open.
    pub open_base: SimTime,
    /// Additional serialized MDS time consumed per open (many clients
    /// opening one shared file queue at the MDS).
    pub open_per_client: SimTime,
    /// Coefficient of variation of OST service-time jitter; 0 disables
    /// (fully deterministic service).
    pub jitter_cv: f64,
    /// Shared-object contention: fractional service-time inflation per
    /// request already queued at arrival. Lustre extent-lock ping-pong
    /// makes shared-file writes degrade as concurrent writers per OST
    /// grow (Yu/Vetter/Oral IPDPS'08 measure exactly this collapse);
    /// 0 disables.
    pub contention_per_queued: f64,
    /// Server write-back cache per OST: a burst of up to this many bytes
    /// is absorbed at ingest speed before queueing delays apply (the DDN
    /// S2A9550 couplets behind Jaguar carried multi-GB caches). Sustained
    /// throughput is still bounded by the service rate — the cache only
    /// decouples *completion latency* from backlog, which is what lets
    /// de-synchronized (ParColl) writers avoid paying each other's queue
    /// waits.
    pub cache_bytes: u64,
    /// Extent-lock handoff penalty: added to a *write* whose size is
    /// below [`FsConfig::lock_exempt_bytes`] when the previous writer on
    /// the target was a different client. Fine-grained interleaved
    /// writers on a shared Lustre file revoke each other's speculative
    /// extent locks on every access (LDLM ping-pong) — the mechanism
    /// behind the paper's 60 MB/s "Cray w/o Coll" Flash-IO series.
    /// Collective buffering writes stripe-sized chunks and is exempt.
    pub lock_handoff: SimTime,
    /// Writes at least this large take extents big enough to amortize
    /// lock traffic (stripe-aligned collective-buffer chunks).
    pub lock_exempt_bytes: u64,
    /// Probability that a request hits a *straggler* service (RAID
    /// destage stall, slow disk — the long tail every production Lustre
    /// exhibits). Lock-step collective rounds wait for the slowest of all
    /// aggregators' requests, so at scale some round nearly always eats a
    /// straggler: the paper's collective wall in storage form.
    pub slow_prob: f64,
    /// Service-time multiplier of a straggler request.
    pub slow_factor: f64,
    /// Seed for the jitter generators.
    pub seed: u64,
    /// End-to-end integrity: maintain per-page checksums on the write
    /// path, verify (and repair planted `ost_rot`) on the read path, and
    /// enable [`crate::FileSystem::scrub`]. Off (the default) is bitwise
    /// identical to a build without the integrity layer.
    pub integrity: bool,
}

impl FsConfig {
    /// The paper's Jaguar file system (§5).
    pub fn jaguar() -> Self {
        FsConfig {
            n_osts: 72,
            default_stripe_count: 64,
            default_stripe_size: 4 << 20,
            ost_bandwidth_bps: 650e6,
            request_overhead: SimTime::micros(350.0),
            list_extent_overhead: SimTime::micros(15.0),
            rpc_latency: SimTime::micros(60.0),
            open_base: SimTime::millis(2.0),
            open_per_client: SimTime::micros(150.0),
            jitter_cv: 0.45,
            contention_per_queued: 0.0025,
            cache_bytes: 512 << 20,
            lock_handoff: SimTime::millis(20.0),
            lock_exempt_bytes: 4 << 20,
            slow_prob: 0.01,
            slow_factor: 20.0,
            seed: 0x0C0FFEE,
            integrity: false,
        }
    }

    /// A small deterministic file system for unit tests: 4 OSTs, 1 MB/s,
    /// no jitter, zero latencies except a visible per-request overhead.
    pub fn tiny() -> Self {
        FsConfig {
            n_osts: 4,
            default_stripe_count: 4,
            default_stripe_size: 1024,
            ost_bandwidth_bps: 1e6,
            request_overhead: SimTime::micros(10.0),
            list_extent_overhead: SimTime::micros(2.0),
            rpc_latency: SimTime::micros(1.0),
            open_base: SimTime::micros(5.0),
            open_per_client: SimTime::micros(1.0),
            jitter_cv: 0.0,
            contention_per_queued: 0.0,
            cache_bytes: 0,
            lock_handoff: SimTime::ZERO,
            lock_exempt_bytes: 0,
            slow_prob: 0.0,
            slow_factor: 1.0,
            seed: 1,
            integrity: false,
        }
    }

    /// Validate invariants, panicking with a description on misuse.
    pub fn validate(&self) {
        assert!(self.n_osts > 0, "need at least one OST");
        assert!(
            (1..=self.n_osts).contains(&self.default_stripe_count),
            "stripe count {} must be in 1..={}",
            self.default_stripe_count,
            self.n_osts
        );
        assert!(self.default_stripe_size > 0, "stripe size must be positive");
        assert!(self.ost_bandwidth_bps > 0.0, "bandwidth must be positive");
        assert!(
            self.list_extent_overhead <= self.request_overhead,
            "a batched list extent cannot cost more than a standalone request"
        );
        assert!(self.jitter_cv >= 0.0, "jitter cv must be non-negative");
        assert!(
            self.contention_per_queued >= 0.0,
            "contention factor must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.slow_prob),
            "straggler probability must be in [0, 1]"
        );
        assert!(self.slow_factor >= 1.0, "straggler factor must be >= 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaguar_matches_paper_parameters() {
        let c = FsConfig::jaguar();
        c.validate();
        assert_eq!(c.n_osts, 72);
        assert_eq!(c.default_stripe_count, 64);
        assert_eq!(c.default_stripe_size, 4 << 20);
    }

    #[test]
    fn tiny_is_deterministic() {
        let c = FsConfig::tiny();
        c.validate();
        assert_eq!(c.jitter_cv, 0.0);
    }

    #[test]
    #[should_panic(expected = "stripe count")]
    fn stripe_count_beyond_osts_rejected() {
        let mut c = FsConfig::tiny();
        c.default_stripe_count = 5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one OST")]
    fn zero_osts_rejected() {
        let mut c = FsConfig::tiny();
        c.n_osts = 0;
        c.validate();
    }
}
