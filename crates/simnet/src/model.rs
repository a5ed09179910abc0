//! Analytic cost model for communication and local data movement.
//!
//! The model is LogGP-flavoured: a message of `n` bytes costs the sender a
//! CPU overhead `o`, travels for `L + n·G` (latency plus serialization at
//! the link bandwidth), and costs the receiver another `o`. Collective
//! operations are charged with the textbook cost formulas of the algorithms
//! MPI implementations actually use (binomial trees, recursive doubling,
//! pairwise exchange, Bruck), selectable per operation so the benchmark
//! harness can run algorithmic ablations.
//!
//! Default constants are calibrated to the Cray XT SeaStar interconnect of
//! the paper's era (Brightwell et al., IEEE Micro 2006): ~6 µs end-to-end
//! small-message latency, ~2 GB/s sustained per-link bandwidth. Catamount
//! memory copy bandwidth is set to 2.5 GB/s (single Opteron core).
//!
//! A small *straggler noise* term models OS/network interference that
//! makes every synchronizing operation complete a little later the more
//! participants it has. On real MPPs this term is what turns "a few
//! microseconds of allreduce" into "milliseconds of waiting" at scale;
//! see `DESIGN.md` §6 for calibration notes.

use crate::time::SimTime;

/// Selectable alltoall algorithm, used for cost accounting (the data
/// combination itself is performed at a rendezvous, see [`crate::Rendezvous`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveAlg {
    /// Pairwise exchange: `p-1` rounds of one send + one receive (alltoall
    /// with large messages).
    Pairwise,
    /// Bruck's algorithm: `⌈log₂ p⌉` rounds with data growth (alltoall with
    /// small messages).
    Bruck,
}

/// Network cost parameters (LogGP-style).
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// One-way wire latency `L` (seconds).
    pub latency: SimTime,
    /// Per-message CPU overhead `o` at each end (seconds).
    pub overhead: SimTime,
    /// Per-byte time `G` = 1 / link bandwidth (seconds/byte).
    pub byte_time: f64,
    /// Straggler-noise scale added to each synchronizing collective:
    /// `noise_base · ln(p)` (seconds). Zero disables.
    pub noise_base: SimTime,
    /// Congestion amplification: an additional `noise_quad · p²` per
    /// collective. Pairwise exchange patterns (alltoall) inject O(p²)
    /// messages that contend on shared torus links — especially while the
    /// two-phase protocol's bulk data exchange is in flight — so the
    /// effective cost of whole-group synchronization grows superlinearly
    /// with the group. This term, calibrated against the paper's Figure 1
    /// profile, is the quantitative heart of the *collective wall*; it is
    /// also why splitting the group (ParColl) pays off so steeply:
    /// `(p/G)²·G = p²/G`.
    pub noise_quad: SimTime,
    /// Algorithm used for alltoall cost accounting.
    pub alltoall_alg: CollectiveAlg,
}

impl NetworkModel {
    /// Cray XT SeaStar-like defaults (see module docs).
    pub fn cray_xt_seastar() -> Self {
        NetworkModel {
            latency: SimTime::micros(6.3),
            overhead: SimTime::micros(1.2),
            byte_time: 1.0 / 2.0e9,
            noise_base: SimTime::micros(35.0),
            noise_quad: SimTime::nanos(800.0),
            alltoall_alg: CollectiveAlg::Pairwise,
        }
    }

    /// An idealized, noise-free network for unit tests: 1 µs latency,
    /// zero overhead/noise, 1 GB/s.
    pub fn ideal() -> Self {
        NetworkModel {
            latency: SimTime::micros(1.0),
            overhead: SimTime::ZERO,
            byte_time: 1e-9,
            noise_base: SimTime::ZERO,
            noise_quad: SimTime::ZERO,
            alltoall_alg: CollectiveAlg::Pairwise,
        }
    }

    /// Time for the payload of `n` bytes to become available at the
    /// receiver after the send is posted: `L + n·G`.
    pub fn transfer_time(&self, n: usize) -> SimTime {
        self.latency + SimTime::secs(n as f64 * self.byte_time)
    }

    /// Sender-side busy time for posting one message.
    pub fn send_overhead(&self, _n: usize) -> SimTime {
        self.overhead
    }

    /// Receiver-side busy time for completing one message.
    pub fn recv_overhead(&self, _n: usize) -> SimTime {
        self.overhead
    }

    fn log2_ceil(p: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            (p as f64).log2().ceil()
        }
    }

    /// Per-hop cost in a tree/doubling algorithm moving `n` bytes.
    fn hop(&self, n: f64) -> SimTime {
        self.latency + self.overhead + self.overhead + SimTime::secs(n * self.byte_time)
    }

    /// Baseline interference for a `p`-party synchronizing operation:
    /// `noise_base·ln(p)`.
    pub fn straggler_noise(&self, p: usize) -> SimTime {
        if p <= 1 {
            SimTime::ZERO
        } else {
            self.noise_base * (p as f64).ln()
        }
    }

    /// Congestion amplification, `noise_quad·p²`, paid by whole-group
    /// synchronization that overlaps bulk data exchange (the per-round
    /// size alltoall of two-phase I/O while the round's data is in
    /// flight). Protocol code charges this explicitly when a round moves
    /// cross-rank bytes; rounds whose data is all self-assigned (e.g.
    /// contiguous IOR or Flash-IO patterns) do not congest the network
    /// and pay only the baseline term.
    pub fn congestion_noise(&self, p: usize) -> SimTime {
        if p <= 1 {
            SimTime::ZERO
        } else {
            self.noise_quad * (p as f64) * (p as f64)
        }
    }

    /// Barrier over `p` ranks (recursive doubling / dissemination).
    pub fn barrier_cost(&self, p: usize) -> SimTime {
        self.hop(0.0) * Self::log2_ceil(p) + self.straggler_noise(p)
    }

    /// Allgather of `n_each` bytes from each rank (recursive doubling:
    /// `log₂ p` latencies, `(p-1)·n_each` bytes through each rank).
    pub fn allgather_cost(&self, p: usize, n_each: usize) -> SimTime {
        if p <= 1 {
            return SimTime::ZERO;
        }
        self.hop(0.0) * Self::log2_ceil(p)
            + SimTime::secs((p - 1) as f64 * n_each as f64 * self.byte_time)
            + self.straggler_noise(p)
    }

    /// Allreduce of `n` bytes (recursive doubling; reduction arithmetic is
    /// folded into the per-hop byte cost — it is bandwidth-bound).
    pub fn allreduce_cost(&self, p: usize, n: usize) -> SimTime {
        self.hop(n as f64) * Self::log2_ceil(p) + self.straggler_noise(p)
    }

    /// Alltoall where each rank sends `n_per_pair` bytes to every other
    /// rank. Algorithm selected by [`NetworkModel::alltoall_alg`].
    pub fn alltoall_cost(&self, p: usize, n_per_pair: usize) -> SimTime {
        if p <= 1 {
            return SimTime::ZERO;
        }
        let n = n_per_pair as f64;
        let cost = match self.alltoall_alg {
            CollectiveAlg::Pairwise => self.hop(n) * (p - 1) as f64,
            CollectiveAlg::Bruck => {
                // log₂p rounds, each moving ~p/2 · n bytes per rank.
                self.hop(n * p as f64 / 2.0) * Self::log2_ceil(p)
            }
        };
        cost + self.straggler_noise(p)
    }
}

/// Local-machine cost parameters.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Memory copy bandwidth in bytes/second (pack/unpack of non-contiguous
    /// datatypes is charged at this rate).
    pub memcpy_bps: f64,
    /// Fixed per-call CPU cost of entering an MPI-IO operation (argument
    /// checking, flattening bookkeeping).
    pub call_overhead: SimTime,
}

impl MachineModel {
    /// Catamount-era Opteron defaults.
    pub fn catamount() -> Self {
        MachineModel {
            memcpy_bps: 2.5e9,
            call_overhead: SimTime::micros(2.0),
        }
    }

    /// Zero-cost machine for unit tests.
    pub fn ideal() -> Self {
        MachineModel {
            memcpy_bps: f64::INFINITY,
            call_overhead: SimTime::ZERO,
        }
    }

    /// Time to copy `n` bytes within a rank's memory.
    pub fn memcpy_time(&self, n: usize) -> SimTime {
        if self.memcpy_bps.is_infinite() {
            SimTime::ZERO
        } else {
            SimTime::secs(n as f64 / self.memcpy_bps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkModel {
        NetworkModel {
            latency: SimTime::micros(10.0),
            overhead: SimTime::micros(1.0),
            byte_time: 1e-9, // 1 GB/s
            noise_base: SimTime::ZERO,
            noise_quad: SimTime::ZERO,
            alltoall_alg: CollectiveAlg::Pairwise,
        }
    }

    #[test]
    fn transfer_time_is_latency_plus_bandwidth() {
        let m = net();
        let t = m.transfer_time(1_000_000);
        // 10us + 1MB at 1GB/s = 10us + 1ms
        assert!((t.as_micros() - 1010.0).abs() < 1e-6);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let m = net();
        assert_eq!(m.barrier_cost(1), SimTime::ZERO);
        assert_eq!(m.allgather_cost(1, 100), SimTime::ZERO);
        assert_eq!(m.alltoall_cost(1, 100), SimTime::ZERO);
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let m = net();
        let c4 = m.barrier_cost(4).as_secs();
        let c16 = m.barrier_cost(16).as_secs();
        let c256 = m.barrier_cost(256).as_secs();
        assert!((c16 / c4 - 2.0).abs() < 1e-9); // log2 16 / log2 4
        assert!((c256 / c4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn pairwise_alltoall_scales_linearly() {
        let m = net();
        let c64 = m.alltoall_cost(64, 4).as_secs();
        let c512 = m.alltoall_cost(512, 4).as_secs();
        assert!((c512 / c64 - 511.0 / 63.0).abs() < 1e-9);
    }

    #[test]
    fn bruck_beats_pairwise_for_small_messages_at_scale() {
        let mut m = net();
        let pw = m.alltoall_cost(512, 4);
        m.alltoall_alg = CollectiveAlg::Bruck;
        let br = m.alltoall_cost(512, 4);
        assert!(br < pw, "bruck {br} should beat pairwise {pw} for 4-byte msgs");
    }

    #[test]
    fn pairwise_beats_bruck_for_large_messages() {
        let mut m = net();
        let pw = m.alltoall_cost(64, 1 << 20);
        m.alltoall_alg = CollectiveAlg::Bruck;
        let br = m.alltoall_cost(64, 1 << 20);
        assert!(pw < br, "pairwise {pw} should beat bruck {br} for 1MB msgs");
    }

    #[test]
    fn allgather_bandwidth_term_counts_total_data() {
        let m = net();
        // 1KB from each of 128 ranks: bandwidth term = 127KB at 1GB/s = 127us.
        let c = m.allgather_cost(128, 1024);
        let latency_term = m.hop(0.0) * 7.0; // log2 128
        let bw = (c - latency_term).as_micros();
        assert!((bw - 127.0 * 1.024).abs() < 1e-6, "bw term {bw}us");
    }

    #[test]
    fn noise_grows_with_party_count() {
        let mut m = net();
        m.noise_base = SimTime::micros(10.0);
        assert_eq!(m.straggler_noise(1), SimTime::ZERO);
        let n64 = m.straggler_noise(64);
        let n512 = m.straggler_noise(512);
        assert!(n512 > n64);
        assert!((n512.as_secs() / n64.as_secs() - 512f64.ln() / 64f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn quadratic_congestion_term_dominates_at_scale() {
        let mut m = net();
        m.noise_quad = SimTime::nanos(800.0);
        let n8 = m.congestion_noise(8).as_secs();
        let n512 = m.congestion_noise(512).as_secs();
        // (512/8)^2 = 4096x growth of the quadratic term.
        assert!((n512 / n8 - 4096.0).abs() < 1.0, "n8={n8} n512={n512}");
        // Splitting 512 into 64 groups of 8 cuts total collective cost
        // by ~p²/G even though every subgroup still synchronizes.
        assert!(64.0 * n8 < 0.1 * n512);
        // The baseline term stays logarithmic.
        assert!(m.straggler_noise(512) < SimTime::micros(100.0));
    }

    #[test]
    fn memcpy_time_matches_bandwidth() {
        let mm = MachineModel {
            memcpy_bps: 2e9,
            call_overhead: SimTime::ZERO,
        };
        assert!((mm.memcpy_time(2_000_000).as_millis() - 1.0).abs() < 1e-9);
        assert_eq!(MachineModel::ideal().memcpy_time(1 << 30), SimTime::ZERO);
    }

    #[test]
    fn presets_are_sane() {
        let n = NetworkModel::cray_xt_seastar();
        assert!(n.latency.as_micros() > 1.0 && n.latency.as_micros() < 20.0);
        assert!(1.0 / n.byte_time > 1e9); // at least 1 GB/s
        let m = MachineModel::catamount();
        assert!(m.memcpy_bps > 1e9);
    }
}
