//! Deterministic, virtual-time fault injection.
//!
//! The simulator's baseline models only the happy path: every message is
//! delivered, every OST completes, every aggregator survives. This module
//! adds a **seeded fault plan** that perturbs those events *in virtual
//! time* so the protocol stack's degraded modes (bounded retry, aggregator
//! failover, file-area merging) can be exercised — reproducibly.
//!
//! # Example: building and installing a plan
//!
//! A [`FaultPlan`] is a seed plus declarative rules, built once and
//! shared immutably. Install it on the cluster via
//! [`crate::ClusterConfig`]`::faults` and on the store via
//! `FileSystem::install_faults` (simfs); here we only build one and
//! probe its pure decision functions:
//!
//! ```
//! use simnet::{FaultPlan, SimTime};
//!
//! // OSTs serve 4x slower for the first 2 virtual ms; 1% of messages
//! // from rank 7 are tombstone-dropped (receiver pays the retry);
//! // rank 3 stalls 50 µs at its next exchange phase; rank 0's
//! // aggregator dies at collective-write round 2.
//! let plan = FaultPlan::new(42)
//!     .ost_slow(None, 4.0, SimTime::ZERO, SimTime::millis(2.0))
//!     .msg_drop(0.01, Some(7), None)
//!     .rank_stall(3, "exchange", SimTime::micros(50.0))
//!     .aggregator_crash(0, 2);
//!
//! assert_eq!(plan.rules().len(), 4);
//! assert!(plan.has_crash_rules());
//! assert_eq!(plan.agg_crash(0), Some(2));
//! assert_eq!(plan.ost_slow_factor(5, SimTime::micros(10.0)), 4.0);
//!
//! // Decisions are pure functions of (seed, rule index, src, dst,
//! // sequence): a plan built the same way draws identical faults,
//! // which is what makes a faulted run bitwise reproducible.
//! let twin = FaultPlan::new(42)
//!     .ost_slow(None, 4.0, SimTime::ZERO, SimTime::millis(2.0))
//!     .msg_drop(0.01, Some(7), None)
//!     .rank_stall(3, "exchange", SimTime::micros(50.0))
//!     .aggregator_crash(0, 2);
//! for seq in 0..32 {
//!     assert_eq!(plan.msg_fault(7, 1, seq).drops, twin.msg_fault(7, 1, seq).drops);
//! }
//! ```
//!
//! # Determinism
//!
//! Every fault decision is a pure function of `(plan seed, rule index,
//! src, dst, per-destination send sequence)` or of deterministic virtual
//! state (OST op counters advanced under the [`crate::progress`] admission
//! gate, collective round counters). No host-time blocking is ever
//! introduced: a "dropped" message is modeled as a tombstone on the packet
//! — the payload still travels, and the *receiver* charges the retry
//! penalty (timeout backoff plus re-transfer) to its virtual arrival.
//! Two runs with the same plan are therefore bitwise identical in trace
//! output, and a run with no plan installed is bitwise identical to a
//! build without this module.
//!
//! # Deadlock detection
//!
//! Because no fault ever blocks the host — every penalty above is
//! arithmetic on a virtual clock — the fault layer needs nothing from
//! the fiber executor's deadlock detector, which is exact: a rank in a
//! retry, a repair re-request or a failover is either runnable or
//! parked on a peer that is.

use crate::noise::{Jitter, SplitMix64};
use crate::time::SimTime;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// One declarative fault rule of a [`FaultPlan`].
#[derive(Debug, Clone)]
pub enum FaultRule {
    /// The OST (or every OST when `ost` is `None`) serves `factor`× slower
    /// for requests arriving in the virtual window `[from, until)`.
    OstSlow {
        /// Target OST index, or `None` for all targets.
        ost: Option<usize>,
        /// Service-time multiplier (> 1 slows the target down).
        factor: f64,
        /// Window start (virtual arrival time).
        from: SimTime,
        /// Window end, exclusive.
        until: SimTime,
    },
    /// The OST transiently fails every request in its op-counter window
    /// `[ops, ops + fail_ops)`; each failed attempt costs one backoff
    /// interval and burns one op slot, so the window drains under retry.
    OstFailAfter {
        /// Target OST index.
        ost: usize,
        /// First failing operation (the OST's cumulative request count).
        ops: u64,
        /// Number of consecutive failing operations.
        fail_ops: u64,
    },
    /// Each message matching the src→dst filter is independently dropped
    /// with probability `prob` per transmission attempt (so a message may
    /// be dropped several times before a retry lands; attempts are capped
    /// at [`FaultPlan::max_retries`] — permanent loss is not modeled).
    MsgDrop {
        /// Per-attempt drop probability in `[0, 1)`.
        prob: f64,
        /// Only messages from this rank, or any sender when `None`.
        src: Option<usize>,
        /// Only messages to this rank, or any receiver when `None`.
        dst: Option<usize>,
    },
    /// With probability `prob` a message's wire transfer is inflated by a
    /// seeded multiplicative jitter (clamped to ≥ 1 — jitter only ever
    /// delays).
    MsgDelayJitter {
        /// The jitter distribution ([`Jitter::new`] of its coefficient of
        /// variation).
        jitter: Jitter,
        /// Probability a given message is jittered.
        prob: f64,
    },
    /// The rank's virtual clock jumps forward by `duration` the first time
    /// it enters the named collective phase — a one-shot straggler.
    RankStall {
        /// Global rank to stall.
        rank: usize,
        /// Phase hook name (`"write_all"` or `"read_all"`).
        at_phase: String,
        /// Stall length in virtual time.
        duration: SimTime,
    },
    /// The rank's *I/O role* dies at the start of collective write round
    /// `at_round` (a cumulative per-rank round counter): it stops
    /// aggregating and writing, but survives as a data sender. The
    /// surviving subgroup adopts its file domain (aggregator failover).
    AggregatorCrash {
        /// Global rank whose aggregator role crashes.
        rank: usize,
        /// Cumulative write-round index at which it dies.
        at_round: u64,
    },
    /// Each message matching the src→dst filter independently suffers a
    /// silent single-byte flip with probability `prob`. The flip is a
    /// seeded XOR applied to the *payload* only — protocol headers ride a
    /// protected control channel (link-level CRC in real SeaStar hardware)
    /// and are immune by model. Without end-to-end checksums the corrupted
    /// bytes flow into the file undetected; with checksums on, the
    /// receiver detects the mismatch and runs the bounded repair protocol.
    MsgCorrupt {
        /// Per-message corruption probability in `[0, 1)`.
        prob: f64,
        /// Only messages from this rank, or any sender when `None`.
        src: Option<usize>,
        /// Only messages to this rank, or any receiver when `None`.
        dst: Option<usize>,
    },
    /// The at-rest file extent `[offset, offset + len)` silently rots: a
    /// seeded byte inside it is flipped on the OST platter *after* it was
    /// durably written. Materialized lazily by `simfs` the first time the
    /// extent is read (or scrubbed) — a write that lands later than the
    /// read supersedes the rot, matching media decay of cold data.
    OstRot {
        /// First rotten byte (file offset).
        offset: u64,
        /// Extent length in bytes (the flipped byte is seeded within it).
        len: u64,
    },
    /// Like [`FaultRule::AggregatorCrash`], but the dying aggregator's
    /// final OST write in round `at_round - 1` is *torn*: a prefix of the
    /// round's window lands on the platter, the tail does not. Recovery
    /// must therefore replay the torn round, not merely resume past it.
    TornWrite {
        /// Global rank whose aggregator role crashes mid-write.
        rank: usize,
        /// Cumulative write-round index at which it dies (the write torn
        /// is the one in round `at_round - 1`, its last served round).
        at_round: u64,
    },
}

/// Apply (or undo — XOR is self-inverse) the seeded single-byte flip a
/// nonzero corruption token denotes to the message `bytes ‖ trailer` (a
/// trailer travelling beside its payload is damaged as one appended to it
/// would be). Token 0 means "clean" and is a no-op, as is an empty message.
pub fn corrupt_flip(bytes: &mut [u8], trailer: &mut [u8], token: u64) {
    let len = bytes.len() + trailer.len();
    if token == 0 || len == 0 {
        return;
    }
    let pos = ((token >> 8) % len as u64) as usize;
    let byte = match pos.checked_sub(bytes.len()) {
        None => &mut bytes[pos],
        Some(at) => &mut trailer[at],
    };
    *byte ^= (token & 0xff) as u8;
}

/// What the fault plan decided for one message transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgFault {
    /// Dropped attempts before the delivery that sticks (0 = clean).
    pub drops: u32,
    /// Multiplier on the wire transfer time (≥ 1.0).
    pub delay_factor: f64,
    /// Nonzero when the payload suffers a silent single-byte flip; the
    /// token seeds [`corrupt_flip`] (position and XOR mask). 0 = clean.
    pub corrupt: u64,
}

impl MsgFault {
    /// A clean, unperturbed transmission.
    pub const NONE: MsgFault = MsgFault {
        drops: 0,
        delay_factor: 1.0,
        corrupt: 0,
    };
}

/// A seeded, declarative fault-injection plan, installed cluster-wide via
/// `ClusterConfig::faults` (and on the file system via
/// `FileSystem::install_faults`). Immutable once built; all mutable
/// per-rank bookkeeping lives in [`FaultState`].
///
/// # Examples
///
/// ```
/// use simnet::{FaultPlan, SimTime};
///
/// let plan = FaultPlan::new(42)
///     .msg_drop(0.05, None, None)
///     .ost_slow(Some(3), 8.0, SimTime::ZERO, SimTime::secs(1.0))
///     .aggregator_crash(2, 1);
/// assert!(plan.has_crash_rules());
/// // Same (src, dst, seq) always draws the same fault.
/// assert_eq!(plan.msg_fault(0, 1, 7), plan.msg_fault(0, 1, 7));
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    /// Bounded-retry limit for transient faults (message drops, OST
    /// failures). Exhausting it on an OST fail window is a hard error.
    pub max_retries: u32,
    /// Base retry timeout; attempt `i` backs off `retry_timeout · 2^i`.
    pub retry_timeout: SimTime,
    /// Virtual time charged when a crashed aggregator is detected (the
    /// round's size exchange timing out on the dead rank).
    pub detect_timeout: SimTime,
}

/// SplitMix64 finalizer, used to hash fault-stream coordinates into seeds.
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Seed for the per-(rule, src, dst, seq) fault stream: order-independent
/// of host scheduling because every coordinate is a protocol-level value.
fn stream_seed(seed: u64, kind: u64, rule: u64, src: u64, dst: u64, seq: u64) -> u64 {
    mix64(mix64(mix64(mix64(mix64(seed ^ kind) ^ rule) ^ src) ^ dst) ^ seq)
}

impl FaultPlan {
    /// An empty plan with the given RNG seed and default retry parameters.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            max_retries: 6,
            retry_timeout: SimTime::millis(2.0),
            detect_timeout: SimTime::millis(20.0),
        }
    }

    /// Add an [`FaultRule::OstSlow`] rule.
    pub fn ost_slow(mut self, ost: Option<usize>, factor: f64, from: SimTime, until: SimTime) -> Self {
        self.rules.push(FaultRule::OstSlow { ost, factor, from, until });
        self
    }

    /// Add an [`FaultRule::OstFailAfter`] rule.
    pub fn ost_fail_after(mut self, ost: usize, ops: u64, fail_ops: u64) -> Self {
        self.rules.push(FaultRule::OstFailAfter { ost, ops, fail_ops });
        self
    }

    /// Add a [`FaultRule::MsgDrop`] rule.
    pub fn msg_drop(mut self, prob: f64, src: Option<usize>, dst: Option<usize>) -> Self {
        self.rules.push(FaultRule::MsgDrop { prob, src, dst });
        self
    }

    /// Add a [`FaultRule::MsgDelayJitter`] rule.
    pub fn msg_delay_jitter(mut self, cv: f64, prob: f64) -> Self {
        let jitter = Jitter::new(cv);
        self.rules.push(FaultRule::MsgDelayJitter { jitter, prob });
        self
    }

    /// Add a [`FaultRule::RankStall`] rule.
    pub fn rank_stall(mut self, rank: usize, at_phase: &str, duration: SimTime) -> Self {
        self.rules.push(FaultRule::RankStall {
            rank,
            at_phase: at_phase.to_string(),
            duration,
        });
        self
    }

    /// Add an [`FaultRule::AggregatorCrash`] rule.
    pub fn aggregator_crash(mut self, rank: usize, at_round: u64) -> Self {
        self.rules.push(FaultRule::AggregatorCrash { rank, at_round });
        self
    }

    /// Add a [`FaultRule::MsgCorrupt`] rule.
    pub fn msg_corrupt(mut self, prob: f64, src: Option<usize>, dst: Option<usize>) -> Self {
        self.rules.push(FaultRule::MsgCorrupt { prob, src, dst });
        self
    }

    /// Add an [`FaultRule::OstRot`] rule.
    pub fn ost_rot(mut self, offset: u64, len: u64) -> Self {
        assert!(len > 0, "a rot extent must span at least one byte");
        self.rules.push(FaultRule::OstRot { offset, len });
        self
    }

    /// Add a [`FaultRule::TornWrite`] rule.
    pub fn torn_write(mut self, rank: usize, at_round: u64) -> Self {
        self.rules.push(FaultRule::TornWrite { rank, at_round });
        self
    }

    /// The rules in force.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// True when any [`FaultRule::AggregatorCrash`] or
    /// [`FaultRule::TornWrite`] rule exists — the gate for the
    /// (communicating) dead-set agreement in ParColl. Plans without crash
    /// rules keep the zero-communication steady state.
    pub fn has_crash_rules(&self) -> bool {
        self.rules.iter().any(|r| {
            matches!(
                r,
                FaultRule::AggregatorCrash { .. } | FaultRule::TornWrite { .. }
            )
        })
    }

    /// True when any [`FaultRule::MsgCorrupt`] rule exists — the gate for
    /// per-packet corruption-event bookkeeping on the receive path.
    pub fn has_corrupt_rules(&self) -> bool {
        self.rules
            .iter()
            .any(|r| matches!(r, FaultRule::MsgCorrupt { .. }))
    }

    /// The earliest configured crash round for `rank`, if any (torn-write
    /// crashes included: a torn write *is* an aggregator crash whose final
    /// round landed partially).
    pub fn agg_crash(&self, rank: usize) -> Option<u64> {
        self.rules
            .iter()
            .filter_map(|r| match r {
                FaultRule::AggregatorCrash { rank: x, at_round } if *x == rank => Some(*at_round),
                FaultRule::TornWrite { rank: x, at_round } if *x == rank => Some(*at_round),
                _ => None,
            })
            .min()
    }

    /// True when `rank`'s earliest crash is a torn write: its final round
    /// (`agg_crash(rank) - 1`) left a partial window on the OSTs.
    pub fn torn_crash(&self, rank: usize) -> bool {
        let Some(k) = self.agg_crash(rank) else {
            return false;
        };
        self.rules.iter().any(|r| {
            matches!(r, FaultRule::TornWrite { rank: x, at_round } if *x == rank && *at_round == k)
        })
    }

    /// Every [`FaultRule::OstRot`] extent as `(rule index, offset, len)`,
    /// in rule order. The rule index keys the seeded flip draw.
    pub fn ost_rot_regions(&self) -> Vec<(usize, u64, u64)> {
        self.rules
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                FaultRule::OstRot { offset, len } => Some((i, *offset, *len)),
                _ => None,
            })
            .collect()
    }

    /// The seeded flip a rot rule plants: `(absolute byte offset, XOR
    /// mask)`, pure in the plan seed and rule index. `None` when `rule`
    /// is not an [`FaultRule::OstRot`].
    pub fn rot_flip(&self, rule: usize) -> Option<(u64, u8)> {
        match self.rules.get(rule) {
            Some(FaultRule::OstRot { offset, len }) => {
                let mut rng = SplitMix64::new(stream_seed(self.seed, 5, rule as u64, 0, 0, 0));
                let token = rng.next_u64() | 1;
                let byte = offset + (token >> 8) % len;
                Some((byte, (token & 0xff) as u8))
            }
            _ => None,
        }
    }

    /// Service-time multiplier for a request arriving at `at` on `ost`
    /// (product of all matching slow windows; 1.0 = unperturbed).
    pub fn ost_slow_factor(&self, ost: usize, at: SimTime) -> f64 {
        let mut f = 1.0;
        for rule in &self.rules {
            if let FaultRule::OstSlow { ost: o, factor, from, until } = rule {
                if o.is_none_or(|x| x == ost) && at >= *from && at < *until {
                    f *= factor;
                }
            }
        }
        f
    }

    /// Number of consecutive transient failures a request starting at op
    /// counter `op` on `ost` suffers before an attempt lands past every
    /// matching fail window (0 = clean).
    pub fn ost_failures(&self, ost: usize, op: u64) -> u64 {
        let mut fails = 0u64;
        for rule in &self.rules {
            if let FaultRule::OstFailAfter { ost: o, ops, fail_ops } = rule {
                if *o == ost && (*ops..ops + fail_ops).contains(&op) {
                    fails = fails.max(ops + fail_ops - op);
                }
            }
        }
        fails
    }

    /// The fault decision for the `seq`-th message from `src` to `dst`:
    /// pure in its arguments, so any host interleaving draws identically.
    pub fn msg_fault(&self, src: usize, dst: usize, seq: u64) -> MsgFault {
        let mut out = MsgFault::NONE;
        for (i, rule) in self.rules.iter().enumerate() {
            match rule {
                FaultRule::MsgDrop { prob, src: s, dst: d }
                    if s.is_none_or(|x| x == src) && d.is_none_or(|x| x == dst) =>
                {
                    let mut rng = SplitMix64::new(stream_seed(
                        self.seed, 1, i as u64, src as u64, dst as u64, seq,
                    ));
                    while out.drops < self.max_retries && rng.next_f64() < *prob {
                        out.drops += 1;
                    }
                }
                FaultRule::MsgDelayJitter { jitter, prob } => {
                    let mut rng = SplitMix64::new(stream_seed(
                        self.seed, 2, i as u64, src as u64, dst as u64, seq,
                    ));
                    if rng.next_f64() < *prob {
                        out.delay_factor *= jitter.draw(&mut rng).max(1.0);
                    }
                }
                FaultRule::MsgCorrupt { prob, src: s, dst: d }
                    if s.is_none_or(|x| x == src) && d.is_none_or(|x| x == dst) =>
                {
                    let mut rng = SplitMix64::new(stream_seed(
                        self.seed, 4, i as u64, src as u64, dst as u64, seq,
                    ));
                    if rng.next_f64() < *prob {
                        // `| 1` keeps the token (and its XOR mask byte)
                        // nonzero, so 0 can mean "clean" everywhere.
                        out.corrupt = rng.next_u64() | 1;
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Virtual-time penalty for `drops` failed transmission attempts:
    /// exponential backoff plus one re-transfer of `wire` per attempt.
    pub fn retry_penalty(&self, drops: u32, wire: SimTime) -> SimTime {
        let mut penalty = SimTime::ZERO;
        for i in 0..drops {
            penalty += self.retry_timeout * (1u64 << i.min(20)) as f64 + wire;
        }
        penalty
    }
}

/// Per-rank mutable fault bookkeeping, owned by the rank's `Endpoint`
/// (which is `!Sync`, so plain interior mutability suffices). Protocol
/// layers reach it through `Endpoint::faults`.
#[derive(Debug)]
pub struct FaultState {
    plan: Arc<FaultPlan>,
    /// Per-destination send sequence counters — the deterministic
    /// coordinate of each message's fault draw — for the destinations
    /// this rank has sent to: one counter per rank of the cluster in
    /// every rank was `ranks²` counters.
    send_seq: RefCell<HashMap<usize, u64>>,
    /// One-shot consumption flags for `RankStall` rules, by rule index.
    stall_used: RefCell<Vec<bool>>,
    /// Ranks whose I/O role is known (to this rank) to have crashed.
    /// Sticky: once dead, dead for the rest of the run.
    dead: RefCell<BTreeSet<usize>>,
    /// Cumulative collective write rounds this rank has entered; all
    /// members of a subgroup advance it in lock step, which is what makes
    /// communication-free symmetric crash detection possible.
    rounds: Cell<u64>,
    /// Per-(source rank, tag) FIFO of received corruption tokens, pushed
    /// by the endpoint at packet arrival (one entry per packet, zero for
    /// clean) and popped by the protocol layer as it consumes payloads.
    /// Keeping zeros preserves push/pop alignment across mixed traffic.
    corrupt_events: RefCell<BTreeMap<(usize, i32), VecDeque<u64>>>,
    /// The corruption token of this rank's most recent *send* draw — lets
    /// a sender know (purely, from its own draw) that the copy in flight
    /// is doomed and proactively post repair copies.
    last_corrupt: Cell<u64>,
}

impl FaultState {
    /// Fresh per-rank state over a shared plan.
    pub fn new(plan: Arc<FaultPlan>) -> Self {
        let nrules = plan.rules.len();
        FaultState {
            plan,
            send_seq: RefCell::default(),
            stall_used: RefCell::new(vec![false; nrules]),
            dead: RefCell::new(BTreeSet::new()),
            rounds: Cell::new(0),
            corrupt_events: RefCell::new(BTreeMap::new()),
            last_corrupt: Cell::new(0),
        }
    }

    /// The shared plan.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// Draw the fault decision for the next message from `src` (this
    /// rank) to `dst`, advancing the per-destination sequence.
    pub fn draw_msg(&self, src: usize, dst: usize) -> MsgFault {
        let mut seqs = self.send_seq.borrow_mut();
        let next = seqs.entry(dst).or_insert(0);
        let seq = *next;
        *next += 1;
        let fault = self.plan.msg_fault(src, dst, seq);
        self.last_corrupt.set(fault.corrupt);
        fault
    }

    /// The corruption token of the most recent send draw (0 = clean).
    /// A sender inspects this right after posting a payload to decide
    /// whether to follow up with proactive repair copies.
    pub fn last_send_corrupt(&self) -> u64 {
        self.last_corrupt.get()
    }

    /// Record the corruption token of a packet arriving from `src` on
    /// `tag` (0 for clean packets — pushed anyway to keep FIFO alignment).
    pub fn push_corrupt(&self, src: usize, tag: i32, token: u64) {
        self.corrupt_events
            .borrow_mut()
            .entry((src, tag))
            .or_default()
            .push_back(token);
    }

    /// Pop the corruption token for the next consumed payload from `src`
    /// on `tag`; 0 when no event was recorded (clean, or no corrupt rules
    /// installed).
    pub fn take_corrupt(&self, src: usize, tag: i32) -> u64 {
        self.corrupt_events
            .borrow_mut()
            .get_mut(&(src, tag))
            .and_then(|q| q.pop_front())
            .unwrap_or(0)
    }

    /// Consume the one-shot stall for `(rank, phase)` if one is configured
    /// and unused; returns its duration.
    pub fn take_stall(&self, rank: usize, phase: &str) -> Option<SimTime> {
        let mut used = self.stall_used.borrow_mut();
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if let FaultRule::RankStall { rank: r, at_phase, duration } = rule {
                if *r == rank && at_phase == phase && !used[i] {
                    used[i] = true;
                    return Some(*duration);
                }
            }
        }
        None
    }

    /// True when `rank`'s I/O role is known to have crashed.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead.borrow().contains(&rank)
    }

    /// Record `rank` as crashed; returns true when this is news.
    pub fn mark_dead(&self, rank: usize) -> bool {
        self.dead.borrow_mut().insert(rank)
    }

    /// The known-dead ranks, ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.dead.borrow().iter().copied().collect()
    }

    /// Monotone epoch of the dead set (its cardinality): equal across
    /// ranks exactly when their dead sets agree, which ParColl establishes
    /// with a gated allgather before (re)partitioning.
    pub fn dead_epoch(&self) -> u64 {
        self.dead.borrow().len() as u64
    }

    /// Enter a collective write round: returns the round's cumulative
    /// index and advances the counter.
    pub fn next_write_round(&self) -> u64 {
        let r = self.rounds.get();
        self.rounds.set(r + 1);
        r
    }

    /// Cumulative write rounds entered so far.
    pub fn write_round(&self) -> u64 {
        self.rounds.get()
    }

    /// Raise the round counter to `r` (no-op when already past it). Ranks
    /// that regroup into a communicator after unequal round histories use
    /// an allreduce-MAX of their counters to re-agree before detection.
    pub fn set_write_round(&self, r: u64) {
        if r > self.rounds.get() {
            self.rounds.set(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_fault_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(1).msg_drop(0.5, None, None).msg_delay_jitter(0.3, 0.5);
        let b = FaultPlan::new(1).msg_drop(0.5, None, None).msg_delay_jitter(0.3, 0.5);
        let c = FaultPlan::new(2).msg_drop(0.5, None, None).msg_delay_jitter(0.3, 0.5);
        let mut diff = 0;
        for seq in 0..256 {
            assert_eq!(a.msg_fault(3, 5, seq), b.msg_fault(3, 5, seq));
            if a.msg_fault(3, 5, seq) != c.msg_fault(3, 5, seq) {
                diff += 1;
            }
        }
        assert!(diff > 64, "different seeds must draw differently ({diff})");
    }

    #[test]
    fn msg_drop_filters_by_src_dst() {
        let plan = FaultPlan::new(7).msg_drop(1.0, Some(2), Some(3));
        // Certain drop on the matching pair, capped at max_retries.
        assert_eq!(plan.msg_fault(2, 3, 0).drops, plan.max_retries);
        assert_eq!(plan.msg_fault(2, 4, 0).drops, 0);
        assert_eq!(plan.msg_fault(1, 3, 0).drops, 0);
    }

    #[test]
    fn delay_factor_never_speeds_up() {
        let plan = FaultPlan::new(9).msg_delay_jitter(0.5, 1.0);
        for seq in 0..200 {
            assert!(plan.msg_fault(0, 1, seq).delay_factor >= 1.0);
        }
    }

    #[test]
    fn retry_penalty_backs_off_exponentially() {
        let plan = FaultPlan::new(0);
        let w = SimTime::micros(10.0);
        let p1 = plan.retry_penalty(1, w);
        let p2 = plan.retry_penalty(2, w);
        // Second attempt's backoff is 2x the first's.
        assert_eq!(p2 - p1, plan.retry_timeout * 2.0 + w);
        assert_eq!(plan.retry_penalty(0, w), SimTime::ZERO);
    }

    #[test]
    fn ost_windows_and_failures() {
        let plan = FaultPlan::new(0)
            .ost_slow(Some(1), 4.0, SimTime::secs(1.0), SimTime::secs(2.0))
            .ost_slow(None, 2.0, SimTime::ZERO, SimTime::secs(10.0))
            .ost_fail_after(3, 10, 4);
        // Both windows apply to ost 1 at t=1.5: 4 * 2.
        assert_eq!(plan.ost_slow_factor(1, SimTime::secs(1.5)), 8.0);
        // Only the catch-all outside [1, 2).
        assert_eq!(plan.ost_slow_factor(1, SimTime::secs(3.0)), 2.0);
        assert_eq!(plan.ost_slow_factor(0, SimTime::secs(1.5)), 2.0);
        // Fail window [10, 14): op 12 suffers 2 failures, op 14 none.
        assert_eq!(plan.ost_failures(3, 12), 2);
        assert_eq!(plan.ost_failures(3, 14), 0);
        assert_eq!(plan.ost_failures(2, 12), 0);
    }

    #[test]
    fn stall_is_one_shot_per_rule() {
        let plan = Arc::new(
            FaultPlan::new(0).rank_stall(4, "write_all", SimTime::millis(5.0)),
        );
        let st = FaultState::new(plan);
        assert_eq!(st.take_stall(4, "write_all"), Some(SimTime::millis(5.0)));
        assert_eq!(st.take_stall(4, "write_all"), None, "consumed");
        assert_eq!(st.take_stall(4, "read_all"), None);
        assert_eq!(st.take_stall(3, "write_all"), None);
    }

    #[test]
    fn dead_set_is_sticky_with_monotone_epoch() {
        let st = FaultState::new(Arc::new(FaultPlan::new(0)));
        assert_eq!(st.dead_epoch(), 0);
        assert!(st.mark_dead(2));
        assert!(!st.mark_dead(2), "re-marking is not news");
        assert!(st.is_dead(2));
        assert!(st.mark_dead(0));
        assert_eq!(st.dead_epoch(), 2);
        assert_eq!(st.dead_ranks(), vec![0, 2]);
    }

    #[test]
    fn send_sequences_advance_per_destination() {
        let plan = Arc::new(FaultPlan::new(3).msg_drop(0.5, None, None));
        let st = FaultState::new(Arc::clone(&plan));
        // Two sends to dst 1 use seq 0 then 1; a send to dst 2 uses seq 0.
        let a = st.draw_msg(0, 1);
        let b = st.draw_msg(0, 1);
        let c = st.draw_msg(0, 2);
        assert_eq!(a, plan.msg_fault(0, 1, 0));
        assert_eq!(b, plan.msg_fault(0, 1, 1));
        assert_eq!(c, plan.msg_fault(0, 2, 0));
        // Counters exist for the destinations drawn for, whatever the
        // cluster's size.
        let far = st.draw_msg(0, 1 << 20);
        assert_eq!(far, plan.msg_fault(0, 1 << 20, 0));
        assert_eq!(st.send_seq.borrow().len(), 3);
    }

    #[test]
    fn crash_rules_query() {
        let plan = FaultPlan::new(0).aggregator_crash(5, 3).aggregator_crash(5, 1);
        assert!(plan.has_crash_rules());
        assert_eq!(plan.agg_crash(5), Some(1), "earliest round wins");
        assert_eq!(plan.agg_crash(4), None);
        assert!(!FaultPlan::new(0).msg_drop(0.1, None, None).has_crash_rules());
    }

    #[test]
    fn write_round_counter_advances() {
        let st = FaultState::new(Arc::new(FaultPlan::new(0)));
        assert_eq!(st.next_write_round(), 0);
        assert_eq!(st.next_write_round(), 1);
        assert_eq!(st.write_round(), 2);
    }

    #[test]
    fn msg_corrupt_draws_are_deterministic_and_filtered() {
        let plan = FaultPlan::new(11).msg_corrupt(1.0, Some(2), None);
        let f = plan.msg_fault(2, 5, 0);
        assert_ne!(f.corrupt, 0, "prob=1.0 must corrupt");
        assert_eq!(f, plan.msg_fault(2, 5, 0), "pure in coordinates");
        assert_eq!(plan.msg_fault(3, 5, 0).corrupt, 0, "src filter");
        let sparse = FaultPlan::new(11).msg_corrupt(0.1, None, None);
        let hits = (0..1000).filter(|&s| sparse.msg_fault(0, 1, s).corrupt != 0).count();
        assert!((50..200).contains(&hits), "~10% corruption rate, got {hits}");
    }

    #[test]
    fn corrupt_flip_is_self_inverse_and_visible() {
        let orig: Vec<u8> = (0..97u8).collect();
        let mut buf = orig.clone();
        let token = FaultPlan::new(1).msg_corrupt(1.0, None, None).msg_fault(0, 1, 0).corrupt;
        corrupt_flip(&mut buf, &mut [], token);
        assert_ne!(buf, orig, "a nonzero token must change a byte");
        corrupt_flip(&mut buf, &mut [], token);
        assert_eq!(buf, orig, "XOR flip is self-inverse");
        corrupt_flip(&mut buf, &mut [], 0);
        assert_eq!(buf, orig, "token 0 is a no-op");
        corrupt_flip(&mut [], &mut [], token);
        // Cut anywhere into payload ‖ trailer, the same byte flips.
        corrupt_flip(&mut buf, &mut [], token);
        for cut in 0..=orig.len() {
            let (mut head, mut tail) = (orig[..cut].to_vec(), orig[cut..].to_vec());
            corrupt_flip(&mut head, &mut tail, token);
            assert_eq!([head, tail].concat(), buf, "cut at {cut}");
        }
    }

    #[test]
    fn torn_write_counts_as_crash() {
        let plan = FaultPlan::new(0).torn_write(3, 2);
        assert!(plan.has_crash_rules());
        assert_eq!(plan.agg_crash(3), Some(2));
        assert!(plan.torn_crash(3));
        assert!(!plan.torn_crash(1));
        // A clean crash at an earlier round shadows the torn one.
        let mixed = FaultPlan::new(0).torn_write(3, 2).aggregator_crash(3, 1);
        assert_eq!(mixed.agg_crash(3), Some(1));
        assert!(!mixed.torn_crash(3));
    }

    #[test]
    fn rot_regions_and_flip_are_in_bounds() {
        let plan = FaultPlan::new(5)
            .ost_rot(1000, 64)
            .msg_drop(0.1, None, None)
            .ost_rot(4096, 1);
        let regions = plan.ost_rot_regions();
        assert_eq!(regions, vec![(0, 1000, 64), (2, 4096, 1)]);
        for &(rule, off, len) in &regions {
            let (byte, xor) = plan.rot_flip(rule).unwrap();
            assert!((off..off + len).contains(&byte));
            assert_ne!(xor, 0, "the planted flip must change the byte");
            assert_eq!(plan.rot_flip(rule), Some((byte, xor)), "pure draw");
        }
        assert_eq!(plan.rot_flip(1), None, "not a rot rule");
    }

    #[test]
    fn corrupt_event_queue_is_fifo_per_src_tag() {
        let st = FaultState::new(Arc::new(FaultPlan::new(0)));
        st.push_corrupt(1, 7, 0);
        st.push_corrupt(1, 7, 99);
        st.push_corrupt(2, 7, 5);
        assert_eq!(st.take_corrupt(1, 7), 0);
        assert_eq!(st.take_corrupt(1, 7), 99);
        assert_eq!(st.take_corrupt(1, 7), 0, "drained queue reads clean");
        assert_eq!(st.take_corrupt(2, 7), 5);
        assert_eq!(st.take_corrupt(3, 8), 0, "unknown key reads clean");
    }

    #[test]
    fn last_send_corrupt_tracks_draw() {
        let plan = Arc::new(FaultPlan::new(1).msg_corrupt(1.0, None, Some(1)));
        let st = FaultState::new(Arc::clone(&plan));
        assert_eq!(st.last_send_corrupt(), 0);
        let f = st.draw_msg(0, 1);
        assert_eq!(st.last_send_corrupt(), f.corrupt);
        assert_ne!(st.last_send_corrupt(), 0);
        st.draw_msg(0, 2);
        assert_eq!(st.last_send_corrupt(), 0, "clean draw resets the cell");
    }
}
