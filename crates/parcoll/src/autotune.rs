//! Online autotuning of the ParColl subgroup count from per-phase
//! feedback — the control loop closing the paper's §6 future work over
//! the observability built in the simtrace PRs.
//!
//! The reproduction's figure sweeps (Figures 7/9) hand-pick the subgroup
//! count per invocation — exactly the tuning burden the ROMIO hints
//! model pushes onto users. This module replaces the sweep with a
//! deterministic feedback controller: after each *epoch* (one collective
//! write), every rank agrees (one `allreduce MAX`) on the epoch's wall
//! time and per-phase attribution — the same sync/p2p/io/local buckets
//! the `phase` trace spans and `simtrace::analysis::critical_path`
//! reconcile against — and feeds the agreed numbers to an
//! [`AutoTuner`]. The tuner then picks the subgroup count for the next
//! epoch. The aggregator layout and the file-area strategy stay what the
//! hints and [`crate::fa`] make them.
//!
//! # Decision rules (see DESIGN.md §11)
//!
//! * **Direction from attribution.** A high agreed sync share means the
//!   collective wall dominates → *more* subgroups; a very low sync share
//!   with multiple groups means aggregation has been cut too fine →
//!   *fewer*. The first move jumps ×4 when sync exceeds half the wall,
//!   ×2 otherwise, so convergence from the default configuration takes
//!   O(1) epochs rather than a full ladder.
//! * **Hysteresis.** A move is kept only if the agreed wall improves by
//!   at least [`HYSTERESIS`] relative to the best measured epoch;
//!   otherwise the tuner reverts to the best-measured group count.
//!   Because the default configuration is always epoch 0's measurement,
//!   a settled tuner's agreed epoch wall is never worse than the static
//!   default's.
//!
//! # Determinism
//!
//! Every decision is a pure function of the tuner state and the *agreed*
//! feedback (reduced over ranks in virtual time), so all ranks hold
//! bitwise-identical tuner states without further communication — the
//! same discipline as `simnet::fault`. Two runs of the same workload and
//! seed produce identical epoch-by-epoch decisions and byte-identical
//! file images; with autotuning disabled no code path changes at all.
//!
//! # The policy cache
//!
//! Learned state is keyed by `(file path, pattern signature)` in a
//! [`PolicyCache`] shared across opens: repeated opens of the same file
//! with the same access-pattern class resume from the learned
//! configuration instead of re-exploring. Entries remember the fault
//! dead-set epoch at store time and are invalidated when aggregator
//! crashes (PR 4's degraded mode) change the effective cluster.

use mpiio::Run;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Relative wall-time improvement a move must deliver to be kept.
pub const HYSTERESIS: f64 = 0.02;

/// Agreed sync share above which the tuner partitions more finely.
pub const SYNC_HI: f64 = 0.25;

/// Agreed sync share below which extra subgroups are judged useless.
pub const SYNC_LO: f64 = 0.10;

/// Agreed (allreduce-MAX over ranks) measurement of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochFeedback {
    /// Slowest rank's elapsed virtual µs over the epoch.
    pub wall_us: u64,
    /// Slowest rank's µs in global synchronization.
    pub sync_us: u64,
    /// Slowest rank's µs in point-to-point exchange.
    pub p2p_us: u64,
    /// Slowest rank's µs in file I/O.
    pub io_us: u64,
    /// Slowest rank's µs in local data movement.
    pub local_us: u64,
}

impl EpochFeedback {
    fn sync_share(&self) -> f64 {
        let t = self.sync_us + self.p2p_us + self.io_us + self.local_us;
        if t == 0 {
            0.0
        } else {
            self.sync_us as f64 / t as f64
        }
    }
}

/// One line of the tuner's epoch-by-epoch audit log (what ran, what was
/// measured, what the tuner did about it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Epoch index (monotone across reopens via the policy cache).
    pub epoch: u64,
    /// Subgroup count the epoch ran with.
    pub groups: usize,
    /// Agreed feedback observed for the epoch.
    pub feedback: EpochFeedback,
    /// What the tuner decided (`climb-up`, `backoff`, `settle`, ...).
    pub action: &'static str,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// First epoch: measure the incumbent, then choose a direction.
    Warmup,
    /// Hill-climbing the group count by `step` in one direction.
    Climb { up: bool, step: usize },
    /// Exploration finished; the group count is the best measured.
    Settled,
}

/// Deterministic feedback controller for the ParColl subgroup count.
///
/// Construct with the starting (default or hinted) group count, run an
/// epoch with [`groups`](AutoTuner::groups), then feed the agreed
/// measurement to [`observe`](AutoTuner::observe). Once
/// [`is_settled`](AutoTuner::is_settled) reports `true` the count stops
/// moving and no further observation (hence no whole-group collective)
/// is needed.
#[derive(Debug, Clone)]
pub struct AutoTuner {
    nprocs: usize,
    min_group: usize,
    epoch: u64,
    groups: usize,
    /// Best measured `(groups, wall_us)` so far. Epoch 0 measures the
    /// incumbent (default) count, so a settled tuner's epoch wall is
    /// never worse than it.
    best: Option<(usize, u64)>,
    stage: Stage,
    log: Vec<DecisionRecord>,
}

impl AutoTuner {
    /// A fresh tuner for `nprocs` ranks starting from `start` subgroups
    /// (the static default, or an explicit `parcoll_groups` hint).
    /// `min_group` bounds how fine partitioning may go, exactly as
    /// [`crate::ParcollConfig::effective_groups`] does.
    pub fn new(nprocs: usize, min_group: usize, start: usize) -> Self {
        let min_group = min_group.max(1);
        AutoTuner {
            nprocs,
            min_group,
            epoch: 0,
            groups: start.clamp(1, Self::cap_for(nprocs, min_group)),
            best: None,
            stage: Stage::Warmup,
            log: Vec::new(),
        }
    }

    fn cap_for(nprocs: usize, min_group: usize) -> usize {
        (nprocs / min_group).max(1)
    }

    fn cap(&self) -> usize {
        Self::cap_for(self.nprocs, self.min_group)
    }

    /// Rank count this tuner was built for.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The subgroup count the next epoch should run with.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Epochs observed so far (monotone across reopens).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True once exploration has finished; the count no longer moves and
    /// [`observe`](AutoTuner::observe) need not be called (saving the
    /// per-epoch agreement collective).
    pub fn is_settled(&self) -> bool {
        self.stage == Stage::Settled
    }

    /// The epoch-by-epoch audit log of this tuner instance (the policy
    /// cache stores tuners without it).
    pub fn log(&self) -> &[DecisionRecord] {
        &self.log
    }

    fn push(&mut self, groups: usize, fb: EpochFeedback, action: &'static str) {
        self.log.push(DecisionRecord {
            epoch: self.epoch,
            groups,
            feedback: fb,
            action,
        });
        self.epoch += 1;
    }

    fn best_groups(&self) -> usize {
        self.best.map_or(self.groups, |(g, _)| g)
    }

    /// Record `wall` for the count that just ran; returns the best wall
    /// *before* this epoch (what a move must beat).
    fn score(&mut self, wall: u64) -> Option<u64> {
        let prior = self.best.map(|(_, w)| w);
        if prior.is_none_or(|w| wall < w) {
            self.best = Some((self.groups, wall));
        }
        prior
    }

    fn improved(wall: u64, prior: Option<u64>) -> bool {
        match prior {
            None => true,
            Some(p) => (wall as f64) <= (p as f64) * (1.0 - HYSTERESIS),
        }
    }

    /// Settle on the best measured group count.
    fn finish_groups(&mut self) -> &'static str {
        self.groups = self.best_groups();
        self.stage = Stage::Settled;
        "settle"
    }

    /// Feed the agreed measurement of the epoch that ran
    /// [`groups`](AutoTuner::groups); the tuner updates the count for the
    /// next epoch. Pure: identical state + identical feedback ⇒ identical
    /// decision on every rank.
    pub fn observe(&mut self, fb: EpochFeedback) {
        let ran = self.groups;
        if self.stage == Stage::Settled {
            self.push(ran, fb, "hold");
            return;
        }

        let prior = self.score(fb.wall_us);
        let cap = self.cap();
        let action = match self.stage {
            Stage::Warmup => {
                let share = fb.sync_share();
                if share >= SYNC_HI && self.groups * 2 <= cap {
                    let step = if share >= 0.5 { 4 } else { 2 };
                    self.groups = (self.groups * step).min(cap);
                    self.stage = Stage::Climb { up: true, step };
                    "climb-up"
                } else if share <= SYNC_LO && self.groups > 1 {
                    self.groups = (self.groups / 2).max(1);
                    self.stage = Stage::Climb { up: false, step: 2 };
                    "climb-down"
                } else {
                    self.finish_groups()
                }
            }
            Stage::Climb { up, step } => {
                if Self::improved(fb.wall_us, prior) {
                    let next = if up {
                        (self.groups * step).min(cap)
                    } else {
                        (self.groups / step).max(1)
                    };
                    if next == self.groups {
                        // Boundary reached; the incumbent is the best.
                        self.finish_groups()
                    } else {
                        self.groups = next;
                        if up {
                            "climb-up"
                        } else {
                            "climb-down"
                        }
                    }
                } else if step == 4 {
                    // The ×4 jump overshot: retry at ×2 from the best.
                    let best = self.best_groups();
                    let next = if up {
                        (best * 2).min(cap)
                    } else {
                        (best / 2).max(1)
                    };
                    if next == best || Some(next) == prior.map(|_| ran) {
                        self.finish_groups()
                    } else {
                        self.groups = next;
                        self.stage = Stage::Climb { up, step: 2 };
                        "backoff"
                    }
                } else {
                    // The move did not pay for itself: revert to the best
                    // and stop exploring.
                    self.finish_groups()
                }
            }
            Stage::Settled => unreachable!("handled above"),
        };
        self.push(ran, fb, action);
    }
}

// ---------------------------------------------------------------------
// Pattern signature
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_word(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash one rank's access shape — its plan's runs, offsets relative to
/// the first — so the signature is invariant under the uniform per-call
/// shift of a tiled view.
pub fn shape_signature(runs: &[Run]) -> u64 {
    let base = runs.first().map_or(0, |r| r.off);
    let mut h = fnv_word(FNV_OFFSET, runs.len() as u64);
    for r in runs {
        for w in [r.off - base, r.len, r.stride, r.count] {
            h = fnv_word(h, w);
        }
    }
    h
}

/// Fold all ranks' shape hashes (rank order) plus the rank count into
/// the pattern signature keying the policy cache.
pub fn pattern_signature(nprocs: usize, rank_hashes: &[u64]) -> u64 {
    let mut h = fnv_word(FNV_OFFSET, nprocs as u64);
    for &rh in rank_hashes {
        h = fnv_word(h, rh);
    }
    h
}

// ---------------------------------------------------------------------
// Policy cache
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct PolicyEntry {
    tuner: AutoTuner,
    dead_epoch: u64,
}

/// Cross-open store of learned tuner state, keyed by `(file path,
/// pattern signature)`. Clones share the same map, so a benchmark sweep
/// threads one cache through its reopens and every open resumes where
/// the previous one left off.
///
/// Entries record the fault dead-set epoch current at store time;
/// [`load`](PolicyCache::load) treats a different epoch as a miss, so a
/// configuration learned on the healthy cluster is not replayed onto a
/// degraded one (PR 4's aggregator crashes change which layouts are even
/// admissible).
#[derive(Debug, Clone, Default)]
pub struct PolicyCache {
    inner: Arc<Mutex<HashMap<(String, u64), PolicyEntry>>>,
}

impl PolicyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the stored tuner for `(path, signature)`, missing when
    /// absent or stored under a different dead-set epoch.
    pub fn load(&self, path: &str, signature: u64, dead_epoch: u64) -> Option<AutoTuner> {
        let map = self.inner.lock().expect("policy cache poisoned");
        let e = map.get(&(path.to_string(), signature))?;
        (e.dead_epoch == dead_epoch).then(|| e.tuner.clone())
    }

    /// Store `tuner` for `(path, signature)` under the current dead-set
    /// epoch, replacing any previous entry. Its audit log stays with the
    /// open that made it.
    pub fn store(&self, path: &str, signature: u64, dead_epoch: u64, tuner: &AutoTuner) {
        let tuner = AutoTuner {
            log: Vec::new(),
            ..tuner.clone()
        };
        let mut map = self.inner.lock().expect("policy cache poisoned");
        map.insert(
            (path.to_string(), signature),
            PolicyEntry { tuner, dead_epoch },
        );
    }

    /// Number of learned entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("policy cache poisoned").len()
    }

    /// True when nothing has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(wall: u64, sync: u64, io: u64) -> EpochFeedback {
        EpochFeedback {
            wall_us: wall,
            sync_us: sync,
            p2p_us: 0,
            io_us: io,
            local_us: 0,
        }
    }

    #[test]
    fn severe_sync_share_jumps_4x() {
        let mut t = AutoTuner::new(512, 8, 16);
        t.observe(fb(1000, 800, 200)); // share 0.8
        assert_eq!(t.groups(), 64);
        assert_eq!(t.log()[0].action, "climb-up");
    }

    #[test]
    fn moderate_sync_share_steps_2x() {
        let mut t = AutoTuner::new(512, 8, 16);
        t.observe(fb(1000, 350, 650)); // share 0.35
        assert_eq!(t.groups(), 32);
    }

    #[test]
    fn low_sync_share_with_groups_climbs_down() {
        let mut t = AutoTuner::new(512, 8, 16);
        t.observe(fb(1000, 50, 950)); // share 0.05
        assert_eq!(t.groups(), 8);
        assert_eq!(t.log()[0].action, "climb-down");
    }

    #[test]
    fn keeps_climbing_while_improving_then_reverts_to_best() {
        let mut t = AutoTuner::new(512, 8, 16);
        t.observe(fb(1000, 350, 650)); // -> 32
        t.observe(fb(700, 200, 500)); // improved -> 64
        assert_eq!(t.groups(), 64);
        t.observe(fb(900, 100, 800)); // worse: revert and settle
        assert!(t.is_settled());
        assert_eq!(t.groups(), 32);
    }

    #[test]
    fn overshoot_backs_off_to_2x_from_best() {
        let mut t = AutoTuner::new(512, 8, 16);
        t.observe(fb(1000, 800, 100)); // ×4 -> 64
        t.observe(fb(1200, 700, 100)); // worse: backoff
        assert_eq!(t.log()[1].action, "backoff");
        assert_eq!(t.groups(), 32);
        t.observe(fb(600, 200, 100)); // improved -> 64 (already measured worse)
        t.observe(fb(1100, 100, 100)); // worse again: revert
        assert!(t.is_settled());
        assert_eq!(t.groups(), 32);
    }

    #[test]
    fn settled_never_worse_than_epoch0() {
        // Whatever the feedback, the settled count carries the minimum
        // measured wall — epoch 0 (the default) is always a candidate.
        let mut t = AutoTuner::new(256, 8, 8);
        let walls = [1000u64, 1500, 2000, 1800, 2500];
        let mut i = 0;
        while !t.is_settled() && i < walls.len() {
            t.observe(fb(walls[i], walls[i] / 2, walls[i] / 4));
            i += 1;
        }
        assert_eq!(t.best, Some((8, 1000)), "epoch 0 was the best and must win");
        assert_eq!(t.groups(), 8);
    }

    #[test]
    fn observe_after_settle_holds() {
        let mut t = AutoTuner::new(16, 8, 1);
        t.observe(fb(100, 15, 60)); // share 0.2: settle
        assert!(t.is_settled());
        t.observe(fb(500, 400, 50));
        assert_eq!(t.groups(), 1, "a settled count never moves");
        assert_eq!(t.log().last().unwrap().action, "hold");
    }

    #[test]
    fn snapshot_roundtrip_preserves_behavior() {
        let mut t = AutoTuner::new(512, 8, 16);
        t.observe(fb(1000, 800, 100));
        t.observe(fb(700, 300, 100));
        let cache = PolicyCache::new();
        cache.store("/f", 1, 0, &t);
        let mut r = cache.load("/f", 1, 0).expect("stored");
        assert_eq!(r.groups(), t.groups());
        assert_eq!(r.epoch(), t.epoch());
        assert_eq!(r.is_settled(), t.is_settled());
        assert!(r.log().is_empty(), "the log stays with the open");
        // Both copies evolve identically on identical feedback.
        let next = fb(650, 250, 100);
        t.observe(next);
        r.observe(next);
        assert_eq!(r.groups(), t.groups());
        assert_eq!(r.log(), &t.log()[2..]);
    }

    #[test]
    fn shape_signature_is_shift_invariant_by_construction() {
        // Offsets count from the first run: shifted shapes hash equal,
        // different shapes differ.
        let run = |off, stride| Run {
            off,
            len: 64,
            stride,
            count: 2,
        };
        let a = shape_signature(&[run(0, 256), Run::piece(1024, 8)]);
        let b = shape_signature(&[run(4096, 256), Run::piece(5120, 8)]);
        let c = shape_signature(&[run(0, 128), Run::piece(1024, 8)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn pattern_signature_depends_on_rank_count_and_order() {
        let h = [1u64, 2, 3];
        assert_ne!(pattern_signature(3, &h), pattern_signature(4, &h));
        assert_ne!(
            pattern_signature(3, &[1, 2, 3]),
            pattern_signature(3, &[3, 2, 1])
        );
    }

    /// The group count a cache hit resumes with.
    fn hit(c: &PolicyCache, path: &str, sig: u64, dead: u64) -> Option<usize> {
        c.load(path, sig, dead).map(|t| t.groups())
    }

    #[test]
    fn policy_cache_roundtrip() {
        let c = PolicyCache::new();
        assert!(c.is_empty());
        c.store("/f", 42, 0, &AutoTuner::new(64, 8, 2));
        assert_eq!(hit(&c, "/f", 42, 0), Some(2));
        assert_eq!(hit(&c, "/f", 43, 0), None, "different signature misses");
        assert_eq!(hit(&c, "/g", 42, 0), None, "different path misses");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn policy_cache_invalidates_on_dead_epoch_change() {
        // PR 4's degraded mode bumps the dead-set epoch on aggregator
        // crashes; a policy learned on the healthy cluster must not be
        // replayed onto the degraded one.
        let c = PolicyCache::new();
        c.store("/f", 7, 0, &AutoTuner::new(64, 8, 4));
        assert_eq!(hit(&c, "/f", 7, 1), None, "crash epoch invalidates");
        assert_eq!(hit(&c, "/f", 7, 0), Some(4), "healthy epoch still hits");
        // Re-learning under the degraded cluster replaces the entry.
        c.store("/f", 7, 1, &AutoTuner::new(64, 8, 2));
        assert_eq!(hit(&c, "/f", 7, 1), Some(2));
        assert_eq!(hit(&c, "/f", 7, 0), None, "stale healthy policy gone");
    }

    #[test]
    fn clones_share_state() {
        let a = PolicyCache::new();
        let b = a.clone();
        a.store("/f", 1, 0, &AutoTuner::new(64, 8, 8));
        assert_eq!(hit(&b, "/f", 1, 0), Some(8));
    }
}
