//! Online autotuning of the ParColl partitioning from per-phase
//! feedback — the control loop closing the paper's §6 future work over
//! the observability built in the simtrace PRs.
//!
//! The reproduction's figure sweeps (Figures 7/9) hand-pick the subgroup
//! count and aggregator layout per invocation — exactly the tuning
//! burden the ROMIO hints model pushes onto users. This module replaces
//! the sweep with a deterministic feedback controller: after each
//! *epoch* of collective writes, every rank agrees (one `allreduce MAX`)
//! on the epoch's wall time and per-phase attribution — the same
//! sync/p2p/io/local buckets the `phase` trace spans and
//! `simtrace::analysis::critical_path` reconcile against — and feeds the
//! agreed numbers to an [`AutoTuner`]. The tuner then picks the subgroup
//! count, aggregator distribution and FA strategy for the next epoch.
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
//!   otherwise the tuner reverts to the best-measured knobs. Because the
//!   default configuration is always epoch 0's measurement, a settled
//!   tuner can never be worse than the static default.
//! * **FA strategy from the observed pattern.** If the first epoch runs
//!   through the intermediate view, the pattern is spread (Figure 4(c))
//!   and the strategy pins to [`FaStrategy::Iview`]. If a group-count
//!   increase *flips* a previously direct pattern into the view, the cut
//!   crossed a tile-row boundary: the strategy becomes
//!   [`FaStrategy::TileRows`], which snaps the group count down to the
//!   largest value with disjoint FAs instead of paying the view switch.
//! * **Aggregator refinement.** Once the group count settles, an
//!   I/O-dominated profile triggers one probe of a denser per-group
//!   aggregator layout (two per subgroup, evenly spaced), accepted or
//!   reverted under the same hysteresis rule.
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

/// I/O share above which the settled tuner probes a denser aggregator
/// layout.
pub const IO_HI: f64 = 0.5;

/// How subgroup file areas are formed (the tuner's third knob, next to
/// the subgroup count and the aggregator layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaStrategy {
    /// Cut the offset-ordered ranks directly ([`crate::fa`] semantics);
    /// fall back to the intermediate view when FAs intersect.
    DirectCut,
    /// Like `DirectCut`, but on intersection snap the group count *down*
    /// to the largest value whose cuts land on pattern boundaries (whole
    /// tile rows, Figure 4(b)) instead of switching views.
    TileRows,
    /// Force the intermediate file view ([`crate::iview`]) — the right
    /// call for spread patterns (Figure 4(c)), where direct cuts can
    /// never succeed and re-detecting that every open wastes an epoch.
    Iview,
}

impl FaStrategy {
    /// Stable human-readable name, used in trace events and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaStrategy::DirectCut => "direct_cut",
            FaStrategy::TileRows => "tile_rows",
            FaStrategy::Iview => "iview",
        }
    }

    fn to_u64(self) -> u64 {
        match self {
            FaStrategy::DirectCut => 0,
            FaStrategy::TileRows => 1,
            FaStrategy::Iview => 2,
        }
    }

    fn from_u64(v: u64) -> Option<Self> {
        match v {
            0 => Some(FaStrategy::DirectCut),
            1 => Some(FaStrategy::TileRows),
            2 => Some(FaStrategy::Iview),
            _ => None,
        }
    }
}

/// The complete tuned configuration for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneKnobs {
    /// Subgroup count.
    pub groups: usize,
    /// Synthesized aggregators per subgroup (`None` = honor the file's
    /// hinted aggregator list, distributed as [`crate::aggdist`] does).
    pub aggs_per_group: Option<usize>,
    /// File-area strategy.
    pub strategy: FaStrategy,
}

/// Which protocol path an epoch's collective writes took — the pattern
/// class detected at FA-partitioning time, fed back to the tuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeClass {
    /// One group (plain ext2ph).
    Single,
    /// Direct file-area partitioning succeeded.
    Direct,
    /// The intermediate file view was engaged.
    Iview,
}

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
    /// Protocol path the epoch's writes took.
    pub mode: ModeClass,
}

impl EpochFeedback {
    fn phase_total(&self) -> u64 {
        self.sync_us + self.p2p_us + self.io_us + self.local_us
    }

    fn sync_share(&self) -> f64 {
        let t = self.phase_total();
        if t == 0 {
            0.0
        } else {
            self.sync_us as f64 / t as f64
        }
    }

    fn io_share(&self) -> f64 {
        let t = self.phase_total();
        if t == 0 {
            0.0
        } else {
            self.io_us as f64 / t as f64
        }
    }
}

/// One line of the tuner's epoch-by-epoch audit log (what ran, what was
/// measured, what the tuner did about it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Epoch index (monotone across reopens via the policy cache).
    pub epoch: u64,
    /// Knobs the epoch ran with.
    pub knobs: TuneKnobs,
    /// Agreed feedback observed for the epoch.
    pub feedback: EpochFeedback,
    /// What the tuner decided (`climb-up`, `revert`, `settle`, ...).
    pub action: &'static str,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// First epoch: measure the incumbent, then choose a direction.
    Warmup,
    /// Hill-climbing the group count by `step` in one direction.
    Climb { up: bool, step: usize },
    /// Probing a denser per-group aggregator layout.
    AggProbe,
    /// Exploration finished; knobs are the best measured.
    Settled,
}

impl Stage {
    fn to_words(self) -> [u64; 3] {
        match self {
            Stage::Warmup => [0, 0, 0],
            Stage::Climb { up, step } => [1, u64::from(up), step as u64],
            Stage::AggProbe => [2, 0, 0],
            Stage::Settled => [3, 0, 0],
        }
    }

    fn from_words(w: &[u64]) -> Option<Self> {
        match w {
            [0, _, _] => Some(Stage::Warmup),
            [1, up, step] => Some(Stage::Climb {
                up: *up != 0,
                step: (*step).clamp(2, 4) as usize,
            }),
            [2, _, _] => Some(Stage::AggProbe),
            [3, _, _] => Some(Stage::Settled),
            _ => None,
        }
    }
}

/// Deterministic feedback controller for the ParColl knobs.
///
/// Construct with the starting (default or policy-cache) configuration,
/// run an epoch with [`current`](AutoTuner::current), then feed the
/// agreed measurement to [`observe`](AutoTuner::observe). Once
/// [`is_settled`](AutoTuner::is_settled) reports `true` the knobs stop
/// moving and no further observation (hence no whole-group collective)
/// is needed.
#[derive(Debug, Clone)]
pub struct AutoTuner {
    nprocs: usize,
    min_group: usize,
    epoch: u64,
    current: TuneKnobs,
    /// Best measured `(knobs, wall_us)` so far. Epoch 0 measures the
    /// incumbent (default) configuration, so a settled tuner is never
    /// worse than it.
    best: Option<(TuneKnobs, u64)>,
    stage: Stage,
    /// Whether any epoch has run direct (used to tell a spread pattern
    /// from a cut that crossed a tile-row boundary).
    saw_direct: bool,
    log: Vec<DecisionRecord>,
}

impl AutoTuner {
    /// A fresh tuner for `nprocs` ranks starting from `start` (the
    /// static-default configuration, or an explicit `parcoll_groups`
    /// hint). `min_group` bounds how fine partitioning may go, exactly
    /// as [`crate::ParcollConfig::effective_groups`] does.
    pub fn new(nprocs: usize, min_group: usize, start: TuneKnobs) -> Self {
        let cap = Self::cap_for(nprocs, min_group);
        AutoTuner {
            nprocs,
            min_group: min_group.max(1),
            epoch: 0,
            current: TuneKnobs {
                groups: start.groups.clamp(1, cap),
                ..start
            },
            best: None,
            stage: Stage::Warmup,
            saw_direct: false,
            log: Vec::new(),
        }
    }

    fn cap_for(nprocs: usize, min_group: usize) -> usize {
        (nprocs / min_group.max(1)).max(1)
    }

    fn cap(&self) -> usize {
        Self::cap_for(self.nprocs, self.min_group)
    }

    /// Rank count this tuner was built for.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The knobs the next epoch should run with.
    pub fn current(&self) -> TuneKnobs {
        self.current
    }

    /// Epochs observed so far (monotone across reopens).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True once exploration has finished; the knobs no longer move and
    /// [`observe`](AutoTuner::observe) need not be called (saving the
    /// per-epoch agreement collective).
    pub fn is_settled(&self) -> bool {
        self.stage == Stage::Settled
    }

    /// The epoch-by-epoch audit log of this tuner instance (not carried
    /// across policy-cache snapshots).
    pub fn log(&self) -> &[DecisionRecord] {
        &self.log
    }

    fn push(&mut self, knobs: TuneKnobs, fb: EpochFeedback, action: &'static str) {
        self.log.push(DecisionRecord {
            epoch: self.epoch,
            knobs,
            feedback: fb,
            action,
        });
        self.epoch += 1;
    }

    fn best_knobs(&self) -> TuneKnobs {
        self.best.map_or(self.current, |(k, _)| k)
    }

    /// Record `wall` for the knobs that just ran; returns the best wall
    /// *before* this epoch (what a move must beat).
    fn score(&mut self, wall: u64) -> Option<u64> {
        let prior = self.best.map(|(_, w)| w);
        if prior.is_none_or(|w| wall < w) {
            self.best = Some((self.current, wall));
        }
        prior
    }

    fn improved(wall: u64, prior: Option<u64>) -> bool {
        match prior {
            None => true,
            Some(p) => (wall as f64) <= (p as f64) * (1.0 - HYSTERESIS),
        }
    }

    /// Either probe a denser aggregator layout or settle on the best
    /// measured knobs.
    fn finish_groups(&mut self, fb: &EpochFeedback) -> &'static str {
        let best = self.best_knobs();
        let sub_size = self.nprocs / best.groups.max(1);
        if fb.io_share() >= IO_HI
            && best.aggs_per_group.is_none()
            && best.groups > 1
            && sub_size >= 4
        {
            self.current = TuneKnobs {
                aggs_per_group: Some(2),
                ..best
            };
            self.stage = Stage::AggProbe;
            "agg-probe"
        } else {
            self.current = best;
            self.stage = Stage::Settled;
            "settle"
        }
    }

    /// Feed the agreed measurement of the epoch that ran
    /// [`current`](AutoTuner::current); the tuner updates its knobs for
    /// the next epoch. Pure: identical state + identical feedback ⇒
    /// identical decision on every rank.
    pub fn observe(&mut self, fb: EpochFeedback) {
        let ran = self.current;
        if self.stage == Stage::Settled {
            self.push(ran, fb, "hold");
            return;
        }

        // Pattern classification from the observed protocol path.
        match fb.mode {
            ModeClass::Direct => self.saw_direct = true,
            ModeClass::Iview if self.current.strategy == FaStrategy::DirectCut => {
                if self.saw_direct {
                    // A previously direct pattern flipped into the view:
                    // the finer cut crossed a tile-row boundary. Snap
                    // instead of paying the view switch.
                    self.current.strategy = FaStrategy::TileRows;
                } else {
                    // Spread from the first epoch (Figure 4(c)): the view
                    // is structural, pin it.
                    self.current.strategy = FaStrategy::Iview;
                }
            }
            _ => {}
        }

        let prior = self.score(fb.wall_us);
        let cap = self.cap();
        let action = match self.stage {
            Stage::Warmup => {
                let share = fb.sync_share();
                if share >= SYNC_HI && self.current.groups * 2 <= cap {
                    let step = if share >= 0.5 { 4 } else { 2 };
                    self.current.groups = (self.current.groups * step).min(cap);
                    self.stage = Stage::Climb { up: true, step };
                    "climb-up"
                } else if share <= SYNC_LO && self.current.groups > 1 {
                    self.current.groups = (self.current.groups / 2).max(1);
                    self.stage = Stage::Climb { up: false, step: 2 };
                    "climb-down"
                } else {
                    self.finish_groups(&fb)
                }
            }
            Stage::Climb { up, step } => {
                if Self::improved(fb.wall_us, prior) {
                    let next = if up {
                        (self.current.groups * step).min(cap)
                    } else {
                        (self.current.groups / step).max(1)
                    };
                    if next == self.current.groups {
                        // Boundary reached; the incumbent is the best.
                        self.finish_groups(&fb)
                    } else {
                        self.current.groups = next;
                        if up {
                            "climb-up"
                        } else {
                            "climb-down"
                        }
                    }
                } else if step == 4 {
                    // The ×4 jump overshot: retry at ×2 from the best.
                    let best = self.best_knobs();
                    let next = if up {
                        (best.groups * 2).min(cap)
                    } else {
                        (best.groups / 2).max(1)
                    };
                    if next == best.groups || Some(next) == prior.map(|_| ran.groups) {
                        self.finish_groups(&fb)
                    } else {
                        self.current = TuneKnobs {
                            groups: next,
                            ..best
                        };
                        self.stage = Stage::Climb { up, step: 2 };
                        "backoff"
                    }
                } else {
                    // The move did not pay for itself: revert to the best
                    // and stop exploring the group count.
                    self.current = self.best_knobs();
                    self.finish_groups(&fb)
                }
            }
            Stage::AggProbe => {
                if Self::improved(fb.wall_us, prior) {
                    // Accepted: the denser layout is the new best (score
                    // already recorded it).
                    self.current = self.best_knobs();
                } else {
                    self.current = self.best_knobs();
                }
                self.stage = Stage::Settled;
                "settle"
            }
            Stage::Settled => unreachable!("handled above"),
        };
        self.push(ran, fb, action);
    }

    /// Serialize the cross-open state (knobs, best, stage) into the
    /// policy-cache word format. The audit log is per-instance and not
    /// carried.
    pub fn to_words(&self) -> Vec<u64> {
        let knob_words = |k: &TuneKnobs| {
            [
                k.groups as u64,
                k.aggs_per_group.map_or(0, |a| a as u64 + 1),
                k.strategy.to_u64(),
            ]
        };
        let mut w = vec![
            1, // version
            self.nprocs as u64,
            self.min_group as u64,
            self.epoch,
            u64::from(self.saw_direct),
        ];
        w.extend(knob_words(&self.current));
        match &self.best {
            Some((k, wall)) => {
                w.push(1);
                w.extend(knob_words(k));
                w.push(*wall);
            }
            None => w.extend([0, 0, 0, 0, 0]),
        }
        w.extend(Stage::to_words(self.stage));
        w
    }

    /// Rebuild a tuner from [`to_words`](AutoTuner::to_words) output.
    /// Returns `None` on any malformed or version-mismatched input (the
    /// caller then starts fresh).
    pub fn from_words(words: &[u64]) -> Option<AutoTuner> {
        let knobs = |w: &[u64]| -> Option<TuneKnobs> {
            Some(TuneKnobs {
                groups: (w[0] as usize).max(1),
                aggs_per_group: if w[1] == 0 {
                    None
                } else {
                    Some((w[1] - 1) as usize)
                },
                strategy: FaStrategy::from_u64(w[2])?,
            })
        };
        if words.len() != 16 || words[0] != 1 {
            return None;
        }
        let nprocs = words[1] as usize;
        let min_group = words[2] as usize;
        if nprocs == 0 || min_group == 0 {
            return None;
        }
        Some(AutoTuner {
            nprocs,
            min_group,
            epoch: words[3],
            saw_direct: words[4] != 0,
            current: knobs(&words[5..8])?,
            best: if words[8] == 1 {
                Some((knobs(&words[9..12])?, words[12]))
            } else {
                None
            },
            stage: Stage::from_words(&words[13..16])?,
            log: Vec::new(),
        })
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
    words: Vec<u64>,
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

    /// Look up the stored tuner words for `(path, signature)`, missing
    /// when absent or stored under a different dead-set epoch.
    pub fn load(&self, path: &str, signature: u64, dead_epoch: u64) -> Option<Vec<u64>> {
        let map = self.inner.lock().expect("policy cache poisoned");
        let e = map.get(&(path.to_string(), signature))?;
        (e.dead_epoch == dead_epoch).then(|| e.words.clone())
    }

    /// Store tuner words for `(path, signature)` under the current
    /// dead-set epoch, replacing any previous entry.
    pub fn store(&self, path: &str, signature: u64, dead_epoch: u64, words: Vec<u64>) {
        let mut map = self.inner.lock().expect("policy cache poisoned");
        map.insert((path.to_string(), signature), PolicyEntry { words, dead_epoch });
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

    fn fb(wall: u64, sync: u64, io: u64, mode: ModeClass) -> EpochFeedback {
        EpochFeedback {
            wall_us: wall,
            sync_us: sync,
            p2p_us: 0,
            io_us: io,
            local_us: 0,
            mode,
        }
    }

    fn start(groups: usize) -> TuneKnobs {
        TuneKnobs {
            groups,
            aggs_per_group: None,
            strategy: FaStrategy::DirectCut,
        }
    }

    #[test]
    fn severe_sync_share_jumps_4x() {
        let mut t = AutoTuner::new(512, 8, start(16));
        t.observe(fb(1000, 800, 200, ModeClass::Direct)); // share 0.8
        assert_eq!(t.current().groups, 64);
        assert_eq!(t.log()[0].action, "climb-up");
    }

    #[test]
    fn moderate_sync_share_steps_2x() {
        let mut t = AutoTuner::new(512, 8, start(16));
        t.observe(fb(1000, 350, 650, ModeClass::Direct)); // share 0.35
        assert_eq!(t.current().groups, 32);
    }

    #[test]
    fn low_sync_share_with_groups_climbs_down() {
        let mut t = AutoTuner::new(512, 8, start(16));
        t.observe(fb(1000, 50, 950, ModeClass::Direct)); // share 0.05
        assert_eq!(t.current().groups, 8);
        assert_eq!(t.log()[0].action, "climb-down");
    }

    #[test]
    fn keeps_climbing_while_improving_then_reverts_to_best() {
        let mut t = AutoTuner::new(512, 8, start(16));
        t.observe(fb(1000, 350, 650, ModeClass::Direct)); // -> 32
        t.observe(fb(700, 200, 500, ModeClass::Direct)); // improved -> 64
        assert_eq!(t.current().groups, 64);
        t.observe(fb(900, 100, 800, ModeClass::Direct)); // worse: revert
        assert!(t.is_settled() || t.current().groups == 32);
        // Settled (io share < IO_HI at 32 groups? io 500/700=0.71 at best) —
        // either way the knobs must be the best measured (32 groups).
        assert_eq!(t.best_knobs().groups, 32);
    }

    #[test]
    fn overshoot_backs_off_to_2x_from_best() {
        let mut t = AutoTuner::new(512, 8, start(16));
        t.observe(fb(1000, 800, 100, ModeClass::Direct)); // ×4 -> 64
        t.observe(fb(1200, 700, 100, ModeClass::Direct)); // worse: backoff
        assert_eq!(t.log()[1].action, "backoff");
        assert_eq!(t.current().groups, 32);
        t.observe(fb(600, 200, 100, ModeClass::Direct)); // improved -> 64? no: next=64 == overshoot
        // 32 improved: next would be 64 (already measured worse) but the
        // climb logic just proceeds; measure again and revert.
        t.observe(fb(1100, 100, 100, ModeClass::Direct));
        assert_eq!(t.best_knobs().groups, 32);
    }

    #[test]
    fn settled_never_worse_than_epoch0() {
        // Whatever the feedback, the settled knobs carry the minimum
        // measured wall — epoch 0 (the default) is always a candidate.
        let mut t = AutoTuner::new(256, 8, start(8));
        let walls = [1000u64, 1500, 2000, 1800, 2500];
        let mut i = 0;
        while !t.is_settled() && i < walls.len() {
            t.observe(fb(walls[i], walls[i] / 2, walls[i] / 4, ModeClass::Direct));
            i += 1;
        }
        let best_wall = t.best.unwrap().1;
        assert_eq!(best_wall, 1000, "epoch 0 was the best and must win");
        assert_eq!(t.best_knobs().groups, 8);
    }

    #[test]
    fn spread_pattern_pins_iview() {
        let mut t = AutoTuner::new(64, 8, start(4));
        t.observe(fb(1000, 600, 100, ModeClass::Iview));
        assert_eq!(t.current().strategy, FaStrategy::Iview);
    }

    #[test]
    fn direct_flip_to_iview_snaps_tile_rows() {
        let mut t = AutoTuner::new(512, 8, start(16));
        t.observe(fb(1000, 800, 100, ModeClass::Direct)); // -> 64
        t.observe(fb(500, 300, 100, ModeClass::Iview)); // cut crossed a row
        assert_eq!(t.current().strategy, FaStrategy::TileRows);
    }

    #[test]
    fn io_dominated_settle_probes_aggregators_once() {
        let mut t = AutoTuner::new(64, 8, start(4));
        // Balanced share: no climb; io dominates -> agg probe.
        t.observe(fb(1000, 150, 800, ModeClass::Direct));
        assert_eq!(t.log()[0].action, "agg-probe");
        assert_eq!(t.current().aggs_per_group, Some(2));
        assert!(!t.is_settled());
        // Probe fails: revert to hinted layout and settle.
        t.observe(fb(1100, 150, 900, ModeClass::Direct));
        assert!(t.is_settled());
        assert_eq!(t.current().aggs_per_group, None);
    }

    #[test]
    fn accepted_agg_probe_keeps_denser_layout() {
        let mut t = AutoTuner::new(64, 8, start(4));
        t.observe(fb(1000, 150, 800, ModeClass::Direct));
        t.observe(fb(800, 150, 600, ModeClass::Direct)); // ≥2% better
        assert!(t.is_settled());
        assert_eq!(t.current().aggs_per_group, Some(2));
    }

    #[test]
    fn observe_after_settle_holds() {
        let mut t = AutoTuner::new(16, 8, start(1));
        t.observe(fb(100, 15, 60, ModeClass::Single)); // share 0.15/0.6 -> settle path
        while !t.is_settled() {
            t.observe(fb(100, 15, 60, ModeClass::Single));
        }
        let k = t.current();
        t.observe(fb(500, 400, 50, ModeClass::Single));
        assert_eq!(t.current(), k, "settled knobs never move");
        assert_eq!(t.log().last().unwrap().action, "hold");
    }

    #[test]
    fn snapshot_roundtrip_preserves_behavior() {
        let mut t = AutoTuner::new(512, 8, start(16));
        t.observe(fb(1000, 800, 100, ModeClass::Direct));
        t.observe(fb(700, 300, 100, ModeClass::Direct));
        let words = t.to_words();
        let mut r = AutoTuner::from_words(&words).expect("roundtrip");
        assert_eq!(r.current(), t.current());
        assert_eq!(r.epoch(), t.epoch());
        assert_eq!(r.is_settled(), t.is_settled());
        // Both copies evolve identically on identical feedback.
        let next = fb(650, 250, 100, ModeClass::Direct);
        t.observe(next);
        r.observe(next);
        assert_eq!(r.current(), t.current());
        assert_eq!(r.to_words(), t.to_words());
    }

    #[test]
    fn malformed_words_are_rejected() {
        assert!(AutoTuner::from_words(&[]).is_none());
        assert!(AutoTuner::from_words(&[2; 16]).is_none(), "bad version");
        let mut good = AutoTuner::new(8, 1, start(2)).to_words();
        good[7] = 99; // invalid strategy tag
        assert!(AutoTuner::from_words(&good).is_none());
    }

    #[test]
    fn shape_signature_is_shift_invariant_by_construction() {
        // Offsets count from the first run: shifted shapes hash equal,
        // different shapes differ.
        let run = |off, stride| Run { off, len: 64, stride, count: 2 };
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
        assert_ne!(pattern_signature(3, &[1, 2, 3]), pattern_signature(3, &[3, 2, 1]));
    }

    #[test]
    fn policy_cache_roundtrip() {
        let c = PolicyCache::new();
        assert!(c.is_empty());
        c.store("/f", 42, 0, vec![1, 2, 3]);
        assert_eq!(c.load("/f", 42, 0), Some(vec![1, 2, 3]));
        assert_eq!(c.load("/f", 43, 0), None, "different signature misses");
        assert_eq!(c.load("/g", 42, 0), None, "different path misses");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn policy_cache_invalidates_on_dead_epoch_change() {
        // PR 4's degraded mode bumps the dead-set epoch on aggregator
        // crashes; a policy learned on the healthy cluster must not be
        // replayed onto the degraded one.
        let c = PolicyCache::new();
        c.store("/f", 7, 0, vec![9]);
        assert_eq!(c.load("/f", 7, 1), None, "crash epoch invalidates");
        assert_eq!(c.load("/f", 7, 0), Some(vec![9]), "healthy epoch still hits");
        // Re-learning under the degraded cluster replaces the entry.
        c.store("/f", 7, 1, vec![11]);
        assert_eq!(c.load("/f", 7, 1), Some(vec![11]));
        assert_eq!(c.load("/f", 7, 0), None, "stale healthy policy gone");
    }

    #[test]
    fn clones_share_state() {
        let a = PolicyCache::new();
        let b = a.clone();
        a.store("/f", 1, 0, vec![5]);
        assert_eq!(b.load("/f", 1, 0), Some(vec![5]));
    }
}
