//! Aggregator-crash recovery around the round engine.
//!
//! The driver sees three things: [`entry`] may hand it a degraded
//! configuration before setup, [`Recovery::detect`] runs before every
//! round, and [`Recovery::adopted`] lists the domains whose exchanges the
//! round runs after its main one. Without a fault plan that can kill
//! aggregators none of this communicates or charges time, so the
//! fault-free path stays bitwise identical.

use super::reqs::PieceList;
use super::{recv_lists, slot_of, CollConfig, Dir, Domain, Exchange, Lists};
use crate::profile::{Phase, PhaseProfile, PhaseTimer};
use simmpi::{Communicator, ReduceOp};
use simnet::FaultState;
use simtrace::ArgValue;
use std::rc::Rc;

/// Tag for failover re-dissemination of a dead aggregator's piece lists.
const TAG_RECOVER: i32 = 0x7003;

/// The lowest-ranked live member: the stand-in when no aggregator is left.
fn lowest_live(comm: &Communicator<'_>, faults: &FaultState) -> usize {
    (0..comm.size())
        .find(|&r| !faults.is_dead(comm.global_rank(r)))
        .expect("communicator retains at least one live rank")
}

/// Fault hooks at collective entry: consume any pending one-shot rank
/// stall, re-agree the lock-step round counter, retire aggregators whose
/// crash round has already passed, and return the effective configuration
/// with dead I/O roles filtered out — `None` where `cfg` stands as it is.
/// Without an installed fault plan that is all that happens: no copy, no
/// extra communication, so the fault-free path stays bitwise identical.
pub(super) fn entry(
    comm: &Communicator<'_>,
    cfg: &CollConfig,
    phase: &'static str,
    prof: &mut PhaseProfile,
) -> Option<CollConfig> {
    let ep = comm.endpoint();
    let faults = ep.faults()?;
    if let Some(d) = faults.take_stall(ep.rank(), phase) {
        let t0 = ep.now();
        ep.clock().advance(d);
        let rec = ep.trace();
        if rec.enabled() {
            rec.span(
                "fault",
                "rank_stall",
                t0.as_micros(),
                ep.now().as_micros(),
                vec![("phase", ArgValue::from(phase))],
            );
            rec.count("rank_stalls", 1);
        }
    }
    if !faults.plan().has_crash_rules() {
        return None;
    }
    // Crash detection needs every member to consult the same round
    // counter; members regrouped after unequal round histories re-agree
    // on the maximum.
    let t = PhaseTimer::start(Phase::Sync, ep.now());
    let agreed = comm.allreduce_u64(&[faults.write_round()], ReduceOp::Max)[0];
    t.stop_traced(ep.now(), prof, ep.trace());
    faults.set_write_round(agreed);

    // Aggregators whose crash round already passed die before setup: the
    // domain is partitioned among the survivors and no mid-call failover
    // is needed.
    let mut newly_dead = false;
    for &a in cfg.aggregators.iter() {
        let g = comm.global_rank(a);
        if faults
            .plan()
            .agg_crash(g)
            .is_some_and(|k| k <= faults.write_round())
            && faults.mark_dead(g)
        {
            newly_dead = true;
        }
    }
    if newly_dead {
        // First discovery charges the detection timeout: the initial
        // exchange with the dead role times out before the survivors
        // reorganize.
        let t0 = ep.now();
        ep.clock().advance(faults.plan().detect_timeout);
        if ep.trace().enabled() {
            let (from, to) = (t0.as_micros(), ep.now().as_micros());
            let at = vec![("at", ArgValue::from("setup"))];
            ep.trace().span("phase", "recovery", from, to, at);
            ep.trace().count("agg_crash_detected", 1);
        }
    }
    let mut live: Vec<usize> = cfg
        .aggregators
        .iter()
        .copied()
        .filter(|&a| !faults.is_dead(comm.global_rank(a)))
        .collect();
    if live.is_empty() {
        // Every hinted aggregator is dead: the lowest live member stands
        // in so the collective still completes (degraded mode).
        live.push(lowest_live(comm, faults));
    }
    Some(CollConfig {
        aggregators: live.into(),
        ..cfg.clone()
    })
}

/// A dead aggregator's file domain, re-homed onto a successor. Every rank
/// derives all but `domain` without communicating.
pub(super) struct Adopted {
    /// Index of the dead aggregator in `cfg.aggregators`.
    dead_agg: usize,
    /// Local rank that adopted the dead domain.
    successor: usize,
    /// My route into the domain: the stream I hold for it now feeds the
    /// successor (the dead role announces nothing after the crash, so the
    /// main exchange never touches that stream again).
    pub(super) route: Option<(usize, usize)>,
    /// Round whose detection must heal a torn write first: the dead
    /// aggregator half-applied its previous window, so that round's
    /// exchange replays in full before the current one.
    heal_at: Option<u64>,
    /// On the successor: the lists the dead aggregator held, so the window
    /// tiling lines up and each window's cut is the one it would have
    /// taken.
    pub(super) domain: Option<Domain>,
}

impl Adopted {
    /// The windows of this domain that round `round` exchanges: its own,
    /// after the torn one before it in the round that heals.
    pub(super) fn windows(&self, round: u64) -> impl Iterator<Item = u64> {
        let heal = (self.heal_at == Some(round)).then(|| round - 1);
        heal.into_iter().chain(std::iter::once(round))
    }
}

/// Mid-call crash bookkeeping of one collective, armed only for a write
/// under a plan that can kill aggregators: a read honors stalls and the
/// dead set at [`entry`] but never advances the lock-step round counter.
/// Unarmed, `detect` is a no-op and `adopted` stays empty.
pub(super) struct Recovery<'a> {
    faults: Option<&'a FaultState>,
    /// My I/O role crashed: I live on as a sender, but my domain now
    /// belongs to a successor.
    pub(super) role_dead: bool,
    /// Adopted domains, in adoption order on every rank (identical order
    /// keeps the eager exchanges deadlock-free). Each runs its own size
    /// and data exchange per round, after the main one.
    pub(super) adopted: Vec<Adopted>,
}

impl<'a> Recovery<'a> {
    pub(super) fn new(comm: &Communicator<'a>, dir: Dir<'_>) -> Recovery<'a> {
        let armed = matches!(dir, Dir::Write(_));
        let faults = comm.endpoint().faults();
        Recovery {
            faults: faults.filter(|f| armed && f.plan().has_crash_rules()),
            role_dead: false,
            adopted: Vec::new(),
        }
    }

    /// Before round `round` of `ntimes`: symmetric crash detection. Every
    /// member consults the shared plan against the agreed round counter,
    /// so the subgroup learns of a crash in the same round without
    /// communicating (the simulation stands in for a timeout-based
    /// detector). Successors of earlier failovers are watched too: a
    /// crash while recovering re-homes the adopted domain again, and a
    /// torn crash rewinds my stream into the dead domain by one window.
    ///
    /// Returns whether this rank's own window write of this round is torn.
    pub(super) fn detect(&mut self, x: &mut Exchange<'_, '_>, round: u64, ntimes: u64) -> bool {
        let Some(faults) = self.faults else {
            return false;
        };
        let (comm, cfg) = (x.comm, x.cfg);
        let round_id = faults.next_write_round();
        let crashed = |g: usize| {
            faults.plan().agg_crash(g).is_some_and(|k| round_id >= k) && !faults.is_dead(g)
        };
        let global = |ai: usize| comm.global_rank(cfg.aggregators[ai]);
        let newly: Vec<usize> = (0..cfg.aggregators.len())
            .filter(|&ai| crashed(global(ai)))
            .collect();
        let rehome = self.adopted.iter().map(|ad| (ad.dead_agg, comm.global_rank(ad.successor)));
        let rehome: Vec<(usize, usize)> = rehome.filter(|&(_, g)| crashed(g)).collect();
        // Mark every rank that died this round before choosing
        // successors, so no domain lands on a fresh corpse.
        for &ai in &newly {
            faults.mark_dead(global(ai));
            self.role_dead |= cfg.aggregators[ai] == comm.rank();
        }
        for &(_, g) in &rehome {
            faults.mark_dead(g);
        }
        // Domains to (re)assign, ascending: freshly dead ones plus
        // adopted ones whose successor died.
        let rehomed = rehome.iter().map(|&(dead_ai, _)| dead_ai);
        let mut domains: Vec<usize> = newly.iter().copied().chain(rehomed).collect();
        domains.sort_unstable();
        domains.dedup();
        for dead_ai in domains {
            self.adopted.retain(|ad| ad.dead_agg != dead_ai);
            let torn = newly.contains(&dead_ai)
                && round >= 1
                && faults.plan().torn_crash(global(dead_ai));
            if let Some(slot) = slot_of(x.my_req, dead_ai).filter(|_| torn) {
                // Senders rewind one window; the heal exchange of this
                // round re-consumes it.
                x.s.pos[slot] -= x.s.last[slot];
            }
            let adopted = failover(comm, cfg, x.my_req, faults, dead_ai, round, torn);
            self.adopted.push(adopted);
        }
        // The round before a torn crash: the dying aggregator's own
        // window write is half-applied (the exchange itself succeeds;
        // only the OST write is interrupted). Injected only when the
        // detection round still falls inside this call, so the heal
        // replay can run.
        let g = comm.global_rank(comm.rank());
        cfg.aggregators.contains(&comm.rank())
            && !self.role_dead
            && round + 1 < ntimes
            && faults.plan().torn_crash(g)
            && faults.plan().agg_crash(g) == Some(faults.write_round())
    }
}

/// Aggregator failover, detected at `round`: the subgroup re-homes the
/// dead aggregator's file domain onto a successor. Every rank re-sends
/// its piece list for the dead domain (the successor cannot ask — that
/// metadata died with the aggregator), and the successor resumes the
/// dead aggregator's windows from the last completed round. All costs
/// land in one `recovery` phase span for critical-path attribution.
fn failover(
    comm: &Communicator<'_>,
    cfg: &CollConfig,
    my_req: &Lists,
    faults: &FaultState,
    dead_agg: usize,
    round: u64,
    torn: bool,
) -> Adopted {
    let ep = comm.endpoint();
    let plan = faults.plan();
    let t0 = ep.now();
    // Detection: this round's size exchange timed out on the dead role.
    ep.clock().advance(plan.detect_timeout);

    // Successor: the next surviving aggregator after the dead one
    // (wrapping), else the lowest live member — the subgroup lost its
    // last aggregator and a stand-in finishes this call (ParColl's
    // file-area merge repairs the grouping on the next call).
    let naggs = cfg.aggregators.len();
    let successor = (1..naggs)
        .map(|d| cfg.aggregators[(dead_agg + d) % naggs])
        .find(|&a| !faults.is_dead(comm.global_rank(a)))
        .unwrap_or_else(|| lowest_live(comm, faults));

    // Re-dissemination: every rank ships its pieces for the dead domain
    // to the successor. Empty lists travel too, so the successor's
    // receive set is known without another size exchange.
    let slot = slot_of(my_req, dead_agg);
    let mine = slot.map(|slot| Rc::clone(&my_req[slot].1));
    // Nothing to replay on the successor: a window's cut of each list is
    // the list's pieces inside the window, so the adopted domain resumes
    // at the window the dead aggregator did not complete — one earlier
    // for a torn crash, whose last write was only half applied and which
    // the detection round re-exchanges in full (`Adopted::windows`).
    let domain = if comm.rank() == successor {
        let srcs = (0..comm.size()).filter(|&src| src != comm.rank());
        let mut lists = Lists::new();
        recv_lists(comm, TAG_RECOVER, srcs, mine, &mut lists);
        Some(Domain::new(lists))
    } else {
        let list = mine.unwrap_or_else(PieceList::empty);
        let wire_bytes = list.wire_bytes();
        comm.isend_t(successor, TAG_RECOVER, list, wire_bytes);
        None
    };

    if ep.trace().enabled() {
        let dead_rank = comm.global_rank(cfg.aggregators[dead_agg]);
        let args = vec![
            ("dead_rank", ArgValue::from(dead_rank)),
            ("round", ArgValue::from(round)),
        ];
        let (from, to) = (t0.as_micros(), ep.now().as_micros());
        ep.trace().span("phase", "recovery", from, to, args);
        ep.trace().span("fault", "agg_failover", from, to, vec![]);
        ep.trace().count("agg_failovers", 1);
    }
    Adopted {
        dead_agg,
        successor,
        route: slot.map(|slot| (slot, successor)),
        heal_at: torn.then_some(round),
        domain,
    }
}
