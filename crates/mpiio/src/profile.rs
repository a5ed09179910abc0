//! Phase accounting for collective I/O.
//!
//! The paper's dissection (§2.2, Figures 1–2) instruments the collective
//! I/O code path at run time and classifies every interval as global
//! synchronization, point-to-point data exchange, or file I/O; "when a
//! file is closed, a summary is reported". This module reproduces that
//! instrumentation: protocol code brackets each operation with
//! [`PhaseProfile::charge`], and [`File::close`](crate::File::close)
//! returns the rank's own profile. Folding ranks together (slowest
//! rank, mean) is the caller's job, on the host, after the run
//! (`workloads::runner`).

use simnet::SimTime;

/// The phase a time interval is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Global collective operations, including waiting for stragglers —
    /// the component that builds the collective wall.
    Sync,
    /// Point-to-point data exchange of the two-phase protocol.
    P2p,
    /// File reads/writes.
    Io,
    /// Local memory movement (pack/unpack, request bookkeeping).
    Local,
}

impl Phase {
    /// Stable lowercase name, used for trace span naming.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Sync => "sync",
            Phase::P2p => "p2p",
            Phase::Io => "io",
            Phase::Local => "local",
        }
    }
}

/// Per-rank accumulated phase times for one open file.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseProfile {
    /// Time in global synchronization.
    pub sync: SimTime,
    /// Time in point-to-point exchange.
    pub p2p: SimTime,
    /// Time in file I/O.
    pub io: SimTime,
    /// Time in local data movement.
    pub local: SimTime,
    /// Collective-I/O calls observed.
    pub calls: u64,
    /// Exchange rounds executed.
    pub rounds: u64,
}

impl PhaseProfile {
    /// Zeroed profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attribute `dt` to `phase`.
    pub fn charge(&mut self, phase: Phase, dt: SimTime) {
        debug_assert!(dt.is_valid(), "negative phase charge {dt:?}");
        match phase {
            Phase::Sync => self.sync += dt,
            Phase::P2p => self.p2p += dt,
            Phase::Io => self.io += dt,
            Phase::Local => self.local += dt,
        }
    }

    /// Total attributed time.
    pub fn total(&self) -> SimTime {
        self.sync + self.p2p + self.io + self.local
    }

    /// Fraction of attributed time spent in synchronization (0 if empty).
    pub fn sync_fraction(&self) -> f64 {
        let t = self.total().as_secs();
        if t == 0.0 {
            0.0
        } else {
            self.sync.as_secs() / t
        }
    }

    /// Merge another profile into this one.
    pub fn merge(&mut self, other: &PhaseProfile) {
        self.sync += other.sync;
        self.p2p += other.p2p;
        self.io += other.io;
        self.local += other.local;
        self.calls += other.calls;
        self.rounds += other.rounds;
    }
}

/// Scope helper: measures the clock delta across a protocol step and
/// charges it to a phase.
pub struct PhaseTimer {
    start: SimTime,
    phase: Phase,
}

impl PhaseTimer {
    /// Start timing `phase` at `now`.
    pub fn start(phase: Phase, now: SimTime) -> Self {
        PhaseTimer { start: now, phase }
    }

    /// Stop at `now`, charging the elapsed virtual time.
    pub fn stop(self, now: SimTime, profile: &mut PhaseProfile) {
        profile.charge(self.phase, now - self.start);
    }

    /// Stop at `now`, charging the profile AND emitting a `phase` span on
    /// `rec` from the *identical* timestamps. Trace span totals per phase
    /// therefore reconcile with the profile buckets by construction.
    pub fn stop_traced(self, now: SimTime, profile: &mut PhaseProfile, rec: &simtrace::Recorder) {
        if rec.enabled() && now > self.start {
            rec.span(
                "phase",
                self.phase.name(),
                self.start.as_micros(),
                now.as_micros(),
                Vec::new(),
            );
        }
        profile.charge(self.phase, now - self.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_per_phase() {
        let mut p = PhaseProfile::new();
        p.charge(Phase::Sync, SimTime::secs(1.0));
        p.charge(Phase::Sync, SimTime::secs(2.0));
        p.charge(Phase::Io, SimTime::secs(1.0));
        assert_eq!(p.sync, SimTime::secs(3.0));
        assert_eq!(p.io, SimTime::secs(1.0));
        assert_eq!(p.total(), SimTime::secs(4.0));
        assert!((p.sync_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_has_zero_fraction() {
        assert_eq!(PhaseProfile::new().sync_fraction(), 0.0);
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = PhaseProfile {
            sync: SimTime::secs(1.0),
            calls: 2,
            rounds: 5,
            ..Default::default()
        };
        let b = PhaseProfile {
            sync: SimTime::secs(0.5),
            p2p: SimTime::secs(0.25),
            calls: 1,
            rounds: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.sync, SimTime::secs(1.5));
        assert_eq!(a.p2p, SimTime::secs(0.25));
        assert_eq!(a.calls, 3);
        assert_eq!(a.rounds, 8);
    }

    #[test]
    fn timer_charges_elapsed_interval() {
        let mut p = PhaseProfile::new();
        let t = PhaseTimer::start(Phase::P2p, SimTime::secs(10.0));
        t.stop(SimTime::secs(12.5), &mut p);
        assert_eq!(p.p2p, SimTime::secs(2.5));
    }

    #[test]
    fn stop_traced_span_matches_charge_exactly() {
        let sink = simtrace::TraceSink::enabled();
        let rec = sink.recorder(simtrace::TrackKey::Rank(0));
        let mut p = PhaseProfile::new();
        let t = PhaseTimer::start(Phase::Sync, SimTime::micros(10.0));
        t.stop_traced(SimTime::micros(35.5), &mut p, &rec);
        assert!((p.sync.as_micros() - 25.5).abs() < 1e-9);
        let trace = sink.finish();
        let track = trace.track(simtrace::TrackKey::Rank(0)).unwrap();
        let total = track.span_total_us("phase", Some("sync"));
        assert!((total - 25.5).abs() < 1e-9, "span total {total} != charge");
    }
}
