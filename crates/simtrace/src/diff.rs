//! Cross-run differential analysis: reduce each run to totals under
//! stable keys, subtract two runs key by key, and rank the deltas into
//! a root-cause table.
//!
//! The alignment never compares raw timestamps between runs (virtual
//! times shift globally the moment anything changes). Instead each run
//! is first reduced to a [`RunDigest`]: its wall and one table of µs
//! values under *stable identities* ([`Key`]) — critical-path phases,
//! OST service (in total, and binned to the requesting rank's enclosing
//! exchange round), per-round phase charges summed over ranks, each
//! collective's largest wait and each rank's busy time.
//!
//! [`diff`] then joins two digests over the union of their keys (a key
//! one side lacks reads 0) and emits one [`Finding`] per delta above a
//! noise floor, scored by `|Δµs| ×` a kind weight (shrinks are further
//! discounted — lost time can't cause a regression). The weights encode
//! cause-over-symptom: when one OST slows down by Δ, every downstream
//! aggregate — collective waits, rank busy totals, critical-path phase
//! overlap — inflates by queue-and-wait amplification, often to *many
//! times* Δ; and the critical path can reroute entirely, swinging its
//! per-phase totals by amounts unrelated to the cause. So resource (OST)
//! findings carry a decisive weight, round-localized charges
//! (rerouting-robust: summed over all ranks) sit in the middle, and
//! per-rank / path-phase aggregates are demoted to context.
//!
//! Digests serialize to JSON (`kind: "parcoll_run_digest"`, one
//! `values_us` object keyed by [`Key`]'s words) so a baseline digest can
//! be committed next to `bench_results` rows and diffed against HEAD
//! when the regression gate trips.

use crate::analysis::{attribute, critical_path};
use crate::export::collective_ops;
use crate::json::Json;
use crate::sink::{arg_u64, Event, Trace, TrackKey};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What a digest value is the total of. Every key names something the
/// same program has in every run — never a timestamp — so two runs'
/// digests align key by key. Phase and operation names are single
/// words, as the instrumented layers record them.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    /// Critical-path µs charged to a phase (`io`, `sync`, `p2p`, …).
    Phase(String),
    /// An OST's total `ost/serve` time.
    Ost(usize),
    /// `(ost, call, round)`: an OST's `ost/serve` time for requests
    /// issued in that exchange round. Read only to give an OST finding
    /// its round range.
    OstRound(usize, u64, u64),
    /// `(call, round, phase)`: one exchange round's charge to a phase,
    /// summed over every rank's window of that round (uncovered window
    /// time is phase `other`). `call` counts the `round == 0` starts
    /// before the window on its rank.
    Round(u64, u64, String),
    /// `(op, ctx, seq)`: a collective's largest wait among its
    /// participants, keyed by operation name, communicator context and
    /// per-communicator sequence number.
    Collective(String, u64, u64),
    /// A rank's busy time: everything inside its `phase` spans.
    Rank(usize),
}

impl Key {
    /// The key's first word: `phase`, `ost`, `ost_round`, `round`,
    /// `collective` or `rank`.
    pub fn kind(&self) -> &'static str {
        match self {
            Key::Phase(_) => "phase",
            Key::Ost(_) => "ost",
            Key::OstRound(..) => "ost_round",
            Key::Round(..) => "round",
            Key::Collective(..) => "collective",
            Key::Rank(_) => "rank",
        }
    }

    /// Parse the words [`Key`]'s `Display` writes (`"ost 1"`,
    /// `"round 0 3 io"`).
    pub(crate) fn parse(words: &str) -> Option<Key> {
        let num = |w: &str| w.parse::<u64>().ok();
        let words: Vec<&str> = words.split(' ').collect();
        Some(match words[..] {
            ["phase", phase] => Key::Phase(phase.to_string()),
            ["ost", ost] => Key::Ost(num(ost)? as usize),
            ["ost_round", ost, call, round] => {
                Key::OstRound(num(ost)? as usize, num(call)?, num(round)?)
            }
            ["round", call, round, phase] => Key::Round(num(call)?, num(round)?, phase.to_string()),
            ["collective", op, ctx, seq] => Key::Collective(op.to_string(), num(ctx)?, num(seq)?),
            ["rank", rank] => Key::Rank(num(rank)? as usize),
            _ => return None,
        })
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind())?;
        match self {
            Key::Phase(phase) => write!(f, " {phase}"),
            Key::Ost(ost) | Key::Rank(ost) => write!(f, " {ost}"),
            Key::OstRound(ost, call, round) => write!(f, " {ost} {call} {round}"),
            Key::Round(call, round, phase) => write!(f, " {call} {round} {phase}"),
            Key::Collective(op, ctx, seq) => write!(f, " {op} {ctx} {seq}"),
        }
    }
}

/// A run reduced to stable-keyed totals — everything [`diff`] needs,
/// nothing tied to absolute virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDigest {
    /// Caller-chosen label (`"baseline"`, a commit id, …).
    pub label: String,
    /// Virtual wall, µs.
    pub wall_us: f64,
    /// Every total, µs, by key.
    pub values_us: BTreeMap<Key, f64>,
}

impl RunDigest {
    /// The total under `key`; 0 when the run has none.
    pub(crate) fn get(&self, key: &Key) -> f64 {
        self.values_us.get(key).copied().unwrap_or(0.0)
    }
}

/// Reduce a finished trace to its digest. `None` when the trace has no
/// rank spans (disabled sink).
pub fn digest(trace: &Trace, label: &str) -> Option<RunDigest> {
    let path = critical_path(trace)?;
    let mut values_us: BTreeMap<Key, f64> =
        path.breakdown().into_iter().map(|(phase, us)| (Key::Phase(phase), us)).collect();

    // Per-rank round windows: (call, round, start, end) in time order.
    let mut rank_rounds: BTreeMap<usize, Vec<(u64, u64, f64, f64)>> = BTreeMap::new();
    for track in trace.rank_tracks() {
        let TrackKey::Rank(rank) = track.key else { continue };
        let mut phases: Vec<(f64, f64, String)> = Vec::new();
        let mut windows: Vec<(u64, u64, f64, f64)> = Vec::new();
        let mut call = 0u64;
        for event in &track.events {
            let Event::Span { cat, name, start_us, dur_us, args } = event else { continue };
            match *cat {
                "phase" => phases.push((*start_us, start_us + dur_us, name.to_string())),
                "round" => {
                    if let Some(round) = arg_u64(args, "round") {
                        if round == 0 {
                            call += 1;
                        }
                        windows.push((call.saturating_sub(1), round, *start_us, start_us + dur_us));
                    }
                }
                _ => {}
            }
        }
        phases.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for &(call, round, start, end) in &windows {
            attribute(&phases, start, end, &mut values_us, |phase| {
                Key::Round(call, round, phase.to_string())
            });
        }
        values_us.insert(Key::Rank(rank), track.span_total_us("phase", None));
        rank_rounds.insert(rank, windows);
    }

    for track in trace.ost_tracks() {
        let TrackKey::Ost(ost) = track.key else { continue };
        for event in &track.events {
            let Event::Span { cat: "ost", name, start_us, dur_us, args } = event else { continue };
            if name != "serve" {
                continue;
            }
            *values_us.entry(Key::Ost(ost)).or_insert(0.0) += dur_us;
            // Bin the request to the requester's enclosing round: the
            // last round window starting at or before the service start
            // (drain-time service still belongs to the round that
            // issued it). Requests outside any round are not binned.
            let window = arg_u64(args, "rank")
                .and_then(|r| rank_rounds.get(&(r as usize)))
                .and_then(|windows| {
                    let i = windows.partition_point(|(_, _, start, _)| *start <= *start_us);
                    i.checked_sub(1).map(|i| windows[i])
                });
            if let Some((call, round, _, _)) = window {
                *values_us.entry(Key::OstRound(ost, call, round)).or_insert(0.0) += dur_us;
            }
        }
    }

    for op in collective_ops(trace) {
        values_us.insert(Key::Collective(op.op, op.ctx, op.seq), op.max_wait_us);
    }

    Some(RunDigest {
        label: label.to_string(),
        wall_us: path.wall_us,
        values_us,
    })
}

/// Serialize a digest (`kind: "parcoll_run_digest"`). Byte-reproducible
/// for identical runs.
pub fn digest_json(d: &RunDigest) -> String {
    let values = d.values_us.iter().map(|(k, v)| (k.to_string(), Json::Num(*v)));
    Json::Obj(vec![
        ("kind".into(), Json::Str("parcoll_run_digest".into())),
        ("label".into(), Json::Str(d.label.clone())),
        ("wall_us".into(), Json::Num(d.wall_us)),
        ("values_us".into(), Json::Obj(values.collect())),
    ])
    .pretty()
}

/// Parse a digest document back (inverse of [`digest_json`]).
pub fn digest_from_json(text: &str) -> Option<RunDigest> {
    let doc = Json::parse(text).ok()?;
    if doc.get("kind")?.as_str()? != "parcoll_run_digest" {
        return None;
    }
    Some(RunDigest {
        label: doc.get("label")?.as_str()?.to_string(),
        wall_us: doc.get("wall_us")?.as_f64()?,
        values_us: doc
            .get("values_us")?
            .as_obj()?
            .iter()
            .map(|(k, v)| Some((Key::parse(k)?, v.as_f64()?)))
            .collect::<Option<_>>()?,
    })
}

/// One ranked delta between two digests.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// What kind of key moved: `"ost"`, `"round"`, `"collective"`,
    /// `"phase"` or `"rank"`.
    pub kind: &'static str,
    /// The moved key, human-readable (`"ost 6"`, `"call 0 round 3"`).
    pub subject: String,
    /// Phase name the delta is charged to (`"io"` for OST service).
    pub phase: String,
    /// Inclusive round range `(lo, hi)` localizing the delta, when the
    /// per-round attribution supports one.
    pub rounds: Option<(u64, u64)>,
    /// Baseline value, µs.
    pub base_us: f64,
    /// HEAD value, µs.
    pub head_us: f64,
    /// Ranking score: `|Δ| ×` the kind weight.
    pub score: f64,
    /// The rendered one-line explanation.
    pub text: String,
}

/// The ranked root-cause table for one baseline→HEAD comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Baseline digest label.
    pub base_label: String,
    /// HEAD digest label.
    pub head_label: String,
    /// Baseline wall, µs.
    pub wall_base_us: f64,
    /// HEAD wall, µs.
    pub wall_head_us: f64,
    /// Critical-path phase totals `(base, head)` µs, by phase.
    pub path_phases: BTreeMap<String, (f64, f64)>,
    /// Findings, highest score first (capped at 24).
    pub findings: Vec<Finding>,
}

/// Kind weight: resource findings are root causes. Deliberately
/// decisive: a grown OST service time is a *physical* cause, while
/// every downstream aggregate (rank busy, collective waits, path
/// phases) inflates by queue-and-wait amplification — often to many
/// times the causal delta — so causes need a large prior to outrank
/// their own echoes.
const W_OST: f64 = 8.0;
/// Kind weight: round-localized phase deltas (summed over all ranks'
/// round windows, so robust to critical-path rerouting).
const W_ROUND: f64 = 1.0;
/// Kind weight: collective waits (often symptoms of a resource delta).
const W_COLLECTIVE: f64 = 1.0;
/// Kind weight: per-rank busy totals (always downstream of the cause).
const W_RANK: f64 = 0.25;
/// Kind weight: critical-path phase totals. The path is a max over
/// chains, so a small perturbation can reroute it entirely and swing
/// the per-phase overlap by far more than the causal delta — these
/// findings contextualize, they rarely explain.
const W_PHASE: f64 = 0.25;
/// Score discount for shrinks: time that *shrank* cannot be the cause
/// of a regression, but is kept (demoted) because a big shift from one
/// phase into another is worth seeing.
const SHRINK_DISCOUNT: f64 = 0.5;

/// Findings kept in a report.
const MAX_FINDINGS: usize = 24;

fn pct(base: f64, head: f64) -> String {
    if base.abs() > 1e-12 {
        format!("{:+.1}%", (head - base) / base * 100.0)
    } else if head > 0.0 {
        "new".to_string()
    } else {
        "gone".to_string()
    }
}

fn grew(base: f64, head: f64) -> &'static str {
    if head >= base {
        "grew"
    } else {
        "shrank"
    }
}

/// The round range explaining an OST's total `delta`: rounds whose
/// per-round delta has the same sign and at least a quarter of the
/// largest per-round magnitude.
fn round_range(base: &RunDigest, head: &RunDigest, ost: usize, delta: f64) -> Option<(u64, u64)> {
    let bins = Key::OstRound(ost, 0, 0)..=Key::OstRound(ost, u64::MAX, u64::MAX);
    let mut deltas: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for (d, sign) in [(head, 1.0), (base, -1.0)] {
        for (key, v) in d.values_us.range(bins.clone()) {
            if let Key::OstRound(_, call, round) = key {
                *deltas.entry((*call, *round)).or_insert(0.0) += sign * v;
            }
        }
    }
    let peak = deltas
        .values()
        .map(|d| if d * delta > 0.0 { d.abs() } else { 0.0 })
        .fold(0.0, f64::max);
    if peak <= 0.0 {
        return None;
    }
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for ((_, round), d) in &deltas {
        if d * delta > 0.0 && d.abs() >= 0.25 * peak {
            lo = lo.min(*round);
            hi = hi.max(*round);
        }
    }
    (lo <= hi).then_some((lo, hi))
}

/// Compare two digests and rank the deltas. Deterministic: identical
/// inputs produce an identical report.
pub fn diff(base: &RunDigest, head: &RunDigest) -> DiffReport {
    let wall = base.wall_us.max(head.wall_us);
    let floor = (1e-4 * wall).max(1.0);
    let mut path_phases: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    let keys: BTreeSet<&Key> = base.values_us.keys().chain(head.values_us.keys()).collect();
    for key in keys {
        let (base_us, head_us) = (base.get(key), head.get(key));
        let delta = head_us - base_us;
        let (weight, subject, phase, rounds) = match key {
            Key::Phase(phase) => {
                // Always in the header; a finding only past the floor.
                path_phases.insert(phase.clone(), (base_us, head_us));
                (W_PHASE, "critical path".to_string(), phase.clone(), None)
            }
            Key::Ost(ost) => {
                let rounds = round_range(base, head, *ost, delta);
                (W_OST, format!("ost {ost}"), "io".to_string(), rounds)
            }
            Key::OstRound(..) => continue,
            Key::Round(call, round, phase) => {
                let subject = format!("call {call} round {round}");
                (W_ROUND, subject, phase.clone(), Some((*round, *round)))
            }
            Key::Collective(op, ctx, seq) => {
                (W_COLLECTIVE, format!("{op} ctx={ctx} seq={seq}"), "sync".to_string(), None)
            }
            Key::Rank(rank) => (W_RANK, format!("rank {rank}"), "busy".to_string(), None),
        };
        if delta.abs() < floor {
            continue;
        }
        let where_part = match rounds {
            Some((lo, hi)) if lo == hi => format!(" in round {lo}"),
            Some((lo, hi)) => format!(" in rounds {lo}-{hi}"),
            None => String::new(),
        };
        let text = format!(
            "{phase} {} {} on {subject}{where_part} ({:+.1} us; {:.1} -> {:.1})",
            grew(base_us, head_us),
            pct(base_us, head_us),
            delta,
            base_us,
            head_us,
        );
        let mut score = delta.abs() * weight;
        if delta < 0.0 {
            score *= SHRINK_DISCOUNT;
        }
        findings.push(Finding {
            kind: key.kind(),
            subject,
            phase,
            rounds,
            base_us,
            head_us,
            score,
            text,
        });
    }

    findings.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.kind.cmp(b.kind))
            .then(a.subject.cmp(&b.subject))
            .then(a.phase.cmp(&b.phase))
    });
    findings.truncate(MAX_FINDINGS);

    DiffReport {
        base_label: base.label.clone(),
        head_label: head.label.clone(),
        wall_base_us: base.wall_us,
        wall_head_us: head.wall_us,
        path_phases,
        findings,
    }
}

impl DiffReport {
    /// The human-readable form of the report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== simtrace diff: {} -> {} ==\n",
            self.base_label, self.head_label
        ));
        out.push_str(&format!(
            "wall: {:.1} -> {:.1} us ({})\n",
            self.wall_base_us,
            self.wall_head_us,
            pct(self.wall_base_us, self.wall_head_us)
        ));
        out.push_str("critical-path phases (us):\n");
        for (name, (b, h)) in &self.path_phases {
            out.push_str(&format!(
                "  {name:<10} {b:>12.1} -> {h:>12.1}  ({})\n",
                pct(*b, *h)
            ));
        }
        if self.findings.is_empty() {
            out.push_str("no findings above the noise floor\n");
        } else {
            out.push_str("ranked findings:\n");
            for (i, f) in self.findings.iter().enumerate() {
                out.push_str(&format!("  {:>2}. [{}] {}\n", i + 1, f.kind, f.text));
            }
        }
        out
    }

    /// The machine-readable form (`kind: "simtrace_diff"`).
    pub fn to_json(&self) -> String {
        let phases = self.path_phases.iter().map(|(name, (b, h))| {
            let pair = vec![("base".into(), Json::Num(*b)), ("head".into(), Json::Num(*h))];
            (name.clone(), Json::Obj(pair))
        });
        let findings = self.findings.iter().map(|f| {
            let mut members = vec![
                ("kind".into(), Json::Str(f.kind.to_string())),
                ("subject".into(), Json::Str(f.subject.clone())),
                ("phase".into(), Json::Str(f.phase.clone())),
            ];
            if let Some((lo, hi)) = f.rounds {
                members.push(("rounds".into(), Json::Arr(vec![Json::U64(lo), Json::U64(hi)])));
            }
            members.extend([
                ("base_us".into(), Json::Num(f.base_us)),
                ("head_us".into(), Json::Num(f.head_us)),
                ("score".into(), Json::Num(f.score)),
                ("text".into(), Json::Str(f.text.clone())),
            ]);
            Json::Obj(members)
        });
        Json::Obj(vec![
            ("kind".into(), Json::Str("simtrace_diff".into())),
            ("base".into(), Json::Str(self.base_label.clone())),
            ("head".into(), Json::Str(self.head_label.clone())),
            ("wall_base_us".into(), Json::Num(self.wall_base_us)),
            ("wall_head_us".into(), Json::Num(self.wall_head_us)),
            ("path_phases_us".into(), Json::Obj(phases.collect())),
            ("findings".into(), Json::Arr(findings.collect())),
        ])
        .pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;

    /// Two ranks, two exchange rounds per call, one OST serving each
    /// round. `slow_ost_us` inflates OST 1's second-round service and
    /// the requester's io phase by that much.
    fn run(slow_ost_us: f64) -> RunDigest {
        let sink = TraceSink::enabled();
        let r0 = sink.recorder(TrackKey::Rank(0));
        let r1 = sink.recorder(TrackKey::Rank(1));
        let rdv = |straggler: u64| {
            vec![
                ("ctx", 0u64.into()),
                ("seq", 1u64.into()),
                ("n", 2u64.into()),
                ("straggler", straggler.into()),
            ]
        };
        let e = 100.0 + slow_ost_us;
        for rec in [&r0, &r1] {
            rec.span("round", "write_round", 0.0, 50.0, vec![
                ("round", 0u64.into()),
                ("of", 2u64.into()),
            ]);
            rec.span("phase", "io", 0.0, 50.0, vec![]);
            rec.span("round", "write_round", 50.0, e, vec![
                ("round", 1u64.into()),
                ("of", 2u64.into()),
            ]);
            rec.span("phase", "io", 50.0, e, vec![]);
        }
        r0.span("rdv", "barrier", e, e + 10.0, rdv(1));
        r0.span("phase", "sync", e, e + 10.0, vec![]);
        r1.span("rdv", "barrier", e + 10.0, e + 10.0, rdv(1));
        let ost = sink.recorder(TrackKey::Ost(1));
        ost.span("ost", "serve", 0.0, 40.0, vec![
            ("bytes", 4000u64.into()),
            ("rank", 0u64.into()),
        ]);
        ost.span("ost", "serve", 55.0, 95.0 + slow_ost_us, vec![
            ("bytes", 4000u64.into()),
            ("rank", 1u64.into()),
        ]);
        digest(&sink.finish(), if slow_ost_us > 0.0 { "head" } else { "base" }).unwrap()
    }

    #[test]
    fn digest_captures_rounds_and_osts() {
        let d = run(0.0);
        assert_eq!(d.wall_us, 110.0);
        let round = |round, phase: &str| Key::Round(0, round, phase.to_string());
        assert_eq!(d.get(&round(0, "io")), 100.0); // both ranks
        assert_eq!(d.get(&round(1, "io")), 100.0);
        assert_eq!(d.get(&Key::Ost(1)), 80.0);
        // Round binning: first serve in round 0, second in round 1.
        assert_eq!(d.get(&Key::OstRound(1, 0, 0)), 40.0);
        assert_eq!(d.get(&Key::OstRound(1, 0, 1)), 40.0);
        let barrier = Key::Collective("barrier".to_string(), 0, 1);
        assert_eq!(d.get(&barrier), 10.0);
        assert_eq!(d.get(&Key::Rank(0)), 110.0);
        let kinds: BTreeSet<&str> = d.values_us.keys().map(Key::kind).collect();
        assert_eq!(kinds.len(), 6, "every kind of key is present: {kinds:?}");
    }

    #[test]
    fn digest_round_trips_through_json() {
        let d = run(25.0);
        let text = digest_json(&d);
        let back = digest_from_json(&text).unwrap();
        assert_eq!(back, d);
        assert_eq!(digest_json(&back), text);
        for key in d.values_us.keys() {
            assert_eq!(Key::parse(&key.to_string()).as_ref(), Some(key));
        }
        assert_eq!(Key::parse("ost x"), None);
        assert_eq!(Key::parse("round 0 1"), None);
    }

    #[test]
    fn diff_ranks_the_slow_ost_first_with_the_right_round() {
        let base = run(0.0);
        let head = run(25.0);
        let report = diff(&base, &head);
        assert!(!report.findings.is_empty());
        let top = &report.findings[0];
        assert_eq!(top.kind, "ost", "top finding: {}", top.text);
        assert_eq!(top.phase, "io");
        assert_eq!(top.subject, "ost 1");
        assert_eq!(top.rounds, Some((1, 1)), "round localization: {}", top.text);
        assert!(top.text.contains("io grew"), "{}", top.text);
        assert!(top.text.contains("ost 1"), "{}", top.text);
        assert!(top.text.contains("round 1"), "{}", top.text);
        // The report is reproducible.
        assert_eq!(report, diff(&base, &head));
        assert_eq!(report.to_json(), diff(&base, &head).to_json());
    }

    #[test]
    fn identical_digests_produce_no_findings() {
        let d = run(0.0);
        let report = diff(&d, &d);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.render_text().contains("no findings"));
    }

    #[test]
    fn a_key_on_one_side_only_reads_zero_on_the_other() {
        let base = run(0.0);
        let mut head = base.clone();
        head.values_us.insert(Key::Rank(2), 50.0);
        head.values_us.remove(&Key::Rank(1));
        let report = diff(&base, &head);
        let text = |subject: &str| {
            let f = report.findings.iter().find(|f| f.subject == subject);
            f.map(|f| f.text.clone()).unwrap_or_default()
        };
        assert_eq!(text("rank 2"), "busy grew new on rank 2 (+50.0 us; 0.0 -> 50.0)");
        assert_eq!(text("rank 1"), "busy shrank -100.0% on rank 1 (-100.0 us; 100.0 -> 0.0)");
    }
}
