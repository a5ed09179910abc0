//! `--compare A.json B.json`: the A/B rule of the choosing-metrics guide
//! over two result sets — every (end-to-end metric, workload) pairing in
//! its own row, B no worse than A by more than the metric's bound.

use crate::metrics::{Better, Clock, EndToEnd, END_TO_END, SAME_SEED_TOLERANCE};
use simtrace::json::Json;

/// Outcome of one (metric, workload) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Within,
    /// B is worse than A by more than the bound.
    Breach,
    /// B is within the bound, but a side's own inter-quartile spread is
    /// wider than the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// A's value.
    pub a: f64,
    /// B's value.
    pub b: f64,
    /// `(b - a) / a`.
    pub rel_diff: f64,
    /// The bound applied.
    pub bound: f64,
    /// Outcome.
    pub verdict: Verdict,
}

/// A host metric's own inter-quartile spread, from four samples up
/// (quartiles of fewer say nothing).
fn spread(metric: &Json) -> Option<f64> {
    let get = |k: &str| metric.get(k).and_then(Json::as_f64);
    (get("n")? >= 4.0).then_some((get("q3")? - get("q1")?) / get("median")?.abs())
}

/// One pairing: `a` and `b` are the metric's entries in the two result
/// sets. `None` when either holds no number.
fn judge(workload: &str, m: &EndToEnd, a: &Json, b: &Json, same_seed: bool) -> Option<Row> {
    let (va, vb) = (a.get("value")?.as_f64()?, b.get("value")?.as_f64()?);
    let bound = if m.clock == Clock::Simulated && same_seed {
        SAME_SEED_TOLERANCE
    } else {
        m.bound
    };
    let rel_diff = (vb - va) / va.abs();
    let worse_by = match m.better {
        Better::Lower => rel_diff,
        Better::Higher => -rel_diff,
    };
    let noisy = |side: &Json| spread(side).is_some_and(|s| s > bound);
    let verdict = if worse_by > bound {
        Verdict::Breach
    } else if m.clock == Clock::Host && (noisy(a) || noisy(b)) {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    Some(Row {
        workload: workload.to_string(),
        metric: m.name,
        a: va,
        b: vb,
        rel_diff,
        bound,
        verdict,
    })
}

/// Compare two result sets. `Err` when either is unusable (does not
/// parse, is stamped `partial`, or lacks a workload or metric the other
/// has).
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let header = |doc: &Json, key: &str| doc.get("header").and_then(|h| h.get(key)).cloned();
    for (label, doc) in [("A", a), ("B", b)] {
        if header(doc, "partial") != Some(Json::Bool(false)) {
            return Err(format!("{label} is a partial result set (smoke run or single workload); compare complete runs"));
        }
    }
    let same_seed = header(a, "seed").is_some() && header(a, "seed") == header(b, "seed");
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("no workloads in result set")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    if wa.iter().map(|(n, _)| n).ne(wb.iter().map(|(n, _)| n)) {
        return Err("the two result sets hold different workloads".to_string());
    }
    let mut rows = Vec::new();
    for ((name, ra), (_, rb)) in wa.iter().zip(&wb) {
        for side in [ra, rb] {
            if side.get("ops_failed").and_then(Json::as_u64) != Some(0) {
                return Err(format!(
                    "{name}: failed operations in a result set; nothing to compare"
                ));
            }
        }
        for m in &END_TO_END {
            let side = |r: &Json| r.get("end_to_end").and_then(|e| e.get(m.name)).cloned();
            let (Some(ma), Some(mb)) = (side(ra), side(rb)) else {
                return Err(format!("{name}: {} missing from a result set", m.name));
            };
            rows.push(
                judge(name, m, &ma, &mb, same_seed)
                    .ok_or_else(|| format!("{name}: {} is not a number", m.name))?,
            );
        }
    }
    Ok(rows)
}

/// Print the rows; returns whether any pairing breached its bound.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>10} {:>9}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Within => "ok",
            Verdict::Breach => "BREACH",
            Verdict::Unresolved => "unresolved (own spread exceeds the bound)",
        };
        println!(
            "{:<18} {:<14} {:>14.4} {:>14.4} {:>+9.2} % {:>8.4} %  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.rel_diff,
            100.0 * r.bound
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} pairings: {} breached, {} unresolved",
        rows.len(),
        count(Verdict::Breach),
        count(Verdict::Unresolved)
    );
    count(Verdict::Breach) > 0
}
