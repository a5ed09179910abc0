//! Row-level comparison of regenerated `bench_results` against a
//! committed baseline — the logic behind the `regress` binary.
//!
//! The simulator is deterministic (virtual timestamps are a pure
//! function of the configuration), so regenerating a figure must
//! reproduce the committed numbers *exactly* up to cross-platform libm
//! variance. The default tolerance is therefore tight (1 ppm relative);
//! any genuine behaviour change — a protocol tweak, a changed service
//! model, a reordered admission queue — shifts virtual times far beyond
//! it and trips the gate, forcing an intentional baseline update in the
//! same commit as the change that moved the numbers.

use crate::table::rows_from_json;
use crate::Row;
use std::collections::BTreeMap;
use std::path::Path;

/// Relative + absolute tolerance for one compared value: `a` matches
/// `b` when `|a-b| <= abs + rel * max(|a|,|b|)`.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Relative tolerance.
    pub rel: f64,
    /// Absolute floor, in the unit of the compared value.
    pub abs: f64,
}

impl Tolerance {
    /// Does `fresh` match `base` under this tolerance?
    pub fn matches(&self, base: f64, fresh: f64) -> bool {
        (fresh - base).abs() <= self.abs + self.rel * base.abs().max(fresh.abs())
    }
}

/// Default: 1 ppm relative, tiny absolute floor. Virtual times are
/// deterministic; only libm variance across platforms is tolerated.
pub const DEFAULT_TOL: Tolerance = Tolerance { rel: 1e-6, abs: 1e-9 };

/// Per-series tolerance. Series whose values are derived through long
/// summation chains (bandwidth over hundreds of rounds) accumulate a
/// little more libm spread than raw times, so they get headroom — still
/// far below any real regression, which shifts numbers by percents.
pub fn tolerance_for(file: &str, series: &str) -> Tolerance {
    if file.starts_with("BENCH_hostprof") {
        // Host-time attribution percentages: which sink dominates is
        // stable, the exact split is scheduler weather. Half relative
        // plus a 5-point absolute floor keeps the gate about shape.
        Tolerance { rel: 0.5, abs: 5.0 }
    } else if series.contains("MB/s") || series.ends_with("bandwidth") {
        Tolerance { rel: 1e-5, abs: 1e-6 }
    } else {
        DEFAULT_TOL
    }
}

/// Compare one file's fresh rows against its baseline rows. Returns a
/// human-readable finding per mismatch (empty = clean). Rows are keyed
/// by (series, x); a missing or extra key is a finding, as is a unit
/// change or an `extra` value drifting beyond tolerance.
pub fn compare_rows(file: &str, baseline: &[Row], fresh: &[Row]) -> Vec<String> {
    let key = |r: &Row| (r.series.clone(), r.x.to_bits());
    let base_map: BTreeMap<_, &Row> = baseline.iter().map(|r| (key(r), r)).collect();
    let fresh_map: BTreeMap<_, &Row> = fresh.iter().map(|r| (key(r), r)).collect();
    let mut findings = Vec::new();

    for (k, b) in &base_map {
        let Some(f) = fresh_map.get(k) else {
            findings.push(format!(
                "{file}: series {:?} lost point x={}",
                b.series, b.x
            ));
            continue;
        };
        let tol = tolerance_for(file, &b.series);
        if f.unit != b.unit {
            findings.push(format!(
                "{file}: {:?} x={} changed unit {:?} -> {:?}",
                b.series, b.x, b.unit, f.unit
            ));
        }
        if !tol.matches(b.y, f.y) {
            findings.push(format!(
                "{file}: {:?} x={} moved {} -> {} ({:+.3}%)",
                b.series,
                b.x,
                b.y,
                f.y,
                (f.y - b.y) / b.y.abs().max(f64::MIN_POSITIVE) * 100.0
            ));
        }
        for (name, bv) in &b.extra {
            match f.extra.get(name) {
                None => findings.push(format!(
                    "{file}: {:?} x={} lost extra {name:?}",
                    b.series, b.x
                )),
                Some(fv) if !tol.matches(*bv, *fv) => findings.push(format!(
                    "{file}: {:?} x={} extra {name:?} moved {bv} -> {fv}",
                    b.series, b.x
                )),
                Some(_) => {}
            }
        }
        for name in f.extra.keys() {
            if !b.extra.contains_key(name) {
                findings.push(format!(
                    "{file}: {:?} x={} gained extra {name:?} (update the baseline?)",
                    b.series, b.x
                ));
            }
        }
    }
    for (k, f) in &fresh_map {
        if !base_map.contains_key(k) {
            findings.push(format!(
                "{file}: new point {:?} x={} absent from baseline (update it?)",
                f.series, f.x
            ));
        }
    }
    findings
}

/// List the row-document stems (`*.json` that parse as row arrays) in a
/// directory, with their parsed rows. Non-row JSON (trace-metrics
/// documents) and non-JSON files are skipped.
fn row_files(dir: &Path) -> Result<BTreeMap<String, Vec<Row>>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut out = BTreeMap::new();
    for entry in rd.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        if let Some(rows) = rows_from_json(&text) {
            let stem = path.file_stem().unwrap().to_string_lossy().to_string();
            out.insert(stem, rows);
        }
    }
    Ok(out)
}

/// Compare every row document under `fresh_dir` against `baseline_dir`.
/// A baseline file with no fresh counterpart (a figure stopped being
/// generated) and a fresh file with no baseline (a figure nobody
/// blessed) are both findings.
pub fn compare_dirs(fresh_dir: &Path, baseline_dir: &Path) -> Result<Vec<String>, String> {
    let baseline = row_files(baseline_dir)?;
    let fresh = row_files(fresh_dir)?;
    if baseline.is_empty() {
        return Err(format!("no baseline row documents in {}", baseline_dir.display()));
    }
    let mut findings = Vec::new();
    for (name, base_rows) in &baseline {
        match fresh.get(name) {
            Some(fresh_rows) => findings.extend(compare_rows(name, base_rows, fresh_rows)),
            None => findings.push(format!("{name}: baseline file was not regenerated")),
        }
    }
    for name in fresh.keys() {
        if !baseline.contains_key(name) {
            findings.push(format!("{name}: no committed baseline (bless it?)"));
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Vec<Row> {
        vec![
            Row::new("sync", 16.0, 1.25, "s").with("ratio", 0.5),
            Row::new("sync", 64.0, 4.5, "s").with("ratio", 0.7),
        ]
    }

    #[test]
    fn identical_rows_are_clean() {
        assert!(compare_rows("f", &base(), &base()).is_empty());
    }

    #[test]
    fn hostprof_attribution_gets_wall_clock_headroom() {
        // Attribution percentages are host-scheduler weather: a 4-point
        // swing must pass under the BENCH_hostprof envelope while the
        // same swing on a virtual-time document is a finding.
        let base = vec![Row::new("fig9/simnet", 0.0, 40.0, "%")];
        let mut fresh = base.clone();
        fresh[0].y = 44.0;
        assert!(compare_rows("BENCH_hostprof", &base, &fresh).is_empty());
        assert_eq!(compare_rows("fig9_scalability", &base, &fresh).len(), 1);
    }

    #[test]
    fn libm_scale_drift_is_tolerated() {
        let mut fresh = base();
        fresh[0].y *= 1.0 + 1e-9;
        assert!(compare_rows("f", &base(), &fresh).is_empty());
    }

    #[test]
    fn perturbation_beyond_tolerance_is_caught() {
        let mut fresh = base();
        fresh[1].y *= 1.001;
        let findings = compare_rows("f", &base(), &fresh);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("x=64"), "{findings:?}");
    }

    #[test]
    fn missing_and_extra_points_are_findings() {
        let fresh = vec![base().remove(0), Row::new("sync", 256.0, 9.0, "s")];
        let findings = compare_rows("f", &base(), &fresh);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.contains("lost point")));
        assert!(findings.iter().any(|f| f.contains("absent from baseline")));
    }

    #[test]
    fn extra_value_drift_is_a_finding() {
        let mut fresh = base();
        fresh[0].extra.insert("ratio".into(), 0.51);
        let findings = compare_rows("f", &base(), &fresh);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("ratio"));
    }

    #[test]
    fn bandwidth_series_get_headroom() {
        let t = tolerance_for("fig6_ior", "ParColl-64 MB/s");
        assert!(t.rel > DEFAULT_TOL.rel);
        assert!(tolerance_for("fig2", "sync").rel == DEFAULT_TOL.rel);
    }

    #[test]
    fn dir_comparison_reports_per_file() {
        let root = std::env::temp_dir().join(format!("regress_test_{}", std::process::id()));
        let (b, f) = (root.join("base"), root.join("fresh"));
        std::fs::create_dir_all(&b).unwrap();
        std::fs::create_dir_all(&f).unwrap();
        let write = |dir: &Path, name: &str, rows: &[Row]| {
            std::fs::write(dir.join(name), crate::table::rows_to_json(rows)).unwrap()
        };
        write(&b, "fig.json", &base());
        write(&f, "fig.json", &base());
        write(&b, "gone.json", &base());
        write(&f, "unblessed.json", &base());
        // Non-row JSON is skipped, not a parse error.
        std::fs::write(f.join("metrics.json"), "{\"kind\": \"simtrace_metrics\"}").unwrap();
        let findings = compare_dirs(&f, &b).unwrap();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|x| x.contains("gone")));
        assert!(findings.iter().any(|x| x.contains("unblessed")));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
