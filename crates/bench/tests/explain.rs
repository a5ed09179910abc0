//! Acceptance test for the self-explaining regression gate: a 1%
//! slowdown on a single OST must (a) trip the row gate and (b) be
//! *named* — correct phase, correct resource, with a round range — by
//! the top-ranked diff finding. No grepping Perfetto by hand.

use bench::explain::{parse_fault, run_scenario, DIGEST_FILE};
use bench::regress::compare_rows;
use simtrace::diff::diff;
use simtrace::digest_json;
use std::path::Path;

#[test]
fn one_percent_slow_ost_trips_the_gate_and_is_named() {
    let (base_rows, base_digest) = run_scenario("baseline", None);
    let (head_rows, head_digest) =
        run_scenario("HEAD", Some(parse_fault("ost_slow:1:1.01").unwrap()));

    // (a) The row gate trips: scenario bandwidth is MB/s, whose
    // tolerance (1e-5 relative) is far tighter than a 1% perturbation.
    let findings = compare_rows("explain_scenario", &base_rows, &head_rows);
    assert!(
        !findings.is_empty(),
        "a 1% slow OST must move the scenario rows past tolerance"
    );

    // (b) The diff names the root cause: the io phase, on ost 1, with a
    // round attribution — ranked first, ahead of every symptom.
    let report = diff(&base_digest, &head_digest);
    let top = report
        .findings
        .first()
        .expect("perturbed run must produce findings");
    assert_eq!(top.kind, "ost", "top finding should blame the resource: {}", top.text);
    assert_eq!(top.subject, "ost 1", "wrong OST named: {}", top.text);
    assert_eq!(top.phase, "io", "wrong phase named: {}", top.text);
    assert!(
        top.rounds.is_some(),
        "finding should carry a round range: {}",
        top.text
    );
    assert!(
        top.head_us > top.base_us,
        "the named io time should have grown: {}",
        top.text
    );
}

#[test]
fn unperturbed_rerun_produces_no_findings() {
    let (base_rows, base_digest) = run_scenario("baseline", None);
    let (head_rows, head_digest) = run_scenario("HEAD", None);
    assert!(
        compare_rows("explain_scenario", &base_rows, &head_rows).is_empty(),
        "identical runs must pass the row gate"
    );
    let report = diff(&base_digest, &head_digest);
    assert!(
        report.findings.is_empty(),
        "identical runs must diff clean, got: {:?}",
        report.findings.first().map(|f| &f.text)
    );
}

/// `regress --explain` diffs against the committed digest, and the row
/// gate skips it, so this is what holds it to the scenario it claims to
/// record: `explain --emit-baseline` must reproduce it byte for byte.
#[test]
fn the_committed_digest_is_the_baseline_scenario() {
    let quick = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results/quick");
    let path = quick.join(DIGEST_FILE);
    let committed = std::fs::read_to_string(&path).expect("committed digest");
    assert!(
        digest_json(&run_scenario("baseline", None).1) == committed,
        "{} is stale: regenerate it with `explain --emit-baseline`",
        path.display()
    );
}

#[test]
fn fault_spec_parser_rejects_garbage() {
    assert!(parse_fault("ost_slow:1:1.5").is_ok());
    assert!(parse_fault("ost_slow:any:2.0:0:20").is_ok());
    assert!(parse_fault("ost_slow:x:2.0").is_err());
    assert!(parse_fault("ost_slow:1").is_err());
    assert!(parse_fault("cpu_burn:1:2").is_err());
}
