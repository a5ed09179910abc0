//! `ost_heatmap --mode` accepts exactly `baseline` and `parcoll`: a
//! missing or unknown value prints the usage line and exits 2 before
//! any simulation runs.

use std::process::{Command, Output};

fn ost_heatmap(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ost_heatmap"))
        .args(args)
        .output()
        .expect("spawn ost_heatmap")
}

fn assert_usage_error(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("usage: ost_heatmap"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no simulation output expected");
}

#[test]
fn mode_without_a_value_is_a_usage_error() {
    assert_usage_error(&ost_heatmap(&["ior", "--procs", "4", "--mode"]));
}

#[test]
fn unknown_mode_is_a_usage_error() {
    assert_usage_error(&ost_heatmap(&["ior", "--procs", "4", "--mode", "bogus"]));
}
