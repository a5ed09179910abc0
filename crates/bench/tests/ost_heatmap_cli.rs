//! `ost_heatmap` runs only what it knows: an unknown workload or flag,
//! a missing `--mode` value or one other than `baseline` and `parcoll`,
//! and a number that does not parse each print the usage line and exit
//! 2 before any simulation runs.

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

#[test]
fn unknown_workload_is_a_usage_error() {
    assert_usage_error(&ost_heatmap(&["btio", "--procs", "4"]));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&ost_heatmap(&["ior", "--procs", "4", "--bogus"]));
}

#[test]
fn unparsable_numbers_are_usage_errors() {
    for (flag, value) in [("--procs", "abc"), ("--groups", "x"), ("--timeline", "wide")] {
        let mut args = vec!["ior", "--procs", "4", flag, value];
        if flag == "--procs" {
            args.drain(1..3);
        }
        assert_usage_error(&ost_heatmap(&args));
    }
}
