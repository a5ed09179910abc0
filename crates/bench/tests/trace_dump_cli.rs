//! `trace_dump` takes `--procs N` (N ≥ 2), `--out DIR` and `--top K`
//! and nothing else: an unknown flag, a missing value, a number that
//! does not parse, or a single rank prints the usage line and exits 2
//! before any simulation runs.

use std::process::{Command, Output};

fn trace_dump(args: &[&str]) -> Output {
    // Any run that got past the arguments would write here.
    let out = std::env::temp_dir().join(format!("trace_dump_cli_{}", std::process::id()));
    Command::new(env!("CARGO_BIN_EXE_trace_dump"))
        .arg("--out")
        .arg(&out)
        .args(args)
        .output()
        .expect("spawn trace_dump")
}

fn assert_usage_error(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("usage: trace_dump"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no simulation output expected");
}

#[test]
fn one_rank_is_a_usage_error() {
    assert_usage_error(&trace_dump(&["--procs", "1"]));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&trace_dump(&["--procs", "2", "--bogus", "3"]));
}

#[test]
fn unparsable_numbers_are_usage_errors() {
    assert_usage_error(&trace_dump(&["--procs", "abc"]));
    assert_usage_error(&trace_dump(&["--procs", "2", "--top", "x"]));
}

#[test]
fn missing_value_is_a_usage_error() {
    assert_usage_error(&trace_dump(&["--procs", "2", "--top"]));
}
