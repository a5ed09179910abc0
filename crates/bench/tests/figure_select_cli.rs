//! `hostprof --figure` and `hostperf --figure` select scenarios by their
//! whole name: a prefix such as `fig1` (which would also pick fig10 and
//! fig11) or any other name that is no scenario exits 2 with the list of
//! valid names, before anything runs.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(["--quick", "--figure"])
        .args(args)
        .output()
        .expect("spawn")
}

fn assert_unknown_figure(out: &Output, bad: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("unknown --figure \"{bad}\"")),
        "stderr: {stderr}"
    );
    for valid in bench::hostprof::PROFILED {
        assert!(stderr.contains(valid), "{valid} not listed: {stderr}");
    }
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn hostprof_rejects_a_prefix() {
    let out = run(env!("CARGO_BIN_EXE_hostprof"), &["fig1", "--no-emit"]);
    assert_unknown_figure(&out, "fig1");
}

#[test]
fn hostperf_rejects_a_prefix_and_an_unknown_name() {
    let out = run(env!("CARGO_BIN_EXE_hostperf"), &["fig1"]);
    assert_unknown_figure(&out, "fig1");
    let out = run(
        env!("CARGO_BIN_EXE_hostperf"),
        &["fig9_scalability", "--figure", "fig12"],
    );
    assert_unknown_figure(&out, "fig12");
    assert!(String::from_utf8_lossy(&out.stderr).contains("tile_verify"));
}
