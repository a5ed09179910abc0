//! `parcoll_sim --autotune` tunes the subgroup count across a run's
//! collective calls. A workload that makes one call (tile-io) exits 2
//! with a usage error that names the sweep tuning it across reopens,
//! before anything runs; a workload of several calls prints each tuned
//! epoch's group count, decision and agreed wall.

use std::process::{Command, Output};

fn parcoll_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_parcoll_sim"))
        .args(args)
        .output()
        .expect("spawn")
}

#[test]
fn autotune_refuses_a_workload_of_one_call() {
    let out = parcoll_sim(&["tileio", "--procs", "16", "--autotune"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("`figures fig7_tileio_groups`"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: parcoll_sim"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn autotune_prints_each_epochs_decision() {
    let out = parcoll_sim(&["ior", "--procs", "16", "--calls", "4", "--autotune"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let epochs: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("autotune epoch "))
        .collect();
    assert!(!epochs.is_empty(), "no decision printed: {stdout}");
    for (e, line) in epochs.iter().enumerate() {
        assert!(
            line.starts_with(&format!("autotune epoch {e}: ")),
            "epochs out of order: {stdout}"
        );
        assert!(
            line.contains(" groups, agreed wall ") && line.ends_with(']'),
            "{line}"
        );
    }
}
