//! A rank that runs past its fiber stack hits the guard page below it:
//! the process dies by SIGSEGV at the overflowing write, and nothing
//! outside the stack is written first. The overflow runs in a child
//! process — this test binary again, with one test selected and an
//! environment switch set — since the fault takes the whole process
//! down.

use simnet::{run_cluster, ClusterConfig};
use std::os::unix::process::ExitStatusExt;
use std::process::Command;

/// Set in the child: run the overflow instead of watching for it.
const CHILD: &str = "SIMNET_GUARD_PAGE_CHILD";
/// What the child prints once its rank runs, before it recurses.
const MARKER: &str = "rank 0 recursing";
/// Signal number of SIGSEGV on Linux.
const SIGSEGV: i32 = 11;

/// The stack the child's rank runs on.
const STACK: usize = 16 << 10;

/// Recurse with frames of a 256-byte block each until one lies below
/// `floor`.
#[inline(never)]
fn dive(floor: usize) -> u64 {
    let pad = std::hint::black_box([0u8; 256]);
    if (pad.as_ptr() as usize) < floor {
        return 0;
    }
    dive(floor) + u64::from(pad[0])
}

#[test]
fn a_rank_that_overflows_its_stack_dies_by_sigsegv() {
    if std::env::var_os(CHILD).is_some() {
        simnet::set_default_stack_size(STACK);
        run_cluster(ClusterConfig::ideal(1), |_| {
            eprintln!("{MARKER}");
            // Two kilobytes past the stack's end, inside the page below
            // it: a write there goes through unless that page is a
            // guard (and with a heap stack, lands in a neighbour's
            // memory).
            let local = 0u8;
            let top = std::hint::black_box(&local) as *const u8 as usize;
            std::hint::black_box(dive(top - STACK - (2 << 10)))
        });
        // Reached only if the writes below the stack went through.
        return;
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = Command::new(exe)
        .args([
            "--exact",
            "a_rank_that_overflows_its_stack_dies_by_sigsegv",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .output()
        .expect("the child runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(MARKER), "the child's rank never ran: {stderr}");
    assert!(!out.status.success(), "an overflowing rank exited cleanly: {stderr}");
    assert_eq!(
        out.status.signal(),
        Some(SIGSEGV),
        "the child ended by {:?}, not by SIGSEGV: {stderr}",
        out.status
    );
}
