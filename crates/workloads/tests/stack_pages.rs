//! A rank's fiber stack costs the pages it touches (DESIGN.md §9.3):
//! every rank of the benchmark's shapes, on every path the benchmark
//! drives, stays within two resident pages of stack — 8 KiB deep,
//! guard page aside — and most stay within one. The pin holds each leg
//! to its count of ranks above one page: a frame that grows on the path
//! every rank takes moves that count by hundreds of ranks, and the
//! benchmark's peak RSS with it, long before any rank reaches a third
//! page. It runs each leg on a fresh thread, whose stack pool starts
//! empty, and reads the pool's resident pages (`mincore`) when the run
//! is over.
//!
//! Frame sizes are those of the optimized build, so the pin holds the
//! release build only.

use simmpi::Info;
use workloads::btio::BtIo;
use workloads::flashio::FlashIo;
use workloads::restart::{run_restart, Restart};
use workloads::runner::{run_workload, DataMode, IoMode, RunConfig};
use workloads::tileio::TileIo;

/// The most resident stack pages a rank may hold.
const PAGES: usize = 2;

/// Run `leg` on a fresh thread; the resident pages of each of its
/// `ranks` fibers' stacks.
fn stack_pages(ranks: usize, leg: impl FnOnce() + Send) -> Vec<usize> {
    std::thread::scope(|s| {
        s.spawn(|| {
            leg();
            let pages = simnet::fiber::pooled_stack_pages();
            assert_eq!(pages.len(), ranks, "one pooled stack per rank");
            pages
        })
        .join()
        .expect("the leg ran")
    })
}

/// Assert that every rank of `leg` held at most [`PAGES`] stack pages,
/// and at most `deep` of its `ranks` more than one.
fn pin(name: &str, ranks: usize, deep: usize, leg: impl FnOnce() + Send) {
    let pages = stack_pages(ranks, leg);
    let worst = pages.iter().copied().max().unwrap_or(0);
    let over = pages.iter().filter(|&&p| p > 1).count();
    assert!(
        worst <= PAGES && over <= deep,
        "{name}: {over} of {ranks} ranks hold more than one stack page (at most {deep} may), \
         up to {worst} (at most {PAGES})"
    );
}

/// A run configuration of the benchmark's: paper environment, `mode`,
/// and the hints `hints`.
fn config(mode: IoMode, hints: &[(&str, &str)]) -> RunConfig {
    let mut info = Info::new();
    for (k, v) in hints {
        info.set(k, v);
    }
    RunConfig {
        info,
        ..RunConfig::paper(mode)
    }
}

/// A tile-io shape of `grid` tiles of `x` × `y` 64-byte elements.
fn tile(grid: (usize, usize), x: usize, y: usize) -> TileIo {
    TileIo {
        ntx: grid.0,
        nty: grid.1,
        tile_x: x,
        tile_y: y,
        elem: 64,
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "frame sizes are the optimized build's")]
fn each_benchmark_leg_keeps_its_count_of_ranks_above_one_stack_page() {
    // A run's configuration holds its trace sink, which stays on the
    // thread that runs it: each leg builds its own there. The counts
    // are the benchmark legs' (base, pc, var); one ParColl rank, and
    // every rank of a base BT-IO, a restart or the checksummed verify
    // leg, reaches a second page.
    let tile512 = TileIo::paper(512);
    for (name, mode, hints, deep) in [
        ("base", IoMode::Collective, &[][..], 0),
        ("pc", IoMode::Parcoll { groups: 64 }, &[], 1),
        ("var", IoMode::Collective, &[("cb_nodes", "64")], 0),
    ] {
        let run = || drop(run_workload(tile512.clone(), config(mode, hints)));
        pin(&format!("tile-io 512 {name}"), 512, deep, run);
    }

    let bt64 = BtIo::with_grid(64, 162, 40);
    for (name, mode, hints, deep) in [
        ("base", IoMode::Collective, &[][..], 64),
        ("pc", IoMode::Parcoll { groups: 8 }, &[], 1),
        (
            "var",
            IoMode::Parcoll { groups: 8 },
            &[("cb_buffer_size", "1048576")],
            1,
        ),
    ] {
        let run = || drop(run_workload(bt64.clone(), config(mode, hints)));
        pin(&format!("BT-IO 64 {name}"), 64, deep, run);
    }

    let flash128 = FlashIo::checkpoint(128);
    for (name, mode, deep) in [
        ("base", IoMode::Collective, 0),
        ("pc", IoMode::Parcoll { groups: 8 }, 1),
        ("var", IoMode::Independent, 0),
    ] {
        let run = || drop(run_workload(flash128.clone(), config(mode, &[])));
        pin(&format!("Flash-IO 128 {name}"), 128, deep, run);
    }

    // The var leg runs the pc configuration (its one hint is ignored).
    let restart = Restart::with_den(tile(TileIo::tall_grid(256), 512, 384), 4);
    for (name, mode) in [
        ("base", IoMode::Collective),
        ("pc", IoMode::Parcoll { groups: 32 }),
    ] {
        let run = || drop(run_restart(restart.clone(), config(mode, &[])));
        pin(&format!("restart 256 {name}"), 256, 256, run);
    }

    // Real bytes, read back and compared, checksummed and scrubbed.
    let verify = tile(TileIo::near_square_grid(64), 256, 192);
    let run = || {
        let cfg = RunConfig {
            data: DataMode::Verify,
            read_back: true,
            integrity: true,
            scrub: true,
            ..config(IoMode::Parcoll { groups: 8 }, &[])
        };
        drop(run_workload(verify, cfg));
    };
    pin("verify tile-io 64 ParColl-8", 64, 64, run);
}

/// Write a byte 10 KiB below the caller's frame.
#[inline(never)]
fn touch_ten_kilobytes_down() {
    let block = std::hint::black_box([1u8; 10 << 10]);
    std::hint::black_box(block[0]);
}

/// The pin sees what it pins: the rank that reaches 10 KiB down its
/// stack holds three pages, and the one that does not holds fewer.
#[test]
fn a_rank_ten_kilobytes_deep_holds_three_pages() {
    let pages = stack_pages(2, || {
        simnet::run_cluster(simnet::ClusterConfig::ideal(2), |ep| {
            if ep.rank() == 1 {
                touch_ten_kilobytes_down();
            }
        });
    });
    assert!(pages[1] >= 3 && pages[1] > pages[0], "{pages:?}");
}
