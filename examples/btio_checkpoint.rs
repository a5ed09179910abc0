//! Scientific checkpoint scenario: the NAS BT-IO diagonal
//! multi-partitioning pattern, whose file views spread across the whole
//! record (the paper's Figure 4(c)). ParColl detects that direct
//! file-area partitioning is impossible and switches to an intermediate
//! file view; data still round-trips exactly through the same views.
//!
//! Run with: `cargo run --release --example btio_checkpoint`

use parcoll::coll::PartitionMode;
use parcoll::ParcollFile;
use simfs::{FileSystem, FsConfig};
use simmpi::{Communicator, Info};
use simnet::{run_cluster, ClusterConfig, Mapping};
use workloads::btio::BtIo;
use workloads::{pattern_buffer, pattern_mismatch, Workload};

fn main() {
    // 16 ranks (q = 4), a miniature 8^3 grid, 2 timesteps.
    let bt = BtIo::tiny(16);
    let fs = FileSystem::new(FsConfig::tiny());
    let fs2 = fs.clone();
    let bt2 = bt.clone();

    let outputs = run_cluster(ClusterConfig::cray_xt(16, Mapping::Block), move |ep| {
        let comm = Communicator::world(&ep);
        let rank = comm.rank();
        let info = Info::new()
            .with("parcoll_groups", 4)
            .with("parcoll_min_group", 2);
        let mut file = ParcollFile::open(&comm, &fs2, "/bt.chk", &info);

        let (disp, ft) = bt2.view(rank);
        file.set_view(disp, &ft);

        // Append every timestep's solution record collectively.
        for step in 0..bt2.ncalls() {
            let (off, bytes) = bt2.call(rank, step);
            file.write_at_all(off, &pattern_buffer(rank, step, bytes));
        }
        let mode = file.last_mode();
        comm.barrier();

        // Read every step back through the same view and verify.
        for step in 0..bt2.ncalls() {
            let (off, bytes) = bt2.call(rank, step);
            let got = file.read_at_all(off, bytes);
            let got = got.as_slice().unwrap();
            assert_eq!(got.len() as u64, bytes, "rank {rank} step {step}: short read");
            if let Some(at) = pattern_mismatch(rank, step, 0, got) {
                panic!("rank {rank} step {step}: checkpoint corrupted at byte {at}");
            }
        }
        let profile = file.close();
        let _ = ep;
        (mode, profile)
    });

    let (mode, profile) = &outputs[0];
    println!("BT-IO checkpoint on 16 ranks (q=4, {} cells/rank):", bt.q);
    println!("  partition mode    : {mode:?}");
    assert!(matches!(mode, Some(PartitionMode::IntermediateView { .. })));
    println!("  -> the spread pattern forced an intermediate file view, as in the paper");
    println!(
        "  rank 0 profile    : sync {} | p2p {} | io {} over {} collective calls",
        profile.sync, profile.p2p, profile.io, profile.calls
    );
    println!("  all {} timesteps verified byte-exact through the original views", bt.steps);
}
