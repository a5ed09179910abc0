//! `trace_dump` — run a small MPI-Tile-IO collective write with the
//! simtrace sink enabled and emit both observability artifacts:
//!
//! * `trace.json` — Chrome trace-event JSON (load in Perfetto or
//!   `chrome://tracing`): rank → thread, node → process, OSTs in a
//!   separate "storage" process, virtual µs → `ts`.
//! * `trace_metrics.json` — per-track counters, histograms and
//!   span-duration totals, plus cross-track totals.
//!
//! It then prints a collective-wall attribution summary (which rank every
//! global collective waited for, and the ranks that cost the most total
//! wait) and cross-checks the trace against the `PhaseProfile` the MPI-IO
//! layer accounts independently: per rank, the `phase/sync` span total
//! must match `PhaseProfile::sync` to within a microsecond.
//!
//! Usage: `trace_dump [--procs N] [--out DIR] [--top K]`, `N` ≥ 2. An
//! unknown flag, a missing value or one that does not parse prints the
//! usage line and exits 2 before simulating.

use mpiio::{File, PhaseProfile};
use simmpi::{Communicator, Info};
use simnet::{run_cluster, ClusterConfig, IoBuffer, Mapping};
use simtrace::{chrome_trace_json, collective_ops, metrics_json, TraceSink, TrackKey};
use std::sync::Arc;
use workloads::tileio::TileIo;
use workloads::Workload;

fn run_traced(sink: &TraceSink, procs: usize) -> Vec<PhaseProfile> {
    let fs = simfs::FileSystem::new(simfs::FsConfig::tiny());
    fs.attach_trace(sink);
    let mut cluster = ClusterConfig::cray_xt(procs, Mapping::Block);
    cluster.trace = sink.clone();

    let w = Arc::new(TileIo::tiny(procs));
    run_cluster(cluster, move |ep| {
        let comm = Communicator::world(&ep);
        let w = Arc::clone(&w);
        let (disp, ft) = w.view(comm.rank());
        let mut f = File::open(&comm, &fs, &w.path(), &Info::new());
        f.set_view(disp, &ft);
        comm.barrier();
        for call in 0..w.ncalls() {
            let (off, bytes) = w.call(comm.rank(), call);
            f.write_at_all(off, &IoBuffer::synthetic(bytes as usize));
        }
        comm.barrier();
        f.close()
    })
}

fn usage() -> ! {
    eprintln!("usage: trace_dump [--procs N] [--out DIR] [--top K] (N >= 2 ranks)");
    std::process::exit(2);
}

fn main() {
    let (mut procs, mut top_k, mut out_dir) = (16usize, 5usize, "trace_out".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        let number = || value.parse().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--procs" => procs = number(),
            "--top" => top_k = number(),
            "--out" => out_dir = value,
            _ => usage(),
        }
    }
    if procs < 2 {
        usage();
    }

    let sink = TraceSink::enabled();
    let profiles = run_traced(&sink, procs);
    let trace = sink.finish();
    let total_bytes = TileIo::tiny(procs).total_bytes();

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let trace_path = format!("{out_dir}/trace.json");
    let metrics_path = format!("{out_dir}/trace_metrics.json");
    std::fs::write(&trace_path, chrome_trace_json(&trace)).expect("write trace");
    std::fs::write(&metrics_path, metrics_json(&trace)).expect("write metrics");
    println!(
        "mpi-tile-io collective write, {procs} ranks, {} KiB: wrote {trace_path}, {metrics_path}",
        total_bytes / 1024
    );

    // Reconcile the trace with the independent PhaseProfile accounting:
    // per rank, phase/sync span totals vs PhaseProfile::sync.
    let mut worst = 0.0f64;
    for (rank, prof) in profiles.iter().enumerate() {
        let track = trace
            .track(TrackKey::Rank(rank))
            .expect("every rank has a track");
        let span_us = track.span_total_us("phase", Some("sync"));
        let prof_us = prof.sync.as_micros();
        worst = worst.max((span_us - prof_us).abs());
    }
    println!("sync reconciliation: max |trace - profile| = {worst:.6} µs over {procs} ranks");
    assert!(
        worst < 1.0,
        "trace sync spans diverge from PhaseProfile by {worst} µs"
    );

    // Collective-wall attribution from the rendezvous spans.
    let ops = collective_ops(&trace);
    println!("\n{} collective operations:", ops.len());
    println!(
        "{:>10} {:>4} {:>4} {:>9} {:>12} {:>12} {:>12}",
        "op", "ctx", "seq", "straggler", "last_us", "max_wait_us", "tot_wait_us"
    );
    for op in &ops {
        println!(
            "{:>10} {:>4} {:>4} {:>9} {:>12.1} {:>12.3} {:>12.3}",
            op.op, op.ctx, op.seq, op.straggler, op.last_arrival_us, op.max_wait_us,
            op.total_wait_us
        );
    }

    // Top-K straggler ranks: who the rest of the job waited for, weighted
    // by the total wait their late arrivals caused.
    let mut per_rank: Vec<(usize, u64, f64)> = Vec::new(); // (rank, ops, wait)
    for op in &ops {
        match per_rank.iter_mut().find(|(r, _, _)| *r == op.straggler) {
            Some(e) => {
                e.1 += 1;
                e.2 += op.total_wait_us;
            }
            None => per_rank.push((op.straggler, 1, op.total_wait_us)),
        }
    }
    per_rank.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
    println!("\ntop straggler ranks (by total wait inflicted):");
    for (rank, n_ops, wait_us) in per_rank.iter().take(top_k) {
        println!("  rank {rank:>3}: straggler in {n_ops:>3} collectives, {wait_us:>10.1} µs total wait");
    }
}
