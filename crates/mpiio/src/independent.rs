//! Independent (non-collective) I/O through a file view.
//!
//! Each process issues its own requests with no coordination — the
//! "Cray w/o Coll" series of the paper's Figure 11. Non-contiguous views
//! decompose into one file request per run; for reads, *data sieving*
//! (Thakur et al.) optionally fetches the whole spanned range in large
//! chunks and extracts the wanted pieces, trading extra bytes moved for
//! far fewer requests.

use crate::profile::{Phase, PhaseProfile, PhaseTimer};
use crate::view::AccessPlan;
use simfs::FileHandle;
use simnet::buffer::BufferBuilder;
use simnet::{Endpoint, IoBuffer};

/// Write `buf` through `plan`, one file request per run, sequentially (a
/// single Catamount process has one outstanding syscall at a time).
pub fn write_plan(
    ep: &Endpoint,
    fh: &FileHandle,
    plan: &AccessPlan,
    buf: &IoBuffer,
    prof: &mut PhaseProfile,
) {
    assert_eq!(buf.len() as u64, plan.total, "buffer/plan length mismatch");
    let t = PhaseTimer::start(Phase::Io, ep.now());
    let mut now = ep.now();
    for (buf_off, ext) in plan.with_buffer_offsets() {
        let piece = buf.sub(buf_off as usize, ext.len as usize);
        now = fh.write_at(ext.off, &piece, now);
    }
    ep.clock().advance_to(now);
    t.stop_traced(ep.now(), prof, ep.trace());
    let t = PhaseTimer::start(Phase::Local, ep.now());
    ep.charge_memcpy(plan.total as usize);
    t.stop_traced(ep.now(), prof, ep.trace());
}

/// Read `plan.total` bytes through `plan`.
///
/// With `sieve_buffer > 0` and a non-contiguous plan, the spanned range is
/// fetched in `sieve_buffer`-sized chunks and the wanted runs are copied
/// out; otherwise every run is its own request.
pub fn read_plan(
    ep: &Endpoint,
    fh: &FileHandle,
    plan: &AccessPlan,
    sieve_buffer: u64,
    prof: &mut PhaseProfile,
) -> IoBuffer {
    if plan.is_empty() {
        return IoBuffer::empty();
    }
    let span_start = plan.start().expect("non-empty plan");
    let span_end = plan.end().expect("non-empty plan");
    let contiguous = plan.piece_count() == 1;

    if contiguous || sieve_buffer == 0 {
        let t = PhaseTimer::start(Phase::Io, ep.now());
        let mut out = BufferBuilder::with_capacity(plan.total as usize);
        let mut now = ep.now();
        for ext in plan.pieces() {
            let (data, done) = fh.read_at(ext.off, ext.len as usize, now);
            out.push(&data);
            now = done;
        }
        ep.clock().advance_to(now);
        t.stop_traced(ep.now(), prof, ep.trace());
        return out.finish();
    }

    // Data sieving: big sequential reads over the span, extract runs.
    let mut out = BufferBuilder::with_capacity(plan.total as usize);
    let mut chunk_lo = span_start;
    let mut pieces = plan.pieces().peekable();
    while chunk_lo < span_end {
        let chunk_hi = (chunk_lo + sieve_buffer).min(span_end);
        let t = PhaseTimer::start(Phase::Io, ep.now());
        let (chunk, done) = fh.read_at(chunk_lo, (chunk_hi - chunk_lo) as usize, ep.now());
        ep.clock().advance_to(done);
        t.stop_traced(ep.now(), prof, ep.trace());

        let mut copied = 0usize;
        while let Some(&e) = pieces.peek() {
            if e.off >= chunk_hi {
                break;
            }
            let lo = e.off.max(chunk_lo);
            let hi = e.end().min(chunk_hi);
            out.push(&chunk.sub((lo - chunk_lo) as usize, (hi - lo) as usize));
            copied += (hi - lo) as usize;
            if e.end() <= chunk_hi {
                pieces.next();
            } else {
                break; // run continues into the next chunk
            }
        }
        let t = PhaseTimer::start(Phase::Local, ep.now());
        ep.charge_memcpy(copied);
        t.stop_traced(ep.now(), prof, ep.trace());
        chunk_lo = chunk_hi;
    }
    let result = out.finish();
    assert_eq!(result.len() as u64, plan.total, "sieving extracted all runs");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{Datatype, Ext};
    use crate::view::{AccessPlan, FileView};
    use simfs::{FileSystem, FsConfig};
    use simnet::{run_cluster, ClusterConfig};

    fn one_rank(f: impl Fn(&Endpoint, FileSystem) + Send + Sync + 'static) {
        run_cluster(ClusterConfig::ideal(1), move |ep| {
            f(&ep, FileSystem::new(FsConfig::tiny()));
        });
    }

    #[test]
    fn contiguous_write_read_round_trip() {
        one_rank(|ep, fs| {
            let (fh, _) = fs.open("/ind", ep.now());
            let view = FileView::contiguous(0);
            let plan = AccessPlan::from_view(&view, 100, 16);
            let data = IoBuffer::from_slice(&[7u8; 16]);
            let mut prof = PhaseProfile::new();
            write_plan(ep, &fh, &plan, &data, &mut prof);
            assert!(prof.io > simnet::SimTime::ZERO);
            let got = read_plan(ep, &fh, &plan, 0, &mut prof);
            assert_eq!(got.as_slice().unwrap(), &[7u8; 16]);
        });
    }

    #[test]
    fn strided_write_lands_in_right_places() {
        one_rank(|ep, fs| {
            let (fh, _) = fs.open("/strided", ep.now());
            let t = Datatype::Vector {
                count: 3,
                blocklen: 1,
                stride: 2,
                inner: Box::new(Datatype::Bytes(4)),
            };
            let view = FileView::new(0, &t);
            let plan = AccessPlan::from_view(&view, 0, 12);
            let data = IoBuffer::from_slice(b"aaaabbbbcccc");
            let mut prof = PhaseProfile::new();
            write_plan(ep, &fh, &plan, &data, &mut prof);
            let (raw, _) = fh.read_at(0, 20, ep.now());
            assert_eq!(&raw.as_slice().unwrap()[0..4], b"aaaa");
            assert_eq!(&raw.as_slice().unwrap()[8..12], b"bbbb");
            assert_eq!(&raw.as_slice().unwrap()[16..20], b"cccc");
            // Gaps untouched (zeros).
            assert_eq!(&raw.as_slice().unwrap()[4..8], &[0; 4]);
        });
    }

    #[test]
    fn sieved_read_matches_per_run_read() {
        one_rank(|ep, fs| {
            let (fh, _) = fs.open("/sieve", ep.now());
            // Lay down a known pattern.
            let pattern: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
            fh.write_at(0, &IoBuffer::from_slice(&pattern), ep.now());

            let plan = AccessPlan::from_extents(vec![
                Ext::new(10, 5),
                Ext::new(50, 20),
                Ext::new(100, 1),
                Ext::new(150, 30),
            ]);
            let mut prof = PhaseProfile::new();
            let direct = read_plan(ep, &fh, &plan, 0, &mut prof);
            let sieved = read_plan(ep, &fh, &plan, 64, &mut prof);
            assert_eq!(direct, sieved);
            let expect: Vec<u8> = [(10u64, 5u64), (50, 20), (100, 1), (150, 30)]
                .iter()
                .flat_map(|&(o, l)| pattern[o as usize..(o + l) as usize].to_vec())
                .collect();
            assert_eq!(direct.as_slice().unwrap(), expect.as_slice());
        });
    }

    #[test]
    fn sieving_issues_fewer_requests() {
        one_rank(|ep, fs| {
            let (fh, _) = fs.open("/reqs", ep.now());
            fh.write_at(0, &IoBuffer::synthetic(100_000), ep.now());
            let before = fs.stats().total_requests;
            // 100 dense 16-byte runs at stride 32: the 3.2KB span costs a
            // handful of stripe-chunk requests when sieved, versus one
            // request per run when read directly.
            let plan = AccessPlan::from_extents(
                (0..100).map(|i| Ext::new(i * 32, 16)).collect(),
            );
            let mut prof = PhaseProfile::new();
            let _ = read_plan(ep, &fh, &plan, 1 << 20, &mut prof);
            let sieved_reqs = fs.stats().total_requests - before;

            let before = fs.stats().total_requests;
            let _ = read_plan(ep, &fh, &plan, 0, &mut prof);
            let direct_reqs = fs.stats().total_requests - before;
            assert!(
                sieved_reqs * 2 < direct_reqs,
                "sieving ({sieved_reqs}) should need far fewer requests than direct ({direct_reqs})"
            );
        });
    }

    #[test]
    fn run_straddling_sieve_chunks_is_reassembled() {
        one_rank(|ep, fs| {
            let (fh, _) = fs.open("/straddle", ep.now());
            let pattern: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
            fh.write_at(0, &IoBuffer::from_slice(&pattern), ep.now());
            // Two runs; the second straddles the 128-byte chunk boundary.
            let plan =
                AccessPlan::from_extents(vec![Ext::new(0, 10), Ext::new(120, 50)]);
            let mut prof = PhaseProfile::new();
            let got = read_plan(ep, &fh, &plan, 128, &mut prof);
            let mut expect = pattern[0..10].to_vec();
            expect.extend_from_slice(&pattern[120..170]);
            assert_eq!(got.as_slice().unwrap(), expect.as_slice());
        });
    }

    #[test]
    fn empty_plan_reads_nothing() {
        one_rank(|ep, fs| {
            let (fh, _) = fs.open("/empty", ep.now());
            let mut prof = PhaseProfile::new();
            let got = read_plan(ep, &fh, &AccessPlan::default(), 64, &mut prof);
            assert!(got.is_empty());
        });
    }
}
