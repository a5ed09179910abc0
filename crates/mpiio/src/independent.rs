//! Independent (non-collective) I/O through a file view.
//!
//! Each process issues its own requests with no coordination — the
//! "Cray w/o Coll" series of the paper's Figure 11. A write is one file
//! request per run; a read takes the collective read's gap rule
//! (DESIGN.md §15.1): holes no wider than the file's break-even gap are
//! read through, and what is left is one plain read or one list-I/O
//! request.

use crate::profile::{Phase, PhaseProfile, PhaseTimer};
use crate::twophase::{close_gaps, lay_out};
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
/// The plan's pieces are joined across every gap of at most
/// [`FileHandle::list_break_even_gap`] bytes. One run left is a plain
/// read (a contiguous plan's is exactly its one piece); several go out
/// as one list read. The runs come back as views of the file image and
/// the pieces are carved out of them: pieces that continue each other in
/// one store are one view of it, and anything else is copied once into
/// the buffer returned. A read that went through a hole pays the copy in
/// virtual time.
pub fn read_plan(
    ep: &Endpoint,
    fh: &FileHandle,
    plan: &AccessPlan,
    prof: &mut PhaseProfile,
) -> IoBuffer {
    if plan.is_empty() {
        return IoBuffer::empty();
    }
    let mut runs: Vec<(u64, u64)> = plan.pieces().map(|e| (e.off, e.len)).collect();
    let pieces = runs.len();
    close_gaps(&mut runs, fh.list_break_even_gap());
    let t = PhaseTimer::start(Phase::Io, ep.now());
    let mut parts = Vec::new();
    let done = match runs[..] {
        [(off, len)] => fh.read_parts(off, len as usize, ep.now(), &mut parts),
        _ => fh.read_list_parts(&runs, ep.now(), &mut parts),
    };
    ep.clock().advance_to(done);
    t.stop_traced(ep.now(), prof, ep.trace());

    let out = if parts.iter().all(IoBuffer::is_real) {
        let mut fetched = Vec::new();
        lay_out(&runs, &mut parts, &mut fetched);
        let mut out = BufferBuilder::with_capacity(plan.total as usize);
        let mut at = 0;
        for e in plan.pieces() {
            while fetched[at].0 + fetched[at].1.len() as u64 <= e.off {
                at += 1;
            }
            let meets = fetched[at..].iter().take_while(|(off, _)| *off < e.end());
            for (off, part) in meets {
                let (lo, hi) = (e.off.max(*off), e.end().min(off + part.len() as u64));
                out.push(&part.sub((lo - off) as usize, (hi - lo) as usize));
            }
        }
        out.finish()
    } else {
        IoBuffer::synthetic(plan.total as usize)
    };
    if runs.len() < pieces {
        let t = PhaseTimer::start(Phase::Local, ep.now());
        ep.charge_memcpy(plan.total as usize);
        t.stop_traced(ep.now(), prof, ep.trace());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Datatype;
    use crate::view::{AccessPlan, FileView};
    use proptest::prelude::*;
    use simfs::{FileSystem, FsConfig};
    use simnet::{run_cluster, ClusterConfig, SimTime};

    fn one_rank(f: impl Fn(&Endpoint, FileSystem)) {
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
            let got = read_plan(ep, &fh, &plan, &mut prof);
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
    fn empty_plan_reads_nothing() {
        one_rank(|ep, fs| {
            let (fh, _) = fs.open("/empty", ep.now());
            let mut prof = PhaseProfile::new();
            let got = read_plan(ep, &fh, &AccessPlan::default(), &mut prof);
            assert!(got.is_empty());
        });
    }

    /// A strided view (`len`-byte pieces every `len + gap` bytes) or a
    /// tile of a row-major 2-D array, read from view offset `pos` for up
    /// to `n` bytes — pieces clipped at both ends.
    fn arb_plan() -> impl Strategy<Value = AccessPlan> {
        let strided = (1u64..40, 1u64..24).prop_map(|(len, gap)| Datatype::Resized {
            extent: len + gap,
            inner: Box::new(Datatype::Bytes(len)),
        });
        let picks = (0usize..64, 0usize..64, 0usize..64, 0usize..64);
        let tiled = ((1usize..6, 2usize..12, 1u64..9), picks).prop_map(
            |((rows, cols, elem), (a, b, c, d))| {
                let (tile_rows, tile_cols) = (1 + a % rows, 1 + b % cols);
                let (row, col) = (c % (rows - tile_rows + 1), d % (cols - tile_cols + 1));
                Datatype::tile_2d(rows, cols, tile_rows, tile_cols, row, col, elem)
            },
        );
        (prop_oneof![strided, tiled], 0u64..3000, 0u64..200, 1u64..8000).prop_map(
            |(t, disp, pos, n)| AccessPlan::from_view(&FileView::new(disp, &t), pos, n),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The bytes are a per-piece `read_at`'s; a plan whose gaps are
        /// all within the break-even gap costs what one covering read of
        /// its hull costs, and any other plan one request per OST it
        /// touches.
        #[test]
        fn gap_rule_reads_the_pieces(
            plan in arb_plan(),
            list_us in prop_oneof![Just(0.0), Just(2.0), Just(10.0)],
        ) {
            let mut cfg = FsConfig::tiny();
            cfg.list_extent_overhead = SimTime::micros(list_us);
            let fs = FileSystem::new(cfg);
            let (fh, _) = fs.open("/gap", SimTime::ZERO);
            let image: Vec<u8> = (0..1u32 << 16).map(|i| (i * 7 % 251) as u8).collect();
            fh.write_at(0, &IoBuffer::from_vec(image), SimTime::ZERO);
            let break_even = fh.list_break_even_gap();
            prop_assert_eq!(break_even, list_us as u64);

            let (fs2, plan2) = (fs.clone(), plan.clone());
            let got = run_cluster(ClusterConfig::ideal(1), move |ep| {
                let before = fs2.stats().total_requests;
                let got = read_plan(&ep, &fh, &plan2, &mut PhaseProfile::new());
                (got, fs2.stats().total_requests - before)
            });
            let (got, requests) = got.into_iter().next().expect("one rank");

            let fh = fs.handle("/gap");
            let mut oracle = Vec::new();
            for e in plan.pieces() {
                let (piece, _) = fh.read_at(e.off, e.len as usize, SimTime::ZERO);
                oracle.extend_from_slice(piece.as_slice().unwrap());
            }
            prop_assert_eq!(got.as_slice().unwrap_or(&[]), &oracle[..]);

            let pieces: Vec<_> = plan.pieces().collect();
            let (Some(start), Some(end)) = (plan.start(), plan.end()) else {
                prop_assert_eq!(requests, 0);
                return Ok(());
            };
            let layout = fh.layout();
            let expect = if pieces.windows(2).all(|w| w[1].off - w[0].end() <= break_even) {
                layout.ost_load(start, end - start).map(|(_, _, reqs)| reqs).sum()
            } else {
                let mut osts: Vec<usize> = pieces
                    .iter()
                    .flat_map(|e| layout.ost_load(e.off, e.len).map(|(ost, _, _)| ost))
                    .collect();
                osts.sort_unstable();
                osts.dedup();
                osts.len() as u64
            };
            prop_assert_eq!(requests, expect);
        }
    }
}
