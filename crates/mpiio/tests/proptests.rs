//! Property-based tests for the MPI-IO layer: flattening and view
//! arithmetic agree with naive reference interpreters, and the two-phase
//! engine agrees with a sequential oracle in both directions.

use mpiio::{AccessPlan, Datatype, Ext, FileView};
use proptest::prelude::*;

/// Naive interpreter: materialize the byte positions a datatype selects.
fn reference_positions(t: &Datatype, base: u64, out: &mut Vec<u64>) {
    match t {
        Datatype::Bytes(n) => out.extend(base..base + n),
        Datatype::Contiguous { count, inner } => {
            for i in 0..*count {
                reference_positions(inner, base + i as u64 * inner.extent(), out);
            }
        }
        Datatype::Vector {
            count,
            blocklen,
            stride,
            inner,
        } => {
            for b in 0..*count {
                for i in 0..*blocklen {
                    reference_positions(
                        inner,
                        base + ((b * stride + i) as u64) * inner.extent(),
                        out,
                    );
                }
            }
        }
        Datatype::HIndexed { blocks, inner } => {
            for &(disp, count) in blocks {
                for i in 0..count {
                    reference_positions(inner, base + disp + i as u64 * inner.extent(), out);
                }
            }
        }
        Datatype::Struct { fields } => {
            for (disp, f) in fields {
                reference_positions(f, base + disp, out);
            }
        }
        Datatype::Resized { inner, .. } => reference_positions(inner, base, out),
        Datatype::Subarray { .. } => {
            // Covered through tile_2d below; direct enumeration would
            // duplicate the production code.
            let flat = t.flatten();
            for seg in flat.pieces() {
                out.extend(base + seg.off..base + seg.end());
            }
        }
    }
}

fn arb_leafy_type() -> impl Strategy<Value = Datatype> {
    // Non-overlapping constructions only (file views must not overlap).
    prop_oneof![
        (1u64..64).prop_map(Datatype::Bytes),
        (1usize..5, 1u64..16).prop_map(|(count, n)| Datatype::Contiguous {
            count,
            inner: Box::new(Datatype::Bytes(n)),
        }),
        (1usize..5, 1usize..3, 3usize..6, 1u64..8).prop_map(
            |(count, blocklen, stride, n)| Datatype::Vector {
                count,
                blocklen,
                stride: stride.max(blocklen),
                inner: Box::new(Datatype::Bytes(n)),
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flatten produces exactly the positions the naive interpreter
    /// enumerates, sorted and coalesced.
    #[test]
    fn flatten_matches_reference(t in arb_leafy_type()) {
        let mut expect = Vec::new();
        reference_positions(&t, 0, &mut expect);
        expect.sort_unstable();
        let flat = t.flatten();
        let mut got = Vec::new();
        for seg in flat.pieces() {
            got.extend(seg.off..seg.end());
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(flat.size, t.size());
        // Coalesced: no two adjacent segments touch.
        let segs: Vec<Ext> = flat.pieces().collect();
        for w in segs.windows(2) {
            prop_assert!(w[0].end() < w[1].off);
        }
    }

    /// View extents over any (start, len) window equal the naive
    /// enumeration of tiled positions.
    #[test]
    fn view_extents_match_reference(t in arb_leafy_type(),
                                    disp in 0u64..128,
                                    start in 0u64..256,
                                    len in 0u64..256) {
        let flat = t.flatten();
        prop_assume!(flat.size > 0);
        let view = FileView::new(disp, &t);
        let extents = view.extents(start, len);
        // Reference: walk tiles one data byte at a time.
        let mut expect = Vec::new();
        let mut tile_positions = Vec::new();
        for seg in flat.pieces() {
            tile_positions.extend(seg.off..seg.end());
        }
        for i in start..start + len {
            let tile = i / flat.size;
            let within = (i % flat.size) as usize;
            expect.push(disp + tile * flat.extent + tile_positions[within]);
        }
        let mut got = Vec::new();
        for e in &extents {
            got.extend(e.off..e.end());
        }
        prop_assert_eq!(got, expect);
        // Extents are sorted, coalesced and non-empty.
        for w in extents.windows(2) {
            prop_assert!(w[0].end() < w[1].off);
        }
        prop_assert!(extents.iter().all(|e| e.len > 0));
    }

    /// AccessPlan buffer offsets tile the buffer exactly.
    #[test]
    fn plan_buffer_offsets_tile(extents in proptest::collection::vec(
        (0u64..10_000, 1u64..100), 0..20)) {
        // Sort and de-overlap the random runs.
        let mut runs: Vec<Ext> = Vec::new();
        let mut cursor = 0u64;
        let mut sorted = extents;
        sorted.sort();
        for (off, len) in sorted {
            let off = off.max(cursor + 1);
            runs.push(Ext::new(off, len));
            cursor = off + len;
        }
        let plan = AccessPlan::from_extents(runs);
        let mut expect_buf = 0u64;
        for (buf_off, e) in plan.with_buffer_offsets() {
            prop_assert_eq!(buf_off, expect_buf);
            expect_buf += e.len;
        }
        prop_assert_eq!(expect_buf, plan.total);
    }

    /// Domain partitioning (plain and aligned) covers the range exactly
    /// with contiguous, ordered domains.
    #[test]
    fn domains_cover_exactly(min in 0u64..10_000, len in 0u64..1_000_000,
                             naggs in 1usize..64, align in 1u64..10_000) {
        use mpiio::twophase::domains::*;
        let max = min + len;
        for d in [
            compute_file_domains(min, max, naggs),
            compute_file_domains_aligned(min, max, naggs, align),
        ] {
            prop_assert_eq!(d.len(), naggs);
            prop_assert_eq!(d.iter().map(|e| e.len).sum::<u64>(), len);
            let mut pos = min;
            for e in &d {
                prop_assert_eq!(e.off, pos);
                pos = e.end();
            }
            prop_assert_eq!(pos, max);
        }
    }
}

/// One generated collective: who moves which bytes, through whom.
#[derive(Debug, Clone)]
struct Scenario {
    /// Each rank's `(offset, len)` file runs, sorted and disjoint across
    /// the whole group; the last rank is idle (no runs).
    runs: Vec<Vec<(u64, u64)>>,
    /// A strictly ascending proper subset of the ranks.
    aggregators: Vec<usize>,
    cb_buffer_size: u64,
    /// `FsConfig::tiny`'s per-extent list-I/O cost, µs: break-even gaps
    /// of 0, 2 and 10 B against the generator's 0–23 B gaps.
    list_extent_us: f64,
    checksums: bool,
}

impl Scenario {
    /// One past the last byte any rank touches.
    fn image_len(&self) -> usize {
        self.runs.iter().flatten().map(|r| r.0 + r.1).max().unwrap_or(0) as usize
    }
}

/// Byte `i` of what `rank` writes.
fn fill(rank: usize, i: u64) -> u8 {
    (rank as u64 * 41 + i * 7 + 1) as u8
}

/// Bytes the file holds before the collective, so holes are observable.
const SENTINEL: u8 = 0xEE;

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    // Scattered arm: runs of random length dealt to random ranks, holes
    // between them. Tile arm: one tile of a 2-D array per rank.
    let scattered = (
        1usize..12,
        proptest::collection::vec((0u64..24, 1u64..48, any::<usize>()), 1..40),
    )
        .prop_map(|(busy, segs)| {
            let mut runs = vec![Vec::new(); busy + 1];
            let mut at = 0u64;
            for (gap, len, owner) in segs {
                runs[owner % busy].push((at + gap, len));
                at += gap + len;
            }
            runs
        });
    let tiles = (1usize..4, 1usize..3, 1u64..17, 1u64..9, 1u64..9).prop_map(
        |(ntx, nty, tile_x, tile_y, elem)| {
            let cols = ntx as u64 * tile_x;
            let mut runs = vec![Vec::new(); ntx * nty + 1];
            for (r, mine) in runs.iter_mut().take(ntx * nty).enumerate() {
                let (row0, col0) = ((r / ntx) as u64 * tile_y, (r % ntx) as u64 * tile_x);
                mine.extend((0..tile_y).map(|y| (((row0 + y) * cols + col0) * elem, tile_x * elem)));
            }
            runs
        },
    );
    (
        prop_oneof![scattered, tiles],
        any::<u16>(),
        1u64..10,
        prop_oneof![Just(0.0), Just(2.0), Just(10.0)],
        any::<bool>(),
    )
        .prop_map(|(runs, mask, rounds, list_extent_us, checksums)| {
            let n = runs.len();
            let mut aggregators: Vec<usize> = (0..n).filter(|r| mask >> r & 1 == 1).collect();
            if aggregators.len() == n {
                aggregators.remove(usize::from(mask) % n);
            }
            if aggregators.is_empty() {
                aggregators.push(usize::from(mask) % n);
            }
            // A domain is about span / aggregators bytes: `rounds` windows.
            let touched = runs.iter().flatten();
            let lo = touched.clone().map(|r| r.0).min().unwrap_or(0);
            let hi = touched.map(|r| r.0 + r.1).max().unwrap_or(0);
            let domain = (hi - lo).div_ceil(aggregators.len() as u64);
            Scenario {
                runs,
                aggregators,
                cb_buffer_size: domain.div_ceil(rounds).max(1),
                list_extent_us,
                checksums,
            }
        })
}

/// The sequential oracle: every rank's runs applied to a byte map, in
/// rank order, with no communicator, aggregator or round anywhere.
fn oracle_image(s: &Scenario) -> Vec<u8> {
    let mut image = vec![SENTINEL; s.image_len()];
    for (rank, runs) in s.runs.iter().enumerate() {
        let mut i = 0u64;
        for &(off, len) in runs {
            for at in off..off + len {
                image[at as usize] = fill(rank, i);
                i += 1;
            }
        }
    }
    image
}

/// Run `s` through the engine in both directions, holding every rank's
/// collective read to the bytes it wrote: the file image after the write
/// and each rank's virtual end time.
fn run_scenario(s: &Scenario) -> (Vec<u8>, Vec<u64>) {
    use mpiio::twophase::{collective, CollConfig, Dir, Memo};
    use mpiio::{DirectSpace, PhaseProfile};
    use simfs::{FileSystem, FsConfig};
    use simmpi::{Communicator, Info};
    use simnet::{run_cluster, ClusterConfig, IoBuffer, Mapping, SimTime};

    let image_len = s.image_len();
    let mut fs_cfg = FsConfig::tiny();
    fs_cfg.list_extent_overhead = SimTime::micros(s.list_extent_us);
    let fs = FileSystem::new(fs_cfg);
    let (fs_in, s_in) = (fs.clone(), s.clone());
    let out = run_cluster(ClusterConfig::cray_xt(s.runs.len(), Mapping::Block), move |ep| {
        let comm = Communicator::world(&ep);
        let mut f = mpiio::File::open(&comm, &fs_in, "/oracle", &Info::new());
        if comm.rank() == 0 {
            f.write_at(0, &IoBuffer::from_vec(vec![SENTINEL; image_len]));
        }
        comm.barrier();
        let runs = &s_in.runs[comm.rank()];
        let plan = AccessPlan::from_extents(runs.iter().map(|&(o, l)| Ext::new(o, l)).collect());
        let mine: Vec<u8> = (0..plan.total).map(|i| fill(comm.rank(), i)).collect();
        let cfg = CollConfig {
            aggregators: s_in.aggregators.as_slice().into(),
            cb_buffer_size: s_in.cb_buffer_size,
            align: None,
            checksums: s_in.checksums,
        };
        let (mut prof, mut memo) = (PhaseProfile::new(), Memo::default());
        let buf = IoBuffer::from_slice(&mine);
        let mut engine =
            |dir| collective(&comm, f.handle(), &DirectSpace, &plan, dir, &cfg, &mut memo, &mut prof);
        assert!(engine(Dir::Write(&buf)).is_none());
        comm.barrier();
        let got = engine(Dir::Read).expect("a read returns its bytes");
        assert!((2..=18).contains(&prof.rounds), "1-9 rounds each way, not {}", prof.rounds);
        f.close();
        let got = got.as_slice().expect("real bytes come back real").to_vec();
        (got, mine, ep.now().as_secs().to_bits())
    });
    let (image, _) = fs.handle("/oracle").read_at(0, image_len, SimTime::ZERO);
    let image = image.as_slice().expect("written file holds real bytes").to_vec();
    for (rank, (got, mine, _)) in out.iter().enumerate() {
        assert_eq!(got, mine, "rank {rank} read back other bytes than it wrote");
    }
    (image, out.into_iter().map(|(_, _, end)| end).collect())
}

proptest! {
    // Each case runs two full clusters; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine against a sequential oracle, in both directions, for
    /// any access pattern (holes included), aggregator subset (idle and
    /// non-aggregator ranks included), round count, read gaps on both
    /// sides of the break-even gap, and piece checksums on or off: the
    /// file image is the oracle's (holes keep what the file held — and a
    /// stale recycled scratch buffer anywhere in the pack/unpack path
    /// would corrupt it), a collective read returns each rank exactly what
    /// it wrote, and a second run ends every rank at the same virtual
    /// time.
    #[test]
    fn engine_matches_the_sequential_oracle_in_both_directions(s in arb_scenario()) {
        let (image, ends) = run_scenario(&s);
        prop_assert_eq!(image, oracle_image(&s));
        prop_assert_eq!(run_scenario(&s).1, ends);
    }
}

/// How one call of a sequence departs from the sequence's base scenario.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// Every rank's runs as in the base scenario (shifted by the call's
    /// shift).
    Same,
    /// The globally last run grows: `max_end − min_st` moves, and no
    /// other rank's plan relative to `min_st` does.
    GrowLast(u64),
    /// One rank drops a run that is neither the globally first nor the
    /// last: its lists change, the file range does not.
    DropRun(usize),
    /// Another aggregator subset.
    Aggregators,
    /// Twice the collective buffer.
    Buffer,
}

/// One call of a sequence.
#[derive(Debug, Clone, Copy)]
struct Call {
    shift: u64,
    change: Change,
    read: bool,
}

/// The base scenario's runs, each rank's, as `call` lays them out.
fn call_runs(s: &Scenario, call: &Call) -> Vec<Vec<(u64, u64)>> {
    let mut runs: Vec<Vec<(u64, u64)>> = s.runs.clone();
    let all: Vec<(usize, usize)> = runs
        .iter()
        .enumerate()
        .flat_map(|(r, mine)| (0..mine.len()).map(move |i| (r, i)))
        .collect();
    let by_offset = |a: &(usize, usize)| runs[a.0][a.1].0;
    let first = all.iter().min_by_key(|a| by_offset(a)).copied();
    let last = all.iter().max_by_key(|a| by_offset(a)).copied();
    match call.change {
        Change::GrowLast(by) => {
            if let Some((r, i)) = last {
                runs[r][i].1 += by;
            }
        }
        Change::DropRun(k) => {
            let inner = |a: &&(usize, usize)| Some(**a) != first && Some(**a) != last;
            let inner: Vec<_> = all.iter().filter(inner).collect();
            if let Some(&&(r, i)) = inner.get(k % inner.len().max(1)) {
                runs[r].remove(i);
            }
        }
        _ => {}
    }
    for mine in &mut runs {
        mine.iter_mut().for_each(|run| run.0 += call.shift);
    }
    runs
}

/// The collective configuration of `call`, domains aligned to `align`.
fn call_config(s: &Scenario, call: &Call, align: Option<u64>) -> mpiio::twophase::CollConfig {
    let mut aggregators = s.aggregators.clone();
    let mut cb_buffer_size = s.cb_buffer_size;
    match call.change {
        Change::Aggregators if aggregators.len() > 1 => drop(aggregators.remove(0)),
        Change::Aggregators => aggregators = vec![(aggregators[0] + 1) % s.runs.len()],
        Change::Buffer => cb_buffer_size *= 2,
        _ => {}
    }
    mpiio::twophase::CollConfig {
        aggregators: aggregators.into(),
        cb_buffer_size,
        align,
        checksums: s.checksums,
    }
}

fn arb_call() -> impl Strategy<Value = Call> {
    let change = prop_oneof![
        Just(Change::Same),
        Just(Change::Same),
        Just(Change::Same),
        (1u64..9).prop_map(Change::GrowLast),
        any::<usize>().prop_map(Change::DropRun),
        Just(Change::Aggregators),
        Just(Change::Buffer),
    ];
    let call = |(shift, change, read)| Call {
        shift,
        change,
        read,
    };
    (0u64..64, change, any::<bool>()).prop_map(call)
}

/// What a sequence of calls leaves: the file image, every read's bytes
/// by rank, and each rank's end clock and phase profile, as bits.
type Outcome = (Vec<u8>, Vec<Vec<Vec<u8>>>, Vec<u64>, Vec<[u64; 6]>);

/// Run `calls` on one open, domains aligned to `align`, one memo for the
/// whole sequence — or, with `fresh`, a new memo for every call.
fn run_sequence(s: &Scenario, calls: &[Call], align: Option<u64>, fresh: bool) -> Outcome {
    use mpiio::twophase::{collective, Dir, Memo};
    use mpiio::{DirectSpace, PhaseProfile};
    use simfs::{FileSystem, FsConfig};
    use simmpi::{Communicator, Info};
    use simnet::{run_cluster, ClusterConfig, IoBuffer, Mapping, SimTime};

    let image_len = s.image_len() + 64 + 8;
    let mut fs_cfg = FsConfig::tiny();
    fs_cfg.list_extent_overhead = SimTime::micros(s.list_extent_us);
    let fs = FileSystem::new(fs_cfg);
    let (fs_in, s_in, calls_in) = (fs.clone(), s.clone(), calls.to_vec());
    let cluster = ClusterConfig::cray_xt(s.runs.len(), Mapping::Block);
    let out = run_cluster(cluster, move |ep| {
        let comm = Communicator::world(&ep);
        let rank = comm.rank();
        let mut f = mpiio::File::open(&comm, &fs_in, "/memo", &Info::new());
        if rank == 0 {
            f.write_at(0, &IoBuffer::from_vec(vec![SENTINEL; image_len]));
        }
        comm.barrier();
        let (mut prof, mut memo, mut reads) = (PhaseProfile::new(), Memo::default(), Vec::new());
        for (k, call) in calls_in.iter().enumerate() {
            let runs = call_runs(&s_in, call).swap_remove(rank);
            let plan = runs.iter().map(|&(o, l)| Ext::new(o, l)).collect();
            let plan = AccessPlan::from_extents(plan);
            let cfg = call_config(&s_in, call, align);
            if fresh {
                memo = Memo::default();
            }
            let mine: Vec<u8> = (0..plan.total).map(|i| fill(rank + 7 * k, i)).collect();
            let buf = IoBuffer::from_vec(mine);
            let dir = if call.read {
                Dir::Read
            } else {
                Dir::Write(&buf)
            };
            let (m, p) = (&mut memo, &mut prof);
            let got = collective(&comm, f.handle(), &DirectSpace, &plan, dir, &cfg, m, p);
            assert_eq!(got.is_some(), call.read, "only a read returns bytes");
            reads.extend(got.map(|got| got.as_slice().expect("real bytes").to_vec()));
        }
        f.close();
        let bits = [prof.sync, prof.p2p, prof.io, prof.local].map(|t| t.as_secs().to_bits());
        let bits = [bits[0], bits[1], bits[2], bits[3], prof.calls, prof.rounds];
        (reads, ep.now().as_secs().to_bits(), bits)
    });
    let (image, _) = fs.handle("/memo").read_at(0, image_len, SimTime::ZERO);
    let image = image.as_slice().expect("real bytes").to_vec();
    let mut outcome: Outcome = (image, Vec::new(), Vec::new(), Vec::new());
    for (reads, end, bits) in out {
        outcome.1.push(reads);
        outcome.2.push(end);
        outcome.3.push(bits);
    }
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The memo is exact: a sequence of 2–5 collective calls on one open
    /// — equal shapes at varying shifts, a call perturbed mid-sequence
    /// (the file range moved, or one rank's lists changed within it), a
    /// changed aggregator subset or collective buffer, either direction,
    /// checksums on or off, even or aligned domains (whose boundaries
    /// move with `min_st` modulo the unit) — leaves the file image, every
    /// rank's reads, end clocks and phase profiles bit-identical to the
    /// same sequence run with a fresh memo for every call.
    #[test]
    fn memo_matches_a_fresh_index_for_every_call(
        s in arb_scenario(),
        calls in proptest::collection::vec(arb_call(), 2..6),
        align in prop_oneof![Just(None), (2u64..24).prop_map(Some)],
    ) {
        let fresh = run_sequence(&s, &calls, align, true);
        let memo = run_sequence(&s, &calls, align, false);
        prop_assert_eq!(&memo.0, &fresh.0, "file image");
        prop_assert_eq!(&memo.1, &fresh.1, "reads");
        prop_assert_eq!(&memo.2, &fresh.2, "end clocks");
        prop_assert_eq!(&memo.3, &fresh.3, "phase profiles");
    }
}
