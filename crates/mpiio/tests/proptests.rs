//! Property-based tests for the MPI-IO layer: flattening and view
//! arithmetic agree with naive reference interpreters, and the collective
//! write path agrees with independent writes for arbitrary patterns.

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
            for seg in &flat.segs {
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
        for seg in &flat.segs {
            got.extend(seg.off..seg.end());
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(flat.size, t.size());
        // Coalesced: no two adjacent segments touch.
        for w in flat.segs.windows(2) {
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
        for seg in &flat.segs {
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

/// One collective tile write: `ntx * nty` ranks each own one tile of a
/// 2-D array and write it through a subarray view; returns the full file
/// image, read back through the storage layer after the cluster exits.
fn tileio_write_image(ntx: usize, nty: usize, tile_x: usize, tile_y: usize, elem: u64) -> Vec<u8> {
    use simfs::{FsConfig, FileSystem};
    use simmpi::{Communicator, Info};
    use simnet::{run_cluster, ClusterConfig, IoBuffer, SimTime};

    let nprocs = ntx * nty;
    let rows = nty * tile_y;
    let cols = ntx * tile_x;
    let total = (rows * cols) as u64 * elem;
    let fs = FileSystem::new(FsConfig::tiny());
    let fs_in = fs.clone();
    run_cluster(ClusterConfig::ideal(nprocs), move |ep| {
        let comm = Communicator::world(&ep);
        let mut f = mpiio::File::open(&comm, &fs_in, "/tile", &Info::new());
        let r = comm.rank();
        let ft = Datatype::tile_2d(
            rows,
            cols,
            tile_y,
            tile_x,
            (r / ntx) * tile_y,
            (r % ntx) * tile_x,
            elem,
        );
        f.set_view(0, &ft);
        let mine: Vec<u8> = (0..tile_x * tile_y * elem as usize)
            .map(|i| (r * 41 + i * 7) as u8)
            .collect();
        f.write_at_all(0, &IoBuffer::from_vec(mine));
        f.close();
    });
    let (img, _) = fs.handle("/tile").read_at(0, total as usize, SimTime::ZERO);
    img.as_slice()
        .expect("written file holds real bytes")
        .to_vec()
}

proptest! {
    // Each case runs a full cluster; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The scratch-buffer pool recycles backing stores between the
    /// rounds of a collective: for any tile geometry, a two-phase write
    /// must produce the image computed directly from the geometry (a
    /// stale recycled byte anywhere in the pack/unpack path would
    /// corrupt it).
    #[test]
    fn pooled_twophase_write_matches_the_direct_image(
        ntx in 1usize..4,
        nty in 1usize..3,
        tile_x in 1usize..17,
        tile_y in 1usize..9,
        elem in 1u64..9,
    ) {
        let elem_b = elem as usize;
        let cols = ntx * tile_x;
        let mut direct = vec![0u8; nty * tile_y * cols * elem_b];
        for r in 0..ntx * nty {
            for i in 0..tile_x * tile_y * elem_b {
                let (y, x, e) = (i / elem_b / tile_x, i / elem_b % tile_x, i % elem_b);
                let (row, col) = ((r / ntx) * tile_y + y, (r % ntx) * tile_x + x);
                direct[(row * cols + col) * elem_b + e] = (r * 41 + i * 7) as u8;
            }
        }
        prop_assert_eq!(tileio_write_image(ntx, nty, tile_x, tile_y, elem), direct);
    }
}
