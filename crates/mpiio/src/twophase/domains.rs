//! File-domain partitioning among I/O aggregators.
//!
//! The extended two-phase protocol assigns each aggregator a contiguous
//! *file domain*: the file range `[min_st, max_end)` touched by the
//! operation, divided evenly (ROMIO's `ADIOI_Calc_file_domains`). Every
//! rank computes the same division locally from the allgathered offsets.

use crate::datatype::Ext;

/// Divide `[min_st, max_end)` evenly into `naggs` contiguous domains.
///
/// The first `rem` domains get one extra byte when the range does not
/// divide evenly, so domains differ in size by at most one byte and cover
/// the range exactly. Trailing aggregators receive empty domains when
/// there are more aggregators than bytes.
pub fn compute_file_domains(min_st: u64, max_end: u64, naggs: usize) -> Vec<Ext> {
    assert!(naggs > 0, "need at least one aggregator");
    assert!(min_st <= max_end, "inverted file range");
    let total = max_end - min_st;
    let base = total / naggs as u64;
    let rem = total % naggs as u64;
    let mut out = Vec::with_capacity(naggs);
    let mut pos = min_st;
    for i in 0..naggs as u64 {
        let len = base + u64::from(i < rem);
        out.push(Ext::new(pos, len));
        pos += len;
    }
    debug_assert_eq!(pos, max_end);
    out
}

/// Divide `[min_st, max_end)` into `naggs` domains whose interior
/// boundaries fall on multiples of `align` (the Lustre stripe size).
/// Stripe-aligned domains give every stripe a single writing aggregator,
/// eliminating extent-lock traffic at domain seams — the Lustre-aware
/// refinement later shipped in Cray's MPI-IO. Domains still cover the
/// range exactly and differ by at most one aligned unit (plus the ragged
/// head/tail).
pub fn compute_file_domains_aligned(
    min_st: u64,
    max_end: u64,
    naggs: usize,
    align: u64,
) -> Vec<Ext> {
    assert!(naggs > 0, "need at least one aggregator");
    assert!(min_st <= max_end, "inverted file range");
    if align <= 1 {
        return compute_file_domains(min_st, max_end, naggs);
    }
    // Work in units of `align`, counting the ragged head stripe as one.
    let first_boundary = min_st.div_ceil(align) * align;
    if first_boundary >= max_end {
        // Whole range within one stripe: give it to the first aggregator.
        let mut out = vec![Ext::new(min_st, max_end - min_st)];
        out.extend((1..naggs).map(|_| Ext::new(max_end, 0)));
        return out;
    }
    // Aligned units to hand out: the ragged head (if any) counts as one.
    let units = if min_st.is_multiple_of(align) {
        (max_end - min_st).div_ceil(align)
    } else {
        1 + (max_end - first_boundary).div_ceil(align)
    };
    let base = units / naggs as u64;
    let rem = units % naggs as u64;
    let mut out = Vec::with_capacity(naggs);
    let mut pos = min_st;
    for i in 0..naggs as u64 {
        let take = base + u64::from(i < rem);
        // Advance `take` aligned units from `pos` (the first unit may be
        // the ragged head).
        let mut end = pos;
        for _ in 0..take {
            end = ((end / align) + 1) * align;
        }
        let end = end.min(max_end);
        out.push(Ext::new(pos, end - pos));
        pos = end;
    }
    // Numerical raggedness can leave a tail; give it to the last domain.
    if pos < max_end {
        let last = out.last_mut().expect("naggs > 0");
        last.len += max_end - pos;
    }
    debug_assert_eq!(
        out.iter().map(|e| e.len).sum::<u64>(),
        max_end - min_st,
        "aligned domains must cover the range exactly"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_division() {
        let d = compute_file_domains(0, 100, 4);
        assert_eq!(
            d,
            vec![
                Ext::new(0, 25),
                Ext::new(25, 25),
                Ext::new(50, 25),
                Ext::new(75, 25)
            ]
        );
    }

    #[test]
    fn remainder_spread_over_leading_domains() {
        let d = compute_file_domains(0, 10, 4);
        assert_eq!(d.iter().map(|e| e.len).collect::<Vec<_>>(), vec![3, 3, 2, 2]);
        assert_eq!(d.iter().map(|e| e.len).sum::<u64>(), 10);
        // Contiguous.
        for w in d.windows(2) {
            assert_eq!(w[0].end(), w[1].off);
        }
    }

    #[test]
    fn offset_range_respected() {
        let d = compute_file_domains(1000, 1100, 2);
        assert_eq!(d, vec![Ext::new(1000, 50), Ext::new(1050, 50)]);
    }

    #[test]
    fn more_aggregators_than_bytes() {
        let d = compute_file_domains(0, 2, 4);
        assert_eq!(d.iter().map(|e| e.len).collect::<Vec<_>>(), vec![1, 1, 0, 0]);
    }

    #[test]
    fn empty_range() {
        let d = compute_file_domains(5, 5, 3);
        assert!(d.iter().all(|e| e.len == 0));
    }

    #[test]
    fn aligned_domains_cut_on_stripe_boundaries() {
        let d = compute_file_domains_aligned(100, 10_000, 3, 1024);
        // Interior boundaries are multiples of 1024.
        for w in d.windows(2) {
            let boundary = w[0].end();
            if boundary < 10_000 {
                assert_eq!(boundary % 1024, 0, "boundary {boundary}");
            }
        }
        assert_eq!(d[0].off, 100);
        assert_eq!(d.iter().map(|e| e.len).sum::<u64>(), 9_900);
        for w in d.windows(2) {
            assert_eq!(w[0].end(), w[1].off);
        }
    }

    #[test]
    fn aligned_domains_with_tiny_range() {
        let d = compute_file_domains_aligned(10, 50, 4, 1024);
        assert_eq!(d[0], Ext::new(10, 40));
        assert!(d[1..].iter().all(|e| e.len == 0));
    }

    #[test]
    fn aligned_with_unit_alignment_is_even_split() {
        assert_eq!(
            compute_file_domains_aligned(0, 100, 4, 1),
            compute_file_domains(0, 100, 4)
        );
    }

    #[test]
    fn aligned_domains_balance_within_one_unit() {
        let d = compute_file_domains_aligned(0, 64 * 1024, 4, 1024);
        let units: Vec<u64> = d.iter().map(|e| e.len / 1024).collect();
        assert_eq!(units.iter().sum::<u64>(), 64);
        assert!(units.iter().max().unwrap() - units.iter().min().unwrap() <= 1);
    }

    #[test]
    fn single_aggregator_owns_everything() {
        let d = compute_file_domains(10, 50, 1);
        assert_eq!(d, vec![Ext::new(10, 40)]);
    }
}
