//! A set of disjoint byte ranges with merge/split maintenance.
//!
//! Used by the storage layer to track which extents hold synthetic
//! (unmaterialized) data, and by tests to verify coverage/overlap
//! invariants of ParColl's file-area partitioning.

/// Ordered set of disjoint, non-empty half-open ranges `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    // Sorted by start; maintained disjoint and non-adjacent (adjacent
    // ranges are coalesced).
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// Empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// Number of disjoint ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True if no bytes are covered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total bytes covered.
    pub fn covered(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// The ranges, sorted and disjoint.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Insert `[start, end)`, merging with neighbours.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // The ranges that overlap or touch the new one: `lo..hi`.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = lo + self.ranges[lo..].partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            return;
        }
        let merged = (self.ranges[lo].0.min(start), self.ranges[hi - 1].1.max(end));
        self.ranges[lo] = merged;
        self.ranges.drain(lo + 1..hi);
    }

    /// Remove `[start, end)`, splitting ranges that straddle the cut.
    pub fn remove(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // The ranges that overlap the cut: `lo..hi`.
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        let hi = lo + self.ranges[lo..].partition_point(|&(s, _)| s < end);
        if lo == hi {
            return;
        }
        let (first, last) = (self.ranges[lo].0, self.ranges[hi - 1].1);
        let left = (first < start).then_some((first, start));
        let right = (last > end).then_some((end, last));
        self.ranges.splice(lo..hi, left.into_iter().chain(right));
    }

    /// True if any byte of `[start, end)` is covered.
    pub fn intersects(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return false;
        }
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        i < self.ranges.len() && self.ranges[i].0 < end
    }

    /// True if every byte of `[start, end)` is covered.
    pub fn contains_range(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        i < self.ranges.len() && self.ranges[i].0 <= start && self.ranges[i].1 >= end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_disjoint_keeps_order() {
        let mut r = RangeSet::new();
        r.insert(10, 20);
        r.insert(0, 5);
        r.insert(30, 40);
        assert_eq!(r.ranges(), &[(0, 5), (10, 20), (30, 40)]);
        assert_eq!(r.covered(), 25);
    }

    #[test]
    fn insert_merges_overlaps_and_adjacency() {
        let mut r = RangeSet::new();
        r.insert(0, 10);
        r.insert(20, 30);
        r.insert(10, 20); // bridges both
        assert_eq!(r.ranges(), &[(0, 30)]);
        r.insert(25, 50);
        assert_eq!(r.ranges(), &[(0, 50)]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut r = RangeSet::new();
        r.insert(5, 5);
        assert!(r.is_empty());
    }

    #[test]
    fn remove_splits_straddling_range() {
        let mut r = RangeSet::new();
        r.insert(0, 100);
        r.remove(40, 60);
        assert_eq!(r.ranges(), &[(0, 40), (60, 100)]);
        r.remove(0, 10);
        assert_eq!(r.ranges(), &[(10, 40), (60, 100)]);
        r.remove(30, 70);
        assert_eq!(r.ranges(), &[(10, 30), (70, 100)]);
    }

    #[test]
    fn remove_uncovered_is_noop() {
        let mut r = RangeSet::new();
        r.insert(10, 20);
        r.insert(30, 40);
        let buffer = r.ranges().as_ptr();
        r.remove(0, 10);
        r.remove(20, 30);
        r.remove(45, 50);
        assert_eq!(r.ranges(), &[(10, 20), (30, 40)]);
        assert_eq!(
            r.ranges().as_ptr(),
            buffer,
            "a remove that cuts nothing reallocated"
        );
    }

    #[test]
    fn intersects_and_contains() {
        let mut r = RangeSet::new();
        r.insert(10, 20);
        r.insert(30, 40);
        assert!(r.intersects(15, 35));
        assert!(r.intersects(19, 20));
        assert!(!r.intersects(20, 30));
        assert!(!r.intersects(0, 10));
        assert!(r.contains_range(10, 20));
        assert!(r.contains_range(12, 18));
        assert!(!r.contains_range(10, 21));
        assert!(!r.contains_range(15, 35));
        assert!(r.contains_range(5, 5)); // empty range trivially contained
    }
}
