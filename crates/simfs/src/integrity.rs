//! At-rest data integrity: per-page checksums, lazy rot materialization,
//! detect-and-repair, and the scrub report types.
//!
//! When [`crate::FsConfig::integrity`] is on, every file carries an
//! [`IntegrityStore`]: a `simnet::cksum` sum per 64 KiB page of the file
//! ([`PAGE_SIZE`] — the simulator's stand-in for Lustre's per-extent OST
//! checksums). Sums are
//! updated on the write path and verified on the read path and by
//! [`crate::FileSystem::scrub`].
//!
//! # Rot model
//!
//! An `ost_rot` fault rule names a file extent that decays at rest. The
//! decay is *materialized lazily*: the first read or scrub that touches
//! the extent applies the rule's seeded single-byte flip to the stored
//! bytes (without updating the stored sum — that is the corruption) and
//! journals the flip. The journal models the redundant durable copy a
//! real deployment repairs from: a detected mismatch whose flips are all
//! journaled is repaired by inverting them (XOR is self-inverse) and
//! re-verifying. A rotted page whose data was *synthetic* (modeled bytes
//! that were never materialized — there is no redundant copy to read
//! back) is poisoned: detection still works, repair is impossible, and
//! the read surfaces a typed [`IntegrityError`] instead of a silent
//! wrong answer.
//!
//! # Determinism
//!
//! Sums are pure functions of file contents; the planted flip is a pure
//! function of the plan seed and rule index; materialization order is
//! fixed by rule index. Two runs with the same plan therefore report
//! byte-identical scrub findings.

use crate::storage::Storage;
use simnet::FaultPlan;

/// Bytes per checksummed page.
pub const PAGE_SIZE: u64 = 64 * 1024;
use std::collections::{BTreeMap, BTreeSet};

/// The integrity state of one storage page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageSum {
    /// Real bytes with their checksum (over the page clipped to the
    /// file size at the last write).
    Real(u64),
    /// Rot landed on synthetic bytes: the corruption is detectable but
    /// there is no durable copy to repair from. Any read overlapping the
    /// page is an integrity error until fresh data overwrites it.
    Poisoned,
}

/// What a verification pass found in one range: extents it repaired and
/// extents whose data is gone.
#[derive(Debug, Clone, Default)]
pub struct VerifyOutcome {
    /// Repaired extents `(offset, len)`, ascending, merged per page.
    pub repaired: Vec<(u64, u64)>,
    /// Unrepairable extents `(offset, len)`, ascending.
    pub unrepairable: Vec<(u64, u64)>,
}

/// Typed error for an unrepairable at-rest corruption — the alternative
/// to a silent wrong answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityError {
    /// Path of the damaged file.
    pub path: String,
    /// Unrepairable extents `(offset, len)`, ascending.
    pub extents: Vec<(u64, u64)>,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrepairable corruption in {}: {} extent(s), first at offset {}",
            self.path,
            self.extents.len(),
            self.extents.first().map(|e| e.0).unwrap_or(0)
        )
    }
}

impl std::error::Error for IntegrityError {}

/// Findings of one [`crate::FileSystem::scrub`] pass over every file.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Files walked (every file in the namespace, sorted by path).
    pub files_scanned: usize,
    /// Bytes verified against stored sums.
    pub bytes_scanned: u64,
    /// Repaired extents as `(path, offset, len)`, in scan order.
    pub repaired: Vec<(String, u64, u64)>,
    /// Unrepairable extents as `(path, offset, len)`, in scan order.
    pub unrepairable: Vec<(String, u64, u64)>,
}

impl ScrubReport {
    /// True when every stored byte verified clean (nothing repaired,
    /// nothing poisoned).
    pub fn is_clean(&self) -> bool {
        self.repaired.is_empty() && self.unrepairable.is_empty()
    }
}

/// Per-file integrity bookkeeping: page sums, pending rot rules, and the
/// durable-copy journal. Lives beside the file's `Storage` under the
/// same lock discipline (callers hold both).
#[derive(Debug, Default)]
pub struct IntegrityStore {
    /// Stored sum per page index (`offset / PAGE_SIZE`). Absent pages
    /// were never written (holes read as zeros) or overlap synthetic
    /// bytes (consistent by construction, nothing to hash): both verify
    /// trivially, so a synthetic run keeps no entries at all.
    sums: BTreeMap<u64, PageSum>,
    /// Rot rules (by plan rule index) already materialized on this file;
    /// each rule decays a file at most once.
    rot_done: BTreeSet<usize>,
    /// Materialized flips `(byte offset, xor mask)` not yet repaired —
    /// the model's redundant durable copy.
    journal: Vec<(u64, u8)>,
    /// Extents repaired over this file's lifetime.
    repaired: u64,
}

/// Page index range `[first, last]` overlapping `[offset, offset+len)`,
/// or `None` for an empty range.
fn page_span(offset: u64, len: u64) -> Option<(u64, u64)> {
    if len == 0 {
        return None;
    }
    Some((offset / PAGE_SIZE, (offset + len - 1) / PAGE_SIZE))
}

impl IntegrityStore {
    /// Fresh store for an empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extents repaired over this file's lifetime.
    pub fn repaired_extents(&self) -> u64 {
        self.repaired
    }

    /// Pages currently poisoned (detectable but unrepairable).
    pub fn poisoned_pages(&self) -> u64 {
        self.sums.values().filter(|s| **s == PageSum::Poisoned).count() as u64
    }

    /// The sum a page's current stored bytes hash to (pure observation,
    /// no stored-sum update), `None` when the page overlaps synthetic
    /// bytes. Always hashes the full page window, zero-filled past EOF,
    /// so a stored sum stays valid when *other* pages later grow the file.
    fn page_sum_of(storage: &Storage, page: u64) -> Option<u64> {
        storage.hash_range(page * PAGE_SIZE, PAGE_SIZE as usize)
    }

    /// [`page_sum_of`](Self::page_sum_of) every page of `pages`, two at
    /// a time (`Storage::hash_ranges`).
    fn page_sums(storage: &Storage, pages: &[u64]) -> Vec<Option<u64>> {
        let ranges: Vec<(u64, usize)> = pages
            .iter()
            .map(|&page| (page * PAGE_SIZE, PAGE_SIZE as usize))
            .collect();
        storage.hash_ranges(&ranges)
    }

    /// Record a write of `[offset, offset+len)`: recompute the stored
    /// sum of every touched page from the post-write bytes, and drop the
    /// entry of every touched page that now overlaps synthetic bytes.
    /// Fresh data — real or synthetic — heals poisoned pages. A synthetic
    /// write costs the entries it drops, not the pages it models.
    pub fn note_write(&mut self, storage: &Storage, offset: u64, len: u64) {
        let _hp = simtrace::host::scope(simtrace::host::Site::CksumCompute);
        let Some((first, last)) = page_span(offset, len) else {
            return;
        };
        // A real write clears the synthetic marking of the bytes it lands,
        // so a range marked whole was a synthetic write, and every page it
        // touches overlaps it. (A real request may leave synthetic holes:
        // its pages are hashed one by one, those holes' pages to `None`.)
        if storage
            .synthetic_ranges()
            .contains_range(offset, offset + len)
        {
            while let Some((&page, _)) = self.sums.range(first..=last).next() {
                self.sums.remove(&page);
            }
            return;
        }
        let pages: Vec<u64> = (first..=last).collect();
        for (page, sum) in pages.iter().zip(Self::page_sums(storage, &pages)) {
            match sum {
                Some(sum) => self.sums.insert(*page, PageSum::Real(sum)),
                None => self.sums.remove(page),
            };
        }
    }

    /// Materialize any pending rot rule whose extent overlaps
    /// `[offset, offset+len)`: apply the seeded flip to the stored bytes
    /// (stored sums untouched — that *is* the corruption) and journal
    /// it, or poison the page when the bytes are synthetic.
    fn materialize_rot(&mut self, storage: &mut Storage, plan: &FaultPlan, offset: u64, len: u64) {
        for (rule, roff, rlen) in plan.ost_rot_regions() {
            if self.rot_done.contains(&rule) {
                continue;
            }
            if roff >= offset + len || roff + rlen <= offset {
                continue;
            }
            self.rot_done.insert(rule);
            let (byte, xor) = plan.rot_flip(rule).expect("rot rule has a flip");
            if byte >= storage.size() {
                continue; // decayed a region never written — nothing to flip
            }
            let cur = storage.read(byte, 1);
            match cur.as_slice() {
                Some(bytes) => {
                    let flipped = [bytes[0] ^ xor];
                    storage.write(byte, &simnet::IoBuffer::from_slice(&flipped));
                    self.journal.push((byte, xor));
                }
                None => {
                    // Synthetic bytes: no platter image to flip, no
                    // durable copy to repair from.
                    self.sums.insert(byte / PAGE_SIZE, PageSum::Poisoned);
                }
            }
        }
    }

    /// Verify `[offset, offset+len)` against stored sums, materializing
    /// pending rot first and repairing what the journal covers. Clean
    /// data returns an empty outcome.
    pub fn verify_range(
        &mut self,
        storage: &mut Storage,
        plan: Option<&FaultPlan>,
        offset: u64,
        len: u64,
    ) -> VerifyOutcome {
        let _hp = simtrace::host::scope(simtrace::host::Site::CksumVerify);
        let mut out = VerifyOutcome::default();
        if let Some(plan) = plan {
            self.materialize_rot(storage, plan, offset, len);
        }
        let end = (offset + len).min(storage.size());
        if end <= offset {
            return out;
        }
        let Some((first, last)) = page_span(offset, end - offset) else {
            return out;
        };
        // Pages without an entry — holes and synthetic bytes — verify
        // trivially; only the entries in range are visited.
        let entries: Vec<(u64, PageSum)> = self
            .sums
            .range(first..=last)
            .map(|(&p, &s)| (p, s))
            .collect();
        let real: Vec<u64> = entries
            .iter()
            .filter(|e| e.1 != PageSum::Poisoned)
            .map(|e| e.0)
            .collect();
        let mut now = Self::page_sums(storage, &real).into_iter();
        for (page, stored) in entries {
            let ext_lo = (page * PAGE_SIZE).max(offset);
            let ext_hi = ((page + 1) * PAGE_SIZE).min(end);
            match stored {
                PageSum::Poisoned => out.unrepairable.push((ext_lo, ext_hi - ext_lo)),
                PageSum::Real(sum) => {
                    if now.next().expect("a sum per real page") == Some(sum) {
                        continue;
                    }
                    // Mismatch: invert every journaled flip on this page
                    // (the redundant-copy re-write) and re-verify.
                    let (plo, phi) = (page * PAGE_SIZE, (page + 1) * PAGE_SIZE);
                    let mut inverted = false;
                    self.journal.retain(|&(byte, xor)| {
                        if (plo..phi).contains(&byte) {
                            let cur = storage.read(byte, 1);
                            let b = cur.as_slice().expect("journaled bytes are real")[0];
                            storage.write(byte, &simnet::IoBuffer::from_slice(&[b ^ xor]));
                            inverted = true;
                            false
                        } else {
                            true
                        }
                    });
                    if inverted && Self::page_sum_of(storage, page) == Some(sum) {
                        self.repaired += 1;
                        out.repaired.push((ext_lo, ext_hi - ext_lo));
                    } else {
                        out.unrepairable.push((ext_lo, ext_hi - ext_lo));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::IoBuffer;

    fn store_with(data: &[u8]) -> (Storage, IntegrityStore) {
        let mut st = Storage::new();
        st.write(0, &IoBuffer::from_slice(data));
        let mut integ = IntegrityStore::new();
        integ.note_write(&st, 0, data.len() as u64);
        (st, integ)
    }

    #[test]
    fn clean_data_verifies_clean() {
        let (mut st, mut integ) = store_with(&[7u8; 1000]);
        let out = integ.verify_range(&mut st, None, 0, 1000);
        assert!(out.repaired.is_empty() && out.unrepairable.is_empty());
        assert_eq!(integ.repaired_extents(), 0);
    }

    #[test]
    fn rot_is_detected_and_repaired_from_journal() {
        let data: Vec<u8> = (0..2000u32).map(|i| i as u8).collect();
        let (mut st, mut integ) = store_with(&data);
        let plan = FaultPlan::new(3).ost_rot(100, 50);
        // First read materializes, detects and repairs in one pass.
        let out = integ.verify_range(&mut st, Some(&plan), 0, 2000);
        assert_eq!(out.repaired.len(), 1);
        assert!(out.unrepairable.is_empty());
        assert_eq!(integ.repaired_extents(), 1);
        // Post-repair bytes are the originals.
        assert_eq!(st.read(0, 2000).as_slice().unwrap(), &data[..]);
        // The rule fired once: a second pass is clean.
        let again = integ.verify_range(&mut st, Some(&plan), 0, 2000);
        assert!(again.repaired.is_empty() && again.unrepairable.is_empty());
    }

    #[test]
    fn rot_on_synthetic_data_is_unrepairable_until_overwritten() {
        let mut st = Storage::new();
        st.write(0, &IoBuffer::synthetic(4096));
        let mut integ = IntegrityStore::new();
        integ.note_write(&st, 0, 4096);
        let plan = FaultPlan::new(3).ost_rot(0, 4096);
        let out = integ.verify_range(&mut st, Some(&plan), 0, 4096);
        assert!(out.repaired.is_empty());
        assert_eq!(out.unrepairable.len(), 1);
        assert_eq!(integ.poisoned_pages(), 1);
        // Fresh data heals the page.
        st.write(0, &IoBuffer::from_slice(&[1u8; 4096]));
        integ.note_write(&st, 0, 4096);
        let healed = integ.verify_range(&mut st, Some(&plan), 0, 4096);
        assert!(healed.unrepairable.is_empty());
        assert_eq!(integ.poisoned_pages(), 0);
    }

    #[test]
    fn synthetic_writes_keep_no_entries() {
        let gib = 1u64 << 30;
        let (mut st, mut integ) = store_with(&[7u8; 1000]);
        assert_eq!(integ.sums.len(), 1);
        // A gibibyte of modeled bytes over the real page: nothing to
        // hash, no entry per page, and the real page's entry goes too.
        st.write(0, &IoBuffer::synthetic(gib as usize));
        integ.note_write(&st, 0, gib);
        assert!(integ.sums.is_empty());
        let out = integ.verify_range(&mut st, None, 0, gib);
        assert!(out.repaired.is_empty() && out.unrepairable.is_empty());
        // A real write next to synthetic bytes hashes only the pages
        // clear of them.
        st.write(gib, &IoBuffer::from_slice(&vec![1u8; 2 * PAGE_SIZE as usize]));
        integ.note_write(&st, gib, 2 * PAGE_SIZE);
        let pages = |integ: &IntegrityStore| integ.sums.keys().copied().collect::<Vec<_>>();
        assert_eq!(pages(&integ), [gib / PAGE_SIZE, gib / PAGE_SIZE + 1]);
        // Two modelled bytes across the boundary: the first real page
        // now overlaps them and keeps no sum.
        st.write(gib - 1, &IoBuffer::synthetic(2));
        integ.note_write(&st, gib - 1, 2);
        assert_eq!(pages(&integ), [gib / PAGE_SIZE + 1]);
    }

    #[test]
    fn rot_past_eof_is_a_no_op() {
        let (mut st, mut integ) = store_with(&[1u8; 100]);
        let plan = FaultPlan::new(3).ost_rot(50, 200);
        // Extent straddles EOF; the seeded byte may land past it.
        let out = integ.verify_range(&mut st, Some(&plan), 0, 100);
        assert!(out.unrepairable.is_empty());
    }

    #[test]
    fn out_of_range_rot_stays_pending() {
        let data = vec![5u8; 3 * PAGE_SIZE as usize];
        let (mut st, mut integ) = store_with(&data);
        let plan = FaultPlan::new(9).ost_rot(2 * PAGE_SIZE, 100);
        // Verifying the first page does not touch the rule...
        let out = integ.verify_range(&mut st, Some(&plan), 0, PAGE_SIZE);
        assert!(out.repaired.is_empty() && out.unrepairable.is_empty());
        // ...a later pass over its extent does.
        let out = integ.verify_range(&mut st, Some(&plan), 0, 3 * PAGE_SIZE);
        assert_eq!(out.repaired.len(), 1);
        assert!(out.repaired[0].0 >= 2 * PAGE_SIZE);
    }
}
