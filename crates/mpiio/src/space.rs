//! The file-space abstraction through which aggregators touch storage.
//!
//! The two-phase engine works in a *file coordinate space*: aggregators
//! own contiguous domains of it and issue large reads/writes against it.
//! For ordinary collective I/O that space **is** the physical file
//! ([`DirectSpace`]). ParColl's intermediate file views (paper §4.1,
//! pattern (c)) introduce a *logical* space in which each process's
//! scattered segments are virtually concatenated; its `MappedSpace` (in
//! the `parcoll` crate) implements this trait by translating logical runs
//! back to the physical runs of the original view at the moment of file
//! I/O — "data are read or written correctly using the same
//! representation via an intermediate file view to the original file
//! view".

use simfs::FileHandle;
use simnet::{IoBuffer, SimTime};

/// A (possibly virtual) byte space backed by a file.
pub trait FileSpace {
    /// One write request for `[offset, offset + len)` of the space,
    /// starting at virtual time `now`; returns the completion instant.
    /// Each `(at, bytes)` of `pieces` lands at `offset + at`, in order, a
    /// later piece winning an overlap; bytes of the span no piece covers
    /// keep the file's, piece bytes past the span are not written, and a
    /// synthetic piece makes the span synthetic
    /// ([`FileHandle::write_pieces`]).
    fn write(
        &self,
        fh: &FileHandle,
        offset: u64,
        len: u64,
        pieces: &[(u64, IoBuffer)],
        now: SimTime,
    ) -> SimTime;

    /// Read `len` bytes at `offset` of the space, as the views that hold
    /// them, in order ([`FileHandle::read_parts`]).
    fn read(
        &self,
        fh: &FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> (Vec<IoBuffer>, SimTime);

    /// Read a batch of discontiguous runs of the space — a collective
    /// read window whose gaps are too wide to read through (DESIGN.md
    /// §15) — as the parts of every run, appended in order: each run's
    /// add up to its length. The default issues the runs back-to-back;
    /// spaces backed directly by the file override this with the file
    /// system's vectored request, which shares one RPC round-trip and one
    /// queue admission per OST across the whole list.
    fn read_list(
        &self,
        fh: &FileHandle,
        runs: &[(u64, u64)],
        now: SimTime,
    ) -> (Vec<IoBuffer>, SimTime) {
        let mut parts = Vec::with_capacity(runs.len());
        let mut now = now;
        for &(off, len) in runs {
            let (run, done) = self.read(fh, off, len, now);
            parts.extend(run);
            now = done;
        }
        (parts, now)
    }
}

/// The identity space: offsets are physical file offsets.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectSpace;

impl FileSpace for DirectSpace {
    fn write(
        &self,
        fh: &FileHandle,
        offset: u64,
        len: u64,
        pieces: &[(u64, IoBuffer)],
        now: SimTime,
    ) -> SimTime {
        fh.write_pieces(offset, len, pieces, now)
    }

    fn read(
        &self,
        fh: &FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> (Vec<IoBuffer>, SimTime) {
        fh.read_parts(offset, len as usize, now)
    }

    fn read_list(
        &self,
        fh: &FileHandle,
        runs: &[(u64, u64)],
        now: SimTime,
    ) -> (Vec<IoBuffer>, SimTime) {
        fh.read_list_parts(runs, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::{FileSystem, FsConfig};

    #[test]
    fn direct_space_is_identity() {
        let fs = FileSystem::new(FsConfig::tiny());
        let (fh, t) = fs.open("/d", SimTime::ZERO);
        let space = DirectSpace;
        let t1 = space.write(&fh, 10, 3, &[(0, IoBuffer::from_slice(&[1, 2, 3]))], t);
        let (data, _t2) = space.read(&fh, 10, 3, t1);
        assert_eq!(data, [IoBuffer::from_slice(&[1, 2, 3])]);
        // And it really landed at physical offset 10.
        let (raw, _) = fh.read_at(10, 3, t1);
        assert_eq!(raw.as_slice().unwrap(), &[1, 2, 3]);
    }
}
