//! Datasets and hyperslab selections.

use crate::meta::DatasetInfo;
use mpiio::Datatype;
use parcoll::ParcollFile;
use simnet::IoBuffer;

/// A handle to one dataset of an [`crate::H5File`].
///
/// Slab I/O methods take the container's raw [`ParcollFile`] so multiple
/// dataset handles can coexist; the selection is translated into an
/// MPI-IO subarray view positioned at the dataset's payload, which is
/// exactly how parallel HDF5 drives MPI-IO collective transfers.
#[derive(Debug, Clone)]
pub struct Dataset {
    info: DatasetInfo,
}

impl Dataset {
    pub(crate) fn new(info: DatasetInfo) -> Self {
        Dataset { info }
    }

    /// The descriptor.
    pub fn info(&self) -> &DatasetInfo {
        &self.info
    }

    fn slab_type(&self, start: &[u64], count: &[u64]) -> (Datatype, u64) {
        assert_eq!(start.len(), self.info.dims.len(), "rank mismatch");
        assert_eq!(count.len(), self.info.dims.len(), "rank mismatch");
        for (d, (&s, &c)) in start.iter().zip(count).enumerate() {
            assert!(
                s + c <= self.info.dims[d],
                "slab [{s}, {s}+{c}) exceeds dim {d} of {}",
                self.info.dims[d]
            );
        }
        let ft = Datatype::Subarray {
            sizes: self.info.dims.iter().map(|&d| d as usize).collect(),
            subsizes: count.iter().map(|&c| c as usize).collect(),
            starts: start.iter().map(|&s| s as usize).collect(),
            elem: self.info.elem_size,
        };
        let bytes = count.iter().product::<u64>() * self.info.elem_size;
        (ft, bytes)
    }

    /// Collectively write a hyperslab; `data` holds `count` elements in
    /// row-major order. All ranks of the container's communicator must
    /// participate (ranks with nothing to write pass an empty slab of
    /// zero count in one dimension — or simply matching empty data).
    pub fn write_slab_all(
        &self,
        file: &mut ParcollFile<'_>,
        start: &[u64],
        count: &[u64],
        data: &IoBuffer,
    ) {
        let (ft, bytes) = self.slab_type(start, count);
        assert_eq!(data.len() as u64, bytes, "data/slab size mismatch");
        file.set_view(self.info.data_offset, &ft);
        file.write_at_all(0, data);
    }

    /// Collectively read a hyperslab.
    pub fn read_slab_all(
        &self,
        file: &mut ParcollFile<'_>,
        start: &[u64],
        count: &[u64],
    ) -> IoBuffer {
        let (ft, bytes) = self.slab_type(start, count);
        file.set_view(self.info.data_offset, &ft);
        file.read_at_all(0, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::DATA_REGION_START;

    fn ds(dims: &[u64], elem: u64) -> Dataset {
        Dataset::new(DatasetInfo {
            name: "t".into(),
            elem_size: elem,
            dims: dims.to_vec(),
            data_offset: DATA_REGION_START,
        })
    }

    #[test]
    fn slab_type_is_a_subarray_at_the_payload() {
        let d = ds(&[4, 6], 2);
        let (ft, bytes) = d.slab_type(&[1, 2], &[2, 3]);
        assert_eq!(bytes, 12);
        let flat = ft.flatten();
        assert_eq!(flat.size, 12);
        assert_eq!(flat.extent, 4 * 6 * 2);
    }

    #[test]
    #[should_panic(expected = "exceeds dim")]
    fn out_of_bounds_slab_rejected() {
        ds(&[4, 6], 2).slab_type(&[3, 0], &[2, 6]);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn wrong_rank_rejected() {
        ds(&[4, 6], 2).slab_type(&[0], &[1]);
    }
}
