//! Collective-buffering hints.

use simmpi::Info;

/// Parsed MPI-IO hints relevant to this layer. Unknown keys are ignored
/// (MPI semantics); higher layers parse their own keys from the same
/// [`Info`] (the `parcoll` crate its `parcoll_*` keys — `parcoll_groups`,
/// `parcoll_min_group`, … — see `parcoll::ParcollConfig`), so no rank
/// keeps a copy of the dictionary. No hint shapes a read: collective and
/// independent reads alike read through holes up to the file's
/// break-even gap (`simfs::FileHandle::list_break_even_gap`).
#[derive(Debug, Clone)]
pub struct Hints {
    /// Number of I/O aggregators (`cb_nodes`). Defaults to one per
    /// physical node, the ROMIO default on Cray XT.
    pub cb_nodes: Option<usize>,
    /// Collective buffer size per aggregator per round
    /// (`cb_buffer_size`); ROMIO stages large exchanges through a buffer
    /// of this size, which sets the round count. 0 counts as unset.
    pub cb_buffer_size: u64,
    /// Explicit aggregator list (`cb_config_list` as ranks), paper §4.2
    /// hint (b): "a list of physical nodes to use as I/O aggregators".
    pub cb_aggregator_list: Option<Vec<usize>>,
    /// End-to-end piece checksums in the collective exchange
    /// (`integrity_checksums`): pieces carry checksum trailers, corrupted
    /// transfers are detected and re-requested. Off by default — the
    /// off path is bitwise identical to a build without the feature.
    pub integrity: bool,
    /// Align collective file domains to this boundary (`striping_unit`):
    /// the Lustre-aware refinement Cray later shipped — aligned domains
    /// keep each stripe's writes on a single aggregator, avoiding
    /// extent-lock ping-pong at domain seams. `None` = even split.
    pub cb_align: Option<u64>,
}

impl Default for Hints {
    fn default() -> Self {
        Hints::from_info(&Info::new())
    }
}

impl Hints {
    /// Parse from an [`Info`] dictionary.
    pub fn from_info(info: &Info) -> Self {
        Hints {
            cb_nodes: info.get_usize("cb_nodes"),
            cb_buffer_size: info
                .get_usize("cb_buffer_size")
                .filter(|&v| v > 0)
                .map(|v| v as u64)
                .unwrap_or(4 << 20),
            cb_aggregator_list: info.get_usize_list("cb_config_list"),
            integrity: info.get_bool("integrity_checksums").unwrap_or(false),
            cb_align: info.get_usize("striping_unit").map(|v| v as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_cray_romio() {
        let h = Hints::default();
        assert_eq!(h.cb_nodes, None);
        assert_eq!(h.cb_buffer_size, 4 << 20);
        assert_eq!(h.cb_align, None);
        assert!(h.cb_aggregator_list.is_none());
        assert!(!h.integrity);
    }

    #[test]
    fn parses_all_keys() {
        let info = Info::new()
            .with("cb_nodes", 16)
            .with("cb_buffer_size", 1 << 20)
            .with("cb_config_list", "0,2,4")
            .with("integrity_checksums", "enable")
            .with("striping_unit", 4 << 20);
        let h = Hints::from_info(&info);
        assert_eq!(h.cb_nodes, Some(16));
        assert_eq!(h.cb_buffer_size, 1 << 20);
        assert_eq!(h.cb_aggregator_list, Some(vec![0, 2, 4]));
        assert!(h.integrity);
        assert_eq!(h.cb_align, Some(4 << 20));
    }

    #[test]
    fn malformed_values_fall_back() {
        let info = Info::new().with("cb_buffer_size", "huge");
        assert_eq!(Hints::from_info(&info).cb_buffer_size, 4 << 20);
    }

    #[test]
    fn zero_buffer_size_falls_back() {
        let info = Info::new().with("cb_buffer_size", 0);
        assert_eq!(Hints::from_info(&info).cb_buffer_size, 4 << 20);
    }
}
