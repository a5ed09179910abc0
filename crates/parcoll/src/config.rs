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
    /// View switching (`parcoll_force_iview`, on unless the hint is
    /// `false`): a pattern whose file areas intersect runs through the
    /// intermediate view; with switching off it falls back to one group.
    pub view_switching: bool,
    /// Ablation switch (`parcoll_iview_scatter`): materialize intermediate
    /// -view data at the *original* physical offsets (scattering each
    /// aggregator window through the view) instead of storing the file in
    /// logical order. Preserves on-disk interoperability at a devastating
    /// cost in tiny requests — the benchmark that shows why the paper's
    /// view switching stores data logically.
    pub iview_scatter: bool,
}

impl Default for ParcollConfig {
    fn default() -> Self {
        ParcollConfig {
            groups: None,
            min_group_size: 8,
            view_switching: true,
            iview_scatter: false,
        }
    }
}

impl ParcollConfig {
    /// Parse from hints; unknown keys are ignored.
    pub fn from_info(info: &Info) -> Self {
        ParcollConfig {
            groups: info.get_usize("parcoll_groups"),
            min_group_size: info.get_usize("parcoll_min_group").unwrap_or(8).max(1),
            view_switching: info.get_bool("parcoll_force_iview").unwrap_or(true),
            iview_scatter: info.get_bool("parcoll_iview_scatter").unwrap_or(false),
        }
    }

    /// The subgroup count to use for `nprocs` processes.
    ///
    /// An explicit request is honored up to the minimum-group-size
    /// constraint; otherwise the default is one group per
    /// `min_group_size` processes, at most 64. With the default minimum
    /// of 8 that is the count Figure 9 runs, and at 512 processes it sits
    /// on Figure 7's plateau (8 to 64 groups, within 1 % of each other).
    pub fn effective_groups(&self, nprocs: usize) -> usize {
        let cap = (nprocs / self.min_group_size).max(1);
        match self.groups {
            Some(g) => g.clamp(1, cap.min(nprocs)),
            None => cap.min(64),
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
        assert!(c.view_switching);
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
        assert!(!c.view_switching);
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
        assert_eq!(c.effective_groups(64), 8);
        assert_eq!(c.effective_groups(512), 64);
        assert_eq!(c.effective_groups(1024), 64);
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
    fn forcing_the_view_on_is_the_default() {
        let on = Info::new().with("parcoll_force_iview", "true");
        assert_eq!(ParcollConfig::from_info(&on), ParcollConfig::default());
    }

    #[test]
    fn zero_min_group_sanitized() {
        let c = ParcollConfig::from_info(&Info::new().with("parcoll_min_group", 0));
        assert_eq!(c.min_group_size, 1);
    }
}
