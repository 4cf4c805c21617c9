//! Classical edge (taken/not-taken) profiling.
//!
//! This is the baseline profiling mode the paper compares against: it records
//! only *aggregate* per-branch bias over the whole run, i.e. the
//! one-dimensional profile that 2D-profiling extends with a time axis.

use crate::{SiteId, Tracer};

/// Taken/not-taken counts for one static branch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeCount {
    /// Dynamic executions that resolved taken.
    pub taken: u64,
    /// Dynamic executions that resolved not-taken.
    pub not_taken: u64,
}

impl EdgeCount {
    /// Total dynamic executions of the branch.
    pub fn total(&self) -> u64 {
        self.taken + self.not_taken
    }

    /// Taken rate in `[0, 1]`, or `None` if the branch never executed.
    pub fn taken_rate(&self) -> Option<f64> {
        let total = self.total();
        (total > 0).then(|| self.taken as f64 / total as f64)
    }

    /// Bias of the branch: the frequency of its *majority* direction, in
    /// `[0.5, 1]`. `None` if the branch never executed.
    ///
    /// A perfectly biased branch (always taken or never taken) has bias 1.
    pub fn bias(&self) -> Option<f64> {
        self.taken_rate().map(|r| r.max(1.0 - r))
    }

    /// The direction a static profile-guided predictor would choose for this
    /// branch (ties predict taken). `None` if the branch never executed.
    pub fn majority_direction(&self) -> Option<bool> {
        (self.total() > 0).then_some(self.taken >= self.not_taken)
    }
}

/// Aggregate edge profiler over all static branches of one workload.
///
/// Stands in for the paper's *Edge* instrumentation configuration (Figure 16)
/// and supplies the bias data used by the edge-profiling variant of
/// 2D-profiling.
#[derive(Clone, Debug)]
pub struct EdgeProfiler {
    counts: Vec<EdgeCount>,
    events: u64,
}

impl EdgeProfiler {
    /// Creates an edge profiler for a workload with `num_sites` static
    /// branches.
    pub fn new(num_sites: usize) -> Self {
        Self {
            counts: vec![EdgeCount::default(); num_sites],
            events: 0,
        }
    }

    /// Number of static branch sites this profiler tracks.
    pub fn num_sites(&self) -> usize {
        self.counts.len()
    }

    /// The taken/not-taken counts for `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range for this profiler.
    pub fn edge(&self, site: SiteId) -> EdgeCount {
        self.counts[site.index()]
    }

    /// Iterates over `(site, counts)` for every site, including never-executed
    /// ones.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, EdgeCount)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (SiteId(i as u32), c))
    }

    /// Fraction of all dynamic branches that were taken, or `None` before any
    /// event.
    pub fn overall_taken_rate(&self) -> Option<f64> {
        let taken: u64 = self.counts.iter().map(|c| c.taken).sum();
        (self.events > 0).then(|| taken as f64 / self.events as f64)
    }
}

impl Tracer for EdgeProfiler {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        let c = &mut self.counts[site.index()];
        if taken {
            c.taken += 1;
        } else {
            c.not_taken += 1;
        }
        self.events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_rates() {
        let mut p = EdgeProfiler::new(2);
        for i in 0..10 {
            p.branch(SiteId(0), i < 7);
        }
        p.branch(SiteId(1), false);
        let e0 = p.edge(SiteId(0));
        assert_eq!(e0.taken, 7);
        assert_eq!(e0.not_taken, 3);
        assert_eq!(e0.total(), 10);
        assert!((e0.taken_rate().unwrap() - 0.7).abs() < 1e-12);
        assert!((e0.bias().unwrap() - 0.7).abs() < 1e-12);
        assert_eq!(e0.majority_direction(), Some(true));
        assert_eq!(p.edge(SiteId(1)).majority_direction(), Some(false));
        assert!((p.overall_taken_rate().unwrap() - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn unexecuted_branch_has_no_rate() {
        let p = EdgeProfiler::new(1);
        let e = p.edge(SiteId(0));
        assert_eq!(e.total(), 0);
        assert_eq!(e.taken_rate(), None);
        assert_eq!(e.bias(), None);
        assert_eq!(e.majority_direction(), None);
        assert_eq!(p.overall_taken_rate(), None);
    }

    #[test]
    fn bias_is_majority_frequency() {
        let mostly_not_taken = EdgeCount {
            taken: 1,
            not_taken: 9,
        };
        assert!((mostly_not_taken.bias().unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(mostly_not_taken.majority_direction(), Some(false));
    }

    #[test]
    fn tie_predicts_taken() {
        let tie = EdgeCount {
            taken: 5,
            not_taken: 5,
        };
        assert_eq!(tie.majority_direction(), Some(true));
        assert!((tie.bias().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn iter_covers_all_sites() {
        let mut p = EdgeProfiler::new(3);
        p.branch(SiteId(2), true);
        let v: Vec<_> = p.iter().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v[2].1.taken, 1);
        assert_eq!(v[0].1.total(), 0);
    }
}
