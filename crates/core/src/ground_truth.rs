//! Ground-truth input-dependence from multiple input sets.
//!
//! The paper *defines* a branch as input-dependent when its prediction
//! accuracy (under the target machine's predictor) changes by more than 5%
//! absolute between input sets (§2). With more than two input sets, a branch
//! is input-dependent if *any* extra input set shifts its accuracy by more
//! than the threshold relative to the `train` set, and the paper studies the
//! union of these sets (§4.2, Figure 11).

use crate::INPUT_DEPENDENCE_DELTA;
use bpred::AccuracyProfile;
use btrace::SiteId;

/// Ground-truth label of one static branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputDependence {
    /// Accuracy delta exceeded the threshold for at least one input-set pair.
    Dependent,
    /// Observed in at least one pair with all deltas within the threshold.
    Independent,
    /// Never executed enough times in both runs of any pair to be compared.
    Unobserved,
}

/// Ground-truth input-dependence labels for every static branch of a
/// workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroundTruth {
    labels: Vec<InputDependence>,
}

impl GroundTruth {
    /// Builds ground truth from a `train` profile and one comparison profile
    /// (the paper's base definition with two input sets).
    ///
    /// A branch is *observed* if it executed at least `min_exec` times in
    /// **both** runs; an observed branch is *dependent* if its accuracy
    /// differs by more than `delta` (absolute).
    ///
    /// # Panics
    ///
    /// Panics if the two profiles cover different numbers of sites, if
    /// `delta` is not in `(0, 1)`, or if `min_exec` is zero.
    pub fn from_pair(
        train: &AccuracyProfile,
        other: &AccuracyProfile,
        delta: f64,
        min_exec: u64,
    ) -> Self {
        assert_eq!(
            train.num_sites(),
            other.num_sites(),
            "profiles must cover the same site table"
        );
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        assert!(min_exec > 0, "min_exec must be positive");
        let labels = (0..train.num_sites())
            .map(|i| {
                let site = SiteId(i as u32);
                if train.executions(site) < min_exec || other.executions(site) < min_exec {
                    return InputDependence::Unobserved;
                }
                let a = train.accuracy(site).expect("executed branch has accuracy");
                let b = other.accuracy(site).expect("executed branch has accuracy");
                // tiny epsilon keeps an exactly-at-threshold delta (e.g. a
                // 0.90 vs 0.85 accuracy pair) on the independent side despite
                // floating-point representation error
                if (a - b).abs() > delta + 1e-12 {
                    InputDependence::Dependent
                } else {
                    InputDependence::Independent
                }
            })
            .collect();
        Self { labels }
    }

    /// Builds ground truth with the paper's 5% threshold.
    pub fn from_pair_paper(
        train: &AccuracyProfile,
        other: &AccuracyProfile,
        min_exec: u64,
    ) -> Self {
        Self::from_pair(train, other, INPUT_DEPENDENCE_DELTA, min_exec)
    }

    /// Unions two ground truths over the same site table: a branch is
    /// dependent if dependent in either, else independent if observed in
    /// either, else unobserved. This is how the paper grows the target set
    /// as more input sets are considered (Figure 11's `base-ext1-k`).
    ///
    /// # Panics
    ///
    /// Panics if the two ground truths cover different numbers of sites.
    pub fn union(&self, other: &GroundTruth) -> GroundTruth {
        assert_eq!(
            self.labels.len(),
            other.labels.len(),
            "ground truths must cover the same site table"
        );
        let labels = self
            .labels
            .iter()
            .zip(&other.labels)
            .map(|(&a, &b)| match (a, b) {
                (InputDependence::Dependent, _) | (_, InputDependence::Dependent) => {
                    InputDependence::Dependent
                }
                (InputDependence::Independent, _) | (_, InputDependence::Independent) => {
                    InputDependence::Independent
                }
                _ => InputDependence::Unobserved,
            })
            .collect();
        GroundTruth { labels }
    }

    /// Label of one branch.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn label(&self, site: SiteId) -> InputDependence {
        self.labels[site.index()]
    }

    /// Whether `site` is input-dependent.
    pub fn is_dependent(&self, site: SiteId) -> bool {
        self.label(site) == InputDependence::Dependent
    }

    /// Number of sites in the table.
    pub fn num_sites(&self) -> usize {
        self.labels.len()
    }

    /// Number of input-dependent branches.
    pub fn dependent_count(&self) -> usize {
        self.labels
            .iter()
            .filter(|&&l| l == InputDependence::Dependent)
            .count()
    }

    /// Number of observed (comparable) branches.
    pub fn observed_count(&self) -> usize {
        self.labels
            .iter()
            .filter(|&&l| l != InputDependence::Unobserved)
            .count()
    }

    /// Static fraction of input-dependent branches among observed branches
    /// (the paper's Figure 3, "static fraction"). `None` if nothing was
    /// observed.
    pub fn static_fraction(&self) -> Option<f64> {
        let obs = self.observed_count();
        (obs > 0).then(|| self.dependent_count() as f64 / obs as f64)
    }

    /// Dynamic fraction of input-dependent branches: executions of dependent
    /// branches over all executions, weighted by `profile` (the paper uses
    /// the reference input set's execution counts). `None` for an empty
    /// profile.
    ///
    /// # Panics
    ///
    /// Panics if `profile` covers a different number of sites.
    pub fn dynamic_fraction(&self, profile: &AccuracyProfile) -> Option<f64> {
        assert_eq!(profile.num_sites(), self.num_sites());
        let total = profile.total_executions();
        (total > 0).then(|| {
            let dep: u64 = (0..self.num_sites())
                .filter(|&i| self.labels[i] == InputDependence::Dependent)
                .map(|i| profile.executions(SiteId(i as u32)))
                .sum();
            dep as f64 / total as f64
        })
    }

    /// Iterates over `(site, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, InputDependence)> + '_ {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (SiteId(i as u32), l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred::{PredictorSim, StaticTaken};
    use btrace::Tracer;

    /// Makes an AccuracyProfile where each site i has `spec[i] = (exec,
    /// taken_per_100)` under a StaticTaken predictor, so accuracy ==
    /// taken rate.
    fn profile(spec: &[(u64, u64)]) -> AccuracyProfile {
        let mut sim = PredictorSim::new(spec.len(), StaticTaken);
        for (i, &(exec, taken_pct)) in spec.iter().enumerate() {
            for k in 0..exec {
                sim.branch(SiteId(i as u32), k % 100 < taken_pct);
            }
        }
        sim.into_profile()
    }

    #[test]
    fn pair_labels_by_delta() {
        let train = profile(&[(1000, 90), (1000, 90), (1000, 90), (0, 0)]);
        let other = profile(&[(1000, 80), (1000, 94), (5, 0), (1000, 50)]);
        let gt = GroundTruth::from_pair_paper(&train, &other, 100);
        assert_eq!(gt.label(SiteId(0)), InputDependence::Dependent); // |90-80| > 5
        assert_eq!(gt.label(SiteId(1)), InputDependence::Independent); // |90-94| < 5
        assert_eq!(gt.label(SiteId(2)), InputDependence::Unobserved); // too few in other
        assert_eq!(gt.label(SiteId(3)), InputDependence::Unobserved); // absent in train
        assert_eq!(gt.dependent_count(), 1);
        assert_eq!(gt.observed_count(), 2);
        assert!((gt.static_fraction().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exactly_at_threshold_is_independent() {
        // The rule is "> 5%", strictly.
        let train = profile(&[(1000, 90)]);
        let other = profile(&[(1000, 85)]);
        let gt = GroundTruth::from_pair_paper(&train, &other, 100);
        assert_eq!(gt.label(SiteId(0)), InputDependence::Independent);
    }

    #[test]
    fn union_grows_monotonically() {
        let train = profile(&[(1000, 90), (1000, 90)]);
        let ext1 = profile(&[(1000, 88), (1000, 88)]); // nothing dependent
        let ext2 = profile(&[(1000, 60), (1000, 92)]); // site 0 dependent
        let g1 = GroundTruth::from_pair_paper(&train, &ext1, 100);
        let g2 = GroundTruth::from_pair_paper(&train, &ext2, 100);
        assert_eq!(g1.dependent_count(), 0);
        let u = g1.union(&g2);
        assert_eq!(u.dependent_count(), 1);
        assert!(u.is_dependent(SiteId(0)));
        // union never removes dependence
        let u2 = u.union(&g1);
        assert_eq!(u2.dependent_count(), 1);
    }

    #[test]
    fn union_of_unobserved_and_observed() {
        let train = profile(&[(1000, 90), (0, 0)]);
        let a = profile(&[(1000, 90), (0, 0)]);
        let b = profile(&[(1000, 90), (0, 0)]);
        let g = GroundTruth::from_pair_paper(&train, &a, 100)
            .union(&GroundTruth::from_pair_paper(&train, &b, 100));
        assert_eq!(g.label(SiteId(1)), InputDependence::Unobserved);
    }

    #[test]
    fn dynamic_fraction_weights_by_executions() {
        let train = profile(&[(100, 90), (100, 90)]);
        let other = profile(&[(900, 50), (100, 90)]); // site 0 dependent
        let gt = GroundTruth::from_pair_paper(&train, &other, 50);
        // weighted by `other` (the "ref" run): 900 of 1000 events
        assert!((gt.dynamic_fraction(&other).unwrap() - 0.9).abs() < 1e-12);
        // weighted by train: 100 of 200
        assert!((gt.dynamic_fraction(&train).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1)")]
    fn rejects_bad_delta() {
        let p = profile(&[(10, 50)]);
        let _ = GroundTruth::from_pair(&p, &p, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "same site table")]
    fn rejects_mismatched_profiles() {
        let a = profile(&[(10, 50)]);
        let b = profile(&[(10, 50), (10, 50)]);
        let _ = GroundTruth::from_pair_paper(&a, &b, 1);
    }
}
