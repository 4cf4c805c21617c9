//! The three input-dependence tests and their thresholds (Figure 9c).

use crate::Classification;

/// How the MEAN-test threshold is chosen.
///
/// The paper sets `MEAN_th` to the program's overall branch prediction
/// accuracy, "determined at the end of the profiling run for each benchmark"
/// (§4.1) — i.e. the threshold adapts per program. A fixed value is also
/// supported for sensitivity studies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MeanThreshold {
    /// Use the profiling run's overall prediction accuracy (the paper's
    /// choice).
    ProgramAccuracy,
    /// Use a fixed accuracy in `[0, 1]`.
    Fixed(f64),
}

/// Threshold set for the MEAN/STD/PAM tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    /// MEAN-test threshold: a branch passes if its mean slice accuracy is
    /// *below* this.
    pub mean: MeanThreshold,
    /// STD-test threshold: a branch passes if the standard deviation of its
    /// slice accuracies *exceeds* this. The paper uses 4 (percentage
    /// points), i.e. 0.04 in fraction units.
    pub std: f64,
    /// PAM-test threshold: a branch passes if its fraction of
    /// points-above-mean lies within `[pam, 1 − pam]`. Two-tailed outlier
    /// filter; default 0.05.
    pub pam: f64,
}

impl Thresholds {
    /// The paper's thresholds: `MEAN_th` = program accuracy, `STD_th` = 0.04,
    /// `PAM_th` = 0.05.
    pub fn paper() -> Self {
        Self {
            mean: MeanThreshold::ProgramAccuracy,
            std: 0.04,
            pam: 0.05,
        }
    }

    /// Resolves the MEAN threshold against the profiling run's measured
    /// overall accuracy.
    pub fn resolve_mean(&self, program_accuracy: f64) -> f64 {
        match self.mean {
            MeanThreshold::ProgramAccuracy => program_accuracy,
            MeanThreshold::Fixed(v) => v,
        }
    }

    /// Classifies one branch from its slice statistics: the mean and
    /// standard deviation of its (filtered) slice accuracies, its
    /// points-above-mean fraction, and the program accuracy the MEAN
    /// threshold resolves against (`None` for an empty run).
    ///
    /// This is Figure 9c, and the only place the three tests compare a
    /// statistic against a threshold. Every verdict goes through it: the
    /// end-of-run report (accuracy and bias alike), a report reclassified
    /// under other thresholds, and the streaming profiler's windowed
    /// verdicts. A branch without statistics (no counted slice) has no
    /// outcomes and is [`Classification::Insufficient`].
    pub fn classify(
        &self,
        mean: Option<f64>,
        std_dev: Option<f64>,
        pam_fraction: Option<f64>,
        program_accuracy: Option<f64>,
    ) -> (Option<TestOutcomes>, Classification) {
        let (Some(mean), Some(std_dev), Some(pam)) = (mean, std_dev, pam_fraction) else {
            return (None, Classification::Insufficient);
        };
        // a branch has statistics only if the run had events, so the
        // stand-in for a missing program accuracy is never consulted
        let outcomes = TestOutcomes {
            mean: mean < self.resolve_mean(program_accuracy.unwrap_or(1.0)),
            std: std_dev > self.std,
            pam: pam >= self.pam && pam <= 1.0 - self.pam,
        };
        let classification = if outcomes.predicts_dependent() {
            Classification::Dependent
        } else {
            Classification::Independent
        };
        (Some(outcomes), classification)
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Self::paper()
    }
}

/// Outcome of the three tests for one branch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TestOutcomes {
    /// MEAN-test: mean slice accuracy below `MEAN_th`.
    pub mean: bool,
    /// STD-test: slice-accuracy standard deviation above `STD_th`.
    pub std: bool,
    /// PAM-test: points-above-mean fraction inside the two-tailed window.
    pub pam: bool,
}

impl TestOutcomes {
    /// The paper's combination rule (Figure 9c lines 26–28): a branch is
    /// predicted input-dependent iff it passes the PAM-test *and* at least
    /// one of the MEAN-test and STD-test.
    pub fn predicts_dependent(&self) -> bool {
        (self.mean || self.std) && self.pam
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Measured;
    use crate::{BranchState, ProfileReport};
    use btrace::SiteId;

    /// The three outcomes of a branch's whole-run statistics.
    fn evaluate(
        state: &BranchState,
        thresholds: &Thresholds,
        program_accuracy: f64,
    ) -> Option<TestOutcomes> {
        let (mean, std, pam) = (state.mean(), state.std_dev(), state.points_above_mean());
        thresholds
            .classify(mean, std, pam, Some(program_accuracy))
            .0
    }

    fn state_with_slices(accs: &[(u64, u64)]) -> BranchState {
        // (correct, wrong) per slice, threshold 10
        let mut s = BranchState::new();
        for &(c, w) in accs {
            for _ in 0..c {
                s.record(true);
            }
            for _ in 0..w {
                s.record(false);
            }
            s.end_slice(10);
        }
        s
    }

    #[test]
    fn paper_default_thresholds() {
        let t = Thresholds::default();
        assert_eq!(t.mean, MeanThreshold::ProgramAccuracy);
        assert!((t.std - 0.04).abs() < 1e-12);
        assert!((t.pam - 0.05).abs() < 1e-12);
        assert!((t.resolve_mean(0.93) - 0.93).abs() < 1e-12);
        let f = Thresholds {
            mean: MeanThreshold::Fixed(0.8),
            ..t
        };
        assert!((f.resolve_mean(0.93) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn combination_rule() {
        let cases = [
            // (mean, std, pam) -> dependent?
            ((false, false, false), false),
            ((true, false, false), false), // fails PAM
            ((false, true, false), false),
            ((false, false, true), false), // PAM alone is not enough
            ((true, false, true), true),
            ((false, true, true), true),
            ((true, true, true), true),
        ];
        for ((m, s, p), expect) in cases {
            let o = TestOutcomes {
                mean: m,
                std: s,
                pam: p,
            };
            assert_eq!(o.predicts_dependent(), expect, "case {:?}", (m, s, p));
        }
    }

    #[test]
    fn phased_branch_passes_std_and_pam() {
        // Half the slices near 55%, half near 95%, with per-slice jitter as
        // real predictor accuracies always have: large std, PAM near 0.5.
        let slices: Vec<(u64, u64)> = (0..40u64)
            .map(|i| {
                let base = if i < 20 { 55 } else { 95 };
                let jitter = (i * 7) % 5; // 0..4 extra correct predictions
                let c = base + jitter;
                (c, 100 - c)
            })
            .collect();
        let s = state_with_slices(&slices);
        let o = evaluate(&s, &Thresholds::default(), 0.95).unwrap();
        assert!(o.std, "std {:?} should exceed 0.04", s.std_dev());
        assert!(
            o.pam,
            "PAM fraction {:?} should be mid-range",
            s.points_above_mean()
        );
        assert!(o.predicts_dependent());
    }

    #[test]
    fn stable_low_accuracy_branch_fails_pam() {
        // The paper's Figure 8 (right): accuracy ~58% but perfectly stable.
        // MEAN passes (58% < program accuracy 95%) but PAM fails because no
        // slice deviates from the mean.
        let slices: Vec<(u64, u64)> = (0..40).map(|_| (58, 42)).collect();
        let s = state_with_slices(&slices);
        let o = evaluate(&s, &Thresholds::default(), 0.95).unwrap();
        assert!(o.mean);
        assert!(!o.std);
        assert!(!o.pam, "constant series has zero points above mean");
        assert!(!o.predicts_dependent());
    }

    #[test]
    fn outlier_only_variation_fails_pam() {
        // One trailing outlier slice out of 40: STD passes, but no slice ever
        // rises above the running mean (the stable ones equal it, the outlier
        // is below it), so the PAM fraction is 0 and the two-tailed filter
        // rejects the branch — exactly the outlier case PAM exists for.
        let mut slices: Vec<(u64, u64)> = (0..39).map(|_| (95, 5)).collect();
        slices.push((20, 80));
        let s = state_with_slices(&slices);
        let o = evaluate(&s, &Thresholds::default(), 0.93).unwrap();
        assert!(o.std, "the outlier inflates std: {:?}", s.std_dev());
        assert_eq!(s.points_above_mean(), Some(0.0));
        assert!(!o.pam);
        assert!(!o.predicts_dependent());
    }

    #[test]
    fn no_slices_yields_none() {
        let s = BranchState::new();
        assert_eq!(evaluate(&s, &Thresholds::default(), 0.9), None);
        assert_eq!(
            Thresholds::paper().classify(None, None, None, None),
            (None, Classification::Insufficient)
        );
    }

    /// Which statistic a boundary case moves; indexes `[mean, std, pam]`.
    #[derive(Clone, Copy, Debug)]
    enum Stat {
        Mean,
        Std,
        Pam,
    }

    /// The paper's §3 boundaries as `(statistic, value at the threshold,
    /// passes there?, the value one ulp across, where the outcome flips)`:
    /// MEAN is strictly below its threshold, STD strictly above, and the PAM
    /// window `[PAM_th, 1 − PAM_th]` includes both edges.
    fn boundary_cases(t: &Thresholds, mean_th: f64) -> [(Stat, f64, bool, f64); 4] {
        let pam_hi = 1.0 - t.pam;
        [
            (Stat::Mean, mean_th, false, mean_th.next_down()),
            (Stat::Std, t.std, false, t.std.next_up()),
            (Stat::Pam, t.pam, true, t.pam.next_down()),
            (Stat::Pam, pam_hi, true, pam_hi.next_up()),
        ]
    }

    #[test]
    fn exact_threshold_boundaries_hold_in_classify_and_reclassify() {
        let program_accuracy = 0.9;
        let fixed = Thresholds {
            mean: MeanThreshold::Fixed(0.875),
            std: 0.125,
            pam: 0.25,
        };
        for t in [Thresholds::paper(), fixed] {
            let mean_th = t.resolve_mean(program_accuracy);
            for (stat, at, passes, across) in boundary_cases(&t, mean_th) {
                for (value, expect) in [(at, passes), (across, !passes)] {
                    let mut v = [0.5, 0.0, 0.5];
                    v[stat as usize] = value;
                    let (mean, std, pam) = (Some(v[0]), Some(v[1]), Some(v[2]));
                    let (outcomes, class) = t.classify(mean, std, pam, Some(program_accuracy));
                    let o = outcomes.expect("statistics present");
                    let got = [o.mean, o.std, o.pam][stat as usize];
                    assert_eq!(got, expect, "{stat:?} = {value:e} under {t:?}");
                    // the same statistics in a report classified under other
                    // thresholds first, then reclassified under `t`
                    let measured = Measured {
                        slices: 3,
                        mean,
                        std_dev: std,
                        pam_fraction: pam,
                        executions: 30,
                        aggregate_accuracy: mean,
                    };
                    let other = Thresholds {
                        mean: MeanThreshold::Fixed(0.0),
                        std: f64::MAX,
                        pam: 0.5,
                    };
                    let report = ProfileReport::new(
                        [measured],
                        other,
                        Some(program_accuracy),
                        3,
                        30,
                        "oracle".to_owned(),
                        None,
                    )
                    .reclassify(t);
                    let stats = report.stats(SiteId(0));
                    assert_eq!((stats.outcomes, stats.classification), (outcomes, class));
                    assert_eq!(report.resolved_mean_threshold(), Some(mean_th));
                }
            }
        }
    }

    #[test]
    fn high_accuracy_stable_branch_is_independent() {
        let slices: Vec<(u64, u64)> = (0..40).map(|_| (99, 1)).collect();
        let s = state_with_slices(&slices);
        let o = evaluate(&s, &Thresholds::default(), 0.93).unwrap();
        assert!(!o.mean, "99% > program accuracy");
        assert!(!o.std);
        assert!(!o.predicts_dependent());
    }
}
