//! The 2D-profiler: Figure 9 of the paper as a [`Tracer`].

use crate::{ProfileReport, SliceAccum, SliceConfig, Thresholds};
use bpred::{site_pc, BranchPredictor};
use btrace::{SiteId, Tracer};

/// A 2D-profiling run over one workload execution.
///
/// Feeds every dynamic branch through a software model of the profiling
/// branch predictor (the paper uses a 4 KB gshare), accumulates each static
/// branch's per-slice prediction accuracy in the seven-variable
/// [`BranchState`](crate::BranchState), and at [`finish`](Self::finish)
/// applies the MEAN/STD/PAM tests to classify every branch as predicted
/// input-dependent or input-independent.
///
/// Slices are delimited globally: every [`SliceConfig::slice_len`] dynamic
/// branch events, the per-slice counters of *all* branches are folded and
/// reset (the paper's "function executed at the end of each slice"). All
/// accounting other than the predictor simulation lives in [`SliceAccum`],
/// which the engine's run-driven lane group drives in batches instead.
#[derive(Clone, Debug)]
pub struct TwoDProfiler<P> {
    predictor: P,
    accum: SliceAccum,
}

impl<P: BranchPredictor> TwoDProfiler<P> {
    /// Creates a profiler for a workload with `num_sites` static branches,
    /// simulating `predictor` and slicing the run per `config`.
    pub fn new(num_sites: usize, predictor: P, config: SliceConfig) -> Self {
        Self {
            predictor,
            accum: SliceAccum::new(num_sites, config),
        }
    }

    /// Like [`new`](Self::new), but additionally records each branch's
    /// per-slice filtered accuracy and the per-slice overall program
    /// accuracy, for time-series plots like the paper's Figure 8.
    ///
    /// Costs `O(sites × slices)` memory; leave disabled for large sweeps.
    pub fn with_series(num_sites: usize, predictor: P, config: SliceConfig) -> Self {
        Self {
            predictor,
            accum: SliceAccum::with_series(num_sites, config),
        }
    }

    /// The slice configuration in effect.
    pub fn config(&self) -> SliceConfig {
        self.accum.config()
    }

    /// Per-branch state accumulated so far (primarily for inspection in
    /// tests and tooling).
    pub fn state(&self, site: SiteId) -> &crate::BranchState {
        self.accum.state(site)
    }

    /// Records one dynamic branch like [`Tracer::branch`], additionally
    /// returning whether the simulated predictor got it right.
    ///
    /// This is the ingestion hook for consumers that need the per-event
    /// prediction outcome without running a second predictor — the streaming
    /// aggregator feeds its sliding windows from the same simulation the
    /// session profiler already performs.
    #[inline]
    pub fn branch_outcome(&mut self, site: SiteId, taken: bool) -> bool {
        let correct = self.predictor.predict_and_train(site_pc(site), taken) == taken;
        self.accum.record(site, correct);
        correct
    }

    /// Ends the run: folds any open partial slice, resolves the MEAN-test
    /// threshold against the run's overall accuracy, applies the three tests
    /// to every branch, and returns the report.
    pub fn finish(self, thresholds: Thresholds) -> ProfileReport {
        let name = self.predictor.name();
        self.accum.finish(thresholds, name)
    }
}

impl<P: BranchPredictor> Tracer for TwoDProfiler<P> {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.branch_outcome(site, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Classification;
    use bpred::{Gshare, StaticTaken};

    /// Deterministic pseudo-random stream for tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn phased_branch_flagged_stable_branch_not() {
        // Site 0: near-perfectly predictable for half the run, then random —
        // strong phase behaviour (the paper's Figure 8 left).
        // Site 1: 58% accuracy under StaticTaken but *stable* over time —
        // a deterministic periodic pattern whose every slice has identical
        // accuracy (Figure 8 right: low accuracy, no phase variation, so the
        // PAM-test must reject it). Site 2: deterministic 99% and stable.
        let mut prof = TwoDProfiler::new(3, StaticTaken, SliceConfig::new(3_000, 32));
        let mut rng = 0x12345678u64;
        for i in 0..300_000u64 {
            let s0 = if i < 150_000 {
                xorshift(&mut rng) % 100 < 97
            } else {
                xorshift(&mut rng).is_multiple_of(2)
            };
            prof.branch(SiteId(0), s0);
            prof.branch(SiteId(1), i % 100 < 58);
            prof.branch(SiteId(2), i % 100 < 99);
        }
        let report = prof.finish(Thresholds::default());
        assert_eq!(
            report.classification(SiteId(0)),
            Classification::Dependent,
            "phased branch: {:?}",
            report.stats(SiteId(0))
        );
        assert_eq!(
            report.classification(SiteId(1)),
            Classification::Independent,
            "stable hard-to-predict branch: {:?}",
            report.stats(SiteId(1))
        );
        assert_eq!(
            report.classification(SiteId(2)),
            Classification::Independent,
            "stable easy branch: {:?}",
            report.stats(SiteId(2))
        );
    }

    #[test]
    fn unexecuted_branch_is_insufficient() {
        let mut prof = TwoDProfiler::new(2, Gshare::new(8, 8), SliceConfig::new(100, 4));
        for _ in 0..1_000 {
            prof.branch(SiteId(0), true);
        }
        let report = prof.finish(Thresholds::default());
        assert_eq!(
            report.classification(SiteId(1)),
            Classification::Insufficient
        );
        assert!(!report.predicted_mask()[1]);
    }

    #[test]
    fn rare_branch_below_threshold_is_insufficient() {
        let mut prof = TwoDProfiler::new(2, StaticTaken, SliceConfig::new(1_000, 100));
        for i in 0..100_000u64 {
            prof.branch(SiteId(0), true);
            if i % 50 == 0 {
                // ~20 executions per 1000-branch slice: below threshold 100
                prof.branch(SiteId(1), i % 100 == 0);
            }
        }
        let report = prof.finish(Thresholds::default());
        assert_eq!(report.stats(SiteId(1)).slices, 0);
        assert_eq!(
            report.classification(SiteId(1)),
            Classification::Insufficient
        );
    }

    #[test]
    fn empty_run_reports_no_program_accuracy() {
        let prof = TwoDProfiler::new(1, StaticTaken, SliceConfig::new(100, 4));
        let report = prof.finish(Thresholds::default());
        assert_eq!(report.program_accuracy(), None);
        assert_eq!(report.total_slices(), 0);
        assert_eq!(report.total_branches(), 0);
    }

    #[test]
    fn partial_trailing_slice_is_counted() {
        // 2.5 slices worth of events: the final half slice still has enough
        // executions to pass the threshold and must be folded by finish().
        let mut prof = TwoDProfiler::new(1, StaticTaken, SliceConfig::new(1_000, 100));
        for _ in 0..2_500 {
            prof.branch(SiteId(0), true);
        }
        let report = prof.finish(Thresholds::default());
        assert_eq!(report.stats(SiteId(0)).slices, 3);
        assert_eq!(report.total_slices(), 3);
    }

    #[test]
    fn series_recording_matches_slice_count() {
        let mut prof = TwoDProfiler::with_series(1, StaticTaken, SliceConfig::new(1_000, 100));
        for i in 0..10_000u64 {
            prof.branch(SiteId(0), i % 10 != 0); // steady 90%
        }
        let report = prof.finish(Thresholds::default());
        let series = report.series(SiteId(0)).unwrap();
        assert_eq!(series.len(), 10);
        for &(_, acc) in series {
            assert!((acc - 0.9).abs() < 1e-12);
        }
        let overall = report.overall_series().unwrap();
        assert_eq!(overall.len(), 10);
        assert!((overall[0].1 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn program_accuracy_is_global_average() {
        let mut prof = TwoDProfiler::new(2, StaticTaken, SliceConfig::new(100, 4));
        for _ in 0..500 {
            prof.branch(SiteId(0), true); // always correct
            prof.branch(SiteId(1), false); // always wrong
        }
        let report = prof.finish(Thresholds::default());
        assert!((report.program_accuracy().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(report.total_branches(), 1_000);
        assert_eq!(report.predictor_name(), "static-taken");
    }

    #[test]
    fn branch_outcome_reports_prediction_correctness() {
        // StaticTaken always predicts taken, so the outcome is the taken bit
        // itself — and the state advances exactly as Tracer::branch would.
        let mut prof = TwoDProfiler::new(1, StaticTaken, SliceConfig::new(100, 4));
        assert!(prof.branch_outcome(SiteId(0), true));
        assert!(!prof.branch_outcome(SiteId(0), false));
        assert_eq!(prof.state(SiteId(0)).total_executions(), 2);
    }
}
