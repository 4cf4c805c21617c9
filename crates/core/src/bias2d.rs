//! 2D *edge* profiling: the paper's sketched variant that applies the same
//! time-sliced tests to branch **bias** (taken rate) instead of prediction
//! accuracy.
//!
//! §1 and §3.1 note that "2D-profiling can also be used with edge profiling
//! to determine whether or not the bias (taken/not-taken rate) of a branch is
//! input-dependent". This variant needs *no predictor model at all*, making
//! the profiler dramatically cheaper — the trade-off being that it detects
//! bias shifts rather than predictability shifts.
//!
//! Statistics are tracked on the per-slice **taken rate**; the MEAN-test is
//! applied to the branch's mean per-slice *bias* (majority-direction
//! frequency, `max(r, 1-r)`), since "low accuracy" has no direct analogue
//! for edges but "weak bias" does.

use crate::report::{Measured, SeriesData};
use crate::{BranchState, ProfileReport, SliceConfig, Thresholds};
use btrace::{SiteId, Tracer};

/// Predictor-free 2D profiler over branch bias.
///
/// Implements [`Tracer`]; finish with [`Bias2DProfiler::finish`]. In the
/// resulting [`ProfileReport`], `mean` holds the branch's mean per-slice
/// *bias*, `std_dev`/`pam_fraction` describe its per-slice *taken-rate*
/// series, and `aggregate_accuracy` holds the whole-run bias.
///
/// Each site's state is the paper's [`BranchState`] recording "taken" where
/// the accuracy profiler records "predicted correctly", so its statistics
/// describe the taken rate; the only extra per-site value is the sum of
/// per-slice bias values behind the MEAN-test.
#[derive(Clone, Debug)]
pub struct Bias2DProfiler {
    states: Vec<BranchState>,
    bias_sums: Vec<f64>,
    config: SliceConfig,
    in_slice: u64,
    slice_index: u64,
    total_events: u64,
    series: Option<SeriesData>,
}

impl Bias2DProfiler {
    /// Creates a bias 2D-profiler for `num_sites` static branches.
    pub fn new(num_sites: usize, config: SliceConfig) -> Self {
        Self {
            states: vec![BranchState::new(); num_sites],
            bias_sums: vec![0.0; num_sites],
            config,
            in_slice: 0,
            slice_index: 0,
            total_events: 0,
            series: None,
        }
    }

    /// Like [`new`](Self::new) but records per-slice taken-rate series.
    pub fn with_series(num_sites: usize, config: SliceConfig) -> Self {
        let mut p = Self::new(num_sites, config);
        p.series = Some(SeriesData {
            per_site: vec![Vec::new(); num_sites],
            overall: Vec::new(),
        });
        p
    }

    fn end_slice_all(&mut self) {
        let thr = self.config.exec_threshold();
        for (i, st) in self.states.iter_mut().enumerate() {
            let Some(rate) = st.end_slice_sampled(thr) else {
                continue;
            };
            self.bias_sums[i] += rate.max(1.0 - rate);
            if let Some(series) = self.series.as_mut() {
                series.per_site[i].push((self.slice_index, rate));
            }
        }
        self.slice_index += 1;
        self.in_slice = 0;
    }

    /// Ends the run and classifies every branch.
    ///
    /// The MEAN-test compares mean per-slice bias against the resolved
    /// threshold; `MeanThreshold::ProgramAccuracy` resolves to the program's
    /// execution-weighted mean branch bias.
    pub fn finish(mut self, thresholds: Thresholds) -> ProfileReport {
        if self.in_slice > 0 {
            self.end_slice_all();
        }
        // Execution-weighted average per-branch bias over the whole run.
        let bias = |st: &BranchState| st.aggregate_accuracy().map(|r| r.max(1.0 - r));
        let (wsum, wtot) = self.states.iter().fold((0.0f64, 0u64), |(s, t), st| {
            let exec = st.total_executions();
            bias(st).map_or((s, t), |b| (s + b * exec as f64, t + exec))
        });
        let program_bias = (wtot > 0).then(|| wsum / wtot as f64);
        let measured = self
            .states
            .iter()
            .zip(&self.bias_sums)
            .map(|(st, &sb)| Measured {
                slices: st.slices(),
                mean: (st.slices() > 0).then(|| sb / st.slices() as f64),
                std_dev: st.std_dev(),
                pam_fraction: st.points_above_mean(),
                executions: st.total_executions(),
                aggregate_accuracy: bias(st),
            });
        ProfileReport::new(
            measured,
            thresholds,
            program_bias,
            self.slice_index,
            self.total_events,
            "edge-bias".to_owned(),
            self.series,
        )
    }
}

impl Tracer for Bias2DProfiler {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.states[site.index()].record(taken);
        self.total_events += 1;
        self.in_slice += 1;
        if self.in_slice == self.config.slice_len() {
            self.end_slice_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Classification, Thresholds};

    #[test]
    fn bias_phase_shift_is_flagged() {
        // Site 0: taken rate flips from 40% to 95% mid-run. Site 1: steady
        // 90% taken throughout.
        let mut p = Bias2DProfiler::new(2, SliceConfig::new(2_000, 32));
        for i in 0..200_000u64 {
            let r0 = if i < 100_000 {
                i % 100 < 40
            } else {
                i % 100 < 95
            };
            p.branch(SiteId(0), r0);
            p.branch(SiteId(1), i % 10 != 0);
        }
        let report = p.finish(Thresholds::default());
        assert!(report.classification(SiteId(0)).is_dependent());
        assert!(!report.classification(SiteId(1)).is_dependent());
    }

    #[test]
    fn steady_weak_bias_fails_pam() {
        // 55% taken uniformly: weak bias (MEAN passes) but no phase
        // behaviour, so PAM filters it out — mirroring Figure 8 (right).
        let mut p = Bias2DProfiler::new(1, SliceConfig::new(2_000, 32));
        for i in 0..200_000u64 {
            p.branch(SiteId(0), i % 100 < 55);
        }
        let report = p.finish(Thresholds::default());
        assert!(!report.classification(SiteId(0)).is_dependent());
        let s = report.stats(SiteId(0));
        assert!(s.mean.unwrap() < 0.6, "mean bias ~0.55");
        assert!(s.std_dev.unwrap() < 0.01, "rate is steady");
    }

    #[test]
    fn aggregate_accuracy_field_holds_bias() {
        let mut p = Bias2DProfiler::new(1, SliceConfig::new(100, 4));
        for i in 0..1_000u64 {
            p.branch(SiteId(0), i % 4 == 0); // 25% taken -> bias 0.75
        }
        let report = p.finish(Thresholds::default());
        assert!((report.stats(SiteId(0)).aggregate_accuracy.unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(report.predictor_name(), "edge-bias");
    }

    #[test]
    fn series_records_taken_rate() {
        let mut p = Bias2DProfiler::with_series(1, SliceConfig::new(1_000, 32));
        for i in 0..5_000u64 {
            p.branch(SiteId(0), i % 5 != 0); // 80% taken
        }
        let report = p.finish(Thresholds::default());
        let series = report.series(SiteId(0)).unwrap();
        assert_eq!(series.len(), 5);
        assert!((series[0].1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn unexecuted_site_is_insufficient() {
        let p = Bias2DProfiler::new(2, SliceConfig::new(100, 4));
        let report = p.finish(Thresholds::default());
        assert_eq!(
            report.classification(SiteId(0)),
            Classification::Insufficient
        );
        assert_eq!(report.program_accuracy(), None);
    }
}
