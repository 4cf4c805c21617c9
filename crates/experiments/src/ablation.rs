//! Sensitivity ablations for the 2D-profiling algorithm.
//!
//! §4.1 of the paper: "We evaluated the sensitivity of 2D-profiling to the
//! threshold value used to define input-dependent branches and the
//! threshold values used in the 2D-profiling algorithm" (results in its
//! extended version). This module reproduces those studies:
//!
//! - [`run_thresholds`] sweeps `STD_th` and `PAM_th`;
//! - [`run_slice`] sweeps the slice length;
//! - [`run_tests_onoff`] disables each of the MEAN/STD/PAM tests in turn to
//!   measure its contribution (design-choice ablation).
//!
//! Thresholds act only at the end of a run, so the threshold and test
//! on/off sweeps reclassify the engine's cached gshare 2D report
//! ([`ProfileReport::reclassify`](twodprof_core::ProfileReport::reclassify))
//! instead of simulating again. Slice length changes the statistics
//! themselves, so the slice sweep replays each recorded trace.

use crate::tablefmt::{metrics_row, pct};
use crate::{Context, PredictorKind, ProfileRequest, Table};
use bpred::Gshare;
use twodprof_core::{GroundTruth, MeanThreshold, Metrics, SliceConfig, Thresholds, TwoDProfiler};
use workloads::EXTENDED_BENCHMARKS;

/// Train-vs-ref gshare ground truth of one benchmark.
fn truth(ctx: &mut Context, benchmark: &str) -> GroundTruth {
    ctx.truth(
        ProfileRequest::accuracy(benchmark, PredictorKind::Gshare4Kb),
        &["ref"],
    )
}

/// Mean metrics over the extended benchmarks under `thresholds`: the cached
/// gshare 2D report, reclassified, against train-vs-ref ground truth.
fn metrics_with(ctx: &mut Context, thresholds: Thresholds) -> Metrics {
    let mut all = Vec::new();
    for b in EXTENDED_BENCHMARKS {
        let report = ctx
            .two_d(ProfileRequest::two_d(b, PredictorKind::Gshare4Kb))
            .reclassify(thresholds);
        all.push(Metrics::score(&report.predicted_mask(), &truth(ctx, b)));
    }
    Metrics::average(&all)
}

/// Sweeps `STD_th` and `PAM_th` around the paper's values.
pub fn run_thresholds(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Ablation: STD_th / PAM_th sensitivity (mean over 6 benchmarks, train-vs-ref)",
        &[
            "STD_th",
            "PAM_th",
            "COV-dep",
            "ACC-dep",
            "COV-indep",
            "ACC-indep",
        ],
    );
    for &std_th in &[0.01, 0.02, 0.04, 0.08, 0.16] {
        for &pam_th in &[0.01, 0.05, 0.15] {
            let m = metrics_with(
                ctx,
                Thresholds {
                    mean: MeanThreshold::ProgramAccuracy,
                    std: std_th,
                    pam: pam_th,
                },
            );
            t.row(metrics_row([format!("{std_th}"), format!("{pam_th}")], &m));
        }
    }
    t
}

/// Sweeps the input-dependence *definition* threshold (the 5% accuracy
/// delta of §2): how large the ground-truth dependent set is, and how
/// 2D-profiling scores against it, as the definition tightens or loosens.
pub fn run_delta(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Ablation: input-dependence delta threshold (mean over 6 benchmarks, train-vs-ref)",
        &[
            "delta",
            "dependent_frac",
            "COV-dep",
            "ACC-dep",
            "COV-indep",
            "ACC-indep",
        ],
    );
    for &delta in &[0.02, 0.05, 0.10, 0.20] {
        let mut all = Vec::new();
        let mut frac_sum = 0.0;
        let mut frac_n = 0usize;
        for b in EXTENDED_BENCHMARKS {
            let base = ProfileRequest::accuracy(b, PredictorKind::Gshare4Kb);
            let train = ctx.accuracy(base.clone());
            let reference = ctx.accuracy(base.input("ref"));
            let gt =
                twodprof_core::GroundTruth::from_pair(&train, &reference, delta, ctx.min_exec());
            if let Some(f) = gt.static_fraction() {
                frac_sum += f;
                frac_n += 1;
            }
            let report = ctx.two_d(ProfileRequest::two_d(b, PredictorKind::Gshare4Kb));
            all.push(Metrics::score(&report.predicted_mask(), &gt));
        }
        let m = Metrics::average(&all);
        t.row(metrics_row(
            [
                format!("{:.0}%", delta * 100.0),
                pct((frac_n > 0).then(|| frac_sum / frac_n as f64)),
            ],
            &m,
        ));
    }
    t
}

/// Sweeps the slice length across two orders of magnitude, replaying each
/// benchmark's recorded train trace into a gshare 2D-profiler per length.
pub fn run_slice(ctx: &mut Context) -> Table {
    const LENS: [u64; 5] = [2_000, 8_000, 32_000, 128_000, 512_000];
    let mut t = Table::new(
        "Ablation: slice-length sensitivity (mean over 6 benchmarks, train-vs-ref)",
        &["slice_len", "COV-dep", "ACC-dep", "COV-indep", "ACC-indep"],
    );
    let mut scores = vec![Vec::new(); LENS.len()];
    for b in EXTENDED_BENCHMARKS {
        let trace = ctx.trace(ProfileRequest::count(b));
        let gt = truth(ctx, b);
        for (&len, scores) in LENS.iter().zip(&mut scores) {
            let config = SliceConfig::new(len, (len / 15_000).max(16).min(len - 1));
            let mut prof = TwoDProfiler::new(trace.num_sites(), Gshare::new_4kb(), config);
            trace.replay_into(&mut prof);
            let report = prof.finish(Thresholds::paper());
            scores.push(Metrics::score(&report.predicted_mask(), &gt));
        }
    }
    for (len, scores) in LENS.iter().zip(&scores) {
        let m = Metrics::average(scores);
        t.row(metrics_row([len.to_string()], &m));
    }
    t
}

/// Disables each test in turn (MEAN only, STD only, no PAM filter, full
/// algorithm) to show each component's contribution.
pub fn run_tests_onoff(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Ablation: MEAN/STD/PAM test contributions (mean over 6 benchmarks)",
        &[
            "configuration",
            "COV-dep",
            "ACC-dep",
            "COV-indep",
            "ACC-indep",
        ],
    );
    // disabling a test = making it never/always pass via extreme thresholds
    let configs: [(&str, Thresholds); 4] = [
        ("full (paper)", Thresholds::paper()),
        (
            "MEAN-test only (STD off)",
            Thresholds {
                mean: MeanThreshold::ProgramAccuracy,
                std: f64::MAX,
                pam: 0.05,
            },
        ),
        (
            "STD-test only (MEAN off)",
            Thresholds {
                mean: MeanThreshold::Fixed(0.0),
                std: 0.04,
                pam: 0.05,
            },
        ),
        (
            "no PAM filter",
            Thresholds {
                mean: MeanThreshold::ProgramAccuracy,
                std: 0.04,
                pam: 0.0,
            },
        ),
    ];
    for (name, thresholds) in configs {
        let m = metrics_with(ctx, thresholds);
        t.row(metrics_row([name.to_owned()], &m));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    #[test]
    fn tighter_std_threshold_trades_coverage_for_accuracy() {
        let mut ctx = Context::new(Scale::Tiny);
        let loose = metrics_with(
            &mut ctx,
            Thresholds {
                mean: MeanThreshold::ProgramAccuracy,
                std: 0.01,
                pam: 0.05,
            },
        );
        let tight = metrics_with(
            &mut ctx,
            Thresholds {
                mean: MeanThreshold::ProgramAccuracy,
                std: 0.30,
                pam: 0.05,
            },
        );
        // a very tight STD threshold flags fewer branches (lower or equal
        // dependent coverage)
        assert!(
            tight.cov_dep.unwrap_or(0.0) <= loose.cov_dep.unwrap_or(0.0) + 1e-9,
            "tight {tight:?} vs loose {loose:?}"
        );
    }

    #[test]
    fn ablation_tables_render() {
        let mut ctx = Context::new(Scale::Tiny);
        assert_eq!(run_tests_onoff(&mut ctx).len(), 4);
        assert_eq!(run_slice(&mut ctx).len(), 5);
        assert_eq!(run_delta(&mut ctx).len(), 4);
    }

    #[test]
    fn looser_delta_defines_more_dependent_branches() {
        // the dependent fraction must shrink monotonically as the delta
        // threshold tightens — a definition property, independent of scale
        let mut ctx = Context::new(Scale::Tiny);
        let base = ProfileRequest::accuracy("gzip", PredictorKind::Gshare4Kb);
        let train = ctx.accuracy(base.clone());
        let reference = ctx.accuracy(base.input("ref"));
        let count = |delta: f64| {
            twodprof_core::GroundTruth::from_pair(&train, &reference, delta, ctx.min_exec())
                .dependent_count()
        };
        assert!(count(0.02) >= count(0.05));
        assert!(count(0.05) >= count(0.20));
    }

    #[test]
    fn no_pam_filter_never_reduces_dependent_coverage() {
        // PAM only *filters* candidates: removing it can only flag more
        // branches, so COV-dep(no PAM) >= COV-dep(full).
        let mut ctx = Context::new(Scale::Tiny);
        let full = metrics_with(&mut ctx, Thresholds::paper());
        let nopam = metrics_with(
            &mut ctx,
            Thresholds {
                mean: MeanThreshold::ProgramAccuracy,
                std: 0.04,
                pam: 0.0,
            },
        );
        assert!(
            nopam.cov_dep.unwrap_or(0.0) >= full.cov_dep.unwrap_or(0.0) - 1e-9,
            "no-PAM {nopam:?} vs full {full:?}"
        );
    }
}
