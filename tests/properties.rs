//! Property-based tests over the profiling infrastructure: predictors,
//! the 2D statistics, ground truth and the cost model.

use proptest::prelude::*;
use twodprof::bpred::{
    BranchPredictor, Gshare, LocalTwoLevel, Perceptron, PredictorSim, Tournament,
};
use twodprof::btrace::{SiteId, Tracer};
use twodprof::core2d::{BranchState, Confusion, CostModel, Metrics, SliceConfig, Thresholds};

/// Strategy: a branch stream over up to 8 sites.
fn stream() -> impl Strategy<Value = Vec<(u32, bool)>> {
    prop::collection::vec((0u32..8, any::<bool>()), 1..600)
}

proptest! {
    #[test]
    fn predictors_are_deterministic(events in stream()) {
        let predictors: Vec<Box<dyn BranchPredictor>> = vec![
            Box::new(Gshare::new(10, 10)),
            Box::new(Perceptron::new(64, 12)),
            Box::new(LocalTwoLevel::new(8, 8)),
            Box::new(Tournament::new(9, 8, 8)),
        ];
        for mut p in predictors {
            let run = |p: &mut Box<dyn BranchPredictor>| -> Vec<bool> {
                events
                    .iter()
                    .map(|&(s, t)| p.predict_and_train(0x1000 + (s as u64) * 4, t))
                    .collect()
            };
            let a = run(&mut p);
            p.reset();
            let b = run(&mut p);
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn accuracy_profile_bounds(events in stream()) {
        let mut sim = PredictorSim::new(8, Gshare::new(8, 8));
        for &(s, taken) in &events {
            sim.branch(SiteId(s), taken);
        }
        let p = sim.into_profile();
        prop_assert_eq!(p.total_executions() as usize, events.len());
        for i in 0..8u32 {
            if let Some(a) = p.accuracy(SiteId(i)) {
                prop_assert!((0.0..=1.0).contains(&a));
                prop_assert!(p.correct(SiteId(i)) <= p.executions(SiteId(i)));
            } else {
                prop_assert_eq!(p.executions(SiteId(i)), 0);
            }
        }
    }

    #[test]
    fn branch_state_invariants(
        slices in prop::collection::vec((0u64..200, 0u64..200), 1..60),
        threshold in 0u64..50,
    ) {
        let mut st = BranchState::new();
        for &(correct, wrong) in &slices {
            for _ in 0..correct {
                st.record(true);
            }
            for _ in 0..wrong {
                st.record(false);
            }
            st.end_slice(threshold);
        }
        if let Some(mean) = st.mean() {
            prop_assert!((0.0..=1.0).contains(&mean), "mean {mean}");
            let std = st.std_dev().unwrap();
            // max possible std of values in [0,1] is 0.5
            prop_assert!((0.0..=0.5 + 1e-9).contains(&std), "std {std}");
            let pam = st.points_above_mean().unwrap();
            prop_assert!((0.0..=1.0).contains(&pam), "pam {pam}");
        } else {
            prop_assert_eq!(st.slices(), 0);
        }
        let total: u64 = slices.iter().map(|&(c, w)| c + w).sum();
        prop_assert_eq!(st.total_executions(), total);
    }

    #[test]
    fn cost_model_decision_flips_exactly_at_crossover(
        exec_t in 1.0f64..20.0,
        exec_n in 1.0f64..20.0,
        exec_pred in 1.0f64..40.0,
        penalty in 1.0f64..100.0,
        p_taken in 0.0f64..1.0,
    ) {
        let m = CostModel {
            exec_taken: exec_t,
            exec_not_taken: exec_n,
            exec_predicated: exec_pred,
            misp_penalty: penalty,
        };
        if let Some(x) = m.crossover_misp_rate(p_taken) {
            // strictly below the crossover the branch wins; strictly above,
            // predication wins
            let below = (x - 0.01).max(0.0);
            let above = (x + 0.01).min(1.0);
            if below < x {
                prop_assert!(m.branch_cost(p_taken, below) <= m.predicated_cost() + 1e-9);
            }
            if above > x {
                prop_assert!(m.branch_cost(p_taken, above) >= m.predicated_cost() - 1e-9);
            }
        }
    }

    #[test]
    fn metrics_stay_in_unit_range(
        tp in 0usize..50, fp in 0usize..50, tn in 0usize..50, fn_ in 0usize..50,
    ) {
        let c = Confusion {
            true_dep: tp,
            false_dep: fp,
            true_indep: tn,
            false_indep: fn_,
        };
        let m = Metrics::from_confusion(&c);
        for v in [m.cov_dep, m.acc_dep, m.cov_indep, m.acc_indep].into_iter().flatten() {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        prop_assert_eq!(c.total(), tp + fp + tn + fn_);
    }

    #[test]
    fn slice_config_auto_is_always_valid(total in 1u64..100_000_000_000) {
        let c = SliceConfig::auto(total);
        prop_assert!(c.slice_len() > 0);
        prop_assert!(c.exec_threshold() < c.slice_len());
    }

    #[test]
    fn profiler_counts_match_input(events in stream()) {
        use twodprof::core2d::TwoDProfiler;
        let mut prof = TwoDProfiler::new(8, Gshare::new(8, 8), SliceConfig::new(64, 4));
        for &(s, taken) in &events {
            prof.branch(SiteId(s), taken);
        }
        let report = prof.finish(Thresholds::paper());
        prop_assert_eq!(report.total_branches() as usize, events.len());
        let per_site: u64 = report.iter().map(|s| s.executions).sum();
        prop_assert_eq!(per_site as usize, events.len());
    }
}
