//! Extension experiment: how the *target predictor* shapes the set of
//! input-dependent branches.
//!
//! §5.3 compares gshare and perceptron targets; this extension adds the
//! stronger TAGE and the loop-augmented gshare from `bpred`, measuring per
//! workload (train vs. ref): the overall misprediction rate and the number
//! of input-dependent branches each target defines. The paper's observation
//! — better predictors define fewer input-dependent branches — generalizes
//! or breaks per predictor family, which this table makes visible.
//!
//! Every target is a named [`PredictorKind`] from
//! [`PredictorKind::EXTENDED`], so the runs go through the engine's trace
//! cache like any other accuracy request (one recorded trace per input,
//! four predictor replays), instead of the bespoke uncached simulations
//! this module used to spin up. All of them are submitted as one batch, so
//! the engine records each trace once and fuses its replays.

use crate::tablefmt::pct;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use twodprof_core::{GroundTruth, INPUT_DEPENDENCE_DELTA};
use twodprof_engine::JobSpec;

/// The predictor families compared: every named configuration in `bpred`.
pub const TARGETS: &[PredictorKind] = &PredictorKind::EXTENDED;

/// Renders the comparison: per workload and target, ref misprediction rate
/// and train-vs-ref input-dependent count.
pub fn run(ctx: &mut Context) -> Table {
    let mut header = vec!["benchmark".to_owned()];
    for t in TARGETS {
        header.push(format!("misp({})", t.label()));
        header.push(format!("dep({})", t.label()));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Extension: input-dependence under different target predictors (train vs ref)",
        &header_refs,
    );
    let (suite, scale) = (ctx.suite(), ctx.scale());
    let specs: Vec<_> = suite
        .iter()
        .flat_map(|w| TARGETS.iter().map(move |&t| (w.name(), t)))
        .flat_map(|(w, t)| ["train", "ref"].map(|i| JobSpec::accuracy(w, i, scale, t)))
        .collect();
    ctx.prewarm(&specs);
    for w in suite {
        let mut row = vec![w.name().to_owned()];
        for &target in TARGETS {
            let base = ProfileRequest::accuracy(w.name(), target);
            let train = ctx.accuracy(base.clone());
            let reference = ctx.accuracy(base.input("ref"));
            let gt =
                GroundTruth::from_pair(&train, &reference, INPUT_DEPENDENCE_DELTA, ctx.min_exec());
            row.push(pct(reference.overall_misprediction_rate()));
            row.push(gt.dependent_count().to_string());
        }
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    #[test]
    fn all_targets_produce_rows() {
        let mut ctx = Context::new(Scale::Tiny);
        let t = run(&mut ctx);
        assert_eq!(t.len(), 12);
        let rendered = t.render();
        for target in TARGETS {
            assert!(rendered.contains(&format!("misp({})", target.label())));
        }
        assert_eq!(TARGETS.len(), 4, "all named configurations are compared");
    }
}
