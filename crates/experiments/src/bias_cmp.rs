//! Extension experiment: the predictor-free 2D *edge* profiler (§1/§3.1's
//! sketched variant) scored against the same ground truth as the
//! accuracy-based profiler — quantifying what the cheaper profiler gives up.

use crate::tablefmt::pct;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use twodprof_core::{Bias2DProfiler, Metrics, SliceConfig, Thresholds};

/// Per-benchmark metrics of the accuracy-based and bias-based profilers
/// against train-vs-ref gshare ground truth. The bias profiler replays the
/// same recorded train trace the accuracy report came from.
pub fn compute(ctx: &mut Context) -> Vec<(&'static str, Metrics, Metrics)> {
    let mut out = Vec::new();
    for w in ctx.suite() {
        let gt = ctx.truth(
            ProfileRequest::accuracy(w.name(), PredictorKind::Gshare4Kb),
            &["ref"],
        );
        let acc_report = ctx.two_d(ProfileRequest::two_d(w.name(), PredictorKind::Gshare4Kb));
        let trace = ctx.trace(ProfileRequest::count(w.name()));
        let mut bias = Bias2DProfiler::new(trace.num_sites(), SliceConfig::auto(trace.events()));
        trace.replay_into(&mut bias);
        let bias_report = bias.finish(Thresholds::paper());
        out.push((
            w.name(),
            Metrics::score(&acc_report.predicted_mask(), &gt),
            Metrics::score(&bias_report.predicted_mask(), &gt),
        ));
    }
    out
}

/// Renders the comparison table.
pub fn run(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Extension: accuracy-based vs. bias-based (edge) 2D profiling",
        &[
            "benchmark",
            "COV-dep(acc)",
            "COV-dep(bias)",
            "ACC-dep(acc)",
            "ACC-dep(bias)",
            "ACC-indep(acc)",
            "ACC-indep(bias)",
        ],
    );
    for (name, acc, bias) in compute(ctx) {
        t.row(vec![
            name.to_owned(),
            pct(acc.cov_dep),
            pct(bias.cov_dep),
            pct(acc.acc_dep),
            pct(bias.acc_dep),
            pct(acc.acc_indep),
            pct(bias.acc_indep),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    #[test]
    fn both_variants_produce_defined_metrics() {
        let mut ctx = Context::new(Scale::Tiny);
        let rows = compute(&mut ctx);
        assert_eq!(rows.len(), 12);
        // the bias variant must detect *something* somewhere — it sees the
        // same phase shifts through taken rates
        let bias_finds = rows
            .iter()
            .filter(|(_, _, b)| b.cov_dep.unwrap_or(0.0) > 0.0)
            .count();
        assert!(
            bias_finds >= 2,
            "bias 2D found deps in {bias_finds} benchmarks"
        );
    }
}
