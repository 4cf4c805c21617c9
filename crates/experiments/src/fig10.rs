//! Figure 10: 2D-profiling coverage and accuracy with two input sets
//! (train profiling run scored against train-vs-ref ground truth).

use crate::tablefmt::metrics_row;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use twodprof_core::Metrics;

/// Per-benchmark Figure 10 metrics.
pub fn compute(ctx: &mut Context) -> Vec<(&'static str, Metrics)> {
    let mut out = Vec::new();
    for w in ctx.suite() {
        let gt = ctx.truth(
            ProfileRequest::accuracy(w.name(), PredictorKind::Gshare4Kb),
            &["ref"],
        );
        let report = ctx.two_d(ProfileRequest::two_d(w.name(), PredictorKind::Gshare4Kb));
        let metrics = Metrics::score(&report.predicted_mask(), &gt);
        out.push((w.name(), metrics));
    }
    out
}

/// Renders Figure 10.
pub fn run(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Figure 10: 2D-profiling coverage and accuracy with two input sets",
        &["benchmark", "COV-dep", "ACC-dep", "COV-indep", "ACC-indep"],
    );
    for (name, m) in compute(ctx) {
        t.row(metrics_row([name.to_owned()], &m));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    #[test]
    fn independent_branch_metrics_are_high() {
        // The paper: "2D-profiling has very high (more than 80%) accuracy
        // and coverage in identifying input-independent branches."
        let mut ctx = Context::new(Scale::Tiny);
        let rows = compute(&mut ctx);
        assert_eq!(rows.len(), 12);
        let avg_acc_indep = Metrics::average(rows.iter().map(|(_, m)| m))
            .acc_indep
            .expect("defined");
        assert!(
            avg_acc_indep > 0.6,
            "ACC-indep should be high on average: {avg_acc_indep:.3}"
        );
    }

    #[test]
    fn some_dependent_branches_are_found() {
        let mut ctx = Context::new(Scale::Tiny);
        let rows = compute(&mut ctx);
        let found = rows
            .iter()
            .filter(|(_, m)| m.cov_dep.unwrap_or(0.0) > 0.0)
            .count();
        assert!(
            found >= 3,
            "2D-profiling should find dependent branches in several benchmarks: {found}"
        );
    }
}
