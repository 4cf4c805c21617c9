//! Figures 12 and 13: 2D-profiling coverage/accuracy as the ground-truth
//! input-set pool grows. Figure 12 averages over the six extended
//! benchmarks; Figure 13 shows each benchmark at the maximum pool.

use crate::fig11_14::cumulative_sets;
use crate::tablefmt::metrics_row;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use twodprof_core::Metrics;
use workloads::EXTENDED_BENCHMARKS;

/// Metrics of one benchmark for every cumulative ground-truth set, under
/// `target` ground truth, profiling with the 4 KB gshare on train.
pub fn metrics_growth(ctx: &mut Context, workload: &str, target: PredictorKind) -> Vec<Metrics> {
    let report = ctx.two_d(ProfileRequest::two_d(workload, PredictorKind::Gshare4Kb));
    let mask = report.predicted_mask();
    let base = ProfileRequest::accuracy(workload, target);
    cumulative_sets(ctx, workload)
        .iter()
        .map(|set| Metrics::score(&mask, &ctx.truth(base.clone(), set)))
        .collect()
}

/// Figure 12: average metrics across the extended benchmarks per pool size.
pub fn run_fig12(ctx: &mut Context) -> Table {
    let per_bench: Vec<Vec<Metrics>> = EXTENDED_BENCHMARKS
        .iter()
        .map(|b| metrics_growth(ctx, b, PredictorKind::Gshare4Kb))
        .collect();
    let max_sets = per_bench.iter().map(Vec::len).max().unwrap_or(0);
    let mut t = Table::new(
        "Figure 12: mean 2D-profiling metrics vs. number of input sets (6 benchmarks)",
        &["sets", "COV-dep", "ACC-dep", "COV-indep", "ACC-indep"],
    );
    for k in 0..max_sets {
        let at_k: Vec<&Metrics> = per_bench.iter().filter_map(|v| v.get(k)).collect();
        let avg = Metrics::average(at_k.iter().copied());
        let label = if k == 0 {
            "base".to_owned()
        } else {
            format!("base-ext1-{k}")
        };
        t.row(metrics_row([label], &avg));
    }
    t
}

/// Figure 13: per-benchmark metrics at the maximum number of input sets.
pub fn run_fig13(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Figure 13: 2D-profiling metrics at the maximum number of input sets",
        &["benchmark", "COV-dep", "ACC-dep", "COV-indep", "ACC-indep"],
    );
    for b in EXTENDED_BENCHMARKS {
        let m = *metrics_growth(ctx, b, PredictorKind::Gshare4Kb)
            .last()
            .expect("at least the base set");
        t.row(metrics_row([(*b).to_owned()], &m));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    #[test]
    fn acc_dep_improves_with_more_input_sets() {
        // The paper's central evaluation claim: ACC-dep rises substantially
        // as the ground-truth pool grows, because branches 2D-profiling
        // flags really are input-dependent — it just takes more inputs to
        // expose them.
        let mut ctx = Context::new(Scale::Tiny);
        let mut first = Vec::new();
        let mut last = Vec::new();
        for b in EXTENDED_BENCHMARKS {
            let g = metrics_growth(&mut ctx, b, PredictorKind::Gshare4Kb);
            first.push(g[0]);
            last.push(*g.last().unwrap());
        }
        let f = Metrics::average(&first).acc_dep.unwrap_or(0.0);
        let l = Metrics::average(&last).acc_dep.unwrap_or(0.0);
        assert!(
            l > f,
            "average ACC-dep should grow with more inputs: base {f:.3} -> max {l:.3}"
        );
    }

    #[test]
    fn fig13_rows_cover_extended_benchmarks() {
        let mut ctx = Context::new(Scale::Tiny);
        let t = run_fig13(&mut ctx);
        assert_eq!(t.len(), EXTENDED_BENCHMARKS.len());
    }
}
