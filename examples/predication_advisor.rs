//! A compiler-style predication advisor — the use case the paper builds
//! 2D-profiling for (§2.1).
//!
//! Profiles a workload once (single input set), then prints
//! `twodprof_core::advise`'s treatment per branch:
//!
//! - **predicate** — equation (3) says predicated code wins and the branch
//!   is predicted input-*independent*, so the profile can be trusted;
//! - **keep-branch** — the branch code wins and the profile can be trusted;
//! - **wish-branch** — the branch is predicted input-*dependent*, so the
//!   compiler should leave the choice to a dynamic mechanism (the paper
//!   cites wish branches / dynamic optimizers);
//! - **keep-branch(no-data)** — too few counted slices to classify.

use twodprof::bpred::Gshare;
use twodprof::btrace::{EdgeProfiler, Tee};
use twodprof::core2d::{advise, CostModel, SliceConfig, Thresholds, TwoDProfiler};
use twodprof::workloads::{self, Scale};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gap".to_owned());
    let workload = workloads::by_name(&name, Scale::Small)
        .unwrap_or_else(|| panic!("unknown workload {name:?}"));
    let input = workload.input_set("train").expect("train exists");
    let model = CostModel::paper_example();

    // one profiling run feeding both the edge profile (taken rates for the
    // cost model) and the 2D profiler (input-dependence classification)
    let mut count = twodprof::btrace::CountingTracer::new();
    workload.run(&input, &mut count);
    let mut tee = Tee::new(
        EdgeProfiler::new(workload.sites().len()),
        TwoDProfiler::new(
            workload.sites().len(),
            Gshare::new_4kb(),
            SliceConfig::auto(count.count()),
        ),
    );
    workload.run(&input, &mut tee);
    let (edges, profiler) = tee.into_inner();
    let report = profiler.finish(Thresholds::paper());

    println!(
        "predication advice for {} (profiled once, on `{}`)\n",
        workload.name(),
        input.name
    );
    println!("{:<30} {:>9} {:>9}  advice", "branch", "taken", "misp");
    let taken_rates: Vec<Option<f64>> = edges.iter().map(|(_, e)| e.taken_rate()).collect();
    for (advice, decl) in advise(&report, &taken_rates, &model)
        .iter()
        .zip(workload.sites())
    {
        let Some(misp) = advice.misprediction_rate else {
            continue; // never executed
        };
        println!(
            "{:<30} {:>8.1}% {:>8.1}%  {}",
            decl.name,
            taken_rates[advice.site.index()].unwrap_or(0.0) * 100.0,
            misp * 100.0,
            advice.treatment
        );
    }
    println!(
        "\ncost model: exec_T={} exec_N={} exec_pred={} misp_penalty={} (Figure 2)",
        model.exec_taken, model.exec_not_taken, model.exec_predicated, model.misp_penalty
    );
}
