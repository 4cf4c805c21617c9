//! Figures 6 and 7: the paper's two example input-dependent branches,
//! measured on every input set from the engine's accuracy profiles and an
//! edge profile replayed from each input's recorded trace.
//!
//! Figure 6 is gap's `T_INT` type-check branch (`sum_operands_are_t_int` in
//! our gap analogue): ~90% predictable on the train mix, much worse when the
//! input contains many large values. Figure 7 is gzip's hash-chain loop-exit
//! branch (`hash_chain_exit`): its behaviour is set by `max_chain` from the
//! level-indexed `config_table`.

use crate::tablefmt::pct;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use btrace::SiteId;

fn site_named(w: &dyn workloads::Workload, name: &str) -> SiteId {
    let idx = w
        .sites()
        .iter()
        .position(|d| d.name == name)
        .unwrap_or_else(|| panic!("{} has no site {name:?}", w.name()));
    SiteId(idx as u32)
}

/// Per-input stats of one example branch.
#[derive(Clone, Debug)]
pub struct ExampleBranch {
    /// Input-set name.
    pub input: &'static str,
    /// Dynamic executions of the branch.
    pub executions: u64,
    /// Taken rate of the branch.
    pub taken_rate: f64,
    /// Misprediction rate under the 4 KB gshare.
    pub misprediction: f64,
}

/// Measures one named branch of one workload across all of its input sets.
pub fn measure(ctx: &mut Context, workload: &str, site_name: &str) -> Vec<ExampleBranch> {
    let w = ctx.workload(workload);
    let site = site_named(&*w, site_name);
    let mut out = Vec::new();
    for input in w.input_sets() {
        let profile = ctx.accuracy(
            ProfileRequest::accuracy(workload, PredictorKind::Gshare4Kb).input(input.name),
        );
        if profile.executions(site) == 0 {
            continue;
        }
        // taken rate via an edge profile of the same recorded run
        let trace = ctx.trace(ProfileRequest::count(workload).input(input.name));
        let mut edges = btrace::EdgeProfiler::new(trace.num_sites());
        trace.replay_into(&mut edges);
        out.push(ExampleBranch {
            input: input.name,
            executions: profile.executions(site),
            taken_rate: edges.edge(site).taken_rate().expect("executed"),
            misprediction: profile.misprediction_rate(site).expect("executed"),
        });
    }
    out
}

/// Renders the Figure 6 (gap type check) and Figure 7 (gzip chain exit)
/// tables.
pub fn run(ctx: &mut Context) -> Vec<Table> {
    let mut tables = Vec::new();
    for (title, workload, site) in [
        (
            "Figure 6: gap's T_INT type-check branch across input sets",
            "gap",
            "sum_operands_are_t_int",
        ),
        (
            "Figure 7: gzip's hash-chain loop-exit branch across input sets",
            "gzip",
            "hash_chain_exit",
        ),
    ] {
        let mut t = Table::new(title, &["input", "executions", "taken_rate", "misp_rate"]);
        for e in measure(ctx, workload, site) {
            t.row(vec![
                e.input.to_owned(),
                e.executions.to_string(),
                pct(Some(e.taken_rate)),
                pct(Some(e.misprediction)),
            ]);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    #[test]
    fn gap_type_check_shifts_between_train_and_ref() {
        let mut ctx = Context::new(Scale::Tiny);
        let rows = measure(&mut ctx, "gap", "sum_operands_are_t_int");
        let train = rows.iter().find(|r| r.input == "train").unwrap();
        let reference = rows.iter().find(|r| r.input == "ref").unwrap();
        // Figure 6's story: heavily taken (and well predicted) on train,
        // much less so on ref
        assert!(train.taken_rate > 0.75, "train {:.3}", train.taken_rate);
        assert!(
            reference.taken_rate < train.taken_rate - 0.2,
            "ref {:.3} vs train {:.3}",
            reference.taken_rate,
            train.taken_rate
        );
        assert!(
            reference.misprediction > train.misprediction,
            "ref must be harder to predict"
        );
    }

    #[test]
    fn gzip_chain_exit_tracks_compression_level() {
        let mut ctx = Context::new(Scale::Tiny);
        let rows = measure(&mut ctx, "gzip", "hash_chain_exit");
        // ext-6 is level 1 (max_chain 4), ref is level 9 (max_chain 4096)
        let level1 = rows.iter().find(|r| r.input == "ext-6").unwrap();
        let level9 = rows.iter().find(|r| r.input == "ref").unwrap();
        assert!(
            level9.taken_rate > level1.taken_rate,
            "longer chains keep the loop running: L1 {:.3} vs L9 {:.3}",
            level1.taken_rate,
            level9.taken_rate
        );
    }

    #[test]
    #[should_panic(expected = "has no site")]
    fn unknown_site_panics() {
        let mut ctx = Context::new(Scale::Tiny);
        let _ = measure(&mut ctx, "gap", "no_such_branch");
    }
}
