//! `repro` — regenerates every table and figure of the paper.
//!
//! Run `repro --help` for the flags and the experiment list; `all` (the
//! default) runs every experiment and `detail <workload>` drills into one
//! benchmark. The daemon and its client are the `twodprofd` and
//! `twodprof-client` binaries of the `twodprof-serve` crate.

use experiments::{
    ablation, bias_cmp, detail, fig02, fig03, fig04_05, fig06_07, fig08, fig10, fig11_14, fig12_13,
    fig15, fig16, table1, table2, table4, Context, PredictorKind, Table,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use twodprof_engine::{full_grid, Engine, EngineConfig, JobBackend, JobStatus};
use twodprof_fabric::{FabricConfig, RemoteBackend};
use twodprof_serve::cli;
use twodprof_serve::flags::{self, flag, switch, Command, Flag};
use workloads::Scale;

struct Args {
    scale: Scale,
    out: Option<PathBuf>,
    jobs: usize,
    cache_dir: Option<PathBuf>,
    metrics: bool,
    trace_out: Option<PathBuf>,
    nodes: Vec<String>,
    experiments: Vec<String>,
}

const ALL: &[&str] = &[
    "fig2", "fig3", "fig4", "fig5", "table1", "table2", "fig6", "fig7", "fig8", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "table4", "fig16", "ablation", "bias2d", "predcmp",
];

const FLAGS: &[Flag] = &[
    flag("--scale", "tiny|small|full", "scale (default full)"),
    flag("--out", "DIR", "also write every table as CSV under DIR"),
    flag("--jobs", "N", "worker threads (0 = the machine's CPUs)"),
    flag("--cache-dir", "DIR", "cache dir (default .twodprof-cache)"),
    switch("--no-cache", "run without the result cache"),
    switch("--metrics", "dump the metrics snapshot to stderr at exit"),
    flag("--trace-out", "PATH", "write the span trace as Chrome JSON"),
    flag("--node", "HOST:PORT", "remote compute node (repeatable)"),
];

/// Parses the experiment runner's arguments.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let about = format!(
        "experiments: {} all\n\
         drill-down: detail WORKLOAD\n\
         each --node adds a compute node; with any, the sweep runs remotely and its\n\
         results stay byte-identical to a local run",
        ALL.join(" ")
    );
    let cmd = Command {
        name: "repro",
        positionals: &["EXPERIMENT..."],
        about: &about,
        flags: FLAGS,
    };
    let m = flags::parse(&cmd, args)?;
    let mut experiments = Vec::new();
    let mut names = m.positionals().iter();
    while let Some(&name) = names.next() {
        match name {
            "all" => experiments.extend(ALL.iter().map(|s| (*s).to_owned())),
            e if ALL.contains(&e) => experiments.push(e.to_owned()),
            "detail" => {
                let w = names.next().ok_or("detail needs a workload name")?;
                experiments.push(format!("detail:{w}"));
            }
            other => return Err(format!("unknown experiment {other:?} (try --help)")),
        }
    }
    if experiments.is_empty() {
        experiments.extend(ALL.iter().map(|s| (*s).to_owned()));
    }
    let cache_dir = m.value("--cache-dir").unwrap_or(".twodprof-cache");
    Ok(Args {
        scale: cli::scale(&m, Scale::Full)?,
        out: m.value("--out").map(PathBuf::from),
        jobs: m.numeric("--jobs")?.unwrap_or(0),
        cache_dir: (!m.switch("--no-cache")).then(|| cache_dir.into()),
        metrics: m.switch("--metrics"),
        trace_out: m.value("--trace-out").map(PathBuf::from),
        nodes: m.values("--node").map(str::to_owned).collect(),
        experiments,
    })
}

fn emit(table: &Table, name: &str, out: &Option<PathBuf>) {
    println!("{}", table.render());
    if let Some(dir) = out {
        if let Err(e) = table.write_csv(dir, name) {
            eprintln!("warning: failed to write {name}.csv: {e}");
        }
    }
}

fn main() -> ExitCode {
    cli::dispatch("repro", &[], Some(run))
}

/// Runs the experiments the arguments name.
fn run(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    // the root span covers engine construction through the last experiment;
    // every engine/context span nests under it in the exported timeline
    let root = args
        .trace_out
        .is_some()
        .then(|| twodprof_obs::trace::Span::root("repro.run"));
    let engine_config = EngineConfig {
        jobs: args.jobs,
        cache_dir: args.cache_dir.clone(),
        progress: true,
    };
    // backend choice goes to stderr: every simulated table is byte-identical
    // across --jobs settings and backends (only fig16's wall-clock figure
    // carries noise)
    let mut ctx = if args.nodes.is_empty() {
        let engine = Engine::new(engine_config);
        eprintln!("[engine] {} worker(s)", engine.worker_count());
        Context::with_engine(args.scale, engine)
    } else {
        let backend = RemoteBackend::new(FabricConfig {
            nodes: args.nodes.clone(),
            fallback: engine_config,
            ..FabricConfig::default()
        });
        eprintln!("[engine] {}", backend.describe());
        Context::with_backend(args.scale, Arc::new(backend))
    };
    println!(
        "# 2D-profiling reproduction — scale {:?}, {} experiment(s)\n",
        args.scale,
        args.experiments.len()
    );
    // a full run's job grid is known up front: sweep it on the worker pool
    // so individual experiments afterwards only hit warm memory
    if ALL.iter().all(|e| args.experiments.iter().any(|x| x == e)) {
        let specs = full_grid(args.scale);
        let start = std::time::Instant::now();
        let results = ctx.prewarm(&specs);
        let (mut computed, mut cached, mut failed) = (0usize, 0usize, 0usize);
        for r in &results {
            match &r.status {
                JobStatus::Computed => computed += 1,
                JobStatus::Cached => cached += 1,
                JobStatus::Failed(msg) => {
                    failed += 1;
                    eprintln!("[engine] job {} FAILED: {msg}", r.spec.describe());
                }
            }
        }
        eprintln!(
            "[engine] sweep of {} jobs in {:.1?}: {computed} computed · {cached} cached · {failed} failed",
            results.len(),
            start.elapsed()
        );
    }
    // Figures 6 and 7 come from one measurement of both example branches
    let mut fig06_07_tables = None;
    for e in &args.experiments {
        let start = std::time::Instant::now();
        match e.as_str() {
            "fig2" => {
                emit(&fig02::run(), "fig2", &args.out);
                println!(
                    "crossover misprediction rate: {:.2}% (paper: ~7%)\n",
                    fig02::crossover() * 100.0
                );
            }
            "fig3" => emit(&fig03::run(&mut ctx), "fig3", &args.out),
            "fig4" => emit(&fig04_05::run_fig4(&mut ctx), "fig4", &args.out),
            "fig5" => emit(&fig04_05::run_fig5(&mut ctx), "fig5", &args.out),
            "table1" => emit(&table1::run(&mut ctx), "table1", &args.out),
            "table2" => emit(&table2::run(&mut ctx), "table2", &args.out),
            "fig6" | "fig7" => {
                let tables = fig06_07_tables.get_or_insert_with(|| fig06_07::run(&mut ctx));
                emit(&tables[usize::from(e == "fig7")], e, &args.out);
            }
            "fig8" => {
                let pair = fig08::compute(&mut ctx, "gap");
                emit(&fig08::run(&pair), "fig8", &args.out);
                let (dep, indep) = fig08::phase_summary(&pair);
                let fmt = |ps: &[twodprof_core::Phase]| {
                    ps.iter()
                        .map(|p| format!("[{}..{}) {:.2}", p.start, p.end, p.mean))
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                println!(
                    "detected phases — dependent branch: {} | independent branch: {}
",
                    fmt(&dep),
                    fmt(&indep)
                );
            }
            "fig10" => emit(&fig10::run(&mut ctx), "fig10", &args.out),
            "fig11" => emit(
                &fig11_14::run(&mut ctx, PredictorKind::Gshare4Kb),
                "fig11",
                &args.out,
            ),
            "fig12" => emit(&fig12_13::run_fig12(&mut ctx), "fig12", &args.out),
            "fig13" => emit(&fig12_13::run_fig13(&mut ctx), "fig13", &args.out),
            "fig14" => emit(
                &fig11_14::run(&mut ctx, PredictorKind::Perceptron16Kb),
                "fig14",
                &args.out,
            ),
            "fig15" => emit(&fig15::run(&mut ctx), "fig15", &args.out),
            "table4" => emit(&table4::run(&mut ctx), "table4", &args.out),
            "fig16" => emit(&fig16::run(&mut ctx, 7), "fig16", &args.out),
            "ablation" => {
                emit(
                    &ablation::run_thresholds(&mut ctx),
                    "ablation_thresholds",
                    &args.out,
                );
                emit(&ablation::run_slice(&mut ctx), "ablation_slice", &args.out);
                emit(
                    &ablation::run_tests_onoff(&mut ctx),
                    "ablation_tests",
                    &args.out,
                );
                emit(&ablation::run_delta(&mut ctx), "ablation_delta", &args.out);
            }
            "bias2d" => emit(&bias_cmp::run(&mut ctx), "bias2d", &args.out),
            "predcmp" => emit(
                &experiments::predictors_cmp::run(&mut ctx),
                "predcmp",
                &args.out,
            ),
            other if other.starts_with("detail:") => {
                let w = &other["detail:".len()..];
                emit(&detail::run(&mut ctx, w), &format!("detail_{w}"), &args.out);
            }
            other => unreachable!("validated experiment {other}"),
        }
        eprintln!("[{e} done in {:.1?}]", start.elapsed());
    }
    if args.metrics {
        // stderr, so table/CSV output on stdout stays byte-stable
        eprint!(
            "# process metrics snapshot\n{}",
            twodprof_obs::global().snapshot().to_text()
        );
    }
    if let (Some(path), Some(root)) = (&args.trace_out, root) {
        let trace_id = root.trace();
        root.finish();
        let collector = twodprof_obs::trace::collector();
        collector.flush();
        let spans = collector.collect_trace(trace_id);
        let doc = twodprof_obs::chrome::to_json(&spans, &[(1, "repro")]);
        match std::fs::write(path, doc) {
            Ok(()) => eprintln!(
                "[repro] wrote {} span(s) of trace {:032x} to {}",
                spans.len(),
                trace_id,
                path.display()
            ),
            Err(e) => return Err(format!("cannot write {}: {e}", path.display())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    /// Every flag `repro` accepted before its parse table, with a sample
    /// value for a flag that takes one and `None` for a switch (`--backend`
    /// is gone: see below).
    const ACCEPTED: &[(&str, Option<&str>)] = &[
        ("--scale", Some("tiny")),
        ("--out", Some("out")),
        ("--jobs", Some("2")),
        ("--cache-dir", Some("cache")),
        ("--no-cache", None),
        ("--metrics", None),
        ("--trace-out", Some("t.json")),
        ("--node", Some("127.0.0.1:1")),
    ];

    #[test]
    fn every_flag_accepted_before_the_table_still_parses_with_its_arity() {
        assert_eq!(FLAGS.len(), ACCEPTED.len(), "a flag was added");
        for &(flag, value) in ACCEPTED {
            let mut line = args(&[flag]);
            if let Some(v) = value {
                let missing = parse_args(&line).err();
                assert_eq!(missing, Some(format!("{flag} needs a value")));
                line.push(v.to_owned());
            }
            line.push("fig2".to_owned());
            let parsed = parse_args(&line).unwrap_or_else(|e| panic!("{flag}: {e}"));
            assert_eq!(parsed.experiments, ["fig2"]);
        }
    }

    #[test]
    fn backend_is_gone_and_nodes_alone_select_the_remote_sweep() {
        let err = parse_args(&args(&["--backend", "remote"])).err();
        assert_eq!(
            err.as_deref(),
            Some("unknown argument \"--backend\" (try --help)")
        );
        let parsed = parse_args(&args(&["--node", "a:1", "detail", "gzip", "--node", "b:2"]))
            .expect("valid");
        assert_eq!(parsed.nodes, ["a:1", "b:2"]);
        assert_eq!(parsed.experiments, ["detail:gzip"]);
        assert!(parse_args(&[]).expect("defaults").nodes.is_empty());
        let cache = |line: &[&str]| parse_args(&args(line)).expect("valid").cache_dir;
        assert_eq!(cache(&[]), Some(PathBuf::from(".twodprof-cache")));
        assert_eq!(cache(&["--cache-dir", "c"]), Some(PathBuf::from("c")));
        assert_eq!(cache(&["--cache-dir", "c", "--no-cache"]), None);
    }
}
