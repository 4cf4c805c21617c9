//! `survey-cold` and `paper-cold`: cold sweeps on the engine.
//!
//! Every timed pass runs the whole grid on a fresh [`Engine`] with two
//! workers and an empty disk-cache directory, so nothing is served from a
//! cache tier. Throughput is total events over total timed seconds across
//! all passes of the run, which follows the host's slow speed drift far
//! better than any single pass.

use crate::layers::{self, SpanLog};
use crate::{host, per_layer, repeated_setup, stats, Args, EndToEnd, Outcome, RunDir};
use bpred::bitslice::SurveyFused;
use bpred::{AccuracyProfile, BranchPredictor, PredictorHost, PredictorKind, PredictorSim};
use btrace::RecordedTrace;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use twodprof_core::{ProfileReport, SliceConfig, Thresholds, TwoDProfiler};
use twodprof_engine::{
    full_grid, payload_checksum, Engine, EngineConfig, EngineCounters, JobKind, JobOutput, JobSpec,
    JobStatus, TraceRef,
};
use twodprof_obs::trace::{now_micros, Span};
use workloads::Scale;

/// Engine workers: the host has two cores.
const WORKERS: usize = 2;

/// Simulation jobs re-run through the scalar reference per run.
const CROSS_CHECKS: usize = 3;

/// Workload of the warm-up trio: its `train` trace is the largest (8.6M
/// events), so set-up does a few hundred milliseconds of real work, which
/// repeats far more closely than a few milliseconds would.
const WARM_UP: &str = "crafty";

#[derive(Clone, Copy)]
pub enum Grid {
    /// Count + accuracy + 2D for each bit-sliced survey kind on every trace.
    Survey,
    /// `full_grid(Scale::Small)`: the paper's gshare/perceptron grid.
    Paper,
}

impl Grid {
    fn specs(self) -> Vec<JobSpec> {
        match self {
            Grid::Paper => full_grid(Scale::Small),
            Grid::Survey => {
                let mut specs = Vec::new();
                for w in workloads::suite(Scale::Small) {
                    for input in w.input_sets() {
                        specs.push(JobSpec::count(w.name(), input.name, Scale::Small));
                        for kind in SurveyFused::KINDS {
                            specs.push(JobSpec::accuracy(w.name(), input.name, Scale::Small, kind));
                            specs.push(JobSpec::two_d(w.name(), input.name, Scale::Small, kind));
                        }
                    }
                }
                specs
            }
        }
    }

    /// Digest of every job payload in grid order. A change to any result
    /// byte changes it; a change that legitimately alters results must
    /// update it.
    fn pinned_digest(self) -> u64 {
        match self {
            Grid::Survey => 0xf74a_7153_caa9_6773,
            Grid::Paper => 0xdd4b_8d9c_47e3_fbc3,
        }
    }

    /// Exact engine counts per cold pass: traces recorded, replayed
    /// simulations, bit-sliced simulations.
    fn expected_counts(self) -> (u64, u64, u64) {
        match self {
            Grid::Survey => (66, 1320, 1320),
            Grid::Paper => (66, 156, 24),
        }
    }
}

/// An engine over an empty cache directory that is removed on drop.
struct ColdEngine {
    engine: Engine,
    dir: PathBuf,
}

impl ColdEngine {
    fn new(run: &Path) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = run.join(format!("cache-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
        let engine = Engine::new(EngineConfig {
            jobs: WORKERS,
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        assert!(
            engine.has_cache(),
            "cache directory {} unusable",
            dir.display()
        );
        Self { engine, dir }
    }
}

impl Drop for ColdEngine {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything a run needs before its first timed pass.
struct Setup {
    /// The grid in seeded submission order.
    ordered: Vec<JobSpec>,
    /// `ordered[i]` is grid entry `perm[i]`.
    perm: Vec<usize>,
    first: ColdEngine,
}

fn setup(grid: Grid, seed: u64, run: &Path) -> Setup {
    let specs = grid.specs();
    // The seed orders the jobs of each trace; the traces themselves keep
    // grid order. Trace order sets which large traces are serialized to the
    // cache while the whole trace memo is resident, and so the sweep's
    // memory peak: a seeded trace order would make `peak_rss_mb` a
    // property of the seed.
    let mut blocks: Vec<(JobSpec, Vec<usize>)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let trace = TraceRef::of_spec(spec).spec();
        match blocks.iter_mut().find(|(t, _)| *t == trace) {
            Some((_, jobs)) => jobs.push(i),
            None => blocks.push((trace, vec![i])),
        }
    }
    let mut rng = stats::rng(seed, 1);
    let mut perm = Vec::with_capacity(specs.len());
    for (_, mut jobs) in blocks {
        rng.shuffle(&mut jobs);
        perm.extend(jobs);
    }
    let ordered = perm.iter().map(|&i| specs[i].clone()).collect();
    // the untimed warm-up trio runs on its own engine so the first timed
    // pass still starts from empty memo and disk tiers
    let warm = ColdEngine::new(run);
    let k = PredictorKind::Gshare4Kb;
    let trio = [
        JobSpec::count(WARM_UP, "train", Scale::Small),
        JobSpec::accuracy(WARM_UP, "train", Scale::Small, k),
        JobSpec::two_d(WARM_UP, "train", Scale::Small, k),
    ];
    let ok = warm
        .engine
        .run_jobs(&trio)
        .iter()
        .all(|r| r.status.is_success());
    assert!(ok, "warm-up trio failed");
    Setup {
        ordered,
        perm,
        first: ColdEngine::new(run),
    }
}

/// One timed pass's results and figures.
struct Pass {
    timed: Duration,
    events: u64,
    busy: Duration,
    traced: bool,
}

pub fn run(args: &Args, grid: Grid, run_dir: &RunDir) -> Outcome {
    let dir = run_dir.path();
    let mut out = Outcome::default();
    let (setup, setup_s) = repeated_setup(|| setup(grid, args.seed, dir));
    let Setup {
        ordered,
        perm,
        first,
    } = setup;
    let jobs = ordered.len();
    let (want_traces, want_replays, want_sliced) = grid.expected_counts();

    let mut log = SpanLog::default();
    let mut next = Some(first);
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut last: Vec<Option<JobOutput>> = Vec::new();
    let mut counts = EngineCounters::default();
    let loop_start = Instant::now();
    // stop at the pass count that best fills the budget
    while passes.is_empty() || {
        let mean = passes.iter().map(|p| p.timed).sum::<Duration>() / passes.len() as u32;
        loop_start.elapsed() + mean / 2 < args.budget()
    } {
        let cold = next.take().unwrap_or_else(|| ColdEngine::new(dir));
        // the traced run alternates untraced and traced passes, so the
        // tracing overhead is measured inside one process
        let traced = args.trace && passes.len() % 2 == 1;
        log.discard();
        let from_us = now_micros();
        let t = Instant::now();
        let results = {
            let _span = traced.then(|| Span::root("bench.sweep.pass"));
            cold.engine.run_jobs(&ordered)
        };
        let timed = t.elapsed();
        if traced {
            log.keep_window(from_us, now_micros());
        }
        counts = cold.engine.counters();
        drop(cold);
        if passes.is_empty() {
            // the peak of one cold sweep in a fresh process, as a user
            // running it once sees; later passes would add the allocator's
            // leftovers from earlier ones
            peak_rss_mb = host::peak_rss_mb();
        }

        out.attempted += jobs as u64;
        let mut outputs: Vec<Option<JobOutput>> = vec![None; jobs];
        let mut busy = Duration::ZERO;
        let mut events = 0;
        let mut bad = 0u64;
        for (r, &i) in results.iter().zip(&perm) {
            busy += r.duration;
            events += r.events();
            match &r.status {
                JobStatus::Computed => outputs[i] = r.output.clone(),
                status => {
                    bad += 1;
                    if bad <= 3 {
                        out.errors
                            .push(format!("{}: {status:?} in a cold pass", r.spec.describe()));
                    }
                }
            }
        }
        let digest = digest(&outputs);
        if bad == 0 && digest != grid.pinned_digest() {
            // the digest cannot say which job differs: distrust the pass
            bad = jobs as u64;
            out.errors.push(format!(
                "pass {} payload digest {digest:#018x}, pinned {:#018x}",
                passes.len(),
                grid.pinned_digest()
            ));
        }
        out.failed += bad;
        out.check(
            (counts.traces_recorded, counts.replays, counts.bitsliced)
                == (want_traces, want_replays, want_sliced),
            || {
                format!(
                    "engine counts {counts:?}, want ({want_traces}, {want_replays}, {want_sliced})"
                )
            },
        );
        eprintln!(
            "[bench] pass {}: {:.3}s, {} events, peak rss {:.1} MB, digest {digest:#018x}{}",
            passes.len(),
            timed.as_secs_f64(),
            events,
            host::peak_rss_mb(),
            if traced { " (traced)" } else { "" }
        );
        passes.push(Pass {
            timed,
            events,
            busy,
            traced,
        });
        last = outputs;
    }
    let timed: Duration = passes.iter().map(|p| p.timed).sum();

    cross_check(args.seed, grid, &last, &mut out);

    if !args.trace {
        EndToEnd {
            setup_s,
            events: passes.iter().map(|p| p.events).sum(),
            timed,
            ops: passes.len() as u64,
            latencies: passes.iter().map(|p| p.timed).collect(),
            peak_rss_mb,
        }
        .report(&mut out);
        return out;
    }
    let probe = layers::probe_layers(&mut log, dir);
    let wall_us = passes
        .iter()
        .filter(|p| p.traced)
        .map(|p| p.timed.as_micros() as u64)
        .sum();
    let rollup = layers::Rollup::export(&log, &args.workload, args.seed, wall_us);
    let mut measured = probe.metrics(&rollup);
    let busy: Duration = passes.iter().map(|p| p.busy).sum();
    measured.extend([
        (
            "engine.worker_busy_share",
            busy.as_secs_f64() / (timed.as_secs_f64() * WORKERS as f64),
        ),
        ("engine.traces_recorded", counts.traces_recorded as f64),
        ("engine.replays", counts.replays as f64),
        ("engine.bitsliced", counts.bitsliced as f64),
    ]);
    measured.extend(rollup.shares());
    let rate = |traced: bool| {
        let (e, t) = passes
            .iter()
            .filter(|p| p.traced == traced)
            .fold((0, Duration::ZERO), |(e, t), p| (e + p.events, t + p.timed));
        e as f64 / t.as_secs_f64()
    };
    measured.extend(layers::overhead(rate(true), rate(false)));
    per_layer(&mut out, &measured);
    out
}

/// FNV-style fold of every payload checksum in grid order; a missing
/// output folds in as zero.
fn digest(outputs: &[Option<JobOutput>]) -> u64 {
    let mut bytes = Vec::with_capacity(outputs.len() * 8);
    for o in outputs {
        let sum = o.as_ref().map_or(0, |o| payload_checksum(&o.to_payload()));
        bytes.extend_from_slice(&sum.to_le_bytes());
    }
    payload_checksum(&bytes)
}

/// Re-simulates a seed-chosen sample of the last pass's simulation jobs
/// through the scalar `PredictorSim` / `TwoDProfiler` on a freshly recorded
/// trace, and compares the results field for field.
fn cross_check(seed: u64, grid: Grid, last: &[Option<JobOutput>], out: &mut Outcome) {
    let specs = grid.specs();
    let mut sims: Vec<usize> = (0..specs.len())
        .filter(|&i| matches!(specs[i].kind, JobKind::Accuracy(_) | JobKind::TwoD(_)))
        .collect();
    stats::rng(seed, 2).shuffle(&mut sims);
    for &i in sims.iter().take(CROSS_CHECKS) {
        let spec = &specs[i];
        out.attempted += 1;
        let w = workloads::by_name(&spec.workload, spec.scale).expect("grid workload");
        let input = w.input_set(&spec.input).expect("grid input");
        let mut trace = RecordedTrace::new(w.sites().len());
        w.run(&input, &mut trace);
        let same = match (spec.kind, &last[i]) {
            (JobKind::Accuracy(k), Some(JobOutput::Accuracy(got))) => {
                **got == k.host(ScalarAccuracy(&trace))
            }
            (JobKind::TwoD(k), Some(JobOutput::Report(got))) => {
                let want = k.host(ScalarTwoD(&trace));
                **got == want && got.to_bytes() == want.to_bytes()
            }
            _ => false,
        };
        eprintln!(
            "[bench] cross-check {}: {}",
            spec.describe(),
            if same { "ok" } else { "MISMATCH" }
        );
        if !same {
            out.failed += 1;
            out.errors.push(format!(
                "{} differs from the scalar reference",
                spec.describe()
            ));
        }
    }
}

/// The scalar reference accuracy simulation of one trace.
pub struct ScalarAccuracy<'a>(pub &'a RecordedTrace);

impl PredictorHost for ScalarAccuracy<'_> {
    type Out = AccuracyProfile;

    fn run<P: BranchPredictor + 'static>(self, predictor: P) -> AccuracyProfile {
        let mut sim = PredictorSim::new(self.0.num_sites(), predictor);
        self.0.replay_into(&mut sim);
        sim.into_profile()
    }
}

/// The scalar reference 2D-profiling run of one trace, with the slice
/// geometry the engine derives from the trace length.
pub struct ScalarTwoD<'a>(pub &'a RecordedTrace);

impl PredictorHost for ScalarTwoD<'_> {
    type Out = ProfileReport;

    fn run<P: BranchPredictor + 'static>(self, predictor: P) -> ProfileReport {
        let mut profiler = TwoDProfiler::new(
            self.0.num_sites(),
            predictor,
            SliceConfig::auto(self.0.events()),
        );
        self.0.replay_into(&mut profiler);
        profiler.finish(Thresholds::paper())
    }
}
