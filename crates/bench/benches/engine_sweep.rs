//! Sequential vs parallel sweep throughput on the engine's full tiny-scale
//! job grid — quantifies the worker pool's speedup and its scheduling
//! overhead at one worker — plus the trace-once/simulate-many payoff:
//! the same multi-predictor grid swept with one shared recording per
//! trace versus a fresh engine per job.

use bpred::PredictorKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use twodprof_engine::{full_grid, Engine, EngineConfig, JobSpec};
use workloads::Scale;

fn bench_sweep(c: &mut Criterion) {
    let specs = full_grid(Scale::Tiny);
    // total dynamic branch events of one sweep, for Melem/s reporting
    let events: u64 = Engine::new(EngineConfig::default())
        .run_jobs(&specs)
        .iter()
        .map(|r| r.events())
        .sum();

    let mut group = c.benchmark_group("engine_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events));
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("tiny_grid", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let engine = Engine::new(EngineConfig {
                        jobs: workers,
                        ..EngineConfig::default()
                    });
                    engine.run_jobs(&specs).len()
                })
            },
        );
    }
    group.finish();
}

/// The table-predictor survey configurations — the characterization-sweep
/// shape trace-once is built for. Deliberately excludes perceptron and
/// TAGE: their per-event simulation cost (90–270 ns) dwarfs both stream
/// generation (4–14 ns) and decode (~1 ns), so a grid containing them
/// measures predictor arithmetic, not the trace pipeline.
const SURVEY_TABLE: [PredictorKind; 10] = [
    PredictorKind::Gshare4Kb,
    PredictorKind::Gshare1Kb,
    PredictorKind::Bimodal1Kb,
    PredictorKind::Bimodal4Kb,
    PredictorKind::GAg1Kb,
    PredictorKind::GAg4Kb,
    PredictorKind::Local4Kb,
    PredictorKind::Tournament4Kb,
    PredictorKind::StaticTaken,
    PredictorKind::StaticNotTaken,
];

/// The tiny-scale grid with every [`SURVEY_TABLE`] configuration simulated
/// per input: each workload input's branch stream is shared by twenty-one
/// jobs — a count, ten accuracy sims, and ten 2D profiles. This is the
/// full characterization sweep the paper's methodology implies (a 2D
/// profile per predictor per input data set), and the shape the fused
/// replay is built for: the accuracy and 2D job of one kind split a
/// single simulation, so the whole grid costs one recording and one
/// fused table pass per input.
fn survey_grid() -> Vec<JobSpec> {
    let scale = Scale::Tiny;
    let mut specs = Vec::new();
    for workload in workloads::suite(scale) {
        let name = workload.name();
        for input in workload.input_sets() {
            specs.push(JobSpec::count(name, input.name, scale));
            for kind in SURVEY_TABLE {
                specs.push(JobSpec::accuracy(name, input.name, scale, kind));
                specs.push(JobSpec::two_d(name, input.name, scale, kind));
            }
        }
    }
    specs
}

/// Trace-once/simulate-many versus the per-job path it replaces, single
/// worker, no disk cache. Two modes over the same survey grid:
///
/// - `record_per_job`: a fresh engine per job — every job records its own
///   trace and replays it alone, with nothing shared across jobs. This is
///   what "profile one (workload, input, predictor) at a time" costs, and
///   the baseline `scripts/trace_replay_gate.sh` gates against.
/// - `trace_once`: the redesigned default — each stream recorded once,
///   every simulation sharing one decode of the recorded buffer.
///
/// `scripts/trace_replay_gate.sh` parses this group and fails CI when
/// `trace_once` is less than 10x faster than `record_per_job`.
fn bench_trace_replay(c: &mut Criterion) {
    let specs = survey_grid();
    let mut group = c.benchmark_group("trace_replay");
    group.sample_size(10);
    group.bench_function("record_per_job", |b| {
        b.iter(|| {
            let mut n = 0;
            for spec in &specs {
                let engine = Engine::new(EngineConfig {
                    jobs: 1,
                    ..EngineConfig::default()
                });
                n += engine.run_jobs(std::slice::from_ref(spec)).len();
            }
            n
        })
    });
    group.bench_function("trace_once", |b| {
        b.iter(|| {
            let engine = Engine::new(EngineConfig {
                jobs: 1,
                ..EngineConfig::default()
            });
            engine.run_jobs(&specs).len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_trace_replay);
criterion_main!(benches);
