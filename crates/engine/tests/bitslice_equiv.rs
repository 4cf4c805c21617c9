//! Absolute-oracle equivalence suite for the engine's simulation path.
//!
//! Every accuracy and 2D job goes through one engine path, which serves a
//! trace's eligible jobs from a shared lane group and every other job
//! from a chunked scalar slot, one per kind. These tests hold both halves
//! to an oracle that involves no engine at all: the workload runs straight
//! into one [`PredictorSim`] or [`TwoDProfiler`]. Results must be *bit-identical* —
//! not merely "equal within floating-point tolerance" — at the
//! serialized-payload level, where every `f64` is compared by its exact
//! bit pattern.

use bpred::bitslice;
use bpred::{PredictorKind, PredictorSim};
use btrace::CountingTracer;
use std::sync::OnceLock;
use twodprof_core::{SliceConfig, Thresholds, TwoDProfiler};
use twodprof_engine::{Engine, EngineConfig, JobKind, JobOutput, JobResult, JobSpec, JobStatus};
use workloads::Scale;

/// Every tiny workload × the full SURVEY predictor sweep, as both an
/// accuracy profile and a 2D report — wider than `full_grid` (which spans
/// only the paper's two evaluation predictors) so that every lane-group
/// lane kind *and* every scalar kind rides through the engine, mixed on
/// the same traces.
fn survey_specs(workload: Option<&str>) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for w in workloads::suite(Scale::Tiny) {
        if workload.is_some_and(|name| name != w.name()) {
            continue;
        }
        for kind in PredictorKind::SURVEY {
            specs.push(JobSpec::accuracy(w.name(), "train", Scale::Tiny, kind));
            specs.push(JobSpec::two_d(w.name(), "train", Scale::Tiny, kind));
        }
    }
    specs
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    })
}

/// The reference result of a simulation spec: the workload runs straight
/// into one predictor — no recorded trace, no engine. A 2D profile takes
/// its slice configuration from the run length, counted by a first run.
fn oracle(spec: &JobSpec) -> Vec<u8> {
    let workload = workloads::by_name(&spec.workload, spec.scale).expect("known workload");
    let input = workload.input_set(&spec.input).expect("known input");
    let sites = workload.sites().len();
    let output = match spec.kind {
        JobKind::Accuracy(kind) => {
            let mut sim = PredictorSim::new(sites, kind.build());
            workload.run(&input, &mut sim);
            JobOutput::Accuracy(sim.into_profile().into())
        }
        JobKind::TwoD(kind) => {
            let mut counter = CountingTracer::new();
            workload.run(&input, &mut counter);
            let mut profiler =
                TwoDProfiler::new(sites, kind.build(), SliceConfig::auto(counter.count()));
            workload.run(&input, &mut profiler);
            JobOutput::Report(profiler.finish(Thresholds::paper()).into())
        }
        _ => unreachable!("the survey grid holds only simulation specs"),
    };
    output.to_payload()
}

/// Oracle payloads of [`survey_specs`]`(None)`, in spec order.
fn oracle_payloads() -> &'static [Vec<u8>] {
    static ORACLE: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    ORACLE.get_or_init(|| survey_specs(None).iter().map(oracle).collect())
}

/// Asserts that `results` carry, byte for byte, the oracle's payload for
/// every spec of the full survey grid, in spec order.
fn assert_matches_oracle(path: &str, results: &[JobResult]) {
    let specs = survey_specs(None);
    // the sweep must actually cover every workload × every SURVEY kind,
    // each as both an accuracy profile and a 2D report
    assert_eq!(
        results.len(),
        workloads::suite(Scale::Tiny).len() * PredictorKind::SURVEY.len() * 2,
        "oracle sweep lost coverage"
    );
    for ((r, spec), want) in results.iter().zip(&specs).zip(oracle_payloads()) {
        assert_eq!(r.spec, *spec, "results must come back in spec order");
        assert_eq!(r.status, JobStatus::Computed, "{}", spec.describe());
        assert!(
            r.output.as_ref().expect("computed output").to_payload() == *want,
            "{path} diverged from the oracle for {}",
            spec.describe()
        );
    }
}

/// One batch over the whole grid: each trace's eligible jobs share a lane
/// group and its perceptron, TAGE and loop jobs share scalar slots.
#[test]
fn batched_grid_matches_the_oracle() {
    let specs = survey_specs(None);
    let engine = engine();
    assert_matches_oracle("run_jobs", &engine.run_jobs(&specs));
    let c = engine.counters();
    assert_eq!(
        c.traces_recorded as usize,
        workloads::suite(Scale::Tiny).len(),
        "one recording per trace"
    );
    assert_eq!(c.replays as usize, specs.len(), "every simulation replayed");
    assert!(c.bitsliced > 0, "eligible kinds must ride the lane group");
}

/// Every spec on its own through `run_one`: a group of one, always served
/// by a scalar slot.
#[test]
fn lone_jobs_match_the_oracle() {
    let specs = survey_specs(None);
    let engine = engine();
    let results: Vec<JobResult> = specs.iter().map(|spec| engine.run_one(spec)).collect();
    assert_matches_oracle("run_one", &results);
    let c = engine.counters();
    assert_eq!(c.replays as usize, specs.len());
    assert_eq!(c.bitsliced, 0, "a lone job never forms a lane group");
}

/// The engine must report how jobs were served: eligible kinds on a trace
/// with two or more of them go through the lane group (and still count as
/// replays); a trace with a single eligible job keeps it on a scalar slot.
#[test]
fn counters_attribute_lane_group_jobs() {
    let specs = survey_specs(Some("gzip"));
    let eligible = specs
        .iter()
        .filter(|s| match s.kind {
            JobKind::Accuracy(k) | JobKind::TwoD(k) => bitslice::eligible(k),
            _ => false,
        })
        .count() as u64;
    assert!(eligible > 1, "SURVEY must contain lane-group kinds");

    let grid = engine();
    grid.run_jobs(&specs);
    let c = grid.counters();
    assert_eq!(c.bitsliced, eligible);
    assert!(
        c.replays > c.bitsliced,
        "scalar kinds must still replay outside the lane group"
    );

    let lone = engine();
    lone.run_jobs(&[JobSpec::accuracy(
        "gzip",
        "train",
        Scale::Tiny,
        PredictorKind::Gshare4Kb,
    )]);
    let c = lone.counters();
    assert_eq!((c.bitsliced, c.replays), (0, 1));
}

/// Runs `specs` (all on gzip's tiny `train` trace) as one batch and
/// asserts that every payload is the oracle's, byte for byte, that every
/// job counts as one replay, and that `bitsliced` of them rode the lane
/// group.
fn assert_one_trace_batch_matches_the_oracle(path: &str, specs: &[JobSpec], bitsliced: u64) {
    let engine = engine();
    let results = engine.run_jobs(specs);
    for (r, spec) in results.iter().zip(specs) {
        assert_eq!(r.spec, *spec, "results must come back in spec order");
        assert_eq!(r.status, JobStatus::Computed, "{}", spec.describe());
        assert!(
            r.output.as_ref().expect("computed output").to_payload() == oracle(spec),
            "{path} diverged from the oracle for {}",
            spec.describe()
        );
    }
    let c = engine.counters();
    assert_eq!(c.traces_recorded, 1);
    assert_eq!(c.replays as usize, specs.len(), "one replay per job");
    assert_eq!(c.bitsliced, bitsliced);
}

/// One batch on one tiny trace where each scalar kind carries an accuracy
/// job, a 2D job and a duplicate of that 2D job. Each kind runs one scalar
/// simulation serving all three of its jobs; every payload must still be
/// the oracle's, and every job counts as one replay.
#[test]
fn shared_scalar_slots_match_the_oracle() {
    let mut specs = Vec::new();
    for kind in [PredictorKind::Perceptron16Kb, PredictorKind::Tage8Kb] {
        specs.push(JobSpec::accuracy("gzip", "train", Scale::Tiny, kind));
        specs.push(JobSpec::two_d("gzip", "train", Scale::Tiny, kind));
        specs.push(JobSpec::two_d("gzip", "train", Scale::Tiny, kind));
    }
    // no kind here is eligible for the lane group
    assert_one_trace_batch_matches_the_oracle("shared scalar slot", &specs, 0);
}

/// Lane groups that seat only some of the eligible kinds, so each kind
/// steps its own scalar predictor over the runs instead of riding the
/// fused pass: the gshare accuracy, 2D and duplicate 2D jobs the paper's
/// grid seats on every `train` trace, and a mix of five kinds' accuracy
/// and 2D jobs.
#[test]
fn partial_lane_groups_match_the_oracle() {
    let job = |kind, twod| {
        if twod {
            JobSpec::two_d("gzip", "train", Scale::Tiny, kind)
        } else {
            JobSpec::accuracy("gzip", "train", Scale::Tiny, kind)
        }
    };
    let paper = [
        job(PredictorKind::Gshare4Kb, false),
        job(PredictorKind::Gshare4Kb, true),
        job(PredictorKind::Gshare4Kb, true),
    ];
    assert_one_trace_batch_matches_the_oracle("gshare lane group", &paper, 3);
    let mixed = [
        job(PredictorKind::Bimodal1Kb, false),
        job(PredictorKind::Local4Kb, true),
        job(PredictorKind::Tournament4Kb, false),
        job(PredictorKind::Tournament4Kb, true),
        job(PredictorKind::StaticTaken, false),
    ];
    assert_one_trace_batch_matches_the_oracle("mixed lane group", &mixed, 5);
}
