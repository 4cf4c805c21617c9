//! End-to-end engine guarantees: determinism across worker counts, disk
//! cache persistence across engine instances, and per-job fault isolation.

use bpred::PredictorKind;
use std::fs;
use std::path::PathBuf;
use twodprof_engine::{
    full_grid, Engine, EngineConfig, JobOutput, JobSpec, JobStatus, CACHE_SCHEMA_VERSION,
};
use workloads::Scale;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("twodprof_sweep_test_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn engine(jobs: usize, cache_dir: Option<PathBuf>) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        cache_dir,
        ..EngineConfig::default()
    })
}

/// The simulations are deterministic, so a parallel sweep must produce
/// bit-identical results to a sequential one — for every workload, every
/// input, every job kind.
#[test]
fn parallel_sweep_matches_sequential() {
    let specs = full_grid(Scale::Tiny);
    let sequential = engine(1, None).run_jobs(&specs);
    let parallel = engine(4, None).run_jobs(&specs);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.spec, p.spec, "results must come back in spec order");
        assert_eq!(s.status, JobStatus::Computed, "{}", s.spec.describe());
        assert_eq!(p.status, JobStatus::Computed, "{}", p.spec.describe());
        assert_eq!(s.output, p.output, "{} diverged", s.spec.describe());
    }
}

/// Results stored by one engine must be served as cache hits — with
/// identical payloads — by a fresh engine opened on the same directory.
#[test]
fn cache_round_trips_across_engines() {
    let dir = tmpdir("roundtrip");
    let specs: Vec<JobSpec> = full_grid(Scale::Tiny)
        .into_iter()
        .filter(|s| s.workload == "gzip")
        .collect();
    assert!(!specs.is_empty());
    let first = engine(2, Some(dir.clone())).run_jobs(&specs);
    assert!(first.iter().all(|r| r.status == JobStatus::Computed));

    let warm = engine(2, Some(dir.clone()));
    let second = warm.run_jobs(&specs);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(b.status, JobStatus::Cached, "{}", b.spec.describe());
        assert_eq!(a.output, b.output, "{} corrupted", a.spec.describe());
    }
    let counters = warm.counters();
    assert_eq!(counters.computed, 0);
    // every sweep spec comes back from the disk cache, and no trace is
    // read: no job needs one
    assert_eq!(counters.cached, specs.len() as u64);
    assert_eq!(counters.traces_recorded, 0, "warm engine records nothing");
    let _ = fs::remove_dir_all(&dir);
}

/// A warm batch fetches no trace: with every trace entry deleted from a
/// warm cache, a fresh engine still serves every spec from its own entry
/// and records nothing.
#[test]
fn warm_batch_needs_no_trace_entries() {
    let dir = tmpdir("no_traces");
    let specs: Vec<JobSpec> = full_grid(Scale::Tiny)
        .into_iter()
        .filter(|s| s.workload == "gzip")
        .collect();
    let first = engine(2, Some(dir.clone())).run_jobs(&specs);
    assert!(first.iter().all(|r| r.status == JobStatus::Computed));

    let mut deleted = 0;
    for entry in fs::read_dir(dir.join(format!("v{CACHE_SCHEMA_VERSION}"))).expect("cache dir") {
        let path = entry.expect("cache entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.contains("-trace-") && name.ends_with(".bin") {
            fs::remove_file(&path).expect("delete trace entry");
            deleted += 1;
        }
    }
    assert!(deleted > 0, "the first batch must have cached its traces");

    let warm = engine(2, Some(dir.clone()));
    let second = warm.run_jobs(&specs);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(b.status, JobStatus::Cached, "{}", b.spec.describe());
        assert_eq!(a.output, b.output, "{} corrupted", a.spec.describe());
    }
    assert_eq!(warm.counters().traces_recorded, 0, "no trace re-recorded");
    let _ = fs::remove_dir_all(&dir);
}

/// A job that panics (here: every job on a workload the registry doesn't
/// know — its count, an accuracy and a 2D simulation) is reported `Failed`
/// with the panic message, while its siblings complete normally.
#[test]
fn panicking_job_is_isolated() {
    let unknown = "no-such-workload";
    let kind = PredictorKind::Gshare4Kb;
    let specs = vec![
        JobSpec::count("gzip", "train", Scale::Tiny),
        JobSpec::count(unknown, "train", Scale::Tiny),
        JobSpec::count("gap", "train", Scale::Tiny),
        JobSpec::accuracy(unknown, "train", Scale::Tiny, kind),
        JobSpec::two_d(unknown, "train", Scale::Tiny, kind),
    ];
    let results = engine(2, None).run_jobs(&specs);
    assert_eq!(results.len(), specs.len());
    for i in [1, 3, 4] {
        match &results[i].status {
            JobStatus::Failed(msg) => {
                assert!(msg.contains(unknown), "unhelpful message {msg:?}")
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(results[i].output.is_none());
    }
    for i in [0, 2] {
        assert_eq!(results[i].status, JobStatus::Computed);
        assert!(matches!(results[i].output, Some(JobOutput::Count(n)) if n > 0));
    }
}
