//! The disk cache's layout, pinned end to end: a cold batch leaves one
//! trace entry and one results file per trace and no temp files; every bit
//! flip and every truncation of either file reads as `Corrupt`; a corrupt
//! results file has every spec in it recomputed and is rewritten whole;
//! concurrent `run_one` stores into one results file all survive; and a
//! fresh engine serves a warm batch entirely from disk.

use bpred::{Gshare, PredictorKind, PredictorSim};
use btrace::{RecordedTrace, SiteId};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use twodprof_core::{SliceConfig, Thresholds, TwoDProfiler};
use twodprof_engine::{
    CacheLookup, DiskCache, Engine, EngineConfig, JobOutput, JobResult, JobSpec, JobStatus,
    TraceRef, CACHE_SCHEMA_VERSION,
};
use workloads::Scale;

/// Cheap kinds: the tests are about files, not simulation.
const KINDS: [PredictorKind; 4] = [
    PredictorKind::Gshare4Kb,
    PredictorKind::Bimodal1Kb,
    PredictorKind::GAg1Kb,
    PredictorKind::StaticTaken,
];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "twodprof_cache_format_{tag}_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn engine(dir: &Path) -> Engine {
    Engine::new(EngineConfig {
        jobs: 2,
        cache_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    })
}

/// A count, and an accuracy and a 2D job per kind, on `workload`'s train
/// trace.
fn trace_jobs(workload: &str) -> Vec<JobSpec> {
    let mut specs = vec![JobSpec::count(workload, "train", Scale::Tiny)];
    for kind in KINDS {
        specs.push(JobSpec::accuracy(workload, "train", Scale::Tiny, kind));
        specs.push(JobSpec::two_d(workload, "train", Scale::Tiny, kind));
    }
    specs
}

/// File names in the cache's versioned directory.
fn cache_files(dir: &Path) -> Vec<String> {
    let root = dir.join(format!("v{CACHE_SCHEMA_VERSION}"));
    let mut names: Vec<String> = fs::read_dir(root)
        .expect("cache dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn assert_all(results: &[JobResult], status: &JobStatus) {
    for r in results {
        assert_eq!(&r.status, status, "{}", r.spec.describe());
    }
}

fn assert_same_outputs(a: &[JobResult], b: &[JobResult]) {
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.output, b.output, "{} differs", a.spec.describe());
    }
}

#[test]
fn cold_batch_writes_one_trace_entry_and_one_results_file_per_trace() {
    let dir = tmpdir("layout");
    let mut specs = trace_jobs("gzip");
    specs.extend(trace_jobs("mcf"));
    specs.push(JobSpec::trace("gzip", "train", Scale::Tiny));
    let cold = engine(&dir).run_jobs(&specs);
    assert_all(&cold, &JobStatus::Computed);

    let files = cache_files(&dir);
    let count = |part: &str| files.iter().filter(|n| n.contains(part)).count();
    assert_eq!(count("-trace-"), 2, "{files:?}");
    assert_eq!(count("-results-"), 2, "{files:?}");
    assert_eq!(count(".tmp-"), 0, "{files:?}");
    assert_eq!(files.len(), 4, "{files:?}");

    // a fresh engine serves everything from disk, the trace job included
    let warm = engine(&dir);
    let served = warm.run_jobs(&specs);
    assert_all(&served, &JobStatus::Cached);
    assert_same_outputs(&cold, &served);
    let counters = warm.counters();
    assert_eq!(counters.computed, 0);
    assert_eq!(counters.cached, specs.len() as u64);
    assert_eq!(counters.traces_recorded, 0);
    let _ = fs::remove_dir_all(&dir);
}

fn small_trace() -> RecordedTrace {
    let mut t = RecordedTrace::new(3);
    for i in 0..150u32 {
        t.push(SiteId(i % 3), i % 5 != 0);
    }
    t
}

/// `path`'s every single-bit flip and every strict prefix must make each
/// of `specs` read as `Corrupt`.
fn assert_every_corruption_is_caught(cache: &DiskCache, path: &Path, specs: &[JobSpec]) {
    let clean = fs::read(path).expect("entry");
    let corrupt = |what: String| {
        for spec in specs {
            match cache.lookup(spec) {
                CacheLookup::Corrupt => {}
                other => panic!("{what}: {} read as {other:?}", spec.describe()),
            }
        }
    };
    for byte in 0..clean.len() {
        for bit in 0..8 {
            let mut flipped = clean.clone();
            flipped[byte] ^= 1 << bit;
            fs::write(path, &flipped).expect("write");
            corrupt(format!("bit {bit} of byte {byte}"));
        }
    }
    for len in 0..clean.len() {
        fs::write(path, &clean[..len]).expect("write");
        corrupt(format!("prefix of {len} bytes"));
    }
    fs::write(path, &clean).expect("write");
}

#[test]
fn every_bit_flip_and_truncation_reads_corrupt() {
    let dir = tmpdir("corrupt");
    let cache = DiskCache::open(&dir).expect("cache dir");
    let trace = JobSpec::trace("gzip", "train", Scale::Tiny);
    cache
        .store(&trace, &JobOutput::Trace(Arc::new(small_trace())))
        .expect("store trace");
    assert_every_corruption_is_caught(
        &cache,
        &cache.entry_path(&trace),
        std::slice::from_ref(&trace),
    );

    let kind = PredictorKind::Gshare4Kb;
    let mut sim = PredictorSim::new(3, Gshare::new(8, 8));
    small_trace().replay_into(&mut sim);
    let mut profiler = TwoDProfiler::new(3, Gshare::new(8, 8), SliceConfig::new(50, 2));
    small_trace().replay_into(&mut profiler);
    let results = [
        (
            JobSpec::count("gzip", "train", Scale::Tiny),
            JobOutput::Count(150),
        ),
        (
            JobSpec::accuracy("gzip", "train", Scale::Tiny, kind),
            JobOutput::Accuracy(Arc::new(sim.into_profile())),
        ),
        (
            JobSpec::two_d("gzip", "train", Scale::Tiny, kind),
            JobOutput::Report(Arc::new(profiler.finish(Thresholds::paper()))),
        ),
    ];
    let pairs: Vec<(&JobSpec, &JobOutput)> = results.iter().map(|(s, o)| (s, o)).collect();
    cache.store_all(&pairs).expect("store results");
    let specs: Vec<JobSpec> = results.iter().map(|(s, _)| s.clone()).collect();
    assert_every_corruption_is_caught(&cache, &cache.entry_path(&specs[0]), &specs);
    // the restored file serves every record again
    for (spec, output) in &results {
        match cache.lookup(spec) {
            CacheLookup::Hit(hit) => assert_eq!(&hit, output),
            other => panic!("{}: {other:?}", spec.describe()),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_results_file_is_recomputed_and_rewritten_whole() {
    let dir = tmpdir("rewrite");
    let specs = trace_jobs("gzip");
    let cold = engine(&dir).run_jobs(&specs);
    assert_all(&cold, &JobStatus::Computed);
    let cache = DiskCache::open(&dir).expect("cache dir");
    let path = cache.entry_path(&specs[0]);
    let clean = fs::read(&path).expect("results file");
    let mut flipped = clean.clone();
    flipped[clean.len() / 2] ^= 0x10;
    fs::write(&path, &flipped).expect("write");

    let recovering = engine(&dir);
    let recomputed = recovering.run_jobs(&specs);
    assert_all(&recomputed, &JobStatus::Computed);
    assert_same_outputs(&cold, &recomputed);
    assert_eq!(
        recovering.counters().traces_recorded,
        0,
        "the intact trace entry is reused"
    );
    assert_eq!(fs::read(&path).expect("results file"), clean);

    let warm = engine(&dir).run_jobs(&specs);
    assert_all(&warm, &JobStatus::Cached);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_run_one_stores_into_one_file_all_survive() {
    let specs = trace_jobs("gzip");
    // a lost merge needs an unlucky interleaving, so race several times
    for round in 0..16 {
        let dir = tmpdir(&format!("concurrent{round}"));
        let shared = engine(&dir);
        // record the trace first, so the threads race on the results file
        shared.trace(&TraceRef::of_spec(&specs[0]));
        std::thread::scope(|scope| {
            for chunk in specs.chunks(specs.len().div_ceil(4)) {
                let shared = &shared;
                scope.spawn(move || {
                    for spec in chunk {
                        assert_eq!(shared.run_one(spec).status, JobStatus::Computed);
                    }
                });
            }
        });
        let cache = DiskCache::open(&dir).expect("cache dir");
        for spec in &specs {
            assert!(
                matches!(cache.lookup(spec), CacheLookup::Hit(_)),
                "round {round}: {} was lost",
                spec.describe()
            );
        }
        assert!(!cache_files(&dir).iter().any(|n| n.contains(".tmp-")));
        let warm = engine(&dir).run_jobs(&specs);
        assert_all(&warm, &JobStatus::Cached);
        let _ = fs::remove_dir_all(&dir);
    }
}
