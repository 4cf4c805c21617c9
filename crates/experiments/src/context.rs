//! Shared experiment context: profile caching and ground-truth
//! construction behind the [`ProfileRequest`] API.
//!
//! The context simulates nothing itself, and experiments run no workload
//! (Figure 16, which times live instrumentation, is the one exception):
//! every run is named by a [`ProfileRequest`], resolved to a
//! content-addressed [`JobSpec`], and delegated to the context's
//! [`JobBackend`]. Experiments that need more than a report — a threshold
//! sweep, a bias or edge profile, a time series — reclassify a cached
//! report or replay the recorded trace from [`Context::trace`]. One
//! in-memory map — keyed by the spec's content hash — is a read-through
//! layer over the backend, holding `Arc`s so repeated lookups share one
//! allocation instead of cloning `O(sites)` payloads.

use bpred::AccuracyProfile;
pub use bpred::PredictorKind;
use btrace::RecordedTrace;
use std::collections::HashMap;
use std::sync::Arc;
use twodprof_core::{GroundTruth, ProfileReport, INPUT_DEPENDENCE_DELTA};
use twodprof_engine::{
    Engine, EngineConfig, JobBackend, JobOutput, JobResult, JobSpec, JobStatus, ProfileRequest,
};
use workloads::{Scale, Workload};

/// Shared state for all experiments: the workload scale, the
/// input-dependence parameters, the job backend, and a read-through cache
/// of per-run results so each simulation is requested from the backend
/// exactly once per context (and, with a disk cache, computed once ever).
pub struct Context {
    scale: Scale,
    min_exec: u64,
    backend: Arc<dyn JobBackend>,
    /// Finished outputs keyed by [`JobSpec::content_hash`].
    results: HashMap<u64, JobOutput>,
}

impl Context {
    /// Creates a context at the given workload scale, with an in-process
    /// engine (no disk cache, no progress output) — the hermetic
    /// configuration unit tests want.
    pub fn new(scale: Scale) -> Self {
        Self::with_engine(scale, Engine::new(EngineConfig::default()))
    }

    /// Creates a context that delegates simulation to `engine` (typically
    /// configured with a worker pool and a persistent cache by the `repro`
    /// binary).
    pub fn with_engine(scale: Scale, engine: Engine) -> Self {
        Self::with_backend(scale, Arc::new(engine))
    }

    /// Creates a context that delegates simulation to an arbitrary
    /// [`JobBackend`] — an in-process engine, or a
    /// `twodprof_fabric::RemoteBackend` fanning jobs out to compute
    /// daemons. Backends are interchangeable: results are pure functions
    /// of their specs, so every experiment is byte-identical regardless of
    /// where it ran.
    pub fn with_backend(scale: Scale, backend: Arc<dyn JobBackend>) -> Self {
        // the eligibility floor scales with run length, mirroring how the
        // paper's 1000-executions threshold relates to its 15M-branch slices
        let min_exec = match scale {
            Scale::Tiny => 50,
            Scale::Small => 150,
            Scale::Full => 400,
        };
        Self {
            scale,
            min_exec,
            backend,
            results: HashMap::new(),
        }
    }

    /// The context's workload scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Minimum per-run executions for a branch to enter ground truth.
    pub fn min_exec(&self) -> u64 {
        self.min_exec
    }

    /// The full workload suite at this context's scale.
    pub fn suite(&self) -> Vec<Box<dyn Workload>> {
        workloads::suite(self.scale)
    }

    /// One workload by name.
    ///
    /// # Panics
    ///
    /// Panics if the name is not in the suite.
    pub fn workload(&self, name: &str) -> Box<dyn Workload> {
        workloads::by_name(name, self.scale).unwrap_or_else(|| panic!("unknown workload {name:?}"))
    }

    /// Runs `specs` on the backend and absorbs every successful result
    /// into the in-memory map, so later lookups are pure cache hits.
    /// Returns the per-job results (the `repro` binary reports their
    /// status counts).
    pub fn prewarm(&mut self, specs: &[JobSpec]) -> Vec<JobResult> {
        let _sp = twodprof_obs::span!("context.prewarm");
        let results = self.backend.run_jobs(specs);
        for result in &results {
            self.absorb(result);
        }
        results
    }

    fn absorb(&mut self, result: &JobResult) {
        if let Some(output) = &result.output {
            // recorded traces stay in the engine's tiers; the context only
            // caches simulation results
            if !matches!(output, JobOutput::Trace(_)) {
                self.results
                    .insert(result.spec.content_hash(), output.clone());
            }
        }
    }

    /// Resolves a request to its output through the read-through cache.
    fn resolve(&mut self, spec: &JobSpec) -> JobOutput {
        if let Some(output) = self.results.get(&spec.content_hash()) {
            return output.clone();
        }
        let _sp = twodprof_obs::span!("context.resolve");
        let output = Self::expect_output(self.backend.run_one(spec));
        self.results.insert(spec.content_hash(), output.clone());
        output
    }

    /// Unwraps a single job result, panicking with the job's own message on
    /// failure — the same contract the pre-engine context had.
    fn expect_output(result: JobResult) -> JobOutput {
        match result.status {
            JobStatus::Failed(message) => {
                panic!("job {} failed: {message}", result.spec.describe())
            }
            _ => result.output.expect("successful job has output"),
        }
    }

    /// Total dynamic conditional branches of a [`ProfileRequest::count`]
    /// request, cached.
    pub fn count(&mut self, req: ProfileRequest) -> u64 {
        let spec = req.to_spec(self.scale);
        match self.resolve(&spec) {
            JobOutput::Count(n) => n,
            other => unreachable!("{} returned {other:?}", spec.describe()),
        }
    }

    /// Per-branch accuracy profile of a [`ProfileRequest::accuracy`]
    /// request, cached across experiments. The `Arc` is shared with the
    /// cache — hits cost a reference count, not an `O(sites)` clone.
    pub fn accuracy(&mut self, req: ProfileRequest) -> Arc<AccuracyProfile> {
        let spec = req.to_spec(self.scale);
        match self.resolve(&spec) {
            JobOutput::Accuracy(p) => p,
            other => unreachable!("{} returned {other:?}", spec.describe()),
        }
    }

    /// Full 2D-profiling report of a [`ProfileRequest::two_d`] request,
    /// with an auto-scaled slice configuration and the paper's thresholds.
    /// Cached like [`accuracy`](Self::accuracy).
    pub fn two_d(&mut self, req: ProfileRequest) -> Arc<ProfileReport> {
        let spec = req.to_spec(self.scale);
        match self.resolve(&spec) {
            JobOutput::Report(r) => r,
            other => unreachable!("{} returned {other:?}", spec.describe()),
        }
    }

    /// The recorded branch stream a request's simulation replays, for
    /// experiments that feed it to a profiler of their own. The trace job
    /// goes through the backend like any other; it runs as a batch of one
    /// so an in-process engine drops its memoized copy afterwards, and the
    /// context keeps none either — the caller's `Arc` is the only one.
    pub fn trace(&mut self, req: ProfileRequest) -> Arc<RecordedTrace> {
        let spec = req.trace_ref(self.scale).spec();
        let result = self.backend.run_jobs(std::slice::from_ref(&spec)).pop();
        match Self::expect_output(result.expect("one result per spec")) {
            JobOutput::Trace(trace) => trace,
            other => unreachable!("{} returned {other:?}", spec.describe()),
        }
    }

    /// Ground truth from `base` (an accuracy request; its input is the
    /// reference run, `train` by default) against each input named in
    /// `others`, unioned — the paper's `base-ext1-k` sets.
    ///
    /// # Panics
    ///
    /// Panics if `base` has no predictor, `others` is empty, or any named
    /// input is unknown to the workload.
    pub fn truth(&mut self, base: ProfileRequest, others: &[&str]) -> GroundTruth {
        assert!(
            base.predictor().is_some(),
            "ground truth needs an accuracy request with a predictor"
        );
        let reference = self.accuracy(base.clone());
        let min_exec = self.min_exec;
        let mut acc: Option<GroundTruth> = None;
        for name in others {
            let other = self.accuracy(base.clone().input(name));
            let gt = GroundTruth::from_pair(&reference, &other, INPUT_DEPENDENCE_DELTA, min_exec);
            acc = Some(match acc {
                Some(prev) => prev.union(&gt),
                None => gt,
            });
        }
        acc.expect("at least one comparison input")
    }

    /// Names of a workload's extra (`ext-*`) input sets, in order.
    pub fn ext_inputs(&self, w: &dyn Workload) -> Vec<&'static str> {
        w.input_sets()
            .iter()
            .map(|i| i.name)
            .filter(|n| n.starts_with("ext-"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrace::SiteId;

    #[test]
    fn accuracy_cache_returns_identical_results() {
        let mut ctx = Context::new(Scale::Tiny);
        let req = ProfileRequest::accuracy("eon", PredictorKind::Gshare4Kb);
        let a = ctx.accuracy(req.clone());
        let b = ctx.accuracy(req);
        assert_eq!(a, b);
        assert!(a.total_executions() > 1_000);
        // the memory cache hands out the same allocation, not a copy
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn branch_count_matches_profile_total() {
        let mut ctx = Context::new(Scale::Tiny);
        let count = ctx.count(ProfileRequest::count("parser"));
        let profile = ctx.accuracy(ProfileRequest::accuracy("parser", PredictorKind::Gshare4Kb));
        assert_eq!(count, profile.total_executions());
    }

    #[test]
    fn ground_truth_union_is_monotone() {
        let mut ctx = Context::new(Scale::Tiny);
        let base_req = ProfileRequest::accuracy("gzip", PredictorKind::Gshare4Kb);
        let base = ctx.truth(base_req.clone(), &["ref"]);
        let wider = ctx.truth(base_req, &["ref", "ext-1", "ext-2"]);
        assert!(wider.dependent_count() >= base.dependent_count());
        for (site, label) in base.iter() {
            if label == twodprof_core::InputDependence::Dependent {
                assert!(wider.is_dependent(site));
            }
        }
    }

    #[test]
    fn two_d_covers_all_sites() {
        let mut ctx = Context::new(Scale::Tiny);
        let w = ctx.workload("gap");
        let report = ctx.two_d(ProfileRequest::two_d("gap", PredictorKind::Gshare4Kb));
        assert_eq!(report.num_sites(), w.sites().len());
        assert!(report.program_accuracy().unwrap() > 0.5);
        // at least one site accumulated slices
        assert!((0..report.num_sites()).any(|i| report.stats(SiteId(i as u32)).slices > 10));
        // repeat lookups share the cached report
        let again = ctx.two_d(ProfileRequest::two_d("gap", PredictorKind::Gshare4Kb));
        assert!(Arc::ptr_eq(&report, &again));
    }

    #[test]
    fn replaying_a_trace_reproduces_the_engines_report() {
        let mut ctx = Context::new(Scale::Tiny);
        let trace = ctx.trace(ProfileRequest::count("gap"));
        assert_eq!(trace.events(), ctx.count(ProfileRequest::count("gap")));
        assert_eq!(trace.num_sites(), ctx.workload("gap").sites().len());
        let config = twodprof_core::SliceConfig::auto(trace.events());
        let mut prof = twodprof_core::TwoDProfiler::new(
            trace.num_sites(),
            PredictorKind::Gshare4Kb.build(),
            config,
        );
        trace.replay_into(&mut prof);
        let report = ctx.two_d(ProfileRequest::two_d("gap", PredictorKind::Gshare4Kb));
        assert_eq!(
            prof.finish(twodprof_core::Thresholds::paper()).to_bytes(),
            report.to_bytes()
        );
    }

    #[test]
    fn prewarm_absorbs_results_into_memory() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let mut ctx = Context::with_backend(Scale::Tiny, engine.clone());
        let specs = vec![
            JobSpec::count("gzip", "train", Scale::Tiny),
            JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb),
        ];
        let results = ctx.prewarm(&specs);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.status.is_success()));
        // both lookups must now be memory hits: the engine sees no new jobs
        let before = engine.counters().total();
        ctx.count(ProfileRequest::count("gzip"));
        ctx.accuracy(ProfileRequest::accuracy("gzip", PredictorKind::Gshare4Kb));
        assert_eq!(engine.counters().total(), before);
    }

    #[test]
    fn predictor_kinds_build_the_paper_configs() {
        assert_eq!(PredictorKind::Gshare4Kb.build().name(), "gshare-4KB");
        assert_eq!(
            PredictorKind::Perceptron16Kb.build().name(),
            "perceptron-16KB"
        );
        assert_eq!(PredictorKind::Gshare4Kb.label(), "4KB-gshare");
    }
}
