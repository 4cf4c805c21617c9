//! Pluggable job execution: the [`JobBackend`] trait and its in-process
//! implementation.
//!
//! Everything above the engine (the experiment [`Context`], the `repro`
//! binary, sweep scripts) names work as [`JobSpec`]s and consumes
//! [`JobResult`]s; *where* those specs execute is a backend decision. This
//! module defines the seam:
//!
//! - [`Engine`] itself runs specs on the in-process worker pool — the
//!   default.
//! - `twodprof_fabric::RemoteBackend` (in the `twodprof-fabric` crate)
//!   ships specs to one or more `twodprofd --compute` nodes and streams
//!   results back, turning the daemons' disk caches into a shared tier.
//!
//! Because simulations are fully deterministic — a spec's output is a pure
//! function of its content hash — backends are interchangeable: any
//! implementation must return the same bytes for the same spec, which the
//! fabric crate's e2e tests pin down.

use crate::{Engine, JobResult, JobSpec};

/// An executor of content-addressed jobs.
///
/// Implementations must be safe to share across threads and must preserve
/// the engine's result contract: one [`JobResult`] per spec, in spec order,
/// failures isolated per job (never a panic across the trait boundary).
pub trait JobBackend: Send + Sync {
    /// Short human-readable description (for startup logs).
    fn describe(&self) -> String;

    /// Runs one job to completion on the calling thread.
    fn run_one(&self, spec: &JobSpec) -> JobResult;

    /// Runs a batch of jobs, returning results in spec order. The default
    /// implementation loops [`run_one`](Self::run_one); implementations
    /// with a scheduler (worker pool, node fleet) override it.
    fn run_jobs(&self, specs: &[JobSpec]) -> Vec<JobResult> {
        specs.iter().map(|spec| self.run_one(spec)).collect()
    }
}

impl JobBackend for Engine {
    fn describe(&self) -> String {
        format!("local engine, {} worker(s)", self.worker_count())
    }

    fn run_one(&self, spec: &JobSpec) -> JobResult {
        Engine::run_one(self, spec)
    }

    fn run_jobs(&self, specs: &[JobSpec]) -> Vec<JobResult> {
        Engine::run_jobs(self, specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, JobOutput, JobStatus};
    use std::sync::Arc;
    use workloads::Scale;

    #[test]
    fn backend_trait_objects_dispatch() {
        let backend: Arc<dyn JobBackend> = Arc::new(Engine::new(EngineConfig::default()));
        assert!(backend.describe().contains("local"));
        let result = backend.run_one(&JobSpec::count("mcf", "train", Scale::Tiny));
        assert!(matches!(result.status, JobStatus::Computed));
        assert!(matches!(result.output, Some(JobOutput::Count(_))));
    }

    #[test]
    fn default_run_jobs_loops_run_one() {
        struct Stub;
        impl JobBackend for Stub {
            fn describe(&self) -> String {
                "stub".into()
            }
            fn run_one(&self, spec: &JobSpec) -> JobResult {
                JobResult {
                    spec: spec.clone(),
                    status: JobStatus::Computed,
                    output: Some(JobOutput::Count(7)),
                    duration: std::time::Duration::ZERO,
                }
            }
        }
        let specs = vec![
            JobSpec::count("a", "train", Scale::Tiny),
            JobSpec::count("b", "train", Scale::Tiny),
        ];
        let results = Stub.run_jobs(&specs);
        assert_eq!(results.len(), 2);
        assert!(results.iter().zip(&specs).all(|(r, s)| &r.spec == s));
    }
}
