//! `twodprof-fabric` — the distributed sweep fabric.
//!
//! The engine names every simulation by a content-addressed
//! [`JobSpec`](twodprof_engine::JobSpec) and executes batches through the
//! [`JobBackend`] seam; this crate provides the backend that spans
//! machines. A [`RemoteBackend`] fans a batch out to one or more `twodprofd
//! --compute` nodes over the fabric wire frames — one `SubmitJob` (0x0A)
//! per job, answered by one `JobResult` (0x8A) — with:
//!
//! - **a shared cache tier** — a node's engine answers each `SubmitJob`
//!   from its memo or on-disk store before it computes, so the store
//!   deduplicates work across the node's whole fleet of clients: the first
//!   client computes, the rest get results marked `cached`;
//! - **one shared queue** — each node runs a bounded in-flight window fed
//!   from one pending queue, and every job is submitted to one node at a
//!   time; a node that drains the queue waits for the others rather than
//!   duplicate their jobs, since the batch waits for every in-flight reply
//!   anyway;
//! - **fault tolerance** — jobs owned by a disconnected node are requeued
//!   to survivors, payloads are verified (spec hash + checksum + decode)
//!   before they count, and when every node is lost the remainder of the
//!   batch falls back to a local engine, so a sweep *always* completes with
//!   results byte-identical to a pure-local run.
//!
//! ```no_run
//! use twodprof_engine::{JobBackend, JobSpec};
//! use twodprof_fabric::{FabricConfig, RemoteBackend};
//! use workloads::Scale;
//!
//! let backend = RemoteBackend::new(FabricConfig {
//!     nodes: vec!["10.0.0.1:4272".into(), "10.0.0.2:4272".into()],
//!     ..FabricConfig::default()
//! });
//! let results = backend.run_jobs(&[JobSpec::count("gzip", "train", Scale::Tiny)]);
//! # let _ = results;
//! ```

mod board;
mod node;

use board::Board;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;
use twodprof_engine::{Engine, EngineConfig, JobBackend, JobResult, JobSpec};

/// Tuning knobs of a [`RemoteBackend`].
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Compute nodes as `HOST:PORT` addresses. One worker thread drives
    /// each node; an empty list makes every batch run on the local
    /// fallback engine.
    pub nodes: Vec<String>,
    /// Per-node bound on submitted jobs awaiting their result. Small
    /// windows keep requeue-on-death cheap; large windows hide latency.
    pub window: usize,
    /// Verification failures tolerated per job before it is computed
    /// locally instead of requeued.
    pub max_attempts: u32,
    /// TCP connect attempts per node before declaring it dead.
    pub connect_attempts: u32,
    /// Backoff before the second connect attempt; doubles per retry.
    pub retry_backoff: Duration,
    /// Configuration of the local fallback engine. A batch's leftovers
    /// (jobs whose payload is too large for the wire, jobs that failed
    /// verification too often, and everything left when all nodes are
    /// lost) run on it as one [`Engine::run_jobs`] batch, on its own
    /// worker count, fused per trace, with no trace kept afterwards.
    pub fallback: EngineConfig,
    /// Suppress node-loss log lines on stderr.
    pub quiet: bool,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            window: 4,
            max_attempts: 3,
            connect_attempts: 3,
            retry_backoff: Duration::from_millis(100),
            fallback: EngineConfig::default(),
            quiet: false,
        }
    }
}

/// A [`JobBackend`] that executes batches on a fleet of `twodprofd
/// --compute` nodes. See the crate docs for the scheduling model.
pub struct RemoteBackend {
    config: FabricConfig,
    fallback: Engine,
}

impl RemoteBackend {
    /// Builds the backend and its local fallback engine. No connections
    /// are opened until the first batch runs.
    pub fn new(config: FabricConfig) -> Self {
        let fallback = Engine::new(config.fallback.clone());
        Self { config, fallback }
    }

    /// The configured node addresses.
    pub fn nodes(&self) -> &[String] {
        &self.config.nodes
    }

    fn run_batch(&self, specs: &[JobSpec]) -> Vec<JobResult> {
        let _span = twodprof_obs::span!("fabric.run_jobs");
        let board = Board::new(specs, self.config.max_attempts);
        let lost = AtomicUsize::new(0);
        thread::scope(|scope| {
            for (i, addr) in self.config.nodes.iter().enumerate() {
                let (board, lost) = (&board, &lost);
                scope.spawn(move || {
                    if node::run_node(board, i, addr, &self.config) {
                        lost.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let lost_all = lost.into_inner() == self.config.nodes.len();
        let mut results = board.into_results();
        // leftovers: all nodes lost, payload too large for the wire, or
        // verification attempts exhausted — compute them on the local
        // fallback engine as one batch
        let locals: Vec<usize> = (0..specs.len()).filter(|&i| results[i].is_none()).collect();
        let leftovers: Vec<JobSpec> = locals.iter().map(|&i| specs[i].clone()).collect();
        for (&i, result) in locals.iter().zip(self.fallback.run_jobs(&leftovers)) {
            results[i] = Some(result);
        }
        if !locals.is_empty() && !self.config.quiet {
            eprintln!(
                "[fabric] {} of {} job(s) computed on the local fallback engine{}",
                locals.len(),
                specs.len(),
                if lost_all { " (all nodes lost)" } else { "" },
            );
        }
        results
            .into_iter()
            .map(|r| r.expect("every job has a result"))
            .collect()
    }
}

impl JobBackend for RemoteBackend {
    fn describe(&self) -> String {
        format!(
            "remote fabric, {} node(s) [{}], window {}",
            self.config.nodes.len(),
            self.config.nodes.join(", "),
            self.config.window,
        )
    }

    fn run_one(&self, spec: &JobSpec) -> JobResult {
        self.run_jobs(std::slice::from_ref(spec))
            .pop()
            .expect("one result per spec")
    }

    fn run_jobs(&self, specs: &[JobSpec]) -> Vec<JobResult> {
        if specs.is_empty() {
            return Vec::new();
        }
        self.run_batch(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred::PredictorKind;
    use twodprof_engine::JobStatus;
    use workloads::Scale;

    /// With no nodes configured, every job lands on the fallback engine —
    /// the degenerate all-nodes-lost case.
    #[test]
    fn empty_fleet_falls_back_to_local_compute() {
        let backend = RemoteBackend::new(FabricConfig {
            quiet: true,
            ..FabricConfig::default()
        });
        let specs = vec![
            JobSpec::count("gzip", "train", Scale::Tiny),
            JobSpec::count("mcf", "train", Scale::Tiny),
        ];
        let results = backend.run_jobs(&specs);
        assert_eq!(results.len(), 2);
        for (r, s) in results.iter().zip(&specs) {
            assert_eq!(&r.spec, s);
            assert!(matches!(r.status, JobStatus::Computed));
            assert!(r.output.is_some());
        }
    }

    /// The leftovers run on the fallback engine as one batch: two
    /// lane-group-eligible accuracy jobs on one trace share one recording
    /// and one lane group, as they would in a local sweep.
    #[test]
    fn leftovers_run_on_the_fallback_as_one_batch() {
        let backend = RemoteBackend::new(FabricConfig {
            quiet: true,
            ..FabricConfig::default()
        });
        let kinds = [PredictorKind::Gshare4Kb, PredictorKind::Bimodal1Kb];
        assert!(kinds.iter().all(|&k| bpred::bitslice::eligible(k)));
        let specs: Vec<JobSpec> = kinds
            .iter()
            .map(|&k| JobSpec::accuracy("gzip", "train", Scale::Tiny, k))
            .collect();
        let results = backend.run_jobs(&specs);
        for (r, s) in results.iter().zip(&specs) {
            assert_eq!(&r.spec, s, "results follow spec order");
            assert_eq!(r.status, JobStatus::Computed);
        }
        let counters = backend.fallback.counters();
        assert_eq!(counters.traces_recorded, 1);
        assert_eq!(counters.bitsliced, 2);
    }

    /// Unreachable nodes must not hang or fail the batch: workers die on
    /// connect, the board requeues, and the fallback engine finishes.
    #[test]
    fn unreachable_nodes_fall_back_to_local_compute() {
        let backend = RemoteBackend::new(FabricConfig {
            // reserved port on localhost: connects fail fast
            nodes: vec!["127.0.0.1:1".into()],
            connect_attempts: 1,
            quiet: true,
            ..FabricConfig::default()
        });
        let spec = JobSpec::count("gzip", "train", Scale::Tiny);
        let result = backend.run_one(&spec);
        assert!(matches!(result.status, JobStatus::Computed));
        assert!(result.output.is_some());
    }

    #[test]
    fn describe_names_the_fleet() {
        let backend = RemoteBackend::new(FabricConfig {
            nodes: vec!["a:1".into(), "b:2".into()],
            ..FabricConfig::default()
        });
        let d = backend.describe();
        assert!(d.contains("2 node(s)") && d.contains("a:1") && d.contains("b:2"));
    }
}
