//! The daemon's compute service: a bounded worker pool that executes
//! [`JobSpec`]s submitted over the wire against the daemon's own engine and
//! cache tier.
//!
//! Enabled with `twodprofd --compute`, this turns a daemon into a fabric
//! node: remote clients ship one `SubmitJob` frame per job on sessionless
//! connections, the pool runs each through an [`Engine`] whose disk cache
//! is shared by every client of this node, and workers reply with
//! `JobResult` frames whenever their job finishes — out of submission
//! order, correlated by `job_id`. The engine answers from its tiers in
//! order: memo, disk cache, then compute. Because it memoizes and persists
//! by content hash, a fleet of clients sweeping overlapping grids
//! deduplicates work here: the first submission computes, the rest hit the
//! cache tier (reported as `cached`, counted in
//! `fabric_remote_cache_hits_total`).
//!
//! Compute connections are ordinary shard connections: the shard submits
//! each job here with a reply target — the owning [`ShardState`] and the
//! connection id — and never reads the cache itself. A worker pushes its
//! finished `JobResult` onto that shard's inbox, which wakes the shard to
//! move it into the connection's out-buffer at once. A reply whose
//! connection is gone is dropped — the client treats the dead connection
//! as node loss and requeues, which is exactly the semantic we want on
//! daemon shutdown.

use crate::shard::ShardState;
use crate::wire::{JobOutcome, JobPayload, ServerFrame, MAX_RESULT_PAYLOAD};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use twodprof_engine::{
    panic_message, payload_checksum, Engine, EngineConfig, JobOutput, JobSpec, JobStatus,
};

/// Compute-service knobs, carried inside `ServerConfig`.
#[derive(Clone, Debug, Default)]
pub struct ComputeConfig {
    /// Worker threads executing submitted jobs; `0` means
    /// `std::thread::available_parallelism()`.
    pub threads: usize,
    /// Disk-cache directory of the node's engine; `None` keeps the cache
    /// tier memory-only (still deduplicates within the daemon's lifetime).
    pub cache_dir: Option<PathBuf>,
}

struct Task {
    job_id: u64,
    spec: JobSpec,
    /// The shard owning the submitting connection, and that connection's
    /// id: where the reply goes.
    shard: Arc<ShardState>,
    conn: u64,
}

#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    /// Tasks popped but not yet replied to, across all workers. The queue
    /// is only "drained" (trace-release point) when both are zero.
    active: usize,
    shutdown: bool,
}

/// Runs one job to its outcome: [`ComputePool::execute`], except in tests.
type Step = fn(&ComputePool, &JobSpec) -> JobOutcome;

/// The worker pool plus the engine it executes against.
pub(crate) struct ComputePool {
    engine: Arc<Engine>,
    queue: Mutex<Queue>,
    cond: Condvar,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ComputePool {
    /// Builds the engine and spawns the worker threads.
    pub(crate) fn start(config: &ComputeConfig) -> Arc<Self> {
        Self::start_with(config, Self::execute)
    }

    fn start_with(config: &ComputeConfig, step: Step) -> Arc<Self> {
        let threads = if config.threads == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        };
        let engine = Arc::new(Engine::new(EngineConfig {
            // the pool fans out across tasks itself; each task runs on one
            // worker thread, so the engine's internal pool stays at 1
            jobs: 1,
            cache_dir: config.cache_dir.clone(),
            progress: false,
        }));
        let pool = Arc::new(Self {
            engine,
            queue: Mutex::new(Queue::default()),
            cond: Condvar::new(),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = pool.workers.lock().expect("worker list");
        for i in 0..threads {
            let pool2 = pool.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("twodprofd-compute-{i}"))
                    .spawn(move || pool2.worker_loop(step))
                    .expect("spawn compute worker"),
            );
        }
        drop(workers);
        pool
    }

    /// Number of worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.workers.lock().expect("worker list").len()
    }

    /// Enqueues a job; when it finishes, a worker pushes the reply onto
    /// `shard`'s inbox for connection `conn`.
    pub(crate) fn submit(&self, job_id: u64, spec: JobSpec, shard: Arc<ShardState>, conn: u64) {
        twodprof_obs::counter!(
            "fabric_jobs_submitted_total",
            "Jobs accepted by this process's fabric tier (daemon: received; client: sent)."
        )
        .inc();
        let mut q = self.queue.lock().expect("compute queue");
        q.tasks.push_back(Task {
            job_id,
            spec,
            shard,
            conn,
        });
        drop(q);
        self.cond.notify_one();
    }

    /// Stops accepting work, finishes what is queued (replies to dead
    /// connections are dropped), and joins the workers.
    pub(crate) fn shutdown(&self) {
        self.queue.lock().expect("compute queue").shutdown = true;
        self.cond.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker list"));
        for w in workers {
            w.join().expect("compute worker never panics");
        }
    }

    fn worker_loop(&self, step: Step) {
        loop {
            let task = {
                let mut q = self.queue.lock().expect("compute queue");
                loop {
                    if let Some(task) = q.tasks.pop_front() {
                        q.active += 1;
                        break task;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.cond.wait(q).expect("compute queue");
                }
            };
            // the engine isolates only the computation: a panic in the disk
            // probe, the cache store or the payload encoding fails this
            // job, and the worker lives on to reply and serve the next
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| step(self, &task.spec)))
                .unwrap_or_else(|payload| {
                    JobOutcome::Failed(format!(
                        "compute worker panicked: {}",
                        panic_message(payload.as_ref())
                    ))
                });
            let mut reply = Vec::new();
            ServerFrame::JobResult {
                job_id: task.job_id,
                outcome,
            }
            .write_to(&mut reply)
            .expect("vec write");
            task.shard.push_reply(task.conn, reply);
            twodprof_obs::counter!(
                "fabric_jobs_completed_total",
                "Jobs this process's fabric tier finished (daemon: replied; client: resolved)."
            )
            .inc();
            let mut q = self.queue.lock().expect("compute queue");
            q.active -= 1;
            if q.active == 0 && q.tasks.is_empty() {
                // the queue ran dry: traces recorded for this burst are on
                // disk (when caching) — drop the in-memory copies so a
                // long-lived node's footprint stays bounded
                drop(q);
                self.engine.release_traces();
            }
        }
    }

    fn execute(&self, spec: &JobSpec) -> JobOutcome {
        let _span = twodprof_obs::span!("fabric.compute");
        // a trace too large for the wire is refused by its size alone: the
        // disk entry's file length, or the encoded length of a memo hit or
        // fresh recording, so it is never decoded or encoded for nothing
        let oversized = |len: u64| len > MAX_RESULT_PAYLOAD as u64;
        if self.engine.stored_trace_len(spec).is_some_and(oversized) {
            return JobOutcome::TooLarge;
        }
        let result = self.engine.run_one(spec);
        if let JobStatus::Failed(msg) = &result.status {
            return JobOutcome::Failed(msg.clone());
        }
        let Some(output) = result.output else {
            return JobOutcome::Failed("job produced no output".into());
        };
        if matches!(&output, JobOutput::Trace(t) if oversized(t.encoded_len())) {
            return JobOutcome::TooLarge;
        }
        let bytes = output.to_payload();
        twodprof_obs::counter!(
            "fabric_result_payload_bytes_total",
            "Result payload bytes this node's compute pool encoded, including any too large to send."
        )
        .add(bytes.len() as u64);
        if bytes.len() > MAX_RESULT_PAYLOAD {
            return JobOutcome::TooLarge;
        }
        let cached = matches!(result.status, JobStatus::Cached);
        if cached {
            twodprof_obs::counter!(
                "fabric_remote_cache_hits_total",
                "Jobs answered from a remote daemon's shared cache tier."
            )
            .inc();
        }
        JobOutcome::Done(JobPayload {
            cached,
            spec_hash: spec.content_hash(),
            checksum: payload_checksum(&bytes),
            bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    /// A job on workload `panics` panics in the worker; every other job
    /// answers `TooLarge` at once.
    fn step(_: &ComputePool, spec: &JobSpec) -> JobOutcome {
        assert_ne!(spec.workload, "panics", "injected fault");
        JobOutcome::TooLarge
    }

    #[test]
    fn a_panicking_job_fails_and_its_worker_serves_the_next() {
        let pool = ComputePool::start_with(
            &ComputeConfig {
                threads: 1,
                cache_dir: None,
            },
            step,
        );
        let shard = Arc::new(ShardState::new(0).expect("shard waker"));
        pool.submit(
            1,
            JobSpec::count("panics", "train", Scale::Tiny),
            shard.clone(),
            7,
        );
        pool.submit(
            2,
            JobSpec::count("gzip", "train", Scale::Tiny),
            shard.clone(),
            7,
        );
        // finishes the queue on the one worker, then joins it: a worker
        // that died on the first job would fail this join
        pool.shutdown();
        let replies: Vec<ServerFrame> = shard
            .take_replies()
            .into_iter()
            .map(|(conn, bytes)| {
                assert_eq!(conn, 7);
                ServerFrame::read_from(&mut &bytes[..]).expect("a reply frame")
            })
            .collect();
        assert!(
            matches!(&replies[..], [
                ServerFrame::JobResult { job_id: 1, outcome: JobOutcome::Failed(msg) },
                ServerFrame::JobResult { job_id: 2, outcome: JobOutcome::TooLarge },
            ] if msg.contains("injected fault")),
            "{replies:?}"
        );
        assert_eq!(pool.queue.lock().expect("compute queue").active, 0);
    }
}
