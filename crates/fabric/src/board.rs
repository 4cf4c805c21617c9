//! The sweep board: shared scheduling state for one `run_jobs` batch.
//!
//! One [`Board`] exists per batch. Every job starts on the pending queue,
//! and node workers claim jobs from it; a claimed job has exactly one
//! owner. A worker that finds the queue empty waits rather than duplicate
//! another node's in-flight job: a batch ends only once every node's
//! in-flight replies are in, so a duplicate could never end it sooner.
//! Jobs owned by a node that dies are requeued to the survivors; jobs
//! whose payloads repeatedly fail verification, and jobs the daemon
//! reports as too large for the wire, are flagged for local computation
//! by the caller after the workers drain.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use twodprof_engine::{JobOutput, JobResult, JobSpec, JobStatus};

/// What a worker gets back from [`Board::claim`].
pub(crate) enum Claim {
    /// A job to run: send its `SubmitJob` and track it in-flight.
    Job(usize),
    /// Nothing claimable right now, but the worker has in-flight replies to
    /// read (only returned when `may_wait` is false).
    Wait,
    /// Nothing this node could ever contribute again: all jobs are done,
    /// flagged local, or the batch is over.
    Exit,
}

#[derive(Default)]
struct Slot {
    done: bool,
    /// Must be computed by the caller's fallback engine (payload too large
    /// for the wire, or verification attempts exhausted).
    local: bool,
    /// Verification failures so far (checksum/hash mismatch, undecodable
    /// payload). Node deaths do not count — they are not the job's fault.
    attempts: u32,
    /// The node holding this job in flight; `None` while the job sits on
    /// the pending queue.
    owner: Option<usize>,
    started: Option<Instant>,
    result: Option<JobResult>,
}

struct State {
    pending: VecDeque<usize>,
    slots: Vec<Slot>,
}

pub(crate) struct Board {
    specs: Vec<JobSpec>,
    state: Mutex<State>,
    cond: Condvar,
    max_attempts: u32,
}

impl Board {
    pub(crate) fn new(specs: &[JobSpec], max_attempts: u32) -> Self {
        Self {
            specs: specs.to_vec(),
            state: Mutex::new(State {
                pending: (0..specs.len()).collect(),
                slots: specs.iter().map(|_| Slot::default()).collect(),
            }),
            cond: Condvar::new(),
            max_attempts: max_attempts.max(1),
        }
    }

    pub(crate) fn spec(&self, idx: usize) -> &JobSpec {
        &self.specs[idx]
    }

    /// Claims the next job for `node`. With `may_wait`, blocks until a job
    /// frees up or nothing remains; without it, returns [`Claim::Wait`]
    /// immediately so the worker can go read replies instead.
    pub(crate) fn claim(&self, node: usize, may_wait: bool) -> Claim {
        let mut s = self.state.lock().expect("board state");
        loop {
            while let Some(idx) = s.pending.pop_front() {
                if s.slots[idx].done || s.slots[idx].local {
                    continue;
                }
                s.slots[idx].owner = Some(node);
                s.slots[idx].started.get_or_insert_with(Instant::now);
                return Claim::Job(idx);
            }
            // nothing to claim: if unfinished remote work remains, a
            // requeue may still free something up
            if !s.slots.iter().any(|sl| !sl.done && !sl.local) {
                return Claim::Exit;
            }
            if !may_wait {
                return Claim::Wait;
            }
            // every other board mutation notifies
            s = self.cond.wait(s).expect("board state");
        }
    }

    /// Records a verified result for `idx`.
    pub(crate) fn complete(&self, idx: usize, output: JobOutput, cached: bool) {
        let status = if cached {
            JobStatus::Cached
        } else {
            JobStatus::Computed
        };
        self.settle(idx, status, Some(output));
        twodprof_obs::counter!(
            "fabric_jobs_completed_total",
            "Jobs this process's fabric tier finished (daemon: replied; client: resolved)."
        )
        .inc();
    }

    /// Records a deterministic failure reported by a daemon. Retrying on
    /// another node would fail identically, so the job completes as failed.
    pub(crate) fn complete_failed(&self, idx: usize, msg: String) {
        self.settle(idx, JobStatus::Failed(msg), None);
    }

    fn settle(&self, idx: usize, status: JobStatus, output: Option<JobOutput>) {
        let mut s = self.state.lock().expect("board state");
        let slot = &mut s.slots[idx];
        slot.done = true;
        slot.result = Some(JobResult {
            spec: self.specs[idx].clone(),
            status,
            output,
            duration: slot.started.map_or(Duration::ZERO, |t| t.elapsed()),
        });
        drop(s);
        self.cond.notify_all();
    }

    /// A payload for `idx` failed verification: count an attempt, then
    /// requeue the job, or flag it local once the attempt budget is spent.
    pub(crate) fn bad_payload(&self, idx: usize) {
        let mut s = self.state.lock().expect("board state");
        s.slots[idx].owner = None;
        s.slots[idx].attempts += 1;
        if s.slots[idx].attempts >= self.max_attempts {
            s.slots[idx].local = true;
        } else {
            requeue(&mut s, idx);
        }
        drop(s);
        self.cond.notify_all();
    }

    /// The daemon says this job's result cannot cross the wire: flag it for
    /// the caller's local fallback.
    pub(crate) fn mark_local(&self, idx: usize) {
        let mut s = self.state.lock().expect("board state");
        s.slots[idx].owner = None;
        s.slots[idx].local = true;
        drop(s);
        self.cond.notify_all();
    }

    /// `node` left the batch — finished, disconnected or never connected:
    /// requeue every unfinished job it held.
    pub(crate) fn node_died(&self, node: usize) {
        let mut s = self.state.lock().expect("board state");
        for idx in 0..s.slots.len() {
            if s.slots[idx].owner == Some(node) && !s.slots[idx].done {
                s.slots[idx].owner = None;
                requeue(&mut s, idx);
            }
        }
        drop(s);
        self.cond.notify_all();
    }

    /// Consumes the board after the workers exited: verified remote results
    /// in spec order, with `None` holes for jobs the caller must compute
    /// locally (all-nodes-lost leftovers, too-large payloads, exhausted
    /// verification attempts).
    pub(crate) fn into_results(self) -> Vec<Option<JobResult>> {
        self.state
            .into_inner()
            .expect("board state")
            .slots
            .into_iter()
            .map(|slot| slot.result)
            .collect()
    }
}

fn requeue(s: &mut MutexGuard<'_, State>, idx: usize) {
    // front, not back: a requeued job has already waited a full queue pass
    s.pending.push_front(idx);
    twodprof_obs::counter!(
        "fabric_jobs_requeued_total",
        "Jobs requeued after node loss or a failed payload verification."
    )
    .inc();
}
