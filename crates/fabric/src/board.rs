//! The sweep board: shared scheduling state for one `run_jobs` batch.
//!
//! One [`Board`] exists per batch. Every job starts on the pending queue;
//! node workers claim jobs, and when the queue runs dry they *steal* a
//! claimed-but-unfinished job from the node with the deepest in-flight
//! backlog (slowest-node rebalance — jobs are deterministic, so duplicate
//! execution is wasteful but never wrong, and the first verified result
//! wins). Jobs owned by a node that dies are requeued to the survivors;
//! jobs whose payloads repeatedly fail verification, and jobs the daemon
//! reports as too large for the wire, are flagged for local computation by
//! the caller after the workers drain.

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
    /// Nodes currently holding this job in-flight. More than one after a
    /// steal; empty while the job sits on the pending queue.
    owners: Vec<usize>,
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
                s.slots[idx].owners.push(node);
                s.slots[idx].started.get_or_insert_with(Instant::now);
                return Claim::Job(idx);
            }
            if let Some(idx) = steal_candidate(&s, node) {
                s.slots[idx].owners.push(node);
                twodprof_obs::counter!(
                    "fabric_jobs_stolen_total",
                    "Jobs stolen from a slower node's in-flight window."
                )
                .inc();
                let _span = twodprof_obs::span!("fabric.steal");
                return Claim::Job(idx);
            }
            // nothing to claim or steal: if unfinished remote work remains,
            // a completion/requeue may still free something up
            if !s.slots.iter().any(|sl| !sl.done && !sl.local) {
                return Claim::Exit;
            }
            if !may_wait {
                return Claim::Wait;
            }
            let (guard, _) = self
                .cond
                .wait_timeout(s, Duration::from_millis(50))
                .expect("board state");
            s = guard;
        }
    }

    /// Records a verified result for `idx`. Returns `false` (and changes
    /// nothing) if another node already finished it — the duplicate-steal
    /// case.
    pub(crate) fn complete(&self, idx: usize, output: JobOutput, cached: bool) -> bool {
        let mut s = self.state.lock().expect("board state");
        if s.slots[idx].done {
            return false;
        }
        let duration = s.slots[idx].started.map_or(Duration::ZERO, |t| t.elapsed());
        s.slots[idx].done = true;
        s.slots[idx].result = Some(JobResult {
            spec: self.specs[idx].clone(),
            status: if cached {
                JobStatus::Cached
            } else {
                JobStatus::Computed
            },
            output: Some(output),
            duration,
        });
        drop(s);
        twodprof_obs::counter!(
            "fabric_jobs_completed_total",
            "Jobs this process's fabric tier finished (daemon: replied; client: resolved)."
        )
        .inc();
        self.cond.notify_all();
        true
    }

    /// Records a deterministic failure reported by a daemon. Retrying on
    /// another node would fail identically, so the job completes as failed.
    pub(crate) fn complete_failed(&self, idx: usize, msg: String) {
        let mut s = self.state.lock().expect("board state");
        if s.slots[idx].done {
            return;
        }
        let duration = s.slots[idx].started.map_or(Duration::ZERO, |t| t.elapsed());
        s.slots[idx].done = true;
        s.slots[idx].result = Some(JobResult {
            spec: self.specs[idx].clone(),
            status: JobStatus::Failed(msg),
            output: None,
            duration,
        });
        drop(s);
        self.cond.notify_all();
    }

    /// A payload for `idx` failed verification on `node`: count an attempt,
    /// requeue the job if no other node holds it, and flag it local once
    /// the attempt budget is spent.
    pub(crate) fn bad_payload(&self, idx: usize, node: usize) {
        let mut s = self.state.lock().expect("board state");
        s.slots[idx].owners.retain(|&o| o != node);
        if s.slots[idx].done {
            return;
        }
        s.slots[idx].attempts += 1;
        if s.slots[idx].attempts >= self.max_attempts {
            s.slots[idx].local = true;
        } else if s.slots[idx].owners.is_empty() {
            requeue(&mut s, idx);
        }
        drop(s);
        self.cond.notify_all();
    }

    /// The daemon says this job's result cannot cross the wire: flag it for
    /// the caller's local fallback.
    pub(crate) fn mark_local(&self, idx: usize, node: usize) {
        let mut s = self.state.lock().expect("board state");
        s.slots[idx].owners.retain(|&o| o != node);
        if !s.slots[idx].done {
            s.slots[idx].local = true;
        }
        drop(s);
        self.cond.notify_all();
    }

    /// `node` left the batch — finished, disconnected or never connected:
    /// release everything it held, requeuing jobs no survivor owns.
    pub(crate) fn node_died(&self, node: usize) {
        let mut s = self.state.lock().expect("board state");
        for idx in 0..s.slots.len() {
            let had = s.slots[idx].owners.contains(&node);
            s.slots[idx].owners.retain(|&o| o != node);
            if had && !s.slots[idx].done && !s.slots[idx].local && s.slots[idx].owners.is_empty() {
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

/// A job worth stealing for `me`: unfinished, owned by exactly one *other*
/// node, preferring the owner with the deepest in-flight backlog (the
/// slowest node is the one worth relieving).
fn steal_candidate(s: &State, me: usize) -> Option<usize> {
    let inflight_of = |node: usize| {
        s.slots
            .iter()
            .filter(|sl| !sl.done && sl.owners.contains(&node))
            .count()
    };
    s.slots
        .iter()
        .enumerate()
        .filter(|(_, sl)| !sl.done && !sl.local && sl.owners.len() == 1 && !sl.owners.contains(&me))
        .max_by_key(|(_, sl)| inflight_of(sl.owners[0]))
        .map(|(idx, _)| idx)
}
