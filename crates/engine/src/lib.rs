//! `twodprof-engine` — a parallel, fault-isolated sweep executor with a
//! persistent on-disk result cache.
//!
//! The paper's evaluation is a large grid: every (workload × input set ×
//! predictor) trio must be simulated to build ground truth, and every
//! figure and table re-runs subsets of that grid. Each run owns its
//! predictor state, so the grid is embarrassingly parallel across runs —
//! exactly the shape of a job scheduler. This crate turns each run into a
//! content-addressed [`JobSpec`], executes specs on a configurable worker
//! pool, persists results to a schema-versioned disk cache, and isolates
//! failures: a panicking job is caught, recorded as
//! [`JobStatus::Failed`] with its panic message, and never kills the sweep.
//!
//! Execution is trace-once/simulate-many: each (workload, input, scale)
//! trio's branch stream is recorded exactly once into a columnar
//! [`btrace::RecordedTrace`] (its own cacheable job), and every accuracy
//! or 2D simulation of that trio takes one path, `Engine::fan_out`, which
//! replays the trace once for all the jobs it is handed. Inside it one
//! choice is made, from the input: a trace with at least two jobs whose
//! predictor kind is [`bpred::bitslice::eligible`] serves them from one
//! shared run-driven lane group, and every other job rides a chunked
//! scalar slot. Either way each predictor kind is simulated once per
//! trace: the one simulation of a kind serves all of that kind's accuracy
//! and 2D jobs. Branch counts are read from the trace header.
//! [`Engine::run_jobs`] runs one work unit per trace: the unit fetches the
//! trace only if one of its jobs missed every cache tier, hands `fan_out`
//! all of the trace's pending simulations, and drops the trace when it is
//! done, so a batch holds at most one trace per worker.
//! [`Engine::run_one`] hands `fan_out` one job and keeps the trace for the
//! next call. Results pass through three cache tiers — an in-memory memo,
//! the disk cache, then computation — each counted distinctly. Callers
//! name work with the [`ProfileRequest`] builder, which resolves to a spec
//! and a [`TraceRef`].
//!
//! ```
//! use twodprof_engine::{Engine, EngineConfig, JobSpec};
//! use workloads::Scale;
//!
//! let engine = Engine::new(EngineConfig::default());
//! let specs = vec![
//!     JobSpec::count("gzip", "train", Scale::Tiny),
//!     JobSpec::count("gap", "train", Scale::Tiny),
//! ];
//! let results = engine.run_jobs(&specs);
//! assert!(results.iter().all(|r| r.status.is_success()));
//! ```

mod backend;
mod bitgroup;
mod cache;
mod request;
mod spec;

pub use backend::JobBackend;
pub use cache::{payload_checksum, CacheLookup, DiskCache, JobOutput};
pub use request::{ProfileMode, ProfileRequest, TraceRef};
pub use spec::{scale_id, JobKind, JobSpec, CACHE_SCHEMA_VERSION, MAX_SPEC_NAME_LEN};

use bpred::{site_pc, AccuracyProfile, BranchPredictor, PredictorHost, PredictorKind};
use btrace::{RecordedTrace, SiteId, Tracer};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use twodprof_core::{SliceAccum, SliceConfig, Thresholds};
use workloads::Scale;

/// Engine configuration.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Worker threads for [`Engine::run_jobs`]; `0` means
    /// `std::thread::available_parallelism()`.
    pub jobs: usize,
    /// Directory of the persistent result cache; `None` disables disk
    /// caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// Emit periodic progress lines on stderr during sweeps.
    pub progress: bool,
}

/// How a job's result was obtained (or lost).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Simulated by a worker in this sweep.
    Computed,
    /// Served from the disk cache without simulation.
    Cached,
    /// The job panicked; the sweep continued without it.
    Failed(String),
}

impl JobStatus {
    /// Whether the job produced a result.
    pub fn is_success(&self) -> bool {
        !matches!(self, JobStatus::Failed(_))
    }
}

/// The outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The spec that ran.
    pub spec: JobSpec,
    /// How the result was obtained.
    pub status: JobStatus,
    /// The result, absent iff the job failed.
    pub output: Option<JobOutput>,
    /// Wall-clock time spent on this job (near zero for cache hits).
    pub duration: Duration,
}

impl JobResult {
    /// Dynamic branch events the job's result represents.
    pub fn events(&self) -> u64 {
        self.output.as_ref().map_or(0, JobOutput::events)
    }
}

/// Cumulative job-status counters (across every job the engine has run).
///
/// Cache tiers are counted distinctly: a job is exactly one of `memo`
/// (in-memory hit), `cached` (disk hit), `computed`, or `failed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Jobs simulated by a worker.
    pub computed: u64,
    /// Jobs served from the disk cache.
    pub cached: u64,
    /// Jobs served from the in-memory memo (no disk probe, no simulation).
    pub memo: u64,
    /// Jobs that panicked.
    pub failed: u64,
    /// Dynamic branch events across computed jobs.
    pub events: u64,
    /// Branch streams recorded from a live workload run (each one feeds
    /// every simulation of its (workload, input, scale) trio).
    pub traces_recorded: u64,
    /// Jobs served by replaying a recorded trace instead of re-executing
    /// the workload. This counts jobs, not simulations: one simulation of
    /// a kind serves every job of that kind on its trace.
    pub replays: u64,
    /// Replayed jobs served by the run-driven lane group (each such job is
    /// also counted in `replays`).
    pub bitsliced: u64,
}

impl EngineCounters {
    /// Total jobs accounted for.
    pub fn total(&self) -> u64 {
        self.computed + self.cached + self.memo + self.failed
    }
}

/// The sweep executor. Cheap to share by reference across threads; all
/// mutability is internal.
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
    cache: Option<DiskCache>,
    progress: bool,
    counters: Mutex<EngineCounters>,
    /// In-memory read-through memo of every finished job, keyed by
    /// [`JobSpec::content_hash`]. Outputs are `Arc`-backed, so a memo hit
    /// costs a reference count.
    memo: Mutex<HashMap<u64, JobOutput>>,
}

impl Engine {
    /// Creates an engine. An unusable cache directory degrades to
    /// cache-less operation with a warning — a broken cache must never
    /// fail a sweep.
    pub fn new(config: EngineConfig) -> Self {
        let cache = config.cache_dir.as_ref().and_then(|dir| {
            DiskCache::open(dir)
                .map_err(|e| {
                    eprintln!(
                        "[engine] warning: cache at {} unusable ({e}); running uncached",
                        dir.display()
                    )
                })
                .ok()
        });
        Self {
            jobs: config.jobs,
            cache,
            progress: config.progress,
            counters: Mutex::new(EngineCounters::default()),
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The number of worker threads a sweep will use.
    pub fn worker_count(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// Whether a disk cache is attached.
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// The payload length of `spec`'s trace entry in the disk cache, read
    /// from the entry's file length without loading the trace. `None`
    /// without a cache, for a spec that is not a trace, or when the trace
    /// is not on disk.
    pub fn stored_trace_len(&self, spec: &JobSpec) -> Option<u64> {
        self.cache.as_ref()?.trace_payload_len(spec)
    }

    /// Cumulative status counters over the engine's lifetime.
    pub fn counters(&self) -> EngineCounters {
        *self.counters.lock().expect("counter lock")
    }

    /// Runs one job on the calling thread: in-memory memo lookup, then
    /// disk-cache lookup, then fault-isolated execution, then write-back.
    /// Each tier is counted distinctly (memo hits never reach the disk
    /// probe, so they can no longer inflate the miss counter).
    pub fn run_one(&self, spec: &JobSpec) -> JobResult {
        let _sp = twodprof_obs::span!("engine.job");
        let start = Instant::now();
        if let Some(hit) = self.probe(spec, start) {
            return hit;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.execute(spec)));
        let result = self.settle(spec, outcome, start.elapsed());
        self.persist(std::slice::from_ref(&result));
        result
    }

    /// The lookup tiers of [`run_one`](Self::run_one): the in-memory memo,
    /// then the disk cache. Returns the cached result on a hit; on a miss
    /// (or a corrupt disk entry) counts the outcome and returns `None`, and
    /// the caller computes.
    fn probe(&self, spec: &JobSpec, start: Instant) -> Option<JobResult> {
        let _sp = twodprof_obs::span!("engine.probe");
        twodprof_obs::counter!("engine_jobs_total", "Jobs the engine has run.").inc();
        if let Some(output) = self
            .memo
            .lock()
            .expect("memo lock")
            .get(&spec.content_hash())
            .cloned()
        {
            self.bump(|c| c.memo += 1);
            twodprof_obs::counter!(
                "engine_cache_memo_hits_total",
                "Jobs served from the in-memory memo."
            )
            .inc();
            return Some(JobResult {
                spec: spec.clone(),
                status: JobStatus::Cached,
                output: Some(output),
                duration: start.elapsed(),
            });
        }
        match self
            .cache
            .as_ref()
            .map_or(CacheLookup::Miss, |c| c.lookup(spec))
        {
            CacheLookup::Hit(output) => {
                self.bump(|c| c.cached += 1);
                twodprof_obs::counter!(
                    "engine_cache_hits_total",
                    "Jobs served from the disk cache."
                )
                .inc();
                self.memoize(spec, &output);
                return Some(JobResult {
                    spec: spec.clone(),
                    status: JobStatus::Cached,
                    output: Some(output),
                    duration: start.elapsed(),
                });
            }
            CacheLookup::Corrupt => {
                twodprof_obs::counter!(
                    "engine_cache_corrupt_total",
                    "Corrupt cache entries recovered by recomputation."
                )
                .inc();
                eprintln!(
                    "[engine] warning: corrupt cache entry for {}; recomputing",
                    spec.describe()
                );
            }
            CacheLookup::Miss => {
                if self.cache.is_some() {
                    twodprof_obs::counter!(
                        "engine_cache_misses_total",
                        "Cache probes that found no entry in any tier."
                    )
                    .inc();
                }
            }
        }
        None
    }

    /// Records the outcome of a computed job — memoizing and counting on
    /// success; isolating the panic as [`JobStatus::Failed`] otherwise. The
    /// shared tail of [`run_one`](Self::run_one) and
    /// [`run_unit`](Self::run_unit), which then [`persist`](Self::persist)
    /// what they computed.
    fn settle(
        &self,
        spec: &JobSpec,
        outcome: std::thread::Result<JobOutput>,
        duration: Duration,
    ) -> JobResult {
        match outcome {
            Ok(output) => {
                self.memoize(spec, &output);
                self.bump(|c| {
                    c.computed += 1;
                    c.events += output.events();
                });
                twodprof_obs::counter!(
                    "engine_events_total",
                    "Dynamic branch events across computed jobs."
                )
                .add(output.events());
                twodprof_obs::histogram!(
                    "engine_job_micros",
                    "Wall time per computed job, in microseconds."
                )
                .observe_duration(duration);
                JobResult {
                    spec: spec.clone(),
                    status: JobStatus::Computed,
                    output: Some(output),
                    duration,
                }
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                self.bump(|c| c.failed += 1);
                twodprof_obs::counter!(
                    "engine_jobs_failed_total",
                    "Jobs that panicked (isolated; the sweep continued)."
                )
                .inc();
                JobResult {
                    spec: spec.clone(),
                    status: JobStatus::Failed(message),
                    output: None,
                    duration,
                }
            }
        }
    }

    /// Writes the computed results among `results`, all of one trace, to the
    /// disk cache in one store: a trace to its own entry, everything else in
    /// one merge into the trace's results file. A failed store only warns.
    fn persist(&self, results: &[JobResult]) {
        let Some(cache) = &self.cache else {
            return;
        };
        let computed: Vec<(&JobSpec, &JobOutput)> = results
            .iter()
            .filter(|r| r.status == JobStatus::Computed)
            .filter_map(|r| Some((&r.spec, r.output.as_ref()?)))
            .collect();
        let Some(&(first, _)) = computed.first() else {
            return;
        };
        let _sp = twodprof_obs::span!("engine.cache_write");
        if let Err(e) = cache.store_all(&computed) {
            eprintln!(
                "[engine] warning: failed to cache {} result(s) of {}/{} @{} ({e})",
                computed.len(),
                first.workload,
                first.input,
                scale_id(first.scale)
            );
        }
    }

    /// Runs a batch of jobs on the worker pool and returns results in spec
    /// order. Failures are isolated per job; the returned vector always has
    /// one entry per spec.
    ///
    /// The batch is one work unit per distinct (workload, input, scale)
    /// trace, scheduled in the order each trace first appears in `specs`.
    /// Every job of a trace rides its unit: the trace job itself, the
    /// branch count, and every accuracy and 2D simulation, which share one
    /// replay of the trace. A unit fetches its trace only when one of its
    /// jobs missed both the memo and the disk, stores everything it
    /// computed in one write to the trace's results file, and drops the
    /// trace from the memo when it is done (the disk cache keeps it), so a
    /// batch holds at most one trace per worker and a fully cached batch
    /// loads none.
    pub fn run_jobs(&self, specs: &[JobSpec]) -> Vec<JobResult> {
        let mut unit_of: HashMap<u64, usize> = HashMap::new();
        let mut units: Vec<Vec<usize>> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let u = *unit_of
                .entry(TraceRef::of_spec(spec).spec().content_hash())
                .or_insert_with(|| {
                    units.push(Vec::new());
                    units.len() - 1
                });
            units[u].push(i);
        }
        let total = specs.len();
        let workers = self.worker_count().min(units.len());
        let queue_depth = twodprof_obs::gauge!(
            "engine_queue_depth",
            "Jobs admitted to the worker pool but not yet finished."
        );
        queue_depth.add(total as i64);
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let computed_events = AtomicU64::new(0);
        let slots: Vec<Mutex<Option<JobResult>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let sweep_start = Instant::now();
        // progress cadence: ~10 lines per sweep, and always the final one
        let step = (total / 10).max(1);
        // carry the caller's trace context onto every worker thread, so job
        // spans nest under the request span that scheduled the batch
        let trace_ctx = twodprof_obs::trace::current();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _g = trace_ctx
                        .is_active()
                        .then(|| twodprof_obs::trace::attach(trace_ctx));
                    loop {
                        let u = next.fetch_add(1, Ordering::Relaxed);
                        if u >= units.len() {
                            break;
                        }
                        for (i, result) in self.run_unit(specs, &units[u]) {
                            if matches!(result.status, JobStatus::Computed) {
                                computed_events.fetch_add(result.events(), Ordering::Relaxed);
                            }
                            *slots[i].lock().expect("result slot") = Some(result);
                            queue_depth.sub(1);
                            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                            if self.progress && (finished.is_multiple_of(step) || finished == total)
                            {
                                self.print_progress(
                                    finished,
                                    total,
                                    computed_events.load(Ordering::Relaxed),
                                    sweep_start.elapsed(),
                                );
                            }
                        }
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// Retrieves (recording on demand, through every cache tier) the
    /// recorded branch stream of one (workload, input, scale) trio.
    ///
    /// # Panics
    ///
    /// Panics if the recording job fails — inside a sweep the panic is
    /// caught by the enclosing job's fault isolation.
    pub fn trace(&self, tref: &TraceRef) -> Arc<RecordedTrace> {
        recorded(&self.run_one(&tref.spec()))
    }

    /// Drops recorded traces from the in-memory memo; the disk cache (when
    /// attached) still holds them. [`run_jobs`](Self::run_jobs) needs no
    /// call (each of its units drops its own trace), but
    /// [`run_one`](Self::run_one) keeps every trace it fetches for the next
    /// call, so a long-lived host that drives it directly (the daemon
    /// compute service) calls this when its queue drains to keep resident
    /// memory bounded.
    pub fn release_traces(&self) {
        self.memo
            .lock()
            .expect("memo lock")
            .retain(|_, output| !matches!(output, JobOutput::Trace(_)));
    }

    /// Executes one trace's unit of a batch. It probes each job through the
    /// memo and disk tiers. Only if a job is still pending does it fetch the
    /// trace through [`run_one`](Self::run_one) (memo, disk, then record),
    /// and it drops the trace from the memo at once; the unit's own
    /// reference keeps it alive until the unit returns. A trace job is
    /// answered by that fetch, which is also its probe; counts are read from
    /// the trace header and simulations run through one
    /// [`fan_out`](Self::fan_out), and their outputs are persisted in one
    /// store. A failed fetch fails the unit's other pending jobs, as a
    /// panic in `fan_out` does.
    fn run_unit(&self, specs: &[JobSpec], idxs: &[usize]) -> Vec<(usize, JobResult)> {
        let start = Instant::now();
        let mut out = Vec::with_capacity(idxs.len());
        let mut pending = Vec::new();
        for &i in idxs {
            // a trace job's probe is the fetch below
            let hit = (specs[i].kind != JobKind::Trace)
                .then(|| self.probe(&specs[i], start))
                .flatten();
            match hit {
                Some(hit) => out.push((i, hit)),
                None => pending.push(i),
            }
        }
        if pending.is_empty() {
            return out;
        }
        let fetched = self.run_one(&TraceRef::of_spec(&specs[idxs[0]]).spec());
        self.memo
            .lock()
            .expect("memo lock")
            .remove(&fetched.spec.content_hash());
        let (traces, pending): (Vec<usize>, Vec<usize>) = pending
            .into_iter()
            .partition(|&i| specs[i].kind == JobKind::Trace);
        out.extend(traces.into_iter().map(|i| (i, fetched.clone())));
        if pending.is_empty() {
            return out;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let trace = recorded(&fetched);
            let sims: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&i| specs[i].kind != JobKind::BranchCount)
                .collect();
            let mut simulated = self.fan_out(&trace, specs, &sims).into_iter();
            pending
                .iter()
                .map(|&i| match specs[i].kind {
                    JobKind::BranchCount => JobOutput::Count(trace.events()),
                    _ => simulated.next().expect("one output per simulation"),
                })
                .collect::<Vec<_>>()
        }));
        match outcome {
            Ok(outputs) => {
                // the fetch and the decode pass are shared; attribute an
                // equal share of the unit's wall time to each job it served
                let share = start.elapsed() / pending.len() as u32;
                let settled: Vec<JobResult> = pending
                    .iter()
                    .zip(outputs)
                    .map(|(&i, output)| self.settle(&specs[i], Ok(output), share))
                    .collect();
                self.persist(&settled);
                out.extend(pending.iter().copied().zip(settled));
            }
            Err(payload) => {
                let elapsed = start.elapsed();
                for &i in &pending {
                    // re-box the message so each job settles independently
                    let msg: Box<dyn std::any::Any + Send> =
                        Box::new(panic_message(payload.as_ref()));
                    out.push((i, self.settle(&specs[i], Err(msg), elapsed)));
                }
            }
        }
        out
    }

    /// The one simulation path of every accuracy and 2D job: the
    /// `pending` specs (which all replay `trace`) are served by one
    /// [`RecordedTrace`] decode pass per lane family. When at least two
    /// jobs are [`bpred::bitslice::eligible`], those jobs share the lane
    /// group in [`bitgroup`]; every other job is seated in the chunked scalar slot
    /// of its kind, one per kind, fed by a second decode pass. Outputs come
    /// back in `pending` order.
    fn fan_out(
        &self,
        trace: &RecordedTrace,
        specs: &[JobSpec],
        pending: &[usize],
    ) -> Vec<JobOutput> {
        let jobs: Vec<SimJob> = pending.iter().map(|&i| SimJob::of(&specs[i])).collect();
        let (mut sliced, mut scalar): (Vec<usize>, Vec<usize>) =
            (0..jobs.len()).partition(|&p| bpred::bitslice::eligible(jobs[p].kind));
        // A lane group exists to share one run decode across many jobs; a
        // lone eligible job gains nothing from it, so keep it on the
        // scalar slot path alongside everything else. Both paths produce
        // the same bytes, so this is a cost choice only; moving it moves
        // the `bitsliced` count.
        if sliced.len() < 2 {
            scalar.append(&mut sliced);
            scalar.sort_unstable();
        }
        let mut outputs: Vec<Option<JobOutput>> = pending.iter().map(|_| None).collect();
        if !sliced.is_empty() {
            let lane_jobs: Vec<SimJob> = sliced.iter().map(|&p| jobs[p]).collect();
            for (&p, output) in sliced
                .iter()
                .zip(bitgroup::run_lane_group(trace, &lane_jobs))
            {
                self.note_replay();
                self.bump(|c| c.bitsliced += 1);
                twodprof_obs::counter!(
                    "engine_bitslice_jobs_total",
                    "Replayed jobs served by the run-driven lane group."
                )
                .inc();
                outputs[p] = Some(output);
            }
        }
        if !scalar.is_empty() {
            // one slot per kind, serving every job of that kind
            let mut seats: Vec<(PredictorKind, Vec<usize>)> = Vec::new();
            for &p in &scalar {
                match seats.iter_mut().find(|(kind, _)| *kind == jobs[p].kind) {
                    Some((_, seated)) => seated.push(p),
                    None => seats.push((jobs[p].kind, vec![p])),
                }
            }
            let mut slots: Vec<Box<dyn SimSlot>> = seats
                .iter()
                .map(|(kind, seated)| {
                    kind.host(ScalarSlotHost {
                        num_sites: trace.num_sites(),
                        slice_config: SliceConfig::auto(trace.events()),
                        twod: seated.iter().map(|&p| jobs[p].twod).collect(),
                    })
                })
                .collect();
            let mut fan = FanOut::new(&mut slots);
            {
                let _sp = twodprof_obs::span!("engine.decode");
                trace.replay_into(&mut fan);
                fan.flush();
            }
            drop(fan);
            for ((_, seated), slot) in seats.iter().zip(slots) {
                for (&p, output) in seated.iter().zip(slot.finish()) {
                    self.note_replay();
                    outputs[p] = Some(output);
                }
            }
        }
        outputs
            .into_iter()
            .map(|o| o.expect("every pending job served"))
            .collect()
    }

    fn print_progress(&self, done: usize, total: usize, events: u64, elapsed: Duration) {
        let c = self.counters();
        let rate = events as f64 / elapsed.as_secs_f64().max(1e-9) / 1e6;
        eprintln!(
            "[engine] {done}/{total} jobs · {} computed · {} cached · {} failed · {rate:.1} Mevents/s",
            c.computed, c.cached, c.failed
        );
    }

    fn bump(&self, f: impl FnOnce(&mut EngineCounters)) {
        f(&mut self.counters.lock().expect("counter lock"));
    }

    /// Inserts a finished job's output into the in-memory memo. Outputs are
    /// `Arc`-backed, so this clones a reference count, not the payload.
    fn memoize(&self, spec: &JobSpec, output: &JobOutput) {
        self.memo
            .lock()
            .expect("memo lock")
            .insert(spec.content_hash(), output.clone());
    }

    /// Executes a spec on the calling thread: a trace job records, a
    /// branch count is read from the trace header, and a simulation runs
    /// through [`fan_out`](Self::fan_out) as a group of one. Panics (caught
    /// by [`run_one`](Self::run_one)) on unknown workloads or inputs.
    fn execute(&self, spec: &JobSpec) -> JobOutput {
        let tref = TraceRef::of_spec(spec);
        match spec.kind {
            JobKind::Trace => self.record(spec),
            JobKind::BranchCount => JobOutput::Count(self.trace(&tref).events()),
            JobKind::Accuracy(_) | JobKind::TwoD(_) => self
                .fan_out(&self.trace(&tref), std::slice::from_ref(spec), &[0])
                .pop()
                .expect("one output per pending job"),
        }
    }

    /// Records the branch stream of the spec's (workload, input, scale)
    /// trio by running the workload once into a [`RecordedTrace`].
    fn record(&self, spec: &JobSpec) -> JobOutput {
        let _sp = twodprof_obs::span!("engine.record");
        let (workload, input) = resolve(spec);
        let mut trace = RecordedTrace::new(workload.sites().len());
        workload.run(&input, &mut trace);
        self.bump(|c| c.traces_recorded += 1);
        twodprof_obs::counter!(
            "trace_record_total",
            "Branch streams recorded from live workload runs."
        )
        .inc();
        JobOutput::Trace(Arc::new(trace))
    }

    fn note_replay(&self) {
        self.bump(|c| c.replays += 1);
        twodprof_obs::counter!(
            "trace_replay_total",
            "Jobs served by replaying a recorded trace; one simulation may serve several."
        )
        .inc();
    }
}

/// Resolves a spec's workload and input set from the registry, panicking
/// (caught by job fault isolation) when either name is unknown.
fn resolve(spec: &JobSpec) -> (Box<dyn workloads::Workload>, workloads::InputSet) {
    let workload = workloads::by_name(&spec.workload, spec.scale)
        .unwrap_or_else(|| panic!("unknown workload {:?}", spec.workload));
    let input = workload
        .input_set(&spec.input)
        .unwrap_or_else(|| panic!("{} lacks input {:?}", workload.name(), spec.input));
    (workload, input)
}

/// The recorded trace a trace job produced.
///
/// # Panics
///
/// Panics if the recording job failed.
fn recorded(result: &JobResult) -> Arc<RecordedTrace> {
    match &result.output {
        Some(JobOutput::Trace(trace)) => Arc::clone(trace),
        _ => panic!(
            "trace recording failed for {}/{} @{}",
            result.spec.workload,
            result.spec.input,
            scale_id(result.spec.scale)
        ),
    }
}

/// The message a panic carried, for a `Failed` status or reply.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One accuracy or 2D job as a simulation path sees it: the predictor kind
/// and whether the consumer wants a 2D report (vs. a plain accuracy
/// profile).
#[derive(Clone, Copy)]
struct SimJob {
    kind: PredictorKind,
    twod: bool,
}

impl SimJob {
    fn of(spec: &JobSpec) -> Self {
        match spec.kind {
            JobKind::Accuracy(kind) => SimJob { kind, twod: false },
            JobKind::TwoD(kind) => SimJob { kind, twod: true },
            _ => unreachable!("only simulation jobs are fused"),
        }
    }
}

/// Events per fused-replay chunk. Sized so the chunk buffer (8 bytes per
/// event) stays within half an L1 data cache while still amortizing one
/// virtual `run_chunk` call per simulation across thousands of events.
const FAN_CHUNK: usize = 2048;

/// A type-erased simulation being fed by the fused replay fan-out. Built
/// through [`PredictorKind::host`], so the predictor inside is concrete:
/// `run_chunk` is a monomorphic decode-free loop, entered through one
/// virtual call per chunk rather than per event. Chunking also
/// cache-blocks the fan-out — each simulation streams through a chunk with
/// its own predictor tables hot instead of evicting them on every event as
/// a per-event round-robin over all seated simulations would.
trait SimSlot: Send {
    fn run_chunk(&mut self, events: &[(SiteId, bool)]);
    /// One output per job the slot serves, in the order it was seated with.
    fn finish(self: Box<Self>) -> Vec<JobOutput>;
}

/// The one scalar simulation of a kind on a trace: a single predictor
/// whose per-event correct bit feeds every job of that kind — the per-site
/// counts behind its accuracy profiles and one [`SliceAccum`] per 2D job
/// (duplicate 2D specs are rare but legal; each gets its own fold). The
/// counts and folds are exactly those of a [`bpred::PredictorSim`] and a
/// [`twodprof_core::TwoDProfiler`] fed the same stream.
struct ScalarSlot<P> {
    predictor: P,
    exec: Vec<u64>,
    correct: Vec<u64>,
    accums: Vec<SliceAccum>,
    /// Per seated job, in order: whether it wants a 2D report.
    twod: Vec<bool>,
}

impl<P: BranchPredictor + 'static> SimSlot for ScalarSlot<P> {
    fn run_chunk(&mut self, events: &[(SiteId, bool)]) {
        for &(site, taken) in events {
            let correct = self.predictor.predict_and_train(site_pc(site), taken) == taken;
            self.exec[site.index()] += 1;
            self.correct[site.index()] += correct as u64;
            for accum in &mut self.accums {
                accum.record(site, correct);
            }
        }
    }

    fn finish(self: Box<Self>) -> Vec<JobOutput> {
        let name = self.predictor.name();
        let accuracy = JobOutput::Accuracy(
            AccuracyProfile::from_parts(self.exec, self.correct, name.clone()).into(),
        );
        let mut reports = self
            .accums
            .into_iter()
            .map(|a| JobOutput::Report(a.finish(Thresholds::paper(), name.clone()).into()));
        // outputs are Arc-backed, so the accuracy clones are reference counts
        self.twod
            .iter()
            .map(|&twod| {
                if twod {
                    reports.next().expect("one fold per 2D job")
                } else {
                    accuracy.clone()
                }
            })
            .collect()
    }
}

/// [`PredictorHost`] that seats one kind's jobs in a [`ScalarSlot`].
struct ScalarSlotHost {
    num_sites: usize,
    slice_config: SliceConfig,
    twod: Vec<bool>,
}

impl PredictorHost for ScalarSlotHost {
    type Out = Box<dyn SimSlot>;

    fn run<P: BranchPredictor + 'static>(self, predictor: P) -> Self::Out {
        let accums = self
            .twod
            .iter()
            .filter(|&&twod| twod)
            .map(|_| SliceAccum::new(self.num_sites, self.slice_config))
            .collect();
        Box::new(ScalarSlot {
            predictor,
            exec: vec![0; self.num_sites],
            correct: vec![0; self.num_sites],
            accums,
            twod: self.twod,
        })
    }
}

/// The fused decode target: buffers replayed events and hands each full
/// chunk to every seated simulation in turn. The final partial chunk is
/// delivered by [`FanOut::flush`], which the fused runner calls after the
/// decode pass.
struct FanOut<'a> {
    slots: &'a mut [Box<dyn SimSlot>],
    buf: Vec<(SiteId, bool)>,
}

impl<'a> FanOut<'a> {
    fn new(slots: &'a mut [Box<dyn SimSlot>]) -> Self {
        Self {
            slots,
            buf: Vec::with_capacity(FAN_CHUNK),
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let _sp = twodprof_obs::span!("engine.fused_chunk");
        for slot in self.slots.iter_mut() {
            slot.run_chunk(&self.buf);
        }
        self.buf.clear();
    }
}

impl Tracer for FanOut<'_> {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.buf.push((site, taken));
        if self.buf.len() == FAN_CHUNK {
            self.flush();
        }
    }
}

/// Enumerates the full evaluation grid at `scale`: for every workload and
/// every input set, a branch count and an accuracy profile under each
/// evaluation predictor, plus one 2D-profiling run per (workload,
/// predictor) on the `train` input — the superset of simulations the
/// paper's figures and tables consume.
pub fn full_grid(scale: Scale) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for workload in workloads::suite(scale) {
        let name = workload.name();
        for input in workload.input_sets() {
            specs.push(JobSpec::count(name, input.name, scale));
            for kind in PredictorKind::ALL {
                specs.push(JobSpec::accuracy(name, input.name, scale, kind));
            }
        }
        for kind in PredictorKind::ALL {
            specs.push(JobSpec::two_d(name, "train", scale, kind));
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_covers_every_workload_and_kind() {
        let specs = full_grid(Scale::Tiny);
        let workload_count = workloads::suite(Scale::Tiny).len();
        assert!(specs.len() > workload_count * 5);
        for workload in workloads::suite(Scale::Tiny) {
            for kind in [
                JobKind::BranchCount,
                JobKind::Accuracy(PredictorKind::Gshare4Kb),
                JobKind::TwoD(PredictorKind::Perceptron16Kb),
            ] {
                assert!(
                    specs
                        .iter()
                        .any(|s| s.workload == workload.name() && s.kind == kind),
                    "{} lacks {kind:?}",
                    workload.name()
                );
            }
        }
        // no duplicate specs in the grid
        let mut keys: Vec<u64> = specs.iter().map(JobSpec::content_hash).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), specs.len());
    }

    #[test]
    fn worker_count_defaults_to_parallelism() {
        let default = Engine::new(EngineConfig::default());
        assert!(default.worker_count() >= 1);
        let fixed = Engine::new(EngineConfig {
            jobs: 3,
            ..EngineConfig::default()
        });
        assert_eq!(fixed.worker_count(), 3);
        assert!(!fixed.has_cache());
    }

    #[test]
    fn counters_accumulate_across_runs() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let spec = JobSpec::count("gzip", "train", Scale::Tiny);
        engine.run_one(&spec); // computes the trace job, then the count job
        engine.run_one(&spec); // served from the in-memory memo
        let c = engine.counters();
        assert_eq!(c.computed, 2);
        assert_eq!(c.memo, 1);
        assert_eq!(c.cached, 0);
        assert_eq!(c.traces_recorded, 1);
        assert!(c.events > 0);
    }

    #[test]
    fn run_jobs_records_each_trace_once_and_releases_memo() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let specs = vec![
            JobSpec::count("gzip", "train", Scale::Tiny),
            JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb),
            JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Perceptron16Kb),
            JobSpec::two_d("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb),
        ];
        let results = engine.run_jobs(&specs);
        assert!(results.iter().all(|r| r.status.is_success()));
        let c = engine.counters();
        assert_eq!(c.traces_recorded, 1, "one trio, one recording");
        assert_eq!(c.replays, 3, "two accuracy sims plus one 2D profile");
        // after the sweep the memo keeps results but not traces
        let memo = engine.memo.lock().expect("memo lock");
        assert!(!memo.is_empty());
        assert!(memo
            .values()
            .all(|output| !matches!(output, JobOutput::Trace(_))));
    }
}
