//! The run-driven lane group of the fused replay path.
//!
//! Where the scalar fused path ([`FanOut`](crate::FanOut)) feeds every
//! seated simulation one `(site, taken)` event at a time, the lane group
//! steps its simulations over [`RecordedTrace::site_runs_cut`]: same-site
//! direction streaks, word-aligned (a run never straddles a 64-event
//! direction word), so the per-site bookkeeping happens once per run
//! instead of once per event. All replay jobs whose predictor kind is
//! [`eligible`](bpred::bitslice::eligible) share one decode pass and one
//! simulation per kind — an accuracy job and a 2D job of the same kind
//! split a single simulation's correct-bit counts. When the group seats
//! every kind in [`SurveyFused::KINDS`] (any full survey sweep does), all
//! ten simulations collapse into one fused pass sharing a single global
//! history register and one per-event direction extraction. A partial
//! seating gives each kind one generic [`RunLane`]: the kind's scalar
//! predictor, stepped through each run's direction bits in order.
//!
//! Slice accounting is exact: the decoder also cuts the runs at every
//! slice boundary — one more start bit in its per-word run mask — so each
//! run lies wholly inside one slice (every 2D job on one trace uses
//! `SliceConfig::auto(trace.events())`, so they all share the same
//! boundary sequence). The group counts the events taken into the open
//! slice and closes it when the count reaches the slice length: per-site
//! `(exec, correct)` batches are folded into each job's [`SliceAccum`] in
//! site order, and `SliceAccum` performs the identical floating-point fold
//! the per-event profiler performs — so reports are bit-identical to the
//! scalar path's, which the `bitslice_equiv` differential suite enforces.

use crate::{JobOutput, SimJob};
use bpred::bitslice::SurveyFused;
use bpred::{site_pc, AccuracyProfile, BranchPredictor, PredictorHost, PredictorKind};
use btrace::{RecordedTrace, SiteId, SiteRun};
use twodprof_core::{SliceAccum, SliceConfig, Thresholds};

/// Runs buffered before the segment is pushed through every simulation.
/// Sized so the buffer (16 bytes per run) stays L1-resident alongside the
/// predictor tables while amortizing the per-sim dispatch across ~1k runs.
const RUN_SEGMENT: usize = 1024;

/// One predictor kind stepping over same-site runs.
trait RunLane {
    /// Steps the predictor over `runs` (in stream order, direction bits
    /// above `len` zero), adding each run's correct predictions into
    /// `correct[site]`.
    fn run_segment(&mut self, runs: &[SiteRun], correct: &mut [u64]);
}

/// The run lane of a kind seated outside the fused pass: its scalar
/// predictor, so the counts are by construction those of a
/// [`bpred::PredictorSim`] fed the same stream.
struct ScalarLane<P>(P);

impl<P: BranchPredictor> RunLane for ScalarLane<P> {
    fn run_segment(&mut self, runs: &[SiteRun], correct: &mut [u64]) {
        for r in runs {
            let pc = site_pc(r.site);
            let mut bits = r.bits;
            let mut c = 0u64;
            for _ in 0..r.len {
                let taken = bits & 1 == 1;
                c += (self.0.predict_and_train(pc, taken) == taken) as u64;
                bits >>= 1;
            }
            correct[r.site.index()] += c;
        }
    }
}

/// [`PredictorHost`] that seats a kind in a [`ScalarLane`], so the
/// predictor's step inlines into the run loop.
struct ScalarLaneHost;

impl PredictorHost for ScalarLaneHost {
    type Out = Box<dyn RunLane>;

    fn run<P: BranchPredictor + 'static>(self, predictor: P) -> Self::Out {
        Box::new(ScalarLane(predictor))
    }
}

/// The consumers of one simulated kind's correct bits.
struct Account {
    name: String,
    /// Whole-run correct predictions per site (for accuracy consumers).
    correct_total: Vec<u64>,
    /// Slice accounting, one per 2D job seated on this kind (duplicate
    /// specs are rare but legal; each gets its own fold).
    accums: Vec<SliceAccum>,
    wants_accuracy: bool,
}

/// One simulation unit. Correct-bit slice buffers live with the unit (not
/// the accounts) because the fused pass writes ten columns in one call.
enum Sim {
    /// All ten [`SurveyFused::KINDS`] in one pass; `accounts[k]` is the
    /// account of `KINDS[k]`, `correct[k]` its slice-local correct bits.
    Fused {
        pass: Box<SurveyFused>,
        /// Per-site rows of ten per-kind correct counts (`KINDS` order) —
        /// row-major so a run's tally flush touches adjacent cache lines.
        correct: Vec<[u64; 10]>,
        accounts: [usize; 10],
    },
    /// A single kind on its own lane.
    Lane {
        lane: Box<dyn RunLane>,
        correct: Vec<u64>,
        account: usize,
    },
}

/// Folds one kind's open-slice correct bits into its consumers and resets
/// them. `roll` distinguishes an exact boundary (close the slice) from the
/// end-of-trace partial (left open for `SliceAccum::finish` to fold,
/// matching the per-event path).
fn fold_account(account: &mut Account, correct_slice: &mut [u64], exec_slice: &[u64], roll: bool) {
    for accum in &mut account.accums {
        for (s, &e) in exec_slice.iter().enumerate() {
            if e > 0 {
                accum.record_batch(SiteId(s as u32), e, correct_slice[s]);
            }
        }
        if roll {
            accum.roll_slice();
        }
    }
    for (s, c) in correct_slice.iter_mut().enumerate() {
        account.correct_total[s] += *c;
        *c = 0;
    }
}

/// A lane group's simulations with the runs buffered for them and the
/// per-site execution counts of the open slice.
struct Replay {
    sims: Vec<Sim>,
    accounts: Vec<(PredictorKind, Account)>,
    seg: Vec<SiteRun>,
    /// Per-site execution counts: identical for every kind, so they are
    /// tallied once outside the accounts.
    exec_slice: Vec<u64>,
    exec_total: Vec<u64>,
    /// One kind's column of the fused pass's rows, transposed for the fold.
    column: Vec<u64>,
}

impl Replay {
    /// Takes one run; a full buffer goes through every simulation.
    #[inline]
    fn push(&mut self, run: SiteRun) {
        self.exec_slice[run.site.index()] += run.len as u64;
        self.seg.push(run);
        if self.seg.len() == RUN_SEGMENT {
            self.flush();
        }
    }

    /// Pushes the buffered runs through every simulation.
    fn flush(&mut self) {
        for sim in &mut self.sims {
            match sim {
                Sim::Fused { pass, correct, .. } => pass.run_segment(&self.seg, correct),
                Sim::Lane { lane, correct, .. } => lane.run_segment(&self.seg, correct),
            }
        }
        self.seg.clear();
    }

    /// Flushes the buffer and folds the open slice into every account;
    /// `roll` as in [`fold_account`]. Out of line: it runs once per slice,
    /// and inlined into the per-run loop it measurably slowed that loop.
    #[cold]
    #[inline(never)]
    fn close_slice(&mut self, roll: bool) {
        self.flush();
        let accounts = &mut self.accounts;
        for sim in &mut self.sims {
            match sim {
                Sim::Fused {
                    correct,
                    accounts: at,
                    ..
                } => {
                    // transpose each kind's column out of the row-major
                    // rows so the shared fold sees a plain per-site slice
                    for k in 0..10 {
                        for (s, row) in correct.iter_mut().enumerate() {
                            self.column[s] = row[k];
                            row[k] = 0;
                        }
                        let account = &mut accounts[at[k]].1;
                        fold_account(account, &mut self.column, &self.exec_slice, roll);
                    }
                }
                Sim::Lane {
                    correct, account, ..
                } => fold_account(&mut accounts[*account].1, correct, &self.exec_slice, roll),
            }
        }
        for (total, e) in self.exec_total.iter_mut().zip(&mut self.exec_slice) {
            *total += *e;
            *e = 0;
        }
    }
}

/// Replays `trace` once through one simulation per distinct predictor kind
/// in `jobs`, returning one output per job in order.
///
/// The caller (the fused fan-out) routes only
/// [`eligible`](bpred::bitslice::eligible) kinds here and every other kind
/// to scalar slots.
pub(crate) fn run_lane_group(trace: &RecordedTrace, jobs: &[SimJob]) -> Vec<JobOutput> {
    let _sp = twodprof_obs::span!("engine.bitslice");
    let num_sites = trace.num_sites();
    let slice_config = SliceConfig::auto(trace.events());

    // Account assignment: jobs of the same kind share one simulation.
    let mut accounts: Vec<(PredictorKind, Account)> = Vec::new();
    let mut job_account = Vec::with_capacity(jobs.len());
    for job in jobs {
        let at = match accounts.iter().position(|(k, _)| *k == job.kind) {
            Some(at) => at,
            None => {
                let name = job.kind.build().name();
                accounts.push((
                    job.kind,
                    Account {
                        name,
                        correct_total: vec![0; num_sites],
                        accums: Vec::new(),
                        wants_accuracy: false,
                    },
                ));
                accounts.len() - 1
            }
        };
        let account = &mut accounts[at].1;
        if job.twod {
            job_account.push((at, Some(account.accums.len())));
            account
                .accums
                .push(SliceAccum::new(num_sites, slice_config));
        } else {
            job_account.push((at, None));
            account.wants_accuracy = true;
        }
    }
    let has_twod = accounts.iter().any(|(_, a)| !a.accums.is_empty());

    // Simulation seating: when every table kind is present (any full
    // survey sweep), all ten ride one fused pass; partial groups get one
    // scalar lane per kind.
    let mut sims: Vec<Sim> = Vec::new();
    let fused_accounts: Option<[usize; 10]> = {
        let mut idx = [0usize; 10];
        let all = SurveyFused::KINDS.iter().enumerate().all(|(k, kind)| {
            accounts
                .iter()
                .position(|(a, _)| a == kind)
                .map(|at| idx[k] = at)
                .is_some()
        });
        all.then_some(idx)
    };
    if let Some(accounts) = fused_accounts {
        sims.push(Sim::Fused {
            pass: Box::new(SurveyFused::new()),
            correct: vec![[0u64; 10]; num_sites],
            accounts,
        });
    }
    for (at, (kind, _)) in accounts.iter().enumerate() {
        if fused_accounts.is_some() && SurveyFused::KINDS.contains(kind) {
            continue;
        }
        sims.push(Sim::Lane {
            lane: kind.host(ScalarLaneHost),
            correct: vec![0; num_sites],
            account: at,
        });
    }

    let mut replay = Replay {
        sims,
        accounts,
        seg: Vec::with_capacity(RUN_SEGMENT),
        exec_slice: vec![0; num_sites],
        exec_total: vec![0; num_sites],
        column: vec![0; num_sites],
    };
    // With a 2D job seated the runs are cut at every slice boundary, so
    // each run's batch lands wholly inside one slice and a slice closes
    // exactly when the events taken reach its length. An accuracy-only
    // group never closes a slice, so its runs are cut at words only.
    let slice_len = if has_twod {
        slice_config.slice_len()
    } else {
        u64::MAX
    };
    let mut in_slice = 0u64;
    trace.site_runs_cut(slice_len).for_each(|run| {
        replay.push(run);
        in_slice += run.len as u64;
        if in_slice == slice_len {
            replay.close_slice(true);
            in_slice = 0;
        }
    });
    replay.close_slice(false);
    let Replay {
        mut accounts,
        exec_total,
        ..
    } = replay;

    // Assemble per-account outputs, then distribute to jobs in order.
    let mut acc_outputs: Vec<Option<JobOutput>> = Vec::with_capacity(accounts.len());
    let mut twod_outputs: Vec<Vec<JobOutput>> = Vec::with_capacity(accounts.len());
    for (_, account) in accounts.iter_mut() {
        acc_outputs.push(account.wants_accuracy.then(|| {
            JobOutput::Accuracy(
                AccuracyProfile::from_parts(
                    exec_total.clone(),
                    account.correct_total.clone(),
                    account.name.clone(),
                )
                .into(),
            )
        }));
        twod_outputs.push(
            account
                .accums
                .drain(..)
                .map(|a| {
                    JobOutput::Report(a.finish(Thresholds::paper(), account.name.clone()).into())
                })
                .collect(),
        );
    }
    job_account
        .into_iter()
        .map(|(at, twod)| match twod {
            // outputs are Arc-backed, so these clones are reference counts
            Some(nth) => twod_outputs[at][nth].clone(),
            None => acc_outputs[at].clone().expect("accuracy output built"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred::PredictorSim;
    use btrace::Tracer;
    use twodprof_core::TwoDProfiler;

    /// Drives a [`ScalarLane`] and the scalar `PredictorSim` of `kind` over
    /// the same pseudo-random stream — single events mixed with streaks
    /// that cross 64 and 2048 events, fed in segments of 7 runs so state
    /// carries across segment boundaries — and asserts identical per-site
    /// counts.
    fn assert_lane_matches_scalar(kind: PredictorKind, num_sites: usize, events: usize) {
        let mut trace = RecordedTrace::new(num_sites);
        let mut sim = PredictorSim::new(num_sites, kind.build());
        let mut x = 0xdead_beef_cafe_f00du64 ^ events as u64;
        let mut site = 0u32;
        let mut streak = 0u64;
        for _ in 0..events {
            if streak == 0 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                site = (x % num_sites as u64) as u32;
                streak = 1 + (x >> 32) % [1u64, 3, 70, 2100][(x >> 60) as usize % 4];
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = x & 3 != 0;
            trace.push(SiteId(site), taken);
            sim.branch(SiteId(site), taken);
            streak -= 1;
        }
        let mut lane = kind.host(ScalarLaneHost);
        let mut correct = vec![0u64; num_sites];
        let runs: Vec<SiteRun> = trace.site_runs().collect();
        for seg in runs.chunks(7) {
            lane.run_segment(seg, &mut correct);
        }
        let profile = sim.into_profile();
        for (s, &c) in correct.iter().enumerate() {
            assert_eq!(c, profile.correct(SiteId(s as u32)), "{kind} site {s}");
        }
    }

    #[test]
    fn every_eligible_lane_matches_its_scalar_predictor() {
        for kind in SurveyFused::KINDS {
            assert_lane_matches_scalar(kind, 13, 30_000);
        }
    }

    #[test]
    fn every_eligible_lane_matches_on_a_wide_site_table() {
        // 300 sites: far jumps are two-byte deltas
        for kind in SurveyFused::KINDS {
            assert_lane_matches_scalar(kind, 300, 30_000);
        }
    }

    /// `events` events over `num_sites` sites: far jumps (multi-byte deltas
    /// on a wide table), near steps and streaks that cross direction words,
    /// plus one 40-event streak centred on event `straddle`.
    fn synthetic_trace(num_sites: u32, events: u64, straddle: u64) -> RecordedTrace {
        let mut trace = RecordedTrace::new(num_sites as usize);
        let mut x = 0x0123_4567_89ab_cdefu64 ^ events;
        let mut site = 0u32;
        while trace.events() < events {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            site = match x % 3 {
                0 => (x >> 8) as u32 % num_sites,
                1 => (site + 1) % num_sites,
                _ => site,
            };
            let at = trace.events();
            let mut streak = 1 + (x >> 40) % [1u64, 2, 5, 150][(x >> 60) as usize % 4];
            if at < straddle && straddle <= at + 40 {
                streak = straddle + 20 - at;
            }
            for i in 0..streak.min(events - at) {
                trace.push(SiteId(site), (x >> (i % 31)) & 3 != 0);
            }
        }
        trace
    }

    /// The site of every event, in order.
    #[derive(Default)]
    struct SiteLog(Vec<SiteId>);

    impl Tracer for SiteLog {
        fn branch(&mut self, site: SiteId, _taken: bool) {
            self.0.push(site);
        }
    }

    /// The payload a job's output must have: the trace replayed straight
    /// into one `PredictorSim` or `TwoDProfiler`, with no lane group.
    fn oracle(trace: &RecordedTrace, job: &SimJob) -> Vec<u8> {
        let sites = trace.num_sites();
        let output = if job.twod {
            let config = SliceConfig::auto(trace.events());
            let mut profiler = TwoDProfiler::new(sites, job.kind.build(), config);
            trace.replay_into(&mut profiler);
            JobOutput::Report(profiler.finish(Thresholds::paper()).into())
        } else {
            let mut sim = PredictorSim::new(sites, job.kind.build());
            trace.replay_into(&mut sim);
            JobOutput::Accuracy(sim.into_profile().into())
        };
        output.to_payload()
    }

    #[test]
    fn lane_group_matches_the_scalar_profilers_on_a_wide_site_table() {
        let full: Vec<SimJob> = SurveyFused::KINDS
            .iter()
            .flat_map(|&kind| [false, true].map(|twod| SimJob { kind, twod }))
            .collect();
        let partial = [
            SimJob {
                kind: PredictorKind::Gshare4Kb,
                twod: true,
            },
            SimJob {
                kind: PredictorKind::Local4Kb,
                twod: true,
            },
            SimJob {
                kind: PredictorKind::Gshare4Kb,
                twod: false,
            },
        ];
        // 200 slices of 640 events (a whole number of direction words) and
        // of 777 events (a boundary inside a word), each first boundary
        // inside a same-site streak
        for slice_len in [640u64, 777] {
            let events = slice_len * SliceConfig::AUTO_TARGET_SLICES;
            assert_eq!(SliceConfig::auto(events).slice_len(), slice_len);
            let trace = synthetic_trace(300, events, slice_len);
            let mut stream = SiteLog::default();
            trace.replay_into(&mut stream);
            let at = slice_len as usize;
            assert_eq!(stream.0[at - 1], stream.0[at], "a streak straddles");
            for jobs in [&full[..], &partial[..]] {
                let outputs = run_lane_group(&trace, jobs);
                assert_eq!(outputs.len(), jobs.len());
                for (job, output) in jobs.iter().zip(&outputs) {
                    assert!(
                        output.to_payload() == oracle(&trace, job),
                        "{} {} differs at slice length {slice_len}",
                        job.kind,
                        if job.twod { "2D report" } else { "accuracy" }
                    );
                }
            }
        }
    }
}
