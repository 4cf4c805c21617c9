//! The run-driven lane group of the fused replay path.
//!
//! Where the scalar fused path ([`FanOut`](crate::FanOut)) feeds every
//! seated simulation one `(site, taken)` event at a time, the lane group
//! steps its simulations over [`RecordedTrace::site_runs`]: maximal
//! same-site direction streaks of up to 64 events, so the per-site
//! bookkeeping happens once per run instead of once per event. All replay
//! jobs whose predictor kind is [`eligible`](bpred::bitslice::eligible)
//! share one decode pass and one simulation per kind — an accuracy job and
//! a 2D job of the same kind split a single simulation's correct-bit
//! counts. When the group seats every kind in [`SurveyFused::KINDS`] (any
//! full survey sweep does), all ten simulations collapse into one fused
//! pass sharing a single global history register and one per-event
//! direction extraction. A partial seating gives each kind one generic
//! [`RunLane`]: the kind's scalar predictor, stepped through each run's
//! direction bits in order.
//!
//! Slice accounting is exact: runs are split at the global slice boundary
//! (every 2D job on one trace uses `SliceConfig::auto(trace.events())`, so
//! they all share the same boundary sequence), per-site `(exec, correct)`
//! batches are folded into each job's [`SliceAccum`] in site order at every
//! boundary, and `SliceAccum` performs the identical floating-point fold
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
    let slice_len = slice_config.slice_len();

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

    // Shared per-site execution counts: identical for every kind, so they
    // are tallied once outside the accounts.
    let mut exec_slice = vec![0u64; num_sites];
    let mut exec_total = vec![0u64; num_sites];
    let mut seg: Vec<SiteRun> = Vec::with_capacity(RUN_SEGMENT);
    // Events left in the open slice; only consulted when a 2D job exists
    // (accuracy-only groups never split runs).
    let mut remaining = slice_len;

    let flush = |seg: &mut Vec<SiteRun>, sims: &mut [Sim]| {
        if seg.is_empty() {
            return;
        }
        for sim in sims.iter_mut() {
            match sim {
                Sim::Fused { pass, correct, .. } => pass.run_segment(seg, correct),
                Sim::Lane { lane, correct, .. } => lane.run_segment(seg, correct),
            }
        }
        seg.clear();
    };

    let fold_slice = |sims: &mut [Sim],
                      accounts: &mut [(PredictorKind, Account)],
                      exec_slice: &mut [u64],
                      exec_total: &mut [u64],
                      roll: bool| {
        for sim in sims.iter_mut() {
            match sim {
                Sim::Fused {
                    correct,
                    accounts: at,
                    ..
                } => {
                    // transpose each kind's column out of the row-major
                    // rows so the shared fold sees a plain per-site slice
                    let mut column = vec![0u64; correct.len()];
                    for k in 0..10 {
                        for (s, row) in correct.iter_mut().enumerate() {
                            column[s] = row[k];
                            row[k] = 0;
                        }
                        fold_account(&mut accounts[at[k]].1, &mut column, exec_slice, roll);
                    }
                }
                Sim::Lane {
                    correct, account, ..
                } => fold_account(&mut accounts[*account].1, correct, exec_slice, roll),
            }
        }
        for (s, e) in exec_slice.iter_mut().enumerate() {
            exec_total[s] += *e;
            *e = 0;
        }
    };

    for run in trace.site_runs() {
        let mut len = run.len;
        let mut bits = run.bits;
        while len > 0 {
            // Split the run at the slice boundary so each piece's batch
            // lands wholly inside one slice.
            let take = if has_twod {
                len.min(remaining.min(64) as u32)
            } else {
                len
            };
            let piece = SiteRun {
                site: run.site,
                len: take,
                bits: if take < 64 {
                    bits & ((1u64 << take) - 1)
                } else {
                    bits
                },
            };
            if take < 64 {
                bits >>= take;
            }
            len -= take;
            exec_slice[piece.site.index()] += take as u64;
            seg.push(piece);
            if seg.len() == RUN_SEGMENT {
                flush(&mut seg, &mut sims);
            }
            if has_twod {
                remaining -= take as u64;
                if remaining == 0 {
                    flush(&mut seg, &mut sims);
                    fold_slice(
                        &mut sims,
                        &mut accounts,
                        &mut exec_slice,
                        &mut exec_total,
                        true,
                    );
                    remaining = slice_len;
                }
            }
        }
    }
    flush(&mut seg, &mut sims);
    fold_slice(
        &mut sims,
        &mut accounts,
        &mut exec_slice,
        &mut exec_total,
        false,
    );

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
}
