//! The simulation behind one live daemon session: a [`TwoDProfiler`] over
//! a concrete predictor, built through [`PredictorKind::host`] the same
//! way as the sweep engine's scalar slots, and entered through one virtual
//! call per `Events` frame.
//!
//! [`SessionSim::ingest`] runs one monomorphic loop over a frame: the
//! predictor step, the 2D accumulation, the program's streaming tally and
//! the session recording. The loop is compiled once per predictor
//! configuration and per combination of streaming and recording, so no
//! per-event call is virtual and no per-event branch asks which extras a
//! session has. `Resim` replays a recording through a simulation built the
//! same way, and the client's `--verify` run feeds one as a [`Tracer`].

use crate::spill::SessionTrace;
use bpred::{BranchPredictor, PredictorHost, PredictorKind};
use btrace::{NullTracer, SiteId, Tracer};
use std::io;
use twodprof_core::{ProfileReport, SliceConfig, Thresholds, TwoDProfiler};
use twodprof_stream::SessionIngest;

/// A session's 2D-profiling simulation with its predictor type erased.
pub(crate) trait SessionSim: Tracer + Send {
    /// Runs one frame of events, in order: each event's prediction
    /// outcome is accumulated, tallied into `stream` when the session
    /// joined a program, and the event is appended to `recording` when the
    /// session records.
    fn ingest(
        &mut self,
        events: &[(u32, bool)],
        stream: Option<&mut SessionIngest>,
        recording: Option<&mut SessionTrace>,
    );

    /// Feeds a whole recording through the simulation.
    ///
    /// # Errors
    ///
    /// I/O or decode errors reading a spilled segment back.
    fn replay(&mut self, recording: &SessionTrace) -> io::Result<()>;

    /// Ends the run and classifies every branch with the paper's
    /// thresholds.
    fn finish(self: Box<Self>) -> ProfileReport;
}

/// Builds the simulation for `kind` over `num_sites` branches sliced per
/// `slice`.
pub(crate) fn session_sim(
    kind: PredictorKind,
    num_sites: usize,
    slice: SliceConfig,
) -> Box<dyn SessionSim> {
    kind.host(SimHost { num_sites, slice })
}

/// [`PredictorHost`] that seats a fresh predictor in a [`Sim`].
struct SimHost {
    num_sites: usize,
    slice: SliceConfig,
}

impl PredictorHost for SimHost {
    type Out = Box<dyn SessionSim>;

    fn run<P: BranchPredictor + 'static>(self, predictor: P) -> Self::Out {
        Box::new(Sim(TwoDProfiler::new(
            self.num_sites,
            predictor,
            self.slice,
        )))
    }
}

struct Sim<P>(TwoDProfiler<P>);

impl<P: BranchPredictor> Tracer for Sim<P> {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.0.branch_outcome(site, taken);
    }
}

impl<P: BranchPredictor + 'static> SessionSim for Sim<P> {
    fn ingest(
        &mut self,
        events: &[(u32, bool)],
        stream: Option<&mut SessionIngest>,
        recording: Option<&mut SessionTrace>,
    ) {
        let profiler = &mut self.0;
        match (stream, recording) {
            (Some(fold), Some(rec)) => run(profiler, events, fold, rec),
            (Some(fold), None) => run(profiler, events, fold, &mut NullTracer),
            (None, Some(rec)) => run(profiler, events, &mut NoFold, rec),
            (None, None) => run(profiler, events, &mut NoFold, &mut NullTracer),
        }
    }

    fn replay(&mut self, recording: &SessionTrace) -> io::Result<()> {
        recording.replay_into(&mut self.0)
    }

    fn finish(self: Box<Self>) -> ProfileReport {
        self.0.finish(Thresholds::paper())
    }
}

/// The streaming side of a frame. Events are tallied in chunks bounded by
/// the open epoch's remaining capacity, so the per-event streaming cost is
/// two counter adds and the epoch bookkeeping settles once per chunk.
trait Fold {
    /// Events the open epoch still accepts; at least 1.
    fn room(&self) -> usize;
    fn tally(&mut self, site: SiteId, correct: bool);
    /// Closes out `n` tallied events.
    fn advance(&mut self, n: usize);
}

impl Fold for SessionIngest {
    #[inline]
    fn room(&self) -> usize {
        usize::try_from(self.slice_remaining()).unwrap_or(usize::MAX)
    }

    #[inline]
    fn tally(&mut self, site: SiteId, correct: bool) {
        SessionIngest::tally(self, site, correct);
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        SessionIngest::advance(self, n as u64);
    }
}

/// No streaming program: the whole frame is one chunk and nothing is
/// tallied.
struct NoFold;

impl Fold for NoFold {
    #[inline]
    fn room(&self) -> usize {
        usize::MAX
    }

    #[inline]
    fn tally(&mut self, _site: SiteId, _correct: bool) {}

    #[inline]
    fn advance(&mut self, _n: usize) {}
}

#[inline(always)]
fn run<P: BranchPredictor, F: Fold, R: Tracer>(
    profiler: &mut TwoDProfiler<P>,
    mut events: &[(u32, bool)],
    fold: &mut F,
    recording: &mut R,
) {
    while !events.is_empty() {
        let (chunk, rest) = events.split_at(fold.room().min(events.len()));
        for &(site, taken) in chunk {
            let site = SiteId(site);
            let correct = profiler.branch_outcome(site, taken);
            fold.tally(site, correct);
            recording.branch(site, taken);
        }
        fold.advance(chunk.len());
        events = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twodprof_stream::{StreamConfig, StreamingProfiler};

    fn stream(len: u32, sites: u32) -> Vec<(u32, bool)> {
        (0..len)
            .map(|i| (i.wrapping_mul(2_654_435_761) % sites, i % 7 < 3))
            .collect()
    }

    #[test]
    fn every_combination_of_extras_matches_a_plain_profiler() {
        let events = stream(5_000, 9);
        let slice = SliceConfig::new(256, 4);
        let expect = {
            let mut prof = TwoDProfiler::new(9, PredictorKind::Gshare4Kb.build(), slice);
            for &(site, taken) in &events {
                prof.branch(SiteId(site), taken);
            }
            prof.finish(Thresholds::paper()).to_bytes()
        };
        let dir = std::env::temp_dir().join(format!("twodprof-session-{}", std::process::id()));
        for (streamed, recorded) in [(false, false), (false, true), (true, false), (true, true)] {
            let config = StreamConfig {
                slice: SliceConfig::new(100, 4),
                ..StreamConfig::default()
            };
            let mut profiler = StreamingProfiler::new(9, config);
            let mut ingest = streamed.then(|| profiler.begin_session());
            let mut rec = recorded.then(|| SessionTrace::new(9, 1, usize::MAX, dir.clone()));
            let mut sim = session_sim(PredictorKind::Gshare4Kb, 9, slice);
            // uneven frames, so chunks straddle epoch boundaries
            for frame in events.chunks(333) {
                sim.ingest(frame, ingest.as_mut(), rec.as_mut());
            }
            assert_eq!(sim.finish().to_bytes(), expect, "{streamed} {recorded}");
            if let Some(ingest) = ingest {
                assert_eq!(ingest.pending_epochs(), events.len() / 100);
            }
            if let Some(rec) = rec {
                assert_eq!(rec.events(), events.len() as u64);
                let mut again = session_sim(PredictorKind::Gshare4Kb, 9, slice);
                again.replay(&rec).unwrap();
                assert_eq!(again.finish().to_bytes(), expect, "replayed recording");
            }
        }
    }
}
