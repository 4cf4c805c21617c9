//! The incremental streaming profiler: epoch-aligned multi-session merge,
//! windowed folds, and hysteresis-guarded drift detection.
//!
//! # Epoch alignment
//!
//! The batch profiler slices one global event stream. With several concurrent
//! sessions feeding one program there is no natural global order — any
//! arrival-order slicing would make results depend on socket scheduling. The
//! streaming profiler instead slices each session's *own* stream into epochs
//! of `slice_len` events ([`SessionIngest`]) and merges per-epoch, per-site
//! `(executions, correct)` counts by epoch index. Addition of counts is
//! commutative, so the merged epoch content — and therefore every verdict and
//! drift event — is invariant under session interleaving.
//!
//! Epoch *k* folds once every active session has closed it (the watermark is
//! the minimum over sessions' completed-epoch counts), or unconditionally
//! when the last session finishes. A session lagging more than
//! [`StreamConfig::max_lag`] epochs behind the newest pending epoch no longer
//! holds the watermark back: the oldest pending epoch is force-folded and the
//! straggler's late contribution is dropped (counted, not silently).
//!
//! # Equivalence with the batch profiler
//!
//! For a single session, a window at least as large as the run, and the same
//! slice geometry, a fold performs the identical floating-point operations in
//! the identical order as `TwoDProfiler::finish` — the window == run
//! equivalence test pins streaming verdicts to the batch report bit for bit.

use crate::event::{DriftEvent, SiteVerdict, VerdictSnapshot};
use crate::window::SiteWindow;
use btrace::SiteId;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;
use twodprof_core::{Classification, SliceConfig, Thresholds};

/// Configuration of the streaming profiler.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Per-session epoch geometry: `slice_len` events close an epoch,
    /// `exec_threshold` gates whether a site's epoch sample is counted.
    pub slice: SliceConfig,
    /// Sliding-window size, in slices, for both per-site statistics and the
    /// program-accuracy window. Must be at least 1.
    pub window: usize,
    /// Consecutive folds that must confirm a new classification before the
    /// published verdict flips and a drift event fires. 1 disables
    /// hysteresis. Must be at least 1.
    pub hysteresis: u32,
    /// MEAN/STD/PAM thresholds; the MEAN test resolves against the
    /// *windowed* program accuracy.
    pub thresholds: Thresholds,
    /// Maximum pending (merged but unfolded) epochs before the watermark is
    /// forced past a straggler session. Must be at least 1.
    pub max_lag: usize,
}

impl Default for StreamConfig {
    /// Daemon-scale defaults: 8192-event slices with threshold 128, a
    /// 32-slice window, and 2-fold hysteresis.
    fn default() -> Self {
        Self {
            slice: SliceConfig::new(8192, 128),
            window: 32,
            hysteresis: 2,
            thresholds: Thresholds::paper(),
            max_lag: 256,
        }
    }
}

/// Per-session event accumulator: slices the session's own stream into
/// epochs of `slice_len` events and queues closed epochs for merging.
///
/// Created by [`StreamingProfiler::begin_session`]; feed it prediction
/// outcomes with [`record`](Self::record), then hand closed epochs back via
/// [`StreamingProfiler::ingest`] and finally
/// [`StreamingProfiler::finish_session`].
#[derive(Debug)]
pub struct SessionIngest {
    id: u64,
    slice_len: u64,
    in_slice: u64,
    /// Dense per-site `(exec, correct)` counts for the open epoch.
    counts: Vec<(u64, u64)>,
    /// Sites touched in the open epoch (so closing is O(touched)).
    dirty: Vec<u32>,
    closed: VecDeque<EpochBatch>,
}

impl SessionIngest {
    fn new(id: u64, num_sites: usize, slice_len: u64) -> Self {
        Self {
            id,
            slice_len,
            in_slice: 0,
            counts: vec![(0, 0); num_sites],
            dirty: Vec::new(),
            closed: VecDeque::new(),
        }
    }

    /// Records one dynamic branch: whether the predictor got `site` right.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the table declared to
    /// [`StreamingProfiler::new`].
    #[inline]
    pub fn record(&mut self, site: SiteId, correct: bool) {
        self.tally(site, correct);
        self.advance(1);
    }

    /// Counts one outcome without slice bookkeeping — the bulk half of
    /// [`record`](Self::record). Callers that already iterate events in
    /// chunks bounded by [`slice_remaining`](Self::slice_remaining) pay only
    /// these two counter adds per event and settle the slice position once
    /// per chunk with [`advance`](Self::advance).
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the table declared to
    /// [`StreamingProfiler::new`].
    #[inline]
    pub fn tally(&mut self, site: SiteId, correct: bool) {
        let entry = &mut self.counts[site.index()];
        if entry.0 == 0 {
            self.dirty.push(site.0);
        }
        entry.0 += 1;
        entry.1 += correct as u64;
    }

    /// Advances the open epoch by `n` already-tallied events, closing it when
    /// full. `n` must not exceed [`slice_remaining`](Self::slice_remaining)
    /// and must equal the number of [`tally`](Self::tally) calls since the
    /// previous `advance`.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        debug_assert!(n <= self.slice_remaining(), "advance past epoch boundary");
        self.in_slice += n;
        if self.in_slice == self.slice_len {
            self.close_epoch();
        }
    }

    /// Events the open epoch still accepts before it closes; always ≥ 1.
    #[inline]
    pub fn slice_remaining(&self) -> u64 {
        self.slice_len - self.in_slice
    }

    /// Closed epochs waiting to be merged.
    pub fn pending_epochs(&self) -> usize {
        self.closed.len()
    }

    fn close_epoch(&mut self) {
        let mut entries = Vec::with_capacity(self.dirty.len());
        let mut correct = 0;
        for site in self.dirty.drain(..) {
            let e = &mut self.counts[site as usize];
            entries.push((site, e.0, e.1));
            correct += e.1;
            *e = (0, 0);
        }
        self.closed.push_back(EpochBatch {
            entries,
            exec: self.in_slice,
            correct,
        });
        self.in_slice = 0;
    }
}

/// One session's contribution to one epoch.
#[derive(Debug)]
struct EpochBatch {
    /// `(site, exec, correct)` for every site touched in the epoch.
    entries: Vec<(u32, u64, u64)>,
    exec: u64,
    correct: u64,
}

/// Merged-but-unfolded contributions for one epoch index.
#[derive(Debug, Default)]
struct EpochAcc {
    /// Concatenated `(site, exec, correct)` contributions from every
    /// session's batch for this epoch. Kept append-only so merging under the
    /// daemon's shared lock is a vector extend; the fold sorts by site and
    /// combines duplicates, which keeps fold order deterministic.
    entries: Vec<(u32, u64, u64)>,
    exec: u64,
    correct: u64,
}

/// Sliding window of per-epoch program-wide `(exec, correct)` totals —
/// exact integer sums, so the windowed program accuracy is bit-identical to
/// the batch run's whenever the window covers the whole run.
#[derive(Debug, Default)]
struct GlobalWindow {
    ring: VecDeque<(u64, u64)>,
    exec: u64,
    correct: u64,
}

impl GlobalWindow {
    fn push(&mut self, exec: u64, correct: u64, window: usize) {
        self.ring.push_back((exec, correct));
        self.exec += exec;
        self.correct += correct;
        if self.ring.len() > window {
            let (e, c) = self.ring.pop_front().expect("ring over capacity");
            self.exec -= e;
            self.correct -= c;
        }
    }

    fn accuracy(&self) -> Option<f64> {
        (self.exec > 0).then(|| self.correct as f64 / self.exec as f64)
    }
}

/// Incremental 2D-profiler over a sliding window of slices, merging any
/// number of concurrent sessions for one program.
///
/// Memory is O(`num_sites` × `window` + pending epochs); no events or full
/// traces are retained.
#[derive(Debug)]
pub struct StreamingProfiler {
    config: StreamConfig,
    num_sites: usize,
    sites: Vec<SiteWindow>,
    /// Hysteresis-stable classifications, as last published.
    published: Vec<Classification>,
    /// Candidate classification a site is drifting toward.
    candidate: Vec<Classification>,
    /// Consecutive folds confirming the candidate.
    streak: Vec<u32>,
    global: GlobalWindow,
    /// Merged contributions keyed by epoch index, all ≥ `folded`.
    pending: BTreeMap<u64, EpochAcc>,
    /// Active session id → next epoch index that session will close.
    sessions: HashMap<u64, u64>,
    next_session_id: u64,
    /// Epochs folded so far; the next fold is epoch `folded`.
    folded: u64,
    drift_total: u64,
    verdict_total: u64,
    stale_dropped: u64,
}

impl StreamingProfiler {
    /// Creates a profiler for `num_sites` static branch sites.
    ///
    /// # Panics
    ///
    /// Panics if `config.window`, `config.hysteresis`, or `config.max_lag`
    /// is zero.
    pub fn new(num_sites: usize, config: StreamConfig) -> Self {
        assert!(config.window >= 1, "window must be at least one slice");
        assert!(config.hysteresis >= 1, "hysteresis must be at least 1");
        assert!(config.max_lag >= 1, "max_lag must be at least 1");
        Self {
            config,
            num_sites,
            sites: vec![SiteWindow::default(); num_sites],
            published: vec![Classification::Insufficient; num_sites],
            candidate: vec![Classification::Insufficient; num_sites],
            streak: vec![0; num_sites],
            global: GlobalWindow::default(),
            pending: BTreeMap::new(),
            sessions: HashMap::new(),
            next_session_id: 0,
            folded: 0,
            drift_total: 0,
            verdict_total: 0,
            stale_dropped: 0,
        }
    }

    /// The configuration this profiler was built with.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Number of static sites tracked.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Fold epochs completed so far.
    pub fn folded_epochs(&self) -> u64 {
        self.folded
    }

    /// Drift events emitted over the profiler's lifetime.
    pub fn drift_total(&self) -> u64 {
        self.drift_total
    }

    /// Sessions currently attached.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Epoch contributions dropped because they arrived after their epoch
    /// was force-folded past a straggler.
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }

    /// Attaches a new session, aligned so its first epoch lands at the
    /// current fold frontier.
    pub fn begin_session(&mut self) -> SessionIngest {
        let id = self.next_session_id;
        self.next_session_id += 1;
        self.sessions.insert(id, self.folded);
        SessionIngest::new(id, self.num_sites, self.config.slice.slice_len())
    }

    /// Merges the session's closed epochs and folds every epoch the
    /// watermark now covers, appending any drift events to `out`.
    pub fn ingest(&mut self, session: &mut SessionIngest, out: &mut Vec<DriftEvent>) {
        self.drain(session);
        self.fold_ready(out);
    }

    /// Detaches a session: merges its remaining epochs plus any trailing
    /// partial slice (mirroring the batch profiler's end-of-run fold of a
    /// partial slice), then folds — everything still pending if this was the
    /// last session.
    pub fn finish_session(&mut self, mut session: SessionIngest, out: &mut Vec<DriftEvent>) {
        if session.in_slice > 0 {
            session.close_epoch();
        }
        self.drain(&mut session);
        self.sessions.remove(&session.id);
        if self.sessions.is_empty() {
            self.flush_all(out);
        } else {
            self.fold_ready(out);
        }
    }

    /// Current published verdicts and windowed statistics.
    pub fn snapshot(&self) -> VerdictSnapshot {
        VerdictSnapshot {
            epoch: self.folded,
            window: self.config.window as u64,
            slice_len: self.config.slice.slice_len(),
            program_accuracy: self.global.accuracy(),
            sites: (0..self.num_sites)
                .map(|i| {
                    let stats = self.sites[i].stats();
                    SiteVerdict {
                        verdict: self.published[i],
                        slices: stats.slices(),
                        mean: stats.mean(),
                        std_dev: stats.std_dev(),
                        pam_fraction: stats.points_above_mean(),
                    }
                })
                .collect(),
        }
    }

    /// Published classifications, indexed by site.
    pub fn verdicts(&self) -> &[Classification] {
        &self.published
    }

    /// Merges the session's closed epochs in order, each at the session's
    /// next epoch index.
    fn drain(&mut self, session: &mut SessionIngest) {
        while let Some(batch) = session.closed.pop_front() {
            let epoch = self
                .sessions
                .get_mut(&session.id)
                .expect("session not attached to this profiler");
            let index = *epoch;
            *epoch += 1;
            self.merge(index, batch);
        }
    }

    fn merge(&mut self, epoch: u64, batch: EpochBatch) {
        if epoch < self.folded {
            // The epoch was force-folded past this straggler already.
            self.stale_dropped += 1;
            twodprof_obs::counter!(
                "stream_stale_epochs_dropped_total",
                "Per-session epoch contributions dropped because their epoch \
                 was already force-folded past a lagging session."
            )
            .inc();
            return;
        }
        let acc = self.pending.entry(epoch).or_default();
        acc.exec += batch.exec;
        acc.correct += batch.correct;
        let mut entries = batch.entries;
        if acc.entries.is_empty() {
            acc.entries = entries;
        } else {
            acc.entries.append(&mut entries);
        }
    }

    fn fold_ready(&mut self, out: &mut Vec<DriftEvent>) {
        let watermark = self.sessions.values().min().copied();
        loop {
            let next = self.folded;
            let due = watermark.is_some_and(|w| next < w);
            let lagging = self
                .pending
                .keys()
                .next_back()
                .is_some_and(|&last| last - next >= self.config.max_lag as u64);
            if !due && !lagging {
                break;
            }
            let acc = self.pending.remove(&next);
            self.fold_one(next, acc, out);
            self.folded += 1;
        }
    }

    fn flush_all(&mut self, out: &mut Vec<DriftEvent>) {
        while let Some((&epoch, _)) = self.pending.iter().next() {
            let acc = self.pending.remove(&epoch);
            self.fold_one(epoch, acc, out);
            self.folded = epoch + 1;
        }
    }

    fn fold_one(&mut self, epoch: u64, acc: Option<EpochAcc>, out: &mut Vec<DriftEvent>) {
        let _span = twodprof_obs::span!("stream.fold");
        let start = Instant::now();
        let threshold = self.config.slice.exec_threshold();
        let window = self.config.window;
        let (exec, correct) = acc.as_ref().map(|a| (a.exec, a.correct)).unwrap_or((0, 0));
        self.global.push(exec, correct, window);
        if let Some(mut acc) = acc {
            // Sessions' contributions were appended in arrival order; sort by
            // site and combine duplicates so each site folds exactly once per
            // epoch, in deterministic site order.
            acc.entries.sort_unstable_by_key(|&(site, _, _)| site);
            let mut entries = acc.entries.into_iter().peekable();
            while let Some((site, mut e, mut c)) = entries.next() {
                while let Some(&(next, ne, nc)) = entries.peek() {
                    if next != site {
                        break;
                    }
                    e += ne;
                    c += nc;
                    entries.next();
                }
                self.sites[site as usize].fold(e, c, threshold, window);
            }
        }
        let program_accuracy = self.global.accuracy();
        for site in 0..self.num_sites as u32 {
            let verdict = self.classify(site as usize, program_accuracy);
            self.advance(site, verdict, epoch, out);
        }
        twodprof_obs::counter!(
            "stream_windows_folded_total",
            "Epochs folded into the streaming window."
        )
        .inc();
        twodprof_obs::histogram!(
            "stream_fold_micros",
            "Wall time of one streaming window fold, in microseconds."
        )
        .observe_duration(start.elapsed());
    }

    /// Classifies one site from its current windowed statistics — the exact
    /// decision rule of the batch report, fed sliding-window inputs.
    fn classify(&self, site: usize, program_accuracy: Option<f64>) -> Classification {
        let w = self.sites[site].stats();
        self.config
            .thresholds
            .classify(
                w.mean(),
                w.std_dev(),
                w.points_above_mean(),
                program_accuracy,
            )
            .1
    }

    /// Advances one site's hysteresis state toward `verdict`, publishing a
    /// flip (and emitting a drift event) once `hysteresis` consecutive folds
    /// agree. A site's *first* classification publishes immediately and
    /// silently — appearing is not drifting.
    fn advance(
        &mut self,
        site: u32,
        verdict: Classification,
        epoch: u64,
        out: &mut Vec<DriftEvent>,
    ) {
        let i = site as usize;
        let published = self.published[i];
        if verdict == published {
            self.candidate[i] = verdict;
            self.streak[i] = 0;
            return;
        }
        if published == Classification::Insufficient {
            self.published[i] = verdict;
            self.candidate[i] = verdict;
            self.streak[i] = 0;
            self.bump_verdicts();
            return;
        }
        if verdict == self.candidate[i] {
            self.streak[i] += 1;
        } else {
            self.candidate[i] = verdict;
            self.streak[i] = 1;
        }
        if self.streak[i] >= self.config.hysteresis {
            out.push(DriftEvent {
                site,
                epoch,
                from: published,
                to: verdict,
            });
            self.published[i] = verdict;
            self.streak[i] = 0;
            self.drift_total += 1;
            self.bump_verdicts();
            twodprof_obs::counter!(
                "stream_drift_events_total",
                "Published-verdict flips confirmed by hysteresis."
            )
            .inc();
        }
    }

    fn bump_verdicts(&mut self) {
        self.verdict_total += 1;
        twodprof_obs::counter!(
            "stream_verdicts_total",
            "Published verdict assignments (first classifications and \
             confirmed flips)."
        )
        .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(slice_len: u64, threshold: u64, window: usize, hysteresis: u32) -> StreamConfig {
        StreamConfig {
            slice: SliceConfig::new(slice_len, threshold),
            window,
            hysteresis,
            ..StreamConfig::default()
        }
    }

    /// Drives one session with a two-phase stream on site 0: steady ~92%
    /// accuracy first (input-independent), then slice accuracy oscillating
    /// between ~95% and ~55% (the paper's input-dependent signature: high
    /// STD, mid-range PAM). Site 1 stays rock-steady throughout.
    fn drive_phased(p: &mut StreamingProfiler, epochs_per_phase: u64) -> Vec<DriftEvent> {
        let mut s = p.begin_session();
        let mut out = Vec::new();
        let slice_len = p.config.slice.slice_len();
        for phase in 0..2u64 {
            for k in 0..epochs_per_phase {
                let base = match (phase, k % 2) {
                    (0, _) => 90,
                    (_, 0) => 95,
                    _ => 55,
                };
                let acc = base + (k * 7) % 5;
                for i in 0..slice_len / 2 {
                    s.record(SiteId(0), (i * 97) % 100 < acc);
                    s.record(SiteId(1), (i * 89) % 10 != 0);
                }
                p.ingest(&mut s, &mut out);
            }
        }
        p.finish_session(s, &mut out);
        out
    }

    #[test]
    fn phase_change_raises_drift_event() {
        let mut p = StreamingProfiler::new(2, config(200, 10, 8, 2));
        let events = drive_phased(&mut p, 24);
        assert!(
            events.iter().any(|e| e.site == 0),
            "phase flip on site 0 must drift: {events:?}"
        );
        assert_eq!(p.drift_total(), events.len() as u64);
        assert_eq!(p.folded_epochs(), 48);
    }

    #[test]
    fn hysteresis_suppresses_single_fold_blips() {
        // hysteresis 3 vs 1 over the same stream: the strict setting can
        // only emit a subset of the eager one's flips.
        let mut eager = StreamingProfiler::new(2, config(200, 10, 8, 1));
        let mut strict = StreamingProfiler::new(2, config(200, 10, 8, 3));
        let eager_events = drive_phased(&mut eager, 24);
        let strict_events = drive_phased(&mut strict, 24);
        assert!(strict_events.len() <= eager_events.len());
    }

    #[test]
    fn first_classification_is_silent() {
        let mut p = StreamingProfiler::new(1, config(100, 5, 4, 1));
        let mut s = p.begin_session();
        let mut out = Vec::new();
        for i in 0..100u64 {
            s.record(SiteId(0), i % 10 != 0);
        }
        p.ingest(&mut s, &mut out);
        assert!(out.is_empty(), "Insufficient → classified is not drift");
        assert_ne!(p.verdicts()[0], Classification::Insufficient);
    }

    #[test]
    fn watermark_waits_for_slowest_session() {
        let mut p = StreamingProfiler::new(1, config(100, 5, 4, 1));
        let mut fast = p.begin_session();
        let slow = p.begin_session();
        let mut out = Vec::new();
        for i in 0..500u64 {
            fast.record(SiteId(0), i % 2 == 0);
        }
        p.ingest(&mut fast, &mut out);
        assert_eq!(p.folded_epochs(), 0, "slow session holds the watermark");
        p.finish_session(slow, &mut out);
        assert_eq!(p.folded_epochs(), 5, "watermark released");
        p.finish_session(fast, &mut out);
    }

    #[test]
    fn last_session_flushes_all_pending() {
        let mut p = StreamingProfiler::new(1, config(100, 5, 4, 1));
        let mut s = p.begin_session();
        let mut out = Vec::new();
        for i in 0..350u64 {
            s.record(SiteId(0), i % 2 == 0);
        }
        p.ingest(&mut s, &mut out);
        assert_eq!(p.folded_epochs(), 3);
        p.finish_session(s, &mut out);
        // 3 full epochs + the 50-event partial
        assert_eq!(p.folded_epochs(), 4);
        assert_eq!(p.active_sessions(), 0);
    }

    #[test]
    fn straggler_is_force_folded_past() {
        let mut cfg = config(100, 5, 4, 1);
        cfg.max_lag = 3;
        let mut p = StreamingProfiler::new(1, cfg);
        let mut fast = p.begin_session();
        let mut slow = p.begin_session();
        let mut out = Vec::new();
        for i in 0..1000u64 {
            fast.record(SiteId(0), i % 2 == 0);
        }
        p.ingest(&mut fast, &mut out);
        assert!(
            p.folded_epochs() >= 7,
            "lag cap must advance the fold frontier, folded {}",
            p.folded_epochs()
        );
        // The slow session now submits epochs that were already folded.
        for i in 0..200u64 {
            slow.record(SiteId(0), i % 2 == 0);
        }
        p.ingest(&mut slow, &mut out);
        assert!(p.stale_dropped() >= 1);
        p.finish_session(fast, &mut out);
        p.finish_session(slow, &mut out);
    }

    #[test]
    fn interleaving_does_not_change_drift_events() {
        // Two sessions with fixed per-session streams, merged under three
        // different arrival interleavings: identical drift sequences.
        let stream_a: Vec<bool> = (0..2000u64).map(|i| (i * 31) % 100 < 90).collect();
        let stream_b: Vec<bool> = (0..2000u64)
            .map(|i| (i * 17) % 100 < if i < 1000 { 95 } else { 50 })
            .collect();
        let run = |chunk: usize| {
            let mut p = StreamingProfiler::new(1, config(100, 5, 4, 1));
            let mut sa = p.begin_session();
            let mut sb = p.begin_session();
            let mut out = Vec::new();
            let (mut ia, mut ib) = (0, 0);
            while ia < stream_a.len() || ib < stream_b.len() {
                for _ in 0..chunk {
                    if ia < stream_a.len() {
                        sa.record(SiteId(0), stream_a[ia]);
                        ia += 1;
                    }
                }
                p.ingest(&mut sa, &mut out);
                for _ in 0..chunk * 3 {
                    if ib < stream_b.len() {
                        sb.record(SiteId(0), stream_b[ib]);
                        ib += 1;
                    }
                }
                p.ingest(&mut sb, &mut out);
            }
            p.finish_session(sa, &mut out);
            p.finish_session(sb, &mut out);
            out
        };
        let a = run(7);
        let b = run(150);
        let c = run(1);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn snapshot_reflects_window_state() {
        let mut p = StreamingProfiler::new(2, config(100, 5, 4, 1));
        let mut s = p.begin_session();
        let mut out = Vec::new();
        for i in 0..400u64 {
            s.record(SiteId(0), i % 3 != 0);
        }
        p.ingest(&mut s, &mut out);
        let snap = p.snapshot();
        assert_eq!(snap.epoch, 4);
        assert_eq!(snap.window, 4);
        assert_eq!(snap.slice_len, 100);
        assert_eq!(snap.sites.len(), 2);
        assert!(snap.sites[0].mean.is_some());
        assert_eq!(snap.sites[1].slices, 0);
        assert_eq!(snap.sites[1].verdict, Classification::Insufficient);
        assert!(snap.program_accuracy.is_some());
        p.finish_session(s, &mut out);
    }
}
