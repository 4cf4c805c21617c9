//! Streaming 2D-profiling: answer *while events arrive* instead of at
//! end-of-run.
//!
//! The paper (and this workspace's batch [`TwoDProfiler`]) classifies
//! input-dependent branches once, after the whole run. This crate keeps the
//! same MEAN/STD/PAM/FIR statistics over a **sliding window** of recent
//! slices, merged across any number of concurrent sessions of one program,
//! and emits **drift events** when a branch's published verdict flips — the
//! continuous-freshness deliverable a production profiling daemon needs.
//!
//! Three pieces:
//!
//! - [`SessionIngest`] — per-session accumulator that slices that session's
//!   own event stream into fixed-length epochs;
//! - [`StreamingProfiler`] — merges epochs across sessions by epoch index
//!   (commutative count addition, so results are invariant under session
//!   interleaving), folds each completed epoch into O(window) per-site
//!   rings, classifies every site with the batch decision rule
//!   (`Thresholds::classify`), and publishes verdict flips through a
//!   hysteresis filter;
//! - [`DriftEvent`] / [`VerdictSnapshot`] — the wire-shaped outputs the
//!   serve layer pushes to `twodprof-client watch` subscribers.
//!
//! With one session and a window at least as long as the run, streaming
//! verdicts are bit-identical to the batch report's — see the crate's
//! equivalence tests.
//!
//! [`TwoDProfiler`]: twodprof_core::TwoDProfiler

mod event;
mod profiler;
mod window;

pub use event::{DriftEvent, SiteVerdict, VerdictSnapshot};
pub use profiler::{SessionIngest, StreamConfig, StreamingProfiler};
