//! `twodprof_core` — the 2D-profiling algorithm from *"2D-Profiling:
//! Detecting Input-Dependent Branches with a Single Input Data Set"*
//! (Kim, Suleman, Mutlu, Patt — CGO 2006), plus the evaluation machinery the
//! paper builds around it.
//!
//! # What 2D-profiling is
//!
//! Ordinary branch profiling records one number per static branch (its
//! aggregate prediction accuracy, or its taken rate). 2D-profiling records a
//! second dimension — *time* — by splitting a single profiling run into
//! fixed-size **slices** and tracking each branch's per-slice prediction
//! accuracy. Branches whose accuracy varies across slices are predicted to be
//! **input-dependent**: their accuracy would also change if the program were
//! run with a different input set. That prediction is made from *one* input
//! set, which is the paper's headline contribution.
//!
//! # Module map
//!
//! - [`TwoDProfiler`] — the profiler (Figure 9 of the paper): per-branch
//!   7-variable state, FIR-filtered slice accuracies, MEAN/STD/PAM tests.
//! - [`BranchState`] — those seven variables and the one slice fold over
//!   them, shared by every batch profiler and the streaming window.
//! - [`ProfileReport`] — per-branch statistics and classifications.
//! - [`GroundTruth`] — the multi-input-set definition of input-dependence
//!   used to *evaluate* the profiler (5% accuracy-delta rule, §2/§4.2).
//! - [`Metrics`] — COV-dep / ACC-dep / COV-indep / ACC-indep (Table 3).
//! - [`CostModel`] — the if-conversion cost model motivating the work
//!   (§2.1, Figure 2), and [`advise`] for the wish-branch decision on top.
//! - [`detect_phases_in_series`] — segments a recorded slice series into
//!   phases of roughly constant accuracy (Figure 8).
//! - [`Bias2DProfiler`] — the edge-profiling variant the paper sketches:
//!   the same tests applied to per-slice branch *bias* instead of prediction
//!   accuracy, requiring no predictor model at all.
//!
//! # Example
//!
//! ```
//! use bpred::Gshare;
//! use btrace::{SiteId, Tracer};
//! use twodprof_core::{SliceConfig, Thresholds, TwoDProfiler};
//!
//! // Site 0 flips behaviour halfway through the run (phase behaviour):
//! // unpredictable noise first, then a steady direction. Site 1 stays
//! // trivially predictable throughout. 2D-profiling flags only site 0.
//! let mut prof = TwoDProfiler::new(2, Gshare::new_4kb(), SliceConfig::new(1_000, 16));
//! for i in 0..100_000u64 {
//!     let noise = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).count_ones() % 2 == 0;
//!     let phase_taken = if i < 50_000 { noise } else { true };
//!     prof.branch(SiteId(0), phase_taken);
//!     prof.branch(SiteId(1), true);
//! }
//! let report = prof.finish(Thresholds::default());
//! assert!(report.classification(SiteId(0)).is_dependent());
//! assert!(!report.classification(SiteId(1)).is_dependent());
//! ```

mod accum;
mod bias2d;
mod ground_truth;
mod ifconv;
mod metrics;
mod phases;
mod profiler;
mod report;
mod slice;
mod state;
mod thresholds;
mod wish;

pub use accum::SliceAccum;
pub use bias2d::Bias2DProfiler;
pub use ground_truth::{GroundTruth, InputDependence};
pub use ifconv::{CostModel, PredicationDecision};
pub use metrics::{Confusion, Metrics};
pub use phases::{detect_phases_in_series, Phase, PhaseConfig};
pub use profiler::TwoDProfiler;
pub use report::{BranchStats, Classification, ProfileReport};
pub use slice::SliceConfig;
pub use state::BranchState;
pub use thresholds::{MeanThreshold, TestOutcomes, Thresholds};
pub use wish::{advise, BranchAdvice, BranchTreatment};

/// The paper's input-dependence threshold: a branch is input-dependent if its
/// prediction accuracy differs by more than 5% (absolute) across input sets.
pub const INPUT_DEPENDENCE_DELTA: f64 = 0.05;
