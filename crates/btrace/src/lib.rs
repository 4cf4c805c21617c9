//! `btrace` — branch instrumentation runtime for the `twodprof` workspace.
//!
//! This crate plays the role that the Pin binary-instrumentation tool plays in
//! the CGO 2006 paper *"2D-Profiling: Detecting Input-Dependent Branches with
//! a Single Input Data Set"*: it delivers the dynamic stream of conditional
//! branch outcomes, tagged with *static branch identities*, to pluggable
//! profiling observers.
//!
//! Workloads declare their static conditional branches as [`SiteDecl`]s and
//! report every dynamic branch through the [`Tracer`] trait. Observers —
//! edge profilers, branch-predictor simulators, the 2D-profiler itself —
//! implement [`Tracer`] and are composed with [`Tee`].
//!
//! A stream is recorded once into a [`RecordedTrace`] — the one recorded
//! form, stored on disk as 2DPR — and replayed through any number of
//! observers. The varint, frame and [`Fnv1a`] primitives it is built from
//! are shared by every other binary format in the workspace.
//!
//! # Example
//!
//! ```
//! use btrace::{SiteId, Tracer, EdgeProfiler, SiteDecl, BranchKind};
//!
//! const SITES: &[SiteDecl] = &[SiteDecl::new("loop_exit", BranchKind::Loop)];
//! let mut prof = EdgeProfiler::new(SITES.len());
//! for i in 0..10u32 {
//!     // the instrumented program reports each conditional branch outcome
//!     prof.branch(SiteId(0), i < 9);
//! }
//! assert_eq!(prof.edge(SiteId(0)).taken, 9);
//! assert_eq!(prof.edge(SiteId(0)).total(), 10);
//! ```

mod edge;
mod recorded;
pub mod serial;
mod site;
mod tee;

pub use edge::{EdgeCount, EdgeProfiler};
pub use recorded::{RecordedTrace, SiteRun, SiteRuns};
pub use serial::{read_frame, read_varint, write_frame, write_varint, Fnv1a, MAX_FRAME_LEN};
pub use site::{validate_sites, BranchKind, SiteDecl, SiteId};
pub use tee::Tee;

/// Observer of a dynamic conditional-branch stream.
///
/// The instrumented program calls [`Tracer::branch`] once per executed
/// conditional branch, in program order, passing the branch's static identity
/// and its resolved direction. This is the entire interface between the
/// "binary instrumentation" layer and every profiler in the workspace, which
/// mirrors how the paper's profilers consume Pin's instrumentation callbacks.
pub trait Tracer {
    /// Record one dynamic execution of the static branch `site` that resolved
    /// in direction `taken`.
    fn branch(&mut self, site: SiteId, taken: bool);
}

/// A tracer that ignores every event.
///
/// Stands in for the paper's *Binary* configuration (Figure 16): the program
/// runs with the instrumentation calls compiled in but no observer work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline]
    fn branch(&mut self, _site: SiteId, _taken: bool) {}
}

/// A tracer that only counts dynamic branches.
///
/// Stands in for the paper's *Pin-base* configuration (Figure 16):
/// instrumentation is active but performs no user analysis beyond the
/// per-event dispatch itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingTracer {
    count: u64,
}

impl CountingTracer {
    /// Creates a counting tracer with a zero count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of dynamic branch events seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Tracer for CountingTracer {
    #[inline]
    fn branch(&mut self, _site: SiteId, _taken: bool) {
        self.count += 1;
    }
}

impl<T: Tracer + ?Sized> Tracer for &mut T {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        (**self).branch(site, taken);
    }
}

impl<T: Tracer + ?Sized> Tracer for Box<T> {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        (**self).branch(site, taken);
    }
}

/// Traces a conditional branch and returns its condition, so instrumented
/// workload code can keep using the condition inline:
///
/// ```
/// use btrace::{trace_branch, CountingTracer, SiteId};
/// let mut t = CountingTracer::new();
/// let x = 3;
/// if trace_branch(&mut t, SiteId(0), x > 2) {
///     // taken path
/// }
/// assert_eq!(t.count(), 1);
/// ```
#[inline]
pub fn trace_branch<T: Tracer + ?Sized>(tracer: &mut T, site: SiteId, cond: bool) -> bool {
    tracer.branch(site, cond);
    cond
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_tracer_counts() {
        let mut t = CountingTracer::new();
        for i in 0..100 {
            t.branch(SiteId(i % 3), i % 2 == 0);
        }
        assert_eq!(t.count(), 100);
    }

    #[test]
    fn trace_branch_returns_condition() {
        let mut t = CountingTracer::new();
        assert!(trace_branch(&mut t, SiteId(0), true));
        assert!(!trace_branch(&mut t, SiteId(0), false));
        assert_eq!(t.count(), 2);
    }

    #[test]
    fn mut_ref_impl_forwards() {
        let mut t = CountingTracer::new();
        {
            let r: &mut dyn Tracer = &mut t;
            r.branch(SiteId(5), true);
        }
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn boxed_impl_forwards() {
        let mut t = Box::new(CountingTracer::new());
        Tracer::branch(&mut t, SiteId(0), false);
        assert_eq!(t.count(), 1);
    }
}
