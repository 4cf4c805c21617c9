//! Composition of tracers.

use crate::{SiteId, Tracer};

/// A tracer that forwards every event to two child tracers, in order.
///
/// `Tee` nests, so any number of observers can watch one profiling run:
///
/// ```
/// use btrace::{Tee, CountingTracer, EdgeProfiler, Tracer, SiteId};
/// let mut t = Tee::new(CountingTracer::new(), EdgeProfiler::new(1));
/// t.branch(SiteId(0), true);
/// assert_eq!(t.first().count(), 1);
/// assert_eq!(t.second().edge(SiteId(0)).taken, 1);
/// ```
///
/// The [`branch`](Tracer::branch) fast path is two static calls — no
/// boxing, no cloning of the event — so live capture can fan one run out to
/// several observers (say a remote ingestion client, a local 2D-profiler,
/// and an edge profiler) and get each child back afterwards with
/// [`into_inner`](Tee::into_inner):
///
/// ```
/// use btrace::{Tee, CountingTracer, EdgeProfiler, RecordedTrace, Tracer, SiteId};
///
/// // three-way nesting: recorder + (edge profiler + counter)
/// let mut t = Tee::new(
///     RecordedTrace::new(2),
///     Tee::new(EdgeProfiler::new(2), CountingTracer::new()),
/// );
/// for i in 0..10u32 {
///     t.branch(SiteId(i % 2), i % 3 == 0);
/// }
/// // every child saw the identical stream, in program order
/// let (recorder, rest) = t.into_inner();
/// let (edges, counter) = rest.into_inner();
/// assert_eq!(recorder.events(), 10);
/// assert_eq!(edges.edge(SiteId(0)).total() + edges.edge(SiteId(1)).total(), 10);
/// assert_eq!(counter.count(), 10);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Tee<A, B> {
    first: A,
    second: B,
}

impl<A: Tracer, B: Tracer> Tee<A, B> {
    /// Combines two tracers. Events reach `first` before `second`.
    pub fn new(first: A, second: B) -> Self {
        Self { first, second }
    }

    /// The first child tracer.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// The second child tracer.
    pub fn second(&self) -> &B {
        &self.second
    }

    /// Splits the tee back into its children.
    pub fn into_inner(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: Tracer, B: Tracer> Tracer for Tee<A, B> {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.first.branch(site, taken);
        self.second.branch(site, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingTracer, EdgeProfiler};

    #[test]
    fn both_children_see_events() {
        let mut tee = Tee::new(CountingTracer::new(), EdgeProfiler::new(2));
        tee.branch(SiteId(0), true);
        tee.branch(SiteId(1), false);
        assert_eq!(tee.first().count(), 2);
        assert_eq!(tee.second().edge(SiteId(1)).not_taken, 1);
        let (a, b) = tee.into_inner();
        assert_eq!(a.count(), 2);
        assert_eq!(b.edge(SiteId(0)).taken, 1);
    }

    #[test]
    fn nested_tee() {
        let mut tee = Tee::new(
            CountingTracer::new(),
            Tee::new(CountingTracer::new(), CountingTracer::new()),
        );
        for _ in 0..5 {
            tee.branch(SiteId(0), true);
        }
        assert_eq!(tee.first().count(), 5);
        assert_eq!(tee.second().first().count(), 5);
        assert_eq!(tee.second().second().count(), 5);
    }
}
