//! `twodprof-obs` — the workspace's observability layer.
//!
//! The paper's pitch is that 2D-profiling is cheap enough to run *online*
//! (seven state variables per branch); once the profiler, the sweep engine,
//! and the ingestion daemon are long-lived services, that claim needs
//! numbers behind it. This crate provides them: a process-global registry of
//! atomic metrics that every layer of the stack instruments its hot paths
//! with, cheap enough that instrumented loopback ingest stays within noise
//! of the uninstrumented run (`gate obs-overhead`).
//!
//! # Metric kinds
//!
//! - [`Counter`] — monotonically increasing `u64` (events ingested, cache
//!   hits, sessions opened).
//! - [`Gauge`] — signed up/down value (worker-pool queue depth, live
//!   sessions).
//! - [`Histogram`] — fixed-bucket base-2 histogram of `u64` samples
//!   (per-job wall time in microseconds). Bucket `i` holds values `v` with
//!   `v < 2^i` and `v >= 2^(i-1)` (bucket 0 holds zero), so `observe` is a
//!   leading-zeros count plus one relaxed add — no floats, no locks.
//!
//! # Handle API
//!
//! Metrics are registered once and used through `&'static` handles; the
//! [`counter!`], [`gauge!`], and [`histogram!`] macros cache the handle in a
//! per-call-site `OnceLock`, so steady-state cost is one pointer load plus
//! one relaxed atomic RMW:
//!
//! ```
//! let events = twodprof_obs::counter!("demo_events_total", "Events seen.");
//! events.add(128);
//! assert!(events.get() >= 128);
//! ```
//!
//! # Disabling
//!
//! Setting `TWODPROF_METRICS=off` (or `0` / `false`) in the environment
//! detaches the global registry: every registration hands out a private
//! *void* cell that no snapshot ever reads. The update path is the same
//! machine code either way — load the handle, relaxed RMW — so disabling is
//! branch-free on the hot path; it only removes the metric from exposition.
//!
//! # Exposition
//!
//! [`Registry::snapshot`] takes a point-in-time [`Snapshot`] which renders
//! to Prometheus-compatible text lines ([`Snapshot::to_text`]) and
//! serializes over the workspace's LEB128 varint layer
//! ([`Snapshot::to_bytes`] / [`Snapshot::from_bytes`]) — the payload the
//! `twodprofd` `Stats` wire frame carries. [`Snapshot::delta`] subtracts an
//! earlier snapshot for per-interval rates, and
//! [`Snapshot::put_counter`] / [`Snapshot::put_gauge`] let a source outside
//! the registry (the daemon's own per-instance values) join a snapshot.
//!
//! Dynamically-indexed metrics (the daemon's per-shard histograms, the
//! fabric's per-node gauges) register through a [`Family`]: a
//! `const`-constructible helper that formats `{base}{index}{suffix}` names
//! through the shared interner ([`intern_name`]) and caches one `&'static`
//! handle per index.
//!
//! # Timeline
//!
//! The [`timeline`] module keeps recent history: a bounded ring of periodic
//! [`Snapshot::delta`] results ([`Timeline`]) with per-interval timestamps
//! and rate queries — what the daemon's `/vars` HTTP endpoint serves as its
//! recent-rates tail.
//!
//! # Span tracing
//!
//! Aggregates say *how often*; the [`trace`] module says *where the time
//! went* for one request: scoped [`trace::Span`]s (via the [`span!`] macro)
//! recorded into per-thread lock-free rings, drained into a global
//! [`trace::Collector`], exported as Chrome trace-event JSON ([`chrome`])
//! or a compact varint block that rides the serve wire protocol. Disable
//! with `TWODPROF_TRACE=off`, mirroring the metrics void-cell scheme.

pub mod chrome;
mod metric;
mod registry;
mod snapshot;
pub mod timeline;
pub mod trace;

pub use metric::{Counter, Gauge, Histogram, NUM_BUCKETS};
pub use registry::{global, intern_name, Family, Registry};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use timeline::{Timeline, TimelineEntry};

/// Registers (idempotently) and returns a `&'static` [`Counter`] on the
/// global registry, caching the handle per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::global().counter($name, $help))
    }};
}

/// Registers (idempotently) and returns a `&'static` [`Gauge`] on the
/// global registry, caching the handle per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::global().gauge($name, $help))
    }};
}

/// Registers (idempotently) and returns a `&'static` [`Histogram`] on the
/// global registry, caching the handle per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::global().histogram($name, $help))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_cache_and_share_handles() {
        let a = counter!("obs_lib_test_total", "Test counter.");
        let b = crate::global().counter("obs_lib_test_total", "Test counter.");
        assert!(std::ptr::eq(a, b), "same name must share one cell");
        a.inc();
        assert!(b.get() >= 1);
        let g = gauge!("obs_lib_test_gauge", "Test gauge.");
        g.add(3);
        g.sub(1);
        let h = histogram!("obs_lib_test_hist", "Test histogram.");
        h.observe(7);
        assert_eq!(h.count(), 1);
    }
}
