//! `twodprof-serve` — the streaming profile-ingestion service layer.
//!
//! The paper's 2D-profiler needs only seven state variables per static
//! branch, cheap enough to run *online*. This crate turns the in-process
//! profiler into an always-on facility: a TCP daemon (`twodprofd`,
//! [`server`]) whose fixed pool of poll-driven shard threads maintains one
//! live [`TwoDProfiler`](twodprof_core::TwoDProfiler) per remote session,
//! a framed binary [`wire`] protocol built on `btrace`'s LEB128 varints,
//! and a client side ([`client`], [`replay`]) whose [`RemoteTracer`]
//! implements [`btrace::Tracer`] so any existing workload streams to the
//! daemon unchanged — or to the daemon *and* a local profiler at once via
//! [`btrace::Tee`].
//!
//! ```no_run
//! use bpred::PredictorKind;
//! use btrace::Tracer;
//! use twodprof_core::SliceConfig;
//! use twodprof_serve::{ConnectOptions, RemoteTracer};
//!
//! let mut tracer = RemoteTracer::new(
//!     ConnectOptions::new(
//!         /* num_sites */ 2,
//!         PredictorKind::Gshare4Kb,
//!         SliceConfig::new(10_000, 16),
//!     )
//!     .connect("127.0.0.1:4272")?,
//! );
//! for i in 0..100_000u64 {
//!     tracer.branch(btrace::SiteId((i % 2) as u32), i % 3 == 0);
//! }
//! let report = tracer.finish()?.into_report();
//! println!("{} input-dependent", report.predicted_dependent().count());
//! # Ok::<(), twodprof_serve::ClientError>(())
//! ```
//!
//! Everything is `std`-only (no async runtime): each shard thread
//! multiplexes its nonblocking sockets with a `poll(2)` readiness loop,
//! an incremental frame decoder tolerates partial reads, tiered admission
//! (accept / degrade / shed with a retry-after hint) bounds load, and
//! recorded sessions spill to disk past a threshold so resident memory
//! stays bounded at 10k+ sessions.
//!
//! The daemon carries its own observability plane: a hand-rolled HTTP/1.0
//! exposition listener (`/metrics`, `/healthz`, `/vars` behind
//! `--http-addr`), a bounded in-memory timeline of per-interval metric
//! deltas, per-shard self-health gauges and histograms, and a [`flight`]
//! recorder — a ring of notable events fetchable over the wire
//! (`Blackbox` frame), dumped to a checksummed file on `SIGUSR1` or
//! panic, and rendered live by `twodprof-client top`.

pub mod cli;
mod client;
mod compute;
mod config;
pub mod flags;
pub mod flight;
mod http;
mod poll;
mod replay;
mod server;
mod session;
mod shard;
mod spill;
mod summary;
pub mod wire;

pub use compute::ComputeConfig;

pub use client::{
    fetch_blackbox, fetch_stats, fetch_trace, fetch_verdicts, ClientError, ConnectOptions,
    RemoteReport, RemoteSession, RemoteTracer, TraceLink, WatchClient, DEFAULT_BATCH_EVENTS,
};
pub use config::{
    ConfigError, LimitsConfig, ObsConfig, ServerConfig, ServerConfigBuilder, ShardConfig,
};
pub use replay::{
    replay_workload, ReplayError, ReplaySpec, ReplaySummary, ReplayTrace, TRACE_PID_CLIENT,
    TRACE_PID_DAEMON,
};
pub use server::{Server, ServerHandle, ServerStats};
