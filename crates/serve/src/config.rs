//! Daemon configuration: the sectioned [`ServerConfig`] and its validating
//! [builder](ServerConfigBuilder).
//!
//! The config grew one flat field per PR until misconfiguration became
//! easy (a zero session table, a spill threshold above the memory budget
//! it is meant to protect). Knobs are now grouped by concern —
//! [`limits`](LimitsConfig), [`shards`](ShardConfig), stream, compute,
//! [`obs`](ObsConfig) —
//! and the builder's [`build`](ServerConfigBuilder::build) rejects zero or
//! mutually conflicting limits instead of letting the daemon run with
//! them. `ServerConfig::default()` remains valid and cheap (tests and
//! embedders construct it directly); the builder is the front door for
//! anything driven by flags.

use crate::compute::ComputeConfig;
use std::path::PathBuf;
use std::time::Duration;
use twodprof_stream::StreamConfig;

/// Admission and lifecycle ceilings, shared by every shard.
#[derive(Clone, Debug)]
pub struct LimitsConfig {
    /// Maximum concurrently open profiling sessions across all shards; a
    /// `Hello` beyond this is shed with `Busy`.
    pub max_sessions: usize,
    /// Per-session ceiling on ingested events; exceeding it earns a `Busy`
    /// reply and closes the session (backpressure, not silent truncation).
    pub max_events_per_session: u64,
    /// Connections (with or without an open session) idle longer than this
    /// are reaped by their owning shard.
    pub idle_timeout: Duration,
    /// On shutdown, how long to wait for in-flight sessions to `Finish`
    /// before force-closing their connections.
    pub drain_timeout: Duration,
    /// Unread drift frames a `watch` subscriber may fall behind by before
    /// the daemon sheds it (slow-consumer protection). Enforced on the
    /// watcher's unsent bytes, as this many of the widest drift frame.
    pub max_subscriber_queue: usize,
    /// Retry-after hint attached to shed (`Busy`) replies, so well-behaved
    /// clients back off for a bounded, server-chosen interval instead of
    /// hammering or guessing.
    pub retry_after: Duration,
}

impl Default for LimitsConfig {
    fn default() -> Self {
        Self {
            max_sessions: 64,
            max_events_per_session: u64::MAX,
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(10),
            max_subscriber_queue: 1024,
            retry_after: Duration::from_millis(100),
        }
    }
}

/// Shard-pool geometry and memory policy.
///
/// Each shard owns `1/count` of the connections (by session id), a
/// resident-memory budget for recorded session traces, and a spill
/// directory where long sessions overflow to disk. Admission tiers hang
/// off the budget: below half the budget sessions get full service
/// (`Accept`), above half they are admitted without recording
/// (`Degrade`), and at the full budget they are refused (`Shed`).
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Shard event-loop threads. Each owns its slice of the session table.
    pub count: usize,
    /// Per-shard ceiling on resident recorded-trace bytes. Crossing half
    /// of it degrades new admissions (no recording); crossing all of it
    /// sheds them.
    pub memory_budget: usize,
    /// Per-session resident ceiling before the active recording buffer is
    /// spilled to a disk segment. Bounds any one session's RAM share.
    pub spill_threshold: usize,
    /// Directory for spill segments; `None` uses the system temp dir.
    /// Segments are deleted when their session ends.
    pub spill_dir: Option<PathBuf>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            count: 4,
            memory_budget: 256 << 20,
            spill_threshold: 4 << 20,
            spill_dir: None,
        }
    }
}

/// Observability-plane knobs: HTTP exposition, metrics timeline, and the
/// flight recorder.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Bind address for the std-only HTTP/1.0 exposition listener
    /// (`/metrics`, `/healthz`, `/vars`); `None` (the default) disables it.
    pub http_addr: Option<String>,
    /// Cadence of timeline snapshots while the HTTP listener is enabled.
    pub timeline_interval: Duration,
    /// Where a blackbox dump lands on panic or `SIGUSR1`; `None` uses
    /// `twodprofd-blackbox-<pid>.bin` in the system temp dir.
    pub blackbox_path: Option<PathBuf>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            http_addr: None,
            timeline_interval: Duration::from_secs(1),
            blackbox_path: None,
        }
    }
}

/// Tuning knobs of a daemon instance, grouped by concern.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Admission and lifecycle ceilings.
    pub limits: LimitsConfig,
    /// Shard-pool geometry and memory policy.
    pub shards: ShardConfig,
    /// Streaming-profiler geometry (epoch length, window, hysteresis)
    /// shared by every program this daemon aggregates.
    pub stream: StreamConfig,
    /// Run the fabric compute service: accept `SubmitJob` frames on
    /// sessionless connections and answer each on a worker pool from this
    /// daemon's engine — its cache tier, else fresh compute. `None` (the
    /// default) rejects job frames.
    pub compute: Option<ComputeConfig>,
    /// Keep a columnar recording of each session's branch stream so
    /// clients can `Resim` it under other predictors without re-streaming.
    /// Costs ~1.1 bytes per dynamic branch (bounded per session by
    /// [`ShardConfig::spill_threshold`]); disable for ingest-only
    /// deployments.
    pub record_sessions: bool,
    /// Suppress per-connection log lines on stderr.
    pub quiet: bool,
    /// Emit a stats summary on stderr at this cadence; `None` disables it.
    pub stats_interval: Option<Duration>,
    /// Observability plane: HTTP exposition, timeline, flight recorder.
    pub obs: ObsConfig,
}

impl ServerConfig {
    /// A validating builder over the default configuration.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            limits: LimitsConfig::default(),
            shards: ShardConfig::default(),
            stream: StreamConfig::default(),
            compute: None,
            record_sessions: true,
            quiet: false,
            stats_interval: None,
            obs: ObsConfig::default(),
        }
    }
}

/// Error from [`ServerConfigBuilder::build`]: a zero or conflicting limit,
/// with a message naming the offending knob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid server config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ServerConfig`] whose [`build`](Self::build) validates the
/// combination of knobs. Every setter maps onto one field of one section.
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// See [`LimitsConfig::max_sessions`].
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.config.limits.max_sessions = n;
        self
    }

    /// See [`LimitsConfig::max_events_per_session`].
    pub fn max_events_per_session(mut self, n: u64) -> Self {
        self.config.limits.max_events_per_session = n;
        self
    }

    /// See [`LimitsConfig::idle_timeout`].
    pub fn idle_timeout(mut self, d: Duration) -> Self {
        self.config.limits.idle_timeout = d;
        self
    }

    /// See [`LimitsConfig::drain_timeout`]. Zero is valid: force-close
    /// immediately on shutdown.
    pub fn drain_timeout(mut self, d: Duration) -> Self {
        self.config.limits.drain_timeout = d;
        self
    }

    /// See [`LimitsConfig::max_subscriber_queue`].
    pub fn max_subscriber_queue(mut self, n: usize) -> Self {
        self.config.limits.max_subscriber_queue = n;
        self
    }

    /// See [`LimitsConfig::retry_after`].
    pub fn retry_after(mut self, d: Duration) -> Self {
        self.config.limits.retry_after = d;
        self
    }

    /// See [`ShardConfig::count`].
    pub fn shards(mut self, n: usize) -> Self {
        self.config.shards.count = n;
        self
    }

    /// See [`ShardConfig::memory_budget`].
    pub fn shard_memory_budget(mut self, bytes: usize) -> Self {
        self.config.shards.memory_budget = bytes;
        self
    }

    /// See [`ShardConfig::spill_threshold`].
    pub fn spill_threshold(mut self, bytes: usize) -> Self {
        self.config.shards.spill_threshold = bytes;
        self
    }

    /// See [`ShardConfig::spill_dir`].
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.shards.spill_dir = Some(dir.into());
        self
    }

    /// See [`ServerConfig::stream`].
    pub fn stream(mut self, stream: StreamConfig) -> Self {
        self.config.stream = stream;
        self
    }

    /// See [`ServerConfig::compute`].
    pub fn compute(mut self, compute: ComputeConfig) -> Self {
        self.config.compute = Some(compute);
        self
    }

    /// See [`ServerConfig::record_sessions`].
    pub fn record_sessions(mut self, on: bool) -> Self {
        self.config.record_sessions = on;
        self
    }

    /// See [`ServerConfig::quiet`].
    pub fn quiet(mut self, on: bool) -> Self {
        self.config.quiet = on;
        self
    }

    /// See [`ServerConfig::stats_interval`].
    pub fn stats_interval(mut self, interval: Option<Duration>) -> Self {
        self.config.stats_interval = interval;
        self
    }

    /// See [`ObsConfig::http_addr`].
    pub fn http_addr(mut self, addr: impl Into<String>) -> Self {
        self.config.obs.http_addr = Some(addr.into());
        self
    }

    /// See [`ObsConfig::timeline_interval`].
    pub fn timeline_interval(mut self, d: Duration) -> Self {
        self.config.obs.timeline_interval = d;
        self
    }

    /// See [`ObsConfig::blackbox_path`].
    pub fn blackbox_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.obs.blackbox_path = Some(path.into());
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on any zero limit that would make the daemon
    /// useless (sessions, events, queues, timeouts, shard count, budgets)
    /// or on conflicting limits (a spill threshold that exceeds the memory
    /// budget it is supposed to keep bounded).
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        let c = &self.config;
        if c.limits.max_sessions == 0 {
            return Err(ConfigError("limits.max_sessions must be > 0".into()));
        }
        if c.limits.max_events_per_session == 0 {
            return Err(ConfigError(
                "limits.max_events_per_session must be > 0".into(),
            ));
        }
        if c.limits.idle_timeout.is_zero() {
            return Err(ConfigError(
                "limits.idle_timeout must be > 0 (every connection would reap instantly)".into(),
            ));
        }
        if c.limits.max_subscriber_queue == 0 {
            return Err(ConfigError(
                "limits.max_subscriber_queue must be > 0".into(),
            ));
        }
        if c.shards.count == 0 {
            return Err(ConfigError("shards.count must be > 0".into()));
        }
        if c.shards.memory_budget == 0 {
            return Err(ConfigError("shards.memory_budget must be > 0".into()));
        }
        if c.shards.spill_threshold == 0 {
            return Err(ConfigError("shards.spill_threshold must be > 0".into()));
        }
        if c.obs.timeline_interval.is_zero() {
            return Err(ConfigError(
                "obs.timeline_interval must be > 0 (the recorder would spin)".into(),
            ));
        }
        if c.shards.spill_threshold > c.shards.memory_budget {
            return Err(ConfigError(format!(
                "shards.spill_threshold ({}) exceeds shards.memory_budget ({}): sessions could \
                 never spill before the shard sheds",
                c.shards.spill_threshold, c.shards.memory_budget
            )));
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_passes_validation() {
        assert!(ServerConfig::builder().build().is_ok());
    }

    #[test]
    fn builder_sets_every_section() {
        let config = ServerConfig::builder()
            .max_sessions(7)
            .max_events_per_session(1000)
            .idle_timeout(Duration::from_secs(5))
            .drain_timeout(Duration::ZERO)
            .max_subscriber_queue(16)
            .retry_after(Duration::from_millis(250))
            .shards(2)
            .shard_memory_budget(1 << 20)
            .spill_threshold(1 << 16)
            .spill_dir("/tmp/spill")
            .record_sessions(false)
            .quiet(true)
            .stats_interval(Some(Duration::from_secs(1)))
            .http_addr("127.0.0.1:9090")
            .timeline_interval(Duration::from_millis(500))
            .blackbox_path("/tmp/blackbox.bin")
            .build()
            .unwrap();
        assert_eq!(config.limits.max_sessions, 7);
        assert_eq!(config.limits.max_events_per_session, 1000);
        assert_eq!(config.limits.retry_after, Duration::from_millis(250));
        assert_eq!(config.shards.count, 2);
        assert_eq!(config.shards.memory_budget, 1 << 20);
        assert_eq!(config.shards.spill_threshold, 1 << 16);
        assert_eq!(
            config.shards.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/spill"))
        );
        assert!(!config.record_sessions);
        assert!(config.quiet);
        assert_eq!(config.obs.http_addr.as_deref(), Some("127.0.0.1:9090"));
        assert_eq!(config.obs.timeline_interval, Duration::from_millis(500));
        assert_eq!(
            config.obs.blackbox_path.as_deref(),
            Some(std::path::Path::new("/tmp/blackbox.bin"))
        );
    }

    #[test]
    fn zero_limits_are_rejected() {
        assert!(ServerConfig::builder().max_sessions(0).build().is_err());
        assert!(ServerConfig::builder()
            .max_events_per_session(0)
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .idle_timeout(Duration::ZERO)
            .build()
            .is_err());
        assert!(ServerConfig::builder()
            .max_subscriber_queue(0)
            .build()
            .is_err());
        assert!(ServerConfig::builder().shards(0).build().is_err());
        assert!(ServerConfig::builder()
            .shard_memory_budget(0)
            .build()
            .is_err());
        assert!(ServerConfig::builder().spill_threshold(0).build().is_err());
        assert!(ServerConfig::builder()
            .timeline_interval(Duration::ZERO)
            .build()
            .is_err());
    }

    #[test]
    fn conflicting_spill_threshold_is_rejected() {
        let err = ServerConfig::builder()
            .shard_memory_budget(1 << 20)
            .spill_threshold(2 << 20)
            .build()
            .unwrap_err();
        assert!(err.0.contains("spill_threshold"), "{err}");
    }

    #[test]
    fn drain_timeout_zero_is_allowed() {
        assert!(ServerConfig::builder()
            .drain_timeout(Duration::ZERO)
            .build()
            .is_ok());
    }
}
