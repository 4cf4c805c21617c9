//! The `twodprofd` daemon: a sharded, poll-driven TCP server that owns one
//! live [`TwoDProfiler`](twodprof_core::TwoDProfiler) per client session.
//!
//! # Architecture
//!
//! The accept loop assigns each connection an id and hands its socket to
//! one of a small fixed pool of shard threads (`id % shard count`); each
//! shard multiplexes its connections with nonblocking I/O and a
//! `poll(2)` readiness loop (see [`crate::shard`]), so ten thousand idle
//! or trickling sessions cost ten thousand sockets, not ten thousand
//! stacks. Fabric compute connections are shard connections too: pool
//! workers hand their out-of-order replies back to the owning shard's
//! inbox, so no connection ever gets a thread of its own.
//!
//! Every loop is event-driven: the accept loop blocks in `poll(2)` on the
//! listener and a [`Waker`] that shutdown and the `SIGUSR1` handshake
//! write to, each shard on its sockets and its own waker, and the sampler
//! and HTTP threads on a stop waker. No sleep timer sits between a client
//! and its reply, and an idle daemon runs no loop iterations.
//!
//! # Session state machine
//!
//! ```text
//!            Hello ok                Events*/Flush*            Finish
//! CONNECTED ──────────► STREAMING ──────────────► STREAMING ─────────► DONE
//!     │                     │                                           │
//!     │ Hello bad/Busy      │ limit exceeded → Busy, close              │
//!     │ idle → reap         │ bad site/state → Error, close             │
//!     ▼                     │ disconnect / idle → session dropped       ▼
//!   CLOSED ◄────────────────┴──────────────────────────────────► Report sent
//! ```
//!
//! Admission is tiered (see [`crate::wire::AdmissionTier`]): a `Hello`
//! beyond `limits.max_sessions`, during drain, or on a shard at its
//! memory budget gets [`ServerFrame`](crate::wire::ServerFrame)`::Busy`
//! with a retry-after hint; a shard past half its budget admits sessions
//! *degraded* (no recording — verdict streaming still works, `Resim`
//! does not). Recorded sessions spill to disk past
//! `shards.spill_threshold` so residency stays bounded. A session
//! exceeding `limits.max_events_per_session` gets `Busy` mid-stream.
//! Idle connections are reaped by the shard sweep after
//! `limits.idle_timeout`. Shutdown via [`ServerHandle::shutdown`] stops
//! accepting, lets in-flight sessions run to `Finish`, and force-closes
//! stragglers only after `limits.drain_timeout`.

use crate::compute::ComputePool;
use crate::config::ServerConfig;
use crate::flight::FlightRecorder;
use crate::poll::{PollSet, Waker};
use crate::shard::{current_tier, shard_loop, ShardState};
use crate::wire::ServerFrame;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread;
use std::time::{Duration, Instant};
use twodprof_obs::{Snapshot, Timeline};
use twodprof_stream::{DriftEvent, SessionIngest, StreamingProfiler, VerdictSnapshot};

/// Lifetime counters of a daemon instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions that completed `Hello`.
    pub sessions_opened: u64,
    /// Sessions that ran to `Finish` and received their report.
    pub sessions_finished: u64,
    /// Sessions dropped early: disconnects, protocol errors, idle reaps,
    /// event-limit `Busy`.
    pub sessions_aborted: u64,
    /// Total branch events ingested across all sessions.
    pub events_ingested: u64,
}

/// One program's shared streaming state: the merged profiler plus the
/// `watch` subscribers its drift events fan out to. Lives in the registry
/// for the daemon's lifetime so snapshots keep answering after every
/// session of the program ended.
pub(crate) struct ProgramStream {
    /// `None` until the program's first session declares its site table.
    pub(crate) profiler: Mutex<Option<StreamingProfiler>>,
    /// The watch connections' own handles; a watcher torn down leaves a
    /// dead entry, pruned at the next publish.
    pub(crate) subscribers: Mutex<Vec<Weak<Subscriber>>>,
}

/// Where a `watch` connection lives: the shard owning it and its
/// connection id, whom a publisher hands drift frames to.
pub(crate) struct Subscriber {
    pub(crate) shard: Arc<ShardState>,
    pub(crate) conn: u64,
}

/// A live session's attachment to its program's streaming profiler.
pub(crate) struct ProgramSession {
    pub(crate) stream: Arc<ProgramStream>,
    pub(crate) ingest: SessionIngest,
}

pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    /// The fabric compute pool, when `config.compute` is set.
    pub(crate) compute: Option<Arc<ComputePool>>,
    pub(crate) shutdown: AtomicBool,
    stopped: AtomicBool,
    /// The accept loop has exited; shards may drain to empty and stop.
    accept_stopped: AtomicBool,
    /// Drain timed out: shards tear down every remaining connection.
    force_close: AtomicBool,
    /// Ends the accept loop's poll wait: shutdown and the `SIGUSR1`
    /// handshake write to it, and the last connection's teardown, which
    /// ends the shutdown drain's wait on it.
    accept_waker: Waker,
    /// Written once when the daemon stops and never drained: the sampler
    /// and HTTP threads wait on it.
    pub(crate) stop_waker: Waker,
    next_conn: AtomicU64,
    active_conns: AtomicUsize,
    pub(crate) live_sessions: AtomicUsize,
    /// The shard pool; admission and the accept loop index it by
    /// `conn_id % len`.
    pub(crate) shards: Vec<Arc<ShardState>>,
    /// Streaming profilers keyed by program id (from `Hello.program`).
    pub(crate) programs: Mutex<HashMap<String, Arc<ProgramStream>>>,
    /// Where session recordings spill; per-daemon-instance so parallel
    /// daemons (tests) never collide.
    pub(crate) spill_dir: PathBuf,
    pub(crate) sessions_opened: AtomicU64,
    pub(crate) sessions_finished: AtomicU64,
    pub(crate) sessions_aborted: AtomicU64,
    pub(crate) events_ingested: AtomicU64,
    /// The flight recorder's bounded ring of notable events (see
    /// [`crate::flight`]); per daemon instance so parallel daemons in one
    /// process never mix their postmortems.
    pub(crate) flight: FlightRecorder,
    /// Periodic metric deltas for rate queries and `/vars` history.
    pub(crate) timeline: Arc<Timeline>,
    /// Daemon start: the epoch for timeline timestamps and `/vars` uptime.
    pub(crate) start: Instant,
}

impl Shared {
    pub(crate) fn stats(&self) -> ServerStats {
        ServerStats {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_finished: self.sessions_finished.load(Ordering::Relaxed),
            sessions_aborted: self.sessions_aborted.load(Ordering::Relaxed),
            events_ingested: self.events_ingested.load(Ordering::Relaxed),
        }
    }

    /// The daemon's metrics, as every read path reports them (the `Stats`
    /// frame, `/metrics`, `/vars`, `/healthz`, the timeline and
    /// `--stats-interval`): the process-global registry plus this
    /// instance's own values, read from the atomics it keeps for admission
    /// and [`ServerStats`]. Two daemons in one process therefore never
    /// report each other's sessions or shards, and `TWODPROF_METRICS=off`
    /// hides only the registry's metrics. Sorted by name, each name once.
    pub(crate) fn snapshot(&self) -> Snapshot {
        // the daemon's one read of the process-global registry
        let registry = twodprof_obs::global();
        let mut snap = registry.snapshot();
        let stats = self.stats();
        snap.put_counter(
            "serve_sessions_opened_total",
            "Sessions that completed Hello.",
            stats.sessions_opened,
        );
        snap.put_counter(
            "serve_sessions_finished_total",
            "Sessions that ran to Finish and received a report.",
            stats.sessions_finished,
        );
        snap.put_counter(
            "serve_sessions_aborted_total",
            "Sessions dropped before Finish (disconnect, error, reap, limit).",
            stats.sessions_aborted,
        );
        snap.put_counter(
            "serve_events_total",
            "Branch events ingested across all sessions.",
            stats.events_ingested,
        );
        snap.put_gauge(
            "serve_live_sessions",
            "Sessions between Hello and Finish.",
            self.live_sessions.load(Ordering::SeqCst) as i64,
        );
        snap.put_gauge(
            "serve_active_connections",
            "Open connections, including pre-Hello ones.",
            self.active_connections() as i64,
        );
        snap.put_gauge(
            "serve_uptime_millis",
            "Milliseconds since the daemon bound its listener.",
            self.start.elapsed().as_millis() as i64,
        );
        let level = |a: &AtomicU64| a.load(Ordering::Relaxed) as i64;
        for shard in &self.shards {
            let i = shard.index;
            snap.put_gauge(
                format!("serve_shard{i}_sessions"),
                "Open sessions owned by this shard.",
                shard.sessions.load(Ordering::Relaxed) as i64,
            );
            snap.put_gauge(
                format!("serve_shard{i}_resident_bytes"),
                "Resident recorded-trace bytes held by this shard's sessions.",
                level(&shard.resident_bytes),
            );
            snap.put_gauge(
                format!("serve_shard{i}_spilled_bytes"),
                "Recorded-trace bytes this shard's sessions hold in spill segments.",
                level(&shard.spilled_bytes),
            );
            snap.put_gauge(
                format!("serve_shard{i}_tier"),
                "Admission tier the shard is in (0 accept, 1 degrade, 2 shed).",
                current_tier(&self.config, shard).as_u64() as i64,
            );
            snap.put_gauge(
                format!("serve_shard{i}_lag_micros"),
                "Loop lag of the shard's last iteration (time outside poll), in microseconds.",
                level(&shard.last_lag_micros),
            );
            snap.put_gauge(
                format!("serve_shard{i}_last_tick_micros"),
                "Duration of the shard's last service pass, in microseconds.",
                level(&shard.last_tick_micros),
            );
            snap.put_gauge(
                format!("serve_shard{i}_out_buffer_high_water_bytes"),
                "Deepest per-connection reply backlog this shard has seen, in bytes.",
                level(&shard.out_high_water),
            );
        }
        snap
    }

    pub(crate) fn log(&self, msg: std::fmt::Arguments<'_>) {
        if !self.config.quiet {
            eprintln!("[twodprofd] {msg}");
        }
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn accept_stopped(&self) -> bool {
        self.accept_stopped.load(Ordering::SeqCst)
    }

    pub(crate) fn force_closing(&self) -> bool {
        self.force_close.load(Ordering::SeqCst)
    }

    /// The daemon has fully shut down ([`Server::run`] is returning);
    /// helper threads (sampler, HTTP exposition) exit on this.
    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Open connections right now (including pre-`Hello` ones).
    pub(crate) fn active_connections(&self) -> usize {
        self.active_conns.load(Ordering::SeqCst)
    }

    /// One connection finished its life (shard teardown or failed
    /// handoff). The last one wakes the shutdown drain.
    pub(crate) fn conn_gone(&self) {
        if self.active_conns.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.accept_waker.wake();
        }
    }

    /// Gives back a session slot claimed at admission. During drain, the
    /// last release wakes every shard: its watchers close once no session
    /// can publish drift.
    pub(crate) fn release_session_slot(&self) {
        if self.live_sessions.fetch_sub(1, Ordering::SeqCst) == 1 && self.is_draining() {
            self.wake_shards();
        }
    }

    /// Ends every shard's poll wait so it re-reads the shutdown state.
    pub(crate) fn wake_shards(&self) {
        for shard in &self.shards {
            shard.wake();
        }
    }

    /// Looks up (or creates) the program's streaming state and attaches a
    /// new session to it. The first session's site table sizes the shared
    /// profiler; later sessions may declare fewer sites but not more.
    pub(crate) fn join_program(
        &self,
        name: &str,
        num_sites: u32,
    ) -> Result<ProgramSession, String> {
        let stream = {
            let mut programs = self.programs.lock().expect("program table");
            programs
                .entry(name.to_owned())
                .or_insert_with(|| {
                    Arc::new(ProgramStream {
                        profiler: Mutex::new(None),
                        subscribers: Mutex::new(Vec::new()),
                    })
                })
                .clone()
        };
        let mut profiler = stream.profiler.lock().expect("stream profiler");
        let prof = profiler
            .get_or_insert_with(|| StreamingProfiler::new(num_sites as usize, self.config.stream));
        if num_sites as usize > prof.num_sites() {
            return Err(format!(
                "program {name:?} is registered with {} site(s); session declares {num_sites}",
                prof.num_sites()
            ));
        }
        let ingest = prof.begin_session();
        drop(profiler);
        Ok(ProgramSession { stream, ingest })
    }

    /// The program's current verdict snapshot, or an empty one if no
    /// session has initialized it yet (watchers may subscribe first).
    pub(crate) fn program_snapshot(&self, stream: &ProgramStream) -> VerdictSnapshot {
        let profiler = stream.profiler.lock().expect("stream profiler");
        match profiler.as_ref() {
            Some(p) => p.snapshot(),
            None => VerdictSnapshot {
                epoch: 0,
                window: self.config.stream.window as u64,
                slice_len: self.config.stream.slice.slice_len(),
                program_accuracy: None,
                sites: Vec::new(),
            },
        }
    }
}

/// Fans freshly folded drift events out to the program's live watchers
/// under a `serve.push` span: the frames are encoded once and handed to
/// each watcher's shard as a reply, under the subscriber-list lock so
/// every watcher sees publishes in one order. A program nobody watches
/// encodes and pushes nothing.
pub(crate) fn publish_drift(stream: &ProgramStream, events: &[DriftEvent]) {
    let mut subs = stream.subscribers.lock().expect("subscriber list");
    subs.retain(|sub| sub.strong_count() > 0);
    if subs.is_empty() {
        return;
    }
    let _span = twodprof_obs::span!("serve.push");
    let mut frames = Vec::new();
    for event in events {
        ServerFrame::DriftEvent(event.to_bytes())
            .write_to(&mut frames)
            .expect("vec write");
    }
    for sub in subs.iter().filter_map(Weak::upgrade) {
        sub.shard.push_reply(sub.conn, frames.clone());
    }
}

/// Detaches a session from its program's streaming profiler — on `Finish`
/// or on any abort path, so a dead session never stalls the fold watermark
/// — and fans out whatever drift events the final folds produced.
pub(crate) fn detach_program(ps: ProgramSession) {
    let mut out = Vec::new();
    {
        let mut profiler = ps.stream.profiler.lock().expect("stream profiler");
        if let Some(p) = profiler.as_mut() {
            p.finish_session(ps.ingest, &mut out);
        }
    }
    if !out.is_empty() {
        publish_drift(&ps.stream, &out);
    }
}

/// Static span name for each frame kind.
pub(crate) fn frame_name(frame: &crate::wire::ClientFrame) -> &'static str {
    use crate::wire::ClientFrame;
    match frame {
        ClientFrame::Hello(_) => "serve.frame.hello",
        ClientFrame::Events(_) => "serve.frame.events",
        ClientFrame::Flush => "serve.frame.flush",
        ClientFrame::Finish => "serve.frame.finish",
        ClientFrame::Stats => "serve.frame.stats",
        ClientFrame::Resim(_) => "serve.frame.resim",
        ClientFrame::TraceCtx { .. } => "serve.frame.trace_ctx",
        ClientFrame::TraceExport { .. } => "serve.frame.trace_export",
        ClientFrame::Subscribe { .. } => "serve.frame.subscribe",
        ClientFrame::SubmitJob { .. } => "serve.frame.submit_job",
        ClientFrame::Blackbox => "serve.frame.blackbox",
    }
}

/// Where this daemon dumps its flight recorder: the configured blackbox
/// path, or a per-process temp file when none was given.
pub(crate) fn blackbox_path(shared: &Shared) -> PathBuf {
    shared.config.obs.blackbox_path.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("twodprofd-blackbox-{}.bin", std::process::id()))
    })
}

/// Dumps the flight recorder's ring to the blackbox path and returns where
/// it wrote. Shared by the `SIGUSR1` handshake, the panic hook, and
/// [`ServerHandle::dump_blackbox`].
pub(crate) fn dump_blackbox(shared: &Shared) -> io::Result<PathBuf> {
    let path = blackbox_path(shared);
    shared.flight.dump_to(&path)?;
    Ok(path)
}

/// Cloneable remote control for a running [`Server`]: request shutdown and
/// observe liveness from other threads (tests, signal handlers, benches).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Requests a graceful shutdown: stop accepting, drain in-flight
    /// sessions, then return from [`Server::run`]. Safe to call from a
    /// signal handler (an atomic store plus the accept loop's wake, one
    /// `write(2)`).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.accept_waker.wake();
    }

    /// Requests a blackbox dump from the accept loop — the `SIGUSR1`
    /// handshake. Async-signal-safe, like [`shutdown`](Self::shutdown).
    pub(crate) fn request_dump(&self) {
        crate::flight::request_dump();
        self.shared.accept_waker.wake();
    }

    /// Number of sessions currently between `Hello` and `Finish`.
    pub fn live_sessions(&self) -> usize {
        self.shared.live_sessions.load(Ordering::SeqCst)
    }

    /// Number of open connections (including pre-`Hello` ones).
    pub fn active_connections(&self) -> usize {
        self.shared.active_conns.load(Ordering::SeqCst)
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The snapshot a `Stats` frame returns, readable after
    /// [`Server::run`] has returned.
    pub fn snapshot(&self) -> Snapshot {
        self.shared.snapshot()
    }

    /// Dumps the flight recorder's ring to the configured blackbox path
    /// (or a per-process temp file) and returns where it wrote. The dump
    /// is a checksummed block decodable by
    /// [`flight::decode`](crate::flight::decode) and
    /// `twodprof-client blackbox --file`.
    ///
    /// # Errors
    ///
    /// Propagates file-write errors.
    pub fn dump_blackbox(&self) -> io::Result<PathBuf> {
        dump_blackbox(&self.shared)
    }
}

/// Distinguishes the spill directories of daemons sharing a process and a
/// temp dir (tests run many).
static DAEMON_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// Timeline intervals a daemon keeps for `/vars`.
const TIMELINE_CAPACITY: usize = 256;

/// Notable events the flight recorder keeps.
const BLACKBOX_CAPACITY: usize = 256;

/// A bound, not-yet-running daemon. Call [`run`](Self::run) (usually on a
/// dedicated thread) to serve connections.
pub struct Server {
    listener: TcpListener,
    /// The HTTP exposition listener, bound when `obs.http_addr` is set;
    /// moved to its serving thread by [`run`](Self::run).
    http_listener: Option<TcpListener>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let http_listener = match &config.obs.http_addr {
            Some(addr) => Some(TcpListener::bind(addr.as_str())?),
            None => None,
        };
        let compute = config.compute.as_ref().map(ComputePool::start);
        let shards = (0..config.shards.count.max(1))
            .map(|i| ShardState::new(i).map(Arc::new))
            .collect::<io::Result<_>>()?;
        let spill_dir = config.shards.spill_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "twodprofd-spill-{}-{}",
                std::process::id(),
                DAEMON_INSTANCE.fetch_add(1, Ordering::Relaxed)
            ))
        });
        let flight = FlightRecorder::new(BLACKBOX_CAPACITY);
        let timeline = Arc::new(Timeline::new(TIMELINE_CAPACITY));
        Ok(Self {
            listener,
            http_listener,
            shared: Arc::new(Shared {
                config,
                compute,
                shutdown: AtomicBool::new(false),
                stopped: AtomicBool::new(false),
                accept_stopped: AtomicBool::new(false),
                force_close: AtomicBool::new(false),
                accept_waker: Waker::new()?,
                stop_waker: Waker::new()?,
                next_conn: AtomicU64::new(1),
                active_conns: AtomicUsize::new(0),
                live_sessions: AtomicUsize::new(0),
                shards,
                programs: Mutex::new(HashMap::new()),
                spill_dir,
                sessions_opened: AtomicU64::new(0),
                sessions_finished: AtomicU64::new(0),
                sessions_aborted: AtomicU64::new(0),
                events_ingested: AtomicU64::new(0),
                flight,
                timeline,
                start: Instant::now(),
            }),
        })
    }

    /// The daemon's bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The HTTP exposition listener's bound address, when `obs.http_addr`
    /// was configured (resolves ephemeral ports), or `None` when the
    /// listener is disabled.
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failures.
    pub fn http_addr(&self) -> io::Result<Option<SocketAddr>> {
        self.http_listener
            .as_ref()
            .map(|l| l.local_addr())
            .transpose()
    }

    /// A remote-control handle valid before, during, and after
    /// [`run`](Self::run).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Serves connections until [`ServerHandle::shutdown`] is requested,
    /// then drains in-flight sessions and returns the lifetime stats.
    ///
    /// # Errors
    ///
    /// Returns socket-configuration errors; per-connection I/O errors are
    /// isolated to their shard.
    pub fn run(mut self) -> io::Result<ServerStats> {
        self.listener.set_nonblocking(true)?;
        // only `/vars` reads the timeline, and only the stats summary
        // otherwise needs the sampler, so without either it never starts
        let record_timeline = self.http_listener.is_some();
        let http_thread = self.http_listener.take().map(|listener| {
            let shared = self.shared.clone();
            thread::Builder::new()
                .name("twodprofd-http".into())
                .spawn(move || crate::http::http_loop(&shared, listener))
                .expect("spawn http thread")
        });
        let sample = record_timeline || self.shared.config.stats_interval.is_some();
        let sampler_thread = sample.then(|| {
            let shared = self.shared.clone();
            thread::Builder::new()
                .name("twodprofd-sampler".into())
                .spawn(move || sample_loop(&shared, record_timeline))
                .expect("spawn sampler thread")
        });
        let shard_threads: Vec<_> = self
            .shared
            .shards
            .iter()
            .map(|shard| {
                let shared = self.shared.clone();
                let shard = shard.clone();
                thread::Builder::new()
                    .name(format!("twodprofd-shard-{}", shard.index))
                    .spawn(move || shard_loop(&shared, &shard))
                    .expect("spawn shard thread")
            })
            .collect();
        if let Some(pool) = &self.shared.compute {
            self.shared.log(format_args!(
                "compute service enabled, {} worker thread(s)",
                pool.threads()
            ));
        }
        self.shared.log(format_args!(
            "{} shard thread(s), {} byte memory budget per shard",
            self.shared.shards.len(),
            self.shared.config.shards.memory_budget
        ));
        // block on the listener and the accept waker: a connection, a
        // shutdown or a dump request ends the wait, and nothing else does
        let mut set = PollSet::new();
        let listener_slot = set.push(crate::poll::fd_of(&self.listener));
        let waker_slot = set.push(self.shared.accept_waker.fd());
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            set.wait(None);
            if set.is_ready(waker_slot) {
                self.shared.accept_waker.drain();
            }
            // SIGUSR1 handshake: the handler only sets a flag and wakes us;
            // the actual blackbox dump happens here, off the signal stack
            if crate::flight::take_dump_request() {
                match dump_blackbox(&self.shared) {
                    Ok(path) => self
                        .shared
                        .log(format_args!("blackbox dumped to {}", path.display())),
                    Err(e) => self.shared.log(format_args!("blackbox dump failed: {e}")),
                }
            }
            if set.is_ready(listener_slot) {
                self.accept_pending();
            }
        }
        self.shared.accept_stopped.store(true, Ordering::SeqCst);
        self.shared.wake_shards();
        self.drain();
        for t in shard_threads {
            t.join().expect("shard thread never panics");
        }
        if let Some(pool) = &self.shared.compute {
            // after drain the compute connections are gone; finish whatever
            // is still queued (replies to dead peers fail silently) and
            // join the workers
            pool.shutdown();
        }
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.shared.stop_waker.wake();
        if let Some(t) = sampler_thread {
            t.join().expect("sampler thread never panics");
        }
        if let Some(t) = http_thread {
            t.join().expect("http thread never panics");
        }
        Ok(self.shared.stats())
    }

    /// Accepts every connection the listener has queued and hands each to
    /// its shard (`id % shard count`).
    fn accept_pending(&self) {
        let shard_count = self.shared.shards.len() as u64;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let id = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
                    self.shared.active_conns.fetch_add(1, Ordering::SeqCst);
                    self.shared.shards[(id % shard_count) as usize].push_socket(id, stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // out of descriptors, say: back off rather than spin on
                    // a listener that stays readable, unless shutdown or a
                    // dump request wakes us first
                    self.shared.log(format_args!("accept error: {e}"));
                    self.shared
                        .accept_waker
                        .wait(Some(Duration::from_millis(50)));
                    return;
                }
            }
        }
    }

    /// Waits for in-flight connections to wind down, force-closing any left
    /// after the drain timeout: the last connection's teardown wakes the
    /// accept waker this waits on, and a forced close wakes every shard.
    fn drain(&self) {
        let shared = &self.shared;
        let start = Instant::now();
        let deadline = start + shared.config.limits.drain_timeout;
        let mut forced = false;
        loop {
            // drain before the check, so a teardown racing it leaves the
            // waker readable for the wait below
            shared.accept_waker.drain();
            if shared.active_conns.load(Ordering::SeqCst) == 0 {
                break;
            }
            let now = Instant::now();
            if forced {
                shared.accept_waker.wait(None);
            } else if now >= deadline {
                forced = true;
                shared.force_close.store(true, Ordering::SeqCst);
                shared.log(format_args!(
                    "drain timeout: force-closing {} connection(s)",
                    shared.active_conns.load(Ordering::SeqCst)
                ));
                shared.wake_shards();
            } else {
                shared.accept_waker.wait(Some(deadline - now));
            }
        }
        twodprof_obs::histogram!(
            "serve_drain_micros",
            "Shutdown drain duration, in microseconds."
        )
        .observe_duration(start.elapsed());
    }
}

/// Samples [`Shared::snapshot`] until the daemon stops. With
/// `record_timeline` (the HTTP listener is up), every timeline interval
/// feeds the daemon's [`Timeline`] (timestamps are milliseconds since
/// daemon start); the first record seeds the baseline immediately, so the
/// first retained interval covers startup, not the process's whole life.
/// Every `stats_interval`, if set, prints the [`crate::summary`] of the
/// snapshot against the previous print to stderr: always, even with
/// `quiet` connection logs (enabling the interval is itself the opt-in),
/// and with a single `eprint!` so concurrent connection logs never
/// interleave mid-summary.
fn sample_loop(shared: &Shared, record_timeline: bool) {
    let floor = Duration::from_millis(10);
    let timeline_every = record_timeline.then(|| shared.config.obs.timeline_interval.max(floor));
    let stats_every = shared.config.stats_interval.map(|i| i.max(floor));
    let mut next_record = Instant::now();
    let mut last_stats = (Instant::now(), shared.snapshot());
    let mut out = String::new();
    while !shared.is_stopped() {
        let now = Instant::now();
        if let Some(every) = timeline_every.filter(|_| now >= next_record) {
            let millis = shared.start.elapsed().as_millis() as u64;
            shared.timeline.record(millis, shared.snapshot());
            next_record += every;
        }
        if stats_every.is_some_and(|every| now >= last_stats.0 + every) {
            let snap = shared.snapshot();
            let secs = now.duration_since(last_stats.0).as_secs_f64();
            out.clear();
            crate::summary::render(
                &mut out,
                "[twodprofd] stats: ",
                &snap,
                Some(&last_stats.1),
                secs,
            );
            eprint!("{out}");
            last_stats = (now, snap);
        }
        // sleep until the next record or print is due; the stop wake cuts
        // the wait short, so a long interval never delays shutdown
        let next = [
            timeline_every.map(|_| next_record),
            stats_every.map(|every| last_stats.0 + every),
        ]
        .into_iter()
        .flatten()
        .min()
        .expect("the sampler runs only with something to sample");
        shared
            .stop_waker
            .wait(Some(next.saturating_duration_since(Instant::now())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ConnectOptions;
    use bpred::PredictorKind;
    use btrace::SiteId;
    use twodprof_core::SliceConfig;

    #[test]
    fn a_snapshot_under_traffic_names_each_metric_once_in_order() {
        let config = ServerConfig::builder()
            .quiet(true)
            .shards(3)
            .build()
            .expect("config");
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.handle();
        let join = thread::spawn(move || server.run().expect("run"));
        let mut sessions: Vec<_> = (0..3)
            .map(|_| {
                ConnectOptions::new(4, PredictorKind::Gshare4Kb, SliceConfig::new(64, 4))
                    .connect(addr)
                    .expect("connect")
            })
            .collect();
        let events: Vec<(SiteId, bool)> = (0..500).map(|i| (SiteId(i % 4), i % 3 == 0)).collect();
        for session in &mut sessions {
            session.send_events(&events).expect("send");
            session.flush().expect("flush");
        }
        let snap = handle.shared.snapshot();
        let mut names: Vec<&str> = Vec::new();
        for list in [
            snap.counters
                .iter()
                .map(|e| e.0.as_str())
                .collect::<Vec<_>>(),
            snap.gauges.iter().map(|e| e.0.as_str()).collect(),
            snap.histograms.iter().map(|e| e.0.as_str()).collect(),
        ] {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "unsorted: {list:?}");
            names.extend(list);
        }
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name appears twice");
        let types = snap
            .to_text()
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .count();
        assert_eq!(types, names.len(), "one # TYPE line per name");
        assert_eq!(snap.counter("serve_sessions_opened_total"), Some(3));
        assert_eq!(snap.counter("serve_events_total"), Some(1_500));
        assert_eq!(snap.gauge("serve_live_sessions"), Some(3));
        let shards: i64 = (0..3)
            .map(|i| {
                snap.gauge(&format!("serve_shard{i}_sessions"))
                    .expect("shard row")
            })
            .sum();
        assert_eq!(shards, 3);
        for session in sessions {
            session.finish().expect("finish");
        }
        handle.shutdown();
        assert_eq!(join.join().expect("server thread").sessions_finished, 3);
    }
}
