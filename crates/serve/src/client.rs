//! Client side of the `twodprofd` protocol: a blocking session wrapper and
//! a batching [`Tracer`] so existing workloads can stream to a remote
//! daemon unchanged.

use crate::flight::FlightEvent;
use crate::wire::{AdmissionTier, ClientFrame, Hello, ServerFrame, PROTOCOL_VERSION};
use bpred::PredictorKind;
use btrace::{SiteId, Tracer};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use twodprof_core::{ProfileReport, SliceConfig};
use twodprof_obs::trace::{self, ExportSpan, TraceContext};
use twodprof_obs::Snapshot;
use twodprof_stream::{DriftEvent, VerdictSnapshot};

/// Default events buffered per [`RemoteTracer`] `Events` frame.
pub const DEFAULT_BATCH_EVENTS: usize = 8192;

/// Errors a remote session can surface.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The daemon refused or evicted the session for capacity reasons
    /// (a wire `Busy` frame): the admission tier that shed it, the
    /// daemon's message, and its retry-after hint (zero when the daemon
    /// sent none — old daemons, or conditions retrying won't fix).
    Refused {
        /// Which admission decision produced the refusal.
        tier: AdmissionTier,
        /// Daemon-side detail.
        msg: String,
        /// How long the daemon suggests waiting before reconnecting.
        retry_after: Duration,
    },
    /// The daemon reported a protocol error.
    Server {
        /// One of [`crate::wire::codes`].
        code: u64,
        /// Daemon-side detail.
        msg: String,
    },
    /// The daemon answered with a frame the protocol does not allow here.
    Protocol(String),
}

impl ClientError {
    fn refused(msg: String, tier: AdmissionTier, retry_after_ms: u64) -> Self {
        ClientError::Refused {
            tier,
            msg,
            retry_after: Duration::from_millis(retry_after_ms),
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error talking to twodprofd: {e}"),
            ClientError::Refused {
                tier,
                msg,
                retry_after,
            } => {
                write!(f, "daemon refused ({tier}): {msg}")?;
                if !retry_after.is_zero() {
                    write!(f, " (retry in {}ms)", retry_after.as_millis())?;
                }
                Ok(())
            }
            ClientError::Server { code, msg } => write!(f, "daemon error {code}: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A profile report received from the daemon: the raw wire bytes plus the
/// decoded [`ProfileReport`].
///
/// The bytes are kept verbatim so callers can check bit-identity against an
/// in-process run ([`ProfileReport::to_bytes`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteReport {
    bytes: Vec<u8>,
    report: ProfileReport,
}

impl RemoteReport {
    fn parse(bytes: Vec<u8>) -> Result<Self, ClientError> {
        let report = ProfileReport::from_bytes(&bytes)
            .map_err(|e| ClientError::Protocol(format!("undecodable report: {e}")))?;
        Ok(Self { bytes, report })
    }

    /// The decoded report.
    pub fn report(&self) -> &ProfileReport {
        &self.report
    }

    /// The exact bytes the daemon sent.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the wrapper, keeping only the decoded report.
    pub fn into_report(self) -> ProfileReport {
        self.report
    }
}

/// Everything a session connect can carry, in one builder — the only way
/// to open a session: the mandatory profile geometry plus the optional
/// program id, trace propagation, and socket timeouts.
///
/// ```no_run
/// use bpred::PredictorKind;
/// use twodprof_core::SliceConfig;
/// use twodprof_serve::ConnectOptions;
///
/// let session = ConnectOptions::new(64, PredictorKind::Gshare4Kb, SliceConfig::new(10_000, 16))
///     .program("bzip2")
///     .connect("127.0.0.1:4272")?;
/// # Ok::<(), twodprof_serve::ClientError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ConnectOptions {
    num_sites: usize,
    predictor: PredictorKind,
    slice: SliceConfig,
    program: String,
    trace: Option<TraceContext>,
    connect_timeout: Option<Duration>,
    io_timeout: Option<Duration>,
}

impl ConnectOptions {
    /// Options for a workload with `num_sites` static branches, profiled
    /// by `predictor` under `slice`.
    pub fn new(num_sites: usize, predictor: PredictorKind, slice: SliceConfig) -> Self {
        Self {
            num_sites,
            predictor,
            slice,
            program: String::new(),
            trace: None,
            connect_timeout: None,
            io_timeout: None,
        }
    }

    /// Announces a program id: the daemon merges every session sharing a
    /// non-empty program into that program's streaming profiler,
    /// observable via `Subscribe`/`watch`.
    #[must_use]
    pub fn program(mut self, program: &str) -> Self {
        self.program = program.to_owned();
        self
    }

    /// Propagates `ctx` (the client's trace id and a parent span id) with
    /// a `TraceCtx` frame before the `Hello`, so the daemon's session and
    /// frame spans join the client's trace. The resulting
    /// [`RemoteSession::trace_link`] carries the daemon's trace-clock
    /// anchor plus the round trip's send/receive timestamps — everything
    /// needed to map server span times onto the client clock.
    #[must_use]
    pub fn traced(mut self, ctx: TraceContext) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// Bounds the TCP connect itself (default: the OS's).
    #[must_use]
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Bounds every read and write on the session socket (default: block
    /// forever). A timed-out operation surfaces as [`ClientError::Io`].
    #[must_use]
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = Some(timeout);
        self
    }

    /// Connects and performs the handshake (optional `TraceCtx`, then
    /// `Hello`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] if the daemon sheds the session (its
    /// `retry_after` says when to try again), plus transport and protocol
    /// errors.
    pub fn connect(&self, addr: impl ToSocketAddrs) -> Result<RemoteSession, ClientError> {
        let stream = match self.connect_timeout {
            Some(timeout) => {
                let mut last: Option<io::Error> = None;
                let mut connected = None;
                for a in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&a, timeout) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                connected.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
                    })
                })?
            }
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        let mut session = RemoteSession {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            session_id: 0,
            events_sent: 0,
            tier: AdmissionTier::Accept,
            link: None,
        };
        if let Some(ctx) = self.trace {
            let send_us = trace::now_micros();
            ClientFrame::TraceCtx {
                trace: ctx.trace,
                parent: ctx.parent,
            }
            .write_to(&mut session.writer)?;
            session.writer.flush()?;
            match read_reply(&mut session.reader)? {
                ServerFrame::TraceAck { anchor_us } => {
                    session.link = Some(TraceLink {
                        trace: ctx.trace,
                        anchor_us,
                        send_us,
                        recv_us: trace::now_micros(),
                    });
                }
                other => return Err(unexpected("TraceAck", &other)),
            }
        }
        ClientFrame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            num_sites: self.num_sites as u32,
            predictor: self.predictor,
            slice_len: self.slice.slice_len(),
            exec_threshold: self.slice.exec_threshold(),
            program: self.program.clone(),
        })
        .write_to(&mut session.writer)?;
        session.writer.flush()?;
        match read_reply(&mut session.reader)? {
            ServerFrame::HelloOk { session_id, tier } => {
                session.session_id = session_id;
                session.tier = tier;
                Ok(session)
            }
            other => Err(unexpected("HelloOk", &other)),
        }
    }
}

/// A blocking protocol session: `Hello` on connect, explicit
/// [`send_events`](Self::send_events) / [`flush`](Self::flush) /
/// [`finish`](Self::finish). Open one with [`ConnectOptions`]; prefer
/// [`RemoteTracer`] when driving it from a workload's branch stream.
pub struct RemoteSession {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    session_id: u64,
    events_sent: u64,
    tier: AdmissionTier,
    link: Option<TraceLink>,
}

impl RemoteSession {
    /// The daemon-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The admission tier the daemon granted. [`AdmissionTier::Degrade`]
    /// means the session streams and aggregates normally but the daemon is
    /// not recording it — `Resim` will fail with `BAD_STATE`.
    pub fn admission_tier(&self) -> AdmissionTier {
        self.tier
    }

    /// Clock-alignment data from the handshake, when
    /// [`ConnectOptions::traced`] was used.
    pub fn trace_link(&self) -> Option<TraceLink> {
        self.link
    }

    /// Events shipped so far (buffered daemon-side until `Finish`).
    pub fn events_sent(&self) -> u64 {
        self.events_sent
    }

    /// Ships one batch of `(site, taken)` outcomes. Does not wait for a
    /// reply; pair with [`flush`](Self::flush) for flow control.
    ///
    /// # Errors
    ///
    /// Transport errors; a daemon-side `Busy`/`Error` already queued on the
    /// socket is surfaced instead of a bare broken-pipe error when possible.
    pub fn send_events(&mut self, events: &[(SiteId, bool)]) -> Result<(), ClientError> {
        let packed: Vec<(u32, bool)> = events.iter().map(|&(s, t)| (s.0, t)).collect();
        let frame = ClientFrame::Events(packed);
        if let Err(e) = frame.write_to(&mut self.writer).and_then(|()| {
            // push batches toward the daemon eagerly; the BufWriter only
            // exists to coalesce the length prefix with the payload
            self.writer.flush()
        }) {
            return Err(self.explain_write_error(e));
        }
        self.events_sent += events.len() as u64;
        Ok(())
    }

    /// Round-trips a `Flush`, returning the daemon's ingested-event total —
    /// the protocol's synchronization and backpressure point.
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] if the daemon evicted the session, plus
    /// transport and protocol errors.
    pub fn flush(&mut self) -> Result<u64, ClientError> {
        ClientFrame::Flush.write_to(&mut self.writer)?;
        self.writer.flush()?;
        match read_reply(&mut self.reader)? {
            ServerFrame::Ack { events_total } => Ok(events_total),
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// Re-simulates everything streamed so far under a different predictor,
    /// server-side, without re-sending a single event. The daemon replays
    /// its recorded copy of the session's branch stream through a fresh
    /// profiler; the session stays open for more events, further
    /// re-simulations, or [`finish`](Self::finish).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`codes::BAD_STATE`](crate::wire::codes)
    /// if the daemon runs with recording disabled (`--no-record`), plus
    /// transport and protocol errors.
    pub fn resimulate(&mut self, predictor: PredictorKind) -> Result<RemoteReport, ClientError> {
        ClientFrame::Resim(predictor).write_to(&mut self.writer)?;
        self.writer.flush()?;
        match read_reply(&mut self.reader)? {
            ServerFrame::Report(bytes) => RemoteReport::parse(bytes),
            other => Err(unexpected("Report", &other)),
        }
    }

    /// Ends the session and returns the daemon's profile report.
    ///
    /// # Errors
    ///
    /// As [`flush`](Self::flush).
    pub fn finish(mut self) -> Result<RemoteReport, ClientError> {
        if let Err(e) = ClientFrame::Finish
            .write_to(&mut self.writer)
            .and_then(|()| self.writer.flush())
        {
            return Err(self.explain_write_error(e));
        }
        match read_reply(&mut self.reader)? {
            ServerFrame::Report(bytes) => RemoteReport::parse(bytes),
            other => Err(unexpected("Report", &other)),
        }
    }

    /// A write that fails after the daemon closed the connection usually
    /// means a `Busy`/`Error` frame is sitting in our receive buffer — read
    /// it so the caller sees the daemon's reason, not just a broken pipe.
    fn explain_write_error(&mut self, e: io::Error) -> ClientError {
        match read_reply(&mut self.reader) {
            Ok(frame) => unexpected("none (write failed)", &frame),
            Err(reply_err @ (ClientError::Refused { .. } | ClientError::Server { .. })) => {
                reply_err
            }
            Err(_) => ClientError::Io(e),
        }
    }
}

/// Reads one server frame, mapping `Busy`/`Error` frames to errors.
fn read_reply(reader: &mut impl Read) -> Result<ServerFrame, ClientError> {
    match ServerFrame::read_from(reader)? {
        ServerFrame::Busy {
            msg,
            tier,
            retry_after_ms,
        } => Err(ClientError::refused(msg, tier, retry_after_ms)),
        ServerFrame::Error { code, msg } => Err(ClientError::Server { code, msg }),
        frame => Ok(frame),
    }
}

fn unexpected(wanted: &str, got: &ServerFrame) -> ClientError {
    let label = match got {
        ServerFrame::HelloOk { .. } => "HelloOk",
        ServerFrame::Ack { .. } => "Ack",
        ServerFrame::Busy { .. } => "Busy",
        ServerFrame::Report(_) => "Report",
        ServerFrame::Error { .. } => "Error",
        ServerFrame::StatsReply(_) => "StatsReply",
        ServerFrame::TraceAck { .. } => "TraceAck",
        ServerFrame::TraceSpans(_) => "TraceSpans",
        ServerFrame::VerdictSnapshot(_) => "VerdictSnapshot",
        ServerFrame::DriftEvent(_) => "DriftEvent",
        ServerFrame::JobResult { .. } => "JobResult",
        ServerFrame::BlackboxReply(_) => "BlackboxReply",
    };
    ClientError::Protocol(format!("expected {wanted}, got {label}"))
}

/// Clock-alignment data from a traced connect: the daemon's trace-clock
/// reading paired with the client-clock window of the round trip that
/// fetched it. Both processes timestamp spans in microseconds since their
/// own private epoch; this link is what maps one onto the other.
#[derive(Clone, Copy, Debug)]
pub struct TraceLink {
    /// The propagated 16-byte trace id.
    pub trace: u128,
    /// Daemon trace-clock microseconds when it handled the `TraceCtx`.
    pub anchor_us: u64,
    /// Client trace-clock microseconds just before sending `TraceCtx`.
    pub send_us: u64,
    /// Client trace-clock microseconds just after reading `TraceAck`.
    pub recv_us: u64,
}

impl TraceLink {
    /// Offset to add to a daemon timestamp to land on the client clock,
    /// assuming the daemon's anchor was taken mid-round-trip (NTP-style
    /// single-point sync; the error is bounded by half the RTT, which on
    /// the loopback/LAN links a profiling daemon lives on is tens of
    /// microseconds).
    pub fn offset_us(&self) -> i64 {
        let midpoint = self.send_us + (self.recv_us.saturating_sub(self.send_us)) / 2;
        midpoint as i64 - self.anchor_us as i64
    }

    /// Maps one daemon-clock microsecond reading onto the client clock.
    pub fn map_us(&self, server_us: u64) -> u64 {
        (server_us as i64 + self.offset_us()).max(0) as u64
    }
}

/// The one-shot round trip of the sessionless fetchers: connect, send
/// `frame`, and read one reply. `Busy` and `Error` replies become their
/// errors; any other frame is the caller's to decode.
fn one_shot(addr: impl ToSocketAddrs, frame: &ClientFrame) -> Result<ServerFrame, ClientError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    frame.write_to(&mut writer)?;
    writer.flush()?;
    read_reply(&mut reader)
}

/// Fetches the daemon-side spans of `trace_id` over a one-shot connection
/// (sessionless, like [`fetch_stats`]) and returns them with their `pid`
/// lane still `0` — timestamps are on the *daemon's* clock; map them with
/// [`TraceLink::map_us`] before merging into a client timeline.
///
/// # Errors
///
/// Transport errors, plus [`ClientError::Protocol`] if the reply is not a
/// decodable `TraceSpans` block.
pub fn fetch_trace(
    addr: impl ToSocketAddrs,
    trace_id: u128,
) -> Result<Vec<ExportSpan>, ClientError> {
    match one_shot(addr, &ClientFrame::TraceExport { trace: trace_id })? {
        ServerFrame::TraceSpans(bytes) => {
            let (decoded_trace, spans) = trace::decode_spans(&bytes)
                .map_err(|e| ClientError::Protocol(format!("undecodable span block: {e}")))?;
            if decoded_trace != trace_id {
                return Err(ClientError::Protocol(format!(
                    "span block for trace {decoded_trace:032x}, asked for {trace_id:032x}"
                )));
            }
            Ok(spans)
        }
        other => Err(unexpected("TraceSpans", &other)),
    }
}

/// Fetches the daemon's metrics snapshot over a one-shot connection: a
/// `Stats` frame needs no session, so this works against a daemon that is
/// busy, draining, or mid-session elsewhere.
///
/// # Errors
///
/// Transport errors, plus [`ClientError::Protocol`] if the reply is not a
/// decodable `StatsReply`.
pub fn fetch_stats(addr: impl ToSocketAddrs) -> Result<Snapshot, ClientError> {
    match one_shot(addr, &ClientFrame::Stats)? {
        ServerFrame::StatsReply(bytes) => Snapshot::from_bytes(&bytes)
            .map_err(|e| ClientError::Protocol(format!("undecodable stats snapshot: {e}"))),
        other => Err(unexpected("StatsReply", &other)),
    }
}

/// Fetches the daemon's flight-recorder ring over a one-shot connection (a
/// `Blackbox` frame is sessionless, like `Stats`) and decodes the
/// checksummed block into its events, oldest first.
///
/// # Errors
///
/// Transport errors, plus [`ClientError::Protocol`] if the reply is not a
/// `BlackboxReply` carrying a decodable flight block.
pub fn fetch_blackbox(addr: impl ToSocketAddrs) -> Result<Vec<FlightEvent>, ClientError> {
    match one_shot(addr, &ClientFrame::Blackbox)? {
        ServerFrame::BlackboxReply(bytes) => crate::flight::decode(&bytes)
            .map_err(|e| ClientError::Protocol(format!("undecodable flight block: {e}"))),
        other => Err(unexpected("BlackboxReply", &other)),
    }
}

/// Fetches the current streaming verdict snapshot for `program` over a
/// one-shot connection (`Subscribe` with the watch flag clear). Sessionless,
/// like [`fetch_stats`]; works while sessions for the program are still
/// streaming.
///
/// # Errors
///
/// [`ClientError::Server`] with [`codes::BAD_STATE`](crate::wire::codes) if
/// the daemon has never seen the program, plus transport errors and
/// [`ClientError::Protocol`] if the reply is not a decodable
/// `VerdictSnapshot`.
pub fn fetch_verdicts(
    addr: impl ToSocketAddrs,
    program: &str,
) -> Result<VerdictSnapshot, ClientError> {
    let frame = ClientFrame::Subscribe {
        program: program.to_owned(),
        watch: false,
    };
    match one_shot(addr, &frame)? {
        ServerFrame::VerdictSnapshot(bytes) => VerdictSnapshot::from_bytes(&bytes)
            .map_err(|e| ClientError::Protocol(format!("undecodable verdict snapshot: {e}"))),
        other => Err(unexpected("VerdictSnapshot", &other)),
    }
}

/// A live drift subscription: `Subscribe` with the watch flag set, holding
/// the connection open while the daemon pushes a [`DriftEvent`] frame for
/// every hysteresis-confirmed verdict flip.
///
/// The daemon answers the subscription with an initial [`VerdictSnapshot`]
/// (available via [`snapshot`](Self::snapshot)); after that, [`next`]
/// (Self::next) blocks on the socket until the next drift event arrives or
/// the daemon ends the stream.
pub struct WatchClient {
    reader: BufReader<TcpStream>,
    snapshot: VerdictSnapshot,
}

impl WatchClient {
    /// Connects and subscribes to `program`'s drift stream.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with
    /// [`codes::BAD_STATE`](crate::wire::codes) if the daemon has never seen
    /// the program, plus transport and protocol errors.
    pub fn connect(addr: impl ToSocketAddrs, program: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        ClientFrame::Subscribe {
            program: program.to_owned(),
            watch: true,
        }
        .write_to(&mut writer)?;
        writer.flush()?;
        let snapshot = match read_reply(&mut reader)? {
            ServerFrame::VerdictSnapshot(bytes) => VerdictSnapshot::from_bytes(&bytes)
                .map_err(|e| ClientError::Protocol(format!("undecodable verdict snapshot: {e}")))?,
            other => return Err(unexpected("VerdictSnapshot", &other)),
        };
        Ok(Self { reader, snapshot })
    }

    /// The verdict snapshot taken when the subscription was accepted.
    pub fn snapshot(&self) -> &VerdictSnapshot {
        &self.snapshot
    }

    /// Blocks until the next drift event. Returns `Ok(None)` when the
    /// daemon closes the stream cleanly (shutdown drain).
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] if the daemon shed this subscriber for falling
    /// behind, plus transport and protocol errors.
    pub fn next_event(&mut self) -> Result<Option<DriftEvent>, ClientError> {
        match read_reply(&mut self.reader) {
            Ok(ServerFrame::DriftEvent(bytes)) => DriftEvent::from_bytes(&bytes)
                .map(Some)
                .map_err(|e| ClientError::Protocol(format!("undecodable drift event: {e}"))),
            Ok(other) => Err(unexpected("DriftEvent", &other)),
            Err(ClientError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// A [`Tracer`] that batches branch events into `Events` frames bound for a
/// remote daemon.
///
/// Because [`Tracer::branch`] cannot return errors, transport failures are
/// latched and every later event is dropped; [`finish`](Self::finish)
/// surfaces the latched error. Compose with [`btrace::Tee`] to fan a live
/// run out to the daemon and a local observer simultaneously.
pub struct RemoteTracer {
    session: RemoteSession,
    buf: Vec<(SiteId, bool)>,
    batch: usize,
    error: Option<ClientError>,
}

impl RemoteTracer {
    /// Wraps an already-open session with the default batch size.
    pub fn new(session: RemoteSession) -> Self {
        Self::with_batch_size(session, DEFAULT_BATCH_EVENTS)
    }

    /// Wraps a session, shipping a frame every `batch` events.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch_size(session: RemoteSession, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        Self {
            session,
            buf: Vec::with_capacity(batch),
            batch,
            error: None,
        }
    }

    /// The first transport error hit while streaming, if any.
    pub fn error(&self) -> Option<&ClientError> {
        self.error.as_ref()
    }

    /// Events shipped to the daemon so far (excluding the unsent buffer).
    pub fn events_sent(&self) -> u64 {
        self.session.events_sent()
    }

    /// Events observed so far, including the not-yet-shipped buffer — what
    /// the daemon will have ingested once [`finish`](Self::finish) runs.
    pub fn events_total(&self) -> u64 {
        self.session.events_sent() + self.buf.len() as u64
    }

    fn ship_buffer(&mut self) {
        if self.error.is_some() || self.buf.is_empty() {
            return;
        }
        let result = self.session.send_events(&self.buf);
        self.buf.clear();
        if let Err(e) = result {
            self.error = Some(e);
        }
    }

    /// Ships any buffered events and ends the session, returning the
    /// daemon's report.
    ///
    /// # Errors
    ///
    /// The latched streaming error if one occurred, otherwise any error
    /// from the final `Finish` round trip.
    pub fn finish(mut self) -> Result<RemoteReport, ClientError> {
        self.ship_buffer();
        if let Some(e) = self.error {
            return Err(e);
        }
        self.session.finish()
    }
}

impl Tracer for RemoteTracer {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        if self.error.is_some() {
            return;
        }
        self.buf.push((site, taken));
        if self.buf.len() >= self.batch {
            self.ship_buffer();
        }
    }
}
