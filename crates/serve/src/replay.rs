//! Replaying a workload's branch stream against a live daemon, optionally
//! fanning the same run out to an in-process profiler for an equivalence
//! check.

use crate::client::{
    fetch_trace, ClientError, ConnectOptions, RemoteReport, RemoteTracer, TraceLink,
};
use crate::session::session_sim;
use bpred::PredictorKind;
use btrace::{CountingTracer, Tee};
use std::collections::HashSet;
use std::fmt;
use std::net::ToSocketAddrs;
use twodprof_core::{ProfileReport, SliceConfig};
use twodprof_obs::trace::{self, ExportSpan, Span, TraceContext};
use workloads::Scale;

/// Chrome-trace `pid` lane for client-side spans in a stitched replay trace.
pub const TRACE_PID_CLIENT: u32 = 1;
/// Chrome-trace `pid` lane for daemon-side spans in a stitched replay trace.
pub const TRACE_PID_DAEMON: u32 = 2;

/// Errors from [`replay_workload`].
#[derive(Debug)]
pub enum ReplayError {
    /// The workload name is not in the suite.
    UnknownWorkload(String),
    /// The workload exists but lacks the named input set.
    UnknownInput {
        /// The workload consulted.
        workload: String,
        /// The missing input-set name.
        input: String,
    },
    /// A remote-session failure.
    Client(ClientError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnknownWorkload(w) => write!(f, "unknown workload {w:?}"),
            ReplayError::UnknownInput { workload, input } => {
                write!(f, "workload {workload:?} has no input set {input:?}")
            }
            ReplayError::Client(e) => write!(f, "replay failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Client(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClientError> for ReplayError {
    fn from(e: ClientError) -> Self {
        ReplayError::Client(e)
    }
}

/// What to replay and how.
#[derive(Clone, Debug)]
pub struct ReplaySpec {
    /// Workload name (e.g. `"gzip"`).
    pub workload: String,
    /// Input-set name (e.g. `"train"`).
    pub input: String,
    /// Workload scale.
    pub scale: Scale,
    /// Profiling predictor for the remote session.
    pub predictor: PredictorKind,
    /// Events per `Events` frame.
    pub batch: usize,
    /// Slice configuration; `None` auto-scales from the run length (one
    /// extra local counting pass).
    pub slice: Option<SliceConfig>,
    /// Also run the in-process profiler over the same stream (via
    /// [`Tee`]) and keep its report for comparison.
    pub verify: bool,
    /// Capture a stitched client↔daemon span trace of the replay and
    /// return it in [`ReplaySummary::trace`].
    pub trace: bool,
    /// Program id announced in the `Hello`; non-empty joins this session to
    /// the daemon's shared streaming profiler for that program (`watch`).
    pub program: String,
}

/// The result of one replay.
#[derive(Clone, Debug)]
pub struct ReplaySummary {
    /// Dynamic branch events streamed.
    pub events: u64,
    /// Slice configuration used on both sides.
    pub slice: SliceConfig,
    /// The daemon's report.
    pub remote: RemoteReport,
    /// The in-process report, when [`ReplaySpec::verify`] was set.
    pub local: Option<ProfileReport>,
    /// The stitched span trace, when [`ReplaySpec::trace`] was set.
    pub trace: Option<ReplayTrace>,
}

/// A stitched client↔daemon span timeline for one replay: client spans on
/// `pid` [`TRACE_PID_CLIENT`], daemon spans mapped onto the client clock
/// (via [`TraceLink::map_us`]) on `pid` [`TRACE_PID_DAEMON`], all sharing
/// one trace id. Feed [`ReplayTrace::spans`] to
/// [`twodprof_obs::chrome::to_json`] for a Perfetto-loadable file.
#[derive(Clone, Debug)]
pub struct ReplayTrace {
    /// The trace id every span in [`ReplayTrace::spans`] belongs to.
    pub trace: u128,
    /// All spans, client then daemon, deduplicated by span id.
    pub spans: Vec<ExportSpan>,
}

impl ReplaySummary {
    /// Whether the remote report is bit-identical to the in-process one
    /// (`None` when the replay did not verify).
    pub fn matches(&self) -> Option<bool> {
        self.local
            .as_ref()
            .map(|local| local.to_bytes() == self.remote.bytes())
    }
}

/// Replays `spec` against the daemon at `addr`.
///
/// With [`ReplaySpec::verify`] set, the single workload run is fanned out
/// through a [`Tee`] to both the [`RemoteTracer`] and a local
/// [`TwoDProfiler`](twodprof_core::TwoDProfiler) with identical
/// configuration, so the two reports must be bit-identical for a correct
/// daemon.
///
/// # Errors
///
/// Returns a [`ReplayError`] for unknown workloads/inputs and any remote
/// failure.
pub fn replay_workload(
    addr: impl ToSocketAddrs + Copy,
    spec: &ReplaySpec,
) -> Result<ReplaySummary, ReplayError> {
    let workload = workloads::by_name(&spec.workload, spec.scale)
        .ok_or_else(|| ReplayError::UnknownWorkload(spec.workload.clone()))?;
    let input = workload
        .input_set(&spec.input)
        .ok_or_else(|| ReplayError::UnknownInput {
            workload: spec.workload.clone(),
            input: spec.input.clone(),
        })?;
    let root = spec.trace.then(|| Span::root("client.replay"));
    let ctx = root
        .as_ref()
        .map(Span::context)
        .unwrap_or(TraceContext::NONE);
    let slice = match spec.slice {
        Some(slice) => slice,
        None => {
            // auto-sizing needs the run length; workloads are deterministic,
            // so a counting pre-pass pins the same config on both sides
            let _sp = ctx.is_active().then(|| Span::enter("client.count"));
            let mut counter = CountingTracer::new();
            workload.run(&input, &mut counter);
            SliceConfig::auto(counter.count())
        }
    };
    let mut options =
        ConnectOptions::new(workload.sites().len(), spec.predictor, slice).program(&spec.program);
    if ctx.is_active() {
        options = options.traced(ctx);
    }
    let session = {
        let _sp = ctx.is_active().then(|| Span::enter("client.connect"));
        options.connect(addr)?
    };
    let link = session.trace_link();
    let remote = RemoteTracer::with_batch_size(session, spec.batch);
    let (events, remote, local) = if spec.verify {
        let local = session_sim(spec.predictor, workload.sites().len(), slice);
        let mut tee = Tee::new(remote, local);
        {
            let _sp = ctx.is_active().then(|| Span::enter("client.stream"));
            workload.run(&input, &mut tee);
        }
        let (remote, local) = tee.into_inner();
        let events = remote.events_total();
        let _sp = ctx.is_active().then(|| Span::enter("client.finish"));
        (events, remote.finish()?, Some(local.finish()))
    } else {
        let mut remote = remote;
        {
            let _sp = ctx.is_active().then(|| Span::enter("client.stream"));
            workload.run(&input, &mut remote);
        }
        let events = remote.events_total();
        let _sp = ctx.is_active().then(|| Span::enter("client.finish"));
        (events, remote.finish()?, None)
    };
    let trace = match (root, link) {
        (Some(root), Some(link)) => Some(stitch_trace(addr, root, &link)?),
        (Some(root), None) => {
            root.finish();
            None
        }
        _ => None,
    };
    Ok(ReplaySummary {
        events,
        slice,
        remote,
        local,
        trace,
    })
}

/// Closes the client root span, then merges the daemon's view of the same
/// trace into the client's: daemon timestamps are mapped onto the client
/// clock with [`TraceLink::map_us`] and clamped into the root-span window
/// (RTT and clock noise must not push a daemon span outside the request
/// that caused it), daemon spans land on `pid` [`TRACE_PID_DAEMON`], and
/// spans already collected client-side are skipped by id (an in-process
/// daemon shares the collector, so its spans arrive on both paths).
fn stitch_trace(
    addr: impl ToSocketAddrs + Copy,
    root: Span,
    link: &TraceLink,
) -> Result<ReplayTrace, ReplayError> {
    let trace_id = root.trace();
    let root_start = root.start_us();
    root.finish();
    let collector = trace::collector();
    collector.flush();
    let mut spans = collector.collect_trace(trace_id);
    for span in &mut spans {
        span.pid = TRACE_PID_CLIENT;
    }
    let root_end = spans
        .iter()
        .filter(|s| s.name == "client.replay")
        .map(|s| s.start_us + s.dur_us)
        .max()
        .unwrap_or(root_start);
    let mut seen: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for mut span in fetch_trace(addr, trace_id)? {
        if !seen.insert(span.id) {
            continue;
        }
        span.pid = TRACE_PID_DAEMON;
        let start = link.map_us(span.start_us).clamp(root_start, root_end);
        let end = (start + span.dur_us).clamp(start, root_end);
        span.start_us = start;
        span.dur_us = end - start;
        spans.push(span);
    }
    Ok(ReplayTrace {
        trace: trace_id,
        spans,
    })
}
