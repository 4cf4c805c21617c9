//! The `twodprofd` wire protocol: typed frames over the length-prefixed
//! framing of [`btrace::serial`].
//!
//! Every message is one frame (`varint(len)` + payload, see
//! [`btrace::write_frame`]); the payload starts with a one-byte tag followed
//! by LEB128-varint fields, all read and written through the workspace's
//! shared encoding rules ([`btrace::serial`]). Client tags have the high
//! bit clear, server tags have it set.
//!
//! # Frame grammar
//!
//! ```text
//! frame      := varint(len) payload              len <= MAX_FRAME_LEN
//! payload    := client-msg | server-msg
//!
//! client-msg := 0x01 hello | 0x02 events | 0x03 flush | 0x04 finish
//!             | 0x05 stats | 0x06 resim | 0x07 trace-ctx | 0x08 trace-export
//!             | 0x09 subscribe | 0x0A submit-job | 0x0C blackbox
//! hello      := varint(protocol) varint(num_sites) string(predictor-id)
//!               varint(slice_len) varint(exec_threshold) string(program)
//! events     := varint(count) { varint(site << 1 | taken) }*count
//! flush      := ε
//! finish     := ε
//! stats      := ε                                valid in any session state
//! resim      := string(predictor-id)             replay recorded session
//! trace-ctx  := trace-id varint(parent-span)     propagate trace context
//! trace-export := trace-id                       fetch server spans, any state
//! subscribe  := string(program) varint(watch)    sessionless verdict query;
//!                                                watch=1 keeps the connection
//!                                                open for drift pushes
//! submit-job := varint(job_id) jobspec           answer from the cache tier,
//!                                                else compute on the pool
//! jobspec    := twodprof_engine::JobSpec::encode_into
//! blackbox   := ε                                fetch the flight recorder;
//!                                                valid in any session state
//!
//! server-msg := 0x81 hello-ok | 0x82 ack | 0x83 busy | 0x84 report
//!             | 0x85 error | 0x86 stats-reply | 0x87 trace-ack
//!             | 0x88 trace-spans | 0x89 stream-push | 0x8A job-result
//!             | 0x8C blackbox-reply
//! hello-ok   := varint(session_id) [varint(tier)]
//!                                                tier absent => 0 (accept);
//!                                                1 = degraded admission
//!                                                (recording disabled)
//! ack        := varint(events_total)
//! busy       := string(msg) [varint(tier) varint(retry_after_ms)]
//!                                                tail absent => shed with no
//!                                                retry hint (old daemons)
//! report     := bytes                            ProfileReport::write_to
//! error      := varint(code) string(msg)
//! stats-reply:= bytes                            twodprof_obs::Snapshot::write_to
//! trace-ack  := varint(anchor_us)                server trace-clock at receipt
//! trace-spans:= bytes                            twodprof_obs::trace::encode_spans
//! stream-push:= 0x00 bytes                       twodprof_stream VerdictSnapshot
//!             | 0x01 bytes                       twodprof_stream DriftEvent
//! job-result := varint(job_id) outcome
//! outcome    := 0x00 job-payload                 computed by the pool
//!             | 0x01 job-payload                 served from the cache tier
//!             | 0x02 string(msg)                 job failed deterministically
//!             | 0x03                             result exceeds frame ceiling
//! blackbox-reply := bytes                        crate::flight::encode_events
//!                                                (checksummed event block)
//! job-payload:= varint(spec_hash) varint(len) bytes varint(checksum)
//!                                                len <= MAX_RESULT_PAYLOAD;
//!                                                checksum = FNV-1a(bytes)
//!
//! string     := varint(len) utf8-bytes
//! trace-id   := 16 bytes, little-endian u128
//! ```
//!
//! Each event is packed as `site << 1 | taken` in one varint, so a hot
//! low-numbered site costs one byte per dynamic branch.

use bpred::PredictorKind;
use btrace::serial::{
    ensure_consumed, invalid, read_bytes, read_len, read_string, read_u128, read_u8, read_varint,
    read_whole, write_string,
};
use btrace::{read_frame, write_frame, write_varint};
use std::io::{self, Read, Write};
use twodprof_engine::JobSpec;

/// Protocol revision spoken by this build. A server receiving any other
/// value in `Hello` replies with [`codes::PROTOCOL`] and closes.
///
/// Revision 2 added the `Hello` program field and the
/// `Subscribe`/stream-push frames.
pub const PROTOCOL_VERSION: u64 = 2;

/// Ceiling on the length of a program id in `Hello` / `Subscribe`.
pub const MAX_PROGRAM_LEN: usize = 256;

/// Ceiling on one frame's payload, re-exported from the shared framing layer.
pub const MAX_FRAME_LEN: usize = btrace::MAX_FRAME_LEN;

/// Ceiling on events in a single `Events` frame (each event is ≥ 1 byte, so
/// this is also implied by [`MAX_FRAME_LEN`]; checked explicitly anyway).
pub const MAX_EVENTS_PER_FRAME: usize = 1 << 20;

/// Ceiling on the static-branch table size a session may declare.
pub const MAX_SITES: u32 = 1 << 20;

/// Ceiling on the serialized job output carried by a `JobResult`, leaving headroom inside [`MAX_FRAME_LEN`] for the tag,
/// ids, and checksum. Checked *before* allocating the receive buffer on
/// both the client and daemon decode paths, so a hostile declared length
/// cannot balloon memory.
pub const MAX_RESULT_PAYLOAD: usize = MAX_FRAME_LEN - 128;

/// Error codes carried by [`ServerFrame::Error`].
pub mod codes {
    /// Protocol version mismatch.
    pub const PROTOCOL: u64 = 1;
    /// Malformed or out-of-range `Hello` fields (site table, slice config,
    /// unknown predictor id).
    pub const BAD_HELLO: u64 = 2;
    /// An event referenced a site outside the session's declared table.
    pub const SITE_RANGE: u64 = 3;
    /// Frame arrived in the wrong session state (e.g. `Events` before
    /// `Hello`, or a second `Hello`).
    pub const BAD_STATE: u64 = 4;
    /// The frame itself failed to decode (unknown tag, malformed body,
    /// unknown predictor id inside a `Resim`). The connection closes after
    /// this frame, but the client gets a diagnosable error instead of a
    /// silent disconnect.
    pub const BAD_FRAME: u64 = 5;
}

const TAG_HELLO: u8 = 0x01;
const TAG_EVENTS: u8 = 0x02;
const TAG_FLUSH: u8 = 0x03;
const TAG_FINISH: u8 = 0x04;
const TAG_STATS: u8 = 0x05;
const TAG_RESIM: u8 = 0x06;
const TAG_TRACE_CTX: u8 = 0x07;
const TAG_TRACE_EXPORT: u8 = 0x08;
const TAG_SUBSCRIBE: u8 = 0x09;
const TAG_SUBMIT_JOB: u8 = 0x0A;
const TAG_BLACKBOX: u8 = 0x0C;
const TAG_HELLO_OK: u8 = 0x81;
const TAG_ACK: u8 = 0x82;
const TAG_BUSY: u8 = 0x83;
const TAG_REPORT: u8 = 0x84;
const TAG_ERROR: u8 = 0x85;
const TAG_STATS_REPLY: u8 = 0x86;
const TAG_TRACE_ACK: u8 = 0x87;
const TAG_TRACE_SPANS: u8 = 0x88;
const TAG_STREAM_PUSH: u8 = 0x89;
const TAG_JOB_RESULT: u8 = 0x8A;
const TAG_BLACKBOX_REPLY: u8 = 0x8C;

/// Status bytes inside a `0x8A` job-result frame.
const OUTCOME_COMPUTED: u8 = 0x00;
const OUTCOME_CACHED: u8 = 0x01;
const OUTCOME_FAILED: u8 = 0x02;
const OUTCOME_TOO_LARGE: u8 = 0x03;

/// Sub-tags inside a `0x89` stream-push frame.
const PUSH_SNAPSHOT: u8 = 0x00;
const PUSH_DRIFT: u8 = 0x01;

/// How the daemon's admission control handled a session attempt.
///
/// Carried on the wire in two places, both as backward-compatible optional
/// tails: `hello-ok` (Accept vs Degrade — a degraded session streams
/// verdicts but has recording, and therefore `Resim`, disabled) and `busy`
/// (always Shed today, with a retry-after hint).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AdmissionTier {
    /// Full service: session recorded, `Resim` available.
    Accept,
    /// Admitted under memory pressure: the event stream is profiled and
    /// (when the session names a program) folded into streaming verdicts,
    /// but nothing is recorded server-side.
    Degrade,
    /// Refused: the session table is full, the shard's memory budget is
    /// exhausted, or the daemon is draining.
    Shed,
}

impl AdmissionTier {
    pub(crate) fn as_u64(self) -> u64 {
        match self {
            AdmissionTier::Accept => 0,
            AdmissionTier::Degrade => 1,
            AdmissionTier::Shed => 2,
        }
    }

    pub(crate) fn from_u64(v: u64) -> io::Result<Self> {
        match v {
            0 => Ok(AdmissionTier::Accept),
            1 => Ok(AdmissionTier::Degrade),
            2 => Ok(AdmissionTier::Shed),
            other => Err(invalid(format!("unknown admission tier {other}"))),
        }
    }

    /// Stable lowercase label (metric/log-friendly).
    pub fn label(self) -> &'static str {
        match self {
            AdmissionTier::Accept => "accept",
            AdmissionTier::Degrade => "degrade",
            AdmissionTier::Shed => "shed",
        }
    }
}

impl std::fmt::Display for AdmissionTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Session parameters announced by the client's first frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Must equal [`PROTOCOL_VERSION`].
    pub protocol: u64,
    /// Size of the workload's static branch-site table.
    pub num_sites: u32,
    /// Profiling predictor the server should simulate for this session.
    pub predictor: PredictorKind,
    /// Dynamic branches per 2D-profiling slice.
    pub slice_len: u64,
    /// Per-slice minimum executions for a branch's sample to count.
    pub exec_threshold: u64,
    /// Program this session belongs to. Sessions sharing a non-empty
    /// program id are merged into that program's streaming profiler; empty
    /// opts out of aggregation.
    pub program: String,
}

/// A serialized job output crossing the wire, integrity-tagged so the
/// fabric client can verify it end to end: `spec_hash` must equal the
/// submitted [`JobSpec::content_hash`], and `checksum` must equal
/// [`twodprof_engine::payload_checksum`] over `bytes`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPayload {
    /// Whether the daemon served this from its cache tier (memo or disk)
    /// rather than computing it — the fleet-dedup signal.
    pub cached: bool,
    /// Content hash of the spec this payload answers.
    pub spec_hash: u64,
    /// `JobOutput::to_payload` bytes.
    pub bytes: Vec<u8>,
    /// FNV-1a over `bytes`.
    pub checksum: u64,
}

/// Terminal result of a submitted job, carried by [`ServerFrame::JobResult`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job finished; payload attached.
    Done(JobPayload),
    /// The job finished but its serialized output exceeds
    /// [`MAX_RESULT_PAYLOAD`]; the client must compute it locally.
    TooLarge,
    /// The job failed deterministically on the daemon (e.g. unknown
    /// workload). Retrying elsewhere would fail identically, so the client
    /// should surface the message, not requeue.
    Failed(String),
}

/// Frames a client sends to `twodprofd`.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientFrame {
    /// Opens a session; must be the first frame on a connection.
    Hello(Hello),
    /// A batch of `(site, taken)` branch outcomes in program order.
    Events(Vec<(u32, bool)>),
    /// Requests an [`ServerFrame::Ack`] with the session's event total —
    /// the client's synchronization / flow-control point.
    Flush,
    /// Ends the session; the server replies with [`ServerFrame::Report`].
    Finish,
    /// Requests a [`ServerFrame::StatsReply`] with the daemon's metrics
    /// snapshot. Valid in any session state, including before `Hello`, and
    /// does not disturb an open session.
    Stats,
    /// Re-simulates the session's recorded branch stream under a different
    /// predictor, server-side; the reply is a [`ServerFrame::Report`] and
    /// the session stays open. Requires an open session whose recording is
    /// enabled (the daemon's default), otherwise earns
    /// [`codes::BAD_STATE`].
    Resim(PredictorKind),
    /// Propagates the client's span-tracing context so server-side spans
    /// join the client's trace. Valid in any state (conventionally sent
    /// before `Hello`, so the session span lands in the right trace); the
    /// server replies with [`ServerFrame::TraceAck`] carrying its own
    /// trace-clock reading, which the client uses to align the two clocks.
    TraceCtx {
        /// 16-byte trace id the server's spans should carry.
        trace: u128,
        /// Client span id server-side root spans should parent under.
        parent: u64,
    },
    /// Requests the server's finished spans for one trace id. Sessionless,
    /// like [`Stats`](Self::Stats) — typically sent on a fresh connection
    /// after the traced session closed. Reply:
    /// [`ServerFrame::TraceSpans`].
    TraceExport {
        /// Trace id to export.
        trace: u128,
    },
    /// Requests a program's current [`ServerFrame::VerdictSnapshot`].
    /// Sessionless, like [`Stats`](Self::Stats). With `watch` set the
    /// connection then stays open and the server pushes a
    /// [`ServerFrame::DriftEvent`] for every published verdict flip until
    /// either side disconnects.
    Subscribe {
        /// Program id to observe (as announced in `Hello`).
        program: String,
        /// Keep the connection open for drift pushes after the snapshot.
        watch: bool,
    },
    /// Submits a job to the daemon's compute service. Sessionless: valid
    /// only on a connection with no open session, and only when the daemon
    /// runs with `--compute` (otherwise [`codes::BAD_STATE`]). The daemon's
    /// engine answers from its memo or disk cache when it can and computes
    /// otherwise. The reply is an eventual [`ServerFrame::JobResult`] —
    /// results may arrive out of submission order, so clients match on
    /// `job_id`.
    SubmitJob {
        /// Client-chosen correlation id, echoed in the result.
        job_id: u64,
        /// The job to execute.
        spec: JobSpec,
    },
    /// Requests the daemon's flight recorder — the bounded ring of recent
    /// notable events (decode errors, admission transitions, spills,
    /// aborts, slow ticks). Sessionless, like [`Stats`](Self::Stats): valid
    /// in any session state without disturbing an open session. Reply:
    /// [`ServerFrame::BlackboxReply`].
    Blackbox,
}

/// Frames `twodprofd` sends to a client.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerFrame {
    /// Session accepted.
    HelloOk {
        /// Server-assigned session identifier (for logs/diagnostics).
        session_id: u64,
        /// How admission control classified the session: `Accept` for full
        /// service, `Degrade` when the owning shard is over its memory
        /// watermark and recording is disabled. Encoded as an optional
        /// tail, absent for `Accept`, so old clients still parse it.
        tier: AdmissionTier,
    },
    /// Reply to [`ClientFrame::Flush`].
    Ack {
        /// Total events the session has ingested.
        events_total: u64,
    },
    /// Backpressure: the session table is full, the shard is out of memory
    /// budget, the daemon is draining, or the session hit its event-count
    /// limit. The connection closes after this frame.
    Busy {
        /// Human-readable reason.
        msg: String,
        /// Which admission tier refused the work (`Shed` for every refusal
        /// today; encoded as an optional tail for compatibility).
        tier: AdmissionTier,
        /// Hint: milliseconds after which a retry is worth attempting.
        /// `0` means "no hint" — absent on the wire from old daemons.
        retry_after_ms: u64,
    },
    /// Reply to [`ClientFrame::Finish`]: the serialized
    /// [`ProfileReport`](twodprof_core::ProfileReport), byte-for-byte what
    /// [`ProfileReport::to_bytes`](twodprof_core::ProfileReport::to_bytes)
    /// produces in-process.
    Report(Vec<u8>),
    /// Protocol violation; the connection closes after this frame.
    Error {
        /// One of the [`codes`] constants.
        code: u64,
        /// Human-readable detail.
        msg: String,
    },
    /// Reply to [`ClientFrame::Stats`]: a serialized
    /// `twodprof_obs::Snapshot` of the daemon process's metric registry
    /// (opaque at this layer, like [`Report`](Self::Report)).
    StatsReply(Vec<u8>),
    /// Reply to [`ClientFrame::TraceCtx`]: the server's trace clock
    /// (`twodprof_obs::trace::now_micros`) at the moment the frame was
    /// handled. One round trip gives the client an NTP-style single-point
    /// offset between the two processes' private trace epochs.
    TraceAck {
        /// Server trace-clock microseconds at receipt.
        anchor_us: u64,
    },
    /// Reply to [`ClientFrame::TraceExport`]: a span block serialized by
    /// `twodprof_obs::trace::encode_spans` (opaque at this layer).
    TraceSpans(Vec<u8>),
    /// Reply to [`ClientFrame::Subscribe`]: the program's current
    /// `twodprof_stream::VerdictSnapshot`, serialized (opaque at this
    /// layer). Shares wire tag `0x89` with
    /// [`DriftEvent`](Self::DriftEvent), distinguished by a sub-tag byte.
    VerdictSnapshot(Vec<u8>),
    /// Pushed to a watching subscriber on every published verdict flip: a
    /// serialized `twodprof_stream::DriftEvent` (opaque at this layer).
    DriftEvent(Vec<u8>),
    /// Terminal reply to [`ClientFrame::SubmitJob`]. Sent by a compute-pool
    /// worker when the job finishes, so it may interleave arbitrarily with
    /// replies to later frames on the same connection.
    JobResult {
        /// The submitting frame's correlation id.
        job_id: u64,
        /// What happened.
        outcome: JobOutcome,
    },
    /// Reply to [`ClientFrame::Blackbox`]: the flight recorder's event
    /// ring serialized by `crate::flight::encode_events` — a checksummed
    /// block, opaque at this layer like [`StatsReply`](Self::StatsReply).
    BlackboxReply(Vec<u8>),
}

fn write_payload(buf: &mut Vec<u8>, p: &JobPayload) {
    write_varint(buf, p.spec_hash).expect("vec write");
    write_varint(buf, p.bytes.len() as u64).expect("vec write");
    buf.extend_from_slice(&p.bytes);
    write_varint(buf, p.checksum).expect("vec write");
}

/// Reads a job payload, enforcing [`MAX_RESULT_PAYLOAD`] on the declared
/// length *before* allocating, so a hostile length prefix cannot balloon
/// the fabric client's memory.
fn read_payload(r: &mut &[u8], cached: bool) -> io::Result<JobPayload> {
    let spec_hash = read_varint(r)?;
    let len = read_len(r, MAX_RESULT_PAYLOAD, "job payload length")?;
    Ok(JobPayload {
        cached,
        spec_hash,
        bytes: read_bytes(r, len)?,
        checksum: read_varint(r)?,
    })
}

/// Decodes an `Events` body (the bytes after the tag) into `out`,
/// replacing its contents but keeping its allocation. The one `Events`
/// decoder: [`ClientFrame::decode`] and both [`FrameDecoder`] paths use it.
///
/// The declared count is untrusted until that many events have arrived.
/// Each event takes at least one byte, so the reservation is capped by the
/// bytes left: a frame that declares more events than it carries reserves
/// no more than its own length, then fails on the missing bytes.
fn decode_events(r: &mut &[u8], out: &mut Vec<(u32, bool)>) -> io::Result<()> {
    let count = read_len(r, MAX_EVENTS_PER_FRAME, "events frame count")?;
    out.clear();
    out.reserve_exact(count.min(r.len()));
    let mut left = count;
    while left > 0 {
        // eight one-byte events (hot sites below 64) at a time, tested
        // with one mask and unpacked without a branch per event
        if left >= 8 {
            if let Some(word) = r.first_chunk::<8>() {
                if u64::from_le_bytes(*word) & 0x8080_8080_8080_8080 == 0 {
                    out.extend(word.iter().map(|&b| ((b >> 1) as u32, b & 1 == 1)));
                    *r = &r[8..];
                    left -= 8;
                    continue;
                }
            }
        }
        let packed = match **r {
            [b, ..] if b < 0x80 => {
                *r = &r[1..];
                b as u64
            }
            _ => read_varint(r)?,
        };
        let site = packed >> 1;
        if site > u32::MAX as u64 {
            return Err(invalid("event site overflows u32"));
        }
        out.push((site as u32, packed & 1 == 1));
        left -= 1;
    }
    Ok(())
}

impl ClientFrame {
    /// Encodes the frame payload (tag + body, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            ClientFrame::Hello(h) => {
                buf.push(TAG_HELLO);
                write_varint(&mut buf, h.protocol).expect("vec write");
                write_varint(&mut buf, h.num_sites as u64).expect("vec write");
                h.predictor.write_id(&mut buf).expect("vec write");
                write_varint(&mut buf, h.slice_len).expect("vec write");
                write_varint(&mut buf, h.exec_threshold).expect("vec write");
                write_string(&mut buf, &h.program).expect("vec write");
            }
            ClientFrame::Events(events) => {
                buf.push(TAG_EVENTS);
                write_varint(&mut buf, events.len() as u64).expect("vec write");
                for &(site, taken) in events {
                    write_varint(&mut buf, ((site as u64) << 1) | taken as u64).expect("vec write");
                }
            }
            ClientFrame::Flush => buf.push(TAG_FLUSH),
            ClientFrame::Finish => buf.push(TAG_FINISH),
            ClientFrame::Stats => buf.push(TAG_STATS),
            ClientFrame::Resim(kind) => {
                buf.push(TAG_RESIM);
                kind.write_id(&mut buf).expect("vec write");
            }
            ClientFrame::TraceCtx { trace, parent } => {
                buf.push(TAG_TRACE_CTX);
                buf.extend_from_slice(&trace.to_le_bytes());
                write_varint(&mut buf, *parent).expect("vec write");
            }
            ClientFrame::TraceExport { trace } => {
                buf.push(TAG_TRACE_EXPORT);
                buf.extend_from_slice(&trace.to_le_bytes());
            }
            ClientFrame::Subscribe { program, watch } => {
                buf.push(TAG_SUBSCRIBE);
                write_string(&mut buf, program).expect("vec write");
                write_varint(&mut buf, *watch as u64).expect("vec write");
            }
            ClientFrame::SubmitJob { job_id, spec } => {
                buf.push(TAG_SUBMIT_JOB);
                write_varint(&mut buf, *job_id).expect("vec write");
                spec.encode_into(&mut buf);
            }
            ClientFrame::Blackbox => buf.push(TAG_BLACKBOX),
        }
        buf
    }

    /// Decodes a frame payload, requiring it to be fully consumed.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on unknown tags, out-of-range counts, unknown
    /// predictor ids, or trailing bytes; `UnexpectedEof` on truncation.
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        read_whole(payload, |r| {
            Ok(match read_u8(r)? {
                TAG_HELLO => {
                    let protocol = read_varint(r)?;
                    let num_sites = read_varint(r)?;
                    if num_sites > u32::MAX as u64 {
                        return Err(invalid("num_sites overflows u32"));
                    }
                    ClientFrame::Hello(Hello {
                        protocol,
                        num_sites: num_sites as u32,
                        predictor: PredictorKind::read_id(r)?,
                        slice_len: read_varint(r)?,
                        exec_threshold: read_varint(r)?,
                        program: read_string(r, MAX_PROGRAM_LEN)?,
                    })
                }
                TAG_EVENTS => {
                    let mut events = Vec::new();
                    decode_events(r, &mut events)?;
                    ClientFrame::Events(events)
                }
                TAG_FLUSH => ClientFrame::Flush,
                TAG_FINISH => ClientFrame::Finish,
                TAG_STATS => ClientFrame::Stats,
                TAG_RESIM => ClientFrame::Resim(PredictorKind::read_id(r)?),
                TAG_TRACE_CTX => ClientFrame::TraceCtx {
                    trace: read_u128(r)?,
                    parent: read_varint(r)?,
                },
                TAG_TRACE_EXPORT => ClientFrame::TraceExport {
                    trace: read_u128(r)?,
                },
                TAG_SUBSCRIBE => {
                    let program = read_string(r, MAX_PROGRAM_LEN)?;
                    let watch = match read_varint(r)? {
                        0 => false,
                        1 => true,
                        other => return Err(invalid(format!("bad watch flag {other}"))),
                    };
                    ClientFrame::Subscribe { program, watch }
                }
                TAG_SUBMIT_JOB => ClientFrame::SubmitJob {
                    job_id: read_varint(r)?,
                    spec: JobSpec::decode_from(r)?,
                },
                TAG_BLACKBOX => ClientFrame::Blackbox,
                other => return Err(invalid(format!("unknown client frame tag {other:#04x}"))),
            })
        })
    }

    /// Writes the frame, length-prefixed, to `w`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_frame(w, &self.encode())
    }
}

impl ServerFrame {
    /// Encodes the frame payload (tag + body, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            ServerFrame::HelloOk { session_id, tier } => {
                buf.push(TAG_HELLO_OK);
                write_varint(&mut buf, *session_id).expect("vec write");
                // optional tail: omitted for plain acceptance, so the frame
                // stays byte-identical to protocol revisions without tiers
                if *tier != AdmissionTier::Accept {
                    write_varint(&mut buf, tier.as_u64()).expect("vec write");
                }
            }
            ServerFrame::Ack { events_total } => {
                buf.push(TAG_ACK);
                write_varint(&mut buf, *events_total).expect("vec write");
            }
            ServerFrame::Busy {
                msg,
                tier,
                retry_after_ms,
            } => {
                buf.push(TAG_BUSY);
                write_string(&mut buf, msg).expect("vec write");
                // optional tail, omitted when it carries no information
                if *tier != AdmissionTier::Shed || *retry_after_ms != 0 {
                    write_varint(&mut buf, tier.as_u64()).expect("vec write");
                    write_varint(&mut buf, *retry_after_ms).expect("vec write");
                }
            }
            ServerFrame::Report(bytes) => {
                buf.push(TAG_REPORT);
                buf.extend_from_slice(bytes);
            }
            ServerFrame::Error { code, msg } => {
                buf.push(TAG_ERROR);
                write_varint(&mut buf, *code).expect("vec write");
                write_string(&mut buf, msg).expect("vec write");
            }
            ServerFrame::StatsReply(bytes) => {
                buf.push(TAG_STATS_REPLY);
                buf.extend_from_slice(bytes);
            }
            ServerFrame::TraceAck { anchor_us } => {
                buf.push(TAG_TRACE_ACK);
                write_varint(&mut buf, *anchor_us).expect("vec write");
            }
            ServerFrame::TraceSpans(bytes) => {
                buf.push(TAG_TRACE_SPANS);
                buf.extend_from_slice(bytes);
            }
            ServerFrame::VerdictSnapshot(bytes) => {
                buf.push(TAG_STREAM_PUSH);
                buf.push(PUSH_SNAPSHOT);
                buf.extend_from_slice(bytes);
            }
            ServerFrame::DriftEvent(bytes) => {
                buf.push(TAG_STREAM_PUSH);
                buf.push(PUSH_DRIFT);
                buf.extend_from_slice(bytes);
            }
            ServerFrame::JobResult { job_id, outcome } => {
                buf.push(TAG_JOB_RESULT);
                write_varint(&mut buf, *job_id).expect("vec write");
                match outcome {
                    JobOutcome::Done(p) => {
                        buf.push(if p.cached {
                            OUTCOME_CACHED
                        } else {
                            OUTCOME_COMPUTED
                        });
                        write_payload(&mut buf, p);
                    }
                    JobOutcome::Failed(msg) => {
                        buf.push(OUTCOME_FAILED);
                        write_string(&mut buf, msg).expect("vec write");
                    }
                    JobOutcome::TooLarge => buf.push(OUTCOME_TOO_LARGE),
                }
            }
            ServerFrame::BlackboxReply(bytes) => {
                buf.push(TAG_BLACKBOX_REPLY);
                buf.extend_from_slice(bytes);
            }
        }
        buf
    }

    /// Decodes a frame payload, requiring it to be fully consumed.
    ///
    /// # Errors
    ///
    /// As [`ClientFrame::decode`].
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        // a body the layer above decodes is the rest of the payload
        let rest = |r: &mut &[u8]| std::mem::take(r).to_vec();
        read_whole(payload, |r| {
            Ok(match read_u8(r)? {
                TAG_HELLO_OK => ServerFrame::HelloOk {
                    session_id: read_varint(r)?,
                    tier: if r.is_empty() {
                        AdmissionTier::Accept
                    } else {
                        AdmissionTier::from_u64(read_varint(r)?)?
                    },
                },
                TAG_ACK => ServerFrame::Ack {
                    events_total: read_varint(r)?,
                },
                TAG_BUSY => {
                    let msg = read_string(r, 1 << 16)?;
                    let (tier, retry_after_ms) = if r.is_empty() {
                        (AdmissionTier::Shed, 0)
                    } else {
                        (AdmissionTier::from_u64(read_varint(r)?)?, read_varint(r)?)
                    };
                    ServerFrame::Busy {
                        msg,
                        tier,
                        retry_after_ms,
                    }
                }
                TAG_REPORT => ServerFrame::Report(rest(r)),
                TAG_ERROR => ServerFrame::Error {
                    code: read_varint(r)?,
                    msg: read_string(r, 1 << 16)?,
                },
                TAG_STATS_REPLY => ServerFrame::StatsReply(rest(r)),
                TAG_TRACE_ACK => ServerFrame::TraceAck {
                    anchor_us: read_varint(r)?,
                },
                TAG_TRACE_SPANS => ServerFrame::TraceSpans(rest(r)),
                TAG_STREAM_PUSH => match read_u8(r)? {
                    PUSH_SNAPSHOT => ServerFrame::VerdictSnapshot(rest(r)),
                    PUSH_DRIFT => ServerFrame::DriftEvent(rest(r)),
                    other => {
                        return Err(invalid(format!("unknown stream-push sub-tag {other:#04x}")))
                    }
                },
                TAG_JOB_RESULT => ServerFrame::JobResult {
                    job_id: read_varint(r)?,
                    outcome: match read_u8(r)? {
                        OUTCOME_COMPUTED => JobOutcome::Done(read_payload(r, false)?),
                        OUTCOME_CACHED => JobOutcome::Done(read_payload(r, true)?),
                        OUTCOME_FAILED => JobOutcome::Failed(read_string(r, 1 << 16)?),
                        OUTCOME_TOO_LARGE => JobOutcome::TooLarge,
                        other => return Err(invalid(format!("unknown job outcome {other:#04x}"))),
                    },
                },
                TAG_BLACKBOX_REPLY => ServerFrame::BlackboxReply(rest(r)),
                other => return Err(invalid(format!("unknown server frame tag {other:#04x}"))),
            })
        })
    }

    /// Writes the frame, length-prefixed, to `w`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_frame(w, &self.encode())
    }

    /// Reads one length-prefixed frame from `r` and decodes it.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode), plus framing errors from
    /// [`btrace::read_frame`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        Self::decode(&read_frame(r, MAX_FRAME_LEN)?)
    }
}

/// Incremental frame decoder for nonblocking sockets.
///
/// The shard event loops read whatever bytes the kernel has and feed them
/// in with [`push`](Self::push); [`next_client`](Self::next_client) then
/// yields complete frames as they become available, tolerating a length
/// prefix or body split across any number of reads. Frames are decoded in
/// place from the buffered bytes, with no copy of the payload. The
/// byte-level grammar is exactly [`btrace::read_frame`]'s — the
/// partial-read property suite asserts the two decode identically on
/// every frame — including the `InvalidData` errors for an over-long
/// length varint and a declared length beyond `max_len`, both raised
/// *before* the body arrives.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so steady-state decoding
    /// does not memmove per frame.
    pos: usize,
    max_len: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder enforcing the shared [`MAX_FRAME_LEN`] ceiling.
    pub fn new() -> Self {
        Self::with_max_len(MAX_FRAME_LEN)
    }

    /// A decoder with an explicit payload-length ceiling.
    pub fn with_max_len(max_len: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_len,
        }
    }

    /// Appends bytes received from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= (1 << 16)) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes the next complete frame and returns where its payload
    /// lies in `buf`, or `None` when more bytes are needed.
    fn next_payload(&mut self) -> io::Result<Option<std::ops::Range<usize>>> {
        let pending = &self.buf[self.pos..];
        let mut body = pending;
        let len = match read_len(&mut body, self.max_len, "frame length") {
            Ok(len) => len,
            // the length prefix is still incomplete
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        };
        if body.len() < len {
            return Ok(None); // body still incomplete
        }
        let start = self.pos + (pending.len() - body.len());
        self.pos = start + len;
        Ok(Some(start..start + len))
    }

    /// Yields the next complete client frame, or `None` when more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the length prefix is an over-long varint or
    /// declares a payload beyond this decoder's ceiling, plus the
    /// frame-body errors of [`ClientFrame::decode`]. The decoder is
    /// poisoned after an error in the sense that the stream has no
    /// recoverable frame boundary; callers close the connection.
    pub fn next_client(&mut self) -> io::Result<Option<ClientFrame>> {
        self.next_client_reusing(&mut Vec::new())
    }

    /// [`next_client`](Self::next_client) for a caller that recycles event
    /// buffers: an `Events` frame is decoded into `spare`'s allocation,
    /// which moves into the returned frame and leaves `spare` empty (on an
    /// error `spare` keeps it). A caller that hands each frame's vector
    /// back as the next `spare` decodes a stream of `Events` frames without
    /// allocating per frame.
    ///
    /// # Errors
    ///
    /// As [`next_client`](Self::next_client).
    pub fn next_client_reusing(
        &mut self,
        spare: &mut Vec<(u32, bool)>,
    ) -> io::Result<Option<ClientFrame>> {
        let Some(range) = self.next_payload()? else {
            return Ok(None);
        };
        let payload = &self.buf[range];
        if let Some((&TAG_EVENTS, mut r)) = payload.split_first() {
            decode_events(&mut r, spare)?;
            ensure_consumed(r)?;
            return Ok(Some(ClientFrame::Events(std::mem::take(spare))));
        }
        ClientFrame::decode(payload).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_client(frame: ClientFrame) {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        let payload = read_frame(&mut buf.as_slice(), MAX_FRAME_LEN).unwrap();
        assert_eq!(ClientFrame::decode(&payload).unwrap(), frame);
    }

    fn roundtrip_server(frame: ServerFrame) {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        assert_eq!(ServerFrame::read_from(&mut buf.as_slice()).unwrap(), frame);
    }

    #[test]
    fn client_frames_roundtrip() {
        roundtrip_client(ClientFrame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            num_sites: 321,
            predictor: PredictorKind::Gshare4Kb,
            slice_len: 10_000,
            exec_threshold: 16,
            program: "gzip".to_owned(),
        }));
        roundtrip_client(ClientFrame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            num_sites: 1,
            predictor: PredictorKind::Gshare4Kb,
            slice_len: 500,
            exec_threshold: 4,
            program: String::new(),
        }));
        roundtrip_client(ClientFrame::Events(vec![
            (0, true),
            (5, false),
            (1_000_000, true),
        ]));
        roundtrip_client(ClientFrame::Events(Vec::new()));
        roundtrip_client(ClientFrame::Flush);
        roundtrip_client(ClientFrame::Finish);
        roundtrip_client(ClientFrame::Stats);
        for &kind in &PredictorKind::EXTENDED {
            roundtrip_client(ClientFrame::Resim(kind));
        }
        roundtrip_client(ClientFrame::TraceCtx {
            trace: 0xDEAD_BEEF_0123_4567_89AB_CDEF_0000_0001,
            parent: u64::MAX,
        });
        roundtrip_client(ClientFrame::TraceCtx {
            trace: u128::MAX,
            parent: 0,
        });
        roundtrip_client(ClientFrame::TraceExport { trace: 1 });
        roundtrip_client(ClientFrame::Subscribe {
            program: "gzip".to_owned(),
            watch: true,
        });
        roundtrip_client(ClientFrame::Subscribe {
            program: String::new(),
            watch: false,
        });
        roundtrip_client(ClientFrame::Blackbox);
    }

    #[test]
    fn blackbox_frames_roundtrip_and_reject_trailing_bytes() {
        roundtrip_server(ServerFrame::BlackboxReply(vec![1, 2, 3]));
        roundtrip_server(ServerFrame::BlackboxReply(Vec::new()));
        // the request is an ε-body frame: any trailing byte is a protocol
        // error, same as Flush/Stats
        let mut payload = ClientFrame::Blackbox.encode();
        assert_eq!(payload, vec![TAG_BLACKBOX]);
        payload.push(0);
        assert!(ClientFrame::decode(&payload).is_err());
    }

    #[test]
    fn subscribe_rejects_bad_watch_flag_and_oversized_program() {
        let mut payload = ClientFrame::Subscribe {
            program: "p".to_owned(),
            watch: true,
        }
        .encode();
        *payload.last_mut().unwrap() = 2;
        assert!(ClientFrame::decode(&payload).is_err());
        let long = ClientFrame::Subscribe {
            program: "x".repeat(MAX_PROGRAM_LEN + 1),
            watch: false,
        }
        .encode();
        assert!(ClientFrame::decode(&long).is_err());
    }

    #[test]
    fn trace_frames_reject_truncation_and_trailing_bytes() {
        let payload = ClientFrame::TraceCtx {
            trace: 42,
            parent: 7,
        }
        .encode();
        for len in 1..payload.len() {
            assert!(
                ClientFrame::decode(&payload[..len]).is_err(),
                "prefix {len}"
            );
        }
        let mut long = ClientFrame::TraceExport { trace: 42 }.encode();
        long.push(0);
        assert!(ClientFrame::decode(&long).is_err());
    }

    #[test]
    fn resim_with_unknown_predictor_rejected() {
        let mut payload = ClientFrame::Resim(PredictorKind::Tage8Kb).encode();
        let pos = payload
            .windows(7)
            .position(|w| w == b"tage8kb")
            .expect("id embedded");
        payload[pos] = b'x';
        assert!(ClientFrame::decode(&payload).is_err());
    }

    #[test]
    fn server_frames_roundtrip() {
        roundtrip_server(ServerFrame::HelloOk {
            session_id: 42,
            tier: AdmissionTier::Accept,
        });
        roundtrip_server(ServerFrame::HelloOk {
            session_id: 7,
            tier: AdmissionTier::Degrade,
        });
        roundtrip_server(ServerFrame::Ack {
            events_total: 1 << 40,
        });
        roundtrip_server(ServerFrame::Busy {
            msg: "session table full".to_owned(),
            tier: AdmissionTier::Shed,
            retry_after_ms: 0,
        });
        roundtrip_server(ServerFrame::Busy {
            msg: "shard over budget".to_owned(),
            tier: AdmissionTier::Shed,
            retry_after_ms: 250,
        });
        roundtrip_server(ServerFrame::Report(vec![1, 2, 3, 250]));
        roundtrip_server(ServerFrame::Report(Vec::new()));
        roundtrip_server(ServerFrame::Error {
            code: codes::SITE_RANGE,
            msg: "site 9 outside table of 3".to_owned(),
        });
        roundtrip_server(ServerFrame::StatsReply(vec![9, 8, 7]));
        roundtrip_server(ServerFrame::StatsReply(Vec::new()));
        roundtrip_server(ServerFrame::TraceAck { anchor_us: 1 << 50 });
        roundtrip_server(ServerFrame::TraceSpans(vec![1, 2, 3]));
        roundtrip_server(ServerFrame::TraceSpans(Vec::new()));
        roundtrip_server(ServerFrame::VerdictSnapshot(vec![4, 5, 6]));
        roundtrip_server(ServerFrame::VerdictSnapshot(Vec::new()));
        roundtrip_server(ServerFrame::DriftEvent(vec![7, 8]));
        roundtrip_server(ServerFrame::DriftEvent(Vec::new()));
    }

    #[test]
    fn bare_hello_ok_and_busy_decode_with_default_tiers() {
        // Frames from a daemon predating admission tiers carry no tail;
        // they must decode to Accept / (Shed, no hint).
        let mut bare_ok = vec![TAG_HELLO_OK];
        write_varint(&mut bare_ok, 9).unwrap();
        assert_eq!(
            ServerFrame::decode(&bare_ok).unwrap(),
            ServerFrame::HelloOk {
                session_id: 9,
                tier: AdmissionTier::Accept,
            }
        );
        let mut bare_busy = vec![TAG_BUSY];
        write_varint(&mut bare_busy, 4).unwrap();
        bare_busy.extend_from_slice(b"full");
        assert_eq!(
            ServerFrame::decode(&bare_busy).unwrap(),
            ServerFrame::Busy {
                msg: "full".to_owned(),
                tier: AdmissionTier::Shed,
                retry_after_ms: 0,
            }
        );
        // and the Accept encoding is byte-identical to the bare form, so
        // old clients keep parsing new daemons
        assert_eq!(
            ServerFrame::HelloOk {
                session_id: 9,
                tier: AdmissionTier::Accept,
            }
            .encode(),
            bare_ok
        );
    }

    #[test]
    fn unknown_admission_tier_rejected() {
        let mut payload = vec![TAG_HELLO_OK];
        write_varint(&mut payload, 1).unwrap();
        write_varint(&mut payload, 3).unwrap();
        assert!(ServerFrame::decode(&payload).is_err());
    }

    #[test]
    fn decoder_yields_frames_across_arbitrary_splits() {
        let frames = vec![
            ClientFrame::Flush,
            ClientFrame::Events(vec![(3, true), (900_000, false)]),
            ClientFrame::Finish,
        ];
        let mut stream = Vec::new();
        for f in &frames {
            f.write_to(&mut stream).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.push(&[b]);
            while let Some(frame) = dec.next_client().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_handles_hello_split_across_reads() {
        // Regression: the session-opening frame arriving in two TCP reads —
        // the first cutting the frame mid-body — must decode identically to
        // the blocking reader.
        let hello = ClientFrame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            num_sites: 4096,
            predictor: PredictorKind::Gshare4Kb,
            slice_len: 10_000,
            exec_threshold: 16,
            program: "gzip".to_owned(),
        });
        let mut stream = Vec::new();
        hello.write_to(&mut stream).unwrap();
        for split in 1..stream.len() {
            let mut dec = FrameDecoder::new();
            dec.push(&stream[..split]);
            assert_eq!(dec.next_client().unwrap(), None, "split {split}");
            dec.push(&stream[split..]);
            assert_eq!(dec.next_client().unwrap().as_ref(), Some(&hello));
        }
    }

    #[test]
    fn decoder_rejects_oversized_and_overlong_length_prefixes() {
        let mut dec = FrameDecoder::with_max_len(16);
        let mut stream = Vec::new();
        write_varint(&mut stream, 17).unwrap();
        dec.push(&stream);
        assert!(dec.next_client().is_err());

        let mut dec = FrameDecoder::new();
        dec.push(&[0x80; 10]); // 10 continuation bytes: over-long varint
        assert!(dec.next_client().is_err());
    }

    #[test]
    fn stream_push_rejects_unknown_subtag_and_missing_subtag() {
        assert!(ServerFrame::decode(&[TAG_STREAM_PUSH, 0x02]).is_err());
        assert!(ServerFrame::decode(&[TAG_STREAM_PUSH]).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        // 0x0B and 0x8B were the retired cache-query and cache-reply tags
        for tag in [0x7F, 0x0B] {
            assert!(
                ClientFrame::decode(&[tag]).is_err(),
                "client tag {tag:#04x}"
            );
        }
        for tag in [0x01, 0x8B] {
            assert!(
                ServerFrame::decode(&[tag]).is_err(),
                "server tag {tag:#04x}"
            );
        }
        assert!(ClientFrame::decode(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = ClientFrame::Flush.encode();
        payload.push(0);
        assert!(ClientFrame::decode(&payload).is_err());
    }

    #[test]
    fn unknown_predictor_id_rejected() {
        let mut payload = ClientFrame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            num_sites: 1,
            predictor: PredictorKind::Gshare4Kb,
            slice_len: 100,
            exec_threshold: 4,
            program: String::new(),
        })
        .encode();
        // corrupt the predictor id in place ("gshare4kb" -> "gshore4kb")
        let pos = payload
            .windows(9)
            .position(|w| w == b"gshare4kb")
            .expect("id embedded");
        payload[pos + 3] = b'o';
        assert!(ClientFrame::decode(&payload).is_err());
    }

    fn sample_payload(cached: bool) -> JobPayload {
        let bytes = vec![1, 2, 3, 4, 5];
        JobPayload {
            cached,
            spec_hash: 0xDEAD_BEEF,
            checksum: twodprof_engine::payload_checksum(&bytes),
            bytes,
        }
    }

    #[test]
    fn fabric_frames_roundtrip() {
        use bpred::PredictorKind;
        use workloads::Scale;
        roundtrip_client(ClientFrame::SubmitJob {
            job_id: 7,
            spec: JobSpec::two_d("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb),
        });
        roundtrip_client(ClientFrame::SubmitJob {
            job_id: u64::MAX,
            spec: JobSpec::trace("mcf", "train", Scale::Small),
        });
        roundtrip_server(ServerFrame::JobResult {
            job_id: 1,
            outcome: JobOutcome::Done(sample_payload(false)),
        });
        roundtrip_server(ServerFrame::JobResult {
            job_id: 2,
            outcome: JobOutcome::Done(sample_payload(true)),
        });
        roundtrip_server(ServerFrame::JobResult {
            job_id: 3,
            outcome: JobOutcome::Failed("unknown workload".to_owned()),
        });
        roundtrip_server(ServerFrame::JobResult {
            job_id: 4,
            outcome: JobOutcome::TooLarge,
        });
    }

    #[test]
    fn job_payload_rejects_oversized_declared_length_before_allocation() {
        // Regression for the daemon decode path: a frame declaring a
        // payload length beyond MAX_RESULT_PAYLOAD (even absurdly beyond
        // addressable memory) must be rejected by the length check, not by
        // a failed allocation.
        for declared in [MAX_RESULT_PAYLOAD as u64 + 1, u64::MAX] {
            let mut payload = vec![TAG_JOB_RESULT];
            write_varint(&mut payload, 9).unwrap();
            payload.push(OUTCOME_COMPUTED);
            write_varint(&mut payload, 0xABCD).unwrap(); // spec_hash
            write_varint(&mut payload, declared).unwrap(); // bytes length
            let err = ServerFrame::decode(&payload).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "declared {declared}"
            );
        }
    }

    #[test]
    fn submit_job_rejects_oversized_spec_name_before_allocation() {
        // Same property on the daemon's ClientFrame path: the JobSpec
        // decoder must cap name lengths before allocating.
        let mut payload = vec![TAG_SUBMIT_JOB];
        write_varint(&mut payload, 1).unwrap(); // job_id
        write_varint(&mut payload, u64::MAX).unwrap(); // workload name length
        let err = ClientFrame::decode(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn fabric_frames_reject_truncation_and_trailing_bytes() {
        use bpred::PredictorKind;
        use workloads::Scale;
        let submit = ClientFrame::SubmitJob {
            job_id: 300,
            spec: JobSpec::accuracy("gzip", "train", Scale::Full, PredictorKind::Tage8Kb),
        }
        .encode();
        for len in 1..submit.len() {
            assert!(ClientFrame::decode(&submit[..len]).is_err(), "prefix {len}");
        }
        let mut garbage = submit.clone();
        garbage.push(0);
        assert!(ClientFrame::decode(&garbage).is_err());

        let result = ServerFrame::JobResult {
            job_id: 300,
            outcome: JobOutcome::Done(sample_payload(false)),
        }
        .encode();
        for len in 1..result.len() {
            assert!(ServerFrame::decode(&result[..len]).is_err(), "prefix {len}");
        }
        let mut garbage = result.clone();
        garbage.push(0);
        assert!(ServerFrame::decode(&garbage).is_err());
    }

    #[test]
    fn job_result_rejects_unknown_outcome_byte() {
        let mut payload = vec![TAG_JOB_RESULT];
        write_varint(&mut payload, 1).unwrap();
        payload.push(0x07);
        assert!(ServerFrame::decode(&payload).is_err());
    }

    #[test]
    fn hot_low_sites_cost_one_byte_each() {
        let events: Vec<(u32, bool)> = (0..1000).map(|i| (i % 4, i % 2 == 0)).collect();
        let payload = ClientFrame::Events(events).encode();
        // 1 tag byte + 2 count bytes + 1 byte per event
        assert_eq!(payload.len(), 3 + 1000);
    }
}
