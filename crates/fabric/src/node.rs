//! One fabric node's worker: the thread that drives a single `twodprofd
//! --compute` connection for the duration of a batch.
//!
//! The worker keeps a bounded in-flight window. Each claimed job is sent at
//! once as one `SubmitJob`; the node's engine answers it from its cache
//! tier when it can (the reply is marked `cached`) and computes it
//! otherwise. Because the daemon replies as pool workers finish, replies
//! arrive out of order — the worker dispatches every frame by `job_id`
//! against its in-flight map, never by position.
//!
//! Every payload is verified before it counts: the declared spec hash must
//! match the submitted spec's content hash, the checksum must match the
//! bytes, and the bytes must decode as the spec's output kind. Failures are
//! handed back to the board for requeue (bounded attempts, then local
//! fallback). Any I/O error kills the node: the board requeues whatever it
//! held and the survivors pick it up.

use crate::board::{Board, Claim};
use crate::FabricConfig;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::thread;
use twodprof_engine::{payload_checksum, JobOutput};
use twodprof_obs::{Family, Gauge};
use twodprof_serve::wire::{ClientFrame, JobOutcome, JobPayload, ServerFrame};

/// The per-node in-flight gauges, one per node index. A `Family` rather
/// than the `gauge!` macro: the macro caches its handle in a per-call-site
/// static, which would pin every node to the first node's gauge name. The
/// family interns `fabric_node{N}_inflight` once per index and hands back
/// the same `'static` handle on every batch.
static INFLIGHT: Family<Gauge> = Family::gauge(
    "fabric_node",
    "_inflight",
    "Jobs currently in flight on this fabric node.",
);

fn connect(addr: &str, config: &FabricConfig) -> io::Result<TcpStream> {
    let mut delay = config.retry_backoff;
    let mut last = None;
    for attempt in 0..config.connect_attempts.max(1) {
        if attempt > 0 {
            thread::sleep(delay);
            delay *= 2;
        }
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("no connect attempts configured")))
}

/// Runs `node`'s side of the batch to completion (or node death) and
/// returns whether the node was lost. Always tells the board the node is
/// gone on the way out, which requeues any in-flight jobs it still owned.
pub(crate) fn run_node(board: &Board, node: usize, addr: &str, config: &FabricConfig) -> bool {
    let _span = twodprof_obs::span!("fabric.node");
    let gauge = INFLIGHT.get(node);
    let result = drive(board, node, addr, config, |n| gauge.set(n as i64));
    gauge.set(0);
    if let Err(e) = &result {
        if !config.quiet {
            eprintln!("[fabric] node {node} ({addr}) lost: {e}");
        }
    }
    board.node_died(node);
    result.is_err()
}

fn drive(
    board: &Board,
    node: usize,
    addr: &str,
    config: &FabricConfig,
    gauge: impl Fn(usize),
) -> io::Result<()> {
    let stream = connect(addr, config)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // job_id -> board slot, for every frame still owed a terminal reply
    let mut inflight: HashMap<u64, usize> = HashMap::new();
    let mut next_id: u64 = 1;
    loop {
        // refill the window; only block waiting for work when nothing is in
        // flight (otherwise go read replies instead)
        while inflight.len() < config.window {
            match board.claim(node, inflight.is_empty()) {
                Claim::Job(idx) => {
                    let _span = twodprof_obs::span!("fabric.submit");
                    twodprof_obs::counter!(
                        "fabric_jobs_submitted_total",
                        "Jobs accepted by this process's fabric tier (daemon: received; client: sent)."
                    )
                    .inc();
                    let job_id = next_id;
                    next_id += 1;
                    inflight.insert(job_id, idx);
                    ClientFrame::SubmitJob {
                        job_id,
                        spec: board.spec(idx).clone(),
                    }
                    .write_to(&mut writer)?;
                }
                Claim::Wait => break,
                Claim::Exit => {
                    if inflight.is_empty() {
                        return Ok(());
                    }
                    break;
                }
            }
        }
        if inflight.is_empty() {
            // claim returned Wait with nothing in flight cannot happen
            // (may_wait was true); loop back to claim again
            continue;
        }
        writer.flush()?;
        gauge(inflight.len());
        match ServerFrame::read_from(&mut reader)? {
            ServerFrame::JobResult { job_id, outcome } => {
                let Some(idx) = inflight.remove(&job_id) else {
                    return Err(protocol(format!("JobResult for unknown job {job_id}")));
                };
                match outcome {
                    JobOutcome::Done(payload) => settle(board, idx, &payload),
                    JobOutcome::TooLarge => board.mark_local(idx),
                    JobOutcome::Failed(msg) => board.complete_failed(idx, msg),
                }
            }
            ServerFrame::Error { code, msg } => {
                // e.g. compute disabled on this daemon: the node is useless
                return Err(protocol(format!("daemon error {code}: {msg}")));
            }
            other => {
                return Err(protocol(format!("unexpected frame {other:?}")));
            }
        }
        gauge(inflight.len());
    }
}

/// Verifies a payload end to end and settles the job: spec hash, checksum,
/// and decodability must all check out, otherwise the board counts a failed
/// attempt and requeues. A span covers the retry path so verification
/// failures are visible in traces.
fn settle(board: &Board, idx: usize, payload: &JobPayload) {
    let spec = board.spec(idx);
    let verified = payload.spec_hash == spec.content_hash()
        && payload.checksum == payload_checksum(&payload.bytes);
    let output = verified
        .then(|| JobOutput::from_payload(spec.kind, &payload.bytes).ok())
        .flatten();
    match output {
        Some(output) => {
            if payload.cached {
                twodprof_obs::counter!(
                    "fabric_remote_cache_hits_total",
                    "Jobs answered from a remote daemon's shared cache tier."
                )
                .inc();
            }
            board.complete(idx, output, payload.cached);
        }
        None => {
            let _span = twodprof_obs::span!("fabric.retry");
            twodprof_obs::counter!(
                "fabric_payload_rejected_total",
                "Remote payloads rejected by hash/checksum/decode verification."
            )
            .inc();
            board.bad_payload(idx);
        }
    }
}

fn protocol(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}
