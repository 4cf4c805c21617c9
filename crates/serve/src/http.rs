//! The daemon's HTTP/1.0 exposition listener: `std`-only, hand-parsed,
//! three endpoints.
//!
//! | path       | purpose                                                 |
//! |------------|---------------------------------------------------------|
//! | `/metrics` | Prometheus text exposition of the daemon snapshot       |
//! | `/healthz` | readiness from per-shard admission tier; 503 on shed    |
//! | `/vars`    | JSON snapshot: stats, per-shard health, timeline tail   |
//!
//! The listener runs on one dedicated thread (`twodprofd-http`), blocks in
//! `poll(2)` on the listener and the daemon's stop waker, and serves each
//! request synchronously — scrapes are rare (1 Hz-ish) and
//! tiny, so a thread per request would be waste. Replies are HTTP/1.0
//! with `Content-Length` and `Connection: close`: every scraper speaks
//! it, and close-delimited bodies sidestep keep-alive state entirely.
//! Read/write timeouts bound how long one stuck scraper can hold the
//! thread.

use crate::poll::PollSet;
use crate::server::Shared;
use crate::summary::shard_rows;
use crate::wire::AdmissionTier;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;
use twodprof_obs::chrome::quote;
use twodprof_obs::Snapshot;

/// How long a request may take to arrive or a reply to drain before the
/// connection is abandoned.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Ceiling on request-head bytes read before giving up on a client.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Timeline entries shipped in a `/vars` reply: enough for a dashboard's
/// sparkline without making scrapes scale with retention.
const VARS_TIMELINE_TAIL: usize = 32;

/// The exposition thread body: accepts and serves until the daemon stops.
pub(crate) fn http_loop(shared: &Shared, listener: TcpListener) {
    if let Err(e) = listener.set_nonblocking(true) {
        shared.log(format_args!("http listener setup failed: {e}"));
        return;
    }
    let mut set = PollSet::new();
    let listener_slot = set.push(crate::poll::fd_of(&listener));
    set.push(shared.stop_waker.fd());
    while !shared.is_stopped() {
        set.wait(None);
        if !set.is_ready(listener_slot) {
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Err(e) = serve_request(shared, stream) {
                    shared.log(format_args!("http request failed: {e}"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // back off rather than spin on a listener that stays
                // readable; the stop wake cuts the backoff short
                shared.log(format_args!("http accept error: {e}"));
                shared.stop_waker.wait(Some(Duration::from_millis(50)));
            }
        }
    }
}

/// Reads one request head, routes it, and writes the close-delimited reply.
fn serve_request(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?).take(MAX_REQUEST_BYTES as u64);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // drain the header block so the peer never sees a reset mid-send
    let mut header = String::new();
    loop {
        header.clear();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut stream = stream;
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            b"only GET is served here\n",
        );
    }
    match path {
        "/metrics" => {
            let body = shared.snapshot().to_text();
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                body.as_bytes(),
            )
        }
        "/healthz" => {
            let (healthy, body) = healthz(&shared.snapshot(), shared.config.shards.memory_budget);
            let status = if healthy {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            respond(
                &mut stream,
                status,
                "text/plain; charset=utf-8",
                body.as_bytes(),
            )
        }
        "/vars" => respond(
            &mut stream,
            "200 OK",
            "application/json",
            vars(shared).as_bytes(),
        ),
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            b"try /metrics, /healthz, or /vars\n",
        ),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Readiness: healthy while no shard is in Shed. The body names every
/// shard's tier, residency against the budget, and last event-loop lag,
/// so a 503 is diagnosable from the probe output alone.
fn healthz(snap: &Snapshot, budget: usize) -> (bool, String) {
    let rows = shard_rows(snap);
    let healthy = rows.iter().all(|row| row.tier != AdmissionTier::Shed);
    let status = if healthy { "ok" } else { "shedding" };
    let mut body = format!("status: {status}\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            body,
            "shard {i}: {}, {} of {budget} byte(s) resident, lag {}us",
            row.tier.label(),
            row.resident_bytes,
            row.lag_micros,
        );
    }
    (healthy, body)
}

/// The `/vars` document: lifetime stats, per-shard health, every counter
/// and gauge, the recent events/s rate, and the timeline tail — all from
/// [`Shared::snapshot`] and the timeline it feeds.
fn vars(shared: &Shared) -> String {
    let snap = shared.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0);
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"uptime_millis\":{},\"live_sessions\":{},\"active_connections\":{},",
        gauge("serve_uptime_millis"),
        gauge("serve_live_sessions"),
        gauge("serve_active_connections"),
    );
    let _ = write!(
        out,
        "\"sessions\":{{\"opened\":{},\"finished\":{},\"aborted\":{}}},\"events_ingested\":{},",
        counter("serve_sessions_opened_total"),
        counter("serve_sessions_finished_total"),
        counter("serve_sessions_aborted_total"),
        counter("serve_events_total"),
    );
    out.push_str("\"shards\":[");
    for (i, row) in shard_rows(&snap).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"index\":{i},\"tier\":{},\"tier_code\":{},\"sessions\":{},\"resident_bytes\":{},\"spilled_bytes\":{},\"lag_micros\":{},\"tick_micros\":{},\"out_buffer_high_water_bytes\":{}}}",
            quote(row.tier.label()),
            row.tier.as_u64(),
            row.sessions,
            row.resident_bytes,
            row.spilled_bytes,
            row.lag_micros,
            row.tick_micros,
            row.out_buffer_high_water_bytes,
        );
    }
    out.push_str("],\"counters\":");
    json_values(&mut out, &snap.counters);
    out.push_str(",\"gauges\":");
    json_values(&mut out, &snap.gauges);
    let rate = shared
        .timeline
        .rate("serve_events_total", VARS_TIMELINE_TAIL)
        .map_or("null".to_owned(), |rate| format!("{rate:.3}"));
    let _ = write!(out, ",\"events_per_sec\":{rate},\"timeline\":[");
    for (i, entry) in shared.timeline.tail(VARS_TIMELINE_TAIL).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"at_millis\":{},\"interval_millis\":{},\"counters\":",
            entry.at_millis, entry.interval_millis
        );
        json_values(&mut out, &entry.delta.counters);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Appends a snapshot list of `(name, help, value)` as the JSON object
/// `{"name":value,...}`.
fn json_values<V: std::fmt::Display>(out: &mut String, values: &[(String, String, V)]) {
    out.push('{');
    for (i, (name, _help, value)) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{value}", quote(name));
    }
    out.push('}');
}
