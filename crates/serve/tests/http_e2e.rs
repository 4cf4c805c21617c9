//! End-to-end exposition-plane tests: a real `twodprofd` with its HTTP
//! listener on an ephemeral loopback port, scraped with hand-written
//! HTTP/1.0 requests (no HTTP client dependency, matching the daemon's
//! no-dependency server).
//!
//! Covers the three endpoints (`/metrics` well-formedness, `/healthz`
//! readiness flipping to 503 under forced shed and recovering, `/vars`
//! JSON shape), the error paths (404/405), the flight recorder's two
//! export paths (the sessionless `Blackbox` wire frame and the checksummed
//! on-disk dump), and that two daemons in one process report only their
//! own sessions and shards.

use bpred::PredictorKind;
use btrace::SiteId;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};
use twodprof_core::SliceConfig;
use twodprof_serve::wire::AdmissionTier;
use twodprof_serve::{
    fetch_blackbox, fetch_stats, ClientError, ConnectOptions, RemoteSession, Server, ServerConfig,
    ServerHandle, ServerStats,
};

struct Daemon {
    addr: SocketAddr,
    http: SocketAddr,
    handle: ServerHandle,
    join: Option<thread::JoinHandle<ServerStats>>,
}

impl Daemon {
    fn start(config: ServerConfig) -> Self {
        let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr");
        let http = server
            .http_addr()
            .expect("http addr")
            .expect("http listener configured");
        let handle = server.handle();
        let join = thread::spawn(move || server.run().expect("server run"));
        Self {
            addr,
            http,
            handle,
            join: Some(join),
        }
    }

    fn config() -> twodprof_serve::ServerConfigBuilder {
        let mut builder = ServerConfig::builder();
        builder = builder.quiet(true).http_addr("127.0.0.1:0");
        builder
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// One raw HTTP/1.0 exchange: returns (status line, headers, body).
fn http_request(addr: SocketAddr, request: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(request.as_bytes()).expect("write request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    let (head, body) = reply
        .split_once("\r\n\r\n")
        .expect("reply has a header block");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_owned(), headers.to_owned(), body.to_owned())
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String, String) {
    http_request(
        addr,
        &format!("GET {path} HTTP/1.0\r\nHost: twodprofd\r\nUser-Agent: http_e2e\r\n\r\n"),
    )
}

fn connect(daemon: &Daemon, num_sites: usize) -> Result<RemoteSession, ClientError> {
    ConnectOptions::new(
        num_sites,
        PredictorKind::Gshare4Kb,
        SliceConfig::new(512, 32),
    )
    .connect(daemon.addr)
}

/// Deterministic branch stream, salted so sessions differ.
fn synthetic_stream(salt: u64, len: usize, num_sites: u32) -> Vec<(SiteId, bool)> {
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (SiteId((x % num_sites as u64) as u32), x & 2 == 2)
        })
        .collect()
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn metrics_endpoint_serves_well_formed_prometheus_text() {
    let daemon = Daemon::start(Daemon::config().build().expect("config"));
    // some traffic so the exposition carries real serve-side series
    let mut session = connect(&daemon, 8).expect("connect");
    session
        .send_events(&synthetic_stream(1, 2_000, 8))
        .expect("send");
    session.flush().expect("flush");

    let (status, headers, body) = http_get(daemon.http, "/metrics");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(
        headers.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "got headers {headers:?}"
    );
    assert!(headers.contains(&format!("Content-Length: {}", body.len())));

    // Prometheus text well-formedness: every line is a comment or
    // `name value`, every sample name has a preceding # TYPE, and the
    // serve-side series are present
    let mut typed: Vec<&str> = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.push(rest.split_whitespace().next().expect("type line names"));
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("sample name");
        let value = parts.next().expect("sample value");
        assert!(parts.next().is_none(), "extra fields in {line:?}");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
        // histogram samples are `{name}_bucket{{le=...}}`/`_sum`/`_count`
        let bare = name.split('{').next().expect("split is nonempty");
        let family = bare
            .strip_suffix("_bucket")
            .or_else(|| bare.strip_suffix("_sum"))
            .or_else(|| bare.strip_suffix("_count"))
            .filter(|f| typed.contains(f))
            .unwrap_or(bare);
        assert!(
            typed.contains(&family),
            "sample {name} has no preceding # TYPE"
        );
    }
    assert!(body.contains("serve_events_total"), "got:\n{body}");
    assert!(body.contains("serve_shard0_sessions"));
    session.finish().expect("finish");
}

#[test]
fn healthz_serves_503_under_shed_and_recovers() {
    // one shard, a 64 KiB recording budget, and a spill dir that cannot
    // exist (its parent is a device node): spilling fails, so a heavy
    // session parks resident bytes above the budget, the shard sheds, and
    // the probe must say so — then recover once the session is gone
    let daemon = Daemon::start(
        Daemon::config()
            .shards(1)
            .shard_memory_budget(64 << 10)
            .spill_threshold(32 << 10)
            .spill_dir("/dev/null/twodprof-nope")
            .build()
            .expect("config"),
    );

    let (status, _headers, body) = http_get(daemon.http, "/healthz");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(body.starts_with("status: ok\n"), "got {body:?}");
    assert!(body.contains("shard 0: accept"), "got {body:?}");

    let mut heavy = connect(&daemon, 8).expect("connect");
    heavy
        .send_events(&synthetic_stream(2, 120_000, 8))
        .expect("send");
    heavy.flush().expect("flush");

    // shed is observable both at admission and on the probe
    match connect(&daemon, 8) {
        Err(ClientError::Refused { tier, .. }) => assert_eq!(tier, AdmissionTier::Shed),
        Err(other) => panic!("expected Refused under shed, got {other:?}"),
        Ok(_) => panic!("expected Refused under shed, got a session"),
    }
    let (status, _headers, body) = http_get(daemon.http, "/healthz");
    assert_eq!(status, "HTTP/1.0 503 Service Unavailable");
    assert!(body.starts_with("status: shedding\n"), "got {body:?}");
    assert!(body.contains("shard 0: shed"), "got {body:?}");
    assert!(body.contains("byte(s) resident"), "got {body:?}");

    // draining the heavy session releases the residency; the probe recovers
    heavy.finish().expect("finish");
    wait_until("healthz recovery", || {
        http_get(daemon.http, "/healthz").0 == "HTTP/1.0 200 OK"
    });

    // ...and the shed decision made it into the flight recorder, fetchable
    // over the sessionless wire frame
    let events = fetch_blackbox(daemon.addr).expect("fetch blackbox");
    assert!(
        events
            .iter()
            .any(|e| e.to_string().contains("budget exhausted")),
        "no shed event in {events:?}"
    );
}

#[test]
fn vars_serves_the_json_snapshot() {
    let daemon = Daemon::start(
        Daemon::config()
            .timeline_interval(Duration::from_millis(20))
            .build()
            .expect("config"),
    );
    let mut session = connect(&daemon, 8).expect("connect");
    session
        .send_events(&synthetic_stream(3, 1_000, 8))
        .expect("send");
    session.flush().expect("flush");
    // let the timeline thread record at least one post-baseline interval
    thread::sleep(Duration::from_millis(80));

    let (status, headers, body) = http_get(daemon.http, "/vars");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(headers.contains("Content-Type: application/json"));
    for key in [
        "\"uptime_millis\":",
        "\"live_sessions\":",
        "\"sessions\":{\"opened\":",
        "\"shards\":[{\"index\":0,\"tier\":\"accept\",\"tier_code\":0,",
        "\"counters\":{",
        "\"gauges\":{",
        "\"events_per_sec\":",
        "\"timeline\":[",
    ] {
        assert!(body.contains(key), "missing {key} in:\n{body}");
    }
    assert!(body.contains("\"serve_events_total\":"), "got:\n{body}");
    session.finish().expect("finish");
}

#[test]
fn each_daemon_reports_only_its_own_sessions_and_shards() {
    // daemon A: four shards, one session, then gone
    let a = Daemon::start(Daemon::config().shards(4).build().expect("config"));
    let mut session = connect(&a, 8).expect("connect");
    session
        .send_events(&synthetic_stream(4, 1_000, 8))
        .expect("send");
    session.finish().expect("finish");
    drop(a);

    // daemon B: one shard, never a session
    let b = Daemon::start(Daemon::config().shards(1).build().expect("config"));
    let stats = fetch_stats(b.addr).expect("fetch stats");
    assert_eq!(stats.counter("serve_sessions_opened_total"), Some(0));
    let shard_rows = stats
        .gauges
        .iter()
        .filter(|(name, _, _)| name.starts_with("serve_shard") && name.ends_with("_sessions"))
        .count();
    assert_eq!(shard_rows, 1, "Stats shard rows: {:?}", stats.gauges);

    let (_status, _headers, metrics) = http_get(b.http, "/metrics");
    assert!(
        metrics
            .lines()
            .any(|l| l == "serve_sessions_opened_total 0"),
        "got:\n{metrics}"
    );
    let metric_rows = metrics
        .lines()
        .filter(|l| l.starts_with("serve_shard") && l.contains("_sessions "))
        .count();
    assert_eq!(metric_rows, 1, "got:\n{metrics}");

    let (_status, _headers, vars) = http_get(b.http, "/vars");
    assert!(vars.contains("\"sessions\":{\"opened\":0,"), "got:\n{vars}");
    assert_eq!(vars.matches("{\"index\":").count(), 1, "got:\n{vars}");

    assert_eq!(b.handle.stats().sessions_opened, 0);
}

#[test]
fn unknown_paths_and_methods_get_clean_errors() {
    let daemon = Daemon::start(Daemon::config().build().expect("config"));
    let (status, _headers, body) = http_get(daemon.http, "/nope");
    assert_eq!(status, "HTTP/1.0 404 Not Found");
    assert!(body.contains("/metrics"), "got {body:?}");
    let (status, _headers, _body) = http_request(
        daemon.http,
        "POST /metrics HTTP/1.0\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.0 405 Method Not Allowed");
}

#[test]
fn blackbox_dump_roundtrips_through_the_checksummed_decoder() {
    let dir = std::env::temp_dir().join(format!("twodprof-http-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let dump = dir.join("blackbox.bin");
    let daemon = Daemon::start(
        Daemon::config()
            .blackbox_path(&dump)
            .build()
            .expect("config"),
    );
    // an aborted session leaves a SessionAbort event in the ring
    let session = connect(&daemon, 8).expect("connect");
    drop(session);
    wait_until("abort recorded", || {
        fetch_blackbox(daemon.addr)
            .map(|events| !events.is_empty())
            .unwrap_or(false)
    });

    let live = fetch_blackbox(daemon.addr).expect("fetch blackbox");
    let path = daemon.handle.dump_blackbox().expect("dump");
    assert_eq!(path, dump);
    let bytes = std::fs::read(&dump).expect("read dump");
    let decoded = twodprof_serve::flight::decode(&bytes).expect("decode dump");
    assert_eq!(
        decoded.iter().map(|e| e.to_string()).collect::<Vec<_>>(),
        live.iter().map(|e| e.to_string()).collect::<Vec<_>>(),
        "the dump and the wire fetch must carry the same ring"
    );
    // a flipped byte must be rejected by the checksum trailer
    let mut torn = bytes.clone();
    let mid = torn.len() / 2;
    torn[mid] ^= 0xFF;
    assert!(
        twodprof_serve::flight::decode(&torn).is_err(),
        "torn dump must not decode"
    );
    std::fs::remove_dir_all(&dir).ok();
}
