//! End-to-end streaming tests: two concurrent sessions drive a
//! phase-changing synthetic workload into one program's shared
//! [`StreamingProfiler`] while a live `watch` subscription collects the
//! drift events the verdict flips raise.

use bpred::PredictorKind;
use btrace::SiteId;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};
use twodprof_core::{Classification, SliceConfig, Thresholds};
use twodprof_serve::wire::{codes, ClientFrame, ServerFrame};
use twodprof_serve::{
    fetch_stats, fetch_verdicts, ClientError, ConnectOptions, Server, ServerConfig, ServerHandle,
    ServerStats, WatchClient,
};
use twodprof_stream::{DriftEvent, StreamConfig};

struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    join: Option<thread::JoinHandle<ServerStats>>,
}

impl Daemon {
    fn start(config: ServerConfig) -> Self {
        let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr");
        let handle = server.handle();
        let join = thread::spawn(move || server.run().expect("server run"));
        Self {
            addr,
            handle,
            join: Some(join),
        }
    }

    fn stop(mut self) -> ServerStats {
        self.handle.shutdown();
        self.join
            .take()
            .expect("not yet stopped")
            .join()
            .expect("server thread")
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

/// Fast-folding stream geometry: 500-event epochs, a 4-slice window,
/// hysteresis 1 so every confirmed flip surfaces immediately.
fn streaming_config() -> ServerConfig {
    ServerConfig::builder()
        .quiet(true)
        .stream(StreamConfig {
            slice: SliceConfig::new(500, 16),
            window: 4,
            hysteresis: 1,
            thresholds: Thresholds::paper(),
            max_lag: 1000,
        })
        .build()
        .expect("config")
}

const NUM_SITES: usize = 4;
const EVENTS_PER_SESSION: u64 = 20_000;
const FLIP_EVERY: u64 = 5_000;

/// Streams the drifting workload: site 0 alternates between an always-taken
/// phase (near-perfect gshare accuracy) and a pseudo-random phase (~50%),
/// the rest stay steadily alternating. `salt` decorrelates the two
/// sessions' random phases. The session connects (registering `program`
/// with the daemon), then parks at `ready` before streaming — sessions are
/// fast enough on loopback to finish before a concurrent subscriber
/// registers, and events published pre-subscription are never replayed.
fn drive_session(addr: SocketAddr, program: &str, salt: u64, ready: &Barrier) {
    let slice = SliceConfig::new(8192, 16);
    let mut session = ConnectOptions::new(NUM_SITES, PredictorKind::Gshare4Kb, slice)
        .program(program)
        .connect(addr)
        .expect("connect with program");
    ready.wait();
    let mut rng = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut batch = Vec::with_capacity(1024);
    for i in 0..EVENTS_PER_SESSION {
        let site = (i % NUM_SITES as u64) as u32;
        let taken = if site == 0 {
            if (i / FLIP_EVERY).is_multiple_of(2) {
                true
            } else {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng & 1 == 1
            }
        } else {
            (i / NUM_SITES as u64).is_multiple_of(2)
        };
        batch.push((SiteId(site), taken));
        if batch.len() == 1024 {
            session.send_events(&batch).expect("send events");
            batch.clear();
            session.flush().expect("flush");
        }
    }
    if !batch.is_empty() {
        session.send_events(&batch).expect("send tail");
    }
    session.finish().expect("finish");
}

#[test]
fn watch_collects_drift_from_concurrent_sessions() {
    let daemon = Daemon::start(streaming_config());
    let addr = daemon.addr;

    // Sessions must exist before a subscription: the program registry entry
    // is created by the first `Hello` naming it. Both sessions park at the
    // barrier after connecting and only stream once the watch below is
    // subscribed, so every drift event is published to a live subscriber.
    let ready = Arc::new(Barrier::new(3));
    let a = {
        let ready = Arc::clone(&ready);
        thread::spawn(move || drive_session(addr, "soak", 1, &ready))
    };
    let b = {
        let ready = Arc::clone(&ready);
        thread::spawn(move || drive_session(addr, "soak", 2, &ready))
    };

    // The subscription may race the first Hello; retry until the program
    // registers.
    let mut watch = loop {
        match WatchClient::connect(addr, "soak") {
            Ok(w) => break w,
            Err(ClientError::Server { code, .. }) if code == codes::BAD_STATE => {
                thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => panic!("watch connect failed: {e}"),
        }
    };
    assert_eq!(watch.snapshot().sites.len(), NUM_SITES);
    assert_eq!(watch.snapshot().slice_len, 500);
    assert_eq!(watch.snapshot().window, 4);
    ready.wait();

    a.join().expect("session a");
    b.join().expect("session b");

    // Sessions are done, so the program's epochs are all folded: the
    // sessionless snapshot must reflect the final state.
    let snap = fetch_verdicts(addr, "soak").expect("verdict snapshot");
    assert_eq!(snap.sites.len(), NUM_SITES);
    assert!(snap.epoch > 0, "epochs must have folded");
    assert!(
        snap.program_accuracy.is_some(),
        "global accuracy must be populated"
    );

    let stats = fetch_stats(addr).expect("stats");
    assert!(
        stats.counter("stream_windows_folded_total").unwrap_or(0) > 0,
        "windows must have folded"
    );
    assert_eq!(
        stats
            .counter("serve_frame_decode_errors_total")
            .unwrap_or(0),
        0,
        "no frame may have failed to decode"
    );
    assert!(
        stats.counter("stream_drift_events_total").unwrap_or(0) > 0,
        "the phase flips must have raised drift events"
    );

    // Shut the daemon down in the background; the watch stream drains and
    // closes, handing us everything published so far.
    let stopper = thread::spawn(move || daemon.stop());
    let mut events = Vec::new();
    while let Some(ev) = watch.next_event().expect("drift frame") {
        events.push(ev);
    }
    stopper.join().expect("daemon stop");

    assert!(
        !events.is_empty(),
        "watch must observe at least one drift event"
    );
    // The steady sites may flip once while gshare warms up; sustained
    // drift can only come from the phase-flipping site.
    assert!(
        events.iter().any(|e| e.site == 0),
        "the phase-flipping site must drift: {events:?}"
    );
    assert!(
        events.iter().all(|e| e.site == 0 || e.epoch < 8),
        "steady sites may only flip during predictor warmup: {events:?}"
    );
    assert!(
        events.iter().all(|e| e.from != e.to),
        "drift events must describe real flips: {events:?}"
    );
}

#[test]
fn subscribe_to_unknown_program_is_rejected() {
    let daemon = Daemon::start(streaming_config());
    match fetch_verdicts(daemon.addr, "nobody") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::BAD_STATE),
        other => panic!("expected BAD_STATE, got {other:?}"),
    }
    match WatchClient::connect(daemon.addr, "nobody") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::BAD_STATE),
        other => panic!("expected BAD_STATE, got {:?}", other.err()),
    }
}

#[test]
fn program_registry_survives_session_end() {
    let daemon = Daemon::start(streaming_config());
    drive_session(daemon.addr, "once", 7, &Barrier::new(1));
    // No live session remains, but the program's final verdicts stay
    // queryable until the daemon exits.
    let snap = fetch_verdicts(daemon.addr, "once").expect("snapshot after end");
    assert!(snap.epoch > 0);
    assert!(snap.sites.iter().any(|s| s.slices > 0));
}

/// A program of 512 sites whose first 256 flip between always-taken and
/// pseudo-random phases every two slices, watched by a raw `watch`
/// connection that never reads.
const FLOOD_SITES: u32 = 512;
const FLOOD_SLICE: u64 = 1024;

/// Serializes the flood tests: each waits for the process-global
/// `serve_subscriber_drops_total` to move, so no two may run at once.
fn flood_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Starts a one-shard daemon configured by `builder`, subscribes a raw
/// watcher that never reads, and streams the flood until the watcher is
/// shed (`serve_subscriber_drops_total` moves). Returns the daemon, the
/// still-open session, the watcher's socket and the events sent.
fn flood_until_shed(
    builder: twodprof_serve::ServerConfigBuilder,
) -> (Daemon, twodprof_serve::RemoteSession, TcpStream, u64) {
    const FLIPPING: u32 = 256;
    const PHASE: u64 = 2 * FLOOD_SLICE;
    const MAX_EVENTS: u64 = 8_000_000;
    let config = builder
        .quiet(true)
        .shards(1)
        .stream(StreamConfig {
            slice: SliceConfig::new(FLOOD_SLICE, 1),
            window: 2,
            hysteresis: 1,
            thresholds: Thresholds::paper(),
            max_lag: 1000,
        })
        .build()
        .expect("config");
    let daemon = Daemon::start(config);
    let mut session = ConnectOptions::new(
        FLOOD_SITES as usize,
        PredictorKind::Gshare4Kb,
        SliceConfig::new(8192, 16),
    )
    .program("flood")
    .connect(daemon.addr)
    .expect("connect with program");
    let mut watcher = TcpStream::connect(daemon.addr).expect("watch connect");
    ClientFrame::Subscribe {
        program: "flood".into(),
        watch: true,
    }
    .write_to(&mut watcher)
    .expect("subscribe");
    watcher.flush().expect("subscribe flush");

    // the in-process daemon counts into this process's registry
    let drops = || {
        twodprof_obs::global()
            .snapshot()
            .counter("serve_subscriber_drops_total")
            .unwrap_or(0)
    };
    let drops_before = drops();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut batch = Vec::with_capacity(FLOOD_SLICE as usize);
    let mut sent = 0u64;
    // one Events frame per slice, each acknowledged, so every publish
    // reaches the shard's inbox in a separate iteration
    while drops() == drops_before {
        assert!(
            sent < MAX_EVENTS,
            "the watcher was not shed after {sent} events"
        );
        for i in sent..sent + FLOOD_SLICE {
            let site = (i % FLOOD_SITES as u64) as u32;
            let taken = if site < FLIPPING && (i / PHASE) % 2 == 1 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng & 1 == 1
            } else {
                true
            };
            batch.push((SiteId(site), taken));
        }
        session.send_events(&batch).expect("send events");
        session.flush().expect("flush");
        batch.clear();
        sent += FLOOD_SLICE;
    }
    assert_eq!(drops(), drops_before + 1, "one watcher, one drop");
    (daemon, session, watcher, sent)
}

/// A `watch` connection that never reads must be shed once its unsent
/// drift outgrows `max_subscriber_queue` frames, not buffered without
/// bound. The shard's reply backlog stays under the bound plus one
/// publish, the kernel buffers hold well under 1 MiB of drift, and the
/// watcher, once it reads, gets its drift in publish order, then `Busy`,
/// then EOF.
#[test]
fn a_watcher_that_never_reads_is_shed_on_its_unsent_drift() {
    let _guard = flood_lock();
    let start = Instant::now();
    let queue = ServerConfig::builder()
        .build()
        .expect("default config")
        .limits
        .max_subscriber_queue;
    let (daemon, session, watcher, sent) = flood_until_shed(ServerConfig::builder());
    let elapsed = start.elapsed();

    // the widest drift frame, and the bound the daemon sheds past
    let mut widest = Vec::new();
    ServerFrame::DriftEvent(
        DriftEvent {
            site: u32::MAX,
            epoch: u64::MAX,
            from: Classification::Insufficient,
            to: Classification::Insufficient,
        }
        .to_bytes(),
    )
    .write_to(&mut widest)
    .expect("vec write");
    let bound = queue * widest.len();
    let one_publish = FLOOD_SITES as usize * widest.len();
    let high_water = fetch_stats(daemon.addr)
        .expect("stats")
        .gauge("serve_shard0_out_buffer_high_water_bytes")
        .expect("shard 0 high water") as usize;
    assert!(
        high_water <= bound + one_publish,
        "backlog reached {high_water} bytes; bound {bound} plus one publish {one_publish}"
    );

    watcher
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(watcher);
    match ServerFrame::read_from(&mut reader).expect("snapshot frame") {
        ServerFrame::VerdictSnapshot(_) => {}
        other => panic!("expected the verdict snapshot, got {other:?}"),
    }
    let mut drift = Vec::new();
    let mut drift_bytes = 0;
    loop {
        match ServerFrame::read_from(&mut reader).expect("drift or busy frame") {
            ServerFrame::DriftEvent(bytes) => {
                drift.push(DriftEvent::from_bytes(&bytes).expect("drift event"));
                let mut frame = Vec::new();
                ServerFrame::DriftEvent(bytes)
                    .write_to(&mut frame)
                    .expect("vec write");
                drift_bytes += frame.len();
            }
            ServerFrame::Busy { .. } => break,
            other => panic!("expected drift or Busy, got {other:?}"),
        }
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after Busy");
    assert!(rest.is_empty(), "{} byte(s) after Busy", rest.len());
    assert!(
        drift.len() > queue,
        "only {} drift frame(s) before Busy",
        drift.len()
    );
    assert!(
        drift.windows(2).all(|w| w[0].epoch <= w[1].epoch),
        "drift frames out of publish order"
    );
    // the watch socket's capped send buffer keeps what the kernels hold
    // for a watcher that never reads near the bound, not megabytes
    assert!(
        drift_bytes < 1 << 20,
        "{drift_bytes} drift byte(s) were buffered for a watcher that never reads"
    );
    eprintln!(
        "shed after {sent} events in {elapsed:.2?}: {} drift frame(s) ({drift_bytes} \
         byte(s)) read, high water {high_water} byte(s), bound {bound}",
        drift.len()
    );
    session.finish().expect("finish");
}

/// A shed watcher is no longer spared by the idle sweep: one that never
/// reads is reaped after `idle_timeout` instead of holding its backlog
/// for the daemon's lifetime.
#[test]
fn a_shed_watcher_that_never_reads_is_reaped() {
    let _guard = flood_lock();
    let idle = Duration::from_millis(300);
    let (daemon, session, watcher, _) =
        flood_until_shed(ServerConfig::builder().idle_timeout(idle));
    drop(session);
    // the watcher never reads: only the idle sweep can close it
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.handle.active_connections() > 0 {
        assert!(Instant::now() < deadline, "the shed watcher was not reaped");
        thread::sleep(Duration::from_millis(10));
    }
    drop(watcher);
}
