//! End-to-end tests: a real `twodprofd` on an ephemeral loopback port, real
//! client sessions over TCP.
//!
//! The centerpiece is the equivalence test — a workload's branch stream
//! fanned out (via [`btrace::Tee`]) to the daemon and an in-process
//! [`TwoDProfiler`] must produce **bit-identical** serialized reports.

use bpred::PredictorKind;
use btrace::{SiteId, Tracer};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};
use twodprof_core::{SliceConfig, Thresholds, TwoDProfiler};
use twodprof_engine::{Engine, EngineConfig, JobSpec};
use twodprof_serve::wire::{
    codes, AdmissionTier, ClientFrame, Hello, JobOutcome, JobPayload, ServerFrame, PROTOCOL_VERSION,
};
use twodprof_serve::{
    fetch_stats, replay_workload, ClientError, ComputeConfig, ConnectOptions, RemoteSession,
    RemoteTracer, ReplaySpec, Server, ServerConfig, ServerHandle, ServerStats,
};
use workloads::Scale;

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

    fn quiet_config() -> ServerConfig {
        ServerConfig::builder().quiet(true).build().expect("config")
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

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}

/// A deterministic synthetic branch stream, parameterized so concurrent
/// sessions each get a distinct one.
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

/// Opens a session through the builder API (shorthand for the default
/// options every test here wants).
fn connect(
    addr: SocketAddr,
    num_sites: usize,
    predictor: PredictorKind,
    slice: SliceConfig,
) -> Result<RemoteSession, ClientError> {
    ConnectOptions::new(num_sites, predictor, slice).connect(addr)
}

/// Profiles `stream` in-process with the same configuration a remote
/// session would use, returning the serialized report.
fn local_report_bytes(
    stream: &[(SiteId, bool)],
    num_sites: usize,
    predictor: PredictorKind,
    slice: SliceConfig,
) -> Vec<u8> {
    let mut prof = TwoDProfiler::new(num_sites, predictor.build(), slice);
    for &(site, taken) in stream {
        prof.branch(site, taken);
    }
    prof.finish(Thresholds::paper()).to_bytes()
}

#[test]
fn replay_verify_is_bit_identical() {
    let daemon = Daemon::start(Daemon::quiet_config());
    let spec = ReplaySpec {
        workload: "gzip".to_owned(),
        input: "train".to_owned(),
        scale: Scale::Tiny,
        predictor: PredictorKind::Gshare4Kb,
        batch: 1024,
        slice: None,
        verify: true,
        trace: false,
        program: String::new(),
    };
    let summary = replay_workload(daemon.addr, &spec).expect("replay");
    assert!(summary.events > 0, "workload must emit branch events");
    assert_eq!(
        summary.matches(),
        Some(true),
        "remote report must be bit-identical to the in-process run"
    );
    let stats = daemon.stop();
    assert_eq!(stats.sessions_finished, 1);
    assert_eq!(stats.sessions_aborted, 0);
    assert_eq!(stats.events_ingested, summary.events);
}

#[test]
fn concurrent_sessions_are_independent() {
    const SESSIONS: usize = 6;
    const NUM_SITES: usize = 16;
    let daemon = Daemon::start(Daemon::quiet_config());
    let addr = daemon.addr;
    let slice = SliceConfig::new(512, 32);
    let workers: Vec<_> = (0..SESSIONS)
        .map(|i| {
            thread::spawn(move || {
                let stream = synthetic_stream(i as u64 + 1, 40_000, NUM_SITES as u32);
                let mut remote = RemoteTracer::with_batch_size(
                    connect(addr, NUM_SITES, PredictorKind::Gshare4Kb, slice).expect("connect"),
                    // deliberately small batches so sessions interleave
                    257 + i,
                );
                for &(site, taken) in &stream {
                    remote.branch(site, taken);
                }
                let remote = remote.finish().expect("finish").bytes().to_vec();
                let local = local_report_bytes(&stream, NUM_SITES, PredictorKind::Gshare4Kb, slice);
                assert_eq!(remote, local, "session {i} diverged from its local run");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
    let stats = daemon.stop();
    assert_eq!(stats.sessions_finished as usize, SESSIONS);
    assert_eq!(stats.sessions_aborted, 0);
}

#[test]
fn mid_session_disconnect_is_reaped_and_siblings_survive() {
    let daemon = Daemon::start(Daemon::quiet_config());
    let slice = SliceConfig::new(256, 16);

    // sibling A: a long-lived healthy session
    let stream_a = synthetic_stream(7, 20_000, 8);
    let mut sib = RemoteTracer::with_batch_size(
        connect(daemon.addr, 8, PredictorKind::Gshare4Kb, slice).expect("connect"),
        128,
    );
    for &(site, taken) in &stream_a[..10_000] {
        sib.branch(site, taken);
    }

    // session B: streams a bit, then vanishes mid-session
    {
        let mut doomed = connect(daemon.addr, 8, PredictorKind::Gshare4Kb, slice).expect("connect");
        doomed
            .send_events(&synthetic_stream(8, 100, 8))
            .expect("send");
        assert_eq!(doomed.flush().expect("flush"), 100);
    } // dropped here: TCP close with the session still open

    let handle = daemon.handle.clone();
    wait_until("dropped session to be reaped", || {
        handle.stats().sessions_aborted == 1
    });
    assert_eq!(handle.live_sessions(), 1, "only the sibling should remain");

    // the sibling is unaffected: stream the rest and verify equivalence
    for &(site, taken) in &stream_a[10_000..] {
        sib.branch(site, taken);
    }
    let remote = sib.finish().expect("sibling finish").bytes().to_vec();
    assert_eq!(
        remote,
        local_report_bytes(&stream_a, 8, PredictorKind::Gshare4Kb, slice)
    );
    let stats = daemon.stop();
    assert_eq!(stats.sessions_finished, 1);
    assert_eq!(stats.sessions_aborted, 1);
}

#[test]
fn idle_session_is_garbage_collected() {
    let daemon = Daemon::start(
        ServerConfig::builder()
            .idle_timeout(Duration::from_millis(120))
            .quiet(true)
            .build()
            .expect("config"),
    );
    let mut session = connect(
        daemon.addr,
        4,
        PredictorKind::Gshare4Kb,
        SliceConfig::new(64, 4),
    )
    .expect("connect");
    session.send_events(&[(SiteId(0), true)]).expect("send");
    let handle = daemon.handle.clone();
    // go quiet: the GC thread must shut the connection down
    wait_until("idle session to be reaped", || {
        handle.stats().sessions_aborted == 1
    });
    wait_until("connection teardown", || handle.active_connections() == 0);
    assert_eq!(handle.live_sessions(), 0);
    assert!(
        session.flush().is_err(),
        "socket must be dead after the reap"
    );
}

#[test]
fn hello_beyond_session_table_gets_busy() {
    let daemon = Daemon::start(
        ServerConfig::builder()
            .max_sessions(1)
            .quiet(true)
            .build()
            .expect("config"),
    );
    let slice = SliceConfig::new(64, 4);
    let first = connect(daemon.addr, 4, PredictorKind::Gshare4Kb, slice).expect("connect");
    match connect(daemon.addr, 4, PredictorKind::Gshare4Kb, slice) {
        Err(ClientError::Refused { tier, msg, .. }) => {
            assert_eq!(tier, AdmissionTier::Shed);
            assert!(msg.contains("full"), "got {msg:?}");
        }
        Err(other) => panic!("expected Refused, got {other:?}"),
        Ok(_) => panic!("expected Refused, got a session"),
    }
    // finishing the first session frees the slot
    first.finish().expect("finish");
    connect(daemon.addr, 4, PredictorKind::Gshare4Kb, slice)
        .expect("slot must be free again")
        .finish()
        .expect("finish");
}

#[test]
fn event_limit_is_enforced_as_busy_backpressure() {
    let daemon = Daemon::start(
        ServerConfig::builder()
            .max_events_per_session(100)
            .quiet(true)
            .build()
            .expect("config"),
    );
    let mut session = connect(
        daemon.addr,
        8,
        PredictorKind::Gshare4Kb,
        SliceConfig::new(64, 4),
    )
    .expect("connect");
    session
        .send_events(&synthetic_stream(1, 90, 8))
        .expect("within limit");
    // the overflowing batch is refused in whole; seen at the next sync point
    session.send_events(&synthetic_stream(2, 20, 8)).ok();
    match session.flush() {
        Err(ClientError::Refused { msg, .. }) => assert!(msg.contains("limit"), "got {msg:?}"),
        other => panic!("expected Refused, got {other:?}"),
    }
    let handle = daemon.handle.clone();
    wait_until("over-limit session to be dropped", || {
        handle.stats().sessions_aborted == 1
    });
}

#[test]
fn out_of_range_site_is_a_protocol_error() {
    let daemon = Daemon::start(Daemon::quiet_config());
    let mut session = connect(
        daemon.addr,
        4,
        PredictorKind::Gshare4Kb,
        SliceConfig::new(64, 4),
    )
    .expect("connect");
    session.send_events(&[(SiteId(9), true)]).ok();
    match session.flush() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, codes::SITE_RANGE),
        other => panic!("expected SITE_RANGE error, got {other:?}"),
    }
}

#[test]
fn protocol_version_mismatch_is_rejected() {
    let daemon = Daemon::start(Daemon::quiet_config());
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    ClientFrame::Hello(Hello {
        protocol: PROTOCOL_VERSION + 1,
        num_sites: 4,
        predictor: PredictorKind::Gshare4Kb,
        slice_len: 64,
        exec_threshold: 4,
        program: String::new(),
    })
    .write_to(&mut stream)
    .expect("write hello");
    match ServerFrame::read_from(&mut stream).expect("reply") {
        ServerFrame::Error { code, .. } => assert_eq!(code, codes::PROTOCOL),
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn events_before_hello_is_rejected() {
    let daemon = Daemon::start(Daemon::quiet_config());
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    ClientFrame::Events(vec![(0, true)])
        .write_to(&mut stream)
        .expect("write events");
    match ServerFrame::read_from(&mut stream).expect("reply") {
        ServerFrame::Error { code, .. } => assert_eq!(code, codes::BAD_STATE),
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn resim_reports_match_in_process_runs_for_every_predictor() {
    const NUM_SITES: usize = 12;
    let daemon = Daemon::start(Daemon::quiet_config());
    let slice = SliceConfig::new(512, 32);
    let stream = synthetic_stream(11, 30_000, NUM_SITES as u32);
    let mut session =
        connect(daemon.addr, NUM_SITES, PredictorKind::Gshare4Kb, slice).expect("connect");
    session.send_events(&stream[..20_000]).expect("send");
    assert_eq!(session.flush().expect("flush"), 20_000);
    // one streamed session, every predictor re-simulated server-side — each
    // report must be bit-identical to an in-process run over the same prefix
    for kind in PredictorKind::SURVEY {
        let remote = session.resimulate(kind).expect("resim");
        assert_eq!(
            remote.bytes(),
            &local_report_bytes(&stream[..20_000], NUM_SITES, kind, slice)[..],
            "resim under {kind} diverged from the in-process run"
        );
    }
    // the session must still accept events after a resim, and a later resim
    // must cover them
    session.send_events(&stream[20_000..]).expect("send more");
    let remote = session
        .resimulate(PredictorKind::Tage8Kb)
        .expect("resim after more events");
    assert_eq!(
        remote.bytes(),
        &local_report_bytes(&stream, NUM_SITES, PredictorKind::Tage8Kb, slice)[..]
    );
    // Finish still produces the session predictor's own report
    let final_report = session.finish().expect("finish");
    assert_eq!(
        final_report.bytes(),
        &local_report_bytes(&stream, NUM_SITES, PredictorKind::Gshare4Kb, slice)[..]
    );
    let stats = daemon.stop();
    assert_eq!(stats.sessions_finished, 1);
    assert_eq!(stats.sessions_aborted, 0);
    assert_eq!(stats.events_ingested, stream.len() as u64);
}

/// Every predictor a session can name, live: one session per kind, with a
/// streaming program attached and recording on, so each monomorphic
/// ingest loop the daemon builds (predictor step, stream tally and
/// recording together) must match a plain in-process run.
#[test]
fn live_sessions_match_in_process_runs_for_every_predictor() {
    const NUM_SITES: usize = 24;
    let daemon = Daemon::start(Daemon::quiet_config());
    let slice = SliceConfig::new(700, 8);
    let stream = synthetic_stream(23, 12_000, NUM_SITES as u32);
    for kind in PredictorKind::SURVEY {
        let mut session = ConnectOptions::new(NUM_SITES, kind, slice)
            .program("every-kind")
            .connect(daemon.addr)
            .expect("connect");
        // uneven batches, so frames straddle slices and stream epochs
        for batch in stream.chunks(1_537) {
            session.send_events(batch).expect("send");
        }
        let expected = local_report_bytes(&stream, NUM_SITES, kind, slice);
        // a resim succeeds only on a recorded session, and replays what
        // the live loop recorded
        let resim = session
            .resimulate(kind)
            .expect("resim of a recorded session");
        assert_eq!(resim.bytes(), &expected[..], "recording under {kind}");
        let report = session.finish().expect("finish");
        assert_eq!(report.bytes(), &expected[..], "live session under {kind}");
    }
    let stats = daemon.stop();
    assert_eq!(stats.sessions_finished, PredictorKind::SURVEY.len() as u64);
    assert_eq!(stats.sessions_aborted, 0);
    assert_eq!(
        stats.events_ingested,
        (stream.len() * PredictorKind::SURVEY.len()) as u64
    );
}

#[test]
fn resim_without_recording_is_a_state_error() {
    let daemon = Daemon::start(
        ServerConfig::builder()
            .record_sessions(false)
            .quiet(true)
            .build()
            .expect("config"),
    );
    let mut session = connect(
        daemon.addr,
        4,
        PredictorKind::Gshare4Kb,
        SliceConfig::new(64, 4),
    )
    .expect("connect");
    session.send_events(&[(SiteId(0), true)]).expect("send");
    match session.resimulate(PredictorKind::Perceptron16Kb) {
        Err(ClientError::Server { code, msg }) => {
            assert_eq!(code, codes::BAD_STATE);
            assert!(msg.contains("recording"), "got {msg:?}");
        }
        other => panic!("expected BAD_STATE, got {other:?}"),
    }
}

#[test]
fn resim_with_unknown_predictor_id_gets_a_clean_error_frame() {
    let daemon = Daemon::start(Daemon::quiet_config());
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    ClientFrame::Hello(Hello {
        protocol: PROTOCOL_VERSION,
        num_sites: 4,
        predictor: PredictorKind::Gshare4Kb,
        slice_len: 64,
        exec_threshold: 4,
        program: String::new(),
    })
    .write_to(&mut stream)
    .expect("write hello");
    match ServerFrame::read_from(&mut stream).expect("hello reply") {
        ServerFrame::HelloOk { .. } => {}
        other => panic!("expected HelloOk, got {other:?}"),
    }
    // hand-encode a Resim frame naming a predictor this build doesn't have;
    // the typed ClientFrame API can't produce one
    let mut payload = vec![0x06];
    let id = b"not-a-predictor";
    payload.push(id.len() as u8); // single-byte LEB128 length
    payload.extend_from_slice(id);
    btrace::write_frame(&mut stream, &payload).expect("write raw resim");
    // the daemon must answer with an error frame — not hang, and not just
    // drop the connection without a word
    match ServerFrame::read_from(&mut stream).expect("error reply") {
        ServerFrame::Error { code, msg } => {
            assert_eq!(code, codes::BAD_FRAME);
            assert!(msg.contains("predictor"), "got {msg:?}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn resim_on_a_still_open_session_replies_without_closing_it() {
    // a Resim before any events (and long before Finish) must be answered
    // in place, leaving the session open and fully usable afterwards
    let daemon = Daemon::start(Daemon::quiet_config());
    let slice = SliceConfig::new(64, 4);
    let mut session = connect(daemon.addr, 4, PredictorKind::Gshare4Kb, slice).expect("connect");
    let empty = session
        .resimulate(PredictorKind::Perceptron16Kb)
        .expect("resim on an empty still-open session");
    assert_eq!(
        empty.bytes(),
        &local_report_bytes(&[], 4, PredictorKind::Perceptron16Kb, slice)[..]
    );
    // the session survived: stream events and finish normally
    let stream = synthetic_stream(21, 5_000, 4);
    session.send_events(&stream).expect("send after resim");
    let report = session.finish().expect("finish after resim");
    assert_eq!(
        report.bytes(),
        &local_report_bytes(&stream, 4, PredictorKind::Gshare4Kb, slice)[..]
    );
    let stats = daemon.stop();
    assert_eq!(stats.sessions_finished, 1);
    assert_eq!(stats.sessions_aborted, 0);
}

#[test]
fn resim_before_hello_is_a_state_error() {
    let daemon = Daemon::start(Daemon::quiet_config());
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    ClientFrame::Resim(PredictorKind::Gshare4Kb)
        .write_to(&mut stream)
        .expect("write resim");
    match ServerFrame::read_from(&mut stream).expect("reply") {
        ServerFrame::Error { code, .. } => assert_eq!(code, codes::BAD_STATE),
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn graceful_shutdown_finishes_in_flight_sessions() {
    let daemon = Daemon::start(Daemon::quiet_config());
    let slice = SliceConfig::new(256, 16);
    let stream = synthetic_stream(3, 10_000, 8);
    let mut remote = RemoteTracer::with_batch_size(
        connect(daemon.addr, 8, PredictorKind::Gshare4Kb, slice).expect("connect"),
        512,
    );
    for &(site, taken) in &stream[..5_000] {
        remote.branch(site, taken);
    }
    // request shutdown mid-stream; the in-flight session must still be able
    // to run to Finish and get its report during the drain window
    daemon.handle.shutdown();
    thread::sleep(Duration::from_millis(50));
    for &(site, taken) in &stream[5_000..] {
        remote.branch(site, taken);
    }
    let remote = remote.finish().expect("drain must let the session finish");
    assert_eq!(
        remote.bytes(),
        &local_report_bytes(&stream, 8, PredictorKind::Gshare4Kb, slice)[..]
    );
    let stats = daemon.stop();
    assert_eq!(stats.sessions_finished, 1);
    assert_eq!(stats.sessions_aborted, 0);
}

#[test]
fn new_sessions_are_refused_while_draining() {
    // shutdown with one session still open keeps run() in its drain loop;
    // admission must answer Busy rather than open fresh sessions
    let daemon = Daemon::start(
        ServerConfig::builder()
            .drain_timeout(Duration::from_secs(30))
            .quiet(true)
            .build()
            .expect("config"),
    );
    let slice = SliceConfig::new(64, 4);
    let held = connect(daemon.addr, 4, PredictorKind::Gshare4Kb, slice).expect("connect");
    daemon.handle.shutdown();
    thread::sleep(Duration::from_millis(50));
    // the kernel may still complete the TCP handshake (listen backlog), but
    // no new session may be admitted once shutdown has been requested: the
    // Hello either gets a Busy reply or no reply at all — never HelloOk
    if let Ok(mut stream) = TcpStream::connect(daemon.addr) {
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("read timeout");
        ClientFrame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            num_sites: 4,
            predictor: PredictorKind::Gshare4Kb,
            slice_len: 64,
            exec_threshold: 4,
            program: String::new(),
        })
        .write_to(&mut stream)
        .expect("write hello");
        if let Ok(ServerFrame::HelloOk { .. }) = ServerFrame::read_from(&mut stream) {
            panic!("daemon admitted a session while draining");
        }
    }
    held.finish().expect("held session finishes during drain");
    let stats = daemon.stop();
    assert_eq!(stats.sessions_finished, 1);
}

#[test]
fn busy_refusal_carries_tier_and_retry_after() {
    let daemon = Daemon::start(
        ServerConfig::builder()
            .max_sessions(1)
            .retry_after(Duration::from_millis(250))
            .quiet(true)
            .build()
            .expect("config"),
    );
    let slice = SliceConfig::new(64, 4);
    let first = connect(daemon.addr, 4, PredictorKind::Gshare4Kb, slice).expect("connect");
    match connect(daemon.addr, 4, PredictorKind::Gshare4Kb, slice) {
        Err(ClientError::Refused {
            tier,
            msg,
            retry_after,
        }) => {
            assert_eq!(tier, AdmissionTier::Shed);
            assert!(msg.contains("full"), "got {msg:?}");
            assert_eq!(retry_after, Duration::from_millis(250));
        }
        Err(other) => panic!("expected Refused with retry-after, got {other:?}"),
        Ok(_) => panic!("expected Refused with retry-after, got a session"),
    }
    first.finish().expect("finish");
}

#[test]
fn memory_pressure_degrades_admission_and_disables_recording() {
    // one shard with a 64 KiB recording budget and spilling disabled up to
    // that budget: a heavy session pushes resident bytes past budget/2
    // (20k events record at ~1.1 bytes each, landing between budget/2 and
    // the spill threshold), so the next Hello is admitted degraded
    // (streaming works, Resim doesn't)
    let daemon = Daemon::start(
        ServerConfig::builder()
            .shards(1)
            .shard_memory_budget(64 << 10)
            .spill_threshold(64 << 10)
            .quiet(true)
            .build()
            .expect("config"),
    );
    let slice = SliceConfig::new(512, 32);
    let stream = synthetic_stream(5, 20_000, 8);
    let mut heavy = connect(daemon.addr, 8, PredictorKind::Gshare4Kb, slice).expect("connect");
    assert_eq!(heavy.admission_tier(), AdmissionTier::Accept);
    heavy.send_events(&stream).expect("send");
    assert_eq!(heavy.flush().expect("flush"), stream.len() as u64);

    let mut degraded = connect(daemon.addr, 8, PredictorKind::Gshare4Kb, slice)
        .expect("degraded sessions are still admitted");
    assert_eq!(degraded.admission_tier(), AdmissionTier::Degrade);
    degraded
        .send_events(&synthetic_stream(6, 500, 8))
        .expect("degraded sessions still stream");
    match degraded.resimulate(PredictorKind::Tage8Kb) {
        Err(ClientError::Server { code, msg }) => {
            assert_eq!(code, codes::BAD_STATE);
            assert!(msg.contains("degraded"), "got {msg:?}");
        }
        other => panic!("expected BAD_STATE, got {other:?}"),
    }
    drop(degraded);

    // the heavy session is untouched: its verdicts stay bit-identical
    let report = heavy.finish().expect("finish");
    assert_eq!(
        report.bytes(),
        &local_report_bytes(&stream, 8, PredictorKind::Gshare4Kb, slice)[..]
    );
}

#[test]
fn spilled_recording_resims_bit_identical() {
    const NUM_SITES: usize = 8;
    let daemon = Daemon::start(
        ServerConfig::builder()
            .shards(1)
            .spill_threshold(4 << 10)
            .quiet(true)
            .build()
            .expect("config"),
    );
    let slice = SliceConfig::new(512, 32);
    let stream = synthetic_stream(9, 60_000, NUM_SITES as u32);
    let mut session =
        connect(daemon.addr, NUM_SITES, PredictorKind::Gshare4Kb, slice).expect("connect");
    session.send_events(&stream).expect("send");
    // a 4 KiB threshold forces the recording through multiple on-disk
    // segments; replaying them must reproduce the exact event order
    let remote = session
        .resimulate(PredictorKind::Tage8Kb)
        .expect("resim over spilled segments");
    assert_eq!(
        remote.bytes(),
        &local_report_bytes(&stream, NUM_SITES, PredictorKind::Tage8Kb, slice)[..],
        "resim over spilled segments diverged from the in-process run"
    );
    let snap = fetch_stats(daemon.addr).expect("stats");
    let spilled = snap
        .counters
        .iter()
        .find(|(name, _, _)| name == "serve_spill_segments_total")
        .map(|(_, _, v)| *v)
        .unwrap_or(0);
    assert!(
        spilled > 0,
        "tiny threshold must have produced spill segments"
    );
    let report = session.finish().expect("finish");
    assert_eq!(
        report.bytes(),
        &local_report_bytes(&stream, NUM_SITES, PredictorKind::Gshare4Kb, slice)[..]
    );
}

/// A one-shard daemon running the fabric compute service on one worker,
/// so compute connections and ingest sessions share a single shard loop.
fn compute_daemon(idle_timeout: Duration) -> Daemon {
    Daemon::start(
        ServerConfig::builder()
            .shards(1)
            .idle_timeout(idle_timeout)
            .compute(ComputeConfig {
                threads: 1,
                cache_dir: None,
            })
            .quiet(true)
            .build()
            .expect("config"),
    )
}

/// The payload bytes a local engine produces for `spec`.
fn local_payload(spec: &JobSpec) -> Vec<u8> {
    Engine::new(EngineConfig::default())
        .run_one(spec)
        .output
        .expect("local job output")
        .to_payload()
}

/// Unwraps a successful `JobResult` for `job_id` into its payload.
fn job_payload(frame: ServerFrame, job_id: u64) -> JobPayload {
    match frame {
        ServerFrame::JobResult {
            job_id: id,
            outcome: JobOutcome::Done(payload),
        } if id == job_id => payload,
        other => panic!("expected JobResult {job_id}, got {other:?}"),
    }
}

#[test]
fn compute_channel_pipelines_job_frames_beside_an_ingest_session() {
    const NUM_SITES: usize = 16;
    let daemon = compute_daemon(Duration::from_secs(30));
    let spec = JobSpec::two_d("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb);
    let mut chan = TcpStream::connect(daemon.addr).expect("connect");
    // one write of three pipelined frames
    let mut pipelined = Vec::new();
    for frame in [
        ClientFrame::SubmitJob {
            job_id: 1,
            spec: spec.clone(),
        },
        ClientFrame::Stats,
        ClientFrame::Blackbox,
    ] {
        frame.write_to(&mut pipelined).expect("encode");
    }
    std::io::Write::write_all(&mut chan, &pipelined).expect("write job frames");

    // meanwhile an ingest session runs to Finish on the same shard
    let slice = SliceConfig::new(512, 32);
    let stream = synthetic_stream(21, 30_000, NUM_SITES as u32);
    let mut remote = RemoteTracer::with_batch_size(
        connect(daemon.addr, NUM_SITES, PredictorKind::Gshare4Kb, slice).expect("connect"),
        1000,
    );
    for &(site, taken) in &stream {
        remote.branch(site, taken);
    }
    assert_eq!(
        remote.finish().expect("finish").bytes(),
        &local_report_bytes(&stream, NUM_SITES, PredictorKind::Gshare4Kb, slice)[..],
        "ingest session beside a compute channel diverged from its local run"
    );

    // every job frame is answered; the JobResult may land anywhere
    let (mut job, mut stats, mut blackbox) = (None, false, false);
    for _ in 0..3 {
        match ServerFrame::read_from(&mut chan).expect("reply") {
            frame @ ServerFrame::JobResult { .. } => job = Some(job_payload(frame, 1)),
            ServerFrame::StatsReply(_) => stats = true,
            ServerFrame::BlackboxReply(_) => blackbox = true,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(stats && blackbox, "Stats and Blackbox must be answered");
    let job = job.expect("JobResult");
    assert!(!job.cached, "a cold daemon must compute the job");
    let expected = local_payload(&spec);
    assert_eq!(job.bytes, expected);

    // a second submission of the finished job answers from the cache tier
    ClientFrame::SubmitJob { job_id: 2, spec }
        .write_to(&mut chan)
        .expect("write second submit");
    let again = job_payload(ServerFrame::read_from(&mut chan).expect("reply"), 2);
    assert!(again.cached, "a finished job must come back cached");
    assert_eq!(again.bytes, expected);
    drop(chan);
    let stats = daemon.stop();
    assert_eq!(stats.sessions_finished, 1);
    assert_eq!(stats.sessions_aborted, 0);
}

#[test]
fn job_frames_are_refused_outside_a_compute_channel() {
    let spec = JobSpec::count("gzip", "train", Scale::Tiny);
    let expect_bad_state =
        |stream: &mut TcpStream, what: &str| match ServerFrame::read_from(stream).expect("reply") {
            ServerFrame::Error { code, msg } => {
                assert_eq!(code, codes::BAD_STATE, "{what}: {msg}");
                assert!(msg.contains(what), "{what}: {msg}");
            }
            other => panic!("{what}: expected Error, got {other:?}"),
        };

    // a session frame after a job frame
    let daemon = compute_daemon(Duration::from_secs(30));
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    ClientFrame::SubmitJob {
        job_id: 1,
        spec: spec.clone(),
    }
    .write_to(&mut stream)
    .expect("write submit");
    job_payload(ServerFrame::read_from(&mut stream).expect("reply"), 1);
    ClientFrame::Hello(Hello {
        protocol: PROTOCOL_VERSION,
        num_sites: 4,
        predictor: PredictorKind::Gshare4Kb,
        slice_len: 64,
        exec_threshold: 4,
        program: String::new(),
    })
    .write_to(&mut stream)
    .expect("write hello");
    expect_bad_state(&mut stream, "not allowed on a compute channel");
    drop(daemon);

    // a job frame on a daemon without the compute service
    let daemon = Daemon::start(Daemon::quiet_config());
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    ClientFrame::SubmitJob { job_id: 1, spec }
        .write_to(&mut stream)
        .expect("write submit");
    expect_bad_state(&mut stream, "compute service is disabled");
}

#[test]
fn compute_channel_outlives_idle_timeout_while_a_job_runs() {
    let idle = Duration::from_millis(20);
    // a job that runs far past the idle timeout on this machine: time it
    // locally first, escalating until one is slow enough. The last
    // candidate, TAGE at full scale, has no fast path in the engine, so it
    // stays slow in an optimized build.
    let candidates = [
        (Scale::Small, PredictorKind::Perceptron16Kb),
        (Scale::Full, PredictorKind::Perceptron16Kb),
        (Scale::Full, PredictorKind::Tage8Kb),
    ];
    let last = candidates.len() - 1;
    let (spec, expected) = candidates
        .into_iter()
        .enumerate()
        .map(|(i, (scale, kind))| {
            let spec = JobSpec::two_d("gcc", "train", scale, kind);
            let start = Instant::now();
            let bytes = local_payload(&spec);
            (i, spec, bytes, start.elapsed())
        })
        .find(|(i, _, _, took)| *took >= idle * 20 || *i == last)
        .map(|(_, spec, bytes, _)| (spec, bytes))
        .expect("the last candidate always qualifies");
    let daemon = compute_daemon(idle);
    let mut chan = TcpStream::connect(daemon.addr).expect("connect");
    chan.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let start = Instant::now();
    ClientFrame::SubmitJob {
        job_id: 7,
        spec: spec.clone(),
    }
    .write_to(&mut chan)
    .expect("write submit");
    let frame = ServerFrame::read_from(&mut chan).expect("JobResult, not EOF");
    let took = start.elapsed();
    assert!(
        took >= idle * 10,
        "the job must outlast the idle timeout tenfold to test anything ({took:?})"
    );
    assert_eq!(job_payload(frame, 7).bytes, expected);

    // with nothing outstanding the idle sweep reaps the connection again
    let err = ServerFrame::read_from(&mut chan).expect_err("reaped connection");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    let handle = daemon.handle.clone();
    wait_until("connection teardown", || handle.active_connections() == 0);
}

/// A frame's reply as the role × frame table pins it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Reply {
    Nothing,
    Frame(&'static str),
    Error(u64),
}

/// What a connection does after the frame's reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum After {
    /// Still answers frames: the `Stats` sent behind the frame is answered.
    Open,
    /// Still open but ignores the client's bytes: a watcher.
    Silent,
    /// The daemon closes it once the reply is sent.
    Closed,
}

fn reply_of(frame: &ServerFrame) -> Reply {
    let name = match frame {
        ServerFrame::Error { code, .. } => return Reply::Error(*code),
        ServerFrame::HelloOk { .. } => "HelloOk",
        ServerFrame::Ack { .. } => "Ack",
        ServerFrame::Busy { .. } => "Busy",
        ServerFrame::Report(_) => "Report",
        ServerFrame::StatsReply(_) => "StatsReply",
        ServerFrame::TraceAck { .. } => "TraceAck",
        ServerFrame::TraceSpans(_) => "TraceSpans",
        ServerFrame::VerdictSnapshot(_) => "VerdictSnapshot",
        ServerFrame::DriftEvent(_) => "DriftEvent",
        ServerFrame::JobResult { .. } => "JobResult",
        ServerFrame::BlackboxReply(_) => "BlackboxReply",
    };
    Reply::Frame(name)
}

/// Every `ClientFrame` kind (a watch `Subscribe` apart from a plain one),
/// and one whole frame that fails to decode, sent on each connection role
/// of a compute daemon: the reply's kind or error code and whether the
/// connection stays open are pinned per pair.
/// The frame goes out in one write with a `Stats` behind it, which an
/// open connection answers and a closing one never reads.
#[test]
fn every_frame_on_every_role_gets_its_pinned_reply() {
    use After::{Closed, Open, Silent};
    use Reply::{Error, Frame, Nothing};
    const BAD: Reply = Error(codes::BAD_STATE);
    const MALFORMED: Reply = Error(codes::BAD_FRAME);
    const PROGRAM: &str = "roles";
    let daemon = compute_daemon(Duration::from_secs(30));
    let slice = SliceConfig::new(64, 4);
    let job = JobSpec::count("gzip", "train", Scale::Tiny);
    let hello = Hello {
        protocol: PROTOCOL_VERSION,
        num_sites: 4,
        predictor: PredictorKind::Gshare4Kb,
        slice_len: 64,
        exec_threshold: 4,
        program: String::new(),
    };
    // register the program the Subscribe frames name
    let mut seed = ConnectOptions::new(4, PredictorKind::Gshare4Kb, slice)
        .program(PROGRAM)
        .connect(daemon.addr)
        .expect("connect with program");
    seed.send_events(&synthetic_stream(31, 1_000, 4))
        .expect("send");
    seed.finish().expect("finish");

    let encode = |frame: ClientFrame| {
        let mut bytes = Vec::new();
        frame.write_to(&mut bytes).expect("encode");
        bytes
    };
    let frames: [(&str, Vec<u8>); 13] = [
        ("Hello", encode(ClientFrame::Hello(hello.clone()))),
        (
            "Events",
            encode(ClientFrame::Events(vec![(0, true), (3, false)])),
        ),
        ("Flush", encode(ClientFrame::Flush)),
        ("Finish", encode(ClientFrame::Finish)),
        ("Stats", encode(ClientFrame::Stats)),
        (
            "Resim",
            encode(ClientFrame::Resim(PredictorKind::Bimodal1Kb)),
        ),
        (
            "TraceCtx",
            encode(ClientFrame::TraceCtx {
                trace: 0x5eed,
                parent: 7,
            }),
        ),
        (
            "TraceExport",
            encode(ClientFrame::TraceExport { trace: 0x5eed }),
        ),
        (
            "Subscribe",
            encode(ClientFrame::Subscribe {
                program: PROGRAM.into(),
                watch: false,
            }),
        ),
        (
            "Subscribe watch",
            encode(ClientFrame::Subscribe {
                program: PROGRAM.into(),
                watch: true,
            }),
        ),
        (
            "SubmitJob",
            encode(ClientFrame::SubmitJob {
                job_id: 9,
                spec: job.clone(),
            }),
        ),
        ("Blackbox", encode(ClientFrame::Blackbox)),
        // a whole frame whose 2-byte Hello body stops short of its fields
        ("short Hello", vec![0x02, 0x01, 0x02]),
    ];
    // per frame: on a Fresh, Session, Watch and Compute connection
    let table: [[(Reply, After); 4]; 13] = [
        [
            (Frame("HelloOk"), Open),
            (BAD, Closed),
            (Nothing, Silent),
            (BAD, Closed),
        ],
        [
            (BAD, Closed),
            (Nothing, Open),
            (Nothing, Silent),
            (BAD, Closed),
        ],
        [
            (BAD, Closed),
            (Frame("Ack"), Open),
            (Nothing, Silent),
            (BAD, Closed),
        ],
        [
            (BAD, Closed),
            (Frame("Report"), Closed),
            (Nothing, Silent),
            (BAD, Closed),
        ],
        [
            (Frame("StatsReply"), Open),
            (Frame("StatsReply"), Open),
            (Nothing, Silent),
            (Frame("StatsReply"), Open),
        ],
        [
            (BAD, Closed),
            (Frame("Report"), Open),
            (Nothing, Silent),
            (BAD, Closed),
        ],
        [
            (Frame("TraceAck"), Open),
            (Frame("TraceAck"), Open),
            (Nothing, Silent),
            (BAD, Closed),
        ],
        [
            (Frame("TraceSpans"), Open),
            (Frame("TraceSpans"), Open),
            (Nothing, Silent),
            (BAD, Closed),
        ],
        [
            (Frame("VerdictSnapshot"), Open),
            (Frame("VerdictSnapshot"), Open),
            (Nothing, Silent),
            (BAD, Closed),
        ],
        [
            (Frame("VerdictSnapshot"), Silent),
            (BAD, Closed),
            (Nothing, Silent),
            (BAD, Closed),
        ],
        [
            (Frame("JobResult"), Open),
            (BAD, Closed),
            (Nothing, Silent),
            (Frame("JobResult"), Open),
        ],
        [
            (Frame("BlackboxReply"), Open),
            (Frame("BlackboxReply"), Open),
            (Nothing, Silent),
            (Frame("BlackboxReply"), Open),
        ],
        [
            (MALFORMED, Closed),
            (MALFORMED, Closed),
            (Nothing, Silent),
            (MALFORMED, Closed),
        ],
    ];
    // the frame that gives a connection each role, and the reply it gets
    let roles: [(&str, Option<ClientFrame>, Reply); 4] = [
        ("Fresh", None, Nothing),
        ("Session", Some(ClientFrame::Hello(hello)), Frame("HelloOk")),
        (
            "Watch",
            Some(ClientFrame::Subscribe {
                program: PROGRAM.into(),
                watch: true,
            }),
            Frame("VerdictSnapshot"),
        ),
        (
            "Compute",
            Some(ClientFrame::SubmitJob {
                job_id: 1,
                spec: job,
            }),
            Frame("JobResult"),
        ),
    ];

    for ((name, frame), row) in frames.iter().zip(&table) {
        for ((role, setup, setup_reply), &(reply, after)) in roles.iter().zip(row) {
            let what = format!("{name} on a {role} connection");
            let mut conn = TcpStream::connect(daemon.addr).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            if let Some(setup) = setup {
                setup.write_to(&mut conn).expect("write role frame");
                let got = ServerFrame::read_from(&mut conn).expect("role reply");
                assert_eq!(reply_of(&got), *setup_reply, "{what}: role setup");
            }
            let mut bytes = frame.clone();
            ClientFrame::Stats.write_to(&mut bytes).expect("encode");
            std::io::Write::write_all(&mut conn, &bytes).expect("write frames");

            // an open connection answers the frame and the Stats behind
            // it, in either order: a JobResult comes from a worker
            let mut want = vec![reply];
            if after == Open {
                want.push(Frame("StatsReply"));
            }
            want.retain(|r| *r != Nothing);
            let mut got = want
                .iter()
                .map(|_| reply_of(&ServerFrame::read_from(&mut conn).expect(&what)))
                .collect::<Vec<_>>();
            want.sort();
            got.sort();
            assert_eq!(got, want, "{what}: replies");
            match after {
                Open => {}
                Closed => {
                    let err = ServerFrame::read_from(&mut conn).expect_err(&what);
                    assert!(
                        matches!(
                            err.kind(),
                            std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
                        ),
                        "{what}: expected the connection closed, got {err}"
                    );
                }
                Silent => {
                    conn.set_read_timeout(Some(Duration::from_millis(200)))
                        .expect("read timeout");
                    let err = ServerFrame::read_from(&mut conn).expect_err(&what);
                    assert!(
                        matches!(
                            err.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ),
                        "{what}: expected an open, silent connection, got {err}"
                    );
                }
            }
        }
    }
    let stats = daemon.stop();
    assert_eq!(
        stats.sessions_aborted + stats.sessions_finished,
        stats.sessions_opened
    );
}

/// How the session-outcome test ends a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ending {
    Finish,
    Disconnect,
    EventLimit,
    BadFrame,
    IdleReap,
}

/// Opens a raw session connection: `Hello`, then its `HelloOk`.
fn raw_session(addr: SocketAddr, num_sites: u32, program: &str) -> TcpStream {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    ClientFrame::Hello(Hello {
        protocol: PROTOCOL_VERSION,
        num_sites,
        predictor: PredictorKind::Gshare4Kb,
        slice_len: 512,
        exec_threshold: 32,
        program: program.to_owned(),
    })
    .write_to(&mut conn)
    .expect("write hello");
    match ServerFrame::read_from(&mut conn).expect("hello reply") {
        ServerFrame::HelloOk { .. } => conn,
        other => panic!("expected HelloOk, got {other:?}"),
    }
}

/// Every way a session can end, in a seeded order, with recordings that
/// spill and half the sessions joined to a program: afterwards every
/// admitted session is counted exactly once, and no slot, resident or
/// spilled byte, or spill file is left behind. The last session is
/// force-closed by a shutdown whose drain times out.
#[test]
fn every_session_ending_is_counted_once_and_leaves_nothing_behind() {
    const SEED: u64 = 0x0dd5_eed5;
    const NUM_SITES: u32 = 8;
    const LIMIT: u64 = 40_000;
    let spill_dir = std::env::temp_dir().join(format!("twodprof-outcomes-{}", std::process::id()));
    let daemon = Daemon::start(
        ServerConfig::builder()
            .shards(2)
            .spill_threshold(4 << 10)
            .spill_dir(&spill_dir)
            .max_events_per_session(LIMIT)
            .idle_timeout(Duration::from_millis(500))
            .drain_timeout(Duration::from_millis(50))
            .quiet(true)
            .build()
            .expect("config"),
    );
    let handle = daemon.handle.clone();
    let mut rng = SEED;
    let mut next = move |bound: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % bound
    };
    let mut endings = [
        Ending::Finish,
        Ending::Disconnect,
        Ending::EventLimit,
        Ending::BadFrame,
        Ending::IdleReap,
    ]
    .repeat(2);
    for i in (1..endings.len()).rev() {
        endings.swap(i, next(i as u64 + 1) as usize);
    }

    let (mut finished, mut aborted) = (0, 0);
    let stream_for = |conn: &mut TcpStream, salt: u64, len: usize| {
        for chunk in synthetic_stream(salt, len, NUM_SITES).chunks(1000) {
            let events = chunk.iter().map(|&(site, taken)| (site.0, taken)).collect();
            ClientFrame::Events(events)
                .write_to(conn)
                .expect("write events");
        }
    };
    let flush = |conn: &mut TcpStream, what: &str| match ServerFrame::read_from(conn) {
        Ok(ServerFrame::Ack { .. }) => {}
        other => panic!("{what}: expected Ack, got {other:?}"),
    };
    for (i, &ending) in endings.iter().enumerate() {
        let what = format!("seed {SEED:#x}, session {i} ({ending:?})");
        let program = if i % 2 == 0 { "outcomes" } else { "" };
        let mut conn = raw_session(daemon.addr, NUM_SITES, program);
        let len = 5_000 + next(25_000) as usize;
        stream_for(&mut conn, SEED + i as u64, len);
        match ending {
            Ending::Finish => {
                ClientFrame::Finish.write_to(&mut conn).expect("finish");
                match ServerFrame::read_from(&mut conn) {
                    Ok(ServerFrame::Report(_)) => finished += 1,
                    other => panic!("{what}: expected Report, got {other:?}"),
                }
            }
            Ending::Disconnect => {
                ClientFrame::Flush.write_to(&mut conn).expect("flush");
                flush(&mut conn, &what);
                drop(conn);
                aborted += 1;
            }
            Ending::EventLimit => {
                // one frame, read whole before it is refused
                ClientFrame::Events(vec![(0, true); LIMIT as usize])
                    .write_to(&mut conn)
                    .expect("write events");
                match ServerFrame::read_from(&mut conn) {
                    Ok(ServerFrame::Busy { msg, .. }) => assert!(msg.contains("limit"), "{msg}"),
                    other => panic!("{what}: expected Busy, got {other:?}"),
                }
                aborted += 1;
            }
            Ending::BadFrame => {
                // one frame with a tag no client frame has
                std::io::Write::write_all(&mut conn, &[1, 0x7f]).expect("write bad frame");
                match ServerFrame::read_from(&mut conn) {
                    Ok(ServerFrame::Error { code, .. }) => assert_eq!(code, codes::BAD_FRAME),
                    other => panic!("{what}: expected BAD_FRAME, got {other:?}"),
                }
                aborted += 1;
            }
            Ending::IdleReap => {
                ClientFrame::Flush.write_to(&mut conn).expect("flush");
                flush(&mut conn, &what);
                aborted += 1;
                wait_until("idle reap", || handle.stats().sessions_aborted == aborted);
                let err = ServerFrame::read_from(&mut conn).expect_err(&what);
                assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{what}");
            }
        }
        wait_until(&what, || {
            let stats = handle.stats();
            (stats.sessions_finished, stats.sessions_aborted) == (finished, aborted)
        });
    }

    // the last session spills and is force-closed by the drain
    let mut held = raw_session(daemon.addr, NUM_SITES, "outcomes");
    stream_for(&mut held, SEED, 30_000);
    ClientFrame::Flush.write_to(&mut held).expect("flush");
    flush(&mut held, "held session");
    let spilled = std::fs::read_dir(&spill_dir).map_or(0, |dir| dir.count());
    assert!(spilled > 0, "the held session must have spilled");
    let stats = daemon.stop();
    assert_eq!(stats.sessions_opened, endings.len() as u64 + 1);
    assert_eq!(stats.sessions_finished, finished);
    assert_eq!(
        stats.sessions_aborted,
        aborted + 1,
        "the forced close aborts"
    );
    assert_eq!(
        stats.sessions_opened,
        stats.sessions_finished + stats.sessions_aborted
    );

    let snap = handle.snapshot();
    assert_eq!(snap.gauge("serve_live_sessions"), Some(0));
    for shard in 0..2 {
        for level in ["sessions", "resident_bytes", "spilled_bytes"] {
            let name = format!("serve_shard{shard}_{level}");
            assert_eq!(snap.gauge(&name), Some(0), "{name}");
        }
    }
    let left: Vec<_> = std::fs::read_dir(&spill_dir)
        .map(|dir| dir.map(|e| e.expect("entry").path()).collect())
        .unwrap_or_default();
    assert!(
        left.is_empty(),
        "spill files outlived their sessions: {left:?}"
    );
    let _ = std::fs::remove_dir_all(&spill_dir);
    drop(held);
}
