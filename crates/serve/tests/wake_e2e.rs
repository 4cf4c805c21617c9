//! Event-driven daemon tests: nothing a client waits on may hang on a
//! timer. A shard sleeps in `poll` until a socket, its inbox or an
//! idle-sweep deadline needs it, and the accept loop until a connection or
//! a shutdown arrives — so an idle daemon costs no loop iterations, and a
//! short session, a compute reply and a shutdown each take about as long
//! as their work.
//!
//! The bounds are generous for a loaded host, yet a loop that polls on a
//! fixed tick misses each of them by a wide margin. Shard iteration counts
//! come from the process-global `serve_shard{i}_tick_micros` histogram,
//! which every daemon in this process shares, so the tests run one at a
//! time.

use bpred::PredictorKind;
use btrace::SiteId;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};
use twodprof_core::SliceConfig;
use twodprof_engine::JobSpec;
use twodprof_serve::wire::{ClientFrame, JobOutcome, ServerFrame};
use twodprof_serve::{
    ComputeConfig, ConnectOptions, RemoteSession, Server, ServerConfig, ServerConfigBuilder,
    ServerHandle, ServerStats, WatchClient,
};
use workloads::Scale;

/// Serializes the tests of this binary (see the module doc).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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

    /// Requests shutdown and returns how long `run()` took to return.
    fn stop(mut self) -> Duration {
        let start = Instant::now();
        self.handle.shutdown();
        self.join
            .take()
            .expect("not yet stopped")
            .join()
            .expect("server thread");
        start.elapsed()
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

fn quiet() -> ServerConfigBuilder {
    ServerConfig::builder().quiet(true)
}

fn connect(addr: SocketAddr, program: &str) -> RemoteSession {
    ConnectOptions::new(4, PredictorKind::Gshare4Kb, SliceConfig::new(64, 4))
        .program(program)
        .connect(addr)
        .expect("connect")
}

/// Loop iterations shard `index` has run so far, across every daemon in
/// this process.
fn shard_iterations(index: usize) -> u64 {
    twodprof_obs::global()
        .snapshot()
        .histogram(&format!("serve_shard{index}_tick_micros"))
        .map_or(0, |h| h.count())
}

/// Shard 0's iterations over `window`, after a short settle.
fn iterations_over(window: Duration) -> u64 {
    thread::sleep(Duration::from_millis(50));
    let before = shard_iterations(0);
    thread::sleep(window);
    shard_iterations(0) - before
}

#[test]
fn an_idle_session_costs_its_shard_no_iterations() {
    let _serial = serial();
    let daemon = Daemon::start(quiet().shards(1).build().expect("config"));
    let mut session = connect(daemon.addr, "");
    session
        .send_events(&[(SiteId(0), true), (SiteId(1), false)])
        .expect("send");
    session.flush().expect("flush");
    let grew = iterations_over(Duration::from_millis(500));
    assert!(
        grew <= 3,
        "shard 0 ran {grew} iterations in 500 ms with one idle session"
    );
    session.finish().expect("finish");
}

#[test]
fn back_to_back_sessions_wait_on_no_timer() {
    let _serial = serial();
    let daemon = Daemon::start(quiet().build().expect("config"));
    let events: Vec<(SiteId, bool)> = (0..64).map(|i| (SiteId(i % 4), i % 3 == 0)).collect();
    let start = Instant::now();
    for _ in 0..50 {
        let mut session = connect(daemon.addr, "");
        session.send_events(&events).expect("send");
        session.finish().expect("finish");
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "50 Hello→Finish sessions took {took:?}"
    );
}

#[test]
fn shutdown_of_an_idle_daemon_returns_at_once() {
    let _serial = serial();
    let mut took: Vec<Duration> = (0..5)
        .map(|_| {
            // the HTTP thread and the sampler must stop promptly too
            let daemon = Daemon::start(quiet().http_addr("127.0.0.1:0").build().expect("config"));
            thread::sleep(Duration::from_millis(30));
            daemon.stop()
        })
        .collect();
    took.sort();
    assert!(
        took.iter().all(|t| *t < Duration::from_millis(100)),
        "shutdown took {took:?}"
    );
    assert!(
        took[2] < Duration::from_millis(10),
        "median shutdown {:?} (all: {took:?})",
        took[2]
    );
}

#[test]
fn an_idle_watcher_is_neither_reaped_nor_polled() {
    let _serial = serial();
    let daemon = Daemon::start(
        quiet()
            .shards(1)
            .idle_timeout(Duration::from_millis(120))
            .build()
            .expect("config"),
    );
    // a session registers the program, then ends
    connect(daemon.addr, "quiet").finish().expect("finish");
    let mut watch = WatchClient::connect(daemon.addr, "quiet").expect("watch");
    let grew = iterations_over(Duration::from_millis(400));
    assert_eq!(
        daemon.handle.active_connections(),
        1,
        "the idle watcher was reaped"
    );
    assert!(
        grew <= 3,
        "shard 0 ran {grew} iterations in 400 ms with one idle watcher"
    );
    // the drain closes the subscription cleanly
    let stopper = thread::spawn(move || daemon.stop());
    assert!(watch.next_event().expect("clean close").is_none());
    stopper.join().expect("stop");
}

#[test]
fn compute_replies_arrive_without_waiting_for_a_tick() {
    let _serial = serial();
    let daemon = Daemon::start(
        quiet()
            .shards(1)
            .compute(ComputeConfig {
                threads: 1,
                cache_dir: None,
            })
            .build()
            .expect("config"),
    );
    let spec = JobSpec::count("gzip", "train", Scale::Tiny);
    let mut chan = TcpStream::connect(daemon.addr).expect("connect");
    chan.set_nodelay(true).expect("nodelay");
    chan.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut round_trip = |job_id: u64| {
        ClientFrame::SubmitJob {
            job_id,
            spec: spec.clone(),
        }
        .write_to(&mut chan)
        .expect("write submit");
        match ServerFrame::read_from(&mut chan).expect("JobResult") {
            ServerFrame::JobResult {
                job_id: id,
                outcome: JobOutcome::Done(_),
            } if id == job_id => {}
            other => panic!("expected JobResult {job_id}, got {other:?}"),
        }
    };
    // the first submission computes; the rest are answered from the
    // node's memo, so each round trip is pure handoff latency
    round_trip(0);
    let start = Instant::now();
    for job_id in 1..=20 {
        round_trip(job_id);
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "20 cached SubmitJob round trips took {took:?}"
    );
}

/// This process's thread names, as the kernel keeps them (15 bytes), once
/// every thread a daemon started has named itself. Until it does, a new
/// thread carries its spawner's name, which is this test thread's own; the
/// daemon's unnamed `run` thread keeps that name for good.
#[cfg(target_os = "linux")]
fn settled_thread_names() -> Vec<String> {
    let read = |path: std::path::PathBuf| {
        std::fs::read_to_string(path).map(|name| name.trim_end().to_owned())
    };
    let own = read("/proc/thread-self/comm".into()).expect("own name");
    let mut names = Vec::new();
    for _ in 0..500 {
        names = std::fs::read_dir("/proc/self/task")
            .expect("task list")
            .filter_map(|task| read(task.ok()?.path().join("comm")).ok())
            .collect();
        if names.iter().filter(|n| **n == own).count() <= 2 {
            return names;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("threads never named themselves: {names:?}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_daemon_with_nothing_to_sample_runs_no_sampler() {
    let _serial = serial();
    let sampled = |config: ServerConfig| {
        let daemon = Daemon::start(config);
        // a finished session proves `run` has started every thread it will
        connect(daemon.addr, "").finish().expect("finish");
        let names = settled_thread_names();
        assert!(
            names.iter().any(|n| n.starts_with("twodprofd-shard")),
            "{names:?}"
        );
        names.iter().any(|n| n == "twodprofd-sampl")
    };
    assert!(!sampled(quiet().build().expect("config")));
    let summary = quiet().stats_interval(Some(Duration::from_secs(3600)));
    assert!(sampled(summary.build().expect("config")));
    let exposed = quiet().http_addr("127.0.0.1:0");
    assert!(sampled(exposed.build().expect("config")));
}
