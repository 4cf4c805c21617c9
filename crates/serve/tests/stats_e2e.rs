//! End-to-end metrics: replay a workload against a live daemon, fetch the
//! `Stats` snapshot over the wire, and check the counters against an
//! independently computed event count.
//!
//! The serve counters are per daemon, but `profiler_events_total` lives in
//! the process-global registry, so this test keeps its own binary (not
//! `e2e.rs`): other daemons running in the same process would fold their
//! traffic into that counter.

use bpred::PredictorKind;
use btrace::CountingTracer;
use std::net::SocketAddr;
use std::thread;
use twodprof_serve::{
    fetch_stats, replay_workload, ReplaySpec, Server, ServerConfig, ServerHandle, ServerStats,
};
use workloads::Scale;

struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    join: Option<thread::JoinHandle<ServerStats>>,
}

impl Daemon {
    fn start() -> Self {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::builder().quiet(true).build().expect("config"),
        )
        .expect("bind ephemeral port");
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

/// The workload's true dynamic branch count, computed without any daemon.
fn independent_event_count(name: &str, input: &str) -> u64 {
    let workload = workloads::by_name(name, Scale::Tiny).expect("workload");
    let input = workload.input_set(input).expect("input");
    let mut counter = CountingTracer::new();
    workload.run(&input, &mut counter);
    counter.count()
}

#[test]
fn stats_counters_match_replayed_event_count() {
    let daemon = Daemon::start();

    // a pre-traffic snapshot must already answer (Stats needs no session)
    let before = fetch_stats(daemon.addr).expect("stats before traffic");
    assert_eq!(before.counter("serve_events_total").unwrap_or(0), 0);

    let expected_events = independent_event_count("gzip", "train");
    assert!(expected_events > 0);

    let spec = ReplaySpec {
        workload: "gzip".to_owned(),
        input: "train".to_owned(),
        scale: Scale::Tiny,
        predictor: PredictorKind::Gshare4Kb,
        batch: 1024,
        slice: None,
        verify: false,
        trace: false,
        program: String::new(),
    };
    let summary = replay_workload(daemon.addr, &spec).expect("replay");
    assert_eq!(summary.events, expected_events);

    let snap = fetch_stats(daemon.addr).expect("stats after traffic");
    assert_eq!(
        snap.counter("serve_events_total"),
        Some(expected_events),
        "daemon-side ingest counter must match the independent count"
    );
    assert_eq!(snap.counter("serve_sessions_opened_total"), Some(1));
    assert_eq!(snap.counter("serve_sessions_finished_total"), Some(1));
    assert_eq!(snap.counter("serve_admit_shed_total").unwrap_or(0), 0);
    // the daemon's profiler layer also saw every event: its per-slice
    // accounting (events counted at slice boundaries, partial fold included)
    // must agree with the wire-level ingest counter
    assert_eq!(
        snap.counter("profiler_events_total"),
        Some(expected_events),
        "profiler slice-boundary accounting must cover every event"
    );
    // exposition text carries the same value
    let text = snap.to_text();
    assert!(text.contains(&format!("serve_events_total {expected_events}")));

    let stats = daemon.stop();
    assert_eq!(stats.events_ingested, expected_events);
    assert_eq!(stats.sessions_finished, 1);
}
