//! Subprocess end-to-end test for span tracing: a real `twodprofd` process,
//! a real `twodprof-client replay --trace-out` run against it, and
//! assertions over the stitched Chrome trace the client writes.
//!
//! This is the acceptance path for trace propagation: the exported file
//! must hold client-side spans (pid 1) and daemon-side spans (pid 2) under
//! one shared trace id, with every daemon span inside the client's
//! `client.replay` request window.
//!
//! The same spawn helper also checks that a daemon started with
//! `TWODPROF_METRICS=off` still answers `Stats` with its own session
//! counters and shard rows: those are daemon values, not registry metrics.

use std::fs;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use twodprof_serve::{TRACE_PID_CLIENT, TRACE_PID_DAEMON};

struct DaemonProc {
    child: Child,
    addr: String,
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twodprof-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Starts `twodprofd` on an ephemeral port with `env` set on top of the
/// inherited environment, and waits for it to write its address.
fn spawn_daemon(dir: &std::path::Path, env: &[(&str, &str)]) -> DaemonProc {
    let addr_file = dir.join("addr");
    let child = Command::new(env!("CARGO_BIN_EXE_twodprofd"))
        .envs(env.iter().copied())
        .args([
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().expect("utf-8 path"),
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn twodprofd");
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(s) = fs::read_to_string(&addr_file) {
            if !s.trim().is_empty() {
                break s.trim().to_owned();
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for twodprofd to write its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    DaemonProc { child, addr }
}

#[test]
fn replay_trace_out_stitches_client_and_daemon_spans() {
    let dir = scratch_dir("trace-e2e");
    let daemon = spawn_daemon(&dir, &[]);
    let trace_path = dir.join("trace.json");

    let output = Command::new(env!("CARGO_BIN_EXE_twodprof-client"))
        .args([
            "replay",
            "gzip",
            "train",
            "--scale",
            "tiny",
            "--addr",
            &daemon.addr,
            "--trace-out",
            trace_path.to_str().expect("utf-8 path"),
        ])
        // explicit, so an environment override can't turn tracing off
        .env("TWODPROF_TRACE", "on")
        .output()
        .expect("run twodprof-client");
    assert!(
        output.status.success(),
        "client failed: stdout={} stderr={}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );

    let doc = fs::read_to_string(&trace_path).expect("trace.json written");
    // parse_events validates the document shape: a traceEvents array of
    // complete events with monotone timestamps per (pid, tid) lane
    let events = twodprof_obs::chrome::parse_events(&doc).expect("valid Chrome trace JSON");
    assert!(!events.is_empty(), "trace must contain events");

    let client: Vec<_> = events
        .iter()
        .filter(|e| e.pid == TRACE_PID_CLIENT)
        .collect();
    let server: Vec<_> = events
        .iter()
        .filter(|e| e.pid == TRACE_PID_DAEMON)
        .collect();
    assert!(!client.is_empty(), "expected client-side spans (pid 1)");
    assert!(!server.is_empty(), "expected daemon-side spans (pid 2)");

    // one trace id spans both processes
    let trace_id = &client[0].trace;
    assert!(
        events.iter().all(|e| &e.trace == trace_id),
        "all spans must share the propagated trace id"
    );

    // every daemon span sits inside the client's request window
    let root = client
        .iter()
        .find(|e| e.name == "client.replay")
        .expect("client.replay root span");
    let window = root.ts..=root.ts + root.dur;
    for span in &server {
        assert!(
            window.contains(&span.ts) && window.contains(&(span.ts + span.dur)),
            "daemon span {:?} [{}..{}] outside client window [{}..{}]",
            span.name,
            span.ts,
            span.ts + span.dur,
            root.ts,
            root.ts + root.dur
        );
    }

    // the daemon side covered the session lifecycle, not just one frame
    assert!(
        server.iter().any(|e| e.name.starts_with("serve.frame.")),
        "expected per-frame daemon spans, got {:?}",
        server.iter().map(|e| &e.name).collect::<Vec<_>>()
    );

    drop(daemon);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn metrics_off_still_reports_the_daemon_values() {
    let dir = scratch_dir("metrics-off");
    let daemon = spawn_daemon(&dir, &[("TWODPROF_METRICS", "off")]);
    let snap = twodprof_serve::fetch_stats(daemon.addr.as_str()).expect("fetch stats");
    assert_eq!(snap.counter("serve_sessions_opened_total"), Some(0));
    assert_eq!(snap.gauge("serve_shard0_sessions"), Some(0));
    // the registry itself is detached: none of its metrics appear
    assert_eq!(snap.counter("serve_frame_decode_errors_total"), None);
    drop(daemon);
    let _ = fs::remove_dir_all(&dir);
}
