//! End-to-end fabric tests: real `twodprofd --compute` daemons on ephemeral
//! loopback ports, a [`RemoteBackend`] sweeping real job grids against them.
//!
//! The centerpiece is the equivalence property the whole fabric rests on:
//! because results are pure functions of their content-addressed specs, a
//! sweep fanned out to remote nodes must be **bit-identical** to the same
//! sweep on a local engine — including when a node is killed mid-batch and
//! its jobs are requeued to survivors.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use bpred::PredictorKind;
use twodprof_engine::{Engine, EngineConfig, JobBackend, JobResult, JobSpec, JobStatus};
use twodprof_fabric::{FabricConfig, RemoteBackend};
use twodprof_serve::{ComputeConfig, Server, ServerConfig, ServerHandle, ServerStats};
use workloads::Scale;

/// Fabric counters live in the process-global metric registry; tests that
/// assert on their deltas must not interleave with other fabric activity,
/// so every test in this binary holds this lock.
fn fabric_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    twodprof_obs::global().snapshot().counter(name).unwrap_or(0)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twodprof-fabric-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An in-process compute daemon on an ephemeral loopback port.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    join: Option<thread::JoinHandle<ServerStats>>,
    cache_dir: PathBuf,
}

impl Daemon {
    fn start(tag: &str, threads: usize) -> Self {
        let cache_dir = temp_dir(tag);
        let config = ServerConfig::builder()
            .quiet(true)
            // node-kill tests force-close connections immediately
            .drain_timeout(Duration::ZERO)
            .compute(ComputeConfig {
                threads,
                cache_dir: Some(cache_dir.clone()),
            })
            .build()
            .expect("config");
        let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr");
        let handle = server.handle();
        let join = thread::spawn(move || server.run().expect("server run"));
        Self {
            addr,
            handle,
            join: Some(join),
            cache_dir,
        }
    }

    fn kill(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// A survey-style grid over real workloads: branch counts plus accuracy
/// and 2D-profiling jobs for each predictor, all at the tiny scale.
fn grid(workloads: &[&str], predictors: &[PredictorKind]) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for &w in workloads {
        specs.push(JobSpec::count(w, "train", Scale::Tiny));
        for &p in predictors {
            specs.push(JobSpec::accuracy(w, "train", Scale::Tiny, p));
            specs.push(JobSpec::two_d(w, "train", Scale::Tiny, p));
        }
    }
    specs
}

/// Asserts two result sets are bit-identical: same specs in the same
/// order, every job successful, and every output payload byte-for-byte
/// equal.
fn assert_bit_identical(remote: &[JobResult], local: &[JobResult]) {
    assert_eq!(remote.len(), local.len());
    for (r, l) in remote.iter().zip(local) {
        assert_eq!(r.spec, l.spec, "result order must follow spec order");
        assert!(
            r.status.is_success(),
            "{} failed: {:?}",
            r.spec.describe(),
            r.status
        );
        assert!(
            l.status.is_success(),
            "{} failed: {:?}",
            l.spec.describe(),
            l.status
        );
        let rp = r.output.as_ref().expect("remote output").to_payload();
        let lp = l.output.as_ref().expect("local output").to_payload();
        assert_eq!(
            rp,
            lp,
            "{}: remote and local payloads differ",
            r.spec.describe()
        );
    }
}

fn remote_backend(nodes: Vec<String>, window: usize) -> RemoteBackend {
    RemoteBackend::new(FabricConfig {
        nodes,
        window,
        quiet: true,
        ..FabricConfig::default()
    })
}

/// A two-node sweep over a survey grid must produce results byte-identical
/// to the same grid on a pure-local backend.
#[test]
fn two_node_sweep_is_bit_identical_to_local() {
    let _guard = fabric_lock();
    let a = Daemon::start("identity-a", 2);
    let b = Daemon::start("identity-b", 2);
    let specs = grid(
        &["gzip", "mcf", "parser", "gap"],
        &PredictorKind::SURVEY[..3],
    );

    let submitted_before = counter("fabric_jobs_submitted_total");
    let backend = remote_backend(vec![a.addr.to_string(), b.addr.to_string()], 2);
    let remote_results = backend.run_jobs(&specs);
    let local_results = Engine::new(EngineConfig::default()).run_jobs(&specs);
    assert_bit_identical(&remote_results, &local_results);

    // a cold fleet computes remotely: submissions flowed through the wire
    assert!(
        counter("fabric_jobs_submitted_total") > submitted_before,
        "cold sweep must submit jobs to the nodes"
    );
}

/// A lone job on a two-node fleet is submitted once: the idle node waits
/// for the batch instead of duplicating the busy node's job.
#[test]
fn a_one_job_batch_on_two_nodes_is_submitted_once() {
    let _guard = fabric_lock();
    let a = Daemon::start("lone-a", 1);
    let b = Daemon::start("lone-b", 1);
    let specs = [JobSpec::two_d(
        "gzip",
        "train",
        Scale::Tiny,
        PredictorKind::Gshare4Kb,
    )];
    let submitted_before = counter("fabric_jobs_submitted_total");
    let backend = remote_backend(vec![a.addr.to_string(), b.addr.to_string()], 4);
    let results = backend.run_jobs(&specs);
    // the in-process daemons share this process's registry, so the one
    // submission counts twice: once sent by the client, once received
    assert_eq!(counter("fabric_jobs_submitted_total") - submitted_before, 2);
    assert_bit_identical(
        &results,
        &Engine::new(EngineConfig::default()).run_jobs(&specs),
    );
}

/// A second, fresh client sweeping the same grid against the same node
/// must be answered from the node's shared cache tier — the cross-fleet
/// dedup the fabric exists for.
#[test]
fn fresh_client_is_served_from_the_shared_cache_tier() {
    let _guard = fabric_lock();
    let node = Daemon::start("cache-tier", 2);
    let specs = grid(&["gzip", "vortex"], &[PredictorKind::Gshare4Kb]);

    // first client: computes everything on the node (cold cache)
    let first = remote_backend(vec![node.addr.to_string()], 4);
    let first_results = first.run_jobs(&specs);
    assert!(first_results.iter().all(|r| r.status.is_success()));
    drop(first);

    // second client: brand new backend, same node — every job is still
    // one submission, and the node's engine answers each from its cache
    // tier instead of computing it
    let hits_before = counter("fabric_remote_cache_hits_total");
    let second = remote_backend(vec![node.addr.to_string()], 4);
    let second_results = second.run_jobs(&specs);
    let hits = counter("fabric_remote_cache_hits_total") - hits_before;
    // the in-process daemon shares this process's registry, so each warm job
    // counts twice: once in the node's pool, once in the client's settle
    assert_eq!(
        hits,
        2 * specs.len() as u64,
        "warm sweep should be one hit per job on each side, saw {hits} for {} jobs",
        specs.len()
    );
    for r in &second_results {
        assert_eq!(
            r.status,
            JobStatus::Cached,
            "{} was not served from the node's cache tier",
            r.spec.describe()
        );
    }
    assert_bit_identical(
        &second_results,
        &Engine::new(EngineConfig::default()).run_jobs(&specs),
    );
}

/// A cached payload too large for the wire must come back `TooLarge`, as
/// a freshly computed one does: the client computes that job locally and
/// the node stays up for the rest of the batch. A long recorded trace is
/// such a payload, and the node refuses it by its size alone: it never
/// encodes the trace for the wire, and never decodes its disk entry.
#[test]
fn oversized_cached_payload_is_a_miss_not_a_lost_node() {
    let _guard = fabric_lock();
    let node = Daemon::start("oversized", 1);
    // crafty's tiny train trace encodes to about 9.6 MB, over the limit
    let specs = [
        JobSpec::trace("crafty", "train", Scale::Tiny),
        JobSpec::count("gzip", "train", Scale::Tiny),
    ];
    let local = Engine::new(EngineConfig::default()).run_jobs(&specs);
    let encoded_before = counter("fabric_result_payload_bytes_total");
    let backend = remote_backend(vec![node.addr.to_string()], 1);
    // the first batch leaves the trace in the node's cache tier
    assert_bit_identical(&backend.run_jobs(&specs), &local);
    // the second finds it there; the count after it must still be a
    // remote cache hit rather than a local fallback after a lost node.
    // The count is a memo hit on the node and the fallback engine has no
    // disk cache, so any disk hit in this batch would be the trace.
    let disk_hits_before = counter("engine_cache_hits_total");
    let second = backend.run_jobs(&specs);
    assert_bit_identical(&second, &local);
    assert_eq!(second[1].status, JobStatus::Cached, "the node must survive");
    assert_eq!(
        counter("engine_cache_hits_total"),
        disk_hits_before,
        "the node decoded the oversized trace entry"
    );
    // both batches together encoded only the count's few bytes
    let encoded = counter("fabric_result_payload_bytes_total") - encoded_before;
    assert!(
        encoded < 64,
        "the node encoded {encoded} payload bytes; the oversized trace must not be encoded"
    );
}

/// Killing one of two nodes mid-sweep must not lose or corrupt anything:
/// the dead node's in-flight jobs are requeued (visible in the counter) and
/// the surviving node finishes the batch bit-identical to a local run.
#[test]
fn node_killed_mid_sweep_requeues_and_stays_bit_identical() {
    let _guard = fabric_lock();
    let survivor = Daemon::start("kill-survivor", 2);
    // one slow worker thread + a deep window: the doomed node always holds
    // several unanswered jobs, so killing it orphans work
    let mut doomed = Daemon::start("kill-doomed", 1);
    let specs = grid(
        &["gzip", "mcf", "parser", "gap", "vortex", "twolf"],
        &PredictorKind::SURVEY[..3],
    );

    let requeued_before = counter("fabric_jobs_requeued_total");
    let backend = remote_backend(vec![survivor.addr.to_string(), doomed.addr.to_string()], 4);
    let remote_results = thread::scope(|scope| {
        let sweep = scope.spawn(|| backend.run_jobs(&specs));
        // wait until the doomed node (index 1) has jobs in flight, then
        // pull the rug: its connection is force-closed mid-batch
        let deadline = Instant::now() + Duration::from_secs(30);
        while twodprof_obs::global()
            .snapshot()
            .gauge("fabric_node1_inflight")
            .unwrap_or(0)
            == 0
        {
            assert!(
                Instant::now() < deadline,
                "timed out waiting for the doomed node to pick up work"
            );
            thread::sleep(Duration::from_millis(1));
        }
        doomed.kill();
        sweep.join().expect("sweep thread")
    });

    assert!(
        counter("fabric_jobs_requeued_total") > requeued_before,
        "killing a node holding in-flight jobs must requeue them"
    );
    assert_bit_identical(
        &remote_results,
        &Engine::new(EngineConfig::default()).run_jobs(&specs),
    );
}
