//! `ingest-mix`: closed-loop sessions against an in-process daemon.
//!
//! One client thread drives sessions back to back, one connection at a
//! time. Three sessions in four are short (4k–6k events: connect and reply
//! latency) and one is long (1.6M–2.4M events: client encode, wire decode,
//! the session profiler, the stream fold and spill). Each session is a
//! seeded window of a workload's recorded `train` trace, declared with that
//! workload's site count, and every session joins one streaming program.

use crate::layers::{self, SpanLog};
use crate::sweep::ScalarTwoD;
use crate::{host, per_layer, repeated_setup, stats, Args, EndToEnd, Outcome, RunDir};
use bpred::PredictorKind;
use btrace::{RecordedTrace, SiteId, Tracer};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use twodprof_core::SliceConfig;
use twodprof_obs::trace::{now_micros, Span};
use twodprof_obs::Snapshot;
use twodprof_serve::{
    fetch_stats, ClientError, ConnectOptions, RemoteTracer, Server, ServerConfig, ServerHandle,
    ServerStats,
};
use workloads::Scale;

/// The streaming program every session joins.
const PROGRAM: &str = "bench-mix";
/// Session predictor (the paper's gshare).
const PREDICTOR: PredictorKind = PredictorKind::Gshare4Kb;
const LONG_EVENTS: (u64, u64) = (1_600_000, 2_400_000);
const SHORT_EVENTS: (u64, u64) = (4_000, 6_000);
const SHORTS_PER_WORKLOAD: usize = 3;
/// Bounds every socket operation, so a stuck daemon fails the run instead
/// of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One session's events: a window of a workload's trace.
struct Window {
    sites: usize,
    trace: RecordedTrace,
}

/// An in-process daemon, shut down and joined on drop.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<ServerStats>>>,
}

impl Daemon {
    fn start(run: &Path, max_sites: usize) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = run.join(format!("daemon-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(&dir).expect("daemon directory");
        let config = ServerConfig::builder()
            .shards(1)
            .spill_dir(&dir)
            .blackbox_path(dir.join("blackbox.bin"))
            .quiet(true)
            .build()
            .expect("valid daemon config");
        let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        let daemon = Self {
            addr,
            handle,
            thread,
        };
        // the program takes the site count of its first session; register
        // it with the widest workload so every later session fits
        ConnectOptions::new(max_sites, PREDICTOR, SliceConfig::auto(0))
            .program(PROGRAM)
            .io_timeout(IO_TIMEOUT)
            .connect(addr)
            .and_then(|s| s.finish())
            .expect("register the streaming program");
        daemon
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            if let Err(e) = t.join().expect("daemon thread panicked") {
                eprintln!("[bench] daemon ended with {e}");
            }
        }
    }
}

struct Setup {
    long: Vec<Window>,
    short: Vec<Window>,
    daemon: Daemon,
}

/// Records every workload's `train` trace, cuts the seeded session windows
/// out of them, and starts the daemon.
fn setup(seed: u64, run: &Path) -> Setup {
    let mut rng = stats::rng(seed, 3);
    let suite = workloads::suite(Scale::Small);
    let n = suite.len();
    let mut long_sizes = spread(LONG_EVENTS, n);
    let mut short_sizes = spread(SHORT_EVENTS, n * SHORTS_PER_WORKLOAD);
    rng.shuffle(&mut long_sizes);
    rng.shuffle(&mut short_sizes);
    let mut long = Vec::with_capacity(n);
    let mut short = Vec::with_capacity(short_sizes.len());
    for (i, w) in suite.iter().enumerate() {
        let sites = w.sites().len();
        let mut source = RecordedTrace::new(sites);
        w.run(&w.input_set("train").expect("train input"), &mut source);
        let sizes = std::iter::once(long_sizes[i]).chain(
            short_sizes[i * SHORTS_PER_WORKLOAD..][..SHORTS_PER_WORKLOAD]
                .iter()
                .copied(),
        );
        let spans: Vec<(u64, u64)> = sizes.map(|len| (rng.below(source.events()), len)).collect();
        let mut cuts = windows(&source, &spans)
            .into_iter()
            .map(|trace| Window { sites, trace });
        long.push(cuts.next().expect("one long window"));
        short.extend(cuts);
    }
    let max_sites = suite
        .iter()
        .map(|w| w.sites().len())
        .max()
        .expect("12 workloads");
    Setup {
        long,
        short,
        daemon: Daemon::start(run, max_sites),
    }
}

/// `count` sizes evenly spread over `[lo, hi]`, so every seed draws the
/// same size distribution and only the assignment changes.
fn spread((lo, hi): (u64, u64), count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|k| lo + (hi - lo) * k / (count as u64 - 1))
        .collect()
}

/// For each `(start, len)`, `len` events of `source` from `start` on,
/// wrapping around its end. The source is replayed a fixed number of times
/// (enough for the longest possible window from any start), so the cost
/// does not depend on where the seed puts the windows.
fn windows(source: &RecordedTrace, spans: &[(u64, u64)]) -> Vec<RecordedTrace> {
    struct Cut<'a> {
        pos: u64,
        spans: &'a [(u64, u64)],
        out: Vec<RecordedTrace>,
    }
    impl Tracer for Cut<'_> {
        fn branch(&mut self, site: SiteId, taken: bool) {
            for (&(start, len), out) in self.spans.iter().zip(&mut self.out) {
                if (start..start + len).contains(&self.pos) {
                    out.push(site, taken);
                }
            }
            self.pos += 1;
        }
    }
    let mut cut = Cut {
        pos: 0,
        spans,
        out: spans
            .iter()
            .map(|_| RecordedTrace::new(source.num_sites()))
            .collect(),
    };
    for _ in 0..LONG_EVENTS.1.div_ceil(source.events()) + 1 {
        source.replay_into(&mut cut);
    }
    cut.out
}

/// Which window the next session streams: blocks of four sessions hold one
/// long session at a seeded position; long and short windows are each
/// taken in seeded order, reshuffled every round.
struct Schedule {
    rng: workloads::Xoshiro256,
    long_slot: u64,
    long_order: Vec<usize>,
    short_order: Vec<usize>,
    issued: u64,
}

impl Schedule {
    fn next(&mut self, longs: usize, shorts: usize) -> (bool, usize) {
        if self.issued.is_multiple_of(4) {
            self.long_slot = self.rng.below(4);
        }
        let is_long = self.issued % 4 == self.long_slot;
        self.issued += 1;
        let (order, count) = if is_long {
            (&mut self.long_order, longs)
        } else {
            (&mut self.short_order, shorts)
        };
        if order.is_empty() {
            order.extend(0..count);
            self.rng.shuffle(order);
        }
        (is_long, order.pop().expect("refilled"))
    }
}

/// A finished session: its window and the daemon's report bytes.
struct Done {
    long: bool,
    window: usize,
    report: Vec<u8>,
}

/// Runs one session; returns the report bytes and the events its report
/// acknowledges.
fn session(addr: SocketAddr, w: &Window, traced: bool) -> Result<(Vec<u8>, u64), ClientError> {
    let span = |name| traced.then(|| Span::enter(name));
    let _root = traced.then(|| Span::root("bench.serve.session"));
    let session = {
        let _s = span("bench.serve.connect");
        ConnectOptions::new(w.sites, PREDICTOR, SliceConfig::auto(w.trace.events()))
            .program(PROGRAM)
            .connect_timeout(IO_TIMEOUT)
            .io_timeout(IO_TIMEOUT)
            .connect(addr)?
    };
    let mut tracer = RemoteTracer::new(session);
    {
        let _s = span("bench.serve.send");
        w.trace.replay_into(&mut tracer);
    }
    let _s = span("bench.serve.finish");
    let report = tracer.finish()?;
    Ok((report.bytes().to_vec(), report.report().total_branches()))
}

pub fn run(args: &Args, run_dir: &RunDir) -> Outcome {
    let dir = run_dir.path();
    let mut out = Outcome::default();
    let (setup, setup_s) = repeated_setup(|| setup(args.seed, dir));
    let addr = setup.daemon.addr;
    let mut schedule = Schedule {
        rng: stats::rng(args.seed, 4),
        long_slot: 0,
        long_order: Vec::new(),
        short_order: Vec::new(),
        issued: 0,
    };

    let mut log = SpanLog::default();
    log.discard();
    let before = fetch_stats(addr).expect("daemon stats");
    let mut done: Vec<Done> = Vec::new();
    let mut latencies = Vec::new();
    let mut timed = [Duration::ZERO; 2]; // [untraced, traced]
    let mut events = [0u64; 2];
    let loop_start = Instant::now();
    while loop_start.elapsed() < args.budget() || done.is_empty() {
        let (long, index) = schedule.next(setup.long.len(), setup.short.len());
        let w = if long {
            &setup.long[index]
        } else {
            &setup.short[index]
        };
        // the traced run alternates untraced and traced blocks of four
        let traced = args.trace && (schedule.issued - 1) / 4 % 2 == 1;
        let from_us = now_micros();
        let t = Instant::now();
        let result = session(addr, w, traced);
        let took = t.elapsed();
        if traced {
            log.keep_window(from_us, now_micros());
        }
        out.attempted += 1;
        match result {
            Ok((report, acked)) => {
                latencies.push(took);
                timed[traced as usize] += took;
                events[traced as usize] += acked;
                done.push(Done {
                    long,
                    window: index,
                    report,
                });
            }
            Err(e) => {
                out.failed += 1;
                if out.failed <= 3 {
                    out.errors.push(format!("session {}: {e}", out.attempted));
                }
            }
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    let delta = fetch_stats(addr).expect("daemon stats").delta(&before);
    let health = Health::of(&delta);
    out.check(health.decode_errors == 0, || {
        format!("{} frame decode errors", health.decode_errors)
    });
    out.check(health.shed == 0, || {
        format!("{} sessions shed", health.shed)
    });
    verify(&setup, &done, &mut out);
    eprintln!(
        "[bench] {} sessions ({} long), {} events",
        done.len(),
        done.iter().filter(|d| d.long).count(),
        events[0] + events[1]
    );

    if !args.trace {
        EndToEnd {
            setup_s,
            events: events[0] + events[1],
            timed: timed[0] + timed[1],
            ops: done.len() as u64,
            latencies,
            peak_rss_mb,
        }
        .report(&mut out);
        return out;
    }
    drop(setup);
    let probe = layers::probe_layers(&mut log, dir);
    let rollup =
        layers::Rollup::export(&log, &args.workload, args.seed, timed[1].as_micros() as u64);
    let mut measured = probe.metrics(&rollup);
    let mut connect = rollup.durations_ms("bench.serve.connect");
    let mut finish = rollup.durations_ms("bench.serve.finish");
    measured.extend([
        ("serve.connect_p50_ms", stats::percentile(&mut connect, 0.5)),
        ("serve.connect_p90_ms", stats::percentile(&mut connect, 0.9)),
        ("serve.finish_p50_ms", stats::percentile(&mut finish, 0.5)),
        (
            "serve.send_ns_per_event",
            rollup.total_us("bench.serve.send") as f64 * 1e3 / events[1] as f64,
        ),
    ]);
    measured.extend(health.metrics());
    measured.extend(rollup.shares());
    let rate = |i: usize| events[i] as f64 / timed[i].as_secs_f64();
    measured.extend(layers::overhead(rate(1), rate(0)));
    per_layer(&mut out, &measured);
    out
}

/// Checks every session's report against an in-process `TwoDProfiler` run
/// over the same events: the bytes must be identical.
fn verify(setup: &Setup, done: &[Done], out: &mut Outcome) {
    let mut long_refs: Vec<Option<Vec<u8>>> = vec![None; setup.long.len()];
    let mut short_refs: Vec<Option<Vec<u8>>> = vec![None; setup.short.len()];
    let mut mismatched = 0;
    for d in done {
        let (refs, pool) = if d.long {
            (&mut long_refs, &setup.long)
        } else {
            (&mut short_refs, &setup.short)
        };
        let want = refs[d.window]
            .get_or_insert_with(|| PREDICTOR.host(ScalarTwoD(&pool[d.window].trace)).to_bytes());
        if d.report != *want {
            mismatched += 1;
        }
    }
    out.failed += mismatched;
    out.check(mismatched == 0, || {
        format!("{mismatched} session reports differ from the in-process profiler")
    });
}

/// Daemon counters over the timed loop.
struct Health {
    ticks: u64,
    tick_sum_us: u64,
    lag_count: u64,
    lag_sum_us: u64,
    spill_segments: u64,
    spill_bytes: u64,
    accept: u64,
    degrade: u64,
    shed: u64,
    decode_errors: u64,
    epochs: u64,
}

impl Health {
    fn of(delta: &Snapshot) -> Self {
        let c = |name: &str| delta.counter(name).unwrap_or(0);
        let h = |name: &str| delta.histogram(name).map_or((0, 0), |h| (h.count(), h.sum));
        let (ticks, tick_sum_us) = h("serve_shard0_tick_micros");
        let (lag_count, lag_sum_us) = h("serve_shard0_loop_lag_micros");
        Self {
            ticks,
            tick_sum_us,
            lag_count,
            lag_sum_us,
            spill_segments: c("serve_spill_segments_total"),
            spill_bytes: c("serve_spill_bytes_total"),
            accept: c("serve_admit_accept_total"),
            degrade: c("serve_admit_degrade_total"),
            shed: c("serve_admit_shed_total"),
            decode_errors: c("serve_frame_decode_errors_total"),
            epochs: c("stream_windows_folded_total"),
        }
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mean = |sum: u64, n: u64| sum as f64 / n.max(1) as f64;
        vec![
            ("serve.shard_ticks", self.ticks as f64),
            (
                "serve.shard_tick_mean_us",
                mean(self.tick_sum_us, self.ticks),
            ),
            (
                "serve.shard_lag_mean_us",
                mean(self.lag_sum_us, self.lag_count),
            ),
            ("serve.spill_segments", self.spill_segments as f64),
            ("serve.spill_bytes", self.spill_bytes as f64),
            ("serve.admit_accept", self.accept as f64),
            ("serve.admit_degrade", self.degrade as f64),
            ("serve.admit_shed", self.shed as f64),
            ("serve.frame_decode_errors", self.decode_errors as f64),
            ("stream.epochs_folded", self.epochs as f64),
        ]
    }
}
