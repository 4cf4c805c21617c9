//! `gate` — the two performance gates CI runs, each a subcommand that
//! measures, prints its verdict and exits 1 when the gate fails.
//!
//! - `gate trace-replay`: the trace-once/simulate-many payoff. The survey
//!   grid is swept with a fresh one-worker engine per job
//!   (`record_per_job`) and with one engine for the whole grid
//!   (`trace_once`); the gate fails unless `trace_once` is at least
//!   [`MIN_SPEEDUP`] times faster. Writes [`GATE_CSV`].
//! - `gate obs-overhead`: the observability layer's cost on daemon ingest.
//!   Four legs (metrics, tracing, streaming, exposition) each compare
//!   loopback ingest throughput with the feature on and off; a leg fails
//!   when turning it on costs more than its budget.
//!
//! Timing noise on a shared host is one-sided (steal and preemption only
//! add time), so every sample is the fastest run in a window and every
//! verdict compares per-mode minima over repetitions.

use bpred::bitslice::SurveyFused;
use bpred::PredictorKind;
use btrace::{SiteId, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use twodprof_core::SliceConfig;
use twodprof_engine::{Engine, EngineConfig, JobSpec};
use twodprof_serve::cli::{self, Subcommand};
use twodprof_serve::flags::{self, Command};
use twodprof_serve::{ConnectOptions, RemoteTracer, Server, ServerConfig};
use workloads::Scale;

/// Required `record_per_job` / `trace_once` time ratio.
const MIN_SPEEDUP: f64 = 10.0;
/// Repetitions of both sweep modes; the per-mode minimum is gated.
const TRACE_REPS: usize = 2;
/// Measurement window per sweep mode.
const TRACE_WINDOW: Duration = Duration::from_millis(200);
/// Where `trace-replay` writes its per-mode results (under `target/`).
const GATE_CSV: &str = "target/trace_replay_gate.csv";

/// Alternating on/off child runs per overhead leg.
const OBS_REPS: usize = 3;
/// Measurement window per session count in a child run.
const INGEST_WINDOW: Duration = Duration::from_secs(2);
/// Concurrent loopback sessions per measured iteration.
const SESSIONS: [usize; 3] = [1, 4, 8];
const EVENTS_PER_SESSION: usize = 200_000;
const NUM_SITES: u32 = 64;

/// The overhead legs: name, budget in percent, and the environment
/// variable that switches the leg in a child (the process reads it once).
/// Metrics gates at 5% (the local design target is 2%). Tracing's disabled
/// path is a strict subset of its enabled one, so the on/off delta bounds
/// both. Streaming joins every session to the shared program `bench`;
/// exposition runs the HTTP listener, its timeline sampler and a 1 Hz
/// `/metrics` scraper.
const LEGS: [(&str, f64, Option<&str>); 4] = [
    ("metrics", 5.0, Some("TWODPROF_METRICS")),
    ("tracing", 1.0, Some("TWODPROF_TRACE")),
    ("streaming", 5.0, None),
    ("exposition", 5.0, None),
];

const SUBCOMMANDS: &[Subcommand] = &[
    ("trace-replay", trace_replay_main),
    ("obs-overhead", obs_overhead_main),
    ("ingest", ingest_main),
];

fn main() -> ExitCode {
    cli::dispatch("gate", SUBCOMMANDS, None)
}

/// Parses a subcommand's arguments, which are only ever `--help`.
fn no_options(name: &str, about: &str, args: &[String]) -> Result<(), String> {
    let cmd = Command {
        name,
        positionals: &[],
        about,
        flags: &[],
    };
    flags::parse(&cmd, args).map(drop)
}

/// Runs `f` once untimed to size the window, then as many times as fit in
/// `window` (at least once, at most 1000), and returns the fastest run.
fn fastest<T>(window: Duration, mut f: impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    black_box(f());
    let once = start.elapsed().max(Duration::from_nanos(1));
    let runs = (window.as_nanos() / once.as_nanos()).clamp(1, 1000);
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// The per-name minimum over every sample.
fn minima<'a>(samples: impl IntoIterator<Item = (&'a str, f64)>) -> BTreeMap<&'a str, f64> {
    let mut min = BTreeMap::new();
    for (name, ns) in samples {
        let best = min.entry(name).or_insert(ns);
        *best = best.min(ns);
    }
    min
}

/// `record_per_job` over `trace_once`; both must be present and positive.
fn speedup(min: &BTreeMap<&str, f64>) -> Result<f64, String> {
    if let Some((mode, _)) = min.iter().find(|(_, &ns)| ns <= 0.0) {
        return Err(format!("bad time for {mode}"));
    }
    match (min.get("record_per_job"), min.get("trace_once")) {
        (Some(per_job), Some(once)) => Ok(per_job / once),
        _ => Err("missing trace_replay benchmark modes".to_owned()),
    }
}

/// Whether the speedup meets the gate; exactly [`MIN_SPEEDUP`] passes.
fn speedup_passes(speedup: f64) -> bool {
    speedup >= MIN_SPEEDUP
}

/// The aggregate overhead in percent, (Σon − Σoff) / Σoff. Both runs must
/// time the same benchmarks, each with a positive time.
fn overhead_pct(off: &BTreeMap<&str, f64>, on: &BTreeMap<&str, f64>) -> Result<f64, String> {
    if off.is_empty() || !off.keys().eq(on.keys()) {
        return Err(format!(
            "on and off runs timed different benchmarks: {:?} vs {:?}",
            on.keys().collect::<Vec<_>>(),
            off.keys().collect::<Vec<_>>()
        ));
    }
    if let Some((name, _)) = off.iter().chain(on).find(|(_, &ns)| ns <= 0.0) {
        return Err(format!("bad time for {name}"));
    }
    let (sum_off, sum_on) = (off.values().sum::<f64>(), on.values().sum::<f64>());
    Ok((sum_on - sum_off) / sum_off * 100.0)
}

/// Whether an overhead is within budget; exactly the budget passes.
fn overhead_passes(pct: f64, budget_pct: f64) -> bool {
    pct <= budget_pct
}

/// The tiny-scale grid with every bit-sliced survey kind per input: a
/// count, ten accuracy sims and ten 2D profiles share each input's branch
/// stream. Perceptron and TAGE are left out: their per-event simulation
/// cost dwarfs stream generation and decode, so a grid with them would
/// measure predictor arithmetic, not the trace pipeline.
fn survey_grid() -> Vec<JobSpec> {
    let scale = Scale::Tiny;
    let mut specs = Vec::new();
    for workload in workloads::suite(scale) {
        let name = workload.name();
        for input in workload.input_sets() {
            specs.push(JobSpec::count(name, input.name, scale));
            for kind in SurveyFused::KINDS {
                specs.push(JobSpec::accuracy(name, input.name, scale, kind));
                specs.push(JobSpec::two_d(name, input.name, scale, kind));
            }
        }
    }
    specs
}

/// A one-worker engine with no disk cache.
fn one_worker() -> Engine {
    Engine::new(EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    })
}

fn trace_replay_main(args: &[String]) -> Result<(), String> {
    no_options(
        "gate trace-replay",
        "fails unless a trace-once sweep is 10x faster than record-per-job",
        args,
    )?;
    let specs = survey_grid();
    let mut samples = Vec::new();
    for rep in 1..=TRACE_REPS {
        let per_job = fastest(TRACE_WINDOW, || {
            for spec in &specs {
                black_box(one_worker().run_jobs(std::slice::from_ref(spec)));
            }
        });
        let once = fastest(TRACE_WINDOW, || one_worker().run_jobs(&specs));
        eprintln!("rep {rep}/{TRACE_REPS}: record_per_job {per_job:.2?}  trace_once {once:.2?}");
        samples.push(("record_per_job", per_job.as_nanos() as f64));
        samples.push(("trace_once", once.as_nanos() as f64));
    }
    let min = minima(samples);
    let gate = speedup(&min)?;
    let (per_job, once) = (min["record_per_job"], min["trace_once"]);
    println!(
        "record_per_job {per_job:.0} ns/iter  trace_once {once:.0} ns/iter  speedup {gate:.2}x (gate >= {MIN_SPEEDUP}x, min over reps)"
    );
    let csv = format!(
        "mode,min_ns_per_iter,reps\nrecord_per_job,{per_job:.0},{TRACE_REPS}\n\
         trace_once,{once:.0},{TRACE_REPS}\n\
         speedup_record_per_job_over_trace_once,{gate:.4},{TRACE_REPS}\n"
    );
    let written = std::fs::create_dir_all("target").and_then(|()| std::fs::write(GATE_CSV, csv));
    written.map_err(|e| format!("{GATE_CSV}: {e}"))?;
    // the annotation surfaces the measured ratio in the CI run summary
    println!(
        "::notice title=trace-replay speedup::{gate:.2}x (record_per_job {:.2}s / trace_once {:.2}s, min over {TRACE_REPS} reps, gate >= {MIN_SPEEDUP}x)",
        per_job / 1e9,
        once / 1e9
    );
    println!("per-mode results written to {GATE_CSV}");
    if !speedup_passes(gate) {
        return Err("FAIL: trace-once sweep is not fast enough over record-per-job".to_owned());
    }
    println!("OK: trace-once speedup meets the gate");
    Ok(())
}

/// Runs one `gate ingest` child and parses its `NAME NS` lines.
fn ingest_child(leg: &str, env: Option<&str>, state: &str) -> Result<Vec<(String, f64)>, String> {
    eprintln!("== ingest_throughput, {leg} {state} ==");
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child.args(["ingest", leg, state]).stderr(Stdio::inherit());
    if let Some(var) = env {
        child.env(var, state);
    }
    let out = child.output().map_err(|e| format!("gate ingest: {e}"))?;
    if !out.status.success() {
        return Err(format!("gate ingest {leg} {state}: {}", out.status));
    }
    let line = |l: &str| {
        let (name, ns) = l.split_once(' ')?;
        Some((name.to_owned(), ns.parse().ok()?))
    };
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| line(l).ok_or_else(|| format!("unparsable ingest line {l:?}")))
        .collect()
}

fn obs_overhead_main(args: &[String]) -> Result<(), String> {
    no_options(
        "gate obs-overhead",
        "fails when metrics, tracing, streaming or exposition slows loopback\n\
         ingest by more than 5%, 1%, 5% or 5%",
        args,
    )?;
    let mut failed = Vec::new();
    for (leg, budget_pct, env) in LEGS {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for _ in 0..OBS_REPS {
            on.extend(ingest_child(leg, env, "on")?);
            off.extend(ingest_child(leg, env, "off")?);
        }
        let on = minima(on.iter().map(|(name, ns)| (name.as_str(), *ns)));
        let off = minima(off.iter().map(|(name, ns)| (name.as_str(), *ns)));
        let pct = overhead_pct(&off, &on)?;
        for (name, off_ns) in &off {
            let on_ns = on[name];
            let each = (on_ns - off_ns) / off_ns * 100.0;
            println!(
                "{name:<48} off {off_ns:.0} ns/iter  on {on_ns:.0} ns/iter  overhead {each:+.2}%"
            );
        }
        println!("aggregate {leg} overhead: {pct:+.2}% (budget {budget_pct}%, min over {OBS_REPS} runs each)");
        if overhead_passes(pct, budget_pct) {
            println!("OK: {leg} overhead within budget");
        } else {
            println!("FAIL: {leg} overhead exceeds budget");
            failed.push(leg);
        }
    }
    match failed.is_empty() {
        true => Ok(()),
        false => Err(format!("FAIL: over budget: {}", failed.join(", "))),
    }
}

/// Fixed xorshift event stream; `salt` decorrelates concurrent sessions.
fn stream(salt: u64) -> Vec<(SiteId, bool)> {
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..EVENTS_PER_SESSION)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (SiteId((x % NUM_SITES as u64) as u32), x & 2 == 2)
        })
        .collect()
}

fn run_session(addr: SocketAddr, program: &str, events: &[(SiteId, bool)]) {
    let options = ConnectOptions::new(
        NUM_SITES as usize,
        PredictorKind::Gshare4Kb,
        SliceConfig::new(4096, 64),
    );
    let session = options.program(program).connect(addr).expect("connect");
    let mut tracer = RemoteTracer::new(session);
    for &(site, taken) in events {
        tracer.branch(site, taken);
    }
    tracer.finish().expect("finish");
}

/// GETs `/metrics` once a second until `stop`, so the exposition leg
/// measures ingest while the plane is exercised, not idle.
fn spawn_scraper(http: SocketAddr, stop: Arc<AtomicBool>) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        // one scrape every 20 ticks of 50 ms, so shutdown is prompt
        for tick in 0u64.. {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            if tick % 20 == 0 {
                if let Ok(mut conn) = TcpStream::connect(http) {
                    conn.set_read_timeout(Some(Duration::from_secs(2))).ok();
                    conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: gate\r\n\r\n")
                        .ok();
                    conn.read_to_string(&mut String::new()).ok();
                }
            }
            thread::sleep(Duration::from_millis(50));
        }
    })
}

/// One child measurement of `obs-overhead`: the fastest iteration of 1, 4
/// and 8 concurrent sessions through an in-process loopback daemon, one
/// `NAME NS` line each on stdout. The metrics and tracing legs are
/// switched by the environment the parent sets.
fn ingest_main(args: &[String]) -> Result<(), String> {
    let cmd = Command {
        name: "gate ingest",
        positionals: &["LEG", "on|off"],
        about: "one on/off ingest measurement of obs-overhead, run as its child",
        flags: &[],
    };
    let m = flags::parse(&cmd, args)?;
    let &[leg, state] = m.positionals() else {
        unreachable!("parse checked the count")
    };
    if !LEGS.iter().any(|l| l.0 == leg) || !matches!(state, "on" | "off") {
        return Err(format!("unknown leg {leg:?} {state:?} (try --help)"));
    }
    let on = |name| leg == name && state == "on";
    let program = if on("streaming") { "bench" } else { "" };
    let mut builder = ServerConfig::builder().quiet(true);
    if on("exposition") {
        builder = builder.http_addr("127.0.0.1:0");
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let http = server.http_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    let daemon = thread::spawn(move || server.run().expect("server run"));
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = http.map(|http| spawn_scraper(http, stop.clone()));

    for sessions in SESSIONS {
        let streams: Vec<_> = (1..=sessions as u64).map(stream).collect();
        let best = fastest(INGEST_WINDOW, || {
            let workers: Vec<_> = streams
                .iter()
                .map(|events| {
                    let events = events.clone();
                    thread::spawn(move || run_session(addr, program, &events))
                })
                .collect();
            for w in workers {
                w.join().expect("session worker");
            }
        });
        let name = format!("ingest_throughput/loopback_sessions/{sessions}");
        eprintln!("{name:<48} time: {:.2} ms/iter", best.as_secs_f64() * 1e3);
        println!("{name} {}", best.as_nanos());
    }

    stop.store(true, Ordering::Relaxed);
    if let Some(scraper) = scraper {
        scraper.join().expect("scraper thread");
    }
    handle.shutdown();
    daemon.join().expect("daemon thread");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&'static str, f64)]) -> BTreeMap<&'static str, f64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn minima_take_the_fastest_sample_per_name() {
        let min = minima([("a", 5.0), ("b", 2.0), ("a", 3.0), ("b", 4.0)]);
        assert_eq!(min, map(&[("a", 3.0), ("b", 2.0)]));
    }

    #[test]
    fn speedup_needs_both_modes_with_positive_times_and_fails_below_the_gate() {
        let both = map(&[("record_per_job", 50.0), ("trace_once", 5.0)]);
        assert_eq!(speedup(&both), Ok(10.0));
        let missing = "missing trace_replay benchmark modes".to_owned();
        assert_eq!(speedup(&map(&[("record_per_job", 50.0)])), Err(missing));
        assert!(speedup(&map(&[])).is_err());
        let zero = map(&[("record_per_job", 50.0), ("trace_once", 0.0)]);
        assert_eq!(speedup(&zero), Err("bad time for trace_once".to_owned()));
        // the gate itself passes
        assert!(speedup_passes(MIN_SPEEDUP) && speedup_passes(12.5));
        assert!(!speedup_passes(9.999));
    }

    #[test]
    fn overhead_sums_before_dividing_and_fails_only_above_the_budget() {
        let off = map(&[("s/1", 100.0), ("s/8", 1000.0)]);
        let on = map(&[("s/1", 200.0), ("s/8", 1000.0)]);
        // a mean of per-benchmark ratios would say 50%
        let pct = overhead_pct(&off, &on).expect("valid");
        assert!((pct - 100.0 / 1100.0 * 100.0).abs() < 1e-9, "{pct}");
        assert_eq!(overhead_pct(&off, &off), Ok(0.0));
        // the budget itself passes
        assert!(overhead_passes(5.0, 5.0) && overhead_passes(-3.0, 1.0));
        assert!(!overhead_passes(5.001, 5.0));
    }

    #[test]
    fn overhead_needs_matching_benchmarks_with_positive_times() {
        let off = map(&[("s/1", 100.0), ("s/8", 1000.0)]);
        let short = map(&[("s/1", 100.0)]);
        assert!(overhead_pct(&off, &short).is_err());
        assert!(overhead_pct(&short, &off).is_err());
        assert!(overhead_pct(&map(&[]), &map(&[])).is_err());
        let zero = map(&[("s/1", 0.0), ("s/8", 1000.0)]);
        let bad = Err("bad time for s/1".to_owned());
        assert_eq!(overhead_pct(&zero, &off), bad);
        assert_eq!(overhead_pct(&off, &zero), bad);
    }
}
