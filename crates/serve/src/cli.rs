//! Entry points of the `twodprofd` / `twodprof-client` binaries, and the
//! subcommand dispatch every binary (`repro` and `gate` too) shares. Each
//! entry declares its flags once as a [`Command`] table; [`flags::parse`]
//! reads the arguments and renders `--help` from it. Every entry returns a
//! usage or run-time error message for [`dispatch`] to print.

use crate::client::{
    fetch_blackbox, fetch_stats, fetch_verdicts, ClientError, ConnectOptions, WatchClient,
    DEFAULT_BATCH_EVENTS,
};
use crate::compute::ComputeConfig;
use crate::config::{ServerConfig, ServerConfigBuilder as B};
use crate::flags::{self, flag, switch, Command, Flag, Matches};
use crate::replay::{replay_workload, ReplaySpec};
use crate::server::{Server, ServerHandle};
use crate::wire::AdmissionTier;
use bpred::PredictorKind;
use btrace::SiteId;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use twodprof_core::SliceConfig;
use twodprof_stream::{StreamConfig, VerdictSnapshot};
use workloads::Scale;

macro_rules! default_addr {
    () => {
        "127.0.0.1:4272"
    };
}

/// Default daemon endpoint shared by both sides.
pub const DEFAULT_ADDR: &str = default_addr!();

const ADDR: Flag = flag(
    "--addr",
    "HOST:PORT",
    concat!("daemon address (default ", default_addr!(), ")"),
);
const PREDICTOR: Flag = flag("--predictor", "ID", "predictor id (default gshare4kb)");
const PROGRAM: Flag = flag("--program", "NAME", "join shared streaming profiler NAME");

/// An entry point: takes the arguments after its subcommand name and
/// returns a message for the caller to print on failure.
pub type Entry = fn(&[String]) -> Result<(), String>;

/// A subcommand's name and entry point.
pub type Subcommand = (&'static str, Entry);

/// The subcommands of `twodprof-client`.
pub const CLIENT_SUBCOMMANDS: &[Subcommand] = &[
    ("replay", replay_main),
    ("stats", stats_main),
    ("watch", watch_main),
    ("drive", drive_main),
    ("soak", soak_main),
    ("top", top_main),
    ("blackbox", blackbox_main),
];

/// Runs the subcommand `args[0]` names from `table` on the arguments after
/// it. Any other first argument goes, with every argument, to `fallback`
/// when there is one; otherwise `--help` lists the subcommands, and an
/// unknown or missing subcommand is an error that lists them.
fn run_subcommand(
    bin: &str,
    table: &[Subcommand],
    fallback: Option<Entry>,
    args: &[String],
) -> Result<(), String> {
    let first = args.first().map(String::as_str);
    if let Some((_, entry)) = table.iter().find(|(name, _)| Some(*name) == first) {
        return entry(&args[1..]);
    }
    if let Some(entry) = fallback {
        return entry(args);
    }
    let names = table.iter().map(|(name, _)| *name).collect::<Vec<_>>();
    let usage = format!(
        "usage: {bin} SUBCOMMAND [ARGS]; subcommands: {} (see `{bin} SUBCOMMAND --help`)",
        names.join(" ")
    );
    match first {
        Some("--help" | "-h") => {
            eprintln!("{usage}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{usage}")),
        None => Err(usage),
    }
}

/// The `main` of every binary: runs the subcommand the process arguments
/// name (see `run_subcommand`), printing an error to stderr and exiting 1
/// on failure.
pub fn dispatch(bin: &str, table: &[Subcommand], fallback: Option<Entry>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_subcommand(bin, table, fallback, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// The `--scale` value, or `default` without one; an unknown name is an
/// error.
pub fn scale(m: &Matches, default: Scale) -> Result<Scale, String> {
    match m.value("--scale") {
        None => Ok(default),
        Some("tiny") => Ok(Scale::Tiny),
        Some("small") => Ok(Scale::Small),
        Some("full") => Ok(Scale::Full),
        Some(other) => Err(format!("unknown scale {other:?}")),
    }
}

/// The `--predictor` value, gshare-4KB without one.
fn predictor(m: &Matches) -> Result<PredictorKind, String> {
    let Some(v) = m.value("--predictor") else {
        return Ok(PredictorKind::Gshare4Kb);
    };
    PredictorKind::from_id(v).ok_or_else(|| {
        let ids = PredictorKind::ids().collect::<Vec<_>>();
        format!("unknown predictor {v:?} (valid: {})", ids.join(" "))
    })
}

/// Calls a [`ServerConfigBuilder`](B) setter only for a flag that was
/// given, so the builder's defaults stand for the rest.
trait SetIf: Sized {
    fn set_if<T>(self, value: Option<T>, set: fn(Self, T) -> Self) -> Self {
        match value {
            Some(v) => set(self, v),
            None => self,
        }
    }
}

impl SetIf for B {}

static SERVE: Command = Command {
    name: "twodprofd",
    positionals: &[],
    about: "streaming 2D-profile ingestion daemon. SIGINT/SIGTERM shut down gracefully,\n\
            finishing in-flight sessions; SIGUSR1 dumps the flight recorder. A shard\n\
            degrades admissions past half its memory budget and sheds them at it.",
    flags: &[
        flag("--addr", "HOST:PORT", "listen address (port 0 binds any)"),
        flag("--addr-file", "PATH", "write the bound address to PATH"),
        flag("--http-addr", "HOST:PORT", "HTTP /metrics, /healthz, /vars"),
        flag("--http-addr-file", "PATH", "write the bound HTTP address"),
        flag("--timeline-interval", "SECS", "timeline interval length"),
        flag("--blackbox-file", "PATH", "flight-recorder dump file"),
        flag("--max-sessions", "N", "concurrent session limit"),
        flag("--max-events", "N", "event limit per session"),
        flag("--idle-timeout-ms", "N", "close connections idle this long"),
        flag("--drain-timeout-ms", "N", "shutdown drain limit"),
        flag("--retry-after-ms", "N", "retry hint sent when shedding"),
        flag("--shards", "N", "event-loop threads, 1/N of sessions each"),
        flag("--shard-memory-budget", "BYTES", "resident bytes per shard"),
        flag("--spill-threshold", "BYTES", "spill recordings above this"),
        flag("--spill-dir", "DIR", "directory for spill segments"),
        switch("--quiet", "no connection logs"),
        switch("--no-record", "record no session traces (no Resim)"),
        flag("--stats-interval", "SECS", "stderr summary every SECS"),
        flag("--stream-slice-len", "N", "streaming slice length"),
        flag("--stream-exec-threshold", "N", "streaming exec threshold"),
        flag("--stream-window", "N", "streaming window, in slices"),
        flag("--stream-hysteresis", "N", "folds confirming a flip"),
        flag("--stream-max-lag", "N", "pending epochs before skipping"),
        flag("--max-subscriber-queue", "N", "unread drift frames/watcher"),
        switch("--compute", "serve fabric SubmitJob frames"),
        flag("--compute-threads", "N", "compute workers (0 = CPU count)"),
        flag("--compute-cache-dir", "DIR", "persist compute results"),
    ],
};

/// Entry point for `twodprofd`.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let m = flags::parse(&SERVE, args)?;
    let addr = m.value("--addr").unwrap_or(DEFAULT_ADDR);
    let quiet = m.switch("--quiet");
    let threads = m.numeric("--compute-threads")?;
    let cache_dir = m.value("--compute-cache-dir");
    let compute = m.switch("--compute") || threads.is_some() || cache_dir.is_some();
    let compute = compute.then(|| ComputeConfig {
        threads: threads.unwrap_or_default(),
        cache_dir: cache_dir.map(Into::into),
    });
    let subscriber_queue = m.numeric("--max-subscriber-queue")?;
    let stream = StreamConfig::default();
    let stream = StreamConfig {
        slice: m
            .slice("--stream-slice-len", "--stream-exec-threshold")?
            .unwrap_or(stream.slice),
        window: m.at_least_one("--stream-window")?.unwrap_or(stream.window),
        hysteresis: m
            .at_least_one("--stream-hysteresis")?
            .unwrap_or(stream.hysteresis),
        max_lag: m
            .at_least_one("--stream-max-lag")?
            .unwrap_or(stream.max_lag),
        ..stream
    };
    let builder = ServerConfig::builder()
        .quiet(quiet)
        .record_sessions(!m.switch("--no-record"))
        .stats_interval(m.seconds("--stats-interval")?)
        .stream(stream)
        .set_if(compute, B::compute)
        .set_if(m.value("--http-addr"), B::http_addr)
        .set_if(m.seconds("--timeline-interval")?, B::timeline_interval)
        .set_if(m.value("--blackbox-file"), B::blackbox_path)
        .set_if(m.numeric("--max-sessions")?, B::max_sessions)
        .set_if(m.numeric("--max-events")?, B::max_events_per_session)
        .set_if(m.millis("--idle-timeout-ms")?, B::idle_timeout)
        .set_if(m.millis("--drain-timeout-ms")?, B::drain_timeout)
        .set_if(m.millis("--retry-after-ms")?, B::retry_after)
        .set_if(m.numeric("--shards")?, B::shards)
        .set_if(m.numeric("--shard-memory-budget")?, B::shard_memory_budget)
        .set_if(m.numeric("--spill-threshold")?, B::spill_threshold)
        .set_if(m.value("--spill-dir"), B::spill_dir)
        .set_if(subscriber_queue, B::max_subscriber_queue);
    let config = builder.build().map_err(|e| e.to_string())?;
    let server = Server::bind(addr, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    println!("twodprofd listening on {local}");
    if let Some(path) = m.value("--addr-file") {
        std::fs::write(path, local.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let http = server
        .http_addr()
        .map_err(|e| format!("cannot resolve exposition address: {e}"))?;
    if let Some(http) = http {
        println!("twodprofd exposition on http://{http}");
        if let Some(path) = m.value("--http-addr-file") {
            std::fs::write(path, http.to_string())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    install_signal_handlers(server.handle());
    install_panic_dump(server.handle());
    let stats = server.run().map_err(|e| format!("server failed: {e}"))?;
    if !quiet {
        eprintln!(
            "[twodprofd] shut down: {} session(s) opened, {} finished, {} aborted, {} event(s)",
            stats.sessions_opened,
            stats.sessions_finished,
            stats.sessions_aborted,
            stats.events_ingested
        );
    }
    Ok(())
}

static REPLAY: Command = Command {
    name: "twodprof-client replay",
    positionals: &["WORKLOAD", "INPUT"],
    about: "streams WORKLOAD's INPUT branch stream to a twodprofd and prints the\n\
            returned report summary.",
    flags: &[
        ADDR,
        flag("--scale", "tiny|small|full", "scale (default tiny)"),
        PREDICTOR,
        flag("--batch", "N", "events per frame"),
        flag("--slice-len", "N", "slice length (with --exec-threshold)"),
        flag("--exec-threshold", "N", "exec threshold (with --slice-len)"),
        switch("--verify", "also profile in-process; fail on any diff"),
        flag("--trace-out", "PATH", "write a Chrome trace-event file"),
        PROGRAM,
    ],
};

/// Entry point for `twodprof-client replay`. A failed
/// `--verify` comparison is an error, so scripted callers exit non-zero.
pub fn replay_main(args: &[String]) -> Result<(), String> {
    let m = flags::parse(&REPLAY, args)?;
    let addr = m.value("--addr").unwrap_or(DEFAULT_ADDR);
    let trace_out = m.value("--trace-out");
    let spec = ReplaySpec {
        workload: m.positionals()[0].to_owned(),
        input: m.positionals()[1].to_owned(),
        scale: scale(&m, Scale::Tiny)?,
        predictor: predictor(&m)?,
        batch: m.numeric("--batch")?.unwrap_or(DEFAULT_BATCH_EVENTS),
        slice: m.slice("--slice-len", "--exec-threshold")?,
        verify: m.switch("--verify"),
        trace: trace_out.is_some(),
        program: m.value("--program").unwrap_or_default().to_owned(),
    };
    let summary = replay_workload(addr, &spec).map_err(|e| e.to_string())?;
    let report = summary.remote.report();
    println!(
        "replayed {}/{} to {}: {} event(s), {} slice(s) of {}, predictor {}",
        spec.workload,
        spec.input,
        addr,
        summary.events,
        report.total_slices(),
        summary.slice.slice_len(),
        report.predictor_name()
    );
    println!(
        "program accuracy {:.4}; {} of {} branch(es) predicted input-dependent",
        report.program_accuracy().unwrap_or(f64::NAN),
        report.predicted_dependent().count(),
        report.num_sites()
    );
    match summary.matches() {
        None => {}
        Some(true) => println!("verify: remote report is bit-identical to in-process run"),
        Some(false) => return Err("verify: remote report DIFFERS from in-process run".to_owned()),
    }
    if let Some(path) = trace_out {
        let trace = summary
            .trace
            .as_ref()
            .ok_or_else(|| "no trace captured for --trace-out".to_owned())?;
        let doc = twodprof_obs::chrome::to_json(
            &trace.spans,
            &[
                (crate::replay::TRACE_PID_CLIENT, "twodprof-client"),
                (crate::replay::TRACE_PID_DAEMON, "twodprofd"),
            ],
        );
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "trace: wrote {} span(s) of trace {:032x} to {path}",
            trace.spans.len(),
            trace.trace
        );
    }
    Ok(())
}

static STATS: Command = Command {
    name: "twodprof-client stats",
    positionals: &[],
    about: "fetches a twodprofd's metrics snapshot and prints Prometheus text lines.",
    flags: &[ADDR],
};

/// Entry point for `twodprof-client stats`.
pub fn stats_main(args: &[String]) -> Result<(), String> {
    let m = flags::parse(&STATS, args)?;
    let snapshot =
        fetch_stats(m.value("--addr").unwrap_or(DEFAULT_ADDR)).map_err(|e| e.to_string())?;
    print!("{}", snapshot.to_text());
    Ok(())
}

static WATCH: Command = Command {
    name: "twodprof-client watch",
    positionals: &["PROGRAM"],
    about: "subscribes to PROGRAM's streaming verdicts on a twodprofd: prints the current\n\
            verdict table, then one line per drift event as windows fold.",
    flags: &[
        ADDR,
        switch("--snapshot", "print the table and exit"),
        flag("--limit", "N", "exit after N drift events (0 = never)"),
    ],
};

/// Entry point for `twodprof-client watch`: runs until the daemon closes
/// the stream, `--limit` is reached, or the process is killed.
pub fn watch_main(args: &[String]) -> Result<(), String> {
    let m = flags::parse(&WATCH, args)?;
    let addr = m.value("--addr").unwrap_or(DEFAULT_ADDR);
    let limit: u64 = m.numeric("--limit")?.unwrap_or(0);
    let program = m.positionals()[0];
    if m.switch("--snapshot") {
        let snap = fetch_verdicts(addr, program).map_err(|e| e.to_string())?;
        print_snapshot(&snap, program);
        return Ok(());
    }
    let mut watch = WatchClient::connect(addr, program).map_err(|e| e.to_string())?;
    print_snapshot(watch.snapshot(), program);
    let mut seen = 0u64;
    loop {
        match watch.next_event().map_err(|e| e.to_string())? {
            Some(ev) => {
                println!(
                    "drift: site {} {} -> {} @ epoch {}",
                    ev.site, ev.from, ev.to, ev.epoch
                );
                seen += 1;
                if limit > 0 && seen >= limit {
                    break;
                }
            }
            None => {
                println!("watch: daemon closed the stream after {seen} drift event(s)");
                break;
            }
        }
    }
    Ok(())
}

fn print_snapshot(snap: &VerdictSnapshot, program: &str) {
    let fmt_opt = |v: Option<f64>| match v {
        Some(v) => format!("{v:.4}"),
        None => "-".to_owned(),
    };
    println!(
        "program {program:?}: {} epoch(s) folded, window {} slice(s) of {}, accuracy {}",
        snap.epoch,
        snap.window,
        snap.slice_len,
        fmt_opt(snap.program_accuracy)
    );
    println!(
        "{:>6}  {:<13} {:>7} {:>8} {:>8} {:>8}",
        "site", "verdict", "slices", "mean", "std", "pam"
    );
    for (i, s) in snap.sites.iter().enumerate() {
        println!(
            "{:>6}  {:<13} {:>7} {:>8} {:>8} {:>8}",
            i,
            s.verdict.to_string(),
            s.slices,
            fmt_opt(s.mean),
            fmt_opt(s.std_dev),
            fmt_opt(s.pam_fraction)
        );
    }
}

static DRIVE: Command = Command {
    name: "twodprof-client drive",
    positionals: &["PROGRAM"],
    about: "streams a synthetic phase-changing branch workload to a twodprofd under\n\
            PROGRAM: site 0 flips between always-taken and pseudo-random phases every\n\
            --flip-every events, driving drift visible to `twodprof-client watch`.",
    flags: &[
        ADDR,
        flag("--sites", "N", "branch sites (default 4)"),
        flag("--events", "N", "events to send (default 400000)"),
        flag("--flip-every", "N", "events per phase (default 50000)"),
        flag("--seed", "N", "pseudo-random phase seed"),
        PREDICTOR,
    ],
};

/// Entry point for `twodprof-client drive`. Site 0 carries the paper's
/// input-dependent signature; the remaining sites stay steadily
/// predictable, so a concurrent `watch` sees drift on site 0 only.
pub fn drive_main(args: &[String]) -> Result<(), String> {
    let m = flags::parse(&DRIVE, args)?;
    let addr = m.value("--addr").unwrap_or(DEFAULT_ADDR);
    let sites: u32 = m.at_least_one("--sites")?.unwrap_or(4);
    let events: u64 = m.numeric("--events")?.unwrap_or(400_000);
    let flip_every: u64 = m.at_least_one("--flip-every")?.unwrap_or(50_000);
    let seed: u64 = m.numeric("--seed")?.unwrap_or(0x2545_F491_4F6C_DD1D);
    let predictor = predictor(&m)?;
    let program = m.positionals()[0];
    let slice = SliceConfig::new(8192, 16);
    let mut session = ConnectOptions::new(sites as usize, predictor, slice)
        .program(program)
        .connect(addr)
        .map_err(|e| e.to_string())?;
    let mut rng = seed | 1;
    let mut batch: Vec<(SiteId, bool)> = Vec::with_capacity(DEFAULT_BATCH_EVENTS);
    let mut sent = 0u64;
    for i in 0..events {
        let site = (i % sites as u64) as u32;
        let taken = if site == 0 {
            let phase = (i / flip_every) % 2;
            if phase == 0 {
                true
            } else {
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (rng >> 63) & 1 == 1
            }
        } else {
            // steady alternation: trivially learnable, so these sites stay
            // input-independent and never drift
            (i / sites as u64).is_multiple_of(2)
        };
        batch.push((SiteId(site), taken));
        if batch.len() >= DEFAULT_BATCH_EVENTS {
            session.send_events(&batch).map_err(|e| e.to_string())?;
            sent += batch.len() as u64;
            batch.clear();
            if sent.is_multiple_of(DEFAULT_BATCH_EVENTS as u64 * 16) {
                session.flush().map_err(|e| e.to_string())?;
            }
        }
    }
    if !batch.is_empty() {
        session.send_events(&batch).map_err(|e| e.to_string())?;
    }
    let report = session.finish().map_err(|e| e.to_string())?;
    let report = report.report();
    println!(
        "drove {events} event(s) across {sites} site(s) into program {program:?} at {addr}: \
         {} slice(s), {} predicted input-dependent",
        report.total_slices(),
        report.predicted_dependent().count()
    );
    Ok(())
}

static SOAK: Command = Command {
    name: "twodprof-client soak",
    positionals: &[],
    about: "opens many short profiling sessions against a twodprofd from worker threads.\n\
            Shed sessions retry after the daemon's hint and are counted; the run fails\n\
            if any session errors out or the shed retry rate exceeds --max-shed-pct.",
    flags: &[
        ADDR,
        flag("--sessions", "N", "sessions to open (default 10000)"),
        flag("--concurrency", "N", "worker threads (default 64)"),
        flag("--events", "N", "events per session (default 2000)"),
        flag("--sites", "N", "branch sites per session (default 32)"),
        PROGRAM,
        flag("--max-shed-pct", "F", "shed retry rate gate (default 1.0)"),
        PREDICTOR,
    ],
};

/// Entry point for `twodprof-client soak`, the load generator behind
/// `scripts/ingest_soak.sh`. A failed session, or a shed rate above
/// `--max-shed-pct`, is an error.
pub fn soak_main(args: &[String]) -> Result<(), String> {
    let m = flags::parse(&SOAK, args)?;
    let addr = m.value("--addr").unwrap_or(DEFAULT_ADDR);
    let sessions: u64 = m.at_least_one("--sessions")?.unwrap_or(10_000);
    let concurrency: usize = m.at_least_one("--concurrency")?.unwrap_or(64);
    let events: u64 = m.numeric("--events")?.unwrap_or(2_000);
    let sites: usize = m.at_least_one("--sites")?.unwrap_or(32);
    let program = m.value("--program").unwrap_or_default();
    let max_shed_pct: f64 = m.numeric("--max-shed-pct")?.unwrap_or(1.0);
    let predictor = predictor(&m)?;
    let next = Arc::new(AtomicU64::new(0));
    let sheds = Arc::new(AtomicU64::new(0));
    let degraded = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut workers = Vec::with_capacity(concurrency);
    for w in 0..concurrency {
        let addr = addr.to_owned();
        let program = program.to_owned();
        let next = Arc::clone(&next);
        let sheds = Arc::clone(&sheds);
        let degraded = Arc::clone(&degraded);
        let failures = Arc::clone(&failures);
        let worker = std::thread::Builder::new()
            .name(format!("twodprof-soak-{w}"))
            .spawn(move || {
                let slice = SliceConfig::new(256, 4);
                let mut batch: Vec<(SiteId, bool)> = Vec::with_capacity(events as usize);
                while next.fetch_add(1, Ordering::Relaxed) < sessions {
                    let session = loop {
                        let mut opts = ConnectOptions::new(sites, predictor, slice);
                        if !program.is_empty() {
                            opts = opts.program(&program);
                        }
                        match opts.connect(addr.as_str()) {
                            Ok(s) => break Ok(s),
                            Err(ClientError::Refused { retry_after, .. }) => {
                                sheds.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(retry_after.max(Duration::from_millis(5)));
                            }
                            Err(e) => break Err(e),
                        }
                    };
                    let mut session = match session {
                        Ok(s) => s,
                        Err(e) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                            eprintln!("soak: connect failed: {e}");
                            continue;
                        }
                    };
                    if session.admission_tier() == AdmissionTier::Degrade {
                        degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    batch.clear();
                    for i in 0..events {
                        let site = (i % sites as u64) as u32;
                        // site 0 pseudo-random, the rest steady: a mix of
                        // input-dependent and predictable branches
                        let taken = if site == 0 {
                            (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63) & 1 == 1
                        } else {
                            i.is_multiple_of(2)
                        };
                        batch.push((SiteId(site), taken));
                    }
                    let sent = session
                        .send_events(&batch)
                        .and_then(|()| session.finish().map(|_| ()));
                    if let Err(e) = sent {
                        failures.fetch_add(1, Ordering::Relaxed);
                        eprintln!("soak: session failed: {e}");
                    }
                }
            })
            .map_err(|e| format!("cannot spawn soak worker: {e}"))?;
        workers.push(worker);
    }
    for worker in workers {
        worker
            .join()
            .map_err(|_| "soak worker panicked".to_owned())?;
    }
    let elapsed = start.elapsed();
    let sheds = sheds.load(Ordering::Relaxed);
    let degraded = degraded.load(Ordering::Relaxed);
    let failures = failures.load(Ordering::Relaxed);
    let shed_pct = 100.0 * sheds as f64 / sessions as f64;
    let rate = sessions as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "soak: sessions={sessions} events_per_session={events} concurrency={concurrency} \
         elapsed_s={:.2} rate_per_s={rate:.0} shed_retries={sheds} shed_pct={shed_pct:.3} \
         degraded={degraded} failures={failures}",
        elapsed.as_secs_f64()
    );
    if failures > 0 {
        return Err(format!("soak: {failures} session(s) failed"));
    }
    if shed_pct > max_shed_pct {
        return Err(format!(
            "soak: shed rate {shed_pct:.3}% exceeds gate of {max_shed_pct}%"
        ));
    }
    Ok(())
}

static TOP: Command = Command {
    name: "twodprof-client top",
    positionals: &[],
    about: concat!(
        "live dashboard over one or more twodprofd daemons (default node ",
        default_addr!(),
        "):\nthe shared metrics summary per node, with rates per refresh, and one row per shard."
    ),
    flags: &[
        flag("--node", "HOST:PORT", "daemon to watch; repeat for more"),
        flag("--interval", "SECS", "refresh interval (default 2)"),
        flag("--iterations", "N", "frames to render (0 = until killed)"),
        switch("--no-clear", "append frames instead of repainting"),
    ],
};

/// Entry point for `twodprof-client top`: one frame per refresh renders
/// the shared metrics summary of every `--node` against its previous
/// refresh. Unreachable nodes render as an error row and do not abort the
/// dashboard; a single `--iterations 1` frame never clears the screen.
pub fn top_main(args: &[String]) -> Result<(), String> {
    use std::fmt::Write as _;
    let m = flags::parse(&TOP, args)?;
    let mut nodes: Vec<&str> = m.values("--node").collect();
    if nodes.is_empty() {
        nodes.push(DEFAULT_ADDR);
    }
    let interval = m.seconds("--interval")?.unwrap_or(Duration::from_secs(2));
    let iterations: u64 = m.numeric("--iterations")?.unwrap_or(0);
    let clear = !m.switch("--no-clear");
    let mut last = vec![None; nodes.len()];
    let mut round: u64 = 0;
    loop {
        round += 1;
        let mut frame = String::new();
        let _ = writeln!(
            frame,
            "twodprof top | {} node(s), refresh {:.1}s, frame {round}",
            nodes.len(),
            interval.as_secs_f64()
        );
        for (node, last) in nodes.iter().zip(&mut last) {
            match fetch_stats(*node) {
                Ok(snap) => {
                    let _ = writeln!(frame, "node {node}");
                    crate::summary::render(
                        &mut frame,
                        "  ",
                        &snap,
                        last.as_ref(),
                        interval.as_secs_f64(),
                    );
                    *last = Some(snap);
                }
                Err(e) => {
                    let _ = writeln!(frame, "node {node}: unreachable ({e})");
                    *last = None;
                }
            }
        }
        if clear && iterations != 1 {
            // ANSI clear + home: repaint in place like top(1)
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        if iterations != 0 && round >= iterations {
            break;
        }
        std::thread::sleep(interval);
    }
    Ok(())
}

static BLACKBOX: Command = Command {
    name: "twodprof-client blackbox",
    positionals: &[],
    about: "prints the flight recorder's ring of notable daemon events (decode errors,\n\
            tier transitions, spills, aborts, slow ticks), oldest first.",
    flags: &[
        ADDR,
        flag("--file", "PATH", "decode a SIGUSR1/panic dump instead"),
    ],
};

/// Entry point for `twodprof-client blackbox`. Decoding a dump verifies
/// its checksum, so a torn dump fails loudly instead of printing garbage.
pub fn blackbox_main(args: &[String]) -> Result<(), String> {
    let m = flags::parse(&BLACKBOX, args)?;
    let events = match m.value("--file") {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            crate::flight::decode(&bytes).map_err(|e| format!("{path}: {e}"))?
        }
        None => {
            fetch_blackbox(m.value("--addr").unwrap_or(DEFAULT_ADDR)).map_err(|e| e.to_string())?
        }
    };
    println!("blackbox: {} event(s)", events.len());
    for event in &events {
        println!("{event}");
    }
    Ok(())
}

/// Installs SIGINT/SIGTERM handlers that request a graceful shutdown, and a
/// SIGUSR1 handler that requests a flight-recorder (blackbox) dump.
///
/// Uses the C `signal` entry point directly (std links libc anyway) to stay
/// dependency-free; every handler body is an atomic store plus one
/// `write(2)` to the accept loop's waker, both async-signal-safe. The
/// actual dump happens on the accept loop, off the signal stack.
#[cfg(unix)]
fn install_signal_handlers(handle: ServerHandle) {
    static HANDLE: OnceLock<ServerHandle> = OnceLock::new();
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SIGUSR1: i32 = 10;
    extern "C" fn on_signal(signum: i32) {
        if let Some(handle) = HANDLE.get() {
            if signum == SIGUSR1 {
                handle.request_dump();
            } else {
                handle.shutdown();
            }
        }
    }
    let _ = HANDLE.set(handle);
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGUSR1, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers(_handle: ServerHandle) {}

/// Wraps the default panic hook so a crashing daemon leaves a blackbox dump
/// behind (the same file `SIGUSR1` writes) before the usual backtrace.
fn install_panic_dump(handle: ServerHandle) {
    static PANIC_HANDLE: OnceLock<ServerHandle> = OnceLock::new();
    if PANIC_HANDLE.set(handle).is_err() {
        return;
    }
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(handle) = PANIC_HANDLE.get() {
            match handle.dump_blackbox() {
                Ok(path) => eprintln!("[twodprofd] panic: blackbox dumped to {}", path.display()),
                Err(e) => eprintln!("[twodprofd] panic: blackbox dump failed: {e}"),
            }
        }
        default_hook(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    /// Every flag each entry point accepted before the parse tables, with
    /// a sample value for a flag that takes one and `None` for a switch.
    #[allow(clippy::type_complexity)]
    const ACCEPTED: &[(&str, &[(&str, Option<&str>)])] = &[
        (
            "twodprofd",
            &[
                ("--addr", Some("127.0.0.1:0")),
                ("--addr-file", Some("a.txt")),
                ("--http-addr", Some("127.0.0.1:0")),
                ("--http-addr-file", Some("h.txt")),
                ("--timeline-interval", Some("0.5")),
                ("--blackbox-file", Some("b.bin")),
                ("--max-sessions", Some("8")),
                ("--max-events", Some("8")),
                ("--idle-timeout-ms", Some("8")),
                ("--drain-timeout-ms", Some("8")),
                ("--retry-after-ms", Some("8")),
                ("--shards", Some("2")),
                ("--shard-memory-budget", Some("4096")),
                ("--spill-threshold", Some("4096")),
                ("--spill-dir", Some("spill")),
                ("--quiet", None),
                ("--no-record", None),
                ("--stats-interval", Some("1")),
                ("--stream-slice-len", Some("64")),
                ("--stream-exec-threshold", Some("4")),
                ("--stream-window", Some("4")),
                ("--stream-hysteresis", Some("2")),
                ("--stream-max-lag", Some("4")),
                ("--max-subscriber-queue", Some("8")),
                ("--compute", None),
                ("--compute-threads", Some("2")),
                ("--compute-cache-dir", Some("cache")),
            ],
        ),
        (
            "twodprof-client replay",
            &[
                ("--addr", Some("127.0.0.1:1")),
                ("--scale", Some("tiny")),
                ("--predictor", Some("gshare4kb")),
                ("--batch", Some("64")),
                ("--slice-len", Some("64")),
                ("--exec-threshold", Some("4")),
                ("--verify", None),
                ("--trace-out", Some("t.json")),
                ("--program", Some("p")),
            ],
        ),
        ("twodprof-client stats", &[("--addr", Some("127.0.0.1:1"))]),
        (
            "twodprof-client watch",
            &[
                ("--addr", Some("127.0.0.1:1")),
                ("--snapshot", None),
                ("--limit", Some("1")),
            ],
        ),
        (
            "twodprof-client drive",
            &[
                ("--addr", Some("127.0.0.1:1")),
                ("--sites", Some("4")),
                ("--events", Some("100")),
                ("--flip-every", Some("10")),
                ("--seed", Some("7")),
                ("--predictor", Some("gshare4kb")),
            ],
        ),
        (
            "twodprof-client soak",
            &[
                ("--addr", Some("127.0.0.1:1")),
                ("--sessions", Some("1")),
                ("--concurrency", Some("1")),
                ("--events", Some("10")),
                ("--sites", Some("2")),
                ("--program", Some("p")),
                ("--max-shed-pct", Some("2.5")),
                ("--predictor", Some("gshare4kb")),
            ],
        ),
        (
            "twodprof-client top",
            &[
                ("--node", Some("127.0.0.1:1")),
                ("--interval", Some("0.5")),
                ("--iterations", Some("1")),
                ("--no-clear", None),
            ],
        ),
        (
            "twodprof-client blackbox",
            &[("--addr", Some("127.0.0.1:1")), ("--file", Some("b.bin"))],
        ),
    ];

    #[test]
    fn every_flag_accepted_before_the_tables_still_parses_with_its_arity() {
        let commands = [
            &SERVE, &REPLAY, &STATS, &WATCH, &DRIVE, &SOAK, &TOP, &BLACKBOX,
        ];
        assert_eq!(commands.len(), ACCEPTED.len());
        for (cmd, (name, accepted)) in commands.into_iter().zip(ACCEPTED) {
            assert_eq!(cmd.name, *name);
            assert_eq!(cmd.flags.len(), accepted.len(), "{name}: a flag was added");
            let positionals = vec!["p"; cmd.positionals.len()];
            for &(flag, value) in *accepted {
                let mut line = args(&positionals);
                line.push(flag.to_owned());
                let parse = |line: &[String]| flags::parse(cmd, line).map(|m| m.switch(flag));
                match value {
                    Some(v) => {
                        assert_eq!(parse(&line), Err(format!("{flag} needs a value")));
                        line.push(v.to_owned());
                        let m = flags::parse(cmd, &line).expect("value flag parses");
                        assert_eq!(m.value(flag), Some(v), "{name} {flag}");
                    }
                    None => assert_eq!(parse(&line), Ok(true), "{name} {flag}"),
                }
            }
        }
    }

    #[test]
    fn a_program_named_after_its_subcommand_reaches_the_entry_point() {
        fn expect(cmd: &Command, args: &[String], program: &str) -> Result<(), String> {
            let m = flags::parse(cmd, args)?;
            assert_eq!(m.positionals(), [program]);
            assert_eq!(m.value("--addr"), Some("127.0.0.1:1"));
            Ok(())
        }
        let table: &[Subcommand] = &[
            ("watch", |a| expect(&WATCH, a, "watch")),
            ("drive", |a| expect(&DRIVE, a, "drive")),
        ];
        for name in ["watch", "drive"] {
            let line = args(&[name, name, "--addr", "127.0.0.1:1"]);
            assert_eq!(run_subcommand("t", table, None, &line), Ok(()));
        }
    }

    #[test]
    fn subcommands_dispatch_by_name_or_fall_back() {
        let table: &[Subcommand] = &[("one", |a| Err(format!("one {a:?}")))];
        let run = |fallback, line: &[&str]| run_subcommand("t", table, fallback, &args(line));
        assert_eq!(run(None, &["one", "x"]), Err("one [\"x\"]".to_owned()));
        let fallback: Entry = |a| Err(format!("fallback {a:?}"));
        assert_eq!(
            run(Some(fallback), &["two", "x"]),
            Err("fallback [\"two\", \"x\"]".to_owned())
        );
        assert_eq!(run(None, &["--help"]), Ok(()));
        let unknown = run(None, &["gzip", "train"]).expect_err("unknown");
        assert!(
            unknown.starts_with("unknown subcommand \"gzip\""),
            "{unknown}"
        );
        assert!(unknown.contains("subcommands: one"), "{unknown}");
        assert!(run(None, &[])
            .expect_err("missing")
            .starts_with("usage: t SUBCOMMAND"));
    }
}
