//! End-to-end and per-layer benchmark of `twodprof`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload survey-cold|paper-cold|ingest-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; with
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. The line before it is a host-noise record. Any failed
//! output check prints the result with `"correct": false` and exits 1.
//! `README.md` beside this file explains the workloads and metrics.

mod host;
mod ingest;
mod layers;
mod stats;
mod sweep;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The per-layer metrics every traced run reports, in `BENCHMARK.json`
/// order. A layer a workload never exercises reads 0 (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.record_ns_per_event", "ns"),
    ("btrace.site_runs_ns_per_event", "ns"),
    ("bpred.bitslice_ns_per_event", "ns"),
    ("bpred.perceptron_ns_per_event", "ns"),
    ("bpred.gshare_ns_per_event", "ns"),
    ("core.twod_ns_per_event", "ns"),
    ("engine.cache_store_us", "us"),
    ("engine.cache_bytes_per_entry", "bytes"),
    ("engine.worker_busy_share", "ratio"),
    ("engine.traces_recorded", "count"),
    ("engine.replays", "count"),
    ("engine.bitsliced", "count"),
    ("serve.connect_p50_ms", "ms"),
    ("serve.connect_p90_ms", "ms"),
    ("serve.finish_p50_ms", "ms"),
    ("serve.send_ns_per_event", "ns"),
    ("serve.wire_encode_ns_per_event", "ns"),
    ("serve.wire_decode_ns_per_event", "ns"),
    ("stream.fold_ns_per_event", "ns"),
    ("serve.shard_ticks", "count"),
    ("serve.shard_tick_mean_us", "us"),
    ("serve.shard_lag_mean_us", "us"),
    ("serve.spill_segments", "count"),
    ("serve.spill_bytes", "bytes"),
    ("serve.admit_accept", "count"),
    ("serve.admit_degrade", "count"),
    ("serve.admit_shed", "count"),
    ("serve.frame_decode_errors", "count"),
    ("stream.epochs_folded", "count"),
    ("rollup.engine.record.self_share", "ratio"),
    ("rollup.engine.bitslice.self_share", "ratio"),
    ("rollup.engine.fused_chunk.self_share", "ratio"),
    ("rollup.engine.cache_write.self_share", "ratio"),
    ("rollup.engine.probe.self_share", "ratio"),
    ("rollup.serve.frame.events.self_share", "ratio"),
    ("rollup.serve.frame.finish.self_share", "ratio"),
    ("rollup.stream.fold.self_share", "ratio"),
    ("trace.events_per_s_traced", "1/s"),
    ("trace.events_per_s_untraced", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value:?}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?.max(1)),
                "--trace" => trace = Some(num()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// The timed budget: operations start while less than this has passed.
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Failed output checks, one line each.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(msg());
        }
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty() && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The end-to-end figures every workload reports.
pub struct EndToEnd {
    pub setup_s: f64,
    pub events: u64,
    pub timed: Duration,
    pub ops: u64,
    /// Per-operation latencies (sessions, or whole sweep passes).
    pub latencies: Vec<Duration>,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn report(&self, out: &mut Outcome) {
        let secs = self.timed.as_secs_f64();
        let mut lat: Vec<f64> = self
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        out.metric("setup_s", self.setup_s, "s");
        out.metric("events_per_s", self.events as f64 / secs, "1/s");
        out.metric("peak_rss_mb", self.peak_rss_mb, "MB");
        out.metric("sessions_per_s", self.ops as f64 / secs, "1/s");
        out.metric("session_p50_ms", stats::percentile(&mut lat, 0.50), "ms");
        out.metric("session_p90_ms", stats::percentile(&mut lat, 0.90), "ms");
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    fn create() -> std::io::Result<Self> {
        let dir = Path::new(".bench_out").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `setup` [`SETUPS`] times, keeping the last result; returns it with
/// the median set-up time in seconds. Earlier results are dropped (and so
/// torn down) before the next set-up starts.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        stats::percentile(&mut times, 0.5),
    )
}

/// Fills in every per-layer metric the workload did not measure with 0,
/// keeping `PER_LAYER` order.
pub fn per_layer(out: &mut Outcome, measured: &[(&str, f64)]) {
    for (name, unit) in PER_LAYER {
        let value = measured
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        out.metric(name, value, unit);
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    let dir = match RunDir::create() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("benchmark: cannot create .bench_out: {e}");
            std::process::exit(2);
        }
    };
    let before = host::Sample::now();
    let outcome = match args.workload.as_str() {
        "survey-cold" => sweep::run(&args, sweep::Grid::Survey, &dir),
        "paper-cold" => sweep::run(&args, sweep::Grid::Paper, &dir),
        "ingest-mix" => ingest::run(&args, &dir),
        other => {
            eprintln!("benchmark: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let noise = host::record(&before, &host::Sample::now(), &outcome);
    eprintln!("[bench] host {noise}");
    for e in &outcome.errors {
        eprintln!("[bench] CHECK FAILED: {e}");
    }
    drop(dir);
    println!("{{\"host\": {noise}}}");
    println!("{}", outcome.to_json());
    if !outcome.errors.is_empty() || outcome.failed > 0 {
        std::process::exit(1);
    }
}
