//! The traced run's per-layer side: layer probes timed by the benchmark's
//! own `obs::trace` spans, and the roll-up of every span (the program's
//! and the benchmark's) into calls, total, self time and share of wall.
//!
//! The probes call each layer's public functions directly on the `train`
//! trace of every workload (16.2M events at `Scale::Small`), the same input
//! in every workload's traced run, so per-layer figures compare across
//! workloads and commits.

use crate::sweep::{ScalarAccuracy, ScalarTwoD};
use bpred::bitslice::SurveyFused;
use bpred::{site_pc, PredictorKind};
use btrace::{RecordedTrace, SiteId, SiteRun, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use twodprof_engine::{DiskCache, JobOutput, JobSpec, TraceRef};
use twodprof_obs::chrome;
use twodprof_obs::trace::{collector, ExportSpan, Span};
use twodprof_serve::wire::{ClientFrame, FrameDecoder};
use twodprof_serve::DEFAULT_BATCH_EVENTS;
use twodprof_stream::{StreamConfig, StreamingProfiler};
use workloads::Scale;

/// Site runs handed to one `SurveyFused::run_segment` call.
const SEGMENT_RUNS: usize = 1 << 16;

/// Bytes handed to the frame decoder per push, as one socket read would.
const READ_CHUNK: usize = 64 << 10;

/// Program spans whose self time the traced run reports as a share of the
/// traced operations' wall time.
const SHARED_SPANS: &[(&str, &str)] = &[
    ("engine.record", "rollup.engine.record.self_share"),
    ("engine.bitslice", "rollup.engine.bitslice.self_share"),
    ("engine.fused_chunk", "rollup.engine.fused_chunk.self_share"),
    ("engine.cache_write", "rollup.engine.cache_write.self_share"),
    ("engine.probe", "rollup.engine.probe.self_share"),
    ("serve.frame.events", "rollup.serve.frame.events.self_share"),
    ("serve.frame.finish", "rollup.serve.frame.finish.self_share"),
    ("stream.fold", "rollup.stream.fold.self_share"),
];

/// Spans kept for the roll-up.
#[derive(Default)]
pub struct SpanLog {
    spans: Vec<ExportSpan>,
}

impl SpanLog {
    /// Drops every span finished so far.
    pub fn discard(&self) {
        collector().drain();
    }

    /// Keeps the finished spans that started inside `[from_us, to_us]`.
    pub fn keep_window(&mut self, from_us: u64, to_us: u64) {
        self.spans.extend(
            collector()
                .drain()
                .into_iter()
                .filter(|s| (from_us..=to_us).contains(&s.start_us)),
        );
    }

    /// Keeps every finished span.
    pub fn keep_all(&mut self) {
        self.spans.extend(collector().drain());
    }
}

/// Per-event layer metrics and the probe span each is derived from.
const PER_EVENT: &[(&str, &str)] = &[
    ("workloads.record_ns_per_event", "bench.workloads.record"),
    ("btrace.site_runs_ns_per_event", "bench.btrace.site_runs"),
    ("bpred.bitslice_ns_per_event", "bench.bpred.bitslice"),
    ("bpred.perceptron_ns_per_event", "bench.bpred.perceptron"),
    ("bpred.gshare_ns_per_event", "bench.bpred.gshare"),
    ("core.twod_ns_per_event", "bench.core.twod"),
    ("serve.wire_encode_ns_per_event", "bench.serve.wire_encode"),
    ("serve.wire_decode_ns_per_event", "bench.serve.wire_decode"),
    ("stream.fold_ns_per_event", "bench.stream.fold"),
];

/// Events and cache entries the probes covered.
pub struct Probe {
    events: u64,
    entries: u64,
    entry_bytes: u64,
}

impl Probe {
    /// Per-layer figures derived from the roll-up of the probe spans.
    pub fn metrics(&self, rollup: &Rollup) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = PER_EVENT
            .iter()
            .map(|&(metric, span)| {
                (
                    metric,
                    rollup.total_us(span) as f64 * 1e3 / self.events as f64,
                )
            })
            .collect();
        let entries = self.entries as f64;
        out.push((
            "engine.cache_store_us",
            rollup.total_us("bench.engine.cache_store") as f64 / entries,
        ));
        out.push((
            "engine.cache_bytes_per_entry",
            self.entry_bytes as f64 / entries,
        ));
        out
    }
}

/// Calls every layer on the `train` trace of each workload, one span per
/// call, and keeps the spans in `log`.
pub fn probe_layers(log: &mut SpanLog, run_dir: &Path) -> Probe {
    log.discard();
    let cache_dir = run_dir.join("probe-cache");
    let cache = DiskCache::open(&cache_dir).expect("probe cache directory");
    let mut probe = Probe {
        events: 0,
        entries: 0,
        entry_bytes: 0,
    };
    for w in workloads::suite(Scale::Small) {
        let input = w.input_set("train").expect("every workload has train");
        let sites = w.sites().len();
        let trace = {
            let _s = Span::root("bench.workloads.record");
            let mut t = RecordedTrace::new(sites);
            w.run(&input, &mut t);
            t
        };
        probe.events += trace.events();
        {
            let _s = Span::root("bench.btrace.site_runs");
            black_box(trace.site_runs().fold(0u64, |n, r| n + r.len as u64));
        }
        let mut fused = SurveyFused::new();
        let mut correct = vec![[0u64; 10]; sites];
        let mut segment: Vec<SiteRun> = Vec::with_capacity(SEGMENT_RUNS);
        let mut runs = trace.site_runs().peekable();
        while runs.peek().is_some() {
            segment.clear();
            segment.extend(runs.by_ref().take(SEGMENT_RUNS));
            let _s = Span::root("bench.bpred.bitslice");
            fused.run_segment(&segment, &mut correct);
        }
        black_box(&correct);
        drop(segment);
        let accuracy = {
            let _s = Span::root("bench.bpred.gshare");
            PredictorKind::Gshare4Kb.host(ScalarAccuracy(&trace))
        };
        {
            let _s = Span::root("bench.bpred.perceptron");
            black_box(PredictorKind::Perceptron16Kb.host(ScalarAccuracy(&trace)));
        }
        let report = {
            let _s = Span::root("bench.core.twod");
            PredictorKind::Gshare4Kb.host(ScalarTwoD(&trace))
        };
        let acc_spec = JobSpec::accuracy(w.name(), "train", Scale::Small, PredictorKind::Gshare4Kb);
        let twod_spec = JobSpec::two_d(w.name(), "train", Scale::Small, PredictorKind::Gshare4Kb);
        let trace = Arc::new(trace);
        let entries = [
            (
                TraceRef::of_spec(&acc_spec).spec(),
                JobOutput::Trace(Arc::clone(&trace)),
            ),
            (acc_spec, JobOutput::Accuracy(Arc::new(accuracy))),
            (twod_spec, JobOutput::Report(Arc::new(report))),
        ];
        for (spec, output) in &entries {
            {
                let _s = Span::root("bench.engine.cache_store");
                cache.store(spec, output).expect("probe cache store");
            }
            probe.entries += 1;
            probe.entry_bytes += std::fs::metadata(cache.entry_path(spec))
                .map(|m| m.len())
                .expect("stored entry");
        }
        drop(entries);

        let mut events = Collect(Vec::with_capacity(trace.events() as usize));
        trace.replay_into(&mut events);
        let events = events.0;
        let mut wire = Vec::new();
        {
            let _s = Span::root("bench.serve.wire_encode");
            for chunk in events.chunks(DEFAULT_BATCH_EVENTS) {
                ClientFrame::Events(chunk.to_vec())
                    .write_to(&mut wire)
                    .expect("write to memory");
            }
        }
        let mut decoded = 0;
        {
            let _s = Span::root("bench.serve.wire_decode");
            let mut decoder = FrameDecoder::new();
            for piece in wire.chunks(READ_CHUNK) {
                decoder.push(piece);
                while let Some(frame) = decoder.next_client().expect("well-formed frames") {
                    if let ClientFrame::Events(batch) = frame {
                        decoded += batch.len();
                    }
                }
            }
        }
        assert_eq!(decoded, events.len(), "decoder lost events");
        drop(wire);
        // the daemon feeds the stream fold from its session profiler's
        // per-event outcomes; replicate them with the session predictor
        let mut predictor = PredictorKind::Gshare4Kb.build();
        let outcomes: Vec<bool> = events
            .iter()
            .map(|&(s, t)| predictor.predict_and_train(site_pc(SiteId(s)), t) == t)
            .collect();
        {
            let _s = Span::root("bench.stream.fold");
            fold(sites, &events, &outcomes);
        }
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(&cache_dir);
    log.keep_all();
    probe
}

/// Feeds one session's outcomes through a streaming profiler the way a
/// shard does: tally a slice-bounded chunk, advance once, ingest.
fn fold(sites: usize, events: &[(u32, bool)], outcomes: &[bool]) {
    let mut profiler = StreamingProfiler::new(sites, StreamConfig::default());
    let mut session = profiler.begin_session();
    let mut drift = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let n = (session.slice_remaining() as usize).min(events.len() - i);
        for j in i..i + n {
            session.tally(SiteId(events[j].0), outcomes[j]);
        }
        session.advance(n as u64);
        profiler.ingest(&mut session, &mut drift);
        i += n;
    }
    profiler.finish_session(session, &mut drift);
    black_box(profiler.folded_epochs());
}

/// A tracer that keeps every event, as a client would hand them to the wire.
struct Collect(Vec<(u32, bool)>);

impl Tracer for Collect {
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.0.push((site.0, taken));
    }
}

/// Tracing overhead: the gap between untraced and traced throughput
/// measured in the same process.
pub fn overhead(traced: f64, untraced: f64) -> [(&'static str, f64); 3] {
    [
        ("trace.events_per_s_traced", traced),
        ("trace.events_per_s_untraced", untraced),
        ("trace.overhead_pct", 100.0 * (untraced - traced) / untraced),
    ]
}

#[derive(Default)]
struct Row {
    calls: u64,
    total_us: u64,
    self_us: u64,
    durations_us: Vec<u64>,
}

/// Spans rolled up by name, read back from their Chrome trace export.
pub struct Rollup {
    rows: BTreeMap<String, Row>,
    wall_us: u64,
}

impl Rollup {
    /// Exports `log` with `obs::chrome` to `.bench_out/`, parses the export
    /// back, and rolls it up; `wall_us` is the traced operations' wall time.
    pub fn export(log: &SpanLog, workload: &str, seed: u64, wall_us: u64) -> Self {
        let json = chrome::to_json(&log.spans, &[(1, "benchmark")]);
        let stem = format!(".bench_out/{workload}-seed{seed}");
        if let Err(e) = std::fs::write(format!("{stem}-trace.json"), &json) {
            eprintln!("[bench] cannot write the trace export: {e}");
        }
        let events = chrome::parse_events(&json).expect("the exporter's own output parses");
        drop(json);
        let mut index: HashMap<(&str, &str), usize> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            index.insert((e.trace.as_str(), e.span.as_str()), i);
        }
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); events.len()];
        for e in &events {
            if let Some(&p) = index.get(&(e.trace.as_str(), e.parent.as_str())) {
                children[p].push((e.ts, e.ts + e.dur));
            }
        }
        let mut rows: BTreeMap<String, Row> = BTreeMap::new();
        for (e, kids) in events.iter().zip(&mut children) {
            let row = rows.entry(e.name.clone()).or_default();
            row.calls += 1;
            row.total_us += e.dur;
            row.self_us += e.dur - covered(e.ts, e.ts + e.dur, kids);
            row.durations_us.push(e.dur);
        }
        let rollup = Self { rows, wall_us };
        let table = rollup.table();
        eprint!("{table}");
        if let Err(e) = std::fs::write(format!("{stem}-rollup.txt"), table) {
            eprintln!("[bench] cannot write the roll-up: {e}");
        }
        rollup
    }

    pub fn total_us(&self, name: &str) -> u64 {
        self.rows.get(name).map_or(0, |r| r.total_us)
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.rows.get(name).map_or_else(Vec::new, |r| {
            r.durations_us.iter().map(|&d| d as f64 / 1e3).collect()
        })
    }

    /// Self time of each reported program span over the traced wall time.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        SHARED_SPANS
            .iter()
            .map(|&(span, metric)| {
                let own = self.rows.get(span).map_or(0, |r| r.self_us);
                (metric, own as f64 / self.wall_us.max(1) as f64)
            })
            .collect()
    }

    fn table(&self) -> String {
        let mut out = format!(
            "[bench] span roll-up (traced wall {:.3}s)\n{:<28} {:>9} {:>12} {:>12} {:>9}\n",
            self.wall_us as f64 / 1e6,
            "span",
            "calls",
            "total_ms",
            "self_ms",
            "self/wall"
        );
        for (name, r) in &self.rows {
            let _ = writeln!(
                out,
                "{name:<28} {:>9} {:>12.3} {:>12.3} {:>9.4}",
                r.calls,
                r.total_us as f64 / 1e3,
                r.self_us as f64 / 1e3,
                r.self_us as f64 / self.wall_us.max(1) as f64
            );
        }
        out
    }
}

/// Microseconds of `[start, end)` covered by the union of `intervals`
/// (sorted in place).
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}
