//! The decoder suite: every binary format in the workspace, fed seeded
//! random bytes, every truncation of a valid encoding, and a hostile
//! header that declares its largest count or length and then ends.
//!
//! Random bytes can form a valid encoding of a format without a checksum
//! (four small bytes are a drift event), so for them a decoder need only
//! return; every strict prefix of a valid encoding must be an `Err`. The
//! hostile headers run under a counting global allocator: no decode may
//! allocate more than [`ALLOCATION_BOUND`] bytes, whatever its input
//! declares. The wire frames' own truncation and trailing-byte properties
//! live in `wire_props.rs`, the 2DPR trace's in btrace's `recorded_props.rs`.

use bpred::{AccuracyProfile, Gshare, PredictorKind, PredictorSim};
use btrace::serial::{Fnv1a, MAX_RESERVE};
use btrace::{write_varint, RecordedTrace, SiteId, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use twodprof_core::{Classification, ProfileReport, SliceConfig, Thresholds, TwoDProfiler};
use twodprof_engine::{CacheLookup, DiskCache, JobKind, JobOutput, JobSpec};
use twodprof_obs::trace::{decode_spans, encode_spans, ExportSpan, MAX_WIRE_SPANS};
use twodprof_obs::{Registry, Snapshot};
use twodprof_serve::flight::{self, FlightEvent, FlightKind};
use twodprof_serve::wire::{
    ClientFrame, ServerFrame, MAX_EVENTS_PER_FRAME, MAX_PROGRAM_LEN, MAX_RESULT_PAYLOAD,
};
use twodprof_stream::{DriftEvent, SiteVerdict, VerdictSnapshot};
use workloads::Scale;

/// Most bytes one decode of a hostile header may allocate: room for the
/// two declared-count reservations an accuracy profile makes, each within
/// the shared [`MAX_RESERVE`], plus small change for error values.
const ALLOCATION_BOUND: usize = 4 * MAX_RESERVE;

/// Counts the bytes each thread requests while it measures.
struct Counting;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if MEASURING.with(Cell::get) {
        REQUESTED.with(|r| r.set(r.get().saturating_add(bytes)));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// thread-locals are const-initialised and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes requested on this thread while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    REQUESTED.with(|r| r.set(0));
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, REQUESTED.with(Cell::get))
}

/// One decoder under test, taking a whole input.
type Decoder = Box<dyn Fn(&[u8]) -> io::Result<()>>;

fn decoder<T>(decode: impl Fn(&[u8]) -> io::Result<T> + 'static) -> Decoder {
    Box::new(move |bytes| decode(bytes).map(drop))
}

fn varints(values: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    for &v in values {
        write_varint(&mut buf, v).expect("vec write");
    }
    buf
}

fn with_checksum(mut body: Vec<u8>) -> Vec<u8> {
    let sum = Fnv1a::hash(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

fn trace() -> RecordedTrace {
    let mut t = RecordedTrace::new(3);
    for i in 0..200u32 {
        t.branch(SiteId(i % 3), i % 5 != 0);
    }
    t
}

fn report() -> ProfileReport {
    let mut p = TwoDProfiler::with_series(3, Gshare::new(8, 8), SliceConfig::new(50, 2));
    trace().replay_into(&mut p);
    p.finish(Thresholds::paper())
}

fn accuracy() -> AccuracyProfile {
    let mut sim = PredictorSim::new(3, Gshare::new(8, 8));
    trace().replay_into(&mut sim);
    sim.into_profile()
}

fn spec() -> JobSpec {
    JobSpec::two_d("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb)
}

fn read_accuracy(bytes: &[u8]) -> io::Result<AccuracyProfile> {
    btrace::serial::read_whole(bytes, |r| AccuracyProfile::read_from(r))
}

fn verdicts() -> VerdictSnapshot {
    let site = SiteVerdict {
        verdict: Classification::Dependent,
        slices: 4,
        mean: Some(0.75),
        std_dev: Some(0.125),
        pam_fraction: None,
    };
    VerdictSnapshot {
        epoch: 9,
        window: 4,
        slice_len: 64,
        program_accuracy: Some(0.5),
        sites: vec![site; 3],
    }
}

fn spans() -> Vec<u8> {
    let span = |id| ExportSpan {
        trace: 7,
        id,
        parent: id - 1,
        name: "serve.frame".to_owned(),
        start_us: 10 * id,
        dur_us: 3,
        tid: 1,
        pid: 0,
    };
    encode_spans(7, &[span(1), span(2)])
}

fn flight_events() -> Vec<u8> {
    flight::encode_events(&[FlightEvent {
        at_millis: 12,
        kind: FlightKind::Shed,
        shard: 1,
        conn: 4,
        detail: "budget".to_owned(),
    }])
}

fn snapshot() -> Vec<u8> {
    let registry = Registry::new(true);
    registry.counter("jobs_total", "Jobs.").add(3);
    registry.gauge("depth", "Depth.").set(-2);
    registry.histogram("micros", "Time.").observe(40);
    registry.snapshot().to_bytes()
}

/// A cache directory removed when dropped.
struct TempCache {
    cache: DiskCache,
    dir: PathBuf,
}

impl TempCache {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "twodprof_decoders_{tag}_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let cache = DiskCache::open(&dir).expect("cache dir");
        Self { cache, dir }
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The results file holding `spec()`'s report, decoded through
/// [`DiskCache::lookup`]: the decoder writes its input over the file, and
/// anything but a hit is an error.
fn results_file() -> (Decoder, Vec<u8>) {
    let temp = TempCache::new("results");
    temp.cache
        .store(&spec(), &JobOutput::Report(Arc::new(report())))
        .expect("store");
    let path = temp.cache.entry_path(&spec());
    let valid = std::fs::read(&path).expect("results file");
    let decode = decoder(move |bytes: &[u8]| {
        std::fs::write(&path, bytes)?;
        match temp.cache.lookup(&spec()) {
            CacheLookup::Hit(_) => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{other:?}"),
            )),
        }
    });
    (decode, valid)
}

/// Every decoder with one valid encoding of its format.
fn formats() -> Vec<(&'static str, Decoder, Vec<u8>)> {
    let payload = |output: JobOutput| output.to_payload();
    let mut spec_bytes = Vec::new();
    spec().encode_into(&mut spec_bytes);
    let mut accuracy_bytes = Vec::new();
    accuracy().write_to(&mut accuracy_bytes).expect("vec write");
    let acc_kind = JobKind::Accuracy(PredictorKind::Gshare4Kb);
    let twod_kind = JobKind::TwoD(PredictorKind::Gshare4Kb);
    let (results_decoder, results_bytes) = results_file();
    vec![
        (
            "2DPR trace",
            decoder(RecordedTrace::from_bytes),
            trace().to_bytes(),
        ),
        ("results file", results_decoder, results_bytes),
        (
            "profile report",
            decoder(ProfileReport::from_bytes),
            report().to_bytes(),
        ),
        ("accuracy profile", decoder(read_accuracy), accuracy_bytes),
        (
            "job spec",
            decoder(|b| btrace::serial::read_whole(b, JobSpec::decode_from)),
            spec_bytes,
        ),
        (
            "count payload",
            decoder(|b| JobOutput::from_payload(JobKind::BranchCount, b)),
            payload(JobOutput::Count(1 << 40)),
        ),
        (
            "accuracy payload",
            decoder(move |b| JobOutput::from_payload(acc_kind, b)),
            payload(JobOutput::Accuracy(Arc::new(accuracy()))),
        ),
        (
            "report payload",
            decoder(move |b| JobOutput::from_payload(twod_kind, b)),
            payload(JobOutput::Report(Arc::new(report()))),
        ),
        (
            "trace payload",
            decoder(|b| JobOutput::from_payload(JobKind::Trace, b)),
            payload(JobOutput::Trace(Arc::new(trace()))),
        ),
        ("metric snapshot", decoder(Snapshot::from_bytes), snapshot()),
        ("span block", decoder(decode_spans), spans()),
        ("flight dump", decoder(flight::decode), flight_events()),
        (
            "drift event",
            decoder(DriftEvent::from_bytes),
            DriftEvent {
                site: 300,
                epoch: 1 << 33,
                from: Classification::Independent,
                to: Classification::Dependent,
            }
            .to_bytes(),
        ),
        (
            "verdict snapshot",
            decoder(VerdictSnapshot::from_bytes),
            verdicts().to_bytes(),
        ),
    ]
}

/// A deterministic byte stream (xorshift64*).
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

#[test]
fn valid_encodings_decode() {
    for (name, decode, bytes) in formats() {
        decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn every_truncation_is_an_error() {
    for (name, decode, bytes) in formats() {
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "{name}: prefix of {len} bytes decoded"
            );
        }
    }
}

#[test]
fn random_bytes_never_panic() {
    for (index, (_, decode, valid)) in formats().into_iter().enumerate() {
        for seed in 0..300u64 {
            let noise = random_bytes(seed * 31 + index as u64, (seed % 48) as usize);
            let _ = decode(&noise);
            // the same noise behind a valid encoding's first bytes reaches
            // past the version and magic checks
            let mut prefixed = valid[..valid.len().min(seed as usize % 8)].to_vec();
            prefixed.extend_from_slice(&noise);
            let _ = decode(&prefixed);
        }
    }
}

#[test]
fn random_cache_entries_are_corrupt() {
    let temp = TempCache::new("random");
    let cache = &temp.cache;
    let report_spec = spec();
    let trace_spec = JobSpec::trace("gzip", "train", Scale::Tiny);
    cache
        .store(&report_spec, &JobOutput::Report(Arc::new(report())))
        .expect("store");
    cache
        .store(&trace_spec, &JobOutput::Trace(Arc::new(trace())))
        .expect("store");
    // the results file holding the report, then the trace entry
    for spec in [report_spec, trace_spec] {
        let path = cache.entry_path(&spec);
        let valid = std::fs::read(&path).expect("entry");
        for len in 0..valid.len() {
            std::fs::write(&path, &valid[..len]).expect("write");
            assert!(
                matches!(cache.lookup(&spec), CacheLookup::Corrupt),
                "{}: prefix {len}",
                spec.describe()
            );
        }
        for seed in 0..50u64 {
            std::fs::write(&path, random_bytes(seed, seed as usize * 3)).expect("write");
            assert!(
                matches!(cache.lookup(&spec), CacheLookup::Corrupt),
                "{}: seed {seed}",
                spec.describe()
            );
        }
    }
}

/// A cache directory holding the results file of `spec`'s trace: a valid
/// header, then `body` (the record count and records), then a valid
/// checksum.
fn hostile_results_file(spec: &JobSpec, body: &[u8]) -> TempCache {
    let temp = TempCache::new("hostile");
    let count = JobSpec::count(&spec.workload, &spec.input, spec.scale);
    temp.cache
        .store(&count, &JobOutput::Count(0))
        .expect("store");
    let path = temp.cache.entry_path(spec);
    let mut file = std::fs::read(&path).expect("results file");
    file.truncate(4 + 1 + 8 + 1); // magic, version, trace hash, kind
    file.extend_from_slice(body);
    std::fs::write(&path, with_checksum(file)).expect("write");
    temp
}

#[test]
fn hostile_headers_allocate_within_the_bound() {
    let big = |n: usize| n as u64;
    // an accuracy profile naming no predictor and declaring its most sites
    let hostile_accuracy = [varints(&[0]), varints(&[big(1 << 28)])].concat();
    let thresholds = {
        let mut t = vec![0u8];
        t.extend_from_slice(&[0; 16]);
        t
    };
    let report_prefix = [thresholds, vec![0, 0], varints(&[0, 0])].concat();
    let spec_name = varints(&[big(twodprof_engine::MAX_SPEC_NAME_LEN)]);
    let span_header = {
        let mut h = vec![1u8];
        h.extend_from_slice(&7u128.to_le_bytes());
        [h, varints(&[big(MAX_WIRE_SPANS)])].concat()
    };
    let trace_header = {
        let mut h = b"2DPR\x01".to_vec();
        h.extend_from_slice(&u32::MAX.to_le_bytes());
        h.extend_from_slice(&u64::MAX.to_le_bytes());
        let body = varints(&[u64::MAX >> 4]);
        let mut sum = Fnv1a::default();
        sum.update(&u32::MAX.to_le_bytes());
        sum.update(&u64::MAX.to_le_bytes());
        sum.update(&body);
        h.extend_from_slice(&sum.finish().to_le_bytes());
        [h, body].concat()
    };
    let acc_kind = JobKind::Accuracy(PredictorKind::Gshare4Kb);
    let twod_kind = JobKind::TwoD(PredictorKind::Gshare4Kb);
    let cases: Vec<(&str, Decoder, Vec<u8>)> = vec![
        (
            "2DPR trace",
            decoder(RecordedTrace::from_bytes),
            trace_header,
        ),
        (
            "report predictor name",
            decoder(ProfileReport::from_bytes),
            [report_prefix.clone(), varints(&[1 << 16])].concat(),
        ),
        (
            "report site count",
            decoder(ProfileReport::from_bytes),
            [report_prefix.clone(), varints(&[0, 1 << 28])].concat(),
        ),
        (
            "accuracy sites",
            decoder(read_accuracy),
            hostile_accuracy.clone(),
        ),
        ("accuracy name", decoder(read_accuracy), varints(&[1 << 16])),
        (
            "job spec name",
            decoder(|b| btrace::serial::read_whole(b, JobSpec::decode_from)),
            spec_name,
        ),
        (
            "accuracy payload",
            decoder(move |b| JobOutput::from_payload(acc_kind, b)),
            hostile_accuracy.clone(),
        ),
        (
            "report payload",
            decoder(move |b| JobOutput::from_payload(twod_kind, b)),
            [report_prefix, varints(&[0, 1 << 28])].concat(),
        ),
        (
            "events frame",
            decoder(ClientFrame::decode),
            [vec![0x02], varints(&[big(MAX_EVENTS_PER_FRAME)])].concat(),
        ),
        (
            "subscribe program",
            decoder(ClientFrame::decode),
            [vec![0x09], varints(&[big(MAX_PROGRAM_LEN)])].concat(),
        ),
        (
            "submit-job spec",
            decoder(ClientFrame::decode),
            [
                vec![0x0A],
                varints(&[1, big(twodprof_engine::MAX_SPEC_NAME_LEN)]),
            ]
            .concat(),
        ),
        (
            "busy message",
            decoder(ServerFrame::decode),
            [vec![0x83], varints(&[1 << 16])].concat(),
        ),
        (
            "job-result payload",
            decoder(ServerFrame::decode),
            [
                vec![0x8A],
                varints(&[1]),
                vec![0x00],
                varints(&[9, big(MAX_RESULT_PAYLOAD)]),
            ]
            .concat(),
        ),
        (
            "metric snapshot",
            decoder(Snapshot::from_bytes),
            [vec![1], varints(&[1 << 20])].concat(),
        ),
        (
            "metric name",
            decoder(Snapshot::from_bytes),
            [vec![1], varints(&[1, 1 << 12])].concat(),
        ),
        ("span block", decoder(decode_spans), span_header),
        (
            "flight dump",
            decoder(flight::decode),
            with_checksum([vec![1], varints(&[1 << 16])].concat()),
        ),
        (
            "flight detail",
            decoder(flight::decode),
            with_checksum(
                [
                    vec![1],
                    varints(&[1, 5]),
                    vec![2],
                    varints(&[0, 0, 1 << 12]),
                ]
                .concat(),
            ),
        ),
        (
            "drift event",
            decoder(DriftEvent::from_bytes),
            varints(&[u64::MAX, u64::MAX]),
        ),
        (
            // the 9-byte reply that once made a watcher reserve 16 GiB
            "verdict snapshot",
            decoder(VerdictSnapshot::from_bytes),
            [vec![0, 0, 0, 0], varints(&[1 << 28])].concat(),
        ),
    ];
    for (name, decode, bytes) in &cases {
        let (result, allocated) = allocated_by(|| decode(bytes));
        assert!(result.is_err(), "{name}: a hostile header decoded");
        assert!(
            allocated <= ALLOCATION_BOUND,
            "{name}: decoding {} bytes allocated {allocated} (bound {ALLOCATION_BOUND})",
            bytes.len()
        );
    }
    // results files wrapping the hostile accuracy payload, declaring 2^62
    // records, declaring a 2^40-byte record, or declaring a record one byte
    // longer than the file are corrupt, each read within the same bound
    let spec = JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb);
    let record = |len: u64| {
        let mut r = varints(&[1]);
        r.extend_from_slice(&spec.content_hash().to_le_bytes());
        r.push(1); // an accuracy record
        [r, varints(&[len])].concat()
    };
    let files = [
        (
            "results accuracy payload",
            [record(hostile_accuracy.len() as u64), hostile_accuracy].concat(),
        ),
        ("results record count", varints(&[1 << 62])),
        ("results record length", record(1 << 40)),
        // one byte more than the file holds, under a valid checksum
        ("results record past the end", record(1)),
    ];
    for (name, body) in files {
        let temp = hostile_results_file(&spec, &body);
        let (lookup, allocated) = allocated_by(|| temp.cache.lookup(&spec));
        assert!(matches!(lookup, CacheLookup::Corrupt), "{name}: {lookup:?}");
        assert!(
            allocated <= ALLOCATION_BOUND,
            "{name}: lookup allocated {allocated} (bound {ALLOCATION_BOUND})"
        );
    }
}
