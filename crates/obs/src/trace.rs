//! Structured span tracing: where a request spent its time, not just how
//! often things happened.
//!
//! The metrics layer ([`crate::Counter`] and friends) answers aggregate
//! questions; this module answers *per-request* ones — which stage of a
//! `ProfileRequest` (probe, record, decode, fused simulate, cache write) or
//! which daemon frame a given wall-clock interval went to. The design
//! mirrors the metrics layer's philosophy:
//!
//! - **Per-thread SPSC ring buffers.** Each thread owns a fixed-capacity
//!   ring of finished [`SpanRecord`]s. The owning thread is the only
//!   producer; the global [`Collector`] (or the owner itself, when the ring
//!   is nearly full) drains records into a bounded in-memory store. A full
//!   ring drops new spans and counts them — recording never blocks.
//! - **Monotonic clock.** Timestamps are microseconds since the process's
//!   private trace epoch (first use of the clock), taken from
//!   [`std::time::Instant`]. Cross-process alignment is the exporter's job
//!   (the serve layer anchors the two clocks over the wire).
//! - **Branch-free disable.** `TWODPROF_TRACE=off` (or `0` / `false`)
//!   disables tracing the same way `TWODPROF_METRICS=off` does: the
//!   instrumented call sites run the identical enter/record code, but the
//!   thread's ring is never registered with the collector, so it saturates
//!   once and every later record is a bounds-check-and-drop. Nothing in an
//!   instrumented function branches on an "enabled" flag.
//!
//! # Identity model
//!
//! A *trace* is a 16-byte id naming one logical request end-to-end
//! (possibly across processes); a *span* is a named `[start, start+dur)`
//! interval with a random-seeded 64-bit id and a parent span id (0 = root).
//! The current `(trace, span)` pair lives in thread-local storage;
//! [`Span::enter`] (via the [`span!`](crate::span!) macro) parents itself
//! under it, and [`attach`] carries it across thread boundaries (the engine
//! worker pool) and — via the serve wire frames — across the client/daemon
//! boundary.
//!
//! # Export
//!
//! Finished spans serialize to a compact varint block
//! ([`encode_spans`] / [`decode_spans`]) riding the same LEB128 layer as
//! every other wire payload in the workspace, and render to Chrome
//! trace-event JSON via [`crate::chrome`].

use std::cell::{Cell, OnceCell, UnsafeCell};
use std::collections::VecDeque;
use std::io;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use btrace::serial::{
    invalid, read_len, read_string, read_u128, read_u8, read_varint, read_whole,
    with_declared_capacity, write_varint,
};

/// Slots per thread-local span ring. Power of two; at the coarse (per-job,
/// per-frame) granularity the workspace traces at, a ring this size absorbs
/// bursts between drains comfortably.
pub const RING_CAPACITY: usize = 2048;

/// The producer self-flushes into the collector store once its ring holds
/// this many records, so long-lived threads don't need an external drain.
const FLUSH_WATERMARK: usize = RING_CAPACITY - RING_CAPACITY / 4;

/// Upper bound on finished spans retained by the collector store; oldest
/// spans are evicted first. Bounds daemon memory no matter how many traced
/// sessions pass through.
pub const STORE_CAPACITY: usize = 1 << 16;

/// Hard cap on spans accepted by [`decode_spans`], and on the span count
/// the daemon serializes into one `TraceSpans` reply. Keeps a span block
/// comfortably under `btrace::MAX_FRAME_LEN`.
pub const MAX_WIRE_SPANS: usize = 16_384;

const SPAN_BLOCK_VERSION: u8 = 1;
const MAX_WIRE_NAME_LEN: usize = 256;

// ---------------------------------------------------------------------------
// Clock and identifiers
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since this process's trace epoch (first use of the trace
/// clock). Monotonic and cheap (vDSO clock read); meaningless across
/// processes without an anchor exchange.
pub fn now_micros() -> u64 {
    epoch().elapsed().as_micros() as u64
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let pid = std::process::id() as u64;
        // ASLR gives the static's address some per-process entropy even if
        // two processes start the same nanosecond.
        let addr = &SEED as *const _ as usize as u64;
        splitmix64(nanos ^ pid.rotate_left(32) ^ addr)
    })
}

fn span_counter() -> &'static AtomicU64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    // Random starting point so span ids from different processes (client
    // and daemon halves of one stitched trace) don't collide.
    NEXT.get_or_init(|| AtomicU64::new(splitmix64(process_seed()) | 1))
}

fn next_span_id() -> u64 {
    span_counter().fetch_add(1, Ordering::Relaxed)
}

/// Returns a fresh non-zero 16-byte trace id, unique across threads and —
/// with overwhelming probability — across processes.
pub fn new_trace_id() -> u128 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let hi = splitmix64(process_seed() ^ n);
    let lo = splitmix64(hi ^ n.rotate_left(17) ^ 0xA076_1D64_78BD_642F);
    (u128::from(hi) << 64) | u128::from(lo) | 1
}

/// Poison-tolerant lock: spans can drop while the engine unwinds a caught
/// workload panic, and tracing must keep working afterwards.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A finished span as stored in the thread-local ring: `Copy`, no heap.
#[derive(Clone, Copy, Debug)]
struct SpanRecord {
    trace: u128,
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
    dur_us: u64,
}

/// A finished span in exportable form: owned name plus the thread and
/// process lanes the exporters group by.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExportSpan {
    /// 16-byte trace id this span belongs to.
    pub trace: u128,
    /// This span's id (non-zero).
    pub id: u64,
    /// Parent span id, `0` for a root span.
    pub parent: u64,
    /// Human-readable span name (`engine.job`, `serve.frame.events`, ...).
    pub name: String,
    /// Start, microseconds on the *recording* process's trace clock.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Recording thread lane (collector-assigned, stable per thread).
    pub tid: u64,
    /// Process lane for stitched multi-process exports. The collector
    /// stamps `0` ("this process"); stitching code reassigns.
    pub pid: u32,
}

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

/// Fixed-capacity single-producer ring of finished spans. The owning thread
/// pushes; whoever holds the collector's store lock drains. `head`/`tail`
/// are free-running indices (slot = index % capacity).
struct SpanRing {
    slots: Box<[UnsafeCell<MaybeUninit<SpanRecord>>]>,
    head: AtomicUsize,
    tail: AtomicUsize,
    dropped: AtomicU64,
    tid: u64,
}

// SAFETY: cross-thread access to `slots` is mediated by the head/tail
// acquire/release protocol below — a slot is written only while it is
// outside the readable [tail, head) window and read only inside it.
unsafe impl Send for SpanRing {}
unsafe impl Sync for SpanRing {}

impl SpanRing {
    fn new(tid: u64) -> Self {
        let slots = (0..RING_CAPACITY)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            tid,
        }
    }

    /// Producer side. Returns `false` (and counts a drop) when full.
    fn push(&self, rec: SpanRecord) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        // Acquire pairs with the consumer's release store of `tail`: once we
        // observe the slot freed, the consumer's read of it has completed.
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= RING_CAPACITY {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // SAFETY: `head` is outside the readable window, so no reader
        // touches this slot until the release store below publishes it.
        unsafe { (*self.slots[head % RING_CAPACITY].get()).write(rec) };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        true
    }

    /// Records currently buffered.
    fn len(&self) -> usize {
        self.head
            .load(Ordering::Relaxed)
            .wrapping_sub(self.tail.load(Ordering::Relaxed))
    }

    /// Consumer side; the caller must hold the collector store lock so at
    /// most one drain runs at a time.
    fn drain_into(&self, out: &mut Vec<ExportSpan>) {
        let tail = self.tail.load(Ordering::Relaxed);
        // Acquire pairs with the producer's release store of `head`.
        let head = self.head.load(Ordering::Acquire);
        let mut idx = tail;
        while idx != head {
            // SAFETY: [tail, head) slots were published by the producer's
            // release store and are not rewritten until `tail` passes them.
            let rec = unsafe { (*self.slots[idx % RING_CAPACITY].get()).assume_init() };
            out.push(ExportSpan {
                trace: rec.trace,
                id: rec.id,
                parent: rec.parent,
                name: rec.name.to_owned(),
                start_us: rec.start_us,
                dur_us: rec.dur_us,
                tid: self.tid,
                pid: 0,
            });
            idx = idx.wrapping_add(1);
        }
        self.tail.store(head, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// Global sink for finished spans: a registry of per-thread rings plus a
/// bounded FIFO store of drained spans.
pub struct Collector {
    enabled: bool,
    rings: Mutex<Vec<Arc<SpanRing>>>,
    store: Mutex<VecDeque<ExportSpan>>,
    evicted: AtomicU64,
    next_tid: AtomicU64,
}

impl Collector {
    /// A fresh collector; disabled collectors hand out *void* rings that are
    /// never drained, mirroring the metrics registry's void cells.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            rings: Mutex::new(Vec::new()),
            store: Mutex::new(VecDeque::new()),
            evicted: AtomicU64::new(0),
            next_tid: AtomicU64::new(1),
        }
    }

    /// Whether rings registered here are ever drained.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn register_thread(&self) -> Arc<SpanRing> {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(SpanRing::new(tid));
        if self.enabled {
            lock(&self.rings).push(Arc::clone(&ring));
        }
        ring
    }

    fn push_store(store: &mut VecDeque<ExportSpan>, span: ExportSpan, evicted: &AtomicU64) {
        if store.len() >= STORE_CAPACITY {
            store.pop_front();
            evicted.fetch_add(1, Ordering::Relaxed);
        }
        store.push_back(span);
    }

    fn flush_ring_locked(&self, ring: &SpanRing, store: &mut VecDeque<ExportSpan>) {
        let mut scratch = Vec::with_capacity(ring.len());
        ring.drain_into(&mut scratch);
        for span in scratch {
            Self::push_store(store, span, &self.evicted);
        }
    }

    fn flush_ring(&self, ring: &SpanRing) {
        if !self.enabled {
            return;
        }
        let mut store = lock(&self.store);
        self.flush_ring_locked(ring, &mut store);
    }

    /// Drains every registered ring into the store and prunes rings whose
    /// owner thread has exited.
    pub fn flush(&self) {
        if !self.enabled {
            return;
        }
        let rings: Vec<Arc<SpanRing>> = lock(&self.rings).clone();
        {
            let mut store = lock(&self.store);
            for ring in &rings {
                self.flush_ring_locked(ring, &mut store);
            }
        }
        self.rings
            .lock()
            .unwrap()
            .retain(|r| Arc::strong_count(r) > 2 || r.len() > 0);
    }

    /// Flushes, then returns (without consuming) every stored span for
    /// `trace`, oldest first.
    pub fn collect_trace(&self, trace: u128) -> Vec<ExportSpan> {
        self.flush();
        self.store
            .lock()
            .unwrap()
            .iter()
            .filter(|s| s.trace == trace)
            .cloned()
            .collect()
    }

    /// Flushes, then drains and returns the whole store, oldest first.
    pub fn drain(&self) -> Vec<ExportSpan> {
        self.flush();
        lock(&self.store).drain(..).collect()
    }

    /// Spans dropped at the ring level (full ring) plus evicted from the
    /// bounded store — the trace-side analogue of a dropped-sample counter.
    pub fn dropped(&self) -> u64 {
        let ring_drops: u64 = self
            .rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum();
        ring_drops + self.evicted.load(Ordering::Relaxed)
    }
}

/// The process-global collector. Enabled unless `TWODPROF_TRACE` is set to
/// `off`, `0`, or `false` (any case).
pub fn collector() -> &'static Collector {
    static GLOBAL: OnceLock<Collector> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let disabled = std::env::var("TWODPROF_TRACE")
            .map(|v| {
                let v = v.to_ascii_lowercase();
                v == "off" || v == "0" || v == "false"
            })
            .unwrap_or(false);
        Collector::new(!disabled)
    })
}

// ---------------------------------------------------------------------------
// Thread-local context
// ---------------------------------------------------------------------------

thread_local! {
    static RING: OnceCell<Arc<SpanRing>> = const { OnceCell::new() };
    static CONTEXT: Cell<(u128, u64)> = const { Cell::new((0, 0)) };
}

fn with_ring<R>(f: impl FnOnce(&SpanRing) -> R) -> Option<R> {
    RING.try_with(|cell| f(cell.get_or_init(|| collector().register_thread())))
        .ok()
}

/// The ambient `(trace, parent span)` pair spans created on this thread
/// parent under. Carry it across threads (or processes) with [`attach`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Current trace id; `0` when no trace is active.
    pub trace: u128,
    /// Span id new children should parent under; `0` for "root".
    pub parent: u64,
}

impl TraceContext {
    /// The empty context: spans created under it start fresh traces.
    pub const NONE: TraceContext = TraceContext {
        trace: 0,
        parent: 0,
    };

    /// Whether a trace is active.
    pub fn is_active(&self) -> bool {
        self.trace != 0
    }
}

/// This thread's current trace context.
pub fn current() -> TraceContext {
    let (trace, parent) = CONTEXT.get();
    TraceContext { trace, parent }
}

/// Installs `ctx` as this thread's context until the guard drops — the
/// bridge into worker threads and server-side request handling.
#[must_use = "the context is detached again when the guard drops"]
pub fn attach(ctx: TraceContext) -> ContextGuard {
    let prev = CONTEXT.replace((ctx.trace, ctx.parent));
    ContextGuard { prev }
}

/// Restores the previously attached context on drop.
pub struct ContextGuard {
    prev: (u128, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.set(self.prev);
    }
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

/// A live timing span; records itself into the thread-local ring on drop.
///
/// Created via [`Span::enter`] (usually through the
/// [`span!`](crate::span!) macro), [`Span::root`], or [`Span::child_of`].
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    trace: u128,
    id: u64,
    parent: u64,
    start_us: u64,
    /// `(trace, span)` to restore on drop; `None` when this span never
    /// touched the creating thread's context (`child_of`).
    restore: Option<(u128, u64)>,
}

impl Span {
    /// Opens a span under the current thread context; starts a fresh trace
    /// if none is active. Sets the context so nested spans parent here.
    pub fn enter(name: &'static str) -> Span {
        let (cur_trace, cur_parent) = CONTEXT.get();
        let trace = if cur_trace != 0 {
            cur_trace
        } else {
            new_trace_id()
        };
        let id = next_span_id();
        CONTEXT.set((trace, id));
        Span {
            name,
            trace,
            id,
            parent: if cur_trace != 0 { cur_parent } else { 0 },
            start_us: now_micros(),
            restore: Some((cur_trace, cur_parent)),
        }
    }

    /// Opens a root span of a brand-new trace, regardless of the current
    /// context, and makes it the thread context.
    pub fn root(name: &'static str) -> Span {
        let prev = CONTEXT.get();
        let trace = new_trace_id();
        let id = next_span_id();
        CONTEXT.set((trace, id));
        Span {
            name,
            trace,
            id,
            parent: 0,
            start_us: now_micros(),
            restore: Some(prev),
        }
    }

    /// Opens a span under an explicit context *without* touching the
    /// current thread's ambient context — for long-lived spans (a daemon
    /// session) that outlive many shorter ones on the same thread. Nest
    /// work under it by [`attach`]ing [`Span::context`].
    pub fn child_of(ctx: TraceContext, name: &'static str) -> Span {
        let trace = if ctx.trace != 0 {
            ctx.trace
        } else {
            new_trace_id()
        };
        Span {
            name,
            trace,
            id: next_span_id(),
            parent: ctx.parent,
            start_us: now_micros(),
            restore: None,
        }
    }

    /// This span's trace id.
    pub fn trace(&self) -> u128 {
        self.trace
    }

    /// This span's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Start timestamp (trace-clock microseconds).
    pub fn start_us(&self) -> u64 {
        self.start_us
    }

    /// The context children of this span should attach.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace: self.trace,
            parent: self.id,
        }
    }

    /// Ends the span now (identical to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(prev) = self.restore {
            CONTEXT.set(prev);
        }
        let rec = SpanRecord {
            trace: self.trace,
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_us: self.start_us,
            dur_us: now_micros().saturating_sub(self.start_us),
        };
        with_ring(|ring| {
            ring.push(rec);
            if ring.len() >= FLUSH_WATERMARK {
                collector().flush_ring(ring);
            }
        });
    }
}

/// Opens a [`Span`] named by a string literal, bound to `_span_guard` —
/// the span lasts until the end of the enclosing scope:
///
/// ```
/// fn handle() {
///     let _sp = twodprof_obs::span!("demo.handle");
///     // ... nested span!()s parent under demo.handle ...
/// }
/// # handle();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::Span::enter($name)
    };
}

// ---------------------------------------------------------------------------
// Wire form
// ---------------------------------------------------------------------------

/// Serializes spans of one trace to the compact varint block format:
/// version byte, 16-byte trace id (LE), varint count, then per span
/// varint id / parent / name (varint length + UTF-8) / start / dur / tid.
/// Spans whose trace id differs from `trace` are skipped; at most
/// [`MAX_WIRE_SPANS`] (the newest) are kept.
pub fn encode_spans(trace: u128, spans: &[ExportSpan]) -> Vec<u8> {
    let matching: Vec<&ExportSpan> = spans.iter().filter(|s| s.trace == trace).collect();
    let keep = &matching[matching.len().saturating_sub(MAX_WIRE_SPANS)..];
    let mut buf = Vec::with_capacity(32 + keep.len() * 24);
    buf.push(SPAN_BLOCK_VERSION);
    buf.extend_from_slice(&trace.to_le_bytes());
    write_varint(&mut buf, keep.len() as u64).expect("vec write");
    for span in keep {
        write_varint(&mut buf, span.id).expect("vec write");
        write_varint(&mut buf, span.parent).expect("vec write");
        // cut an over-long name at a character boundary, so it decodes
        let mut cut = span.name.len().min(MAX_WIRE_NAME_LEN);
        while !span.name.is_char_boundary(cut) {
            cut -= 1;
        }
        let name = &span.name.as_bytes()[..cut];
        write_varint(&mut buf, name.len() as u64).expect("vec write");
        buf.extend_from_slice(name);
        write_varint(&mut buf, span.start_us).expect("vec write");
        write_varint(&mut buf, span.dur_us).expect("vec write");
        write_varint(&mut buf, span.tid).expect("vec write");
    }
    buf
}

/// Inverse of [`encode_spans`]. Rejects unknown versions, oversized
/// counts/names, truncation, and trailing garbage. Decoded spans carry
/// `pid = 0`; the caller assigns process lanes.
pub fn decode_spans(bytes: &[u8]) -> io::Result<(u128, Vec<ExportSpan>)> {
    read_whole(bytes, |r| {
        if read_u8(r)? != SPAN_BLOCK_VERSION {
            return Err(invalid("unsupported span-block version"));
        }
        let trace = read_u128(r)?;
        let count = read_len(r, MAX_WIRE_SPANS, "span count")?;
        let mut spans = with_declared_capacity(count);
        for _ in 0..count {
            spans.push(ExportSpan {
                trace,
                id: read_varint(r)?,
                parent: read_varint(r)?,
                name: read_string(r, MAX_WIRE_NAME_LEN)?,
                start_us: read_varint(r)?,
                dur_us: read_varint(r)?,
                tid: read_varint(r)?,
                pid: 0,
            });
        }
        Ok((trace, spans))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let a = new_trace_id();
        let b = new_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn ring_push_and_drain_round_trip() {
        let ring = SpanRing::new(7);
        for i in 0..5u64 {
            assert!(ring.push(SpanRecord {
                trace: 42,
                id: i + 1,
                parent: i,
                name: "t",
                start_us: i * 10,
                dur_us: 3,
            }));
        }
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].id, 1);
        assert_eq!(out[4].parent, 4);
        assert!(out.iter().all(|s| s.tid == 7 && s.trace == 42));
        assert_eq!(ring.len(), 0);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let ring = SpanRing::new(1);
        let rec = SpanRecord {
            trace: 1,
            id: 1,
            parent: 0,
            name: "t",
            start_us: 0,
            dur_us: 0,
        };
        for _ in 0..RING_CAPACITY {
            assert!(ring.push(rec));
        }
        assert!(!ring.push(rec));
        assert!(!ring.push(rec));
        assert_eq!(ring.dropped.load(Ordering::Relaxed), 2);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        assert!(ring.push(rec), "space frees after a drain");
    }

    #[test]
    fn disabled_collector_never_stores() {
        let c = Collector::new(false);
        let ring = c.register_thread();
        ring.push(SpanRecord {
            trace: 9,
            id: 1,
            parent: 0,
            name: "t",
            start_us: 0,
            dur_us: 0,
        });
        c.flush();
        assert!(c.drain().is_empty());
        assert!(!c.is_enabled());
    }

    #[test]
    fn store_eviction_is_bounded_and_counted() {
        let c = Collector::new(true);
        {
            let mut store = c.store.lock().unwrap();
            for i in 0..(STORE_CAPACITY as u64 + 10) {
                Collector::push_store(
                    &mut store,
                    ExportSpan {
                        trace: 1,
                        id: i + 1,
                        parent: 0,
                        name: "t".into(),
                        start_us: i,
                        dur_us: 0,
                        tid: 1,
                        pid: 0,
                    },
                    &c.evicted,
                );
            }
            assert_eq!(store.len(), STORE_CAPACITY);
        }
        assert_eq!(c.dropped(), 10);
    }

    #[test]
    fn encode_decode_round_trip() {
        let trace = new_trace_id();
        let spans: Vec<ExportSpan> = (0..4u64)
            .map(|i| ExportSpan {
                trace,
                id: i + 100,
                parent: if i == 0 { 0 } else { 100 },
                name: format!("span.{i}"),
                start_us: i * 1000,
                dur_us: 500 + i,
                tid: 3,
                pid: 0,
            })
            .collect();
        let bytes = encode_spans(trace, &spans);
        let (t, decoded) = decode_spans(&bytes).unwrap();
        assert_eq!(t, trace);
        assert_eq!(decoded, spans);
    }

    #[test]
    fn long_names_are_cut_on_a_character_boundary() {
        // 401 bytes; byte 256 falls inside an `é`, so the cut lands at 255
        let name = format!("a{}", "é".repeat(200));
        assert_eq!(name.len(), 401);
        let span = ExportSpan {
            trace: 9,
            id: 1,
            parent: 0,
            name: name.clone(),
            start_us: 0,
            dur_us: 1,
            tid: 1,
            pid: 0,
        };
        let (_, decoded) = decode_spans(&encode_spans(9, &[span])).unwrap();
        assert_eq!(decoded[0].name, name[..255]);
    }

    #[test]
    fn encode_filters_foreign_traces() {
        let spans = vec![ExportSpan {
            trace: 5,
            id: 1,
            parent: 0,
            name: "x".into(),
            start_us: 0,
            dur_us: 1,
            tid: 1,
            pid: 0,
        }];
        let bytes = encode_spans(6, &spans);
        let (t, decoded) = decode_spans(&bytes).unwrap();
        assert_eq!(t, 6);
        assert!(decoded.is_empty());
    }

    #[test]
    fn decode_rejects_corruption() {
        let trace = 77u128;
        let spans = vec![ExportSpan {
            trace,
            id: 8,
            parent: 0,
            name: "corrupt.me".into(),
            start_us: 12,
            dur_us: 34,
            tid: 2,
            pid: 0,
        }];
        let good = encode_spans(trace, &spans);
        // Truncation at every prefix length must fail cleanly.
        for len in 0..good.len() {
            assert!(decode_spans(&good[..len]).is_err(), "prefix {len}");
        }
        // Trailing garbage must fail.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_spans(&long).is_err());
        // Unknown version must fail.
        let mut vers = good.clone();
        vers[0] = 99;
        assert!(decode_spans(&vers).is_err());
    }
}
