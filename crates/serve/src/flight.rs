//! The flight recorder: a bounded ring of recent notable daemon events,
//! dumped to a checksummed file for postmortems.
//!
//! Metrics aggregate and forget; when a daemon sheds load or dies, the
//! operator wants the last N *events* — which connection hit a decode
//! error, when the shard crossed into Degrade, which session aborted —
//! in order. The [`FlightRecorder`] keeps exactly that: a fixed-capacity
//! `VecDeque` of [`FlightEvent`]s behind one mutex, written only on the
//! cold paths (errors, tier transitions, spills, aborts, slow ticks), so
//! the ingest hot path never touches it.
//!
//! The ring leaves the process three ways: the sessionless `Blackbox` wire
//! frame (any client can fetch it live), a `SIGUSR1`-triggered dump to
//! disk, and an automatic dump from the daemon's panic hook. Dumps and
//! wire replies share one [`encode`](FlightRecorder::encode) format — a
//! versioned varint block with an FNV-1a checksum trailer (the same
//! [`payload_checksum`] the cache tier uses) — so [`decode`] can tell a
//! torn write from an empty ring.

use btrace::serial::{
    invalid, read_len, read_string, read_u8, read_varint, read_whole, strip_checksum,
    with_declared_capacity, write_string, write_varint,
};
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use twodprof_engine::payload_checksum;

/// Serialization format version for [`FlightRecorder::encode`].
const FLIGHT_VERSION: u8 = 1;

/// Hard cap on the event count a decoder will accept.
const MAX_EVENTS: usize = 1 << 16;

/// Hard cap on one event's detail-string length.
const MAX_DETAIL: usize = 1 << 12;

/// What kind of notable event a [`FlightEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A connection's byte stream failed frame decoding.
    DecodeError,
    /// A shard's admission tier crossed into Degrade.
    Degrade,
    /// A shard's admission tier crossed into Shed, or a `Hello` was shed.
    Shed,
    /// A session's recording buffer spilled to a disk segment.
    Spill,
    /// A session ended without `Finish` (disconnect, error, reap, limit).
    SessionAbort,
    /// A shard's service pass ran long enough to starve its peers.
    SlowTick,
}

impl FlightKind {
    fn as_u8(self) -> u8 {
        match self {
            FlightKind::DecodeError => 0,
            FlightKind::Degrade => 1,
            FlightKind::Shed => 2,
            FlightKind::Spill => 3,
            FlightKind::SessionAbort => 4,
            FlightKind::SlowTick => 5,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => FlightKind::DecodeError,
            1 => FlightKind::Degrade,
            2 => FlightKind::Shed,
            3 => FlightKind::Spill,
            4 => FlightKind::SessionAbort,
            5 => FlightKind::SlowTick,
            _ => return None,
        })
    }

    /// Lowercase label for logs and dashboards.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::DecodeError => "decode-error",
            FlightKind::Degrade => "degrade",
            FlightKind::Shed => "shed",
            FlightKind::Spill => "spill",
            FlightKind::SessionAbort => "abort",
            FlightKind::SlowTick => "slow-tick",
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Milliseconds since the recorder (i.e. the daemon) started.
    pub at_millis: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Owning shard index, or `u32::MAX` for events with no shard context.
    pub shard: u32,
    /// Connection id, or 0 for events with no connection context.
    pub conn: u64,
    /// Free-form context (error text, byte counts, tier names).
    pub detail: String,
}

impl std::fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[+{:>9.3}s] {:<12}",
            self.at_millis as f64 / 1000.0,
            self.kind.label()
        )?;
        if self.shard != u32::MAX {
            write!(f, " shard {}", self.shard)?;
        }
        if self.conn != 0 {
            write!(f, " conn {}", self.conn)?;
        }
        write!(f, "  {}", self.detail)
    }
}

/// The bounded event ring. One per daemon instance (it lives on the
/// server's shared state), so parallel daemons in one process never mix
/// their postmortems.
pub struct FlightRecorder {
    start: Instant,
    capacity: usize,
    events: Mutex<VecDeque<FlightEvent>>,
}

impl FlightRecorder {
    /// An empty recorder retaining at most `capacity` events (clamped to
    /// at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            start: Instant::now(),
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Records one event, evicting the oldest past capacity.
    pub fn record(&self, kind: FlightKind, shard: u32, conn: u64, detail: String) {
        let event = FlightEvent {
            at_millis: self.start.elapsed().as_millis() as u64,
            kind,
            shard,
            conn,
            detail,
        };
        let mut events = self.events.lock().expect("flight ring");
        events.push_back(event);
        while events.len() > self.capacity {
            events.pop_front();
        }
        drop(events);
        twodprof_obs::counter!(
            "serve_flight_events_total",
            "Notable events captured by the flight recorder."
        )
        .inc();
    }

    /// A copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.events
            .lock()
            .expect("flight ring")
            .iter()
            .cloned()
            .collect()
    }

    /// Serializes the ring: version byte, varint event count, per-event
    /// fields, and an 8-byte little-endian FNV-1a checksum of everything
    /// before it.
    pub fn encode(&self) -> Vec<u8> {
        encode_events(&self.snapshot())
    }

    /// Writes [`encode`](Self::encode) to `path` (replacing any previous
    /// dump).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn dump_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.encode())
    }
}

/// Serializes a slice of events in the [`FlightRecorder::encode`] format.
pub fn encode_events(events: &[FlightEvent]) -> Vec<u8> {
    let mut out = vec![FLIGHT_VERSION];
    write_events(&mut out, events).expect("vec write");
    let checksum = payload_checksum(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn write_events(out: &mut Vec<u8>, events: &[FlightEvent]) -> io::Result<()> {
    write_varint(out, events.len() as u64)?;
    for e in events {
        write_varint(out, e.at_millis)?;
        out.push(e.kind.as_u8());
        write_varint(out, e.shard as u64)?;
        write_varint(out, e.conn)?;
        write_string(out, &e.detail)?;
    }
    Ok(())
}

/// Decodes a [`FlightRecorder::encode`] block, verifying the checksum
/// trailer and rejecting unknown versions, oversized fields, and trailing
/// bytes.
///
/// # Errors
///
/// Returns `InvalidData` naming what failed (checksum mismatch, unknown
/// kind, overlong detail), and `UnexpectedEof` on a block whose checksum
/// holds but whose fields end early.
pub fn decode(bytes: &[u8]) -> io::Result<Vec<FlightEvent>> {
    read_whole(strip_checksum(bytes)?, |r| {
        if read_u8(r)? != FLIGHT_VERSION {
            return Err(invalid("unsupported flight-block version"));
        }
        let count = read_len(r, MAX_EVENTS, "flight event count")?;
        let mut events = with_declared_capacity(count);
        for _ in 0..count {
            let at_millis = read_varint(r)?;
            let kind = FlightKind::from_u8(read_u8(r)?)
                .ok_or_else(|| invalid("unknown flight-event kind"))?;
            let shard = read_varint(r)?;
            if shard > u32::MAX as u64 {
                return Err(invalid("flight-event shard index out of range"));
            }
            events.push(FlightEvent {
                at_millis,
                kind,
                shard: shard as u32,
                conn: read_varint(r)?,
                detail: read_string(r, MAX_DETAIL)?,
            });
        }
        Ok(events)
    })
}

/// `SIGUSR1` handshake: the signal handler may only touch an atomic and
/// write to a waker, so it sets this flag, wakes the accept loop, and the
/// accept loop performs the actual dump.
static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Requests a blackbox dump. Async-signal-safe (a single atomic store).
/// The accept loop performs it when it next wakes; the daemon's `SIGUSR1`
/// handler also wakes it, so its dump happens at once.
pub fn request_dump() {
    DUMP_REQUESTED.store(true, Ordering::SeqCst);
}

/// Consumes a pending dump request, if any.
pub(crate) fn take_dump_request() -> bool {
    DUMP_REQUESTED.swap(false, Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<FlightEvent> {
        vec![
            FlightEvent {
                at_millis: 12,
                kind: FlightKind::DecodeError,
                shard: 0,
                conn: 7,
                detail: "bad varint".into(),
            },
            FlightEvent {
                at_millis: 99,
                kind: FlightKind::Shed,
                shard: 3,
                conn: 0,
                detail: "resident 4096 >= budget 4096".into(),
            },
            FlightEvent {
                at_millis: 100,
                kind: FlightKind::SlowTick,
                shard: u32::MAX,
                conn: 0,
                detail: "tick 250ms".into(),
            },
        ]
    }

    #[test]
    fn ring_evicts_oldest_past_capacity() {
        let rec = FlightRecorder::new(2);
        rec.record(FlightKind::Spill, 0, 1, "a".into());
        rec.record(FlightKind::Spill, 0, 2, "b".into());
        rec.record(FlightKind::Spill, 0, 3, "c".into());
        let events = rec.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].conn, 2);
        assert_eq!(events[1].conn, 3);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let events = sample_events();
        let bytes = encode_events(&events);
        assert_eq!(decode(&bytes).expect("roundtrip"), events);
        // an empty ring still carries a valid checksum
        let empty = encode_events(&[]);
        assert!(decode(&empty).expect("empty roundtrip").is_empty());
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut bytes = encode_events(&sample_events());
        // flip one body byte: the checksum must catch it
        bytes[3] ^= 0xff;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // truncation is caught too (the trailer no longer matches)
        let bytes = encode_events(&sample_events());
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode(&[]).is_err());
        // trailing bytes shift the checksum window and fail
        let mut padded = encode_events(&sample_events());
        padded.push(0);
        assert!(decode(&padded).is_err());
    }

    #[test]
    fn dump_roundtrips_through_a_file() {
        let rec = FlightRecorder::new(8);
        rec.record(FlightKind::SessionAbort, 1, 42, "peer hung up".into());
        let dir = std::env::temp_dir().join(format!("twodprof-flight-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blackbox.bin");
        rec.dump_to(&path).expect("dump");
        let events = decode(&std::fs::read(&path).unwrap()).expect("decode dump");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, FlightKind::SessionAbort);
        assert_eq!(events[0].conn, 42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn display_is_humane() {
        let e = &sample_events()[1];
        let line = e.to_string();
        assert!(line.contains("shed"), "{line}");
        assert!(line.contains("shard 3"), "{line}");
        assert!(line.contains("budget"), "{line}");
    }
}
