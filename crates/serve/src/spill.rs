//! Spill-to-disk session recordings: a [`SessionTrace`] is the daemon-side
//! recording of one session's branch stream, kept as a chain of serialized
//! [`RecordedTrace`] segments on disk plus one active in-memory tail.
//!
//! Long sessions used to occupy RAM in proportion to their length (~1.1
//! bytes per dynamic branch, unbounded). Now the active buffer spills to a
//! segment file whenever it crosses the configured threshold, so a
//! session's resident share is bounded by `spill_threshold` while `Resim`
//! keeps working: replay walks the segments in order, then the tail, which
//! reproduces the exact event sequence — reports stay bit-identical to the
//! unspilled path because [`RecordedTrace`] serialization is lossless.
//!
//! Segment files live in the shard's spill directory, named by session id
//! and sequence number, and are deleted when the session ends (Drop).

use btrace::{RecordedTrace, SiteId, Tracer};
use std::fs;
use std::io;
use std::path::PathBuf;

/// One on-disk segment of a spilled session recording.
struct Segment {
    path: PathBuf,
    bytes: u64,
}

/// A session's recorded branch stream with bounded residency.
pub(crate) struct SessionTrace {
    /// In-memory tail of the recording.
    active: RecordedTrace,
    num_sites: usize,
    /// Resident-size ceiling before the tail is spilled; `usize::MAX`
    /// disables spilling (tests, tiny deployments).
    threshold: usize,
    dir: PathBuf,
    session_id: u64,
    segments: Vec<Segment>,
    /// Total events across spilled segments (the tail knows its own).
    spilled_events: u64,
    /// A spill write failed; keep everything in memory from then on
    /// rather than dropping events or failing the session.
    spill_broken: bool,
}

impl SessionTrace {
    pub(crate) fn new(num_sites: usize, session_id: u64, threshold: usize, dir: PathBuf) -> Self {
        Self {
            active: RecordedTrace::new(num_sites),
            num_sites,
            threshold,
            dir,
            session_id,
            segments: Vec::new(),
            spilled_events: 0,
            spill_broken: false,
        }
    }

    /// Total events recorded (segments + tail).
    pub(crate) fn events(&self) -> u64 {
        self.spilled_events + self.active.events()
    }

    /// Bytes the recording holds in memory right now.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.active.memory_bytes() as u64
    }

    /// Bytes the recording holds on disk right now.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Spills the tail to a new segment file if it crossed the threshold.
    /// Returns the bytes written (0 when no spill happened). A failed
    /// write disables spilling for this session — the recording stays
    /// correct, just resident — and is reported once via the `Err`.
    pub(crate) fn maybe_spill(&mut self) -> io::Result<u64> {
        if self.spill_broken
            || self.active.is_empty()
            || self.active.memory_bytes() < self.threshold
        {
            return Ok(0);
        }
        let seq = self.segments.len();
        let path = self
            .dir
            .join(format!("sess-{}-{seq:04}.2dpr", self.session_id));
        let bytes = self.active.to_bytes();
        if let Err(e) = fs::create_dir_all(&self.dir).and_then(|()| fs::write(&path, &bytes)) {
            self.spill_broken = true;
            return Err(e);
        }
        let len = bytes.len() as u64;
        self.spilled_events += self.active.events();
        self.segments.push(Segment { path, bytes: len });
        self.active = RecordedTrace::new(self.num_sites);
        Ok(len)
    }

    /// Replays the whole recording — segments in spill order, then the
    /// tail — into `tracer`, reproducing the exact ingested sequence.
    ///
    /// # Errors
    ///
    /// I/O or decode errors reading a segment file back.
    pub(crate) fn replay_into<T: Tracer + ?Sized>(&self, tracer: &mut T) -> io::Result<()> {
        for seg in &self.segments {
            let bytes = fs::read(&seg.path)?;
            let trace = RecordedTrace::from_bytes(&bytes)?;
            trace.replay_into(tracer);
        }
        self.active.replay_into(tracer);
        Ok(())
    }
}

impl Tracer for SessionTrace {
    /// Appends one event to the tail.
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.active.push(site, taken);
    }
}

impl Drop for SessionTrace {
    fn drop(&mut self) {
        for seg in &self.segments {
            let _ = fs::remove_file(&seg.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collect(Vec<(u32, bool)>);
    impl Tracer for Collect {
        fn branch(&mut self, site: SiteId, taken: bool) {
            self.0.push((site.0, taken));
        }
    }

    fn scratch() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("twodprof-spill-test-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        dir
    }

    #[test]
    fn spilled_replay_matches_ingest_order() {
        let mut st = SessionTrace::new(8, 42, 64, scratch());
        let events: Vec<(u32, bool)> = (0..10_000u32).map(|i| (i % 8, i % 3 == 0)).collect();
        for (i, &(site, taken)) in events.iter().enumerate() {
            st.branch(SiteId(site), taken);
            if i % 512 == 0 {
                st.maybe_spill().unwrap();
            }
        }
        assert!(!st.segments.is_empty(), "tiny threshold must have spilled");
        assert!(st.spilled_bytes() > 0);
        assert_eq!(st.events(), events.len() as u64);
        let mut got = Collect(Vec::new());
        st.replay_into(&mut got).unwrap();
        assert_eq!(got.0, events);
        let paths: Vec<_> = st.segments.iter().map(|s| s.path.clone()).collect();
        drop(st);
        for p in paths {
            assert!(!p.exists(), "segments must be deleted with the session");
        }
    }

    #[test]
    fn below_threshold_never_touches_disk() {
        let mut st = SessionTrace::new(4, 7, usize::MAX, scratch());
        for i in 0..1000u32 {
            st.branch(SiteId(i % 4), i % 2 == 0);
        }
        assert_eq!(st.maybe_spill().unwrap(), 0);
        assert_eq!(st.spilled_bytes(), 0);
        let mut got = Collect(Vec::new());
        st.replay_into(&mut got).unwrap();
        assert_eq!(got.0.len(), 1000);
    }
}
