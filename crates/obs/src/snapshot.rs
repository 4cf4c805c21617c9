//! Point-in-time snapshots: text exposition and wire serialization.

use crate::metric::NUM_BUCKETS;
use btrace::serial::{
    invalid, read_len, read_string, read_u8, read_varint, read_whole, with_declared_capacity,
    write_string, write_varint,
};
use std::fmt::Write as _;
use std::io::{self, Read, Write};

/// Serialization format revision of [`Snapshot::to_bytes`].
const SNAPSHOT_VERSION: u8 = 1;

/// Most entries of one metric type a decoded snapshot may declare.
const MAX_ENTRIES: usize = 1 << 20;

/// Longest metric name or help string a decoded snapshot may carry.
const MAX_STRING: usize = 1 << 12;

/// Frozen state of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (length [`NUM_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// A point-in-time copy of a [`Registry`](crate::Registry)'s metrics,
/// sorted by name. Each entry is `(name, help, value)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: Vec<(String, String, u64)>,
    /// Signed gauges.
    pub gauges: Vec<(String, String, i64)>,
    /// Histograms.
    pub histograms: Vec<(String, String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Looks up a counter's value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
    }

    /// Looks up a gauge's value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, h)| h)
    }

    /// Sets counter `name` to `value`, replacing a counter of that name
    /// and keeping the list sorted: how a source outside the registry
    /// adds its values to a registry snapshot.
    pub fn put_counter(&mut self, name: impl Into<String>, help: &str, value: u64) {
        put(&mut self.counters, (name.into(), help.to_owned(), value));
    }

    /// Sets gauge `name` to `value`, like [`put_counter`](Self::put_counter).
    pub fn put_gauge(&mut self, name: impl Into<String>, help: &str, value: i64) {
        put(&mut self.gauges, (name.into(), help.to_owned(), value));
    }

    /// The change since `earlier`: counters and histogram buckets/sums are
    /// subtracted by name (a metric absent from `earlier` — registered
    /// mid-interval — keeps its full value; saturating, so a restarted
    /// source clamps to zero instead of wrapping), gauges pass through
    /// unchanged since an instantaneous level has no meaningful rate form.
    /// Metrics present only in `earlier` are dropped. `delta` of a snapshot
    /// against itself is all-zero, and `delta(earlier)` "added back" onto
    /// `earlier` reproduces `self` for counters and histograms.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, help, value)| {
                    let before = earlier.counter(name).unwrap_or(0);
                    (name.clone(), help.clone(), value.saturating_sub(before))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, help, hist)| {
                    let before = earlier.histogram(name);
                    let buckets = hist
                        .buckets
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| {
                            let prev = before.and_then(|h| h.buckets.get(i)).copied().unwrap_or(0);
                            b.saturating_sub(prev)
                        })
                        .collect();
                    let sum = hist.sum.saturating_sub(before.map(|h| h.sum).unwrap_or(0));
                    (
                        name.clone(),
                        help.clone(),
                        HistogramSnapshot { buckets, sum },
                    )
                })
                .collect(),
        }
    }

    /// Renders Prometheus-compatible exposition text: `# HELP` / `# TYPE`
    /// preamble per metric, `name value` samples, and for histograms the
    /// standard cumulative `_bucket{le="..."}` / `_sum` / `_count` triple.
    /// Bucket upper bounds are `2^i - 1` (bucket `i` holds values `< 2^i`),
    /// with a final `+Inf`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, help, value) in &self.counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, help, value) in &self.gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, help, hist) in &self.histograms {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, count) in hist.buckets.iter().enumerate() {
                cumulative += count;
                if i + 1 == hist.buckets.len() {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                } else {
                    let le = (1u64 << i) - 1;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
            }
            let _ = writeln!(out, "{name}_sum {}", hist.sum);
            let _ = writeln!(out, "{name}_count {cumulative}");
        }
        out
    }

    /// Serializes the snapshot over the workspace varint layer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&[SNAPSHOT_VERSION])?;
        write_varint(w, self.counters.len() as u64)?;
        for (name, help, value) in &self.counters {
            write_string(w, name)?;
            write_string(w, help)?;
            write_varint(w, *value)?;
        }
        write_varint(w, self.gauges.len() as u64)?;
        for (name, help, value) in &self.gauges {
            write_string(w, name)?;
            write_string(w, help)?;
            write_varint(w, zigzag(*value))?;
        }
        write_varint(w, self.histograms.len() as u64)?;
        for (name, help, hist) in &self.histograms {
            write_string(w, name)?;
            write_string(w, help)?;
            write_varint(w, hist.buckets.len() as u64)?;
            for &b in &hist.buckets {
                write_varint(w, b)?;
            }
            write_varint(w, hist.sum)?;
        }
        Ok(())
    }

    /// [`write_to`](Self::write_to) into an owned buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .expect("writing to a Vec<u8> cannot fail");
        buf
    }

    /// Parses a snapshot serialized by [`to_bytes`](Self::to_bytes),
    /// rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed input or leftover bytes.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        read_whole(bytes, |r| Self::read_from(r))
    }

    /// Reads a snapshot written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed input and propagates I/O errors.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        if read_u8(r)? != SNAPSHOT_VERSION {
            return Err(invalid("unsupported snapshot version"));
        }
        let mut snap = Snapshot::default();
        let n = read_len(r, MAX_ENTRIES, "counter count")?;
        for _ in 0..n {
            let name = read_string(r, MAX_STRING)?;
            let help = read_string(r, MAX_STRING)?;
            snap.counters.push((name, help, read_varint(r)?));
        }
        let n = read_len(r, MAX_ENTRIES, "gauge count")?;
        for _ in 0..n {
            let name = read_string(r, MAX_STRING)?;
            let help = read_string(r, MAX_STRING)?;
            snap.gauges.push((name, help, unzigzag(read_varint(r)?)));
        }
        let n = read_len(r, MAX_ENTRIES, "histogram count")?;
        for _ in 0..n {
            let name = read_string(r, MAX_STRING)?;
            let help = read_string(r, MAX_STRING)?;
            let nb = read_len(r, NUM_BUCKETS * 4, "histogram bucket count")?;
            let mut buckets = with_declared_capacity(nb);
            for _ in 0..nb {
                buckets.push(read_varint(r)?);
            }
            let sum = read_varint(r)?;
            snap.histograms
                .push((name, help, HistogramSnapshot { buckets, sum }));
        }
        Ok(snap)
    }
}

/// Inserts `entry` into a name-sorted list, replacing a same-named entry.
fn put<V>(list: &mut Vec<(String, String, V)>, entry: (String, String, V)) {
    match list.binary_search_by(|(name, _, _)| name.cmp(&entry.0)) {
        Ok(i) => list[i] = entry,
        Err(i) => list.insert(i, entry),
    }
}

/// Zigzag-encodes a signed value so small magnitudes stay small varints.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new(true);
        r.counter("jobs_total", "Jobs run.").add(17);
        r.gauge("queue_depth", "Queued jobs.").set(-4);
        let h = r.histogram("job_micros", "Job wall time.");
        h.observe(0);
        h.observe(5);
        h.observe(1_000_000);
        r.snapshot()
    }

    #[test]
    fn bytes_roundtrip() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
        // truncation and trailing garbage are rejected
        assert!(Snapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(7);
        assert!(Snapshot::from_bytes(&padded).is_err());
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 123_456, -987_654] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn text_exposition_shape() {
        let text = sample().to_text();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total 17"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth -4"));
        assert!(text.contains("# TYPE job_micros histogram"));
        assert!(text.contains("job_micros_bucket{le=\"0\"} 1"));
        assert!(text.contains("job_micros_bucket{le=\"7\"} 2"));
        assert!(text.contains("job_micros_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("job_micros_sum 1000005"));
        assert!(text.contains("job_micros_count 3"));
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let earlier = sample();
        let r = Registry::new(true);
        r.counter("jobs_total", "Jobs run.").add(20);
        r.counter("new_total", "Appeared mid-interval.").add(3);
        r.gauge("queue_depth", "Queued jobs.").set(9);
        let h = r.histogram("job_micros", "Job wall time.");
        h.observe(0);
        h.observe(5);
        h.observe(1_000_000);
        h.observe(5);
        let later = r.snapshot();

        let d = later.delta(&earlier);
        assert_eq!(d.counter("jobs_total"), Some(3));
        assert_eq!(d.counter("new_total"), Some(3), "new metric keeps value");
        assert_eq!(d.gauge("queue_depth"), Some(9), "gauges pass through");
        let dh = d.histogram("job_micros").unwrap();
        assert_eq!(dh.count(), 1, "one new sample this interval");
        assert_eq!(dh.sum, 5);
        // identical snapshots difference to zero
        let zero = later.delta(&later);
        assert!(zero.counters.iter().all(|(_, _, v)| *v == 0));
        assert!(zero
            .histograms
            .iter()
            .all(|(_, _, h)| h.count() == 0 && h.sum == 0));
    }

    #[test]
    fn delta_counter_reset_clamps_to_zero() {
        // a daemon restart resets counters to zero; the next delta against
        // the pre-restart snapshot must clamp instead of wrapping to ~u64::MAX
        let before_restart = sample(); // jobs_total = 17
        let r = Registry::new(true);
        r.counter("jobs_total", "Jobs run.").add(5);
        let after_restart = r.snapshot();
        let d = after_restart.delta(&before_restart);
        assert_eq!(d.counter("jobs_total"), Some(0), "5 - 17 saturates to 0");

        // same for histogram buckets and sums
        let rh = Registry::new(true);
        let h = rh.histogram("job_micros", "Job wall time.");
        h.observe(5);
        let hd = rh.snapshot().delta(&before_restart);
        let hist = hd.histogram("job_micros").unwrap();
        assert!(hist.buckets.iter().all(|&b| b <= 1), "no wrapped buckets");
        assert_eq!(hist.sum, 0, "5 - 1000005 saturates to 0");
    }

    #[test]
    fn delta_metric_appearing_and_disappearing() {
        let earlier = sample();
        let r = Registry::new(true);
        r.counter("fresh_total", "Registered mid-interval.").add(8);
        let g = r.histogram("fresh_micros", "Registered mid-interval.");
        g.observe(3);
        let later = r.snapshot();
        let d = later.delta(&earlier);
        // appearing: the full value counts as this interval's movement
        assert_eq!(d.counter("fresh_total"), Some(8));
        assert_eq!(d.histogram("fresh_micros").unwrap().count(), 1);
        // disappearing: metrics only in `earlier` are dropped, not negated
        assert_eq!(d.counter("jobs_total"), None);
        assert!(d.histogram("job_micros").is_none());
        assert_eq!(d.counters.len(), 1);
        assert_eq!(d.histograms.len(), 1);
    }

    #[test]
    fn lookup_helpers() {
        let snap = sample();
        assert_eq!(snap.counter("jobs_total"), Some(17));
        assert_eq!(snap.gauge("queue_depth"), Some(-4));
        assert_eq!(snap.histogram("job_micros").unwrap().count(), 3);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn put_keeps_names_sorted_and_unique() {
        let mut snap = sample();
        snap.put_counter("aaa_total".to_owned(), "First.", 1);
        snap.put_counter("zzz_total".to_owned(), "Last.", 2);
        snap.put_counter("jobs_total".to_owned(), "Replaced.", 3);
        snap.put_gauge("queue_depth".to_owned(), "Replaced.", 5);
        let names: Vec<&str> = snap.counters.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["aaa_total", "jobs_total", "zzz_total"]);
        assert_eq!(snap.counter("jobs_total"), Some(3));
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.gauge("queue_depth"), Some(5));
    }
}
