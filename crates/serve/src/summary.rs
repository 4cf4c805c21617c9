//! The one text rendering of a daemon's metrics [`Snapshot`], shared by the
//! `twodprofd --stats-interval` stderr summary and `twodprof-client top`,
//! and the one reading of its per-shard rows, which `/vars` and `/healthz`
//! use too.

use crate::wire::AdmissionTier;
use std::fmt::Write as _;
use twodprof_obs::Snapshot;

/// The counters of the summary, one line per group: `(group, counter
/// name without its `_total` suffix, label its total is printed under)`.
const COUNTERS: &[(&str, &str, &str)] = &[
    ("sessions", "serve_sessions_opened", "opened"),
    ("sessions", "serve_sessions_finished", "finished"),
    ("sessions", "serve_sessions_aborted", "aborted"),
    ("sessions", "serve_events", "event(s)"),
    ("cache", "engine_cache_memo_hits", "memo hit(s)"),
    ("cache", "engine_cache_hits", "disk hit(s)"),
    ("cache", "engine_cache_misses", "miss(es)"),
    ("cache", "engine_cache_corrupt", "corrupt"),
    ("traces", "trace_record", "recorded"),
    ("traces", "trace_replay", "replayed"),
    ("fabric", "fabric_jobs_submitted", "job(s) submitted"),
    ("fabric", "fabric_jobs_completed", "completed"),
    ("fabric", "fabric_remote_cache_hits", "remote cache hit(s)"),
    ("stream", "stream_windows_folded", "window(s) folded"),
    ("stream", "stream_verdicts", "verdict(s)"),
    ("stream", "stream_drift_events", "drift event(s)"),
    ("stream", "serve_subscriber_drops", "subscriber drop(s)"),
    ("admit", "serve_admit_accept", "accepted"),
    ("admit", "serve_admit_degrade", "degraded"),
    ("admit", "serve_admit_shed", "shed"),
    ("spill", "serve_spill_segments", "segment(s)"),
    ("spill", "serve_spill_bytes", "byte(s)"),
];

/// One shard's row of a daemon snapshot: its `serve_shard{i}_*` gauges.
pub(crate) struct ShardRow {
    pub(crate) tier: AdmissionTier,
    pub(crate) sessions: i64,
    pub(crate) resident_bytes: i64,
    pub(crate) spilled_bytes: i64,
    pub(crate) lag_micros: i64,
    pub(crate) tick_micros: i64,
    pub(crate) out_buffer_high_water_bytes: i64,
}

/// The shard rows of `snap`, shard 0 first: one per index with a
/// `serve_shard{i}_sessions` gauge, up to the first missing index. A
/// missing gauge reads as zero, an unknown tier as shed.
pub(crate) fn shard_rows(snap: &Snapshot) -> Vec<ShardRow> {
    (0..)
        .map_while(|i| {
            let gauge = |name: &str| snap.gauge(&format!("serve_shard{i}_{name}"));
            let level = |name: &str| gauge(name).unwrap_or(0);
            Some(ShardRow {
                sessions: gauge("sessions")?,
                tier: AdmissionTier::from_u64(level("tier") as u64).unwrap_or(AdmissionTier::Shed),
                resident_bytes: level("resident_bytes"),
                spilled_bytes: level("spilled_bytes"),
                lag_micros: level("lag_micros"),
                tick_micros: level("last_tick_micros"),
                out_buffer_high_water_bytes: level("out_buffer_high_water_bytes"),
            })
        })
        .collect()
}

/// Appends the summary of `snap` to `out`, every line starting with
/// `prefix`: one line per counter group, each total with its rate over the
/// `secs` since `prev` (zero without a `prev`), then the live sessions and
/// one row per shard from [`shard_rows`].
pub(crate) fn render(
    out: &mut String,
    prefix: &str,
    snap: &Snapshot,
    prev: Option<&Snapshot>,
    secs: f64,
) {
    let delta = prev.map(|p| snap.delta(p)).unwrap_or_default();
    for line in COUNTERS.chunk_by(|a, b| a.0 == b.0) {
        let items = line.iter().map(|(_, name, label)| {
            let name = format!("{name}_total");
            let total = snap.counter(&name).unwrap_or(0);
            let rate = delta.counter(&name).unwrap_or(0) as f64 / secs.max(1e-9);
            format!("{total} {label} ({rate:.1}/s)")
        });
        let _ = writeln!(
            out,
            "{prefix}{}: {}",
            line[0].0,
            items.collect::<Vec<_>>().join(", ")
        );
    }
    let rows = shard_rows(snap);
    let live: i64 = rows.iter().map(|row| row.sessions).sum();
    let _ = writeln!(
        out,
        "{prefix}shards: {}, {live} live session(s)",
        rows.len()
    );
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "{prefix}shard {i}: {:<8} {} session(s), resident {}B, spilled {}B, lag {}us, backlog {}B",
            row.tier.label(),
            row.sessions,
            row.resident_bytes,
            row.spilled_bytes,
            row.lag_micros,
            row.out_buffer_high_water_bytes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(counters: &[(&str, u64)], gauges: &[(&str, i64)]) -> Snapshot {
        Snapshot {
            counters: counters
                .iter()
                .map(|&(n, v)| (n.to_owned(), String::new(), v))
                .collect(),
            gauges: gauges
                .iter()
                .map(|&(n, v)| (n.to_owned(), String::new(), v))
                .collect(),
            histograms: Vec::new(),
        }
    }

    #[test]
    fn renders_totals_rates_and_one_row_per_shard() {
        let prev = snapshot(&[("serve_events_total", 100)], &[]);
        let snap = snapshot(
            &[
                ("serve_events_total", 300),
                ("fabric_jobs_submitted_total", 4),
            ],
            &[
                ("serve_shard0_sessions", 2),
                ("serve_shard0_tier", 1),
                ("serve_shard1_sessions", 1),
                ("serve_shard1_lag_micros", 7),
            ],
        );
        let mut out = String::new();
        render(&mut out, "> ", &snap, Some(&prev), 2.0);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "> sessions: 0 opened (0.0/s), 0 finished (0.0/s), 0 aborted (0.0/s), \
             300 event(s) (100.0/s)"
        );
        assert!(lines[3].starts_with("> fabric: 4 job(s) submitted (2.0/s), "));
        assert_eq!(lines[7], "> shards: 2, 3 live session(s)");
        assert!(lines[8].starts_with("> shard 0: degrade  2 session(s), "));
        assert!(lines[9].ends_with(", lag 7us, backlog 0B"));
        assert_eq!(lines.len(), 10);
    }

    #[test]
    fn an_empty_snapshot_renders_zeros() {
        let mut out = String::new();
        render(&mut out, "", &Snapshot::default(), None, 1.0);
        assert!(out.starts_with("sessions: 0 opened (0.0/s), "));
        assert!(out.ends_with("shards: 0, 0 live session(s)\n"));
    }
}
