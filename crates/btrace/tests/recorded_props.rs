//! Property tests for [`RecordedTrace`]: the columnar encoding must
//! round-trip every branch stream bit-exactly (record → serialize → decode
//! → replay), corrupted bytes — truncation or a single flipped bit — must
//! be rejected rather than silently mis-decoded, and the run view must
//! reproduce the replayed stream on site tables wide enough for multi-byte
//! deltas, cut or not.

use btrace::{RecordedTrace, SiteId, Tracer};
use proptest::prelude::*;

/// Collects a replayed stream back into a vector for comparison.
#[derive(Default)]
struct Collector(Vec<(u32, bool)>);

impl Tracer for Collector {
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.0.push((site.0, taken));
    }
}

fn record(num_sites: u32, events: &[(u32, bool)]) -> RecordedTrace {
    let mut trace = RecordedTrace::new(num_sites as usize);
    for &(site, taken) in events {
        trace.push(SiteId(site % num_sites), taken);
    }
    trace
}

/// Records `steps` of `(jump, streak, directions)` over a `num_sites`
/// table: each step jumps to `jump % num_sites` (a far jump on a wide
/// table, so a multi-byte delta) and stays there for `streak + 1` events.
fn record_streaks(num_sites: u32, steps: &[(u32, u32, u64)]) -> RecordedTrace {
    let mut trace = RecordedTrace::new(num_sites as usize);
    for &(jump, streak, dirs) in steps {
        for i in 0..=streak {
            trace.push(SiteId(jump % num_sites), dirs >> (i % 64) & 1 == 1);
        }
    }
    trace
}

/// Asserts the run view of `trace` cut every `period` events (`None`: the
/// plain view): `next` and `fold` yield the same runs, the runs flatten to
/// the replayed stream, no run straddles a direction word or a multiple of
/// `period`, and each run ends at a site change, a direction word
/// boundary, a multiple of `period` or the end of the trace.
fn assert_runs_match_replay(trace: &RecordedTrace, period: Option<u64>) {
    let runs = || match period {
        Some(period) => trace.site_runs_cut(period),
        None => trace.site_runs(),
    };
    let mut by_next = Vec::new();
    for run in runs() {
        by_next.push(run);
    }
    let by_fold = runs().fold(Vec::new(), |mut v, run| {
        v.push(run);
        v
    });
    assert_eq!(
        by_next, by_fold,
        "next and fold disagree (period {period:?})"
    );
    let mut replayed = Collector::default();
    trace.replay_into(&mut replayed);
    let events = replayed.0;
    let mut flat = Vec::new();
    for run in &by_next {
        assert!((1..=64).contains(&run.len));
        let start = flat.len() as u64;
        let last = start + run.len as u64 - 1;
        assert_eq!(start / 64, last / 64, "a run straddles a direction word");
        if let Some(p) = period {
            assert_eq!(start / p, last / p, "a run straddles a cut (period {p})");
        }
        for i in 0..run.len {
            flat.push((run.site.0, run.bits >> i & 1 == 1));
        }
        let end = flat.len();
        let cut = period.is_some_and(|p| (end as u64).is_multiple_of(p));
        assert!(
            end == events.len() || events[end].0 != run.site.0 || end.is_multiple_of(64) || cut,
            "a run ends at event {end} for no reason (period {period:?})"
        );
    }
    assert_eq!(
        flat, events,
        "runs do not flatten to the stream (period {period:?})"
    );
}

proptest! {
    #[test]
    fn site_runs_match_replay_on_wide_site_tables(
        wide in 0usize..2,
        steps in prop::collection::vec((any::<u32>(), 0u32..150, any::<u64>()), 1..120),
        period in 0usize..6,
    ) {
        // 300 sites: two-byte deltas; 20 000 sites: three-byte ones
        let num_sites = [300, 20_000][wide];
        let trace = record_streaks(num_sites, &steps);
        let period = [None, Some(1), Some(63), Some(64), Some(65), Some(500)][period];
        assert_runs_match_replay(&trace, period);
        let decoded = RecordedTrace::from_bytes(&trace.to_bytes()).expect("decode own bytes");
        assert_runs_match_replay(&decoded, period);
    }

    #[test]
    fn record_serialize_decode_replay_is_identity(
        num_sites in 1u32..200,
        events in prop::collection::vec((any::<u32>(), any::<bool>()), 0..2000),
    ) {
        let trace = record(num_sites, &events);
        let bytes = trace.to_bytes();
        let decoded = RecordedTrace::from_bytes(&bytes).expect("decode own bytes");
        prop_assert_eq!(&decoded, &trace);
        let mut original = Collector::default();
        trace.replay_into(&mut original);
        let mut replayed = Collector::default();
        decoded.replay_into(&mut replayed);
        prop_assert_eq!(replayed.0, original.0);
        prop_assert_eq!(decoded.events(), events.len() as u64);
        prop_assert_eq!(decoded.num_sites(), num_sites as usize);
    }

    #[test]
    fn serialization_is_canonical(
        num_sites in 1u32..64,
        events in prop::collection::vec((any::<u32>(), any::<bool>()), 0..500),
    ) {
        // decode(encode(x)) must re-encode to the same bytes: no two byte
        // strings decode to the same trace along the happy path
        let bytes = record(num_sites, &events).to_bytes();
        let reencoded = RecordedTrace::from_bytes(&bytes).expect("decode").to_bytes();
        prop_assert_eq!(reencoded, bytes);
    }

    #[test]
    fn truncation_is_rejected(
        num_sites in 1u32..64,
        events in prop::collection::vec((any::<u32>(), any::<bool>()), 1..300),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = record(num_sites, &events).to_bytes();
        // every strict prefix must fail to decode
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert!(RecordedTrace::from_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn single_bit_flip_is_rejected(
        num_sites in 1u32..64,
        events in prop::collection::vec((any::<u32>(), any::<bool>()), 1..300),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let bytes = record(num_sites, &events).to_bytes();
        let pos = (bytes.len() as f64 * pos_frac) as usize;
        prop_assert!(pos < bytes.len());
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;
        prop_assert!(
            RecordedTrace::from_bytes(&corrupt).is_err(),
            "flipping bit {} of byte {} went undetected", bit, pos
        );
    }

    #[test]
    fn random_bytes_are_rejected(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        header in 0usize..30,
    ) {
        prop_assert!(RecordedTrace::from_bytes(&noise).is_err());
        // the same noise behind a valid header's first bytes reaches the
        // checksum and column checks
        let mut bytes = record(3, &[(0, true), (1, false)]).to_bytes();
        bytes.truncate(header.min(bytes.len()));
        bytes.extend_from_slice(&noise);
        prop_assert!(RecordedTrace::from_bytes(&bytes).is_err());
    }
}
