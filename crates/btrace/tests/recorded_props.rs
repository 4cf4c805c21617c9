//! Property tests for [`RecordedTrace`]: the columnar encoding must
//! round-trip every branch stream bit-exactly (record → serialize → decode
//! → replay), and corrupted bytes — truncation or a single flipped bit —
//! must be rejected rather than silently mis-decoded.

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

proptest! {
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
