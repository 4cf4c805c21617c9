//! Property tests for the daemon wire protocol: every frame kind must
//! round-trip bit-exactly, and malformed inputs (truncation, oversized
//! length prefixes) must be rejected rather than mis-parsed or
//! over-allocated.

use bpred::PredictorKind;
use btrace::{SiteId, Tracer};
use proptest::prelude::*;
use twodprof_core::{SliceConfig, Thresholds, TwoDProfiler};
use twodprof_engine::JobSpec;
use twodprof_serve::wire::{
    AdmissionTier, ClientFrame, FrameDecoder, Hello, JobOutcome, JobPayload, ServerFrame,
    MAX_EVENTS_PER_FRAME, PROTOCOL_VERSION,
};
use workloads::Scale;

fn predictor_from(seed: u8) -> PredictorKind {
    let all = PredictorKind::ALL;
    all[seed as usize % all.len()]
}

fn scale_from(seed: u8) -> Scale {
    match seed % 3 {
        0 => Scale::Tiny,
        1 => Scale::Small,
        _ => Scale::Full,
    }
}

/// A [`JobSpec`] covering all four job kinds, every scale, and arbitrary
/// (wire-legal) workload/input names.
fn spec_from(workload: &str, input: &str, scale_seed: u8, kind_seed: u8, pred_seed: u8) -> JobSpec {
    let scale = scale_from(scale_seed);
    match kind_seed % 4 {
        0 => JobSpec::count(workload, input, scale),
        1 => JobSpec::accuracy(workload, input, scale, predictor_from(pred_seed)),
        2 => JobSpec::two_d(workload, input, scale, predictor_from(pred_seed)),
        _ => JobSpec::trace(workload, input, scale),
    }
}

proptest! {
    #[test]
    fn hello_roundtrips(
        num_sites in 1u32..=1 << 20,
        pred_seed in any::<u8>(),
        slice_len in 1u64..1 << 40,
        thr_frac in 0.0f64..1.0,
        program in "[a-z0-9./-]{0,32}",
    ) {
        let frame = ClientFrame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            num_sites,
            predictor: predictor_from(pred_seed),
            slice_len,
            exec_threshold: ((slice_len as f64 - 1.0) * thr_frac) as u64,
            program,
        });
        let bytes = frame.encode();
        prop_assert_eq!(ClientFrame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn subscribe_roundtrips(program in "[a-z0-9./-]{0,32}", watch in any::<bool>()) {
        let frame = ClientFrame::Subscribe { program, watch };
        let bytes = frame.encode();
        prop_assert_eq!(ClientFrame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn events_roundtrip(
        events in prop::collection::vec((0u32..1 << 20, any::<bool>()), 0..600),
    ) {
        let frame = ClientFrame::Events(events);
        let bytes = frame.encode();
        prop_assert_eq!(ClientFrame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn server_frames_roundtrip(
        session_id in any::<u64>(),
        events_total in any::<u64>(),
        msg in "[ a-z0-9]{0,40}",
        body in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        for frame in [
            ServerFrame::HelloOk { session_id, tier: AdmissionTier::Accept },
            ServerFrame::HelloOk { session_id, tier: AdmissionTier::Degrade },
            ServerFrame::Ack { events_total },
            ServerFrame::Busy {
                msg: msg.clone(),
                tier: AdmissionTier::Shed,
                retry_after_ms: events_total,
            },
            ServerFrame::Report(body),
            ServerFrame::Error { code: session_id % 250, msg },
        ] {
            let bytes = frame.encode();
            prop_assert_eq!(ServerFrame::decode(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn truncated_client_frames_rejected(
        events in prop::collection::vec((0u32..1 << 20, any::<bool>()), 1..200),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = ClientFrame::Events(events).encode();
        // cut at least one byte off the end: every strict prefix must fail
        let cut = 1 + ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(ClientFrame::decode(&bytes[..bytes.len() - cut]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected(extra in prop::collection::vec(any::<u8>(), 1..16)) {
        let mut bytes = ClientFrame::Flush.encode();
        bytes.extend_from_slice(&extra);
        prop_assert!(ClientFrame::decode(&bytes).is_err());
        let mut bytes = ServerFrame::Ack { events_total: 7 }.encode();
        bytes.extend_from_slice(&extra);
        prop_assert!(ServerFrame::decode(&bytes).is_err());
    }

    #[test]
    fn random_payloads_decode_without_panicking(
        tag in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // a random body behind every tag, known or not: decoding returns,
        // whatever it returns
        let mut payload = vec![tag];
        payload.extend_from_slice(&body);
        let _ = ClientFrame::decode(&payload);
        let _ = ServerFrame::decode(&payload);
        let _ = ClientFrame::decode(&body);
        let _ = ServerFrame::decode(&body);
    }

    // --- fabric frames (SubmitJob 0x0A and its JobResult 0x8A) ---

    #[test]
    fn fabric_client_frames_roundtrip(
        job_id in any::<u64>(),
        workload in "[a-z0-9./-]{1,32}",
        input in "[a-z0-9./-]{0,32}",
        scale_seed in any::<u8>(),
        kind_seed in any::<u8>(),
        pred_seed in any::<u8>(),
    ) {
        let spec = spec_from(&workload, &input, scale_seed, kind_seed, pred_seed);
        let frame = ClientFrame::SubmitJob { job_id, spec };
        let bytes = frame.encode();
        prop_assert_eq!(ClientFrame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn fabric_server_frames_roundtrip(
        job_id in any::<u64>(),
        spec_hash in any::<u64>(),
        checksum in any::<u64>(),
        body in prop::collection::vec(any::<u8>(), 0..300),
        cached in any::<bool>(),
        msg in "[ a-z0-9]{0,40}",
    ) {
        let payload = JobPayload {
            cached,
            spec_hash,
            bytes: body,
            checksum,
        };
        for frame in [
            ServerFrame::JobResult { job_id, outcome: JobOutcome::Done(payload) },
            ServerFrame::JobResult { job_id, outcome: JobOutcome::TooLarge },
            ServerFrame::JobResult { job_id, outcome: JobOutcome::Failed(msg) },
        ] {
            let bytes = frame.encode();
            prop_assert_eq!(ServerFrame::decode(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn truncated_fabric_frames_rejected(
        job_id in any::<u64>(),
        workload in "[a-z0-9./-]{1,32}",
        body in prop::collection::vec(any::<u8>(), 1..200),
        cut_frac in 0.0f64..1.0,
    ) {
        let spec = JobSpec::count(&workload, "train", Scale::Tiny);
        let client = ClientFrame::SubmitJob { job_id, spec }.encode();
        let cut = 1 + ((client.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(ClientFrame::decode(&client[..client.len() - cut]).is_err());

        let server = ServerFrame::JobResult {
            job_id,
            outcome: JobOutcome::Done(JobPayload {
                cached: false,
                spec_hash: job_id,
                bytes: body,
                checksum: 7,
            }),
        }
        .encode();
        let cut = 1 + ((server.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(ServerFrame::decode(&server[..server.len() - cut]).is_err());
    }

    #[test]
    fn fabric_trailing_garbage_rejected(
        job_id in any::<u64>(),
        extra in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let spec = JobSpec::trace("gzip", "train", Scale::Tiny);
        let mut bytes = ClientFrame::SubmitJob { job_id, spec }.encode();
        bytes.extend_from_slice(&extra);
        prop_assert!(ClientFrame::decode(&bytes).is_err());
        let mut bytes = ServerFrame::JobResult { job_id, outcome: JobOutcome::TooLarge }.encode();
        bytes.extend_from_slice(&extra);
        prop_assert!(ServerFrame::decode(&bytes).is_err());
    }
}

/// One length-prefixed wire image of `frames`, exactly what a client's
/// socket would carry.
fn wire_bytes(frames: &[ClientFrame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        btrace::write_frame(&mut bytes, &frame.encode()).unwrap();
    }
    bytes
}

/// Decodes `bytes` with the blocking reader the pre-shard daemon used —
/// the reference the incremental decoder must be byte-identical to.
fn blocking_decode(mut bytes: &[u8]) -> Vec<ClientFrame> {
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        let payload = btrace::read_frame(&mut bytes, btrace::MAX_FRAME_LEN).unwrap();
        frames.push(ClientFrame::decode(&payload).unwrap());
    }
    frames
}

fn drain(decoder: &mut FrameDecoder) -> Vec<ClientFrame> {
    let mut frames = Vec::new();
    while let Some(frame) = decoder.next_client().unwrap() {
        frames.push(frame);
    }
    frames
}

/// A mixed bag of client frame kinds keyed by a seed byte.
fn client_frame_from(kind: u8, events: &[(u32, bool)], name: &str, pred_seed: u8) -> ClientFrame {
    match kind % 6 {
        0 => ClientFrame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            num_sites: 8,
            predictor: predictor_from(pred_seed),
            slice_len: 64,
            exec_threshold: 4,
            program: name.to_owned(),
        }),
        1 => ClientFrame::Events(events.to_vec()),
        2 => ClientFrame::Flush,
        3 => ClientFrame::Finish,
        4 => ClientFrame::Subscribe {
            program: name.to_owned(),
            watch: kind & 0x40 != 0,
        },
        _ => ClientFrame::Resim(predictor_from(pred_seed)),
    }
}

proptest! {
    // The shard loop sees arbitrary read boundaries; every split of the
    // same byte stream must decode to the same frames the blocking reader
    // produces. One byte at a time is the worst case.
    #[test]
    fn incremental_decoder_survives_one_byte_reads(
        kinds in prop::collection::vec(any::<u8>(), 1..8),
        events in prop::collection::vec((0u32..1 << 20, any::<bool>()), 0..200),
        name in "[a-z0-9./-]{0,24}",
        pred_seed in any::<u8>(),
    ) {
        let frames: Vec<ClientFrame> = kinds
            .iter()
            .map(|&k| client_frame_from(k, &events, &name, pred_seed))
            .collect();
        let bytes = wire_bytes(&frames);
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for &b in &bytes {
            decoder.push(&[b]);
            decoded.extend(drain(&mut decoder));
        }
        prop_assert_eq!(decoder.buffered(), 0, "no bytes may be left behind");
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(decoded, blocking_decode(&bytes));
    }

    #[test]
    fn incremental_decoder_survives_random_splits(
        kinds in prop::collection::vec(any::<u8>(), 1..8),
        events in prop::collection::vec((0u32..1 << 20, any::<bool>()), 0..200),
        name in "[a-z0-9./-]{0,24}",
        pred_seed in any::<u8>(),
        splits in prop::collection::vec(any::<u16>(), 0..32),
    ) {
        let frames: Vec<ClientFrame> = kinds
            .iter()
            .map(|&k| client_frame_from(k, &events, &name, pred_seed))
            .collect();
        let bytes = wire_bytes(&frames);
        let mut cuts: Vec<usize> = splits
            .iter()
            .map(|&s| s as usize % (bytes.len() + 1))
            .collect();
        cuts.push(0);
        cuts.push(bytes.len());
        cuts.sort_unstable();
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for pair in cuts.windows(2) {
            decoder.push(&bytes[pair[0]..pair[1]]);
            decoded.extend(drain(&mut decoder));
        }
        prop_assert_eq!(decoder.buffered(), 0, "no bytes may be left behind");
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(decoded, blocking_decode(&bytes));
    }
}

/// Drains with the shard's recycling path: each decoded `Events` vector,
/// contents and all, comes back as the spare for the next frame.
fn drain_reusing(decoder: &mut FrameDecoder, spare: &mut Vec<(u32, bool)>) -> Vec<ClientFrame> {
    let mut frames = Vec::new();
    while let Some(frame) = decoder.next_client_reusing(spare).unwrap() {
        match frame {
            ClientFrame::Events(events) => {
                frames.push(ClientFrame::Events(events.clone()));
                *spare = events;
            }
            other => frames.push(other),
        }
    }
    frames
}

/// Cut points splitting `len` bytes: every byte on its own, or the
/// random `splits`.
fn cut_points(len: usize, one_byte: bool, splits: &[u16]) -> Vec<usize> {
    let mut cuts: Vec<usize> = if one_byte {
        (0..=len).collect()
    } else {
        splits.iter().map(|&s| s as usize % (len + 1)).collect()
    };
    cuts.push(0);
    cuts.push(len);
    cuts.sort_unstable();
    cuts
}

/// One complete frame around `payload`, whatever the payload holds.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    btrace::write_frame(&mut bytes, payload).unwrap();
    bytes
}

proptest! {
    // The shard decodes each Events frame into the previous frame's
    // vector. A long frame followed by a shorter one must not leak the
    // long frame's tail into the short one, under any read boundaries.
    #[test]
    fn recycling_decoder_matches_the_blocking_reader(
        raw in prop::collection::vec((0u32..1 << 20, any::<bool>(), 0u8..4), 1..300),
        short_seed in any::<u16>(),
        kinds in prop::collection::vec(any::<u8>(), 0..6),
        name in "[a-z0-9./-]{0,24}",
        pred_seed in any::<u8>(),
        one_byte in any::<bool>(),
        splits in prop::collection::vec(any::<u16>(), 0..32),
    ) {
        // three events in four at a hot site below 64 (one byte each), so
        // runs of one-byte events alternate with wider ones
        let long: Vec<(u32, bool)> = raw
            .iter()
            .map(|&(site, taken, hot)| (if hot > 0 { site % 64 } else { site }, taken))
            .collect();
        let short_len = short_seed as usize % long.len();
        // the short frame differs from the long one in every event, so a
        // stale event shows as a wrong value, not only a wrong length
        let short: Vec<(u32, bool)> =
            long[..short_len].iter().map(|&(site, taken)| (site ^ 1, !taken)).collect();
        let mut frames = vec![ClientFrame::Events(long.clone()), ClientFrame::Events(short)];
        frames.extend(kinds.iter().map(|&k| client_frame_from(k, &long[short_len..], &name, pred_seed)));
        frames.push(ClientFrame::Events(Vec::new()));
        let bytes = wire_bytes(&frames);
        let mut decoder = FrameDecoder::new();
        let mut spare = Vec::new();
        let mut decoded = Vec::new();
        for pair in cut_points(bytes.len(), one_byte, &splits).windows(2) {
            decoder.push(&bytes[pair[0]..pair[1]]);
            decoded.extend(drain_reusing(&mut decoder, &mut spare));
        }
        prop_assert_eq!(decoder.buffered(), 0, "no bytes may be left behind");
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(decoded, blocking_decode(&bytes));
    }

    // A complete frame whose Events body stops short is an error on both
    // paths — never a panic, never a partial batch.
    #[test]
    fn truncated_events_body_is_an_error_on_both_paths(
        events in prop::collection::vec((0u32..1 << 20, any::<bool>()), 1..200),
        cut_seed in any::<u16>(),
        one_byte in any::<bool>(),
        splits in prop::collection::vec(any::<u16>(), 0..8),
    ) {
        let payload = ClientFrame::Events(events).encode();
        // keep the tag, drop at least the last byte
        let keep = 1 + cut_seed as usize % (payload.len() - 1);
        let body = &payload[..keep];
        prop_assert!(ClientFrame::decode(body).is_err());
        let bytes = framed(body);
        let mut decoder = FrameDecoder::new();
        let mut spare = vec![(7, true); 3];
        let mut outcome = None;
        for pair in cut_points(bytes.len(), one_byte, &splits).windows(2) {
            decoder.push(&bytes[pair[0]..pair[1]]);
            match decoder.next_client_reusing(&mut spare) {
                Ok(None) => {}
                other => {
                    outcome = Some(other);
                    break;
                }
            }
        }
        prop_assert!(matches!(outcome, Some(Err(_))), "got {:?}", outcome);
    }

    // An Events frame may declare up to MAX_EVENTS_PER_FRAME events; a
    // frame that declares more than its bytes can hold must fail without
    // reserving for the declared count.
    #[test]
    fn events_count_beyond_the_payload_reserves_only_the_payload(
        events in prop::collection::vec((0u32..1 << 20, any::<bool>()), 0..100),
        declared_seed in any::<u32>(),
    ) {
        let encoded = ClientFrame::Events(events.clone()).encode();
        // the count of under 128 events is the single byte after the tag
        let body = &encoded[2..];
        let declared = body.len() + 1 + declared_seed as usize % (MAX_EVENTS_PER_FRAME - body.len());
        let mut payload = vec![encoded[0]];
        btrace::write_varint(&mut payload, declared as u64).unwrap();
        payload.extend_from_slice(body);
        prop_assert!(ClientFrame::decode(&payload).is_err());
        let mut decoder = FrameDecoder::new();
        decoder.push(&framed(&payload));
        let mut spare = Vec::new();
        prop_assert!(decoder.next_client_reusing(&mut spare).is_err());
        prop_assert!(
            spare.capacity() <= payload.len(),
            "reserved {} events for a {}-byte payload",
            spare.capacity(),
            payload.len()
        );
    }
}

/// Regression: a `Hello` split mid-frame (the handshake race a slow client
/// hits first) must stay pending, then decode whole — not error, not
/// produce a partial frame.
#[test]
fn hello_split_mid_frame_decodes_whole() {
    let hello = ClientFrame::Hello(Hello {
        protocol: PROTOCOL_VERSION,
        num_sites: 128,
        predictor: PredictorKind::Gshare4Kb,
        slice_len: 10_000,
        exec_threshold: 16,
        program: "split-regression/program".to_owned(),
    });
    let bytes = wire_bytes(std::slice::from_ref(&hello));
    assert!(bytes.len() > 4, "hello must span multiple reads");
    let mut decoder = FrameDecoder::new();
    decoder.push(&bytes[..3]);
    assert_eq!(
        decoder.next_client().unwrap(),
        None,
        "prefix must stay pending"
    );
    decoder.push(&bytes[3..bytes.len() - 1]);
    assert_eq!(
        decoder.next_client().unwrap(),
        None,
        "one byte short must stay pending"
    );
    decoder.push(&bytes[bytes.len() - 1..]);
    assert_eq!(decoder.next_client().unwrap(), Some(hello));
    assert_eq!(decoder.buffered(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Regression guard for the report wire format itself: a report built
    // from a random event stream must survive `to_bytes -> from_bytes` and
    // re-encode to the identical byte string (the property the daemon's
    // bit-identical `--verify` mode rests on).
    #[test]
    fn profile_report_bytes_roundtrip(
        events in prop::collection::vec((0u32..8, any::<bool>()), 1..4000),
        pred_seed in any::<u8>(),
    ) {
        let mut prof = TwoDProfiler::new(
            8,
            predictor_from(pred_seed).build(),
            SliceConfig::new(64, 8),
        );
        for &(site, taken) in &events {
            prof.branch(SiteId(site), taken);
        }
        let report = prof.finish(Thresholds::paper());
        let bytes = report.to_bytes();
        let decoded = twodprof_core::ProfileReport::from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }
}

/// An oversized length prefix must be rejected *before* any allocation is
/// attempted — a hostile peer must not be able to make the daemon reserve
/// gigabytes with a five-byte frame header.
#[test]
fn oversized_length_prefix_rejected() {
    let mut bytes = Vec::new();
    btrace::write_varint(&mut bytes, u64::MAX).unwrap();
    bytes.extend_from_slice(&[0u8; 16]);
    let mut r = &bytes[..];
    let err = btrace::read_frame(&mut r, btrace::MAX_FRAME_LEN).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
