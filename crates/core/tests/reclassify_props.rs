//! Property tests for `ProfileReport::reclassify`: a report finished under
//! the paper's thresholds and reclassified under any other set is
//! byte-identical to the report finished under that set directly, for the
//! accuracy profiler and the bias profiler alike.

use bpred::Gshare;
use btrace::{SiteId, Tracer};
use proptest::prelude::*;
use twodprof_core::{
    Bias2DProfiler, MeanThreshold, ProfileReport, SliceConfig, Thresholds, TwoDProfiler,
};

const SITES: usize = 6;

/// Strategy: a branch stream over `SITES` sites, long enough to span many
/// slices.
fn stream() -> impl Strategy<Value = Vec<(u32, bool)>> {
    prop::collection::vec((0u32..SITES as u32, any::<bool>()), 1..3_000)
}

/// Builds thresholds from raw draws: a program-accuracy or fixed MEAN
/// threshold, a STD threshold of 0, a small value or `f64::MAX` (the test
/// switched off), and a PAM threshold anywhere in `[0, 0.5]`, edges
/// included.
fn thresholds(
    fixed_mean: Option<f64>,
    std_pick: u8,
    small: f64,
    pam_pick: u8,
    pam: f64,
) -> Thresholds {
    Thresholds {
        mean: fixed_mean.map_or(MeanThreshold::ProgramAccuracy, MeanThreshold::Fixed),
        std: match std_pick % 3 {
            0 => 0.0,
            1 => small,
            _ => f64::MAX,
        },
        pam: match pam_pick % 4 {
            0 => 0.0,
            1 => 0.5,
            _ => pam,
        },
    }
}

/// Finishes a fresh profiler of each kind over `events` under `t`:
/// `[accuracy, bias]`.
fn finish(
    events: &[(u32, bool)],
    config: SliceConfig,
    series: bool,
    t: Thresholds,
) -> [ProfileReport; 2] {
    let (mut acc, mut bias) = if series {
        (
            TwoDProfiler::with_series(SITES, Gshare::new(8, 8), config),
            Bias2DProfiler::with_series(SITES, config),
        )
    } else {
        (
            TwoDProfiler::new(SITES, Gshare::new(8, 8), config),
            Bias2DProfiler::new(SITES, config),
        )
    };
    for &(site, taken) in events {
        acc.branch(SiteId(site), taken);
        bias.branch(SiteId(site), taken);
    }
    [acc.finish(t), bias.finish(t)]
}

proptest! {
    #[test]
    fn reclassify_matches_finishing_under_the_same_thresholds(
        events in stream(),
        slicing in (8u64..400, 0u64..8, any::<bool>()),
        mean in (any::<bool>(), 0.0f64..1.0),
        rest in (any::<u8>(), 0.0f64..0.1, (any::<u8>(), 0.0f64..0.5)),
    ) {
        let (slice_len, exec_threshold, series) = slicing;
        let (fixed, mean_th) = mean;
        let (std_pick, small, (pam_pick, pam)) = rest;
        let config = SliceConfig::new(slice_len, exec_threshold.min(slice_len - 1));
        let t = thresholds(fixed.then_some(mean_th), std_pick, small, pam_pick, pam);
        let direct = finish(&events, config, series, t);
        let paper = finish(&events, config, series, Thresholds::paper());
        for (kind, (d, p)) in ["accuracy", "bias"].iter().zip(direct.iter().zip(&paper)) {
            prop_assert_eq!(d.to_bytes(), p.reclassify(t).to_bytes(), "{} report under {:?}", kind, t);
        }
    }
}
