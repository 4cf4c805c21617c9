//! Phase detection over slice-accuracy time series.
//!
//! The paper's classifier reduces a branch's slice series to three scalar
//! statistics. This extension recovers the *structure* the statistics hint
//! at: it segments a series into phases of roughly constant accuracy via
//! recursive binary segmentation (split at the point that maximizes the
//! standardized mean difference, recurse while the gain is significant).
//! Useful for Figure 8-style analysis and for explaining *why* a branch was
//! classified input-dependent.

/// One detected phase: a maximal run of slices with roughly constant value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase {
    /// Index of the first sample of the phase (into the series).
    pub start: usize,
    /// One past the last sample.
    pub end: usize,
    /// Mean value over the phase.
    pub mean: f64,
}

impl Phase {
    /// Number of samples in the phase.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the phase is empty (never produced by detection).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Configuration for [`detect_phases_in_series`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseConfig {
    /// Minimum samples per phase.
    pub min_len: usize,
    /// Minimum absolute mean difference between adjacent phases for a split
    /// to be accepted (same units as the series, e.g. accuracy fraction).
    pub min_delta: f64,
}

impl Default for PhaseConfig {
    /// Defaults tuned for slice-accuracy series: phases of at least 5
    /// slices, separated by at least a 5% accuracy shift (the paper's
    /// input-dependence delta).
    fn default() -> Self {
        Self {
            min_len: 5,
            min_delta: 0.05,
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Finds the best split of `xs` into two segments of at least `min_len`
/// samples; returns `(index, |mean difference|)` of the strongest split.
fn best_split(xs: &[f64], min_len: usize) -> Option<(usize, f64)> {
    let n = xs.len();
    if n < 2 * min_len {
        return None;
    }
    let total: f64 = xs.iter().sum();
    let mut left_sum = xs[..min_len - 1].iter().sum::<f64>();
    let mut best: Option<(usize, f64)> = None;
    for k in min_len..=n - min_len {
        left_sum += xs[k - 1];
        let left_mean = left_sum / k as f64;
        let right_mean = (total - left_sum) / (n - k) as f64;
        let delta = (left_mean - right_mean).abs();
        if best.map(|(_, d)| delta > d).unwrap_or(true) {
            best = Some((k, delta));
        }
    }
    best
}

fn segment(xs: &[f64], offset: usize, config: &PhaseConfig, out: &mut Vec<Phase>) {
    if let Some((k, delta)) = best_split(xs, config.min_len) {
        if delta >= config.min_delta {
            segment(&xs[..k], offset, config, out);
            segment(&xs[k..], offset + k, config, out);
            return;
        }
    }
    out.push(Phase {
        start: offset,
        end: offset + xs.len(),
        mean: mean(xs),
    });
}

/// Segments a series into phases of roughly constant value: the body of
/// [`detect_phases_in_series`].
fn detect_phases(series: &[f64], config: &PhaseConfig) -> Vec<Phase> {
    if series.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    segment(series, 0, config, &mut out);
    // merge adjacent phases whose means ended up closer than min_delta
    // (possible when a coarse split later refines asymmetrically)
    let mut merged: Vec<Phase> = Vec::with_capacity(out.len());
    for p in out {
        match merged.last_mut() {
            Some(last) if (last.mean - p.mean).abs() < config.min_delta => {
                let total = last.mean * last.len() as f64 + p.mean * p.len() as f64;
                last.end = p.end;
                last.mean = total / last.len() as f64;
            }
            _ => merged.push(p),
        }
    }
    merged
}

/// Segments a recorded `(slice, accuracy)` series, as produced by
/// [`ProfileReport::series`](crate::ProfileReport::series), into phases of
/// roughly constant accuracy.
///
/// Returns contiguous, non-overlapping phases covering the whole series (an
/// empty series yields no phases); `start` and `end` index the samples.
/// Adjacent detected phases differ in mean by at least roughly
/// `config.min_delta` (up to interactions between recursion levels).
pub fn detect_phases_in_series(samples: &[(u64, f64)], config: &PhaseConfig) -> Vec<Phase> {
    let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
    detect_phases(&values, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(segments: &[(usize, f64)]) -> Vec<f64> {
        segments
            .iter()
            .flat_map(|&(n, v)| std::iter::repeat_n(v, n))
            .collect()
    }

    #[test]
    fn constant_series_is_one_phase() {
        let xs = series(&[(50, 0.9)]);
        let phases = detect_phases(&xs, &PhaseConfig::default());
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].start, 0);
        assert_eq!(phases[0].end, 50);
        assert!((phases[0].mean - 0.9).abs() < 1e-12);
    }

    #[test]
    fn single_step_found_at_the_boundary() {
        let xs = series(&[(30, 0.95), (20, 0.60)]);
        let phases = detect_phases(&xs, &PhaseConfig::default());
        assert_eq!(phases.len(), 2, "{phases:?}");
        assert_eq!(phases[0].end, 30);
        assert_eq!(phases[1].start, 30);
        assert!((phases[0].mean - 0.95).abs() < 1e-9);
        assert!((phases[1].mean - 0.60).abs() < 1e-9);
    }

    #[test]
    fn three_phases_recovered() {
        let xs = series(&[(25, 0.9), (25, 0.5), (25, 0.8)]);
        let phases = detect_phases(&xs, &PhaseConfig::default());
        assert_eq!(phases.len(), 3, "{phases:?}");
        assert_eq!(phases[0].end, 25);
        assert_eq!(phases[1].end, 50);
        assert_eq!(phases[2].end, 75);
    }

    #[test]
    fn sub_threshold_steps_are_ignored() {
        let xs = series(&[(30, 0.90), (30, 0.92)]);
        let phases = detect_phases(&xs, &PhaseConfig::default());
        assert_eq!(phases.len(), 1, "2% step below 5% delta: {phases:?}");
    }

    #[test]
    fn noise_does_not_fragment() {
        // 0.9 +- small deterministic jitter
        let xs: Vec<f64> = (0..100)
            .map(|i| 0.9 + ((i * 37) % 10) as f64 * 0.002 - 0.01)
            .collect();
        let phases = detect_phases(&xs, &PhaseConfig::default());
        assert_eq!(phases.len(), 1, "{phases:?}");
    }

    #[test]
    fn noisy_step_still_detected() {
        let xs: Vec<f64> = (0..80)
            .map(|i| {
                let base = if i < 40 { 0.92 } else { 0.70 };
                base + ((i * 13) % 7) as f64 * 0.004 - 0.012
            })
            .collect();
        let phases = detect_phases(&xs, &PhaseConfig::default());
        assert_eq!(phases.len(), 2, "{phases:?}");
        assert!((38..=42).contains(&phases[0].end), "{phases:?}");
    }

    #[test]
    fn phases_tile_the_series() {
        let xs = series(&[(12, 0.2), (7, 0.9), (30, 0.5), (6, 0.95)]);
        let phases = detect_phases(&xs, &PhaseConfig::default());
        assert_eq!(phases[0].start, 0);
        assert_eq!(phases.last().unwrap().end, xs.len());
        for w in phases.windows(2) {
            assert_eq!(w[0].end, w[1].start, "phases must tile: {phases:?}");
        }
        let covered: usize = phases.iter().map(Phase::len).sum();
        assert_eq!(covered, xs.len());
    }

    #[test]
    fn short_and_empty_series() {
        assert!(detect_phases(&[], &PhaseConfig::default()).is_empty());
        let one = detect_phases(&[0.5], &PhaseConfig::default());
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].len(), 1);
        assert!(!one[0].is_empty());
    }

    #[test]
    fn min_len_respected() {
        let xs = series(&[(3, 0.1), (60, 0.9)]);
        let config = PhaseConfig {
            min_len: 10,
            min_delta: 0.05,
        };
        let phases = detect_phases(&xs, &config);
        for p in &phases {
            assert!(p.len() >= 10 || phases.len() == 1, "{phases:?}");
        }
    }

    #[test]
    fn tuple_series_helper() {
        let samples: Vec<(u64, f64)> = (0..40)
            .map(|i| (i, if i < 20 { 1.0 } else { 0.5 }))
            .collect();
        let phases = detect_phases_in_series(&samples, &PhaseConfig::default());
        assert_eq!(phases.len(), 2);
    }
}
