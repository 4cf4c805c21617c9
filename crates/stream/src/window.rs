//! Per-branch sliding-window slice statistics.
//!
//! [`SiteWindow`] is the streaming counterpart of `core`'s `BranchState`,
//! and is built from one: the same Figure 9b fold, plus a bounded ring of
//! the most recent counted slices whose oldest sample the fold's eviction
//! hook takes back out of the statistics. Pushes and evictions are O(1);
//! Σ and Σ² are rebuilt from the ring once per full window turnover to keep
//! float cancellation from accumulating.
//!
//! When the window is at least as large as the run nothing is ever evicted
//! or rebuilt, so the statistics are exactly `BranchState`'s, which is what
//! the window == run equivalence test pins down.

use std::collections::VecDeque;
use twodprof_core::BranchState;

/// One counted slice retained in the window.
#[derive(Clone, Copy, Debug)]
struct Sample {
    /// FIR-filtered slice accuracy (Figure 9b's `LPA` blend).
    filtered: f64,
    /// Whether this sample counted toward points-above-mean when pushed.
    above: bool,
}

/// Sliding-window MEAN/STD/PAM/FIR state for one static branch site.
#[derive(Clone, Debug, Default)]
pub(crate) struct SiteWindow {
    /// The fold's statistics over exactly the samples in `ring`; its FIR
    /// memory survives eviction.
    state: BranchState,
    ring: VecDeque<Sample>,
    /// Evictions since the last Σ/Σ² rebuild.
    stale: usize,
}

impl SiteWindow {
    /// Folds one closed slice in which this site executed `exec` times with
    /// `correct` correct predictions, keeping at most `window` samples.
    /// Slices at or below `exec_threshold` are discarded exactly as in the
    /// batch profiler. Returns whether the slice was counted.
    pub(crate) fn fold(
        &mut self,
        exec: u64,
        correct: u64,
        exec_threshold: u64,
        window: usize,
    ) -> bool {
        let (ring, stale) = (&mut self.ring, &mut self.stale);
        self.state.record_batch(exec, correct);
        let counted = self.state.end_slice_with(exec_threshold, |state| {
            // The new sample is already in Σ; points-above-mean then tests
            // it against the window it enters.
            if ring.len() >= window {
                let old = ring.pop_front().expect("window is at least 1");
                state.remove(old.filtered, old.above);
                *stale += 1;
            }
        });
        let Some((filtered, above)) = counted else {
            return false;
        };
        ring.push_back(Sample { filtered, above });
        if *stale >= ring.len() {
            self.state.resum(ring.iter().map(|s| s.filtered));
            *stale = 0;
        }
        true
    }

    /// The windowed statistics: `slices()` counted slices in the window and
    /// their mean, standard deviation and points-above-mean fraction.
    pub(crate) fn stats(&self) -> &BranchState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_batch(slices: &[(u64, u64)], threshold: u64) -> BranchState {
        let mut s = BranchState::new();
        for &(exec, correct) in slices {
            for i in 0..exec {
                s.record(i < correct);
            }
            s.end_slice(threshold);
        }
        s
    }

    fn feed_window(slices: &[(u64, u64)], threshold: u64, window: usize) -> SiteWindow {
        let mut w = SiteWindow::default();
        for &(exec, correct) in slices {
            w.fold(exec, correct, threshold, window);
        }
        w
    }

    fn slices(n: u64) -> Vec<(u64, u64)> {
        (0..n)
            .map(|i| {
                let exec = 100 + (i * 13) % 40;
                let correct = exec * (55 + (i * 7) % 45) / 100;
                (exec, correct)
            })
            .collect()
    }

    #[test]
    fn unevicted_window_matches_branch_state_exactly() {
        let data = slices(64);
        let batch = feed_batch(&data, 10);
        let win = feed_window(&data, 10, 64);
        assert_eq!(win.stats().slices(), 64);
        assert_eq!(win.stats().mean(), batch.mean(), "bit-identical mean");
        assert_eq!(win.stats().std_dev(), batch.std_dev(), "bit-identical std");
        assert_eq!(
            win.stats().points_above_mean(),
            batch.points_above_mean(),
            "bit-identical PAM"
        );
    }

    #[test]
    fn below_threshold_slices_are_discarded() {
        let mut w = SiteWindow::default();
        assert!(!w.fold(10, 5, 10, 8), "exec == threshold is not counted");
        assert!(w.fold(11, 5, 10, 8), "exec > threshold is counted");
        assert_eq!(w.stats().slices(), 1);
    }

    #[test]
    fn eviction_keeps_len_bounded_and_stats_fresh() {
        let data = slices(200);
        let w = feed_window(&data, 10, 16);
        assert_eq!(w.stats().slices(), 16);
        // Stats must agree with a from-scratch fold of only what the filter
        // would have produced — check against a reference recomputation.
        let mut lpa: Option<f64> = None;
        let mut filt = Vec::new();
        for &(exec, correct) in &data {
            let raw = correct as f64 / exec as f64;
            let f = lpa.map(|p| (raw + p) / 2.0).unwrap_or(raw);
            lpa = Some(f);
            filt.push(f);
        }
        let tail = &filt[filt.len() - 16..];
        let mean = tail.iter().sum::<f64>() / 16.0;
        assert!((w.stats().mean().unwrap() - mean).abs() < 1e-12);
        let var = tail.iter().map(|f| f * f).sum::<f64>() / 16.0 - mean * mean;
        assert!((w.stats().std_dev().unwrap() - var.max(0.0).sqrt()).abs() < 1e-12);
        // PAM: each retained sample was tested against the mean of the
        // window it entered (itself and the 15 before it, once full).
        let above = (filt.len() - 16..filt.len())
            .filter(|&i| {
                let entered = &filt[i + 1 - 16..=i];
                filt[i] > entered.iter().sum::<f64>() / 16.0 + 1e-9
            })
            .count();
        assert_eq!(w.stats().points_above_mean(), Some(above as f64 / 16.0));
    }

    /// Pins the windowed statistics bit for bit through 5000 evicting
    /// folds (window 7, so the ring turns over and rebuilds Σ/Σ² hundreds
    /// of times). Moving the eviction past the PAM test, skipping a
    /// rebuild or keeping an evicted sample's NPAM vote moves the hash.
    #[test]
    fn evicting_window_statistics_are_pinned_bit_for_bit() {
        let mut w = SiteWindow::default();
        let mut h = 0u64;
        for i in 0..5000u64 {
            let exec = 20 + (i * 7919) % 97;
            let correct = exec * ((i * 104729) % 101) / 100;
            w.fold(exec, correct, 25, 7);
            let s = w.stats();
            for stat in [s.mean(), s.std_dev(), s.points_above_mean()] {
                h = h.wrapping_mul(0x100000001b3) ^ stat.map_or(0, f64::to_bits);
            }
        }
        assert_eq!(h, 0x5d74_3373_f0de_c562);
    }

    #[test]
    fn npam_never_exceeds_window() {
        let w = feed_window(&slices(500), 10, 32);
        assert!(w.stats().slices_above_mean() <= 32);
        assert!(w.stats().points_above_mean().unwrap() <= 1.0);
    }

    #[test]
    fn empty_window_yields_none() {
        let w = SiteWindow::default();
        assert_eq!(w.stats().mean(), None);
        assert_eq!(w.stats().std_dev(), None);
        assert_eq!(w.stats().points_above_mean(), None);
    }
}
