//! Per-branch profiling state: the paper's seven variables (Figure 9a) and
//! the one slice fold over them (Figure 9b). The batch profilers close
//! slices with [`BranchState::end_slice`]; the streaming window runs the
//! same fold through [`BranchState::end_slice_with`], evicting old samples
//! with [`BranchState::remove`].

/// The complete 2D-profiling state for one static branch.
///
/// This is exactly the storage the paper budgets per branch (Figure 9a):
///
/// | field             | paper name        | purpose                          |
/// |-------------------|-------------------|----------------------------------|
/// | `n`               | `N`               | number of counted slices         |
/// | `spa`             | `SPA`             | sum of (filtered) slice accuracies |
/// | `sspa`            | `SSPA`            | sum of squares of the same       |
/// | `npam`            | `NPAM`            | # slices above the running mean  |
/// | `exec_counter`    | `exec_counter`    | executions in the current slice  |
/// | `predict_counter` | `predict_counter` | correct predictions in the slice |
/// | `lpa`             | `LPA`             | last slice's filtered accuracy (FIR state) |
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BranchState {
    n: u64,
    spa: f64,
    sspa: f64,
    npam: u64,
    exec_counter: u64,
    predict_counter: u64,
    lpa: Option<f64>,
    total_exec: u64,
    total_correct: u64,
}

impl BranchState {
    /// Fresh state with all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one dynamic execution of the branch within the current slice.
    #[inline]
    pub fn record(&mut self, predicted_correctly: bool) {
        self.exec_counter += 1;
        self.predict_counter += predicted_correctly as u64;
        self.total_exec += 1;
        self.total_correct += predicted_correctly as u64;
    }

    /// Records `executions` dynamic executions within the current slice,
    /// `correct` of them predicted correctly — the batched twin of
    /// [`record`](Self::record). All per-event recording is integer
    /// addition, so folding a whole within-slice batch at once is
    /// bit-identical to `executions` individual `record` calls.
    ///
    /// # Panics
    ///
    /// Panics if `correct > executions`.
    #[inline]
    pub fn record_batch(&mut self, executions: u64, correct: u64) {
        assert!(correct <= executions, "correct exceeds executions");
        self.exec_counter += executions;
        self.predict_counter += correct;
        self.total_exec += executions;
        self.total_correct += correct;
    }

    /// Closes the current slice (the paper's Figure 9b): if the branch
    /// executed more than `exec_threshold` times in the slice, fold the
    /// slice's FIR-filtered prediction accuracy into the running statistics;
    /// either way, reset the per-slice counters.
    pub fn end_slice(&mut self, exec_threshold: u64) {
        self.end_slice_with(exec_threshold, |_| {});
    }

    /// Like [`end_slice`](Self::end_slice), but also returns the slice's
    /// filtered accuracy when the slice was counted (used by time-series
    /// recording for Figure 8).
    #[inline]
    pub fn end_slice_sampled(&mut self, exec_threshold: u64) -> Option<f64> {
        self.end_slice_with(exec_threshold, |_| {})
            .map(|(filtered, _)| filtered)
    }

    /// The one slice fold (Figure 9b) behind [`end_slice`](Self::end_slice)
    /// and the streaming window. A counted slice is FIR-filtered, added to
    /// `N`, Σ and Σ², then handed to `evict` — which may
    /// [`remove`](Self::remove) older samples to bound the statistics to a
    /// window — and finally tested against the running mean `Σ / N`.
    /// Returns the slice's `(filtered accuracy, counted above the mean)`,
    /// or `None` if it was discarded.
    ///
    /// The FIR filter averages the current slice accuracy with the previous
    /// slice's filtered accuracy (`LPA`) to suppress high-frequency sampling
    /// noise. The paper leaves `LPA`'s initial value unspecified; seeding it
    /// with the first counted slice's accuracy (rather than zero) avoids
    /// halving the first sample, and is what we do.
    #[inline]
    pub fn end_slice_with(
        &mut self,
        exec_threshold: u64,
        evict: impl FnOnce(&mut Self),
    ) -> Option<(f64, bool)> {
        let (exec, correct) = (self.exec_counter, self.predict_counter);
        self.exec_counter = 0;
        self.predict_counter = 0;
        if exec <= exec_threshold {
            return None;
        }
        let pred_acc = correct as f64 / exec as f64;
        let filtered = match self.lpa {
            Some(last) => (pred_acc + last) / 2.0,
            None => pred_acc,
        };
        self.lpa = Some(filtered);
        self.n += 1;
        self.spa += filtered;
        self.sspa += filtered * filtered;
        evict(self);
        // The epsilon guards against accumulated floating-point rounding
        // spuriously counting slices of an exactly-constant series.
        let above = filtered > self.spa / self.n as f64 + 1e-9;
        self.npam += above as u64;
        Some((filtered, above))
    }

    /// Takes one counted sample back out of the statistics: the inverse of
    /// the `N`/Σ/Σ² update and the NPAM vote of the
    /// [`end_slice_with`](Self::end_slice_with) that folded it. `LPA` is
    /// kept: the FIR filter belongs to the stream, not to the window.
    pub fn remove(&mut self, filtered: f64, above: bool) {
        self.n -= 1;
        self.spa -= filtered;
        self.sspa -= filtered * filtered;
        self.npam -= above as u64;
    }

    /// Recomputes Σ and Σ² exactly from `samples`, the filtered accuracies
    /// still counted, discarding the rounding that repeated
    /// [`remove`](Self::remove) calls accumulate.
    pub fn resum(&mut self, samples: impl IntoIterator<Item = f64>) {
        self.spa = 0.0;
        self.sspa = 0.0;
        for f in samples {
            self.spa += f;
            self.sspa += f * f;
        }
    }

    /// Number of counted slices (`N`).
    pub fn slices(&self) -> u64 {
        self.n
    }

    /// Mean of the filtered slice accuracies (`SPA / N`), or `None` if no
    /// slice was counted.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.spa / self.n as f64)
    }

    /// Population standard deviation of the filtered slice accuracies
    /// (`sqrt(SSPA/N − mean²)`), or `None` if no slice was counted.
    pub fn std_dev(&self) -> Option<f64> {
        self.mean().map(|m| {
            let var = self.sspa / self.n as f64 - m * m;
            // guard tiny negative values from floating-point rounding
            var.max(0.0).sqrt()
        })
    }

    /// Fraction of counted slices whose filtered accuracy exceeded the
    /// running mean (`NPAM / N`), or `None` if no slice was counted.
    pub fn points_above_mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.npam as f64 / self.n as f64)
    }

    /// Raw count of slices above the running mean (`NPAM`). By construction
    /// `NPAM <= N` always holds.
    pub fn slices_above_mean(&self) -> u64 {
        self.npam
    }

    /// Total dynamic executions across the whole run (all slices, counted or
    /// not, plus any open slice).
    pub fn total_executions(&self) -> u64 {
        self.total_exec
    }

    /// Whole-run aggregate prediction accuracy, or `None` if the branch never
    /// executed. This is the 1-D quantity a conventional profiler reports.
    pub fn aggregate_accuracy(&self) -> Option<f64> {
        (self.total_exec > 0).then(|| self.total_correct as f64 / self.total_exec as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(state: &mut BranchState, correct: u64, wrong: u64) {
        for _ in 0..correct {
            state.record(true);
        }
        for _ in 0..wrong {
            state.record(false);
        }
    }

    #[test]
    fn below_threshold_slices_are_discarded() {
        let mut s = BranchState::new();
        feed(&mut s, 5, 5);
        s.end_slice(10); // 10 executions, threshold 10: "more than" fails
        assert_eq!(s.slices(), 0);
        assert_eq!(s.mean(), None);
        // but the whole-run totals are still kept
        assert_eq!(s.total_executions(), 10);
        assert_eq!(s.aggregate_accuracy(), Some(0.5));
        // and the per-slice counters reset regardless: the next slice
        // counts only its own 11 correct executions, not 16 of 21
        feed(&mut s, 11, 0);
        s.end_slice(10);
        assert_eq!((s.slices(), s.mean()), (1, Some(1.0)));
    }

    #[test]
    fn first_slice_is_not_halved_by_fir() {
        let mut s = BranchState::new();
        feed(&mut s, 80, 20);
        s.end_slice(50);
        assert_eq!(s.slices(), 1);
        assert!((s.mean().unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fir_averages_with_previous_slice() {
        let mut s = BranchState::new();
        feed(&mut s, 100, 0); // slice 1: 1.0 -> filtered 1.0
        s.end_slice(50);
        feed(&mut s, 0, 100); // slice 2: 0.0 -> filtered (0.0 + 1.0)/2 = 0.5
        s.end_slice(50);
        // SPA = 1.0 + 0.5, mean = 0.75
        assert!((s.mean().unwrap() - 0.75).abs() < 1e-12);
        // LPA is now 0.5; slice 3 at 0.5 raw -> filtered 0.5
        feed(&mut s, 50, 50);
        s.end_slice(50);
        assert!((s.mean().unwrap() - (1.0 + 0.5 + 0.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn std_dev_zero_for_constant_accuracy() {
        let mut s = BranchState::new();
        for _ in 0..10 {
            feed(&mut s, 90, 10);
            s.end_slice(50);
        }
        assert!((s.mean().unwrap() - 0.9).abs() < 1e-12);
        assert!(s.std_dev().unwrap() < 1e-9);
    }

    #[test]
    fn std_dev_of_known_sequence() {
        // Raw slice accuracies 1.0 then 0.0 alternating; with FIR the
        // filtered sequence is 1.0, 0.5, 0.25+0.5/2... — compute explicitly.
        let mut s = BranchState::new();
        let mut filtered_seq = Vec::new();
        let mut lpa: Option<f64> = None;
        for k in 0..6 {
            let raw = if k % 2 == 0 { 1.0 } else { 0.0 };
            let f = match lpa {
                Some(l) => (raw + l) / 2.0,
                None => raw,
            };
            filtered_seq.push(f);
            lpa = Some(f);
            if k % 2 == 0 {
                feed(&mut s, 100, 0);
            } else {
                feed(&mut s, 0, 100);
            }
            s.end_slice(50);
        }
        let n = filtered_seq.len() as f64;
        let mean = filtered_seq.iter().sum::<f64>() / n;
        let var = filtered_seq.iter().map(|f| f * f).sum::<f64>() / n - mean * mean;
        assert!((s.mean().unwrap() - mean).abs() < 1e-12);
        assert!((s.std_dev().unwrap() - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn npam_uses_running_mean() {
        // Figure 9b computes the running mean *after* adding the current
        // slice, then compares the current filtered accuracy against it.
        let mut s = BranchState::new();
        feed(&mut s, 100, 0);
        s.end_slice(10); // filtered 1.0, running mean 1.0 -> not strictly above
        assert_eq!(s.points_above_mean(), Some(0.0));
        feed(&mut s, 0, 100);
        s.end_slice(10); // filtered 0.5, mean (1.0+0.5)/2=0.75 -> below
        assert_eq!(s.points_above_mean(), Some(0.0));
        feed(&mut s, 100, 0);
        s.end_slice(10); // filtered 0.75, mean (1.5+0.75)/3=0.75 -> not above
        feed(&mut s, 100, 0);
        s.end_slice(10); // filtered 0.875, mean (2.25+0.875)/4 = 0.78125 -> above
        assert_eq!(s.points_above_mean(), Some(0.25));
    }

    #[test]
    fn sampled_variant_reports_filtered_accuracy() {
        let mut s = BranchState::new();
        feed(&mut s, 75, 25);
        assert_eq!(s.end_slice_sampled(50), Some(0.75));
        feed(&mut s, 3, 1);
        assert_eq!(
            s.end_slice_sampled(50),
            None,
            "below threshold -> no sample"
        );
    }

    #[test]
    fn stable_branch_statistics_match_by_hand() {
        let mut s = BranchState::new();
        for _ in 0..4 {
            feed(&mut s, 58, 42);
            s.end_slice(50);
        }
        // All slices 0.58; FIR leaves a constant sequence unchanged.
        assert!((s.mean().unwrap() - 0.58).abs() < 1e-12);
        assert!(s.std_dev().unwrap() < 1e-12);
        assert_eq!(s.points_above_mean(), Some(0.0));
        assert_eq!(s.slices(), 4);
        assert_eq!(s.total_executions(), 400);
    }
}
