//! The perceptron branch predictor (Jiménez & Lin, HPCA 2001).
//!
//! The paper's alternative target-machine predictor (§5.3): ~16 KB budget,
//! 457 entries, 36 bits of global history.
//!
//! Every weight row is a fixed 64-lane `[i8; 64]`: lane 0 is the bias and
//! lane `1 + i` weighs global-history bit `i`. The per-event input vector
//! holds ±1 in each live lane and 0 in every lane past `history_bits`, so
//! one branch-free 64-lane loop computes the dot product and another trains
//! the row, whatever the history length. Dead lanes never contribute and
//! never move.

use crate::BranchPredictor;

/// Weight lanes per row: the bias plus up to 63 history bits.
const LANES: usize = 64;

/// `SIGN[b][j]` is the bipolar input of bit `j` of byte `b`: +1 when set,
/// −1 when clear.
const SIGN: [[i8; 8]; 256] = {
    let mut table = [[0i8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            table[b][j] = if (b >> j) & 1 == 1 { 1 } else { -1 };
            j += 1;
        }
        b += 1;
    }
    table
};

/// Perceptron predictor: each table entry holds a bias weight plus one signed
/// weight per global-history bit; the prediction is the sign of the dot
/// product between the weights and the (bipolar) history.
///
/// Training is Jiménez & Lin's rule: update on a misprediction or whenever
/// the magnitude of the output is at most the threshold
/// `θ = ⌊1.93·h + 14⌋`.
#[derive(Clone, Debug)]
pub struct Perceptron {
    num_entries: usize,
    history_bits: u32,
    theta: i32,
    /// 1 in lanes `0..=history_bits`, 0 in every lane past them.
    live: [i8; LANES],
    /// `num_entries` rows of 64 weight lanes.
    weights: Vec<[i8; LANES]>,
    ghr: u64,
}

impl Perceptron {
    /// Creates a perceptron predictor with `num_entries` weight rows and
    /// `history_bits` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `num_entries` is 0 or `history_bits` is 0 or greater
    /// than 63.
    pub fn new(num_entries: usize, history_bits: u32) -> Self {
        assert!(num_entries > 0, "num_entries must be positive");
        assert!(
            (1..=63).contains(&history_bits),
            "history_bits must be in 1..=63, got {history_bits}"
        );
        let mut live = [0i8; LANES];
        live[..=history_bits as usize].fill(1);
        Self {
            num_entries,
            history_bits,
            theta: (1.93 * history_bits as f64 + 14.0).floor() as i32,
            live,
            weights: vec![[0; LANES]; num_entries],
            ghr: 0,
        }
    }

    /// The paper's configuration: 457 entries, 36-bit history (~16 KB with
    /// 8-bit weights).
    pub fn new_16kb() -> Self {
        Self::new(457, 36)
    }

    /// The training threshold θ.
    pub fn theta(&self) -> i32 {
        self.theta
    }

    /// Number of global-history bits.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    #[inline]
    fn row(&self, pc: u64) -> usize {
        ((pc >> 2) % self.num_entries as u64) as usize
    }

    /// The input vector: +1 for the bias lane and each set history bit, −1
    /// for each clear one, 0 in every lane past `history_bits`.
    #[inline]
    fn inputs(&self) -> [i8; LANES] {
        let bits = (self.ghr << 1) | 1;
        let mut x = [0i8; LANES];
        for (k, byte) in x.chunks_exact_mut(8).enumerate() {
            byte.copy_from_slice(&SIGN[(bits >> (8 * k)) as u8 as usize]);
        }
        for (xi, &m) in x.iter_mut().zip(&self.live) {
            *xi *= m;
        }
        x
    }
}

/// Dot product of a weight row with an input vector. Each product is at
/// most 128 in magnitude, so 64 of them fit an `i16`.
#[inline]
fn dot(row: &[i8; LANES], x: &[i8; LANES]) -> i32 {
    let mut y = 0i16;
    for (&w, &xi) in row.iter().zip(x) {
        y += w as i16 * xi as i16;
    }
    y as i32
}

impl BranchPredictor for Perceptron {
    #[inline]
    fn predict(&self, pc: u64) -> bool {
        dot(&self.weights[self.row(pc)], &self.inputs()) >= 0
    }

    #[inline]
    fn train(&mut self, pc: u64, taken: bool) {
        self.predict_and_train(pc, taken);
    }

    #[inline]
    fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool {
        let x = self.inputs();
        let row = self.row(pc);
        let y = dot(&self.weights[row], &x);
        let predicted = y >= 0;
        if predicted != taken || y.abs() <= self.theta {
            // each live weight moves toward agreement with the outcome:
            // +1 where its input matches `taken`, −1 where it does not
            let t: i8 = if taken { 1 } else { -1 };
            for (w, &xi) in self.weights[row].iter_mut().zip(&x) {
                *w = w.saturating_add(xi * t);
            }
        }
        self.ghr = (self.ghr << 1) | taken as u64;
        predicted
    }

    fn reset(&mut self) {
        self.weights.fill([0; LANES]);
        self.ghr = 0;
    }

    fn storage_bits(&self) -> usize {
        self.num_entries * (self.history_bits as usize + 1) * 8
    }

    fn name(&self) -> String {
        if self.num_entries == 457 && self.history_bits == 36 {
            "perceptron-16KB".to_owned()
        } else {
            format!("perceptron-{}e{}h", self.num_entries, self.history_bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration() {
        let p = Perceptron::new_16kb();
        assert_eq!(p.history_bits(), 36);
        assert_eq!(p.theta(), (1.93f64 * 36.0 + 14.0).floor() as i32);
        // 457 rows x 37 8-bit weights ~ 16.5 KiB, the conventional "16KB".
        assert_eq!(p.storage_bits(), 457 * 37 * 8);
        assert_eq!(p.name(), "perceptron-16KB");
    }

    #[test]
    fn learns_linearly_separable_function() {
        // taken = history[0] XOR'd with nothing: outcome equals previous
        // outcome (a linearly separable function of history).
        let mut p = Perceptron::new(64, 12);
        let pc = 0x1000;
        let mut prev = true;
        let mut correct_late = 0;
        for i in 0..1000u32 {
            let taken = prev; // repeat previous outcome
            let pred = p.predict_and_train(pc, taken);
            if i >= 500 && pred == taken {
                correct_late += 1;
            }
            prev = i % 5 == 0; // some deterministic source signal
        }
        assert!(
            correct_late >= 480,
            "perceptron should learn 'same as last outcome', got {correct_late}/500"
        );
    }

    #[test]
    fn learns_long_history_correlation_beyond_gshare_reach() {
        // Outcome equals the branch outcome from 20 events ago — a single
        // weight carries it for the perceptron.
        let mut p = Perceptron::new_16kb();
        let pc = 0x2000;
        let mut past = std::collections::VecDeque::from(vec![false; 20]);
        let mut correct_late = 0;
        let mut total_late = 0;
        for i in 0..4000u32 {
            let fresh = (i % 7 == 0) ^ (i % 11 == 3);
            let taken = *past.front().unwrap();
            let pred = p.predict_and_train(pc, taken);
            past.pop_front();
            past.push_back(fresh);
            if i >= 2000 {
                total_late += 1;
                if pred == taken {
                    correct_late += 1;
                }
            }
        }
        assert!(
            correct_late as f64 / total_late as f64 > 0.93,
            "long-distance correlation: {correct_late}/{total_late}"
        );
    }

    #[test]
    fn weights_saturate_without_overflow() {
        let mut p = Perceptron::new(4, 8);
        // Hammer one branch always-taken far past saturation.
        for _ in 0..100_000 {
            p.predict_and_train(0, true);
        }
        assert!(p.predict(0));
    }

    #[test]
    #[should_panic(expected = "history_bits")]
    fn rejects_zero_history() {
        let _ = Perceptron::new(16, 0);
    }

    #[test]
    fn reset_clears_learning() {
        let mut p = Perceptron::new(16, 8);
        for _ in 0..100 {
            p.predict_and_train(0, false);
        }
        assert!(!p.predict(0));
        p.reset();
        assert!(p.predict(0), "zero weights predict taken (y = 0 >= 0)");
    }
}
