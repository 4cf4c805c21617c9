//! Absolute oracle for [`Perceptron`]: a textbook Jiménez & Lin perceptron
//! (HPCA 2001) written from the definition, with no shared code.
//!
//! The reference keeps one `i32` per weight, clamped to the `i8` range
//! −128..=127 after every update, and a history of `h` booleans, most
//! recent first. It computes the output bit by bit:
//! `y = w0 + Σ wi·xi` with `xi = +1` for a taken history bit and `−1`
//! for a not-taken one, predicts taken when `y ≥ 0`, and trains when the
//! prediction was wrong or `|y| ≤ θ = ⌊1.93·h + 14⌋`, moving `w0` by `t`
//! and each `wi` by `t·xi` (`t = ±1` for taken/not taken). Rows are
//! selected by word address, `(pc >> 2) mod n`, as in the crate.
//!
//! `Perceptron` must give the reference's prediction on every event.

use bpred::{BranchPredictor, Perceptron};
use proptest::prelude::*;

/// The textbook perceptron predictor.
struct Reference {
    rows: Vec<Vec<i32>>,
    /// `history[i]` is the outcome `i + 1` branches ago.
    history: Vec<bool>,
    theta: i32,
}

impl Reference {
    fn new(num_entries: usize, history_bits: usize) -> Self {
        Self {
            rows: vec![vec![0; history_bits + 1]; num_entries],
            history: vec![false; history_bits],
            theta: (1.93 * history_bits as f64 + 14.0).floor() as i32,
        }
    }

    fn row(&self, pc: u64) -> usize {
        ((pc >> 2) % self.rows.len() as u64) as usize
    }

    fn input(&self, i: usize) -> i32 {
        if self.history[i] {
            1
        } else {
            -1
        }
    }

    fn output(&self, pc: u64) -> i32 {
        let w = &self.rows[self.row(pc)];
        let mut y = w[0];
        for i in 0..self.history.len() {
            y += w[i + 1] * self.input(i);
        }
        y
    }

    fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool {
        let y = self.output(pc);
        let predicted = y >= 0;
        if predicted != taken || y.abs() <= self.theta {
            let t = if taken { 1 } else { -1 };
            let inputs: Vec<i32> = (0..self.history.len()).map(|i| self.input(i)).collect();
            let row = self.row(pc);
            let w = &mut self.rows[row];
            w[0] = (w[0] + t).clamp(-128, 127);
            for (i, x) in inputs.into_iter().enumerate() {
                w[i + 1] = (w[i + 1] + t * x).clamp(-128, 127);
            }
        }
        self.history.pop();
        self.history.insert(0, taken);
        predicted
    }
}

/// The configurations the oracle covers: the paper's 16 KB predictor, a
/// small one, a tiny heavily aliased one, and the longest history allowed.
const CONFIGS: [(usize, u32); 4] = [(457, 36), (64, 12), (4, 8), (8, 63)];

/// Drives `Perceptron` and the reference through `events` and asserts they
/// agree on every prediction. A second `Perceptron` driven through the
/// separate `predict` then `train` calls must agree as well.
fn assert_agrees(num_entries: usize, history_bits: u32, events: &[(u64, bool)]) -> Reference {
    let mut fused = Perceptron::new(num_entries, history_bits);
    let mut split = Perceptron::new(num_entries, history_bits);
    let mut reference = Reference::new(num_entries, history_bits as usize);
    assert_eq!(fused.theta(), reference.theta);
    for (n, &(pc, taken)) in events.iter().enumerate() {
        let want = reference.predict_and_train(pc, taken);
        let got = fused.predict_and_train(pc, taken);
        assert_eq!(
            got, want,
            "({num_entries}, {history_bits}): event {n} at pc {pc:#x} diverged"
        );
        assert_eq!(split.predict(pc), want, "predict diverged at event {n}");
        split.train(pc, taken);
    }
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Random streams over a few hundred word-aligned PCs, so rows alias in
    // the small tables and stay distinct in the large one.
    #[test]
    fn perceptron_matches_the_textbook_reference(
        events in prop::collection::vec((0u64..600, any::<bool>()), 1..3000),
    ) {
        let events: Vec<(u64, bool)> = events
            .into_iter()
            .map(|(word, taken)| (0x0040_0000 + (word << 2), taken))
            .collect();
        for (n, h) in CONFIGS {
            assert_agrees(n, h, &events);
        }
    }

    // Biased streams: each PC leans toward its own direction, so weights
    // grow large instead of random-walking around zero.
    #[test]
    fn perceptron_matches_the_reference_on_biased_streams(
        events in prop::collection::vec((0u64..16, 0u8..8), 1..4000),
    ) {
        let events: Vec<(u64, bool)> = events
            .into_iter()
            .map(|(word, roll)| (word << 2, (roll == 0) ^ (word % 2 == 0)))
            .collect();
        for (n, h) in CONFIGS {
            assert_agrees(n, h, &events);
        }
    }
}

/// Long monotone runs pin weights at both rails. With 63 history bits
/// θ = 135 exceeds the range of a single weight, so a row keeps training
/// while one weight alone carries its outcome, until that weight
/// saturates. Five branches are interleaved at random, word address `r`
/// selecting row `r`:
/// - row 0 is always taken and row 1 never, pinning their bias weights at
///   127 and −128;
/// - row 3 repeats the previous outcome and row 4 inverts it, pinning the
///   weight of history bit 0 at 127 and −128;
/// - row 2 is random, so every history input stays uncorrelated with the
///   biased rows' outcomes.
#[test]
fn saturated_weights_match_the_reference() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut prev = false;
    let events: Vec<(u64, bool)> = (0..200_000)
        .map(|_| {
            let (word, taken) = match next() % 5 {
                0 => (0, true),
                1 => (1, false),
                2 => (2, next() % 2 == 0),
                3 => (3, prev),
                _ => (4, !prev),
            };
            prev = taken;
            (word << 2, taken)
        })
        .collect();
    let reference = assert_agrees(8, 63, &events);
    assert_eq!(
        reference.rows[0][0], 127,
        "always-taken bias saturates high"
    );
    assert_eq!(reference.rows[1][0], -128, "never-taken bias saturates low");
    assert_eq!(reference.rows[3][1], 127, "repeat weight saturates high");
    assert_eq!(reference.rows[4][1], -128, "invert weight saturates low");

    // and every configuration survives the same runs
    for (n, h) in CONFIGS {
        assert_agrees(n, h, &events[..50_000]);
    }
}

/// A stream that walks every live weight of row 0 to a rail and back: for
/// each lane in turn it trains the lane toward −128, then toward +127,
/// then toward −128 again, each until the reference's weight sits on the
/// rail. A row-0 event takes the outcome that moves the lane the wanted
/// way; it is interleaved at random with events on other rows whose random
/// outcomes keep every other history input uncorrelated with it. Returns
/// the stream and, per lane, whether each of the three targets was met
/// within `cap` events.
fn rail_walk(num_entries: usize, history_bits: u32, cap: usize) -> (Vec<(u64, bool)>, Vec<bool>) {
    let mut reference = Reference::new(num_entries, history_bits as usize);
    let mut state = 0x853c_49e6_748f_ea9bu64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut events = Vec::new();
    let mut met = Vec::new();
    for lane in 0..=history_bits as usize {
        let mut all = true;
        for rail in [-128, 127, -128] {
            let toward = if rail < 0 { -1 } else { 1 };
            let mut n = 0;
            while reference.rows[0][lane] != rail && n < cap {
                let roll = next();
                let event = if roll.is_multiple_of(4) {
                    // the input of `lane`, ±1; the outcome t with t·x = toward
                    let x = if lane == 0 {
                        1
                    } else {
                        reference.input(lane - 1)
                    };
                    (0, x * toward > 0)
                } else {
                    let word = 1 + (roll >> 2) % (num_entries as u64 - 1);
                    (word << 2, (roll >> 20) & 1 == 1)
                };
                reference.predict_and_train(event.0, event.1);
                events.push(event);
                n += 1;
            }
            all &= reference.rows[0][lane] == rail;
        }
        met.push(all);
    }
    (events, met)
}

/// With 63 history bits all 64 lanes are live and θ = 135 exceeds the
/// range of one weight, so every lane of the row reaches −128, then +127,
/// then −128 again.
#[test]
fn every_lane_walks_both_rails() {
    let (events, met) = rail_walk(8, 63, 20_000);
    let missed: Vec<usize> = (0..met.len()).filter(|&lane| !met[lane]).collect();
    assert!(missed.is_empty(), "lanes {missed:?} missed a rail");
    assert_agrees(8, 63, &events);
}

/// The paper's configuration under its own rail walk. There θ = 83 < 128,
/// so a weight reaches a rail only while the rest of its row opposes it by
/// at least 44; most lanes get there, and the rest are walked as far as
/// the rule lets them.
#[test]
fn paper_configuration_walks_the_rails() {
    let (events, met) = rail_walk(457, 36, 20_000);
    let walked = met.iter().filter(|&&m| m).count();
    assert!(walked >= 20, "only {walked} of 37 lanes reached both rails");
    assert_agrees(457, 36, &events);
}

/// Word addresses past `u32::MAX` take the division fallback of the row
/// index; words at and around that boundary take either path. Each word
/// leans toward its own direction, so a wrong row shows as a divergence.
#[test]
fn word_addresses_past_u32_match_the_reference() {
    let max = u64::from(u32::MAX);
    let words = [
        0,
        7,
        456,
        457,
        max - 1,
        max,
        max + 1,
        max + 457,
        1 << 40,
        (1 << 40) + 3,
        (u64::MAX >> 2) - 5,
        u64::MAX >> 2,
    ];
    let mut state = 0x6a09_e667_f3bc_c909u64;
    let events: Vec<(u64, bool)> = (0..20_000)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let roll = state >> 33;
            let w = (roll % words.len() as u64) as usize;
            (
                words[w] << 2,
                (roll >> 8).is_multiple_of(8) ^ w.is_multiple_of(2),
            )
        })
        .collect();
    for (n, h) in CONFIGS {
        assert_agrees(n, h, &events);
    }
}
