//! The perceptron branch predictor (Jiménez & Lin, HPCA 2001).
//!
//! The paper's alternative target-machine predictor (§5.3): ~16 KB budget,
//! 457 entries, 36 bits of global history.
//!
//! # Lane layout
//!
//! The inputs of a row are the bits of `ghr << 1 | 1`: bit 0 is the bias
//! input, always set, and bit `1 + i` is global-history bit `i`. Every
//! weight row holds 64 `i8` lanes, stored as four 16-byte vectors, and
//! lane `j` of vector `k` weighs input bit `8·(j mod 8) + 2k + ⌊j/8⌋`.
//! Byte `j mod 8` of the input word thus holds that lane's bit at position
//! `2k + ⌊j/8⌋`, so one broadcast of the word, then one AND and one compare
//! against a constant selector, give a vector's input masks. A lane is live
//! when its bit is at most `history_bits`; dead lanes stay at zero. Weights
//! start at zero and every update is lane-wise, so the order of the lanes
//! changes no prediction.
//!
//! # The output as a byte sum
//!
//! A step works relative to an outcome `o`. Its *agreement word* has bit
//! `b` set when input `b` agrees with `o`: it is the input word for taken
//! and its complement for not taken. Weighing each lane `+w` where its
//! input agrees and `−w` where it does not gives `z`, the dot product `y`
//! signed toward `o`: `y` for taken, `−y` for not taken.
//!
//! With `a` a lane's agreement mask (`0xFF` or `0`), the biased byte
//! `v = w ^ 0x7F ^ a` reads, unsigned, `w + 128` where the input agrees and
//! `127 − w` where it does not. Both lie in `0..=255` over the whole `i8`
//! range, so the identity is exact at `w = −128` and at `w = 127`. A dead
//! lane holds `w = 0` and adds `127` or `128` by its bit, so over all 64
//! lanes
//!
//! `Σ v = z + 127·64 + popcount(agreement word)`
//!
//! and `z` comes from one sum of absolute differences per vector
//! (`psadbw`), with no widening and no multiply.
//!
//! # Training
//!
//! Jiménez & Lin train on a misprediction or when `|y| ≤ θ`. For `z`
//! toward the actual outcome that is exactly `z ≤ θ`, since θ ≥ 0 and a
//! misprediction is `z < 0` (taken) or `z ≤ 0` (not taken). The decision is
//! then one compare of `Σ v` against `θ` plus the constants above, and it
//! stays a vector mask. A trained row moves each live weight one step
//! toward agreement, `+1` where its input agrees and `−1` where it does
//! not: it subtracts `(a | 1) & live & train` with signed saturation, with
//! no branch and no multiply.
//!
//! On x86_64 the row arithmetic is SSE2, part of the architecture's
//! baseline; other targets run a lane loop over the same layout.

use crate::BranchPredictor;

/// Weight lanes per row: the bias plus up to 63 history bits.
const LANES: usize = 64;

/// `LANE_BIT[16·k + j]` is the input bit that lane `j` of vector `k`
/// weighs.
const LANE_BIT: [u32; LANES] = {
    let mut table = [0; LANES];
    let mut lane = 0;
    while lane < LANES {
        let (k, j) = (lane / 16, lane % 16);
        table[lane] = (8 * (j % 8) + 2 * k + j / 8) as u32;
        lane += 1;
    }
    table
};

/// The arithmetic of one weight row over the lane layout. `agree` is an
/// input word relative to an outcome: bit `b` is set when input `b` agrees
/// with it.
trait Lanes: Clone + std::fmt::Debug {
    /// The row whose lane `16·k + j` holds `bytes[16·k + j]`.
    fn from_bytes(bytes: [i8; LANES]) -> Self;

    /// `Σ v` over all 64 lanes.
    fn biased_sum(&self, agree: u64) -> u32;

    /// Returns `Σ v` and, when it is at most `limit`, moves every lane of
    /// `live` (`-1` in the lanes to train, 0 in the others) one step toward
    /// agreement, with signed saturation.
    fn train(&mut self, live: &Self, agree: u64, limit: u32) -> u32;

    /// The inverse of `from_bytes`.
    #[cfg(test)]
    fn to_bytes(&self) -> [i8; LANES];
}

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    //! The row arithmetic in SSE2. Intrinsics are safe only inside a
    //! function that enables their feature, so each step is such a
    //! function, and the trait methods call it.

    use super::{Lanes, LANES};
    use std::arch::x86_64::*;

    pub(super) type Row = [__m128i; 4];

    impl Lanes for Row {
        fn from_bytes(bytes: [i8; LANES]) -> Self {
            // SAFETY: this module is compiled only when SSE2 is enabled for
            // the whole build, so every CPU that runs it has SSE2.
            unsafe { from_bytes(bytes) }
        }

        #[inline]
        fn biased_sum(&self, agree: u64) -> u32 {
            // SAFETY: as in `from_bytes`.
            unsafe { _mm_cvtsi128_si32(biased_sum(self, &agree_masks(agree))) as u32 }
        }

        #[inline]
        fn train(&mut self, live: &Self, agree: u64, limit: u32) -> u32 {
            // SAFETY: as in `from_bytes`.
            unsafe { train(self, live, agree, limit) }
        }

        #[cfg(test)]
        fn to_bytes(&self) -> [i8; LANES] {
            // SAFETY: as in `from_bytes`.
            unsafe { to_bytes(self) }
        }
    }

    #[target_feature(enable = "sse2")]
    fn from_bytes(bytes: [i8; LANES]) -> Row {
        std::array::from_fn(|k| {
            let half = |h: usize| {
                let at = 16 * k + 8 * h;
                i64::from_le_bytes(std::array::from_fn(|i| bytes[at + i] as u8))
            };
            _mm_set_epi64x(half(1), half(0))
        })
    }

    #[cfg(test)]
    #[target_feature(enable = "sse2")]
    fn to_bytes(row: &Row) -> [i8; LANES] {
        let halves = row.map(|v| {
            [
                _mm_cvtsi128_si64(v),
                _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)),
            ]
        });
        std::array::from_fn(|lane| halves[lane / 16][lane % 16 / 8].to_le_bytes()[lane % 8] as i8)
    }

    /// `0xFF` in every lane whose bit of `agree` is set, per vector. Lane
    /// `j` of selector `k` holds bit `2k + ⌊j/8⌋`, the bit of its byte of
    /// the broadcast word that the lane weighs.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn agree_masks(agree: u64) -> Row {
        let word = _mm_set1_epi64x(agree as i64);
        std::array::from_fn(|k| {
            let low = 0x0101_0101_0101_0101u64 << (2 * k);
            let sel = _mm_set_epi64x((low << 1) as i64, low as i64);
            _mm_cmpeq_epi8(_mm_and_si128(word, sel), sel)
        })
    }

    /// `Σ v` in the low 32 bits.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn biased_sum(row: &Row, agree: &Row) -> __m128i {
        let bias = _mm_set1_epi8(0x7F);
        let mut sums = _mm_setzero_si128();
        for (&w, &a) in row.iter().zip(agree) {
            let v = _mm_xor_si128(_mm_xor_si128(w, bias), a);
            sums = _mm_add_epi64(sums, _mm_sad_epu8(v, _mm_setzero_si128()));
        }
        _mm_add_epi64(sums, _mm_unpackhi_epi64(sums, sums))
    }

    /// The train decision stays a vector mask from the byte sum to the
    /// update: on a row that recurs within a few events, this chain sets
    /// the step's latency.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn train(row: &mut Row, live: &Row, agree: u64, limit: u32) -> u32 {
        let agree = agree_masks(agree);
        let sum = biased_sum(row, &agree);
        let below = _mm_cmplt_epi32(sum, _mm_set1_epi32(limit as i32 + 1));
        let train = _mm_shuffle_epi32::<0>(below);
        let one = _mm_set1_epi8(1);
        for ((w, &l), a) in row.iter_mut().zip(live).zip(agree) {
            // `a | 1` is −1 where the input agrees and +1 where it does not
            let step = _mm_and_si128(_mm_or_si128(a, one), l);
            *w = _mm_subs_epi8(*w, _mm_and_si128(step, train));
        }
        _mm_cvtsi128_si32(sum) as u32
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
impl Lanes for [i8; LANES] {
    fn from_bytes(bytes: [i8; LANES]) -> Self {
        bytes
    }

    #[cfg(test)]
    fn to_bytes(&self) -> [i8; LANES] {
        *self
    }

    #[inline]
    fn biased_sum(&self, agree: u64) -> u32 {
        let mut sum = 0;
        for (&w, &bit) in self.iter().zip(&LANE_BIT) {
            let a = 0u8.wrapping_sub((agree >> bit) as u8 & 1);
            sum += u32::from(w as u8 ^ 0x7F ^ a);
        }
        sum
    }

    #[inline]
    fn train(&mut self, live: &Self, agree: u64, limit: u32) -> u32 {
        let sum = self.biased_sum(agree);
        if sum <= limit {
            for ((w, &l), &bit) in self.iter_mut().zip(live).zip(&LANE_BIT) {
                let a = -(((agree >> bit) & 1) as i8);
                *w = w.saturating_sub((a | 1) & l);
            }
        }
        sum
    }
}

/// The row type of this target.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
use sse2::Row;
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
type Row = [i8; LANES];

/// Perceptron predictor: each table entry holds a bias weight plus one signed
/// weight per global-history bit; the prediction is the sign of the dot
/// product between the weights and the (bipolar) history.
///
/// Training is Jiménez & Lin's rule: update on a misprediction or whenever
/// the magnitude of the output is at most the threshold
/// `θ = ⌊1.93·h + 14⌋`.
#[derive(Clone, Debug)]
pub struct Perceptron(Core<Row>);

/// The predictor over one row type, so a test can step both bodies.
#[derive(Clone, Debug)]
struct Core<R> {
    num_entries: usize,
    history_bits: u32,
    theta: i32,
    /// Lemire's fastmod multiplier `⌊(2⁶⁴ − 1) / n⌋ + 1` (mod 2⁶⁴) for
    /// `n = num_entries`, when `n` fits `u32`.
    fastmod: Option<u64>,
    /// `-1` in the lanes of bits `0..=history_bits`, 0 in every other.
    live: R,
    /// `num_entries` rows of 64 weight lanes.
    weights: Vec<R>,
    ghr: u64,
}

impl<R: Lanes> Core<R> {
    fn new(num_entries: usize, history_bits: u32) -> Self {
        assert!(num_entries > 0, "num_entries must be positive");
        assert!(
            (1..=63).contains(&history_bits),
            "history_bits must be in 1..=63, got {history_bits}"
        );
        let live = LANE_BIT.map(|bit| -i8::from(bit <= history_bits));
        Self {
            num_entries,
            history_bits,
            theta: (1.93 * history_bits as f64 + 14.0).floor() as i32,
            fastmod: u32::try_from(num_entries)
                .ok()
                .map(|n| (u64::MAX / u64::from(n)).wrapping_add(1)),
            live: R::from_bytes(live),
            weights: vec![R::from_bytes([0; LANES]); num_entries],
            ghr: 0,
        }
    }

    /// The row of `pc`'s word address, `(pc >> 2) mod num_entries`: by
    /// Lemire's fastmod when both operands fit `u32`, exact there, and by
    /// division otherwise.
    #[inline]
    fn row(&self, pc: u64) -> usize {
        let word = pc >> 2;
        match (self.fastmod, u32::try_from(word)) {
            (Some(m), Ok(word)) => {
                let low = m.wrapping_mul(u64::from(word));
                ((u128::from(low) * self.num_entries as u128) >> 64) as usize
            }
            _ => (word % self.num_entries as u64) as usize,
        }
    }

    /// The input word relative to the outcome `taken`: the bias bit,
    /// then the global history, each set where it agrees with `taken`.
    #[inline]
    fn agree(&self, taken: bool) -> u64 {
        let bits = (self.ghr << 1) | 1;
        if taken {
            bits
        } else {
            !bits
        }
    }

    /// `Σ v − z` for the agreement word `agree`.
    #[inline]
    fn offset(agree: u64) -> i32 {
        127 * LANES as i32 + agree.count_ones() as i32
    }

    #[inline]
    fn predict(&self, pc: u64) -> bool {
        let agree = self.agree(true);
        self.weights[self.row(pc)].biased_sum(agree) as i32 >= Self::offset(agree)
    }

    /// Predicts `pc`, then trains its row when `z ≤ θ` toward `taken`.
    #[inline]
    fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool {
        let row = self.row(pc);
        let agree = self.agree(taken);
        let offset = Self::offset(agree);
        let limit = (self.theta + offset) as u32;
        let z = self.weights[row].train(&self.live, agree, limit) as i32 - offset;
        self.ghr = (self.ghr << 1) | taken as u64;
        // y = z when taken and −z when not; the prediction is y ≥ 0
        if taken {
            z >= 0
        } else {
            z <= 0
        }
    }

    fn reset(&mut self) {
        self.weights.fill(R::from_bytes([0; LANES]));
        self.ghr = 0;
    }
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
        Self(Core::new(num_entries, history_bits))
    }

    /// The paper's configuration: 457 entries, 36-bit history (~16 KB with
    /// 8-bit weights).
    pub fn new_16kb() -> Self {
        Self::new(457, 36)
    }

    /// The training threshold θ.
    pub fn theta(&self) -> i32 {
        self.0.theta
    }

    /// Number of global-history bits.
    pub fn history_bits(&self) -> u32 {
        self.0.history_bits
    }
}

impl BranchPredictor for Perceptron {
    #[inline]
    fn predict(&self, pc: u64) -> bool {
        self.0.predict(pc)
    }

    #[inline]
    fn train(&mut self, pc: u64, taken: bool) {
        self.0.predict_and_train(pc, taken);
    }

    #[inline]
    fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool {
        self.0.predict_and_train(pc, taken)
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn storage_bits(&self) -> usize {
        self.0.num_entries * (self.0.history_bits as usize + 1) * 8
    }

    fn name(&self) -> String {
        if self.0.num_entries == 457 && self.0.history_bits == 36 {
            "perceptron-16KB".to_owned()
        } else {
            format!("perceptron-{}e{}h", self.0.num_entries, self.0.history_bits)
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

    /// Steps the SSE2 body and the portable lane loop over one seeded
    /// stream in every configuration the oracle covers, so the body that
    /// other targets run stays checked on x86_64. The stream mixes
    /// always-taken, never-taken, repeat and invert branches, which pin
    /// weights at both rails, with random ones, and puts some PCs past the
    /// `u32` word range.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    #[test]
    fn sse2_and_portable_bodies_agree() {
        let mut pinned = 0;
        for (n, h) in [(457, 36), (64, 12), (4, 8), (8, 63)] {
            let mut sse2 = Core::<sse2::Row>::new(n, h);
            let mut portable = Core::<[i8; LANES]>::new(n, h);
            assert_eq!(sse2.live.to_bytes(), portable.live);
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut prev = false;
            for event in 0..40_000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let roll = state >> 33;
                let word = roll % 12 + if roll.is_multiple_of(7) { 1 << 40 } else { 0 };
                let taken = match word % 6 {
                    0 => true,
                    1 => false,
                    2 => prev,
                    3 => !prev,
                    _ => (roll >> 8) & 1 == 1,
                };
                prev = taken;
                let pc = word << 2;
                let predicted = portable.predict(pc);
                assert_eq!(sse2.predict(pc), predicted, "({n}, {h}) event {event}");
                assert_eq!(sse2.predict_and_train(pc, taken), predicted);
                portable.predict_and_train(pc, taken);
                let row = portable.row(pc);
                assert_eq!(
                    sse2.weights[row].to_bytes(),
                    portable.weights[row],
                    "({n}, {h}) event {event}: row {row} diverged"
                );
            }
            let rails = portable
                .weights
                .iter()
                .flatten()
                .filter(|&&w| w == 127 || w == -128);
            pinned += rails.count();
        }
        assert!(pinned > 0, "the stream drives weights to the rails");
    }
}
