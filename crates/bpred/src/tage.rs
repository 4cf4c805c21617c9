//! A TAGE-style predictor (Seznec & Michaud, JILP 2006 — published the same
//! year as the paper): a base bimodal predictor plus tagged tables indexed
//! with geometrically increasing history lengths. Included as a
//! stronger-than-perceptron target option for the §5.3 cross-predictor
//! study.

use crate::counter::NEXT;
use crate::{Bimodal, BranchPredictor};

const NUM_TABLES: usize = 4;
/// Geometric history lengths of the tagged tables.
const HIST_LENS: [u32; NUM_TABLES] = [5, 15, 44, 130];

#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    tag: u16,
    /// 3-bit signed prediction counter, 0..=7; taken when >= 4
    ctr: u8,
    /// 2-bit usefulness counter
    useful: u8,
}

/// TAGE-lite: longest-matching tagged table provides the prediction; the
/// base bimodal catches the rest. Allocation on mispredictions follows the
/// standard useful-counter policy.
#[derive(Clone, Debug)]
pub struct Tage {
    base: Bimodal,
    tables: Vec<Vec<TageEntry>>,
    index_bits: u32,
    /// folded global history (up to 131 bits, stored as raw bits)
    ghist: [u64; 4],
    /// allocation tie-breaker, advanced deterministically per update
    alloc_seed: u32,
}

impl Tage {
    /// Creates a TAGE predictor with `2^index_bits` entries per tagged
    /// table and a `2^(index_bits+1)`-entry bimodal base.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 16.
    pub fn new(index_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&index_bits),
            "index_bits must be in 1..=16, got {index_bits}"
        );
        Self {
            base: Bimodal::new(index_bits + 1),
            tables: vec![vec![TageEntry::default(); 1 << index_bits]; NUM_TABLES],
            index_bits,
            ghist: [0; 4],
            alloc_seed: 0x9E37,
        }
    }

    /// An ~8 KB configuration (1K entries per tagged table).
    pub fn new_8kb() -> Self {
        Self::new(10)
    }

    /// Folds the low `len` bits of global history into `bits` bits.
    fn fold_history(&self, len: u32, bits: u32) -> u64 {
        let mut folded = 0u64;
        let mut taken_bits = 0u32;
        let mut word = 0usize;
        let mut offset = 0u32;
        let mut acc = 0u64;
        let mut acc_len = 0u32;
        while taken_bits < len {
            let chunk = (64 - offset).min(len - taken_bits);
            let part = (self.ghist[word] >> offset) & mask(chunk);
            acc |= part << acc_len;
            acc_len += chunk;
            while acc_len >= bits {
                folded ^= acc & mask(bits);
                acc >>= bits;
                acc_len -= bits;
            }
            taken_bits += chunk;
            offset += chunk;
            if offset == 64 {
                offset = 0;
                word += 1;
            }
        }
        folded ^ (acc & mask(bits))
    }

    fn index(&self, pc: u64, table: usize) -> usize {
        let h = self.fold_history(HIST_LENS[table], self.index_bits);
        (((pc >> 2) ^ (pc >> (2 + self.index_bits as u64)) ^ h) & mask(self.index_bits)) as usize
    }

    fn tag(&self, pc: u64, table: usize) -> u16 {
        let h = self.fold_history(HIST_LENS[table], 9);
        let h2 = self.fold_history(HIST_LENS[table], 8) << 1;
        (((pc >> 2) ^ h ^ h2) & 0x1FF) as u16 | 0x200 // non-zero tags
    }

    /// Longest matching table, if any, as `(table, index)`.
    fn provider(&self, pc: u64) -> Option<(usize, usize)> {
        (0..NUM_TABLES).rev().find_map(|ti| {
            let idx = self.index(pc, ti);
            (self.tables[ti][idx].tag == self.tag(pc, ti)).then_some((ti, idx))
        })
    }

    fn push_history(&mut self, taken: bool) {
        let carry3 = self.ghist[2] >> 63;
        let carry2 = self.ghist[1] >> 63;
        let carry1 = self.ghist[0] >> 63;
        self.ghist[3] = (self.ghist[3] << 1) | carry3;
        self.ghist[2] = (self.ghist[2] << 1) | carry2;
        self.ghist[1] = (self.ghist[1] << 1) | carry1;
        self.ghist[0] = (self.ghist[0] << 1) | taken as u64;
    }
}

#[inline]
fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

impl BranchPredictor for Tage {
    fn predict(&self, pc: u64) -> bool {
        match self.provider(pc) {
            Some((ti, idx)) => self.tables[ti][idx].ctr >= 4,
            None => self.base.predict(pc),
        }
    }

    fn train(&mut self, pc: u64, taken: bool) {
        let provider = self.provider(pc);
        let prediction = match provider {
            Some((ti, idx)) => self.tables[ti][idx].ctr >= 4,
            None => self.base.predict(pc),
        };
        let correct = prediction == taken;
        match provider {
            Some((ti, idx)) => {
                let e = &mut self.tables[ti][idx];
                if taken {
                    e.ctr = (e.ctr + 1).min(7);
                } else {
                    e.ctr = e.ctr.saturating_sub(1);
                }
                // a two-bit counter that counts toward "correct"
                e.useful = NEXT[(e.useful as usize) << 1 | correct as usize];
            }
            None => self.base.train(pc, taken),
        }
        // allocate a longer-history entry on a misprediction
        if !correct {
            let start = provider.map(|(ti, _)| ti + 1).unwrap_or(0);
            self.alloc_seed = self
                .alloc_seed
                .wrapping_mul(1664525)
                .wrapping_add(1013904223);
            let mut allocated = false;
            for ti in start..NUM_TABLES {
                let idx = self.index(pc, ti);
                if self.tables[ti][idx].useful == 0 {
                    self.tables[ti][idx] = TageEntry {
                        tag: self.tag(pc, ti),
                        ctr: if taken { 4 } else { 3 },
                        useful: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // age usefulness so future allocations succeed
                for ti in start..NUM_TABLES {
                    let idx = self.index(pc, ti);
                    let e = &mut self.tables[ti][idx];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
        self.push_history(taken);
    }

    fn reset(&mut self) {
        self.base.reset();
        for t in &mut self.tables {
            t.fill(TageEntry::default());
        }
        self.ghist = [0; 4];
        self.alloc_seed = 0x9E37;
    }

    fn storage_bits(&self) -> usize {
        // 10-bit tag + 3-bit ctr + 2-bit useful per tagged entry
        self.base.storage_bits() + self.tables.iter().map(|t| t.len() * 15).sum::<usize>()
    }

    fn name(&self) -> String {
        format!("tage-{}i", self.index_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gshare;

    #[test]
    fn learns_constant_and_alternating() {
        let mut p = Tage::new_8kb();
        let mut correct = 0;
        for i in 0..2_000u32 {
            let taken = i % 2 == 0;
            if p.predict_and_train(0x1000, taken) == taken && i >= 1_000 {
                correct += 1;
            }
        }
        assert!(correct >= 990, "alternation: {correct}/1000");
    }

    #[test]
    fn beats_gshare_on_long_period_loops() {
        // a 50-iteration loop exit is invisible to 14 bits of gshare history
        // but within TAGE's 130-bit table
        let run = |p: &mut dyn BranchPredictor| -> u32 {
            let mut correct = 0;
            for round in 0..200u32 {
                for i in 0..=50u32 {
                    let taken = i < 50;
                    let pred = p.predict_and_train(0x2000, taken);
                    if round >= 100 && pred == taken {
                        correct += 1;
                    }
                }
            }
            correct
        };
        let mut tage = Tage::new_8kb();
        let tage_correct = run(&mut tage);
        let mut gshare = Gshare::new_4kb();
        let gshare_correct = run(&mut gshare);
        assert!(
            tage_correct > gshare_correct,
            "TAGE {tage_correct} vs gshare {gshare_correct} on a 50-trip loop"
        );
    }

    #[test]
    fn deterministic_and_resettable() {
        let stream: Vec<(u64, bool)> = (0..800u64)
            .map(|i| (0x100 + (i % 5) * 4, (i * i / 7) % 3 == 0))
            .collect();
        let mut p = Tage::new(8);
        let run = |p: &mut Tage| -> Vec<bool> {
            stream
                .iter()
                .map(|&(pc, t)| p.predict_and_train(pc, t))
                .collect()
        };
        let a = run(&mut p);
        p.reset();
        let b = run(&mut p);
        assert_eq!(a, b);
    }

    #[test]
    fn history_folding_is_bounded() {
        let mut p = Tage::new(8);
        for i in 0..1_000u32 {
            p.push_history(i % 3 == 0);
        }
        for (len, bits) in [(5u32, 8u32), (130, 10), (44, 9), (130, 63)] {
            let f = p.fold_history(len, bits);
            assert!(f <= mask(bits), "fold({len},{bits}) = {f:#x}");
        }
    }

    #[test]
    fn storage_accounting_and_name() {
        let p = Tage::new_8kb();
        assert_eq!(p.name(), "tage-10i");
        // 2K bimodal x 2 bits + 4 x 1K x 15 bits
        assert_eq!(p.storage_bits(), 2048 * 2 + 4 * 1024 * 15);
    }

    #[test]
    fn tags_are_nonzero() {
        let p = Tage::new(8);
        for table in 0..NUM_TABLES {
            for pc in (0..64u64).map(|i| 0x4000 + i * 4) {
                assert_ne!(p.tag(pc, table), 0);
            }
        }
    }
}
