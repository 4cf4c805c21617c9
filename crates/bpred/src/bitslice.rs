//! The fused survey kernel: every table-based predictor kind stepped in
//! one pass over a recorded trace's same-site runs.
//!
//! The sweep engine's fused replay feeds one recorded trace to many
//! predictor configurations. For the table-based kinds in
//! [`PredictorKind::SURVEY`] — bimodal, gshare, GAg, local, tournament, and
//! the static baselines — every piece of predictor state is a saturating
//! [`TwoBitCounter`], and the trace's directions already arrive packed 64
//! per `u64` word in [`SiteRun`]s. [`SurveyFused`] steps all ten of them
//! over those runs at once.
//!
//! The pass replicates each scalar predictor *bit-exactly*: same table
//! sizes, same index functions (via [`site_pc`]), same update ordering, and
//! the one saturating-counter transition table the scalar
//! [`TwoBitCounter`] uses. The engine's differential suite
//! (`bitslice_equiv`) pins that equivalence over full workloads; the unit
//! tests here pin it per column on synthetic streams. History-dependent
//! kinds (perceptron, TAGE, gshare+loop) carry state that is not a two-bit
//! counter table, so they are not [`eligible`] and the engine keeps them on
//! its chunked scalar path.

use crate::counter::NEXT;
use crate::{site_pc, PredictorKind, TwoBitCounter};
use btrace::SiteRun;

/// Whether `kind` is one of the [`SurveyFused::KINDS`]: the table
/// predictors the engine serves from its run-driven lane group.
pub fn eligible(kind: PredictorKind) -> bool {
    SurveyFused::KINDS.contains(&kind)
}

/// The table-index image of a site's PC, as every scalar index function
/// computes it: `site_pc(site) >> 2`.
#[inline]
fn pc_index(site: btrace::SiteId) -> u64 {
    site_pc(site) >> 2
}

/// Every table-based SURVEY kind stepped in one fused pass over the run
/// stream — the whole survey grid's simulations in a single loop.
///
/// Two structural facts make the fusion pay:
///
/// * Every history-indexed predictor observes the *same* global direction
///   sequence, so their global-history registers always hold identical
///   bits (each masks off what it needs). One shared register, one run
///   decode, one `taken`-bit extraction, and one per-run tally flush serve
///   all ten simulations, and the per-event table updates are mutually
///   independent, so they pipeline instead of serializing the way ten
///   separate passes do.
/// * Each counter is one byte — all ten tables total ~72 KiB, so the
///   random-index gshare/GAg walks stay in L1/L2 — and every counter whose
///   index is fixed within a run (bimodal, tournament bimodal + chooser,
///   local history) is hoisted into registers for the run.
///
/// The engine's lane group uses this whenever a fused replay seats all ten
/// kinds (every survey sweep does); a partial seating steps each kind's
/// scalar predictor over the same runs instead.
pub struct SurveyFused {
    ghr: u64,
    g14: Box<[u8; 1 << 14]>,
    gag12: Box<[u8; 1 << 12]>,
    gag14: Box<[u8; 1 << 14]>,
    bim12: Box<[u8; 1 << 12]>,
    bim14: Box<[u8; 1 << 14]>,
    /// Shared by Gshare1Kb and the tournament's gshare component: both
    /// index by `(pc ⊕ history) & 0xFFF`, initialize weakly-taken, and
    /// update on every event, so their counters are identical at all
    /// times — one table, one load/store per event, serves both.
    g12: Box<[u8; 1 << 12]>,
    local_pat: Box<[u8; 1 << 12]>,
    /// Local history, tournament bimodal, and tournament chooser all index
    /// by the same 11 masked PC bits, so their per-branch state shares one
    /// 4-byte entry: one load and one store per run covers all three.
    pc11: Box<[Pc11; 1 << 11]>,
}

/// Per-branch state of the three predictors indexed by `pc & 0x7FF`.
#[derive(Clone, Copy)]
struct Pc11 {
    /// Local two-level per-branch direction history.
    lhist: u16,
    /// Tournament bimodal component counter.
    tb: u8,
    /// Tournament chooser counter.
    tc: u8,
}

impl SurveyFused {
    /// The kinds this pass simulates, in the order their correctness
    /// columns are written by [`run_segment`](Self::run_segment).
    pub const KINDS: [PredictorKind; 10] = [
        PredictorKind::StaticTaken,
        PredictorKind::StaticNotTaken,
        PredictorKind::Bimodal1Kb,
        PredictorKind::Bimodal4Kb,
        PredictorKind::Gshare1Kb,
        PredictorKind::Gshare4Kb,
        PredictorKind::GAg1Kb,
        PredictorKind::GAg4Kb,
        PredictorKind::Local4Kb,
        PredictorKind::Tournament4Kb,
    ];

    /// Fresh state for all ten predictors — the same table sizes and
    /// initializations as the scalar kinds.
    pub fn new() -> Self {
        let init = TwoBitCounter::default().state();
        let chooser = TwoBitCounter::weakly_taken().state();
        Self {
            ghr: 0,
            g14: Box::new([init; 1 << 14]),
            gag12: Box::new([init; 1 << 12]),
            gag14: Box::new([init; 1 << 14]),
            bim12: Box::new([init; 1 << 12]),
            bim14: Box::new([init; 1 << 14]),
            g12: Box::new([init; 1 << 12]),
            local_pat: Box::new([init; 1 << 12]),
            pc11: Box::new(
                [Pc11 {
                    lhist: 0,
                    tb: init,
                    tc: chooser,
                }; 1 << 11],
            ),
        }
    }

    /// Steps all ten predictors over `runs`, adding each kind's per-site
    /// correct predictions into `correct[site]` rows (column `k` is
    /// [`KINDS[k]`](Self::KINDS)); the row layout keeps a run's ten tally
    /// flushes on adjacent cache lines.
    pub fn run_segment(&mut self, runs: &[SiteRun], correct: &mut [[u64; 10]]) {
        const M12: u64 = (1 << 12) - 1;
        const M14: u64 = (1 << 14) - 1;
        const M11: u64 = (1 << 11) - 1;
        const LOCAL_PAT_MASK: usize = (1 << 12) - 1;
        let g12 = &mut *self.g12;
        let g14 = &mut *self.g14;
        let gag12 = &mut *self.gag12;
        let gag14 = &mut *self.gag14;
        let bim12 = &mut *self.bim12;
        let bim14 = &mut *self.bim14;
        let local_pat = &mut *self.local_pat;
        let pc11 = &mut *self.pc11;
        let mut ghr = self.ghr;
        for r in runs {
            let site = r.site.index();
            let pcx = pc_index(r.site);
            // everything indexed purely by PC is loaded once per run and
            // stored back once: the whole run hits the same entries
            let b12i = (pcx & M12) as usize;
            let b14i = (pcx & M14) as usize;
            let p11i = (pcx & M11) as usize;
            let mut b12 = bim12[b12i] as usize;
            let mut b14 = bim14[b14i] as usize;
            let p11 = pc11[p11i];
            let mut lhist = p11.lhist;
            let mut tb = p11.tb as usize;
            let mut tc = p11.tc as usize;
            let mut bits = r.bits;
            let mut k_b12 = 0u64;
            let mut k_b14 = 0u64;
            let mut k_g12 = 0u64;
            let mut k_g14 = 0u64;
            let mut k_gag12 = 0u64;
            let mut k_gag14 = 0u64;
            let mut k_local = 0u64;
            let mut k_tour = 0u64;
            // One event through every table predictor. A macro rather than
            // a closure so the borrow checker sees the table accesses
            // directly (a closure would need every table and tally by
            // `&mut` at once).
            macro_rules! step {
                ($d:expr) => {{
                    let d: u64 = $d;
                    let du = d as usize;
                    // gshare 12-bit: PC ⊕ history (masking after the XOR
                    // distributes); the single load also serves as the
                    // tournament's gshare component — same index, init,
                    // and update rule, so the tables are always identical
                    let i = ((pcx ^ ghr) & M12) as usize;
                    let s = g12[i] as usize;
                    let g = (s >> 1) as u64;
                    k_g12 += 1 ^ g ^ d;
                    g12[i] = NEXT[s << 1 | du];
                    let i = ((pcx ^ ghr) & M14) as usize;
                    let s = g14[i] as usize;
                    k_g14 += 1 ^ (s >> 1) as u64 ^ d;
                    g14[i] = NEXT[s << 1 | du];
                    // GAgs: pure masked history
                    let i = (ghr & M12) as usize;
                    let s = gag12[i] as usize;
                    k_gag12 += 1 ^ (s >> 1) as u64 ^ d;
                    gag12[i] = NEXT[s << 1 | du];
                    let i = (ghr & M14) as usize;
                    let s = gag14[i] as usize;
                    k_gag14 += 1 ^ (s >> 1) as u64 ^ d;
                    gag14[i] = NEXT[s << 1 | du];
                    // local two-level: per-branch history into the
                    // pattern table
                    let i = lhist as usize & LOCAL_PAT_MASK;
                    let s = local_pat[i] as usize;
                    k_local += 1 ^ (s >> 1) as u64 ^ d;
                    local_pat[i] = NEXT[s << 1 | du];
                    lhist = lhist << 1 | d as u16;
                    // tournament: components predicted before any update,
                    // chooser trained only on disagreement — the scalar
                    // ordering
                    let b = (tb >> 1) as u64;
                    let ch = (tc >> 1) as u64;
                    let pred = b ^ (ch & (g ^ b));
                    k_tour += 1 ^ pred ^ d;
                    let nc = NEXT[tc << 1 | (1 ^ g ^ d) as usize] as usize;
                    // branchless conditional train: keep tc unless g and
                    // b disagreed
                    tc ^= (tc ^ nc) & (g ^ b).wrapping_neg() as usize;
                    tb = NEXT[tb << 1 | du] as usize;
                    // standalone bimodals on their register-resident
                    // counters
                    k_b12 += 1 ^ (b12 >> 1) as u64 ^ d;
                    b12 = NEXT[b12 << 1 | du] as usize;
                    k_b14 += 1 ^ (b14 >> 1) as u64 ^ d;
                    b14 = NEXT[b14 << 1 | du] as usize;
                    ghr = ghr << 1 | d;
                }};
            }
            // Real traces are dominated by short runs (~81% single-event,
            // ~90% one or two), so the hot shapes run straight-line with
            // no loop-exit branch to mispredict; only runs longer than
            // two take the tail loop.
            if r.len == 1 {
                step!(bits & 1);
            } else {
                step!(bits & 1);
                step!((bits >> 1) & 1);
                if r.len > 2 {
                    bits >>= 2;
                    for _ in 2..r.len {
                        step!(bits & 1);
                        bits >>= 1;
                    }
                }
            }
            bim12[b12i] = b12 as u8;
            bim14[b14i] = b14 as u8;
            pc11[p11i] = Pc11 {
                lhist,
                tb: tb as u8,
                tc: tc as u8,
            };
            // statics are pure popcounts over the run's direction bits
            let pop = r.bits.count_ones() as u64;
            let row = &mut correct[site];
            row[0] += pop;
            row[1] += r.len as u64 - pop;
            row[2] += k_b12;
            row[3] += k_b14;
            row[4] += k_g12;
            row[5] += k_g14;
            row[6] += k_gag12;
            row[7] += k_gag14;
            row[8] += k_local;
            row[9] += k_tour;
        }
        self.ghr = ghr;
    }
}

impl Default for SurveyFused {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorSim;
    use btrace::{RecordedTrace, SiteId, Tracer};

    /// Drives [`SurveyFused`] and one scalar `PredictorSim` per column over
    /// the same pseudo-random stream — single events mixed with streaks
    /// that cross 64 and 2048 events, fed in segments of 7 runs so state
    /// carries across segment boundaries — and asserts identical per-site
    /// counts in every column.
    fn assert_fused_matches_scalar(num_sites: usize, events: usize) {
        let mut trace = RecordedTrace::new(num_sites);
        let mut sims = SurveyFused::KINDS.map(|kind| PredictorSim::new(num_sites, kind.build()));
        let mut x = 0xdead_beef_cafe_f00du64 ^ events as u64;
        let mut site = 0u32;
        let mut streak = 0u64;
        for _ in 0..events {
            if streak == 0 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                site = (x % num_sites as u64) as u32;
                streak = 1 + (x >> 32) % [1u64, 3, 70, 2100][(x >> 60) as usize % 4];
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = x & 3 != 0;
            trace.push(SiteId(site), taken);
            for sim in &mut sims {
                sim.branch(SiteId(site), taken);
            }
            streak -= 1;
        }
        let mut fused = SurveyFused::new();
        let mut correct = vec![[0u64; 10]; num_sites];
        let runs: Vec<SiteRun> = trace.site_runs().collect();
        assert!(runs.iter().any(|r| r.len == 64), "streaks must fill runs");
        for seg in runs.chunks(7) {
            fused.run_segment(seg, &mut correct);
        }
        for (k, sim) in sims.into_iter().enumerate() {
            let kind = SurveyFused::KINDS[k];
            let profile = sim.into_profile();
            for (s, row) in correct.iter().enumerate() {
                assert_eq!(row[k], profile.correct(SiteId(s as u32)), "{kind} site {s}");
            }
        }
    }

    #[test]
    fn every_fused_column_matches_its_scalar_predictor() {
        assert_fused_matches_scalar(13, 30_000);
    }

    #[test]
    fn every_fused_column_matches_on_a_wide_site_table() {
        // 300 sites: far jumps are two-byte deltas
        assert_fused_matches_scalar(300, 30_000);
    }

    #[test]
    fn eligibility_partitions_the_survey() {
        let eligible_count = PredictorKind::SURVEY
            .iter()
            .filter(|k| eligible(**k))
            .count();
        assert_eq!(eligible_count, 10, "10 table kinds ride the lane group");
        for kind in [
            PredictorKind::Perceptron16Kb,
            PredictorKind::Tage8Kb,
            PredictorKind::GshareLoop4Kb,
        ] {
            assert!(!eligible(kind));
        }
    }
}
