//! Bit-sliced two-bit-counter tables and run-driven simulation lanes.
//!
//! The sweep engine's fused replay feeds one recorded trace to many
//! predictor configurations. For the table-based kinds in
//! [`PredictorKind::SURVEY`] — bimodal, gshare, GAg, local, tournament, and
//! the static baselines — every piece of predictor state is a saturating
//! [`TwoBitCounter`], and the trace's directions already arrive packed 64
//! per `u64` word. This module exploits both facts:
//!
//! * [`CounterPlane`] stores a counter table *transposed* into two bit
//!   planes (the counters' high and low bits), 64 counters per word pair.
//!   A saturating update and its correctness check are pure bitwise
//!   formulas over the planes, and the whole table costs a quarter of the
//!   byte-per-counter layout — the entire SURVEY lane group stays
//!   L1-resident.
//! * [`RunLane`] steps one predictor configuration over [`SiteRun`]s — the
//!   same-site streak view of a recorded trace — so the per-site index is
//!   computed once per run instead of once per event, and a streak that
//!   keeps hitting one counter is folded through a 8-events-per-lookup
//!   table ([`CounterPlane::step_lane_run`]).
//!
//! Every lane replicates its scalar predictor *bit-exactly*: same table
//! sizes, same index functions (via [`site_pc`]), same update ordering.
//! The engine's differential suite (`bitslice_equiv`) pins that equivalence
//! over full workloads; the unit tests here pin it per kind on synthetic
//! streams. History-dependent kinds (perceptron, TAGE, gshare+loop) carry
//! state that is not a two-bit counter table, so [`lane_for`] declines them
//! and the engine keeps them on the chunked scalar path.

use crate::counter::NEXT;
use crate::{site_pc, PredictorKind, TwoBitCounter};
use btrace::SiteRun;

/// A table of saturating two-bit counters stored as high/low bit planes.
///
/// Lane `i` lives at bit `i % 64` of words `hi[i / 64]` / `lo[i / 64]`;
/// its state is `hi<<1 | lo`, predicting taken iff the high bit is set
/// (state ≥ 2), exactly like [`TwoBitCounter`].
#[derive(Clone, Debug)]
pub struct CounterPlane {
    hi: Vec<u64>,
    lo: Vec<u64>,
    entries: usize,
}

/// Packed 8-step transition table: `STEP8[state][byte]` walks a counter
/// through 8 directions (bit 0 first) and packs `next_state | count << 2`
/// where `count` is how many of the 8 predictions were correct.
const STEP8: [[u16; 256]; 4] = build_step8();

const fn build_step8() -> [[u16; 256]; 4] {
    let mut out = [[0u16; 256]; 4];
    let mut s = 0;
    while s < 4 {
        let mut byte = 0;
        while byte < 256 {
            let mut state = s as u16;
            let mut correct = 0u16;
            let mut i = 0;
            while i < 8 {
                let taken = (byte >> i & 1) as u16;
                correct += ((state >> 1) == taken) as u16;
                state = NEXT[(state << 1 | taken) as usize] as u16;
                i += 1;
            }
            out[s][byte] = state | correct << 2;
            byte += 1;
        }
        s += 1;
    }
    out
}

impl CounterPlane {
    /// Creates a plane pair of `entries` counters, all initialized to
    /// `init`.
    pub fn new(entries: usize, init: TwoBitCounter) -> Self {
        let words = entries.div_ceil(64);
        let hi = if init.state() & 2 != 0 { !0u64 } else { 0 };
        let lo = if init.state() & 1 != 0 { !0u64 } else { 0 };
        Self {
            hi: vec![hi; words],
            lo: vec![lo; words],
            entries,
        }
    }

    /// Number of counters in the table.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Heap bytes held by the planes (a quarter of a byte-per-counter
    /// table).
    pub fn memory_bytes(&self) -> usize {
        (self.hi.capacity() + self.lo.capacity()) * 8
    }

    /// The state of counter `idx` as a scalar [`TwoBitCounter`].
    pub fn state(&self, idx: usize) -> TwoBitCounter {
        assert!(idx < self.entries, "lane {idx} out of range");
        let w = idx >> 6;
        let m = 1u64 << (idx & 63);
        let raw = ((self.hi[w] & m != 0) as u8) << 1 | (self.lo[w] & m != 0) as u8;
        TwoBitCounter::try_from(raw).expect("2-bit state")
    }

    /// Direction predicted by counter `idx` (its high bit).
    #[inline]
    pub fn predict(&self, idx: usize) -> bool {
        self.hi[idx >> 6] & 1u64 << (idx & 63) != 0
    }

    /// Saturating update of counter `idx` toward `taken`.
    #[inline]
    pub fn update(&mut self, idx: usize, taken: bool) {
        self.step_lane(idx, taken);
    }

    /// Branchless single-lane step: predicts and updates counter `idx`
    /// toward direction bit `d` (`0` or `1`), returning the correctness
    /// *bit*. The update is two XOR read-modify-writes with no data-
    /// dependent branches, which keeps the fused multi-table inner loop
    /// (one step per table per event) pipelined.
    #[inline(always)]
    pub fn step_lane_bit(&mut self, idx: usize, d: u64) -> u64 {
        debug_assert!(d <= 1);
        let w = idx >> 6;
        let b = (idx & 63) as u32;
        let hw = self.hi[w];
        let lw = self.lo[w];
        let h = hw >> b & 1;
        let l = lw >> b & 1;
        // single-lane form of the word-level transition in `step_word`
        let nh = (h & l) | ((h | l) & d);
        let nl = (d & (h | (l ^ 1))) | ((d ^ 1) & h & (l ^ 1));
        self.hi[w] = hw ^ ((h ^ nh) << b);
        self.lo[w] = lw ^ ((l ^ nl) << b);
        1 ^ h ^ d
    }

    /// Predicts and updates counter `idx` in one step, returning whether
    /// the (pre-update) prediction matched `taken` — the plane twin of
    /// `TwoBitCounter::predict` followed by `update`.
    #[inline]
    pub fn step_lane(&mut self, idx: usize, taken: bool) -> bool {
        let w = idx >> 6;
        let m = 1u64 << (idx & 63);
        let h = self.hi[w];
        let l = self.lo[w];
        let hb = h & m != 0;
        let lb = l & m != 0;
        // saturating-counter transition as boolean formulas on (hi, lo):
        //   taken:     hi' = hi | lo      lo' = hi | !lo
        //   not taken: hi' = hi & lo      lo' = hi & !lo
        let (nh, nl) = if taken {
            (hb | lb, hb | !lb)
        } else {
            (hb & lb, hb & !lb)
        };
        self.hi[w] = if nh { h | m } else { h & !m };
        self.lo[w] = if nl { l | m } else { l & !m };
        hb == taken
    }

    /// Steps all 64 lanes of word `word` at once: lane `i` (where `mask`
    /// has bit `i` set) is predicted and updated toward bit `i` of `dirs`.
    /// Lanes outside `mask` are untouched. Returns the correct-prediction
    /// bits, masked.
    #[inline]
    pub fn step_word(&mut self, word: usize, dirs: u64, mask: u64) -> u64 {
        let h = self.hi[word];
        let l = self.lo[word];
        let nh = (h & l) | ((h | l) & dirs);
        let nl = (dirs & (h | !l)) | (!dirs & h & !l);
        self.hi[word] = (h & !mask) | (nh & mask);
        self.lo[word] = (l & !mask) | (nl & mask);
        !(h ^ dirs) & mask
    }

    /// Steps counter `idx` through `len` directions packed in `bits`
    /// (bit 0 first), 8 events per table lookup, returning how many
    /// predictions were correct. `len` must be at most 64.
    #[inline]
    pub fn step_lane_run(&mut self, idx: usize, bits: u64, len: u32) -> u32 {
        debug_assert!(len <= 64);
        let w = idx >> 6;
        let m = 1u64 << (idx & 63);
        let mut s = ((self.hi[w] & m != 0) as u16) << 1 | (self.lo[w] & m != 0) as u16;
        let mut bits = bits;
        let mut rem = len;
        let mut correct = 0u32;
        while rem >= 8 {
            let e = STEP8[s as usize][(bits & 0xFF) as usize];
            s = e & 3;
            correct += (e >> 2) as u32;
            bits >>= 8;
            rem -= 8;
        }
        while rem > 0 {
            let taken = bits & 1 == 1;
            correct += ((s >= 2) == taken) as u32;
            s = if taken {
                (s + 1).min(3)
            } else {
                s.saturating_sub(1)
            };
            bits >>= 1;
            rem -= 1;
        }
        self.hi[w] = if s & 2 != 0 {
            self.hi[w] | m
        } else {
            self.hi[w] & !m
        };
        self.lo[w] = if s & 1 != 0 {
            self.lo[w] | m
        } else {
            self.lo[w] & !m
        };
        correct
    }
}

/// One bit-sliced predictor configuration stepping over same-site runs.
///
/// A lane consumes segments of [`SiteRun`]s (in stream order, lengths
/// `1..=64`, direction bits above `len` zero) and adds each site's
/// correct-prediction count into `correct`. Summing a lane's counts over a
/// whole trace reproduces the scalar `PredictorSim` counts bit-exactly.
pub trait RunLane: Send {
    /// The exact `BranchPredictor::name()` of the scalar predictor this
    /// lane replicates.
    fn predictor_name(&self) -> String;

    /// Steps the lane over `runs`, accumulating per-site correct
    /// predictions into `correct` (indexed by site).
    fn run_segment(&mut self, runs: &[SiteRun], correct: &mut [u64]);
}

/// Builds the bit-sliced lane replicating `kind`, or `None` for the
/// history-dependent kinds (perceptron, TAGE, gshare+loop) whose state is
/// not a two-bit-counter table; the engine keeps those on the scalar path.
pub fn lane_for(kind: PredictorKind) -> Option<Box<dyn RunLane>> {
    Some(match kind {
        PredictorKind::Gshare4Kb => Box::new(GshareLane::new(14, 14)),
        PredictorKind::Gshare1Kb => Box::new(GshareLane::new(12, 12)),
        PredictorKind::Bimodal1Kb => Box::new(BimodalLane::new(12)),
        PredictorKind::Bimodal4Kb => Box::new(BimodalLane::new(14)),
        PredictorKind::GAg1Kb => Box::new(GAgLane::new(12)),
        PredictorKind::GAg4Kb => Box::new(GAgLane::new(14)),
        PredictorKind::Local4Kb => Box::new(LocalLane::new(11, 12)),
        PredictorKind::Tournament4Kb => Box::new(TournamentLane::new(12, 11, 11)),
        PredictorKind::StaticTaken => Box::new(StaticLane { taken: true }),
        PredictorKind::StaticNotTaken => Box::new(StaticLane { taken: false }),
        PredictorKind::Perceptron16Kb | PredictorKind::Tage8Kb | PredictorKind::GshareLoop4Kb => {
            return None;
        }
    })
}

/// Whether `kind` has a bit-sliced lane ([`lane_for`] returns `Some`).
pub fn eligible(kind: PredictorKind) -> bool {
    !matches!(
        kind,
        PredictorKind::Perceptron16Kb | PredictorKind::Tage8Kb | PredictorKind::GshareLoop4Kb
    )
}

/// The table-index image of a site's PC, as every scalar index function
/// computes it: `site_pc(site) >> 2`.
#[inline]
fn pc_index(site: btrace::SiteId) -> u64 {
    site_pc(site) >> 2
}

/// Static always-taken / always-not-taken baseline: correctness is a pure
/// popcount over the packed direction bits.
struct StaticLane {
    taken: bool,
}

impl RunLane for StaticLane {
    fn predictor_name(&self) -> String {
        if self.taken {
            "static-taken"
        } else {
            "static-not-taken"
        }
        .to_owned()
    }

    fn run_segment(&mut self, runs: &[SiteRun], correct: &mut [u64]) {
        if self.taken {
            for r in runs {
                correct[r.site.index()] += r.bits.count_ones() as u64;
            }
        } else {
            for r in runs {
                correct[r.site.index()] += (r.len - r.bits.count_ones()) as u64;
            }
        }
    }
}

/// Bimodal: one counter per (masked) PC — a whole run hits one counter,
/// folded 8 events per lookup.
struct BimodalLane {
    plane: CounterPlane,
    index_bits: u32,
}

impl BimodalLane {
    fn new(index_bits: u32) -> Self {
        Self {
            plane: CounterPlane::new(1 << index_bits, TwoBitCounter::default()),
            index_bits,
        }
    }
}

impl RunLane for BimodalLane {
    fn predictor_name(&self) -> String {
        format!("bimodal-{}i", self.index_bits)
    }

    fn run_segment(&mut self, runs: &[SiteRun], correct: &mut [u64]) {
        let mask = (1u64 << self.index_bits) - 1;
        for r in runs {
            let idx = (pc_index(r.site) & mask) as usize;
            correct[r.site.index()] += self.plane.step_lane_run(idx, r.bits, r.len) as u64;
        }
    }
}

/// Gshare: PC ⊕ global history, so the index changes every event, but the
/// PC half of the hash is hoisted out of the run loop.
struct GshareLane {
    plane: CounterPlane,
    index_bits: u32,
    history_bits: u32,
    ghr: u64,
}

impl GshareLane {
    fn new(index_bits: u32, history_bits: u32) -> Self {
        Self {
            plane: CounterPlane::new(1 << index_bits, TwoBitCounter::default()),
            index_bits,
            history_bits,
            ghr: 0,
        }
    }
}

impl RunLane for GshareLane {
    fn predictor_name(&self) -> String {
        if self.index_bits == 14 && self.history_bits == 14 {
            "gshare-4KB".to_owned()
        } else {
            format!("gshare-{}i{}h", self.index_bits, self.history_bits)
        }
    }

    fn run_segment(&mut self, runs: &[SiteRun], correct: &mut [u64]) {
        let imask = (1u64 << self.index_bits) - 1;
        let hmask = (1u64 << self.history_bits) - 1;
        let mut ghr = self.ghr;
        for r in runs {
            let pcx = pc_index(r.site);
            let mut bits = r.bits;
            let mut c = 0u32;
            for _ in 0..r.len {
                let taken = bits & 1 == 1;
                let idx = ((pcx ^ (ghr & hmask)) & imask) as usize;
                c += self.plane.step_lane(idx, taken) as u32;
                ghr = ghr << 1 | taken as u64;
                bits >>= 1;
            }
            correct[r.site.index()] += c as u64;
        }
        self.ghr = ghr;
    }
}

/// GAg: pure global history, no PC at all.
struct GAgLane {
    plane: CounterPlane,
    history_bits: u32,
    ghr: u64,
}

impl GAgLane {
    fn new(history_bits: u32) -> Self {
        Self {
            plane: CounterPlane::new(1 << history_bits, TwoBitCounter::default()),
            history_bits,
            ghr: 0,
        }
    }
}

impl RunLane for GAgLane {
    fn predictor_name(&self) -> String {
        format!("gag-{}h", self.history_bits)
    }

    fn run_segment(&mut self, runs: &[SiteRun], correct: &mut [u64]) {
        let mask = (1u64 << self.history_bits) - 1;
        let mut ghr = self.ghr;
        for r in runs {
            let mut bits = r.bits;
            let mut c = 0u32;
            for _ in 0..r.len {
                let taken = bits & 1 == 1;
                let idx = (ghr & mask) as usize;
                c += self.plane.step_lane(idx, taken) as u32;
                ghr = ghr << 1 | taken as u64;
                bits >>= 1;
            }
            correct[r.site.index()] += c as u64;
        }
        self.ghr = ghr;
    }
}

/// Local two-level (PAg): the per-branch history register is loaded once
/// per run and written back once, since every event in a run shares the
/// branch-history-table slot.
struct LocalLane {
    /// Per-branch local histories. Stored as `u16`: the scalar predictor
    /// shifts a `u32` but only ever reads `history_bits <= 12` low bits,
    /// so the narrower register is observationally identical.
    histories: Vec<u16>,
    plane: CounterPlane,
    bht_index_bits: u32,
    history_bits: u32,
}

impl LocalLane {
    fn new(bht_index_bits: u32, history_bits: u32) -> Self {
        assert!(history_bits <= 16, "u16 local histories");
        Self {
            histories: vec![0; 1 << bht_index_bits],
            plane: CounterPlane::new(1 << history_bits, TwoBitCounter::default()),
            bht_index_bits,
            history_bits,
        }
    }
}

impl RunLane for LocalLane {
    fn predictor_name(&self) -> String {
        format!("local-{}i{}h", self.bht_index_bits, self.history_bits)
    }

    fn run_segment(&mut self, runs: &[SiteRun], correct: &mut [u64]) {
        let bht_mask = (1u64 << self.bht_index_bits) - 1;
        let pat_mask = (1u16 << self.history_bits) - 1;
        for r in runs {
            let bidx = (pc_index(r.site) & bht_mask) as usize;
            let mut hist = self.histories[bidx];
            let mut bits = r.bits;
            let mut c = 0u32;
            for _ in 0..r.len {
                let taken = bits & 1 == 1;
                let pidx = (hist & pat_mask) as usize;
                c += self.plane.step_lane(pidx, taken) as u32;
                hist = hist << 1 | taken as u16;
                bits >>= 1;
            }
            self.histories[bidx] = hist;
            correct[r.site.index()] += c as u64;
        }
    }
}

/// Tournament: gshare + bimodal components with a chooser, replicating the
/// scalar predict/train ordering exactly (component predictions read before
/// any update; chooser trains only on disagreement; gshare history shifts
/// after its counter update).
struct TournamentLane {
    gshare: CounterPlane,
    gshare_bits: u32,
    ghr: u64,
    bimodal: CounterPlane,
    bimodal_bits: u32,
    chooser: CounterPlane,
    chooser_bits: u32,
}

impl TournamentLane {
    fn new(gshare_bits: u32, bimodal_bits: u32, chooser_bits: u32) -> Self {
        Self {
            gshare: CounterPlane::new(1 << gshare_bits, TwoBitCounter::default()),
            gshare_bits,
            ghr: 0,
            bimodal: CounterPlane::new(1 << bimodal_bits, TwoBitCounter::default()),
            bimodal_bits,
            chooser: CounterPlane::new(1 << chooser_bits, TwoBitCounter::weakly_taken()),
            chooser_bits,
        }
    }
}

impl RunLane for TournamentLane {
    fn predictor_name(&self) -> String {
        format!("tournament-{}c", self.chooser_bits)
    }

    fn run_segment(&mut self, runs: &[SiteRun], correct: &mut [u64]) {
        let gmask = (1u64 << self.gshare_bits) - 1;
        let bmask = (1u64 << self.bimodal_bits) - 1;
        let cmask = (1u64 << self.chooser_bits) - 1;
        let mut ghr = self.ghr;
        for r in runs {
            let pcx = pc_index(r.site);
            let bidx = (pcx & bmask) as usize;
            let cidx = (pcx & cmask) as usize;
            let mut bits = r.bits;
            let mut c = 0u32;
            for _ in 0..r.len {
                let taken = bits & 1 == 1;
                let gidx = ((pcx ^ (ghr & gmask)) & gmask) as usize;
                let g = self.gshare.predict(gidx);
                let b = self.bimodal.predict(bidx);
                let pred = if self.chooser.predict(cidx) { g } else { b };
                c += (pred == taken) as u32;
                if g != b {
                    self.chooser.update(cidx, g == taken);
                }
                self.gshare.update(gidx, taken);
                ghr = ghr << 1 | taken as u64;
                self.bimodal.update(bidx, taken);
                bits >>= 1;
            }
            correct[r.site.index()] += c as u64;
        }
        self.ghr = ghr;
    }
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
/// * Unlike the 64-lanes-per-word [`CounterPlane`] (which excels when a
///   whole run hits one counter, as in [`step_lane_run`]
///   (CounterPlane::step_lane_run)), a *varying*-index single-lane access
///   touches a full word pair per counter bit. This pass therefore packs
///   each counter into one byte — all ten tables total ~72 KiB, so the
///   random-index gshare/GAg walks stay in L1/L2 — and hoists every
///   counter whose index is fixed within a run (bimodal, tournament
///   bimodal + chooser, local history) into registers for the run.
///
/// The engine's lane group uses this whenever a fused replay seats all ten
/// kinds (every survey sweep does); partial seatings fall back to per-kind
/// [`RunLane`]s, which this replicates bit-exactly.
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
    /// initializations as the scalar kinds and their `lane_for` lanes.
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
    use crate::{BranchPredictor, PredictorSim};
    use btrace::{RecordedTrace, SiteId, Tracer};

    #[test]
    fn plane_transitions_match_scalar_counter_exhaustively() {
        for state in 0..4u8 {
            for taken in [false, true] {
                let mut scalar = TwoBitCounter::try_from(state).unwrap();
                let expect_correct = scalar.predict() == taken;
                scalar.update(taken);
                // via step_lane
                let mut plane = CounterPlane::new(70, TwoBitCounter::try_from(state).unwrap());
                assert_eq!(plane.step_lane(67, taken), expect_correct);
                assert_eq!(plane.state(67), scalar);
                // via the branchless step_lane_bit
                let mut plane = CounterPlane::new(70, TwoBitCounter::try_from(state).unwrap());
                assert_eq!(plane.step_lane_bit(67, taken as u64), expect_correct as u64);
                assert_eq!(plane.state(67), scalar);
                assert_eq!(plane.state(66).state(), state, "neighbor untouched");
                // via step_word, single-lane mask
                let mut plane = CounterPlane::new(64, TwoBitCounter::try_from(state).unwrap());
                let dirs = if taken { 1u64 << 13 } else { 0 };
                let got = plane.step_word(0, dirs, 1 << 13);
                assert_eq!(got != 0, expect_correct);
                assert_eq!(plane.state(13), scalar);
                // lanes outside the mask are untouched
                assert_eq!(plane.state(12).state(), state);
                // via step_lane_run, length 1
                let mut plane = CounterPlane::new(2, TwoBitCounter::try_from(state).unwrap());
                assert_eq!(
                    plane.step_lane_run(1, taken as u64, 1),
                    expect_correct as u32
                );
                assert_eq!(plane.state(1), scalar);
            }
        }
    }

    #[test]
    fn step_word_updates_64_lanes_like_64_counters() {
        let mut plane = CounterPlane::new(64, TwoBitCounter::default());
        let mut scalars = [TwoBitCounter::default(); 64];
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let dirs = x;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mask = x | 1;
            let mut expect = 0u64;
            for (i, c) in scalars.iter_mut().enumerate() {
                if mask >> i & 1 == 1 {
                    let taken = dirs >> i & 1 == 1;
                    if c.predict() == taken {
                        expect |= 1 << i;
                    }
                    c.update(taken);
                }
            }
            assert_eq!(plane.step_word(0, dirs, mask), expect);
            for (i, c) in scalars.iter().enumerate() {
                assert_eq!(plane.state(i), *c, "lane {i}");
            }
        }
    }

    #[test]
    fn step_lane_run_matches_single_steps() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 1 + (x >> 58) as u32 % 64;
            let bits = if len < 64 { x & ((1 << len) - 1) } else { x };
            for init in 0..4u8 {
                let init = TwoBitCounter::try_from(init).unwrap();
                let mut fast = CounterPlane::new(130, init);
                let mut slow = CounterPlane::new(130, init);
                let idx = (x >> 32) as usize % 130;
                let got = fast.step_lane_run(idx, bits, len);
                let mut expect = 0u32;
                for i in 0..len {
                    expect += slow.step_lane(idx, bits >> i & 1 == 1) as u32;
                }
                assert_eq!(got, expect);
                assert_eq!(fast.state(idx), slow.state(idx));
            }
        }
    }

    /// Drives a lane and the scalar `PredictorSim` of `kind` over the same
    /// pseudo-random stream and asserts identical per-site counts.
    fn assert_lane_matches_scalar(kind: PredictorKind, num_sites: usize, events: usize) {
        let mut trace = RecordedTrace::new(num_sites);
        let mut sim = PredictorSim::new(num_sites, kind.build());
        let mut x = 0xdead_beef_cafe_f00du64 ^ events as u64;
        let mut site = 0u32;
        let mut streak = 0u64;
        for _ in 0..events {
            if streak == 0 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                site = (x % num_sites as u64) as u32;
                // mix of single events and streaks crossing 64 and 2048
                streak = 1 + (x >> 32) % [1u64, 3, 70, 2100][(x >> 60) as usize % 4];
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = x & 3 != 0;
            trace.push(SiteId(site), taken);
            sim.branch(SiteId(site), taken);
            streak -= 1;
        }
        let mut lane = lane_for(kind).expect("eligible kind");
        assert_eq!(lane.predictor_name(), kind.build().name(), "{kind}");
        let mut correct = vec![0u64; num_sites];
        // feed in small segments to exercise segment-boundary state carry
        let runs: Vec<SiteRun> = trace.site_runs().collect();
        for seg in runs.chunks(7) {
            lane.run_segment(seg, &mut correct);
        }
        let profile = sim.into_profile();
        for (s, &c) in correct.iter().enumerate() {
            assert_eq!(c, profile.correct(SiteId(s as u32)), "{kind} site {s}");
        }
    }

    #[test]
    fn every_eligible_lane_matches_its_scalar_predictor() {
        for kind in PredictorKind::SURVEY {
            if eligible(kind) {
                assert_lane_matches_scalar(kind, 13, 30_000);
            } else {
                assert!(lane_for(kind).is_none(), "{kind} must not build a lane");
            }
        }
    }

    #[test]
    fn eligibility_partitions_the_survey() {
        let eligible_count = PredictorKind::SURVEY
            .iter()
            .filter(|k| eligible(**k))
            .count();
        assert_eq!(eligible_count, 10, "10 table kinds get lanes");
        for kind in [
            PredictorKind::Perceptron16Kb,
            PredictorKind::Tage8Kb,
            PredictorKind::GshareLoop4Kb,
        ] {
            assert!(!eligible(kind));
        }
    }

    #[test]
    fn plane_memory_is_a_quarter_of_bytes() {
        let plane = CounterPlane::new(1 << 14, TwoBitCounter::default());
        assert_eq!(plane.entries(), 1 << 14);
        assert_eq!(plane.memory_bytes(), (1 << 14) / 4);
    }
}
