//! `workloads` — a from-scratch benchmark suite standing in for the SPEC
//! CPU2000 integer benchmarks used by the paper.
//!
//! The paper instruments the twelve SPEC INT 2000 programs with Pin and
//! profiles their conditional branches across multiple input sets. SPEC
//! binaries and inputs are proprietary, so this crate reimplements each
//! benchmark's *algorithmic domain* as a real (not stubbed) Rust program
//! whose interesting conditional branches are instrumented through
//! [`btrace::Tracer`]:
//!
//! | here | SPEC analogue | domain |
//! |------|---------------|--------|
//! | [`bzip2w`] | bzip2 | block compression (RLE + BWT + MTF + entropy model) |
//! | [`gzipw`]  | gzip  | LZ77 with hash chains and level-indexed `config_table` (the paper's Figure 7 loop) |
//! | [`twolfw`] | twolf | simulated-annealing standard-cell placement |
//! | [`gapw`]   | gap   | dynamically-typed math interpreter with small/big integers (the paper's Figure 6 type-check) |
//! | [`craftyw`]| crafty| chess move generation + alpha-beta search |
//! | [`parserw`]| parser| dictionary-based natural-language parser |
//! | [`mcfw`]   | mcf   | min-cost network flow (SPFA-based) |
//! | [`gccw`]   | gcc   | toy C-subset compiler (lex, parse, fold, codegen) |
//! | [`vprw`]   | vpr   | FPGA maze routing on a grid |
//! | [`vortexw`]| vortex| object-oriented in-memory database |
//! | [`perlw`]  | perlbmk | text/pattern-matching interpreter (diffmail-like) |
//! | [`eonw`]   | eon   | small ray tracer |
//!
//! Every workload is deterministic given an [`InputSet`] (seeded generators,
//! no wall-clock or platform dependence) and exposes several input sets —
//! `train`, `ref`, and `ext-1`…`ext-N` mirroring the paper's Table 2/Table 4
//! methodology.
//!
//! ```
//! use btrace::EdgeProfiler;
//! use workloads::{suite, Scale};
//!
//! for workload in suite(Scale::Tiny) {
//!     let input = workload.input_set("train").expect("every workload has train");
//!     let mut edges = EdgeProfiler::new(workload.sites().len());
//!     workload.run(&input, &mut edges);
//!     let executed: u64 = edges.iter().map(|(_, e)| e.total()).sum();
//!     assert!(executed > 0, "{}", workload.name());
//! }
//! ```

#[macro_use]
mod macros;

mod datagen;
mod rng;

pub mod bzip2w;
pub mod craftyw;
pub mod eonw;
pub mod gapw;
pub mod gccw;
pub mod gzipw;
pub mod huffman;
pub mod mcfw;
pub mod parserw;
pub mod perlw;
pub mod twolfw;
pub mod vortexw;
pub mod vprw;

pub use datagen::{entropy_bits_per_byte, generate as generate_data, DataKind};
pub use rng::Xoshiro256;

use btrace::{SiteDecl, Tracer};

/// One named input data set for a workload.
///
/// The four numeric knobs are interpreted by each workload (e.g. for the
/// gzip analogue, `size` is the input length in bytes, `level` the
/// compression level, `variant` the data flavour). Two input sets with equal
/// fields produce bit-identical branch streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputSet {
    /// Input-set name: `"train"`, `"ref"`, or `"ext-1"`…`"ext-6"`.
    pub name: &'static str,
    /// Human-readable description (mirrors the paper's Table 2/4 notes).
    pub description: &'static str,
    /// Seed for the input generator.
    pub seed: u64,
    /// Main work amount (bytes, operations, nodes — workload-specific).
    pub size: u64,
    /// Workload-specific level/parameter (compression level, search depth …).
    pub level: i64,
    /// Selects the generator flavour / data mix.
    pub variant: u32,
}

/// Global scaling of workload run lengths.
///
/// The paper's runs are 10⁹–10¹¹ branches; ours default to a few million
/// ([`Scale::Full`]) so the whole evaluation runs in minutes. `Tiny` is for
/// unit tests, `Small` for quick experiment iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~2% of full size: unit-test scale.
    Tiny,
    /// ~25% of full size.
    Small,
    /// Full evaluation scale.
    Full,
}

impl Scale {
    /// Multiplier applied to each input set's `size`.
    pub fn factor(self) -> f64 {
        match self {
            Scale::Tiny => 0.02,
            Scale::Small => 0.25,
            Scale::Full => 1.0,
        }
    }

    /// Applies the scale to a full-size work amount, with a floor so tiny
    /// runs still exercise every code path.
    pub fn apply(self, full_size: u64) -> u64 {
        ((full_size as f64 * self.factor()) as u64).max(16)
    }
}

/// A benchmark program with instrumented conditional branches.
///
/// `Send + Sync` are supertraits so boxed workloads can be shared with the
/// sweep engine's worker threads; workloads are immutable descriptions
/// (all run state lives on the `run` stack), so every implementation
/// satisfies them automatically.
pub trait Workload: Send + Sync {
    /// Workload name (the SPEC analogue's name, e.g. `"gzip"`).
    fn name(&self) -> &'static str;

    /// One-line description of the program.
    fn description(&self) -> &'static str;

    /// The static branch-site table. Site `i` in this table is traced as
    /// `SiteId(i)`.
    fn sites(&self) -> &'static [SiteDecl];

    /// The workload's input sets. The first two are always `train` and
    /// `ref`; extras are named `ext-1`…`ext-N`.
    fn input_sets(&self) -> Vec<InputSet>;

    /// Runs the program on `input`, reporting every instrumented conditional
    /// branch to `tracer`.
    fn run(&self, input: &InputSet, tracer: &mut dyn Tracer);

    /// Modeled average dynamic instructions per conditional branch, used to
    /// report Table-2-style instruction counts. SPEC INT programs average
    /// roughly 5–8 instructions per conditional branch.
    fn instructions_per_branch(&self) -> f64 {
        7.0
    }

    /// Looks up an input set by name.
    fn input_set(&self, name: &str) -> Option<InputSet> {
        self.input_sets().into_iter().find(|i| i.name == name)
    }
}

/// The full 12-workload suite at the given scale, in the paper's Figure 3
/// order (sorted by dynamic fraction of input-dependent branches).
pub fn suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(bzip2w::Bzip2Workload::new(scale)),
        Box::new(gzipw::GzipWorkload::new(scale)),
        Box::new(twolfw::TwolfWorkload::new(scale)),
        Box::new(gapw::GapWorkload::new(scale)),
        Box::new(craftyw::CraftyWorkload::new(scale)),
        Box::new(parserw::ParserWorkload::new(scale)),
        Box::new(mcfw::McfWorkload::new(scale)),
        Box::new(gccw::GccWorkload::new(scale)),
        Box::new(vprw::VprWorkload::new(scale)),
        Box::new(vortexw::VortexWorkload::new(scale)),
        Box::new(perlw::PerlWorkload::new(scale)),
        Box::new(eonw::EonWorkload::new(scale)),
    ]
}

/// Looks up one workload of the suite by name.
pub fn by_name(name: &str, scale: Scale) -> Option<Box<dyn Workload>> {
    suite(scale).into_iter().find(|w| w.name() == name)
}

/// The six benchmarks the paper studies with extra input sets (§4.2): those
/// where more than 10% of static branches are input-dependent.
pub const EXTENDED_BENCHMARKS: &[&str] = &["bzip2", "gzip", "twolf", "gap", "crafty", "gcc"];

#[cfg(test)]
mod tests {
    use super::*;
    use btrace::{validate_sites, CountingTracer, EdgeProfiler, RecordedTrace};

    #[test]
    fn suite_has_twelve_distinct_workloads() {
        let s = suite(Scale::Tiny);
        assert_eq!(s.len(), 12);
        let mut names: Vec<_> = s.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn every_workload_has_train_and_ref_and_valid_sites() {
        for w in suite(Scale::Tiny) {
            let inputs = w.input_sets();
            assert!(inputs.len() >= 2, "{} needs >= 2 input sets", w.name());
            assert_eq!(inputs[0].name, "train", "{}", w.name());
            assert_eq!(inputs[1].name, "ref", "{}", w.name());
            validate_sites(w.name(), w.sites());
            assert!(!w.sites().is_empty(), "{}", w.name());
            assert!(w.instructions_per_branch() > 1.0);
        }
    }

    #[test]
    fn extended_benchmarks_have_six_extra_inputs_where_required() {
        // Paper Table 4: bzip2 has 4 extras, gzip 6, twolf 4, gap 4,
        // crafty 6, gcc 6 — we require at least 4 extras for each.
        for name in EXTENDED_BENCHMARKS {
            let w = by_name(name, Scale::Tiny).unwrap();
            let extras = w
                .input_sets()
                .iter()
                .filter(|i| i.name.starts_with("ext-"))
                .count();
            assert!(extras >= 4, "{name} has only {extras} extra inputs");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        for w in suite(Scale::Tiny) {
            let input = w.input_set("train").unwrap();
            let mut a = RecordedTrace::new(w.sites().len());
            w.run(&input, &mut a);
            let mut b = RecordedTrace::new(w.sites().len());
            w.run(&input, &mut b);
            assert_eq!(a, b, "{} must be deterministic on {}", w.name(), input.name);
            assert!(
                a.events() > 1_000,
                "{} tiny train run should still produce branches, got {}",
                w.name(),
                a.events()
            );
        }
    }

    #[test]
    fn input_sets_differ_from_each_other() {
        // Small rather than Tiny scale: Tiny's work floor compresses the
        // train/ref size gap for workloads with small unit counts (plies,
        // instances), hiding the ordering this test checks.
        for w in suite(Scale::Small) {
            let train = w.input_set("train").unwrap();
            let r = w.input_set("ref").unwrap();
            let mut a = CountingTracer::new();
            w.run(&train, &mut a);
            let mut b = CountingTracer::new();
            w.run(&r, &mut b);
            // ref runs are larger than train runs, as in SPEC
            assert!(
                b.count() > a.count(),
                "{}: ref ({}) should out-run train ({})",
                w.name(),
                b.count(),
                a.count()
            );
        }
    }

    #[test]
    fn all_declared_sites_execute_on_some_input() {
        // Every declared static branch should be reachable on at least one
        // of train/ref — dead sites indicate instrumentation bugs.
        for w in suite(Scale::Tiny) {
            let mut edges = EdgeProfiler::new(w.sites().len());
            for name in ["train", "ref"] {
                w.run(&w.input_set(name).unwrap(), &mut edges);
            }
            let dead: Vec<_> = edges
                .iter()
                .filter(|(_, e)| e.total() == 0)
                .map(|(site, _)| w.sites()[site.index()].name)
                .collect();
            assert!(dead.is_empty(), "{}: dead sites {:?}", w.name(), dead);
        }
    }

    #[test]
    fn scale_ordering() {
        assert!(Scale::Tiny.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Full.factor());
        assert_eq!(Scale::Full.apply(1000), 1000);
        assert_eq!(Scale::Tiny.apply(10), 16, "floor applies");
    }

    #[test]
    fn unknown_lookup_returns_none() {
        assert!(by_name("nonexistent", Scale::Tiny).is_none());
        let w = by_name("gzip", Scale::Tiny).unwrap();
        assert!(w.input_set("no-such-input").is_none());
    }

    #[test]
    fn tracer_sees_sites_within_declared_range() {
        for w in suite(Scale::Tiny) {
            struct RangeCheck {
                max: u32,
                ok: bool,
            }
            impl Tracer for RangeCheck {
                fn branch(&mut self, site: btrace::SiteId, _taken: bool) {
                    if site.0 >= self.max {
                        self.ok = false;
                    }
                }
            }
            let mut rc = RangeCheck {
                max: w.sites().len() as u32,
                ok: true,
            };
            let input = w.input_set("ref").unwrap();
            w.run(&input, &mut rc);
            assert!(rc.ok, "{} traced an out-of-range site", w.name());
        }
    }
}
