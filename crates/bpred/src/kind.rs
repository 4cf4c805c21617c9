//! Named predictor configurations of the paper's evaluation.
//!
//! Lives in `bpred` (rather than the experiment harness) so the sweep
//! engine can name a predictor inside a job specification without depending
//! on the experiments crate.

use crate::{
    Bimodal, BranchPredictor, GAg, Gshare, GshareWithLoop, LocalTwoLevel, Perceptron,
    StaticNotTaken, StaticTaken, Tage, Tournament,
};
use btrace::serial::{invalid, read_string, write_string};
use std::io::{self, Read, Write};

/// The predictor configurations used by the paper's evaluation, plus the
/// extension targets of the predictor-comparison experiment and the
/// table-predictor survey tier used by branch-predictability
/// characterization sweeps (many cheap configurations simulated over one
/// recorded trace).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// 4 KB gshare, 14-bit history — the profiling/baseline predictor.
    Gshare4Kb,
    /// 16 KB perceptron, 457 entries, 36-bit history — the alternative
    /// target-machine predictor of §5.3.
    Perceptron16Kb,
    /// 4 KB gshare augmented with a loop predictor — extension target.
    GshareLoop4Kb,
    /// 8 KB TAGE — extension target, the strongest predictor in `bpred`.
    Tage8Kb,
    /// 1 KB gshare, 12-bit history — small survey point.
    Gshare1Kb,
    /// 1 KB bimodal (2^12 two-bit counters).
    Bimodal1Kb,
    /// 4 KB bimodal (2^14 two-bit counters).
    Bimodal4Kb,
    /// 1 KB GAg, 12-bit global history.
    GAg1Kb,
    /// 4 KB GAg, 14-bit global history.
    GAg4Kb,
    /// 4 KB local two-level (2^11 histories of 12 bits + 2^12 counters).
    Local4Kb,
    /// 4 KB tournament (gshare + bimodal + chooser).
    Tournament4Kb,
    /// Always-taken static baseline.
    StaticTaken,
    /// Always-not-taken static baseline.
    StaticNotTaken,
}

impl PredictorKind {
    /// The paper's two evaluation predictors, in paper order. The sweep
    /// grid and the golden suite iterate exactly these.
    pub const ALL: [PredictorKind; 2] = [PredictorKind::Gshare4Kb, PredictorKind::Perceptron16Kb];

    /// The paper's predictors plus the extension targets — what the
    /// predictor-comparison experiment iterates. Frozen at four kinds: the
    /// golden outputs of that experiment depend on this exact set.
    pub const EXTENDED: [PredictorKind; 4] = [
        PredictorKind::Gshare4Kb,
        PredictorKind::GshareLoop4Kb,
        PredictorKind::Perceptron16Kb,
        PredictorKind::Tage8Kb,
    ];

    /// Longest predictor id a decoder accepts.
    pub const MAX_ID_LEN: usize = 256;

    /// Every named configuration — [`EXTENDED`](Self::EXTENDED) plus the
    /// table-predictor survey tier. This is the namespace of
    /// [`from_id`](Self::from_id) (and therefore of the daemon's wire
    /// protocol) and the kind set a characterization sweep fans out over a
    /// recorded trace.
    pub const SURVEY: [PredictorKind; 13] = [
        PredictorKind::Gshare4Kb,
        PredictorKind::GshareLoop4Kb,
        PredictorKind::Perceptron16Kb,
        PredictorKind::Tage8Kb,
        PredictorKind::Gshare1Kb,
        PredictorKind::Bimodal1Kb,
        PredictorKind::Bimodal4Kb,
        PredictorKind::GAg1Kb,
        PredictorKind::GAg4Kb,
        PredictorKind::Local4Kb,
        PredictorKind::Tournament4Kb,
        PredictorKind::StaticTaken,
        PredictorKind::StaticNotTaken,
    ];

    /// Instantiates the predictor — the single factory for every layer
    /// (engine jobs, daemon sessions, experiment code).
    pub fn build(self) -> Box<dyn BranchPredictor> {
        self.host(BoxHost)
    }

    /// Builds the concrete (unboxed) predictor and hands it to `host`,
    /// monomorphizing the host's code per configuration. Hot loops that
    /// drive millions of branches — the engine's trace replay above all —
    /// use this instead of [`build`](Self::build) so the predictor's
    /// `branch` inlines into the loop rather than going through a virtual
    /// call per event. This is the only `match` that names the concrete
    /// types; `build` itself is a host that boxes.
    pub fn host<H: PredictorHost>(self, host: H) -> H::Out {
        match self {
            PredictorKind::Gshare4Kb => host.run(Gshare::new_4kb()),
            PredictorKind::Perceptron16Kb => host.run(Perceptron::new_16kb()),
            PredictorKind::GshareLoop4Kb => host.run(GshareWithLoop::new_4kb()),
            PredictorKind::Tage8Kb => host.run(Tage::new_8kb()),
            PredictorKind::Gshare1Kb => host.run(Gshare::new(12, 12)),
            PredictorKind::Bimodal1Kb => host.run(Bimodal::new(12)),
            PredictorKind::Bimodal4Kb => host.run(Bimodal::new(14)),
            PredictorKind::GAg1Kb => host.run(GAg::new(12)),
            PredictorKind::GAg4Kb => host.run(GAg::new(14)),
            PredictorKind::Local4Kb => host.run(LocalTwoLevel::new(11, 12)),
            PredictorKind::Tournament4Kb => host.run(Tournament::new_4kb()),
            PredictorKind::StaticTaken => host.run(StaticTaken),
            PredictorKind::StaticNotTaken => host.run(StaticNotTaken),
        }
    }

    /// Short label used in table headers.
    pub fn label(self) -> &'static str {
        match self {
            PredictorKind::Gshare4Kb => "4KB-gshare",
            PredictorKind::Perceptron16Kb => "16KB-percep",
            PredictorKind::GshareLoop4Kb => "4KB-gshare+loop",
            PredictorKind::Tage8Kb => "8KB-tage",
            PredictorKind::Gshare1Kb => "1KB-gshare",
            PredictorKind::Bimodal1Kb => "1KB-bimodal",
            PredictorKind::Bimodal4Kb => "4KB-bimodal",
            PredictorKind::GAg1Kb => "1KB-gag",
            PredictorKind::GAg4Kb => "4KB-gag",
            PredictorKind::Local4Kb => "4KB-local",
            PredictorKind::Tournament4Kb => "4KB-tourney",
            PredictorKind::StaticTaken => "static-T",
            PredictorKind::StaticNotTaken => "static-NT",
        }
    }

    /// Stable machine identifier, used in cache keys and file names. Must
    /// never change for an existing variant — add new variants instead.
    pub fn id(self) -> &'static str {
        match self {
            PredictorKind::Gshare4Kb => "gshare4kb",
            PredictorKind::Perceptron16Kb => "perceptron16kb",
            PredictorKind::GshareLoop4Kb => "gshareloop4kb",
            PredictorKind::Tage8Kb => "tage8kb",
            PredictorKind::Gshare1Kb => "gshare1kb",
            PredictorKind::Bimodal1Kb => "bimodal1kb",
            PredictorKind::Bimodal4Kb => "bimodal4kb",
            PredictorKind::GAg1Kb => "gag1kb",
            PredictorKind::GAg4Kb => "gag4kb",
            PredictorKind::Local4Kb => "local4kb",
            PredictorKind::Tournament4Kb => "tournament4kb",
            PredictorKind::StaticTaken => "statictaken",
            PredictorKind::StaticNotTaken => "staticnottaken",
        }
    }

    /// Parses an [`id`](Self::id) back into the kind.
    ///
    /// This is also the wire decoding used by the ingestion daemon: a
    /// `Hello` frame names its predictor by [`id`](Self::id), and the server
    /// reconstructs the kind (and [`build`](Self::build)s a fresh predictor)
    /// from that string. Every named configuration is accepted everywhere a
    /// kind is named, so the search spans [`SURVEY`](Self::SURVEY).
    pub fn from_id(id: &str) -> Option<Self> {
        Self::SURVEY.into_iter().find(|k| k.id() == id)
    }

    /// Writes the kind's wire form: its [`id`](Self::id) as a
    /// length-prefixed string — how every format names a predictor.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn write_id<W: Write>(self, w: &mut W) -> io::Result<()> {
        write_string(w, self.id())
    }

    /// Reads a kind written by [`write_id`](Self::write_id), rejecting an
    /// id longer than [`MAX_ID_LEN`](Self::MAX_ID_LEN) before allocating.
    ///
    /// # Errors
    ///
    /// `InvalidData` on an over-long or unknown id; `UnexpectedEof` on
    /// truncation.
    pub fn read_id<R: Read>(r: &mut R) -> io::Result<Self> {
        let id = read_string(r, Self::MAX_ID_LEN)?;
        Self::from_id(&id).ok_or_else(|| invalid(format!("unknown predictor id {id:?}")))
    }

    /// All valid [`id`](Self::id) strings, for CLI/protocol error messages.
    pub fn ids() -> impl Iterator<Item = &'static str> {
        Self::SURVEY.into_iter().map(Self::id)
    }
}

/// A computation generic over the concrete predictor type, dispatched by
/// [`PredictorKind::host`]. The `run` body is compiled once per named
/// configuration, so predictor calls inside it are static and inlinable.
pub trait PredictorHost {
    /// The host computation's result type.
    type Out;

    /// Runs the computation with a freshly built predictor.
    fn run<P: BranchPredictor + 'static>(self, predictor: P) -> Self::Out;
}

/// The trivial host behind [`PredictorKind::build`]: boxes the predictor.
struct BoxHost;

impl PredictorHost for BoxHost {
    type Out = Box<dyn BranchPredictor>;

    fn run<P: BranchPredictor + 'static>(self, predictor: P) -> Self::Out {
        Box::new(predictor)
    }
}

impl std::fmt::Display for PredictorKind {
    /// Displays as the stable [`id`](Self::id), so formatted output can be
    /// parsed back with [`from_id`](Self::from_id).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_and_are_distinct() {
        for kind in PredictorKind::SURVEY {
            assert_eq!(PredictorKind::from_id(kind.id()), Some(kind));
        }
        let mut ids: Vec<_> = PredictorKind::SURVEY.iter().map(|k| k.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), PredictorKind::SURVEY.len());
        assert_eq!(PredictorKind::from_id("nonexistent"), None);
    }

    #[test]
    fn kind_sets_nest() {
        for kind in PredictorKind::ALL {
            assert!(PredictorKind::EXTENDED.contains(&kind));
        }
        for kind in PredictorKind::EXTENDED {
            assert!(PredictorKind::SURVEY.contains(&kind));
        }
        assert_eq!(PredictorKind::ALL.len(), 2);
        assert_eq!(PredictorKind::EXTENDED.len(), 4);
    }

    #[test]
    fn display_roundtrips_through_from_id() {
        for kind in PredictorKind::SURVEY {
            assert_eq!(PredictorKind::from_id(&kind.to_string()), Some(kind));
        }
        assert_eq!(PredictorKind::ids().count(), PredictorKind::SURVEY.len());
    }

    #[test]
    fn builds_every_named_config() {
        assert_eq!(PredictorKind::Gshare4Kb.build().name(), "gshare-4KB");
        assert_eq!(
            PredictorKind::Perceptron16Kb.build().name(),
            "perceptron-16KB"
        );
        for kind in PredictorKind::SURVEY {
            assert!(!kind.build().name().is_empty());
        }
    }

    #[test]
    fn survey_storage_budgets_match_their_names() {
        let kb = |kind: PredictorKind| kind.build().storage_bits() as f64 / (1024.0 * 8.0);
        assert_eq!(kb(PredictorKind::Gshare1Kb), 1.0);
        assert_eq!(kb(PredictorKind::Bimodal1Kb), 1.0);
        assert_eq!(kb(PredictorKind::Bimodal4Kb), 4.0);
        assert_eq!(kb(PredictorKind::GAg1Kb), 1.0);
        assert_eq!(kb(PredictorKind::GAg4Kb), 4.0);
        assert_eq!(kb(PredictorKind::Local4Kb), 4.0);
        assert_eq!(kb(PredictorKind::StaticTaken), 0.0);
        // tournament inherits `Tournament::new_4kb`'s historical naming,
        // which counts component tables generously; just pin its budget
        let t = kb(PredictorKind::Tournament4Kb);
        assert_eq!(t, 2.0, "tournament budget moved: {t}KB");
    }
}
