//! Predictor simulation over a branch stream, with per-static-branch
//! accuracy accounting.
//!
//! The paper's ground-truth methodology runs each input set through the
//! target predictor and records each static branch's prediction accuracy;
//! [`PredictorSim`] is that measurement loop, and [`AccuracyProfile`] is its
//! result.

use crate::{site_pc, BranchPredictor};
use btrace::serial::{
    invalid, read_len, read_string, read_varint, with_declared_capacity, write_string, write_varint,
};
use btrace::{SiteId, Tracer};
use std::io::{self, Read, Write};

/// Per-static-branch prediction-accuracy results of one profiling run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccuracyProfile {
    exec: Vec<u64>,
    correct: Vec<u64>,
    predictor_name: String,
}

impl AccuracyProfile {
    fn new(num_sites: usize, predictor_name: String) -> Self {
        Self {
            exec: vec![0; num_sites],
            correct: vec![0; num_sites],
            predictor_name,
        }
    }

    /// Assembles a profile from raw per-site counters — the constructor
    /// behind the engine's run-driven lane group, which accumulates
    /// executions and correct predictions in batches rather than through a
    /// per-event [`PredictorSim`].
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ or any site's correct count
    /// exceeds its execution count.
    pub fn from_parts(exec: Vec<u64>, correct: Vec<u64>, predictor_name: String) -> Self {
        assert_eq!(exec.len(), correct.len(), "per-site columns must align");
        for (site, (&e, &c)) in exec.iter().zip(&correct).enumerate() {
            assert!(c <= e, "site {site}: correct {c} exceeds executions {e}");
        }
        Self {
            exec,
            correct,
            predictor_name,
        }
    }

    /// Number of static branch sites tracked.
    pub fn num_sites(&self) -> usize {
        self.exec.len()
    }

    /// Name of the predictor that produced this profile.
    pub fn predictor_name(&self) -> &str {
        &self.predictor_name
    }

    /// Dynamic executions of `site`.
    pub fn executions(&self, site: SiteId) -> u64 {
        self.exec[site.index()]
    }

    /// Correct predictions for `site`.
    pub fn correct(&self, site: SiteId) -> u64 {
        self.correct[site.index()]
    }

    /// Prediction accuracy of `site` in `[0, 1]`, or `None` if the branch
    /// never executed.
    pub fn accuracy(&self, site: SiteId) -> Option<f64> {
        let e = self.exec[site.index()];
        (e > 0).then(|| self.correct[site.index()] as f64 / e as f64)
    }

    /// Misprediction rate of `site` in `[0, 1]`, or `None` if it never
    /// executed.
    pub fn misprediction_rate(&self, site: SiteId) -> Option<f64> {
        self.accuracy(site).map(|a| 1.0 - a)
    }

    /// Total dynamic branch events in the run.
    pub fn total_executions(&self) -> u64 {
        self.exec.iter().sum()
    }

    /// Overall (dynamic) prediction accuracy of the run, or `None` for an
    /// empty run.
    pub fn overall_accuracy(&self) -> Option<f64> {
        let total = self.total_executions();
        (total > 0).then(|| self.correct.iter().sum::<u64>() as f64 / total as f64)
    }

    /// Overall misprediction rate of the run, or `None` for an empty run.
    pub fn overall_misprediction_rate(&self) -> Option<f64> {
        self.overall_accuracy().map(|a| 1.0 - a)
    }

    /// Iterates over `(site, executions, accuracy)` for every site that
    /// executed at least once.
    pub fn iter_executed(&self) -> impl Iterator<Item = (SiteId, u64, f64)> + '_ {
        self.exec
            .iter()
            .enumerate()
            .filter(|&(_i, &e)| e > 0)
            .map(|(i, &e)| (SiteId(i as u32), e, self.correct[i] as f64 / e as f64))
    }

    /// Writes the profile in a compact varint format (the payload the sweep
    /// engine's result cache stores).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_string(w, &self.predictor_name)?;
        write_varint(w, self.exec.len() as u64)?;
        for i in 0..self.exec.len() {
            write_varint(w, self.exec[i])?;
            write_varint(w, self.correct[i])?;
        }
        Ok(())
    }

    /// Reads a profile written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed input (non-UTF-8 predictor name,
    /// correct count exceeding executions) and propagates I/O errors.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let predictor_name = read_string(r, 1 << 16)?;
        let num_sites = read_len(r, 1 << 28, "site count")?;
        let mut exec = with_declared_capacity(num_sites);
        let mut correct = with_declared_capacity(num_sites);
        for _ in 0..num_sites {
            let e = read_varint(r)?;
            let c = read_varint(r)?;
            if c > e {
                return Err(invalid("correct count exceeds executions"));
            }
            exec.push(e);
            correct.push(c);
        }
        Ok(Self {
            exec,
            correct,
            predictor_name,
        })
    }
}

/// A [`Tracer`] that feeds the branch stream through a predictor and tracks
/// per-branch accuracy.
///
/// ```
/// use bpred::{Gshare, PredictorSim};
/// use btrace::{SiteId, Tracer};
///
/// let mut sim = PredictorSim::new(1, Gshare::new_4kb());
/// for _ in 0..1000 {
///     sim.branch(SiteId(0), true);
/// }
/// let profile = sim.into_profile();
/// assert!(profile.accuracy(SiteId(0)).unwrap() > 0.99);
/// ```
#[derive(Clone, Debug)]
pub struct PredictorSim<P> {
    predictor: P,
    profile: AccuracyProfile,
}

impl<P: BranchPredictor> PredictorSim<P> {
    /// Creates a simulation over `num_sites` static branches using
    /// `predictor` (consumed; reset it first if it has prior state).
    pub fn new(num_sites: usize, predictor: P) -> Self {
        let name = predictor.name();
        Self {
            predictor,
            profile: AccuracyProfile::new(num_sites, name),
        }
    }

    /// Borrows the accuracy results accumulated so far.
    pub fn profile(&self) -> &AccuracyProfile {
        &self.profile
    }

    /// Borrows the underlying predictor.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// Consumes the simulation, returning the accuracy profile.
    pub fn into_profile(self) -> AccuracyProfile {
        self.profile
    }

    /// Consumes the simulation, returning `(predictor, profile)`.
    pub fn into_parts(self) -> (P, AccuracyProfile) {
        (self.predictor, self.profile)
    }
}

impl<P: BranchPredictor> Tracer for PredictorSim<P> {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        let pred = self.predictor.predict_and_train(site_pc(site), taken);
        let i = site.index();
        self.profile.exec[i] += 1;
        self.profile.correct[i] += (pred == taken) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gshare, StaticTaken};

    #[test]
    fn static_taken_accuracy_equals_taken_rate() {
        let mut sim = PredictorSim::new(1, StaticTaken);
        for i in 0..100u32 {
            sim.branch(SiteId(0), i % 4 != 0); // 75% taken
        }
        let p = sim.into_profile();
        assert_eq!(p.executions(SiteId(0)), 100);
        assert!((p.accuracy(SiteId(0)).unwrap() - 0.75).abs() < 1e-12);
        assert!((p.overall_misprediction_rate().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unexecuted_sites_report_none() {
        let sim = PredictorSim::new(3, Gshare::new(8, 8));
        let p = sim.into_profile();
        assert_eq!(p.accuracy(SiteId(1)), None);
        assert_eq!(p.overall_accuracy(), None);
        assert_eq!(p.iter_executed().count(), 0);
    }

    #[test]
    fn per_site_accounting_is_independent() {
        let mut sim = PredictorSim::new(2, StaticTaken);
        for _ in 0..10 {
            sim.branch(SiteId(0), true);
            sim.branch(SiteId(1), false);
        }
        let p = sim.profile();
        assert_eq!(p.accuracy(SiteId(0)), Some(1.0));
        assert_eq!(p.accuracy(SiteId(1)), Some(0.0));
        assert_eq!(p.overall_accuracy(), Some(0.5));
        assert_eq!(p.total_executions(), 20);
    }

    #[test]
    fn gshare_learns_bias_through_sim() {
        let mut sim = PredictorSim::new(1, Gshare::new_4kb());
        for _ in 0..10_000 {
            sim.branch(SiteId(0), true);
        }
        assert!(sim.profile().accuracy(SiteId(0)).unwrap() > 0.999);
        let (mut pred, profile) = sim.into_parts();
        assert_eq!(profile.predictor_name(), "gshare-4KB");
        pred.reset();
    }

    #[test]
    fn profile_serialization_roundtrips() {
        let mut sim = PredictorSim::new(5, Gshare::new(8, 8));
        for i in 0..4_000u64 {
            sim.branch(SiteId((i % 3) as u32), i % 7 < 4);
        }
        let profile = sim.into_profile();
        let mut buf = Vec::new();
        profile.write_to(&mut buf).unwrap();
        let back = AccuracyProfile::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn profile_deserialization_rejects_corruption() {
        let mut sim = PredictorSim::new(2, StaticTaken);
        sim.branch(SiteId(0), true);
        let mut buf = Vec::new();
        sim.into_profile().write_to(&mut buf).unwrap();
        // truncation
        let short = &buf[..buf.len() - 1];
        assert!(AccuracyProfile::read_from(&mut &*short).is_err());
        // correct > exec: site 0 has exec=1/correct=1; bump correct varint
        let mut bad = buf.clone();
        let correct_pos = bad.len() - 3;
        bad[correct_pos] = 9;
        assert!(AccuracyProfile::read_from(&mut bad.as_slice()).is_err());
    }

    #[test]
    fn iter_executed_skips_dead_sites() {
        let mut sim = PredictorSim::new(4, StaticTaken);
        sim.branch(SiteId(2), true);
        let p = sim.into_profile();
        let v: Vec<_> = p.iter_executed().collect();
        assert_eq!(v, vec![(SiteId(2), 1, 1.0)]);
    }
}
