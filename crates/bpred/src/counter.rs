//! Saturating two-bit counters, the building block of table-based predictors.

/// Saturating-counter transition table indexed by `state << 1 | direction`:
/// the next state of a two-bit counter in `state` that resolves toward
/// `direction`. The one definition of the two-bit saturating step — the
/// scalar [`TwoBitCounter::update`], the fused survey kernel
/// [`SurveyFused`](crate::bitslice::SurveyFused) and TAGE's usefulness
/// counters all look it up — so the direction bit is data, never a branch.
pub(crate) const NEXT: [u8; 8] = [0, 1, 0, 2, 1, 3, 2, 3];

/// A saturating 2-bit up/down counter with the conventional four states
/// `00` strongly not-taken … `11` strongly taken.
///
/// ```
/// use bpred::TwoBitCounter;
/// let mut c = TwoBitCounter::weakly_not_taken();
/// assert!(!c.predict());
/// c.update(true);
/// assert!(c.predict()); // now weakly taken
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TwoBitCounter(u8);

impl TwoBitCounter {
    /// Strongly not-taken (state 0).
    pub const fn strongly_not_taken() -> Self {
        Self(0)
    }

    /// Weakly not-taken (state 1).
    pub const fn weakly_not_taken() -> Self {
        Self(1)
    }

    /// Weakly taken (state 2). The conventional initialization for gshare
    /// pattern-history tables.
    pub const fn weakly_taken() -> Self {
        Self(2)
    }

    /// Strongly taken (state 3).
    pub const fn strongly_taken() -> Self {
        Self(3)
    }

    /// The counter's raw state in `0..=3`.
    pub const fn state(self) -> u8 {
        self.0
    }

    /// Direction predicted by the counter: taken iff the counter is in one of
    /// the two taken states.
    #[inline]
    pub const fn predict(self) -> bool {
        self.0 >= 2
    }

    /// Saturating update toward the resolved direction: one lookup in
    /// [`NEXT`], with no branch on `taken` (the mask keeps the index in
    /// bounds without a check; states never exceed 3).
    #[inline]
    pub fn update(&mut self, taken: bool) {
        self.0 = NEXT[((self.0 as usize) << 1 | taken as usize) & 7];
    }
}

impl Default for TwoBitCounter {
    /// Defaults to weakly taken, the standard PHT initialization.
    fn default() -> Self {
        Self::weakly_taken()
    }
}

impl TryFrom<u8> for TwoBitCounter {
    type Error = InvalidCounterState;

    fn try_from(raw: u8) -> Result<Self, InvalidCounterState> {
        if raw <= 3 {
            Ok(Self(raw))
        } else {
            Err(InvalidCounterState(raw))
        }
    }
}

/// Error returned when constructing a [`TwoBitCounter`] from a raw state
/// outside `0..=3`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidCounterState(pub u8);

impl std::fmt::Display for InvalidCounterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid 2-bit counter state {}", self.0)
    }
}

impl std::error::Error for InvalidCounterState {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_at_both_ends() {
        let mut c = TwoBitCounter::strongly_taken();
        c.update(true);
        assert_eq!(c.state(), 3);
        let mut c = TwoBitCounter::strongly_not_taken();
        c.update(false);
        assert_eq!(c.state(), 0);
    }

    #[test]
    fn hysteresis_one_flip_does_not_change_strong_prediction() {
        let mut c = TwoBitCounter::strongly_taken();
        c.update(false);
        assert!(c.predict(), "one not-taken shouldn't flip a strong counter");
        c.update(false);
        assert!(!c.predict(), "two consecutive should");
    }

    #[test]
    fn predicts_by_msb() {
        assert!(!TwoBitCounter::strongly_not_taken().predict());
        assert!(!TwoBitCounter::weakly_not_taken().predict());
        assert!(TwoBitCounter::weakly_taken().predict());
        assert!(TwoBitCounter::strongly_taken().predict());
    }

    #[test]
    fn try_from_validates() {
        assert_eq!(
            TwoBitCounter::try_from(2),
            Ok(TwoBitCounter::weakly_taken())
        );
        assert_eq!(TwoBitCounter::try_from(4), Err(InvalidCounterState(4)));
        assert_eq!(
            InvalidCounterState(4).to_string(),
            "invalid 2-bit counter state 4"
        );
    }

    #[test]
    fn default_is_weakly_taken() {
        assert_eq!(TwoBitCounter::default(), TwoBitCounter::weakly_taken());
    }

    #[test]
    fn full_walk_up_and_down() {
        let mut c = TwoBitCounter::strongly_not_taken();
        let states_up: Vec<u8> = (0..4)
            .map(|_| {
                c.update(true);
                c.state()
            })
            .collect();
        assert_eq!(states_up, vec![1, 2, 3, 3]);
        let states_down: Vec<u8> = (0..4)
            .map(|_| {
                c.update(false);
                c.state()
            })
            .collect();
        assert_eq!(states_down, vec![2, 1, 0, 0]);
    }
}
