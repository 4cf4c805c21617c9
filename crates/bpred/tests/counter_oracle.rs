//! Absolute oracle for the saturating two-bit counter, written as literal
//! values from the textbook definition rather than derived from the
//! crate's transition table.
//!
//! A two-bit counter counts up on a taken branch and down on a not-taken
//! one, saturating at 0 (strongly not taken) and 3 (strongly taken), and
//! predicts taken in states 2 and 3. The scalar [`TwoBitCounter`] and the
//! bit-sliced [`CounterPlane`] share one transition table, so comparing
//! them with each other would compare the table with itself; both are
//! checked against this list instead.

use bpred::bitslice::CounterPlane;
use bpred::TwoBitCounter;

/// `(state, taken, next state)` for all eight transitions.
const TRANSITIONS: [(u8, bool, u8); 8] = [
    (0, false, 0),
    (0, true, 1),
    (1, false, 0),
    (1, true, 2),
    (2, false, 1),
    (2, true, 3),
    (3, false, 2),
    (3, true, 3),
];

/// `(state, predicted taken)` for all four states.
const PREDICTIONS: [(u8, bool); 4] = [(0, false), (1, false), (2, true), (3, true)];

#[test]
fn scalar_counter_follows_the_textbook_transitions() {
    for (state, taken, next) in TRANSITIONS {
        let mut c = TwoBitCounter::try_from(state).unwrap();
        c.update(taken);
        assert_eq!(c.state(), next, "state {state}, taken {taken}");
    }
}

#[test]
fn scalar_counter_predicts_taken_in_the_upper_two_states() {
    for (state, taken) in PREDICTIONS {
        assert_eq!(TwoBitCounter::try_from(state).unwrap().predict(), taken);
    }
}

#[test]
fn bit_sliced_counter_follows_the_textbook_transitions() {
    for (state, taken, next) in TRANSITIONS {
        let init = TwoBitCounter::try_from(state).unwrap();
        let predicted = PREDICTIONS[state as usize].1;
        // one lane in the middle of a word, through the per-lane step
        let mut plane = CounterPlane::new(130, init);
        assert_eq!(plane.step_lane(77, taken), predicted == taken);
        assert_eq!(
            plane.state(77).state(),
            next,
            "state {state}, taken {taken}"
        );
        assert_eq!(plane.state(76).state(), state, "neighbor untouched");
        // the same transition through the 8-events-per-lookup run fold
        let mut plane = CounterPlane::new(1, init);
        let correct = plane.step_lane_run(0, taken as u64, 1);
        assert_eq!(correct, (predicted == taken) as u32);
        assert_eq!(plane.state(0).state(), next, "state {state}, taken {taken}");
    }
}

#[test]
fn an_eight_event_run_walks_the_textbook_path() {
    // T T T T N N N N from strongly not taken: 0→1→2→3→3→2→1→0→0, with
    // predictions N N T T T T N N, so correct on events 3, 4, 7 and 8
    let mut plane = CounterPlane::new(1, TwoBitCounter::strongly_not_taken());
    let correct = plane.step_lane_run(0, 0b0000_1111, 8);
    assert_eq!(correct, 4);
    assert_eq!(plane.state(0).state(), 0);
    let mut c = TwoBitCounter::strongly_not_taken();
    let states: Vec<u8> = [true, true, true, true, false, false, false, false]
        .into_iter()
        .map(|taken| {
            c.update(taken);
            c.state()
        })
        .collect();
    assert_eq!(states, [1, 2, 3, 3, 2, 1, 0, 0]);
}
