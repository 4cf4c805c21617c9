//! Absolute oracle for the saturating two-bit counter, written as literal
//! values from the textbook definition rather than derived from the
//! crate's transition table.
//!
//! A two-bit counter counts up on a taken branch and down on a not-taken
//! one, saturating at 0 (strongly not taken) and 3 (strongly taken), and
//! predicts taken in states 2 and 3. The scalar [`TwoBitCounter`] and the
//! fused survey kernel share one transition table, so comparing them with
//! each other would compare the table with itself; the counter is checked
//! against this list instead.

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
fn an_eight_event_run_walks_the_textbook_path() {
    // T T T T N N N N from strongly not taken: 0→1→2→3→3→2→1→0→0, with
    // predictions N N T T T T N N, so correct on events 3, 4, 7 and 8
    let mut c = TwoBitCounter::strongly_not_taken();
    let mut correct = 0;
    let states: Vec<u8> = [true, true, true, true, false, false, false, false]
        .into_iter()
        .map(|taken| {
            correct += (c.predict() == taken) as u32;
            c.update(taken);
            c.state()
        })
        .collect();
    assert_eq!(states, [1, 2, 3, 3, 2, 1, 0, 0]);
    assert_eq!(correct, 4);
}
