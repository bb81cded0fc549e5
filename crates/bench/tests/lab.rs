//! The N-chooser regret board, pinned against the two-slot `ChooserTally`
//! it replaced: the numbers below are that tally's output on this table
//! (run twice, as choosers (a, b) and (a, c), the way the figures fed it).

use robustmap_bench::lab::RegretBoard;

/// Measured seconds of a three-plan catalog per cell, and the plans the
/// choosers a, b, c picked there.
const TABLE: [([f64; 3], [usize; 3]); 5] = [
    ([2.0, 1.0, 4.0], [0, 1, 2]),
    ([3.0, 3.0, 6.0], [1, 0, 2]), // plans 0 and 1 tie
    ([5.0, 10.0, 2.5], [2, 1, 0]),
    ([1.0, 1.0005, 8.0], [1, 0, 1]), // within 0.1% of the best: not wrong
    ([7.0, 0.7, 0.7], [0, 2, 1]),    // plans 1 and 2 tie
];

#[test]
fn board_reproduces_the_two_slot_tally() {
    let mut board = RegretBoard::new(["a", "b", "c"]);
    let mut regrets = Vec::new();
    let mut oracles = Vec::new();
    for (secs, picks) in &TABLE {
        let (q, oracle) = board.add(secs, *picks);
        regrets.push(q);
        oracles.push(oracle);
    }
    assert_eq!(
        regrets,
        [[2.0, 1.0, 4.0], [1.0, 1.0, 2.0], [1.0, 4.0, 2.0], [1.0005, 1.0, 1.0005], [10.0, 1.0, 1.0]]
    );
    assert_eq!([board.wrong("a"), board.wrong("b"), board.wrong("c")], [2, 1, 3]);
    assert_eq!(["a", "b", "c"].map(|n| board.wrong_frac(n)), [0.4, 0.2, 0.6]);
    assert_eq!([board.worst("a"), board.worst("b"), board.worst("c")], [10.0, 4.0, 4.0]);
    // Sums accumulate in cell order, so they match the tally to the bit.
    assert_eq!(board.sum("a").to_bits(), 15.000499999999999f64.to_bits());
    assert_eq!([board.sum("b"), board.sum("c")], [8.0, 10.0005]);
    assert_eq!(board.mean("b"), 1.6);
    assert_eq!(board.grid("b"), [1.0, 1.0, 4.0, 1.0, 1.0]);
    assert_eq!(board.describe("c"), "wrong at 60.0% of cells, worst regret 4.00x, mean 2.00x");
    // The oracle is the cheapest plan, ties to the lower index.
    assert_eq!(oracles, [1, 0, 2, 0, 1]);
}

#[test]
fn an_empty_board_reports_no_wrong_cells() {
    let board = RegretBoard::new(["only"]);
    assert_eq!(board.wrong_frac("only"), 0.0);
    assert!(board.grid("only").is_empty());
}

#[test]
#[should_panic(expected = "a chooser on this board")]
fn an_unknown_chooser_name_panics() {
    RegretBoard::new(["point"]).worst("robust");
}
