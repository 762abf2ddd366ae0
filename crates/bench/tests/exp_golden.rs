//! `exp all` in quick mode at the default seed, against its committed
//! output `exp_all.golden`.
//!
//! Every simulated outcome of every experiment table is pinned here, so a
//! change that moves any of them fails this test and shows the moved
//! lines. To regenerate the golden after an intended change, run
//! `cargo run --release -p gsp-bench --bin exp -- all > crates/bench/tests/exp_all.golden`
//! (with `GSP_SEED` unset) and commit the diff with its reason.

use gsp_core::exp::{run_all, Scale};

const GOLDEN: &str = include_str!("exp_all.golden");

/// The one line that carries host time: F2's note gives the measured
/// DEMOD+DECOD share of wall-clock chain time, which moves with the host,
/// the kernel backend and the build profile.
const TIMED: &str = "per-carrier DEMOD+DECOD is ";

/// The lines of `text`, the percentage of the [`TIMED`] line replaced by
/// `N`, and the number of lines masked.
fn mask(text: &str) -> (Vec<String>, usize) {
    let mut masked = 0;
    let lines: Vec<String> = text
        .lines()
        .map(|line| match line.find(TIMED) {
            Some(at) => {
                masked += 1;
                let from = at + TIMED.len();
                let to = from + line[from..].find('%').expect("share ends in %");
                format!("{}N{}", &line[..from], &line[to..])
            }
            None => line.to_string(),
        })
        .collect();
    (lines, masked)
}

#[test]
fn exp_all_matches_the_committed_golden() {
    // Formatted as the `exp` binary prints it: each table, then a newline.
    let live: String = run_all(Scale::Smoke, 20030422)
        .iter()
        .map(|t| format!("{t}\n"))
        .collect();
    let (live, live_masked) = mask(&live);
    let (golden, golden_masked) = mask(GOLDEN);
    assert_eq!((live_masked, golden_masked), (1, 1), "one timed line each");
    for (n, (l, g)) in live.iter().zip(&golden).enumerate() {
        assert_eq!(l, g, "exp all line {} differs from the golden", n + 1);
    }
    assert_eq!(live.len(), golden.len(), "exp all line count");
}
