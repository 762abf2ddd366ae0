//! Experiment drivers — one per paper table/figure/quantitative claim.
//!
//! Each `eN_*` function regenerates the corresponding artefact from
//! DESIGN.md §3 as one or more [`ExpTable`]s. The `gsp-bench` `exp` binary
//! prints them; EXPERIMENTS.md records paper-vs-measured. Drivers take a
//! `scale` knob where Monte-Carlo cost matters: `Scale::Smoke` keeps unit
//! tests fast, `Scale::Full` is what `exp <id> --full` runs.

use crate::table::ExpTable;

pub mod e10_timing;
pub mod e11_partition;
pub mod e12_regeneration;
pub mod e1_table1;
pub mod e2_gates;
pub mod e3_waveforms;
pub mod e4_protocols;
pub mod e5_reconfig;
pub mod e6_seu;
pub mod e7_environment;
pub mod e8_coding;
pub mod e9_acquisition;
pub mod f2_payload;

pub use e10_timing::e10_timing;
pub use e11_partition::e11_partition;
pub use e12_regeneration::e12_regeneration;
pub use e1_table1::e1_table1;
pub use e2_gates::e2_gates;
pub use e3_waveforms::e3_waveforms;
pub use e4_protocols::e4_protocols;
pub use e5_reconfig::e5_reconfig;
pub use e6_seu::{e6_maintenance, e6_readback, e6_scrub, e6_tmr};
pub use e7_environment::{e7_environment, e7_latchup};
pub use e8_coding::e8_coding;
pub use e9_acquisition::e9_acquisition;
pub use f2_payload::f2_payload;

/// Monte-Carlo effort level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small trial counts — used by unit tests.
    Smoke,
    /// Full trial counts — used by the bench binaries.
    Full,
}

impl Scale {
    /// Scales a base trial count.
    pub fn trials(self, smoke: usize, full: usize) -> usize {
        match self {
            Scale::Smoke => smoke,
            Scale::Full => full,
        }
    }
}

/// Derives the seed of trial `i` from the campaign `seed`: the index is
/// pushed through a full SplitMix64 mix before combining, so distinct
/// `(seed, i)` pairs cannot collide the way the old `seed ^ i*CONST`
/// scheme could (e.g. two seeds that differ by a multiple of the
/// constant).
pub fn trial_seed(seed: u64, i: usize) -> u64 {
    seed ^ rand::splitmix64_mix(0x5EED_0000_0000_0000 ^ i as u64)
}

/// Fans `n` independent seeded trials out over scoped `std::thread`
/// workers and collects the results in trial order (deterministic for a
/// fixed `seed`, independent of the worker count).
pub fn par_trials<T, F>(n: usize, seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut results = Vec::new();
                let mut i = w;
                while i < n {
                    results.push((i, f(trial_seed(seed, i))));
                    i += workers;
                }
                results
            }));
        }
        let mut collected = Vec::new();
        for h in handles {
            collected.extend(h.join().expect("trial worker panicked"));
        }
        for (i, v) in collected {
            out[i] = Some(v);
        }
    });
    out.into_iter().map(|v| v.expect("trial filled")).collect()
}

/// Runs every experiment (E1–E12, F2) at the given scale (what `exp all`
/// prints).
pub fn run_all(scale: Scale, seed: u64) -> Vec<ExpTable> {
    let mut tables = vec![
        e1_table1(),
        e2_gates(),
        e3_waveforms(scale, seed),
        e4_protocols(seed),
        e5_reconfig(seed),
        e6_tmr(scale, seed),
        e6_readback(),
        e6_scrub(scale, seed),
        e6_maintenance(seed),
        e7_environment(),
        e7_latchup(scale, seed),
    ];
    tables.push(e8_coding(scale, seed));
    tables.push(e9_acquisition(scale, seed));
    tables.push(e10_timing(scale, seed));
    tables.push(e11_partition());
    tables.push(e12_regeneration(seed));
    tables.push(f2_payload(seed));
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_trials_is_deterministic_and_ordered() {
        let a = par_trials(17, 9, |s| s.wrapping_mul(3));
        let b = par_trials(17, 9, |s| s.wrapping_mul(3));
        assert_eq!(a, b);
        assert_eq!(a.len(), 17);
        // Trials are collected in index order with the documented seeds.
        for (i, v) in a.iter().enumerate() {
            assert_eq!(*v, trial_seed(9, i).wrapping_mul(3));
        }
    }

    #[test]
    fn trial_seeds_never_collide_within_a_campaign() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(seen.insert(trial_seed(42, i)), "collision at trial {i}");
        }
    }

    #[test]
    fn scale_knob() {
        assert_eq!(Scale::Smoke.trials(10, 1000), 10);
        assert_eq!(Scale::Full.trials(10, 1000), 1000);
    }
}
