//! SEU-mitigation techniques of the paper's §4.3.
//!
//! Design-level techniques (adaptable to all hardware, gate-hungry):
//! * [`TmrVoter`] — tripling the function with majority vote; the paper:
//!   "the probability of false event is equal to (pe)²".
//! * [`DuplicateCompare`] — doubling the logic with an XOR comparator;
//!   detects but "the correction of the result is not performed".
//!
//! Configuration-level techniques (exploiting read-back / partial
//! reconfiguration, the preferred space solutions):
//! * [`ReadbackStrategy`] — detection by full compare against the
//!   memorised golden file, or by per-frame CRC ("less gate consuming than
//!   memorizing the file"), followed by partial-reconfiguration repair.
//! * [`Scrubber`] — blind periodic rewriting of every frame
//!   ("SEU scrubbing; it is the most interesting solution for satellite
//!   applications").

use crate::bitstream::Bitstream;
use crate::fabric::{FabricError, FpgaFabric};

/// Majority voter over three redundant computations.
#[derive(Clone, Copy, Debug, Default)]
pub struct TmrVoter {
    votes_total: u64,
    votes_corrected: u64,
    votes_failed: u64,
}

/// Outcome of one TMR vote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TmrOutcome {
    /// All replicas agreed.
    Unanimous,
    /// One replica disagreed and was outvoted (error masked).
    Corrected,
    /// No majority matched the truth — at least two replicas wrong.
    Failed,
}

impl TmrVoter {
    /// New voter with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Votes over three replica outputs, with `truth` available for
    /// outcome classification in experiments.
    pub fn vote<T: PartialEq + Copy>(&mut self, replicas: [T; 3], truth: T) -> (T, TmrOutcome) {
        self.votes_total += 1;
        let [a, b, c] = replicas;
        let result = if a == b || a == c {
            a
        } else if b == c {
            b
        } else {
            // No two agree: pass replica a through (arbitrary).
            a
        };
        let outcome = if a == truth && b == truth && c == truth {
            TmrOutcome::Unanimous
        } else if result == truth {
            self.votes_corrected += 1;
            TmrOutcome::Corrected
        } else {
            self.votes_failed += 1;
            TmrOutcome::Failed
        };
        (result, outcome)
    }

    /// (total, corrected, failed) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.votes_total, self.votes_corrected, self.votes_failed)
    }

    /// Gate overhead factor of TMR (3 replicas + voter ≈ 3.2×).
    pub const GATE_OVERHEAD: f64 = 3.2;

    /// The paper's failure law: with per-replica error probability `pe`,
    /// a vote fails when ≥2 replicas err simultaneously —
    /// `3·pe²·(1−pe) + pe³ ≈ 3·pe²` (the paper quotes the `pe²` scaling).
    pub fn theoretical_failure_probability(pe: f64) -> f64 {
        3.0 * pe * pe * (1.0 - pe) + pe * pe * pe
    }
}

/// Duplicate-and-compare: detects single-replica errors via XOR, no
/// correction (§4.3: "the correction of the result is not performed").
#[derive(Clone, Copy, Debug, Default)]
pub struct DuplicateCompare {
    checks: u64,
    mismatches: u64,
    undetected_errors: u64,
}

impl DuplicateCompare {
    /// New comparator with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compares two replica outputs; returns `true` when a mismatch is
    /// detected. `truth` classifies silent corruption (both wrong the same
    /// way) for experiments.
    pub fn check<T: PartialEq + Copy>(&mut self, a: T, b: T, truth: T) -> bool {
        self.checks += 1;
        if a != b {
            self.mismatches += 1;
            true
        } else {
            if a != truth {
                self.undetected_errors += 1;
            }
            false
        }
    }

    /// (checks, mismatches, undetected) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.checks, self.mismatches, self.undetected_errors)
    }

    /// Gate overhead factor (2 replicas + comparator ≈ 2.1×).
    pub const GATE_OVERHEAD: f64 = 2.1;
}

/// Read-back SEU detection flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadbackStrategy {
    /// Compare every frame byte against the memorised golden bitstream.
    /// Needs the full golden copy on board.
    FullCompare,
    /// Compare per-frame CRC-16s only — the paper's "less gate consuming"
    /// option; stores 2 bytes per frame instead of the frame.
    CrcCompare,
}

impl ReadbackStrategy {
    /// On-board golden-reference storage this strategy needs, in bytes.
    pub fn storage_bytes(self, frames: usize, frame_bytes: usize) -> usize {
        match self {
            ReadbackStrategy::FullCompare => frames * frame_bytes,
            ReadbackStrategy::CrcCompare => frames * 2,
        }
    }

    /// Scans the fabric and returns the frames detected as corrupted.
    pub fn detect(
        self,
        fabric: &FpgaFabric,
        golden: &Bitstream,
    ) -> Result<Vec<usize>, FabricError> {
        let mut bad = Vec::new();
        for f in 0..fabric.device().frames {
            let corrupt = match self {
                ReadbackStrategy::FullCompare => fabric.readback_frame(f)? != &golden.frames[f][..],
                ReadbackStrategy::CrcCompare => {
                    fabric.readback_frame_crc(f)? != golden.frame_crcs[f]
                }
            };
            if corrupt {
                bad.push(f);
            }
        }
        Ok(bad)
    }
}

/// Detect-and-repair cycle: read-back detection followed by partial
/// reconfiguration of the corrupted frames. Returns (frames repaired,
/// port time consumed in ns).
pub fn detect_and_repair(
    fabric: &mut FpgaFabric,
    golden: &Bitstream,
    strategy: ReadbackStrategy,
) -> Result<(usize, u64), FabricError> {
    let bad = strategy.detect(fabric, golden)?;
    let mut t = 0u64;
    for &f in &bad {
        t += fabric.configure_frame(f, &golden.frames[f])?;
    }
    Ok((bad.len(), t))
}

/// Blind periodic scrubber: rewrites every frame from the golden bitstream
/// regardless of its state (§4.3: no detection performed, "each cell is
/// regularly re-programmed using the partial configuration function").
#[derive(Clone, Debug)]
pub struct Scrubber {
    /// Scrub period in nanoseconds of simulated time.
    pub period_ns: u64,
    passes: u64,
}

impl Scrubber {
    /// A scrubber with the given full-pass period.
    pub fn new(period_ns: u64) -> Self {
        assert!(period_ns > 0);
        Scrubber {
            period_ns,
            passes: 0,
        }
    }

    /// Completed full passes.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Rewrites the whole configuration in one shot; returns port time.
    pub fn scrub_full(
        &mut self,
        fabric: &mut FpgaFabric,
        golden: &Bitstream,
    ) -> Result<u64, FabricError> {
        let mut t = 0u64;
        for f in 0..fabric.device().frames {
            t += fabric.configure_frame(f, &golden.frames[f])?;
        }
        self.passes += 1;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn loaded() -> (FpgaFabric, Bitstream) {
        let dev = FpgaDevice::small_100k();
        let bs = Bitstream::synthesise(9, &dev, dev.frames);
        let mut fab = FpgaFabric::new(dev);
        fab.configure_full(&bs).unwrap();
        fab.power_on();
        (fab, bs)
    }

    #[test]
    fn tmr_masks_single_errors() {
        let mut v = TmrVoter::new();
        let (r, o) = v.vote([1u8, 1, 0], 1);
        assert_eq!(r, 1);
        assert_eq!(o, TmrOutcome::Corrected);
        let (r, o) = v.vote([7u8, 7, 7], 7);
        assert_eq!(r, 7);
        assert_eq!(o, TmrOutcome::Unanimous);
    }

    #[test]
    fn tmr_fails_on_double_errors() {
        let mut v = TmrVoter::new();
        let (r, o) = v.vote([0u8, 0, 1], 1);
        assert_eq!(r, 0);
        assert_eq!(o, TmrOutcome::Failed);
        assert_eq!(v.stats(), (1, 0, 1));
    }

    #[test]
    fn tmr_monte_carlo_matches_pe_squared_law() {
        // The paper's law: P_fail ∝ pe². Monte-Carlo the voter.
        let mut rng = StdRng::seed_from_u64(21);
        for &pe in &[0.01f64, 0.03] {
            let mut v = TmrVoter::new();
            let trials = 2_000_000u64;
            for _ in 0..trials {
                let mut rep = [0u8; 3];
                for r in rep.iter_mut() {
                    *r = if rng.gen_bool(pe) { 1 } else { 0 };
                }
                v.vote(rep, 0);
            }
            let (_, _, failed) = v.stats();
            let measured = failed as f64 / trials as f64;
            let theory = TmrVoter::theoretical_failure_probability(pe);
            assert!(
                (measured - theory).abs() < 0.2 * theory,
                "pe {pe}: measured {measured} theory {theory}"
            );
            // And the paper's quadratic scaling: halving pe quarters P.
        }
    }

    #[test]
    fn duplicate_detects_but_does_not_correct() {
        let mut d = DuplicateCompare::new();
        assert!(d.check(1u8, 0, 1));
        assert!(!d.check(1u8, 1, 1));
        // Common-mode failure goes unnoticed.
        assert!(!d.check(0u8, 0, 1));
        assert_eq!(d.stats(), (3, 1, 1));
    }

    #[test]
    fn readback_strategies_find_same_corruption() {
        let (mut fab, bs) = loaded();
        let mut rng = StdRng::seed_from_u64(2);
        let mut hit = std::collections::BTreeSet::new();
        for _ in 0..5 {
            let (f, _, _) = fab.inject_random_upset(&mut rng);
            hit.insert(f);
        }
        let by_cmp = ReadbackStrategy::FullCompare.detect(&fab, &bs).unwrap();
        let by_crc = ReadbackStrategy::CrcCompare.detect(&fab, &bs).unwrap();
        let expect: Vec<usize> = hit.into_iter().collect();
        assert_eq!(by_cmp, expect);
        assert_eq!(by_crc, expect);
    }

    #[test]
    fn crc_strategy_needs_far_less_storage() {
        let dev = FpgaDevice::virtex_like_1m();
        let full = ReadbackStrategy::FullCompare.storage_bytes(dev.frames, dev.frame_bytes);
        let crc = ReadbackStrategy::CrcCompare.storage_bytes(dev.frames, dev.frame_bytes);
        assert_eq!(full, 96 * 1024);
        assert_eq!(crc, 192);
        assert!(crc * 100 < full);
    }

    #[test]
    fn detect_and_repair_restores_function() {
        let (mut fab, bs) = loaded();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            fab.inject_random_upset(&mut rng);
        }
        let (n, t) = detect_and_repair(&mut fab, &bs, ReadbackStrategy::CrcCompare).unwrap();
        assert!((1..=10).contains(&n));
        assert!(t > 0);
        assert!(fab.diff_frames(&bs).is_empty());
        assert!(fab.function_correct(&bs));
    }

    #[test]
    fn full_scrub_clears_all_upsets() {
        let (mut fab, bs) = loaded();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            fab.inject_random_upset(&mut rng);
        }
        let mut s = Scrubber::new(1_000_000);
        s.scrub_full(&mut fab, &bs).unwrap();
        assert!(fab.diff_frames(&bs).is_empty());
        assert_eq!(s.passes(), 1);
    }

    #[test]
    fn tmr_overhead_exceeds_duplication() {
        let (tmr, dup) = (TmrVoter::GATE_OVERHEAD, DuplicateCompare::GATE_OVERHEAD);
        assert!(tmr > dup, "TMR {tmr} vs duplication {dup}");
    }
}
