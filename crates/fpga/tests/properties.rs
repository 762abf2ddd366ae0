//! Property tests: SEU detection/repair invariants that the payload's
//! availability argument rests on.

use gsp_fpga::bitstream::Bitstream;
use gsp_fpga::device::FpgaDevice;
use gsp_fpga::fabric::FpgaFabric;
use gsp_fpga::mitigation::{detect_and_repair, ReadbackStrategy, Scrubber, TmrVoter};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn loaded(design: u32) -> (FpgaFabric, Bitstream) {
    let dev = FpgaDevice::small_100k();
    let bs = Bitstream::synthesise(design, &dev, dev.frames);
    let mut fab = FpgaFabric::new(dev);
    fab.configure_full(&bs).unwrap();
    fab.power_on();
    (fab, bs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_upset_set_is_detected_and_repaired(
        design in 0u32..1000,
        upsets in proptest::collection::vec(
            (0usize..24, 0usize..512, 0u8..8), 1..30),
        strategy_idx in 0usize..2,
    ) {
        let strategy = [ReadbackStrategy::FullCompare, ReadbackStrategy::CrcCompare][strategy_idx];
        let (mut fab, bs) = loaded(design);
        // Net effect of the upset list: a bit flipped an even number of
        // times is back to correct.
        let mut net: BTreeSet<(usize, usize, u8)> = BTreeSet::new();
        for &(f, b, bit) in &upsets {
            fab.inject_upset_at(f, b, bit);
            if !net.remove(&(f, b, bit)) {
                net.insert((f, b, bit));
            }
        }
        let net_frames: BTreeSet<usize> = net.iter().map(|&(f, _, _)| f).collect();
        let detected = strategy.detect(&fab, &bs).unwrap();
        prop_assert_eq!(
            detected.iter().copied().collect::<BTreeSet<_>>(),
            net_frames,
            "detection must equal the net corrupted frame set"
        );
        let (repaired, _) = detect_and_repair(&mut fab, &bs, strategy).unwrap();
        prop_assert_eq!(repaired, detected.len());
        prop_assert!(fab.diff_frames(&bs).is_empty());
        prop_assert!(fab.function_correct(&bs));
        prop_assert_eq!(fab.global_crc(), bs.global_crc);
    }

    #[test]
    fn scrub_full_is_idempotent_restoration(
        design in 0u32..1000,
        upsets in proptest::collection::vec(
            (0usize..24, 0usize..512, 0u8..8), 0..40),
    ) {
        let (mut fab, bs) = loaded(design);
        for &(f, b, bit) in &upsets {
            fab.inject_upset_at(f, b, bit);
        }
        let mut s = Scrubber::new(1);
        s.scrub_full(&mut fab, &bs).unwrap();
        prop_assert!(fab.diff_frames(&bs).is_empty());
        // Scrubbing an already-clean fabric changes nothing.
        let crc = fab.global_crc();
        s.scrub_full(&mut fab, &bs).unwrap();
        prop_assert_eq!(fab.global_crc(), crc);
    }

    /// The FDIR ladder's rung-1 contract: whatever an SEU burst did to
    /// the fabric, **one** scrub pass leaves every configuration frame *bitwise*
    /// identical to the golden bitstream, and both readback strategies
    /// then agree there is nothing left to find.
    #[test]
    fn one_scrub_pass_restores_bitwise_identity_under_any_upsets(
        design in 0u32..1000,
        upsets in proptest::collection::vec(
            (0usize..24, 0usize..512, 0u8..8), 0..60),
        strategy_idx in 0usize..2,
    ) {
        let strategy = [ReadbackStrategy::FullCompare, ReadbackStrategy::CrcCompare][strategy_idx];
        let (mut fab, bs) = loaded(design);
        for &(f, b, bit) in &upsets {
            fab.inject_upset_at(f, b, bit);
        }
        let mut s = Scrubber::new(1);
        s.scrub_full(&mut fab, &bs).unwrap();
        prop_assert_eq!(s.passes(), 1, "exactly one pass was spent");
        for f in 0..fab.device().frames {
            prop_assert_eq!(
                fab.readback_frame(f).unwrap(),
                &bs.frames[f][..],
                "frame {} not bitwise golden after one pass", f
            );
        }
        prop_assert!(strategy.detect(&fab, &bs).unwrap().is_empty());
        prop_assert!(fab.function_correct(&bs));
        prop_assert_eq!(fab.global_crc(), bs.global_crc);
    }

    #[test]
    fn bitstream_wire_format_rejects_any_single_flip(
        design in 0u32..1000,
        frames in 1usize..8,
        byte_pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dev = FpgaDevice::small_100k();
        let bs = Bitstream::synthesise(design, &dev, frames);
        let mut wire = bs.serialise().to_vec();
        // Skip the (unprotected) geometry header — flip inside the
        // CRC-covered region (frames + CRCs + global CRC).
        let hdr = 4 + 2 + dev.name.len() + 4 + 4;
        let pos = hdr + ((wire.len() - hdr - 1) as f64 * byte_pos_frac) as usize;
        wire[pos] ^= 1 << bit;
        prop_assert!(
            Bitstream::deserialise(&wire).is_err(),
            "flip at {pos} (of {}) accepted",
            wire.len()
        );
    }

    #[test]
    fn tmr_vote_always_returns_majority_when_one_exists(
        a in 0u8..4, b in 0u8..4, c in 0u8..4, truth in 0u8..4,
    ) {
        let mut v = TmrVoter::new();
        let (result, _) = v.vote([a, b, c], truth);
        // If any two replicas agree, the vote returns that value.
        if a == b || a == c {
            prop_assert_eq!(result, a);
        } else if b == c {
            prop_assert_eq!(result, b);
        }
    }
}
