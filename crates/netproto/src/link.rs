//! The simulated ground↔satellite channel: serialisation delay at the link
//! rate, GEO propagation delay, and BER-driven packet loss.

use rand::Rng;

/// Static link parameters (symmetric by default; asymmetric constructors
/// provided for TC-uplink/TM-downlink rate differences).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay, nanoseconds (GEO ≈ 120–140 ms).
    pub delay_ns: u64,
    /// Uplink (ground→space) rate, bits/second.
    pub up_rate_bps: u64,
    /// Downlink (space→ground) rate, bits/second.
    pub down_rate_bps: u64,
    /// Channel bit-error rate applied to every frame.
    pub ber: f64,
    /// Whole-frame erasure probability applied independently of BER —
    /// models interference bursts and deep fades that take out a frame
    /// regardless of its length (the FDIR uplink's 20%-loss regime).
    pub loss_prob: f64,
}

impl LinkConfig {
    /// A GEO TC/TM link: 125 ms one-way, modest command rates.
    /// The paper: telecommand processors need "only a few tenth of bits per
    /// seconds" historically; modern reconfiguration uplinks run far
    /// faster — defaults chosen at 256 kbps up / 1 Mbps down.
    pub fn geo_default() -> Self {
        LinkConfig {
            delay_ns: 125_000_000,
            up_rate_bps: 256_000,
            down_rate_bps: 1_000_000,
            ber: 1e-7,
            loss_prob: 0.0,
        }
    }

    /// A clean laboratory link for protocol correctness tests.
    pub fn clean_fast() -> Self {
        LinkConfig {
            delay_ns: 1_000_000, // 1 ms
            up_rate_bps: 10_000_000,
            down_rate_bps: 10_000_000,
            ber: 0.0,
            loss_prob: 0.0,
        }
    }

    /// Round-trip time excluding serialisation, nanoseconds.
    pub fn rtt_ns(&self) -> u64 {
        2 * self.delay_ns
    }

    /// Serialisation time for `bytes` in the given direction, nanoseconds.
    pub fn tx_time_ns(&self, bytes: usize, uplink: bool) -> u64 {
        let rate = if uplink {
            self.up_rate_bps
        } else {
            self.down_rate_bps
        };
        (bytes as u128 * 8 * 1_000_000_000 / rate as u128) as u64
    }

    /// Probability a frame of `bytes` arrives uncorrupted: it must dodge
    /// both the whole-frame erasure and a per-bit error.
    pub fn frame_survival_probability(&self, bytes: usize) -> f64 {
        (1.0 - self.loss_prob.clamp(0.0, 1.0)) * (1.0 - self.ber).powi((bytes * 8) as i32)
    }

    /// Draws the fate of one frame: `true` = delivered intact.
    pub fn frame_survives<R: Rng>(&self, bytes: usize, rng: &mut R) -> bool {
        if self.ber <= 0.0 && self.loss_prob <= 0.0 {
            return true;
        }
        rng.gen_bool(self.frame_survival_probability(bytes).clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn geo_rtt_is_quarter_second_class() {
        let l = LinkConfig::geo_default();
        assert_eq!(l.rtt_ns(), 250_000_000);
    }

    #[test]
    fn serialisation_time() {
        let l = LinkConfig::geo_default();
        // 512 B at 256 kbps = 16 ms.
        assert_eq!(l.tx_time_ns(512, true), 16_000_000);
        // Downlink is faster.
        assert!(l.tx_time_ns(512, false) < l.tx_time_ns(512, true));
    }

    #[test]
    fn survival_probability_decreases_with_size() {
        let l = LinkConfig {
            ber: 1e-5,
            ..LinkConfig::geo_default()
        };
        let small = l.frame_survival_probability(64);
        let large = l.frame_survival_probability(1024);
        assert!(small > large);
        assert!((small - (1.0f64 - 1e-5).powi(512)).abs() < 1e-12);
    }

    #[test]
    fn zero_ber_always_survives() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = LinkConfig::clean_fast();
        assert!((0..1000).all(|_| l.frame_survives(1500, &mut rng)));
    }

    #[test]
    fn loss_rate_matches_ber_statistics() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = LinkConfig {
            ber: 1e-4,
            ..LinkConfig::geo_default()
        };
        let n = 20_000;
        let survived = (0..n).filter(|_| l.frame_survives(125, &mut rng)).count();
        let expect = l.frame_survival_probability(125);
        let got = survived as f64 / n as f64;
        assert!((got - expect).abs() < 0.01, "{got} vs {expect}");
    }

    #[test]
    fn loss_prob_composes_with_ber() {
        let l = LinkConfig {
            loss_prob: 0.2,
            ..LinkConfig::clean_fast()
        };
        // Pure erasure: survival independent of frame size.
        assert!((l.frame_survival_probability(64) - 0.8).abs() < 1e-12);
        assert!((l.frame_survival_probability(4096) - 0.8).abs() < 1e-12);
        // Composed with BER, both factors apply.
        let lb = LinkConfig { ber: 1e-5, ..l };
        let expect = 0.8 * (1.0f64 - 1e-5).powi(512);
        assert!((lb.frame_survival_probability(64) - expect).abs() < 1e-12);
        // The statistical draw tracks the probability.
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let survived = (0..n).filter(|_| l.frame_survives(64, &mut rng)).count();
        let got = survived as f64 / n as f64;
        assert!((got - 0.8).abs() < 0.01, "{got} vs 0.8");
    }
}
