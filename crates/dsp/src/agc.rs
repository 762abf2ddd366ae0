//! Automatic gain control.
//!
//! The payload's demodulators expect roughly unit-power input; the AGC
//! tracks the received power with a one-pole estimator and applies the
//! inverse RMS gain. (In the satellite front end this sits right after the
//! ADC of Fig. 2.)

use crate::complex::Cpx;

/// Feed-forward AGC with exponential power tracking.
#[derive(Clone, Debug)]
pub struct Agc {
    /// Smoothing factor per sample (e.g. 1e-3): larger = faster, noisier.
    alpha: f64,
    /// Running power estimate.
    power: f64,
    /// Target output power.
    target: f64,
    /// Gain floor/ceiling to bound behaviour on silence or overload.
    min_gain: f64,
    max_gain: f64,
}

impl Agc {
    /// Creates an AGC converging towards `target` output power with
    /// per-sample smoothing `alpha`.
    pub fn new(alpha: f64, target: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0);
        assert!(target > 0.0);
        Agc {
            alpha,
            power: target,
            target,
            min_gain: 1e-4,
            max_gain: 1e4,
        }
    }

    /// Current gain that would be applied.
    #[inline]
    pub fn gain(&self) -> f64 {
        (self.target / self.power.max(1e-30))
            .sqrt()
            .clamp(self.min_gain, self.max_gain)
    }

    /// Processes one sample: updates the estimate and returns the scaled
    /// sample.
    #[inline]
    pub fn push(&mut self, x: Cpx) -> Cpx {
        self.power += self.alpha * (x.norm_sqr() - self.power);
        x.scale(self.gain())
    }

    /// Processes a block in place.
    pub fn process(&mut self, data: &mut [Cpx]) {
        for d in data.iter_mut() {
            *d = self.push(*d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_unit_power() {
        let mut agc = Agc::new(5e-3, 1.0);
        // Input at power 16 (amplitude 4).
        let mut last_power = 0.0;
        for i in 0..20_000 {
            let x = Cpx::from_polar(4.0, i as f64 * 0.7);
            let y = agc.push(x);
            last_power = y.norm_sqr();
        }
        assert!((last_power - 1.0).abs() < 0.01, "output power {last_power}");
    }

    #[test]
    fn tracks_power_step() {
        let mut agc = Agc::new(1e-2, 1.0);
        for i in 0..5000 {
            agc.push(Cpx::from_polar(0.1, i as f64));
        }
        let weak = agc.gain();
        for i in 0..5000 {
            agc.push(Cpx::from_polar(10.0, i as f64));
        }
        let strong = agc.gain();
        assert!(weak > 1.0 && strong < 1.0, "gains {weak} {strong}");
    }

    #[test]
    fn gain_is_bounded_on_silence() {
        let mut agc = Agc::new(1e-2, 1.0);
        for _ in 0..100_000 {
            agc.push(Cpx::ZERO);
        }
        assert!(agc.gain() <= 1e4);
    }

    #[test]
    fn preserves_phase() {
        let mut agc = Agc::new(1e-3, 1.0);
        let x = Cpx::from_polar(3.0, 1.234);
        let y = agc.push(x);
        assert!((y.arg() - 1.234).abs() < 1e-12);
    }
}
