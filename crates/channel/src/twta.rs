//! Travelling-wave-tube amplifier nonlinearity — the Saleh model.
//!
//! The payload's Tx chain (Fig. 2) drives a TWTA; its AM/AM compression and
//! AM/PM conversion bound how much output back-off the waveform needs.
//! Saleh (1981): `A(r) = αa·r / (1 + βa·r²)`, `Φ(r) = αφ·r² / (1 + βφ·r²)`.

use gsp_dsp::Cpx;

/// Saleh-model TWTA.
#[derive(Clone, Copy, Debug)]
pub struct SalehTwta {
    alpha_a: f64,
    beta_a: f64,
    alpha_phi: f64,
    beta_phi: f64,
    /// Input scaling implementing back-off from saturation.
    input_gain: f64,
}

impl SalehTwta {
    /// The classic Saleh parameter set (αa=2.1587, βa=1.1517,
    /// αφ=4.0033, βφ=9.1040) at the given input back-off in dB
    /// (0 dB = saturation drive for a unit-power input).
    pub fn classic(input_backoff_db: f64) -> Self {
        SalehTwta {
            alpha_a: 2.1587,
            beta_a: 1.1517,
            alpha_phi: 4.0033,
            beta_phi: 9.1040,
            input_gain: 10f64.powf(-input_backoff_db / 20.0),
        }
    }

    /// AM/AM: output amplitude for input amplitude `r` (after back-off).
    pub fn am_am(&self, r: f64) -> f64 {
        let x = r * self.input_gain;
        self.alpha_a * x / (1.0 + self.beta_a * x * x)
    }

    /// AM/PM: phase shift (radians) for input amplitude `r`.
    pub fn am_pm(&self, r: f64) -> f64 {
        let x = r * self.input_gain;
        self.alpha_phi * x * x / (1.0 + self.beta_phi * x * x)
    }

    /// Amplifies one sample.
    #[inline]
    pub fn push(&self, x: Cpx) -> Cpx {
        let r = x.abs();
        if r < 1e-30 {
            return Cpx::ZERO;
        }
        let a = self.am_am(r);
        let phi = self.am_pm(r);
        Cpx::from_polar(a, x.arg() + phi)
    }

    /// Amplifies a block in place.
    pub fn apply(&self, data: &mut [Cpx]) {
        for d in data.iter_mut() {
            *d = self.push(*d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_signal_gain_is_linear() {
        let twta = SalehTwta::classic(0.0);
        let g = twta.am_am(1e-4) / 1e-4;
        assert!((g - 2.1587).abs() < 1e-3, "small-signal gain {g}");
        assert!(twta.am_pm(1e-4).abs() < 1e-6);
    }

    #[test]
    fn am_am_peaks_at_saturation() {
        let twta = SalehTwta::classic(0.0);
        // d/dr [αa r/(1+βa r²)] = 0 → r = 1/√βa.
        let rsat = 1.0 / 1.1517f64.sqrt();
        let peak = twta.am_am(rsat);
        for &r in &[0.2, 0.5, 0.7, 1.2, 2.0, 5.0] {
            assert!(twta.am_am(r) <= peak + 1e-12, "r={r}");
        }
        // Classic model saturates at αa/(2√βa) ≈ 1.0057.
        assert!((peak - 2.1587 / (2.0 * 1.1517f64.sqrt())).abs() < 1e-6);
    }

    #[test]
    fn backoff_reduces_compression() {
        let hot = SalehTwta::classic(0.0);
        let cool = SalehTwta::classic(10.0);
        // Gain compression at unit input: hot is deep in compression,
        // 10 dB back-off is much more linear.
        let lin = 2.1587;
        let hot_comp = hot.am_am(1.0) / (lin * 1.0);
        let cool_comp = cool.am_am(1.0) / (lin * 10f64.powf(-0.5));
        assert!(hot_comp < 0.6, "hot compression ratio {hot_comp}");
        assert!(cool_comp > 0.85, "cool compression ratio {cool_comp}");
    }

    #[test]
    fn am_pm_grows_with_drive() {
        let twta = SalehTwta::classic(0.0);
        assert!(twta.am_pm(0.1) < twta.am_pm(0.5));
        assert!(twta.am_pm(0.5) < twta.am_pm(1.5));
        // Asymptote is αφ/βφ ≈ 0.44 rad.
        assert!(twta.am_pm(100.0) < 4.0033 / 9.1040 + 1e-6);
    }

    #[test]
    fn zero_in_zero_out() {
        let twta = SalehTwta::classic(3.0);
        assert_eq!(twta.push(Cpx::ZERO), Cpx::ZERO);
    }
}
