//! Window functions for FIR design and spectral estimation.

use crate::math::bessel_i0;

/// Supported window shapes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Window {
    /// Rectangular (no tapering).
    Rectangular,
    /// Hann (raised cosine), −31 dB first sidelobe.
    Hann,
    /// Hamming, −43 dB first sidelobe.
    Hamming,
    /// Blackman, −58 dB first sidelobe.
    Blackman,
    /// Kaiser with shape parameter β (sidelobe level tunable).
    Kaiser(f64),
}

impl Window {
    /// Evaluates the window at tap `n` of an `len`-tap window.
    pub fn coeff(self, n: usize, len: usize) -> f64 {
        assert!(len >= 1 && n < len);
        if len == 1 {
            return 1.0;
        }
        let x = n as f64 / (len - 1) as f64; // 0..=1
        let tau = std::f64::consts::TAU;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * (tau * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (tau * x).cos(),
            Window::Blackman => 0.42 - 0.5 * (tau * x).cos() + 0.08 * (2.0 * tau * x).cos(),
            Window::Kaiser(beta) => {
                let t = 2.0 * x - 1.0; // -1..=1
                bessel_i0(beta * (1.0 - t * t).sqrt()) / bessel_i0(beta)
            }
        }
    }

    /// Materialises the window as a vector of `len` coefficients.
    pub fn build(self, len: usize) -> Vec<f64> {
        (0..len).map(|n| self.coeff(n, len)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_symmetric() {
        for w in [
            Window::Rectangular,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::Kaiser(6.0),
        ] {
            let v = w.build(33);
            for i in 0..v.len() {
                assert!(
                    (v[i] - v[v.len() - 1 - i]).abs() < 1e-12,
                    "{w:?} asymmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn windows_peak_at_centre() {
        for w in [
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::Kaiser(8.0),
        ] {
            let v = w.build(65);
            let peak = v.iter().cloned().fold(f64::MIN, f64::max);
            assert!((v[32] - peak).abs() < 1e-12, "{w:?}");
            assert!((peak - 1.0).abs() < 1e-9, "{w:?} peak {peak}");
        }
    }

    #[test]
    fn hann_endpoints_are_zero() {
        let v = Window::Hann.build(17);
        assert!(v[0].abs() < 1e-12 && v[16].abs() < 1e-12);
    }

    #[test]
    fn single_tap_window_is_unity() {
        for w in [Window::Hann, Window::Kaiser(4.0)] {
            assert_eq!(w.build(1), vec![1.0]);
        }
    }
}
