//! Signal measurement helpers used by experiments and tests: power, EVM,
//! moment-based SNR estimation, correlation.

use crate::complex::Cpx;

/// Mean power of a block.
pub fn mean_power(x: &[Cpx]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().map(|v| v.norm_sqr()).sum::<f64>() / x.len() as f64
}

/// RMS error-vector magnitude of `rx` against `reference`, normalised to the
/// reference RMS (dimensionless; multiply by 100 for %).
pub fn evm_rms(rx: &[Cpx], reference: &[Cpx]) -> f64 {
    assert_eq!(rx.len(), reference.len());
    assert!(!rx.is_empty());
    let err: f64 = rx
        .iter()
        .zip(reference)
        .map(|(a, b)| (*a - *b).norm_sqr())
        .sum();
    let refp: f64 = reference.iter().map(|v| v.norm_sqr()).sum();
    (err / refp).sqrt()
}

/// M2M4 moment-based blind SNR estimator for constant-modulus
/// constellations (PSK). Returns linear SNR, or `None` when the moments are
/// inconsistent (very low SNR / short block).
pub fn snr_estimate_m2m4(x: &[Cpx]) -> Option<f64> {
    if x.len() < 8 {
        return None;
    }
    let n = x.len() as f64;
    let m2: f64 = x.iter().map(|v| v.norm_sqr()).sum::<f64>() / n;
    let m4: f64 = x.iter().map(|v| v.norm_sqr().powi(2)).sum::<f64>() / n;
    // For PSK in complex AWGN: S = sqrt(2·m2² − m4), N = m2 − S.
    let s2 = 2.0 * m2 * m2 - m4;
    if s2 <= 0.0 {
        return None;
    }
    let s = s2.sqrt();
    let noise = m2 - s;
    if noise <= 0.0 {
        return None;
    }
    Some(s / noise)
}

/// Counts bit errors between two equal-length bit slices.
pub fn count_bit_errors(a: &[u8], b: &[u8]) -> usize {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn mean_power_of_unit_circle() {
        let x: Vec<Cpx> = (0..100).map(|i| Cpx::from_angle(i as f64)).collect();
        assert!((mean_power(&x) - 1.0).abs() < 1e-12);
        assert_eq!(mean_power(&[]), 0.0);
    }

    #[test]
    fn evm_zero_for_identical() {
        let x: Vec<Cpx> = (0..32).map(|i| Cpx::from_angle(i as f64 * 0.3)).collect();
        assert_eq!(evm_rms(&x, &x), 0.0);
    }

    #[test]
    fn evm_scales_with_error() {
        let refv = vec![Cpx::ONE; 64];
        let rx: Vec<Cpx> = refv.iter().map(|v| *v + Cpx::new(0.1, 0.0)).collect();
        assert!((evm_rms(&rx, &refv) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn m2m4_estimates_known_snr() {
        let mut rng = StdRng::seed_from_u64(7);
        for &snr_db in &[0.0, 5.0, 10.0, 15.0] {
            let snr = 10f64.powf(snr_db / 10.0);
            let sigma = (0.5 / snr).sqrt(); // unit-power signal, per-dim var
            let x: Vec<Cpx> = (0..200_000)
                .map(|_| {
                    let sym =
                        Cpx::from_angle(std::f64::consts::FRAC_PI_2 * rng.gen_range(0..4) as f64);
                    // Box-Muller gaussian noise
                    let u1: f64 = rng.gen_range(1e-12..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let r = (-2.0 * u1.ln()).sqrt();
                    let n = Cpx::new(
                        r * (std::f64::consts::TAU * u2).cos(),
                        r * (std::f64::consts::TAU * u2).sin(),
                    )
                    .scale(sigma);
                    sym + n
                })
                .collect();
            let est = snr_estimate_m2m4(&x).expect("estimate");
            let est_db = 10.0 * est.log10();
            assert!((est_db - snr_db).abs() < 0.5, "snr {snr_db}: est {est_db}");
        }
    }

    #[test]
    fn bit_error_count() {
        assert_eq!(count_bit_errors(&[0, 1, 0, 1], &[0, 1, 1, 0]), 2);
        assert_eq!(count_bit_errors(&[], &[]), 0);
    }
}
