//! Scalar math helpers: dB conversions, `sinc`, the Gaussian Q-function and
//! its inverse, `erfc`, and modified Bessel `I₀` (for Kaiser windows).
//!
//! The Q-function is the reference curve for every BER experiment in
//! `EXPERIMENTS.md` (e.g. BPSK/QPSK over AWGN has `Pb = Q(√(2·Eb/N0))`).

/// Converts a power ratio in decibels to linear scale.
#[inline]
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Normalised sinc: `sin(πx)/(πx)`, with `sinc(0) = 1`.
#[inline]
pub fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    }
}

/// Complementary error function.
///
/// Rational Chebyshev approximation (Numerical Recipes `erfcc`), absolute
/// error below 1.2e-7 everywhere — ample for plotting reference BER curves
/// down to 1e-9.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Gaussian tail probability `Q(x) = P[N(0,1) > x]`.
#[inline]
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Inverse Q-function via bisection on the monotone `q_function`.
///
/// Accepts `p ∈ (0, 0.5]`; used to size Monte-Carlo runs ("how many trials
/// before the confidence interval includes the theory curve").
pub fn q_inv(p: f64) -> f64 {
    assert!(p > 0.0 && p <= 0.5, "q_inv domain is (0, 0.5], got {p}");
    let (mut lo, mut hi) = (0.0f64, 40.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if q_function(mid) > p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Modified Bessel function of the first kind, order zero.
///
/// Polynomial approximation (Abramowitz & Stegun 9.8.1/9.8.2), used by the
/// Kaiser window design in [`crate::window`].
pub fn bessel_i0(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 3.75 {
        let y = (x / 3.75).powi(2);
        1.0 + y
            * (3.515_622_9
                + y * (3.089_942_4
                    + y * (1.206_749_2 + y * (0.265_973_2 + y * (0.036_076_8 + y * 0.004_581_3)))))
    } else {
        let y = 3.75 / ax;
        (ax.exp() / ax.sqrt())
            * (0.398_942_28
                + y * (0.013_285_92
                    + y * (0.002_253_19
                        + y * (-0.001_575_65
                            + y * (0.009_162_81
                                + y * (-0.020_577_06
                                    + y * (0.026_355_37
                                        + y * (-0.016_476_33 + y * 0.003_923_77))))))))
    }
}

/// Wraps an angle to `(-π, π]`.
#[inline]
pub fn wrap_angle(theta: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut t = theta % two_pi;
    if t > std::f64::consts::PI {
        t -= two_pi;
    } else if t <= -std::f64::consts::PI {
        t += two_pi;
    }
    t
}

/// Greatest common divisor (used by resampler ratio reduction).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Theoretical BPSK/QPSK bit-error rate over AWGN at the given `Eb/N0` (dB).
#[inline]
pub fn ber_bpsk_awgn(ebn0_db: f64) -> f64 {
    q_function((2.0 * db_to_lin(ebn0_db)).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for &db in &[-30.0, -3.0, 0.0, 3.0, 10.0, 27.5] {
            assert!((10.0 * db_to_lin(db).log10() - db).abs() < 1e-12);
        }
        assert!((db_to_lin(3.0) - 1.995262).abs() < 1e-5);
    }

    #[test]
    fn sinc_values() {
        assert_eq!(sinc(0.0), 1.0);
        for k in 1..10 {
            assert!(sinc(k as f64).abs() < 1e-12, "sinc must vanish at integers");
        }
        assert!((sinc(0.5) - 2.0 / std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn q_function_reference_points() {
        // Classic table values.
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-4);
        assert!((q_function(3.0) - 1.349_898e-3).abs() < 1e-6);
        assert!((q_function(6.0) - 9.865_876e-10).abs() < 1e-10);
    }

    #[test]
    fn q_function_symmetry() {
        for &x in &[0.1, 0.7, 1.9, 3.3] {
            assert!((q_function(-x) - (1.0 - q_function(x))).abs() < 1e-6);
        }
    }

    #[test]
    fn q_inv_inverts_q() {
        for &x in &[0.1, 0.5, 1.0, 2.0, 4.0, 6.0] {
            let p = q_function(x);
            assert!((q_inv(p) - x).abs() < 1e-4, "x={x}");
        }
    }

    #[test]
    fn bessel_i0_reference_points() {
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-6);
        assert!((bessel_i0(1.0) - 1.266_066).abs() < 1e-4);
        assert!((bessel_i0(5.0) - 27.239_87).abs() < 2e-2);
    }

    #[test]
    fn wrap_angle_range() {
        for k in -20..20 {
            let t = 0.3 + k as f64 * std::f64::consts::TAU;
            assert!((wrap_angle(t) - 0.3).abs() < 1e-9);
        }
        assert!((wrap_angle(std::f64::consts::PI + 0.1) + std::f64::consts::PI - 0.1).abs() < 1e-9);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn ber_bpsk_reference() {
        // At Eb/N0 = 9.6 dB BPSK sits near 1e-5.
        let ber = ber_bpsk_awgn(9.6);
        assert!(ber > 0.5e-5 && ber < 2e-5, "got {ber}");
    }
}
