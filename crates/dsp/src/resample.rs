//! Fractional-delay interpolation (Farrow cubic) — the timing-correction
//! actuator of both demodulators.
//!
//! The Gardner loop and the Oerder–Meyr estimator both *measure* a timing
//! error; applying it requires evaluating the received waveform between
//! samples. The piecewise-parabolic/cubic Farrow structure interpolates with
//! four neighbouring samples and a fractional phase `µ ∈ [0, 1)`.
//!
//! The same interpolator upsamples the Tx bursts by the channel count
//! ([`FarrowUpsampler`]), where µ takes only `M` exact values and the
//! weights become a table.

use crate::complex::Cpx;

/// Cubic Lagrange interpolator over a 4-sample window.
///
/// `interpolate(µ)` evaluates the waveform at position `x[n-2] + µ` where
/// `x[n]` is the most recently pushed sample (i.e. between the two middle
/// samples of the window).
#[derive(Clone, Copy, Debug, Default)]
pub struct FarrowInterpolator {
    /// Window: `w[0]` oldest … `w[3]` newest.
    w: [Cpx; 4],
    primed: u8,
}

impl FarrowInterpolator {
    /// New interpolator with a zeroed window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes the next input sample into the window.
    #[inline]
    pub fn push(&mut self, x: Cpx) {
        self.w[0] = self.w[1];
        self.w[1] = self.w[2];
        self.w[2] = self.w[3];
        self.w[3] = x;
        if self.primed < 4 {
            self.primed += 1;
        }
    }

    /// `true` once four samples have been pushed.
    #[inline]
    pub fn ready(&self) -> bool {
        self.primed >= 4
    }

    /// The cubic Lagrange weights at fractional offset `mu ∈ [0, 1)`
    /// between `w[1]` and `w[2]`: the basis over t = -1, 0, 1, 2
    /// evaluated at t = `mu`, oldest sample first.
    #[inline]
    pub fn weights(mu: f64) -> [f64; 4] {
        debug_assert!((0.0..=1.0).contains(&mu));
        let m = mu;
        [
            -m * (m - 1.0) * (m - 2.0) / 6.0,
            (m + 1.0) * (m - 1.0) * (m - 2.0) / 2.0,
            -m * (m + 1.0) * (m - 2.0) / 2.0,
            m * (m + 1.0) * (m - 1.0) / 6.0,
        ]
    }

    /// The window weighted by `c` (oldest sample first), e.g. a row of
    /// precomputed [`FarrowInterpolator::weights`].
    #[inline]
    pub fn interpolate_with(&self, c: &[f64; 4]) -> Cpx {
        self.w[0].scale(c[0])
            + self.w[1].scale(c[1])
            + self.w[2].scale(c[2])
            + self.w[3].scale(c[3])
    }

    /// Cubic Lagrange evaluation at fractional offset `mu ∈ [0, 1)` between
    /// `w[1]` and `w[2]`.
    #[inline]
    pub fn interpolate(&self, mu: f64) -> Cpx {
        self.interpolate_with(&Self::weights(mu))
    }

    /// Resets the window.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Integer-factor Farrow upsampler on an exact weight table.
///
/// Upsampling by `M` steps the fractional phase µ through 0, 1/M, …,
/// (M−1)/M between each pair of input samples. `M` is a power of two, so
/// every such µ — and the running sum a phase-accumulating resampler
/// reaches it by — is exact in f64: one table row per µ gives the same
/// bits as evaluating the Lagrange weights per output sample, without
/// the four divisions.
#[derive(Clone, Debug)]
pub struct FarrowUpsampler {
    /// Row `r`: [`FarrowInterpolator::weights`] at µ = r/M.
    weights: Vec<[f64; 4]>,
}

impl FarrowUpsampler {
    /// An upsampler by `factor` (a power of two).
    pub fn new(factor: usize) -> Self {
        assert!(
            factor.is_power_of_two(),
            "upsampling factor must be a power of two"
        );
        let step = 1.0 / factor as f64;
        FarrowUpsampler {
            weights: (0..factor)
                .map(|r| FarrowInterpolator::weights(r as f64 * step))
                .collect(),
        }
    }

    /// The upsampling factor `M`.
    pub fn factor(&self) -> usize {
        self.weights.len()
    }

    /// Output samples for `input` input samples: `M` per input once the
    /// first three have filled the window.
    pub fn output_len(&self, input: usize) -> usize {
        self.factor() * input.saturating_sub(3)
    }

    /// Upsamples `x` into `out` (cleared first), multiplying output `n` by
    /// the local-oscillator sample `lo[n % lo.len()]` — a one-pass
    /// upconversion. Output `n` interpolates `x` at position `1 + n / M`
    /// (over the window `x[n / M ..][..4]`); every call starts from an
    /// empty window. `lo.len()` must be a non-zero multiple of `M`.
    pub fn upsample_mix(&self, x: &[Cpx], lo: &[Cpx], out: &mut Vec<Cpx>) {
        let m = self.factor();
        assert!(
            !lo.is_empty() && lo.len().is_multiple_of(m),
            "LO table must hold whole multiples of the factor"
        );
        out.clear();
        let mut farrow = FarrowInterpolator::new();
        let mut row = 0;
        for &s in x {
            farrow.push(s);
            if !farrow.ready() {
                continue;
            }
            let lo_row = &lo[row..row + m];
            out.extend(
                self.weights
                    .iter()
                    .zip(lo_row)
                    .map(|(w, l)| farrow.interpolate_with(w) * *l),
            );
            row = (row + m) % lo.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_at_sample_points_is_exact() {
        let mut f = FarrowInterpolator::new();
        for v in [1.0, 2.0, -3.0, 5.0] {
            f.push(Cpx::new(v, -v));
        }
        assert!((f.interpolate(0.0) - Cpx::new(2.0, -2.0)).abs() < 1e-12);
        assert!((f.interpolate(1.0) - Cpx::new(-3.0, 3.0)).abs() < 1e-12);
    }

    #[test]
    fn interpolates_cubic_polynomial_exactly() {
        // Cubic interpolation reproduces any cubic exactly.
        let poly = |t: f64| 0.5 * t * t * t - 1.2 * t * t + 0.3 * t + 2.0;
        let mut f = FarrowInterpolator::new();
        for t in [-1.0, 0.0, 1.0, 2.0] {
            f.push(Cpx::new(poly(t), 0.0));
        }
        for &mu in &[0.1, 0.25, 0.5, 0.77, 0.99] {
            assert!((f.interpolate(mu).re - poly(mu)).abs() < 1e-10, "mu {mu}");
        }
    }

    #[test]
    fn interpolates_sine_accurately() {
        // A well-oversampled sinusoid should interpolate to <1% error.
        let omega = 0.2; // rad/sample — ~31x oversampled
        let wave = |t: f64| Cpx::new((omega * t).sin(), (omega * t).cos());
        let mut f = FarrowInterpolator::new();
        for t in 0..4 {
            f.push(wave(t as f64));
        }
        for &mu in &[0.3, 0.5, 0.8] {
            let got = f.interpolate(mu);
            let want = wave(1.0 + mu);
            assert!((got - want).abs() < 1e-4, "mu {mu}");
        }
    }

    #[test]
    fn upsampler_matches_per_sample_interpolation() {
        // The table path equals evaluating the weights at each accumulated
        // µ, bit for bit, with output n mixed by lo[n % lo.len()].
        let m = 8;
        let up = FarrowUpsampler::new(m);
        let x: Vec<Cpx> = (0..41).map(|t| Cpx::from_angle(0.37 * t as f64)).collect();
        let lo: Vec<Cpx> = (0..2 * m)
            .map(|n| Cpx::from_angle(-0.9 * n as f64))
            .collect();
        let mut out = Vec::new();
        up.upsample_mix(&x, &lo, &mut out);
        assert_eq!(out.len(), up.output_len(x.len()));
        let mut f = FarrowInterpolator::new();
        let mut want = Vec::new();
        for &s in &x {
            f.push(s);
            if f.ready() {
                let mut mu = 0.0;
                while mu < 1.0 {
                    want.push(f.interpolate(mu) * lo[want.len() % lo.len()]);
                    mu += 1.0 / m as f64;
                }
            }
        }
        assert_eq!(out, want);
    }

    #[test]
    fn reused_output_matches_fresh_upsampler() {
        // Each call starts from an empty window: a buffer dirtied by an
        // earlier burst is overwritten, not appended to.
        let up = FarrowUpsampler::new(8);
        let lo = [Cpx::ONE; 8];
        let mut used = Vec::new();
        let dirty: Vec<Cpx> = (0..37).map(|i| Cpx::new(i as f64, -1.0)).collect();
        up.upsample_mix(&dirty, &lo, &mut used);
        let x: Vec<Cpx> = (0..50).map(|t| Cpx::from_angle(0.21 * t as f64)).collect();
        up.upsample_mix(&x, &lo, &mut used);
        let mut fresh = Vec::new();
        FarrowUpsampler::new(8).upsample_mix(&x, &lo, &mut fresh);
        assert_eq!(used, fresh);
    }

    #[test]
    fn upsampling_preserves_waveform() {
        let omega = 0.15;
        let up = FarrowUpsampler::new(2);
        let x: Vec<Cpx> = (0..200)
            .map(|t| Cpx::from_angle(omega * t as f64))
            .collect();
        let mut out = Vec::new();
        up.upsample_mix(&x, &[Cpx::ONE; 2], &mut out);
        // Output sample k corresponds to input time k/2 with a 1-sample
        // window offset; verify against the continuous wave.
        let mut err_max: f64 = 0.0;
        for (k, s) in out.iter().enumerate().skip(10).take(300) {
            let t = k as f64 / 2.0 + 1.0; // window centring offset
            let want = Cpx::from_angle(omega * t);
            err_max = err_max.max((*s - want).abs());
        }
        assert!(err_max < 5e-3, "max error {err_max}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn upsampler_refuses_inexact_factors() {
        let _ = FarrowUpsampler::new(6);
    }
}
