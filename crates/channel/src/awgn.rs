//! Complex additive white Gaussian noise.

use gsp_dsp::Cpx;
use rand::Rng;

/// Marsaglia polar Gaussian sampler (keeps its spare deviate).
#[derive(Clone, Debug, Default)]
pub struct GaussianSampler {
    spare: Option<f64>,
}

impl GaussianSampler {
    /// New sampler with no cached deviate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws one standard-normal deviate.
    pub fn next<R: Rng>(&mut self, rng: &mut R) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let m = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * m);
                return u * m;
            }
        }
    }

    /// Draws a circularly-symmetric complex Gaussian with per-component
    /// standard deviation `sigma` (total power `2σ²`).
    pub fn next_complex<R: Rng>(&mut self, rng: &mut R, sigma: f64) -> Cpx {
        Cpx::new(self.next(rng) * sigma, self.next(rng) * sigma)
    }
}

/// AWGN channel calibrated by Es/N0 against a unit-power signal.
#[derive(Clone, Debug)]
pub struct AwgnChannel {
    sigma: f64,
    sampler: GaussianSampler,
}

impl AwgnChannel {
    /// Channel adding complex noise of total power `N0` such that a
    /// unit-energy-per-sample signal sees the given `Es/N0` (dB).
    ///
    /// Per-component variance is `N0/2 = 1/(2·Es/N0)`.
    pub fn from_esn0_db(esn0_db: f64) -> Self {
        let esn0 = 10f64.powf(esn0_db / 10.0);
        AwgnChannel {
            sigma: (0.5 / esn0).sqrt(),
            sampler: GaussianSampler::new(),
        }
    }

    /// Per-component noise standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Noise power `N0` (total, both components).
    pub fn n0(&self) -> f64 {
        2.0 * self.sigma * self.sigma
    }

    /// Adds noise to one sample.
    #[inline]
    pub fn push<R: Rng>(&mut self, x: Cpx, rng: &mut R) -> Cpx {
        x + self.sampler.next_complex(rng, self.sigma)
    }

    /// Adds noise to a block in place.
    pub fn apply<R: Rng>(&mut self, data: &mut [Cpx], rng: &mut R) {
        for d in data.iter_mut() {
            *d = self.push(*d, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = GaussianSampler::new();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.next(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        // Fourth moment of a Gaussian is 3σ⁴.
        let m4 = samples.iter().map(|s| s.powi(4)).sum::<f64>() / n as f64;
        assert!((m4 - 3.0).abs() < 0.15, "m4 {m4}");
    }

    #[test]
    fn noise_power_matches_esn0() {
        let mut rng = StdRng::seed_from_u64(2);
        for &esn0_db in &[0.0, 6.0, 10.0] {
            let mut ch = AwgnChannel::from_esn0_db(esn0_db);
            let n = 100_000;
            let p: f64 = (0..n)
                .map(|_| ch.push(Cpx::ZERO, &mut rng).norm_sqr())
                .sum::<f64>()
                / n as f64;
            let expect = 10f64.powf(-esn0_db / 10.0);
            assert!(
                (p - expect).abs() < 0.03 * expect.max(0.1),
                "Es/N0 {esn0_db}: noise power {p} vs {expect}"
            );
        }
    }

    #[test]
    fn bpsk_ber_matches_theory() {
        let mut rng = StdRng::seed_from_u64(3);
        let ebn0_db = 4.0;
        // Uncoded BPSK carries one bit per symbol: Es/N0 = Eb/N0.
        let mut ch = AwgnChannel::from_esn0_db(ebn0_db);
        let n = 200_000;
        let mut errors = 0usize;
        for i in 0..n {
            let bit = (i % 2) as u8;
            let x = Cpx::new(1.0 - 2.0 * bit as f64, 0.0);
            let y = ch.push(x, &mut rng);
            let decided = (y.re < 0.0) as u8;
            errors += (decided != bit) as usize;
        }
        let ber = errors as f64 / n as f64;
        let theory = gsp_dsp::math::ber_bpsk_awgn(ebn0_db);
        assert!(
            (ber - theory).abs() < 0.25 * theory,
            "BER {ber} vs theory {theory}"
        );
    }
}
