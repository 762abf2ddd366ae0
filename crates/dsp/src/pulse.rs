//! Pulse shaping: root-raised-cosine (RRC) design and a symbol shaper.
//!
//! Both waveforms of the paper use Nyquist pulses: the MF-TDMA bursts are
//! RRC-shaped QPSK, and the S-UMTS chips are RRC-shaped with roll-off 0.22
//! (the UMTS value). A matched RRC pair composes to a raised-cosine, i.e.
//! (near-)zero ISI at symbol-spaced sampling instants.

use crate::complex::Cpx;
use crate::filter::FirKernel;

/// Root-raised-cosine pulse description.
#[derive(Clone, Copy, Debug)]
pub struct RrcPulse {
    /// Roll-off factor `α ∈ (0, 1]`. UMTS uses 0.22; DVB-like TDMA 0.35.
    pub rolloff: f64,
    /// Samples per symbol (oversampling factor).
    pub sps: usize,
    /// Half-length in symbols (filter spans `2·span+1` symbols).
    pub span: usize,
}

impl RrcPulse {
    /// Creates a pulse description, validating parameters.
    pub fn new(rolloff: f64, sps: usize, span: usize) -> Self {
        assert!(rolloff > 0.0 && rolloff <= 1.0, "rolloff in (0,1]");
        assert!(sps >= 2, "need at least 2 samples per symbol");
        assert!(span >= 2, "span must cover at least 2 symbols");
        RrcPulse { rolloff, sps, span }
    }

    /// RRC impulse response at time `t` in symbol periods (T = 1).
    pub fn eval(&self, t: f64) -> f64 {
        let a = self.rolloff;
        let pi = std::f64::consts::PI;
        // Handle the removable singularities.
        if t.abs() < 1e-9 {
            return 1.0 - a + 4.0 * a / pi;
        }
        let sing = 1.0 / (4.0 * a);
        if (t.abs() - sing).abs() < 1e-9 {
            return (a / std::f64::consts::SQRT_2)
                * ((1.0 + 2.0 / pi) * (pi / (4.0 * a)).sin()
                    + (1.0 - 2.0 / pi) * (pi / (4.0 * a)).cos());
        }
        let num = (pi * t * (1.0 - a)).sin() + 4.0 * a * t * (pi * t * (1.0 + a)).cos();
        let den = pi * t * (1.0 - (4.0 * a * t).powi(2));
        num / den
    }

    /// Materialises the pulse as FIR taps (length `2·span·sps + 1`),
    /// normalised to unit energy so an RRC→RRC cascade has unity gain at the
    /// optimum sampling instant.
    pub fn kernel(&self) -> FirKernel {
        let half = self.span * self.sps;
        let mut taps: Vec<f64> = (-(half as isize)..=half as isize)
            .map(|n| self.eval(n as f64 / self.sps as f64))
            .collect();
        let energy: f64 = taps.iter().map(|t| t * t).sum();
        let norm = energy.sqrt();
        for t in &mut taps {
            *t /= norm;
        }
        FirKernel::from_taps(taps)
    }
}

/// Upsamples symbols by `sps` and shapes them with the given kernel,
/// appending shaped samples to `out`.
///
/// Output length is `symbols.len() * sps + taps - 1` samples (the full
/// convolution tail is emitted so a burst decays cleanly). Each symbol adds
/// its scaled pulse through [`FirKernel::add_scaled`], so the result is
/// identical on every kernel backend.
pub fn shape_symbols(symbols: &[Cpx], kernel: &FirKernel, sps: usize, out: &mut Vec<Cpx>) {
    let t = kernel.len();
    let n_out = symbols.len() * sps + t - 1;
    let start = out.len();
    out.resize(start + n_out, Cpx::ZERO);
    let dst = &mut out[start..];
    for (s_idx, &sym) in symbols.iter().enumerate() {
        let base = s_idx * sps;
        kernel.add_scaled(&mut dst[base..base + t], sym);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FirFilter;

    #[test]
    fn rrc_peak_at_zero() {
        let p = RrcPulse::new(0.22, 4, 6);
        let peak = p.eval(0.0);
        for &t in &[0.1, 0.5, 1.0, 2.0] {
            assert!(p.eval(t).abs() < peak);
        }
    }

    #[test]
    fn rrc_is_even() {
        let p = RrcPulse::new(0.35, 4, 6);
        for &t in &[0.25, 0.5, 1.3, 2.7] {
            assert!((p.eval(t) - p.eval(-t)).abs() < 1e-12);
        }
    }

    #[test]
    fn kernel_has_unit_energy() {
        let p = RrcPulse::new(0.22, 8, 8);
        let e: f64 = p.kernel().taps().iter().map(|t| t * t).sum();
        assert!((e - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singularity_point_is_finite_and_continuous() {
        let p = RrcPulse::new(0.25, 4, 6);
        let sing = 1.0 / (4.0 * p.rolloff);
        let at = p.eval(sing);
        let near = p.eval(sing + 1e-6);
        assert!(at.is_finite());
        assert!((at - near).abs() < 1e-3);
    }

    #[test]
    fn matched_cascade_is_nyquist() {
        // RRC Tx → RRC Rx sampled at symbol instants shows ~zero ISI.
        let p = RrcPulse::new(0.22, 8, 10);
        let kernel = p.kernel();
        // Shape a single unit symbol, then matched-filter it.
        let mut shaped = Vec::new();
        shape_symbols(&[Cpx::ONE], &kernel, p.sps, &mut shaped);
        // Extend with zeros so the full matched-filter tail is observable.
        shaped.resize(shaped.len() + kernel.taps().len(), Cpx::ZERO);
        let mut rx = FirFilter::new(kernel.clone());
        let mut out = Vec::new();
        rx.process(&shaped, &mut out);
        // Peak sits at the combined group delay.
        let centre = kernel.taps().len() - 1;
        let peak = out[centre].re;
        assert!((peak - 1.0).abs() < 0.01, "peak {peak}");
        // Symbol-spaced neighbours are ISI-free.
        for k in 1..=p.span {
            let isi = out[centre + k * p.sps].re.abs();
            assert!(isi < 0.01, "ISI {isi} at offset {k}");
        }
    }

    #[test]
    fn shape_symbols_superposition() {
        let p = RrcPulse::new(0.35, 4, 6);
        let kernel = p.kernel();
        let mut one = Vec::new();
        shape_symbols(&[Cpx::ONE, Cpx::ZERO], &kernel, p.sps, &mut one);
        let mut two = Vec::new();
        shape_symbols(&[Cpx::ZERO, Cpx::ONE], &kernel, p.sps, &mut two);
        let mut both = Vec::new();
        shape_symbols(&[Cpx::ONE, Cpx::ONE], &kernel, p.sps, &mut both);
        for i in 0..both.len() {
            assert!((both[i].re - (one[i].re + two[i].re)).abs() < 1e-12);
        }
    }

    #[test]
    fn shaping_equals_the_per_tap_loop_on_every_backend() {
        use crate::kernels::{for_backend, simd_available, Backend};
        let syms: Vec<Cpx> = (0..37)
            .map(|i| Cpx::new((i as f64 * 0.9).sin(), -(i as f64 * 0.4).cos()))
            .collect();
        let kernel = RrcPulse::new(0.22, 4, 6).kernel();
        let mut want = vec![Cpx::ZERO; syms.len() * 4 + kernel.len() - 1];
        for (i, &sym) in syms.iter().enumerate() {
            for (k, &h) in kernel.taps().iter().enumerate() {
                want[i * 4 + k] += sym.scale(h);
            }
        }
        let mut backends = vec![Backend::Scalar];
        if simd_available() {
            backends.push(Backend::Simd);
        }
        for b in backends {
            let mut got = Vec::new();
            shape_symbols(
                &syms,
                &kernel.clone().with_kernels(for_backend(b)),
                4,
                &mut got,
            );
            let bits = |v: &[Cpx]| -> Vec<(u64, u64)> {
                v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "{b:?}");
        }
    }
}
