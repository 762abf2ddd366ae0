//! FIR filtering: design (windowed-sinc) and execution (streaming and block).
//!
//! Both demodulators run their matched filter over a whole burst with
//! [`FirKernel::filter_block`], one call of the output-parallel
//! [`CpxKernels::fir_block`](crate::kernels::CpxKernels::fir_block) kernel
//! into caller-held buffers. [`FirFilter`] keeps a circular delay line for
//! sample-by-sample use (the payload front end's wideband composer, tests);
//! with the scalar backend its outputs equal `filter_block`'s bit for bit.

use crate::complex::Cpx;
use crate::kernels::{self, CpxKernelHandle};
use crate::math::sinc;
use crate::window::Window;

/// An immutable set of real FIR coefficients plus design helpers.
///
/// The MAC loops dispatch through a pluggable kernel backend
/// ([`crate::kernels`]); [`FirKernel::with_kernels`] pins a specific one.
#[derive(Clone, Debug)]
pub struct FirKernel {
    taps: Vec<f64>,
    /// Every tap twice, `[h0, h0, h1, h1, …]` — the layout
    /// [`CpxKernels::axpy_real`](crate::kernels::CpxKernels::axpy_real)
    /// loads two complex samples' worth of taps from.
    taps2: Vec<f64>,
    kernels: CpxKernelHandle,
}

impl FirKernel {
    /// Wraps raw coefficients.
    pub fn from_taps(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let taps2 = taps.iter().flat_map(|&h| [h, h]).collect();
        FirKernel {
            taps,
            taps2,
            kernels: kernels::active(),
        }
    }

    /// Returns this kernel pinned to a specific compute backend handle —
    /// the per-instance override used by cross-backend tests and benches.
    pub fn with_kernels(mut self, kernels: CpxKernelHandle) -> Self {
        self.kernels = kernels;
        self
    }

    /// The compute backend handle this kernel dispatches through.
    #[inline]
    pub fn kernel_backend(&self) -> CpxKernelHandle {
        self.kernels
    }

    /// Windowed-sinc low-pass design.
    ///
    /// `cutoff` is the -6 dB edge as a fraction of the sample rate
    /// (`0 < cutoff < 0.5`); `len` is the number of taps (odd lengths give a
    /// symmetric, linear-phase, integer-group-delay filter).
    pub fn lowpass(len: usize, cutoff: f64, window: Window) -> Self {
        assert!(len >= 3, "need at least 3 taps");
        assert!(cutoff > 0.0 && cutoff < 0.5, "cutoff must be in (0, 0.5)");
        let mid = (len - 1) as f64 / 2.0;
        let mut taps: Vec<f64> = (0..len)
            .map(|n| {
                let t = n as f64 - mid;
                2.0 * cutoff * sinc(2.0 * cutoff * t) * window.coeff(n, len)
            })
            .collect();
        // Normalise to unity DC gain.
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        FirKernel::from_taps(taps)
    }

    /// The filter coefficients.
    #[inline]
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Number of taps.
    #[inline]
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` when there are no taps (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Frequency response magnitude at normalised frequency `f` (cycles per
    /// sample, `|f| ≤ 0.5`). Direct DTFT evaluation; used by design tests.
    pub fn magnitude_at(&self, f: f64) -> f64 {
        let mut acc = Cpx::ZERO;
        for (n, &h) in self.taps.iter().enumerate() {
            acc += Cpx::from_angle(-std::f64::consts::TAU * f * n as f64).scale(h);
        }
        acc.abs()
    }

    /// Block convolution of a whole burst from an all-zero history:
    /// `out[n] = Σ_k h[k]·x[n−k]` for `n < x.len() + tail`, i.e. the input
    /// followed by `tail` zero samples that flush the convolution tail.
    ///
    /// Equals [`FirFilter::reset`], [`FirFilter::process`]`(x)` and `tail`
    /// pushes of zero under the scalar backend bit for bit (ascending `k`
    /// from `+0`), on every backend — the kernel is bitwise-tier.
    /// `scratch` receives the zero-padded input and `out` the result; both
    /// are cleared first, so reused buffers of sufficient capacity make
    /// repeated calls allocation-free.
    pub fn filter_block(&self, x: &[Cpx], tail: usize, scratch: &mut Vec<Cpx>, out: &mut Vec<Cpx>) {
        let t = self.taps.len();
        scratch.clear();
        scratch.resize(t - 1, Cpx::ZERO);
        scratch.extend_from_slice(x);
        scratch.resize(t - 1 + x.len() + tail, Cpx::ZERO);
        out.clear();
        out.resize(x.len() + tail, Cpx::ZERO);
        self.kernels.fir_block(scratch, &self.taps, out);
    }

    /// Accumulates the scaled impulse response onto `dst`:
    /// `dst[k] += s·h[k]`, `dst.len() == self.len()`. Bitwise identical on
    /// every backend.
    #[inline]
    pub fn add_scaled(&self, dst: &mut [Cpx], s: Cpx) {
        self.kernels.axpy_real(dst, s, &self.taps2);
    }
}

/// Streaming FIR filter with a preallocated circular delay line.
#[derive(Clone, Debug)]
pub struct FirFilter {
    kernel: FirKernel,
    /// Circular history buffer, newest sample at `pos`.
    history: Vec<Cpx>,
    pos: usize,
}

impl FirFilter {
    /// Builds a streaming filter around `kernel` with zeroed history.
    pub fn new(kernel: FirKernel) -> Self {
        let n = kernel.len();
        FirFilter {
            kernel,
            history: vec![Cpx::ZERO; n],
            pos: 0,
        }
    }

    /// The underlying kernel.
    pub fn kernel(&self) -> &FirKernel {
        &self.kernel
    }

    /// Resets the delay line to zero.
    pub fn reset(&mut self) {
        self.history.fill(Cpx::ZERO);
        self.pos = 0;
    }

    /// Pushes one input sample and returns one output sample.
    #[inline]
    pub fn push(&mut self, x: Cpx) -> Cpx {
        let n = self.history.len();
        self.pos = if self.pos == 0 { n - 1 } else { self.pos - 1 };
        self.history[self.pos] = x;
        let taps = self.kernel.taps();
        let kernels = self.kernel.kernel_backend();
        // Two contiguous runs instead of a modulo per tap; the accumulator
        // carries across the wrap so the scalar backend reproduces the
        // classic single-loop summation order exactly.
        let first = n - self.pos;
        let acc = kernels.dot_real(&self.history[self.pos..], &taps[..first], Cpx::ZERO);
        kernels.dot_real(&self.history[..self.pos], &taps[first..], acc)
    }

    /// Filters a block through the streaming state, appending to `out`.
    ///
    /// The output region is pre-sized once and written by index (the
    /// write-into-slab convention), so a reused buffer of sufficient
    /// capacity makes repeated calls allocation-free.
    pub fn process(&mut self, x: &[Cpx], out: &mut Vec<Cpx>) {
        let start = out.len();
        out.resize(start + x.len(), Cpx::ZERO);
        for (y, &s) in out[start..].iter_mut().zip(x) {
            *y = self.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowpass_has_unity_dc_gain() {
        let k = FirKernel::lowpass(63, 0.2, Window::Hamming);
        assert!((k.magnitude_at(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lowpass_attenuates_stopband() {
        let k = FirKernel::lowpass(63, 0.1, Window::Blackman);
        // Well into the stop band, the Blackman design should be below -50 dB.
        let stop = k.magnitude_at(0.25);
        assert!(stop < 10f64.powf(-50.0 / 20.0), "stopband leak {stop}");
    }

    #[test]
    fn lowpass_passband_is_flat() {
        let k = FirKernel::lowpass(101, 0.2, Window::Hamming);
        for &f in &[0.0, 0.02, 0.05, 0.08] {
            let g = k.magnitude_at(f);
            assert!((g - 1.0).abs() < 0.02, "gain {g} at {f}");
        }
    }

    #[test]
    fn impulse_response_is_taps() {
        let kernel = FirKernel::from_taps(vec![0.5, 0.25, -0.125]);
        let mut f = FirFilter::new(kernel.clone());
        let mut out = Vec::new();
        let mut input = vec![Cpx::ZERO; 5];
        input[0] = Cpx::ONE;
        f.process(&input, &mut out);
        for (i, &h) in kernel.taps().iter().enumerate() {
            assert!((out[i].re - h).abs() < 1e-12);
        }
        assert!(out[3].abs() < 1e-12 && out[4].abs() < 1e-12);
    }

    #[test]
    fn streaming_matches_block() {
        use crate::kernels::{for_backend, simd_available, Backend};
        let x: Vec<Cpx> = (0..203)
            .map(|i| Cpx::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut backends = vec![Backend::Scalar];
        if simd_available() {
            backends.push(Backend::Simd);
        }
        for taps in [1usize, 2, 21, 49] {
            let kernel = if taps < 3 {
                FirKernel::from_taps((0..taps).map(|k| 0.5 - k as f64 * 0.3).collect())
            } else {
                FirKernel::lowpass(taps, 0.15, Window::Hann)
            };
            for tail in [0usize, 1, taps] {
                let mut f =
                    FirFilter::new(kernel.clone().with_kernels(for_backend(Backend::Scalar)));
                let mut stream = Vec::new();
                f.process(&x, &mut stream);
                stream.extend((0..tail).map(|_| f.push(Cpx::ZERO)));
                for &b in &backends {
                    let (mut scratch, mut block) = (Vec::new(), Vec::new());
                    let k = kernel.clone().with_kernels(for_backend(b));
                    k.filter_block(&x, tail, &mut scratch, &mut block);
                    assert_eq!(block.len(), stream.len());
                    for (n, (a, s)) in block.iter().zip(&stream).enumerate() {
                        assert_eq!(
                            (a.re.to_bits(), a.im.to_bits()),
                            (s.re.to_bits(), s.im.to_bits()),
                            "{b:?} taps={taps} tail={tail} n={n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let kernel = FirKernel::lowpass(11, 0.2, Window::Hamming);
        let mut f = FirFilter::new(kernel);
        for i in 0..20 {
            f.push(Cpx::new(i as f64, 0.0));
        }
        f.reset();
        // After reset, an impulse reproduces tap 0 exactly.
        let y = f.push(Cpx::ONE);
        assert!((y.re - f.kernel().taps()[0]).abs() < 1e-12);
    }
}
