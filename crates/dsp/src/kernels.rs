//! Pluggable compute kernels for the complex-baseband hot loops.
//!
//! The inner loops of the DSP side of the Fig. 2 chain and the Fig. 3 CDMA
//! modem: the real-tap complex MAC behind every FIR (streaming filters,
//! polyphase branches), the block matched filter of both demodulators, the
//! pulse-shaping accumulate of both modulators, the fused
//! correlate-and-energy step of the unique-word search, the strided code
//! correlation of CDMA acquisition, and the radix-2 FFT butterfly pass of the
//! channelizer DEMUX. Each is expressed once as a [`CpxKernels`] trait method
//! with two implementations:
//!
//! * [`ScalarCpxKernels`] — portable sequential code, the equivalence
//!   reference. Its summation order is part of its contract (left to right,
//!   one accumulator), so scalar results are reproducible everywhere.
//! * [`SimdCpxKernels`] — AVX2 (`core::arch::x86_64`) lanes, two complex
//!   samples per 256-bit vector, selected only on hosts where
//!   [`gsp_kernels::simd_available`] holds.
//!
//! Equivalence contract (DESIGN.md §11): [`CpxKernels::butterflies`],
//! [`CpxKernels::fir_block`], [`CpxKernels::corr_power_strided`] and
//! [`CpxKernels::axpy_real`] are **bitwise identical** across backends — the
//! SIMD code performs the same multiplies and adds per component, in the
//! same order, with no FMA contraction. The block kernels earn this by
//! vectorising across *outputs* rather than across the summed terms: each
//! lane owns one output and accumulates it in the scalar order. The
//! dot/energy reductions
//! ([`CpxKernels::dot_real`], [`CpxKernels::corr_energy`]) reassociate the
//! sum into lane partials and are therefore only **tolerance-bounded**
//! (relative error ≤ a few ulp × `len`); callers that require bitwise
//! reproducibility across *hosts* force the scalar backend.
//!
//! Dispatch is by `&'static dyn CpxKernels` handles: [`active`] resolves the
//! process-wide selection (env override, then feature detection) once,
//! [`for_backend`] hands out a specific backend for per-instance override —
//! that is how one process runs both backends side by side in the
//! cross-backend tests.

use crate::complex::Cpx;
pub use gsp_kernels::{selection, simd_available, Backend};

/// A `'static` dispatch handle to one backend's kernel set.
pub type CpxKernelHandle = &'static dyn CpxKernels;

/// The complex-sample kernel surface. All methods are allocation-free and
/// panic on length mismatches (programming errors, not data errors).
pub trait CpxKernels: Send + Sync + std::fmt::Debug {
    /// Which backend this implementation belongs to.
    fn backend(&self) -> Backend;

    /// `acc + Σᵢ x[i]·h[i]` — complex samples against real taps.
    ///
    /// Scalar evaluates left to right into a single accumulator; SIMD keeps
    /// two complex lane partials and combines them as
    /// `acc + lane₀ + lane₁ (+ tail terms in order)`, so results agree to
    /// rounding, not bitwise. `x.len() == h.len()` required.
    fn dot_real(&self, x: &[Cpx], h: &[f64], acc: Cpx) -> Cpx;

    /// Fused correlator step: `(Σᵢ y[i]·conj(r[i]), Σᵢ |y[i]|²)`.
    ///
    /// The scalar backend reproduces the classic fused loop bit for bit;
    /// SIMD reassociates both sums into lane partials (tolerance-bounded).
    /// `y.len() == r.len()` required.
    fn corr_energy(&self, y: &[Cpx], r: &[Cpx]) -> (Cpx, f64);

    /// The complete radix-2 DIT butterfly pass over bit-reversed `data`
    /// (all `log2 n` stages), using the plan's twiddle table
    /// `twiddles[k] = e^{-j2πk/n}` (`n/2` entries, stride `n/len` per
    /// stage); `conj` selects the inverse transform's conjugated twiddles.
    ///
    /// **Bitwise identical across backends**: per component the SIMD
    /// multiply/add sequence matches the scalar `a ± b·w` exactly.
    /// `data.len()` must be a power of two ≥ 2 and
    /// `twiddles.len() == data.len() / 2`.
    fn butterflies(&self, data: &mut [Cpx], twiddles: &[Cpx], conj: bool);

    /// Block FIR over a zero-padded input:
    /// `out[n] = Σ_{k ascending} h[k]·x[n + t − 1 − k]` with `t = h.len()`,
    /// so `x` carries `t − 1` samples of history in front of the sample
    /// aligned with `out[0]`. Every output sums from `+0` in ascending `k`
    /// — the order of a streaming delay line under the scalar
    /// [`CpxKernels::dot_real`].
    ///
    /// **Bitwise identical across backends**: SIMD lanes hold whole outputs
    /// (two per vector), never partial sums of one output.
    /// `x.len() == out.len() + h.len() − 1` required, `h` non-empty.
    fn fir_block(&self, x: &[Cpx], h: &[f64], out: &mut [Cpx]);

    /// Strided correlation power:
    /// `out[d] = |Σ_{k ascending} y[d + k·stride]·conj(c[k])|²`, each sum
    /// from `+0` — one coherent correlation per candidate offset `d`.
    ///
    /// **Bitwise identical across backends**: SIMD lanes hold the offsets
    /// `d, d+1`, each summed in the scalar order. Requires
    /// `y.len() ≥ out.len() + (c.len() − 1)·stride` when neither `out` nor
    /// `c` is empty.
    fn corr_power_strided(&self, y: &[Cpx], c: &[Cpx], stride: usize, out: &mut [f64]);

    /// Scaled accumulate against real taps: `dst[k] += s·h[k]`, with the
    /// taps given duplicated as `h2 = [h0, h0, h1, h1, …]` so one vector
    /// load covers two complex samples. `h2.len() == 2·dst.len()` required.
    ///
    /// **Bitwise identical across backends**: one multiply and one add per
    /// component, in the scalar order.
    fn axpy_real(&self, dst: &mut [Cpx], s: Cpx, h2: &[f64]);
}

/// Portable scalar backend — the equivalence reference.
#[derive(Debug)]
pub struct ScalarCpxKernels;

static SCALAR: ScalarCpxKernels = ScalarCpxKernels;

impl CpxKernels for ScalarCpxKernels {
    fn backend(&self) -> Backend {
        Backend::Scalar
    }

    fn dot_real(&self, x: &[Cpx], h: &[f64], acc: Cpx) -> Cpx {
        assert_eq!(x.len(), h.len(), "dot_real length mismatch");
        let mut acc = acc;
        for (s, &t) in x.iter().zip(h) {
            acc += s.scale(t);
        }
        acc
    }

    fn corr_energy(&self, y: &[Cpx], r: &[Cpx]) -> (Cpx, f64) {
        assert_eq!(y.len(), r.len(), "corr_energy length mismatch");
        let mut acc = Cpx::ZERO;
        let mut energy = 0.0;
        for (s, c) in y.iter().zip(r) {
            acc += s.mul_conj(*c);
            energy += s.norm_sqr();
        }
        (acc, energy)
    }

    fn butterflies(&self, data: &mut [Cpx], twiddles: &[Cpx], conj: bool) {
        let n = data.len();
        debug_assert_eq!(twiddles.len(), n / 2, "twiddle table length mismatch");
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = twiddles[k * stride];
                    if conj {
                        w = w.conj();
                    }
                    let a = data[start + k];
                    let b = data[start + k + half] * w;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }

    fn fir_block(&self, x: &[Cpx], h: &[f64], out: &mut [Cpx]) {
        let t = h.len();
        assert!(t > 0, "fir_block needs at least one tap");
        assert_eq!(x.len(), out.len() + t - 1, "fir_block length mismatch");
        // Four outputs at a time: each has its own accumulator, summed in
        // ascending k exactly as alone, and the four chains overlap.
        let done = out.len() / 4 * 4;
        let mut blocks = out.chunks_exact_mut(4);
        for (i, y) in blocks.by_ref().enumerate() {
            let mut acc = [Cpx::ZERO; 4];
            for (k, &hk) in h.iter().enumerate() {
                let w: &[Cpx; 4] = x[4 * i + t - 1 - k..][..4].try_into().unwrap();
                for (a, s) in acc.iter_mut().zip(w) {
                    *a += s.scale(hk);
                }
            }
            y.copy_from_slice(&acc);
        }
        for (y, w) in blocks.into_remainder().iter_mut().zip(x[done..].windows(t)) {
            let mut acc = Cpx::ZERO;
            for (&hk, s) in h.iter().zip(w.iter().rev()) {
                acc += s.scale(hk);
            }
            *y = acc;
        }
    }

    fn corr_power_strided(&self, y: &[Cpx], c: &[Cpx], stride: usize, out: &mut [f64]) {
        check_strided(y, c, stride, out);
        for (d, p) in out.iter_mut().enumerate() {
            let mut acc = Cpx::ZERO;
            for (k, ck) in c.iter().enumerate() {
                acc += y[d + k * stride].mul_conj(*ck);
            }
            *p = acc.norm_sqr();
        }
    }

    fn axpy_real(&self, dst: &mut [Cpx], s: Cpx, h2: &[f64]) {
        assert_eq!(h2.len(), 2 * dst.len(), "axpy_real length mismatch");
        for (d, &h) in dst.iter_mut().zip(h2.iter().step_by(2)) {
            *d += s.scale(h);
        }
    }
}

/// The length precondition of [`CpxKernels::corr_power_strided`].
fn check_strided(y: &[Cpx], c: &[Cpx], stride: usize, out: &[f64]) {
    assert!(
        out.is_empty() || c.is_empty() || y.len() >= out.len() + (c.len() - 1) * stride,
        "corr_power_strided input too short"
    );
}

/// AVX2 backend. Not publicly constructible: obtain it through
/// [`for_backend`]`(Backend::Simd)`, which asserts host support — the
/// safety precondition of every `#[target_feature]` function below.
#[derive(Debug)]
pub struct SimdCpxKernels {
    _priv: (),
}

static SIMD: SimdCpxKernels = SimdCpxKernels { _priv: () };

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 lane implementations. Layout invariant: `Cpx` is `#[repr(C)]`
    //! (re, im), so a `&[Cpx]` reinterprets as an even-length `&[f64]` with
    //! interleaved re/im — one 256-bit vector holds two complex samples.
    //!
    //! No FMA is used anywhere: each component is produced by the same
    //! multiply/add/sub sequence as the scalar code so that per-lane results
    //! round identically (the butterfly pass and the output-parallel block
    //! kernels are bitwise-equal across backends; the reductions differ only
    //! in summation order).

    use super::{Cpx, CpxKernels, ScalarCpxKernels};
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_real(x: &[Cpx], h: &[f64], acc: Cpx) -> Cpx {
        let n = x.len();
        let xs = x.as_ptr() as *const f64;
        let mut accv = _mm256_setzero_pd();
        let pairs = n / 2;
        for i in 0..pairs {
            let xv = _mm256_loadu_pd(xs.add(4 * i));
            let hv = _mm256_setr_pd(h[2 * i], h[2 * i], h[2 * i + 1], h[2 * i + 1]);
            accv = _mm256_add_pd(accv, _mm256_mul_pd(xv, hv));
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), accv);
        // Combination order is part of the backend's contract:
        // acc + lane0 + lane1, then the odd tail term.
        let mut out = acc;
        out += Cpx::new(lanes[0], lanes[1]);
        out += Cpx::new(lanes[2], lanes[3]);
        for i in 2 * pairs..n {
            out += x[i].scale(h[i]);
        }
        out
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn corr_energy(y: &[Cpx], r: &[Cpx]) -> (Cpx, f64) {
        let n = y.len();
        let ys = y.as_ptr() as *const f64;
        let rs = r.as_ptr() as *const f64;
        let neg = _mm256_set1_pd(-0.0);
        let mut corrv = _mm256_setzero_pd();
        let mut env = _mm256_setzero_pd();
        let pairs = n / 2;
        for i in 0..pairs {
            let yv = _mm256_loadu_pd(ys.add(4 * i));
            let rv = _mm256_loadu_pd(rs.add(4 * i));
            // y·conj(r): re = yr·rr + yi·ri, im = yi·rr − yr·ri.
            let rr = _mm256_movedup_pd(rv); // [rr0, rr0, rr1, rr1]
            let ri = _mm256_permute_pd(rv, 0b1111); // [ri0, ri0, ri1, ri1]
            let yswap = _mm256_permute_pd(yv, 0b0101); // [yi0, yr0, yi1, yr1]
            let t1 = _mm256_mul_pd(yv, rr); // [yr·rr, yi·rr]
            let t2 = _mm256_mul_pd(yswap, ri); // [yi·ri, yr·ri]
                                               // addsub subtracts on even lanes, adds on odd — negate t2 to get
                                               // even: t1+t2 (re), odd: t1−t2 (im).
            let prod = _mm256_addsub_pd(t1, _mm256_xor_pd(t2, neg));
            corrv = _mm256_add_pd(corrv, prod);
            env = _mm256_add_pd(env, _mm256_mul_pd(yv, yv));
        }
        let mut cl = [0.0f64; 4];
        let mut el = [0.0f64; 4];
        _mm256_storeu_pd(cl.as_mut_ptr(), corrv);
        _mm256_storeu_pd(el.as_mut_ptr(), env);
        let mut corr = Cpx::new(cl[0], cl[1]) + Cpx::new(cl[2], cl[3]);
        let mut energy = (el[0] + el[1]) + (el[2] + el[3]);
        for i in 2 * pairs..n {
            corr += y[i].mul_conj(r[i]);
            energy += y[i].norm_sqr();
        }
        (corr, energy)
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn butterflies(data: &mut [Cpx], twiddles: &[Cpx], conj: bool) {
        let n = data.len();
        let ptr = data.as_mut_ptr() as *mut f64;
        let neg_im = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            if half < 2 {
                // First stage: w = twiddles[0] = 1+0j, pure add/sub.
                for start in (0..n).step_by(len) {
                    let a = data[start];
                    let b = data[start + 1];
                    data[start] = a + b;
                    data[start + 1] = a - b;
                }
            } else {
                for start in (0..n).step_by(len) {
                    for k in (0..half).step_by(2) {
                        let w0 = twiddles[k * stride];
                        let w1 = twiddles[(k + 1) * stride];
                        let mut wv = _mm256_setr_pd(w0.re, w0.im, w1.re, w1.im);
                        if conj {
                            wv = _mm256_xor_pd(wv, neg_im);
                        }
                        let ai = start + k;
                        let bi = start + k + half;
                        let av = _mm256_loadu_pd(ptr.add(2 * ai));
                        let bv = _mm256_loadu_pd(ptr.add(2 * bi));
                        // b·w with the scalar formula per component:
                        // re = br·wr − bi·wi, im = bi·wr + br·wi.
                        let wr = _mm256_movedup_pd(wv);
                        let wi = _mm256_permute_pd(wv, 0b1111);
                        let bswap = _mm256_permute_pd(bv, 0b0101);
                        let prod =
                            _mm256_addsub_pd(_mm256_mul_pd(bv, wr), _mm256_mul_pd(bswap, wi));
                        _mm256_storeu_pd(ptr.add(2 * ai), _mm256_add_pd(av, prod));
                        _mm256_storeu_pd(ptr.add(2 * bi), _mm256_sub_pd(av, prod));
                    }
                }
            }
            len <<= 1;
        }
    }

    /// Accumulator vectors per block of the output-parallel kernels. Each
    /// is updated once per term, so its add chain is latency-bound; eight
    /// independent chains keep both add ports busy.
    const ACCS: usize = 8;
    /// Outputs per block: two complex outputs per accumulator.
    const BLOCK: usize = 2 * ACCS;

    /// # Safety
    /// Caller must ensure AVX2 is available and the `fir_block` length
    /// contract holds.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fir_block(x: &[Cpx], h: &[f64], out: &mut [Cpx]) {
        let t = h.len();
        let n = out.len();
        let xs = x.as_ptr() as *const f64;
        let os = out.as_mut_ptr() as *mut f64;
        // Lane layout: accumulator j holds [re(n0+2j), im(n0+2j),
        // re(n0+2j+1), im(n0+2j+1)]; tap k reads the two consecutive inputs
        // x[n0 + 2j + t − 1 − k ..][..2] and adds h[k]·x to each component.
        let mut n0 = 0;
        while n0 + BLOCK <= n {
            let mut acc = [_mm256_setzero_pd(); ACCS];
            for (k, &hk) in h.iter().enumerate() {
                let hv = _mm256_set1_pd(hk);
                let p = xs.add(2 * (n0 + t - 1 - k));
                for (j, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(_mm256_loadu_pd(p.add(4 * j)), hv));
                }
            }
            for (j, a) in acc.iter().enumerate() {
                _mm256_storeu_pd(os.add(2 * n0 + 4 * j), *a);
            }
            n0 += BLOCK;
        }
        while n0 + 2 <= n {
            let mut a = _mm256_setzero_pd();
            for (k, &hk) in h.iter().enumerate() {
                let p = xs.add(2 * (n0 + t - 1 - k));
                a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_loadu_pd(p), _mm256_set1_pd(hk)));
            }
            _mm256_storeu_pd(os.add(2 * n0), a);
            n0 += 2;
        }
        // The odd last output, in the same order.
        ScalarCpxKernels.fir_block(&x[n0..], h, &mut out[n0..]);
    }

    /// `acc + y·conj(c)` per complex lane, with `cr = [c.re; 4]` and
    /// `nci = [−c.im; 4]`: re = yr·cr + yi·ci, im = yi·cr − yr·ci, the
    /// scalar `mul_conj` (negating a factor negates the product exactly,
    /// and addsub subtracts on even lanes, adds on odd).
    #[inline(always)]
    unsafe fn mac_conj(acc: __m256d, yv: __m256d, cr: __m256d, nci: __m256d) -> __m256d {
        let yswap = _mm256_permute_pd(yv, 0b0101); // [yi0, yr0, yi1, yr1]
        let prod = _mm256_addsub_pd(_mm256_mul_pd(yv, cr), _mm256_mul_pd(yswap, nci));
        _mm256_add_pd(acc, prod)
    }

    /// `[re0² + im0², ·, re1² + im1², ·]` — the scalar `norm_sqr` per lane.
    #[inline(always)]
    unsafe fn norm_sqr2(a: __m256d, out: *mut f64) {
        let sq = _mm256_mul_pd(a, a);
        let mut l = [0.0f64; 4];
        _mm256_storeu_pd(l.as_mut_ptr(), _mm256_hadd_pd(sq, sq));
        *out = l[0];
        *out.add(1) = l[2];
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and the `corr_power_strided`
    /// length contract holds.
    #[target_feature(enable = "avx2")]
    pub unsafe fn corr_power_strided(y: &[Cpx], c: &[Cpx], stride: usize, out: &mut [f64]) {
        let n = out.len();
        let ys = y.as_ptr() as *const f64;
        let os = out.as_mut_ptr();
        // Lane layout: accumulator j holds the complex sums of offsets
        // d0+2j and d0+2j+1; chip k reads y[d0 + 2j + k·stride ..][..2].
        let mut d0 = 0;
        while d0 + BLOCK <= n {
            let mut acc = [_mm256_setzero_pd(); ACCS];
            for (k, ck) in c.iter().enumerate() {
                let cr = _mm256_set1_pd(ck.re);
                let nci = _mm256_set1_pd(-ck.im);
                let p = ys.add(2 * (d0 + k * stride));
                for (j, a) in acc.iter_mut().enumerate() {
                    *a = mac_conj(*a, _mm256_loadu_pd(p.add(4 * j)), cr, nci);
                }
            }
            for (j, a) in acc.iter().enumerate() {
                norm_sqr2(*a, os.add(d0 + 2 * j));
            }
            d0 += BLOCK;
        }
        while d0 + 2 <= n {
            let mut a = _mm256_setzero_pd();
            for (k, ck) in c.iter().enumerate() {
                let p = ys.add(2 * (d0 + k * stride));
                a = mac_conj(
                    a,
                    _mm256_loadu_pd(p),
                    _mm256_set1_pd(ck.re),
                    _mm256_set1_pd(-ck.im),
                );
            }
            norm_sqr2(a, os.add(d0));
            d0 += 2;
        }
        // The odd last offset, in the same order.
        ScalarCpxKernels.corr_power_strided(&y[d0..], c, stride, &mut out[d0..]);
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and
    /// `h2.len() == 2 * dst.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_real(dst: &mut [Cpx], s: Cpx, h2: &[f64]) {
        let n = dst.len();
        let ds = dst.as_mut_ptr() as *mut f64;
        let sv = _mm256_setr_pd(s.re, s.im, s.re, s.im);
        let pairs = n / 2;
        for i in 0..pairs {
            // [d0.re, d0.im, d1.re, d1.im] += [s.re, s.im, s.re, s.im]·[h0, h0, h1, h1]
            let p = ds.add(4 * i);
            let hv = _mm256_loadu_pd(h2.as_ptr().add(4 * i));
            _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), _mm256_mul_pd(sv, hv)));
        }
        ScalarCpxKernels.axpy_real(&mut dst[2 * pairs..], s, &h2[4 * pairs..]);
    }
}

impl CpxKernels for SimdCpxKernels {
    fn backend(&self) -> Backend {
        Backend::Simd
    }

    #[cfg(target_arch = "x86_64")]
    fn dot_real(&self, x: &[Cpx], h: &[f64], acc: Cpx) -> Cpx {
        assert_eq!(x.len(), h.len(), "dot_real length mismatch");
        // SAFETY: this handle is only reachable through `for_backend`/
        // `active`, both of which gate on `simd_available()`.
        unsafe { avx2::dot_real(x, h, acc) }
    }

    #[cfg(target_arch = "x86_64")]
    fn corr_energy(&self, y: &[Cpx], r: &[Cpx]) -> (Cpx, f64) {
        assert_eq!(y.len(), r.len(), "corr_energy length mismatch");
        // SAFETY: as above — the handle implies AVX2 support.
        unsafe { avx2::corr_energy(y, r) }
    }

    #[cfg(target_arch = "x86_64")]
    fn butterflies(&self, data: &mut [Cpx], twiddles: &[Cpx], conj: bool) {
        debug_assert_eq!(twiddles.len(), data.len() / 2);
        // SAFETY: as above — the handle implies AVX2 support.
        unsafe { avx2::butterflies(data, twiddles, conj) }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn dot_real(&self, x: &[Cpx], h: &[f64], acc: Cpx) -> Cpx {
        ScalarCpxKernels.dot_real(x, h, acc)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn corr_energy(&self, y: &[Cpx], r: &[Cpx]) -> (Cpx, f64) {
        ScalarCpxKernels.corr_energy(y, r)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn butterflies(&self, data: &mut [Cpx], twiddles: &[Cpx], conj: bool) {
        ScalarCpxKernels.butterflies(data, twiddles, conj)
    }

    #[cfg(target_arch = "x86_64")]
    fn fir_block(&self, x: &[Cpx], h: &[f64], out: &mut [Cpx]) {
        assert!(!h.is_empty(), "fir_block needs at least one tap");
        assert_eq!(
            x.len(),
            out.len() + h.len() - 1,
            "fir_block length mismatch"
        );
        // SAFETY: the handle implies AVX2 support; lengths checked above.
        unsafe { avx2::fir_block(x, h, out) }
    }

    #[cfg(target_arch = "x86_64")]
    fn corr_power_strided(&self, y: &[Cpx], c: &[Cpx], stride: usize, out: &mut [f64]) {
        check_strided(y, c, stride, out);
        // SAFETY: the handle implies AVX2 support; lengths checked above.
        unsafe { avx2::corr_power_strided(y, c, stride, out) }
    }

    #[cfg(target_arch = "x86_64")]
    fn axpy_real(&self, dst: &mut [Cpx], s: Cpx, h2: &[f64]) {
        assert_eq!(h2.len(), 2 * dst.len(), "axpy_real length mismatch");
        // SAFETY: the handle implies AVX2 support; lengths checked above.
        unsafe { avx2::axpy_real(dst, s, h2) }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn fir_block(&self, x: &[Cpx], h: &[f64], out: &mut [Cpx]) {
        ScalarCpxKernels.fir_block(x, h, out)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn corr_power_strided(&self, y: &[Cpx], c: &[Cpx], stride: usize, out: &mut [f64]) {
        ScalarCpxKernels.corr_power_strided(y, c, stride, out)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn axpy_real(&self, dst: &mut [Cpx], s: Cpx, h2: &[f64]) {
        ScalarCpxKernels.axpy_real(dst, s, h2)
    }
}

/// The handle for a specific backend. Panics when `Backend::Simd` is
/// requested on a host without AVX2 — forcing an unavailable backend is a
/// configuration error and fails loudly.
pub fn for_backend(backend: Backend) -> CpxKernelHandle {
    match backend {
        Backend::Scalar => &SCALAR,
        Backend::Simd => {
            assert!(
                simd_available(),
                "SIMD kernel backend requested but this host has no AVX2"
            );
            &SIMD
        }
    }
}

/// The process-wide auto-dispatched handle (see [`gsp_kernels::selection`]).
pub fn active() -> CpxKernelHandle {
    for_backend(selection().backend)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<Cpx> {
        (0..n)
            .map(|i| Cpx::new((i as f64 * 0.37).sin(), (i as f64 * 0.23).cos()))
            .collect()
    }

    #[test]
    fn scalar_dot_real_matches_naive() {
        let x = samples(13);
        let h: Vec<f64> = (0..13).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut want = Cpx::new(0.5, -0.25);
        for (s, &t) in x.iter().zip(&h) {
            want += s.scale(t);
        }
        let got = ScalarCpxKernels.dot_real(&x, &h, Cpx::new(0.5, -0.25));
        assert_eq!(got, want);
    }

    #[test]
    fn simd_dot_real_agrees_with_scalar_all_tail_shapes() {
        if !simd_available() {
            return;
        }
        let simd = for_backend(Backend::Simd);
        for n in [0usize, 1, 2, 3, 7, 8, 33] {
            let x = samples(n);
            let h: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();
            let a = ScalarCpxKernels.dot_real(&x, &h, Cpx::ZERO);
            let b = simd.dot_real(&x, &h, Cpx::ZERO);
            assert!(
                (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                "n={n}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn simd_corr_energy_agrees_with_scalar() {
        if !simd_available() {
            return;
        }
        let simd = for_backend(Backend::Simd);
        for n in [0usize, 1, 5, 24, 31] {
            let y = samples(n);
            let r: Vec<Cpx> = samples(n).iter().map(|s| s.conj()).collect();
            let (ca, ea) = ScalarCpxKernels.corr_energy(&y, &r);
            let (cb, eb) = simd.corr_energy(&y, &r);
            assert!((ca - cb).abs() <= 1e-12 * (1.0 + ca.abs()), "n={n}");
            assert!((ea - eb).abs() <= 1e-12 * (1.0 + ea.abs()), "n={n}");
        }
    }

    #[test]
    fn simd_butterflies_bitwise_matches_scalar() {
        if !simd_available() {
            return;
        }
        let simd = for_backend(Backend::Simd);
        for n in [2usize, 4, 8, 16, 64] {
            let tw: Vec<Cpx> = (0..n / 2)
                .map(|k| Cpx::from_angle(-std::f64::consts::TAU * k as f64 / n as f64))
                .collect();
            for conj in [false, true] {
                let mut a = samples(n);
                let mut b = a.clone();
                ScalarCpxKernels.butterflies(&mut a, &tw, conj);
                simd.butterflies(&mut b, &tw, conj);
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(
                        (x.re.to_bits(), x.im.to_bits()),
                        (y.re.to_bits(), y.im.to_bits()),
                        "n={n} conj={conj} idx={i}: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn active_handle_matches_selection() {
        assert_eq!(active().backend(), selection().backend);
    }
}
