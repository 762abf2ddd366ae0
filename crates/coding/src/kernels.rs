//! Pluggable compute kernels for the trellis hot loop.
//!
//! The Viterbi decode of the Fig. 2 chain is dominated by the
//! add-compare-select sweep over the 256-state K=9 trellis, expressed
//! through the [`TrellisKernels`] trait with a portable scalar backend and
//! an AVX2 backend. Like every kernel, it follows the process-wide
//! [`gsp_kernels::selection`] unless a handle is pinned with
//! [`for_backend`]. (The 8-state max-log-MAP recursions of the turbo
//! decoder run scalar in `crate::turbo`: an AVX2 version measured 0.83× of
//! scalar, and a vector kernel that loses on the bench host is deleted.)
//!
//! Equivalence contract (DESIGN.md §11): **the trellis kernels are bitwise
//! identical across backends.** The SIMD code performs, per state, exactly
//! the per-lane IEEE operations of the scalar code — same operand order, no
//! FMA contraction, ties resolved by the same strict `>` comparison
//! (`_mm_cmp` + blend, never `maxpd`) — so path metrics and decisions match
//! bit for bit.
//!
//! ### Predecessor-form ACS
//!
//! The classic successor-form sweep ("for each state, scatter into its two
//! successors") serialises on the scatter. Both backends here use the
//! predecessor form instead: for the feed-forward shift-register codes of
//! `crate::conv`, the two predecessors of state `ns` are `2j` and `2j+1`
//! with `j = ns mod 2^(K-2)`, and the transition input bit is the MSB of
//! `ns` — so `metrics_next[ns] = max(metrics[2j] + bm[o₀], metrics[2j+1] +
//! bm[o₁])` is a pure gather, four states per AVX2 vector. The survivor
//! byte keeps its historical meaning (the winning predecessor's parity).

pub use gsp_kernels::{selection, simd_available, Backend};

/// A `'static` dispatch handle to one backend's trellis kernel set.
pub type TrellisKernelHandle = &'static dyn TrellisKernels;

/// The trellis kernel surface of [`crate::ViterbiDecoder`]. All methods
/// are allocation-free; length mismatches are programming errors and panic.
pub trait TrellisKernels: Send + Sync + std::fmt::Debug {
    /// Which backend this implementation belongs to.
    fn backend(&self) -> Backend;

    /// One predecessor-form ACS step.
    ///
    /// For `ns` in `0..limit` (with `half = metrics.len()/2`, `j = ns mod
    /// half`): `c₀ = metrics[2j] + bm[out0[ns]]`, `c₁ = metrics[2j+1] +
    /// bm[out1[ns]]`; `metrics_next[ns]` takes the larger (ties favour the
    /// even predecessor, matching the historical strict-`>` scan order) and
    /// `decisions[ns]` records the winner's parity. `metrics_next[limit..]`
    /// is filled with `f64::NEG_INFINITY` (tail steps drive only the lower
    /// half); `decisions[limit..]` is left untouched. Unreachable states
    /// carry `−∞` metrics and propagate them exactly (`−∞ + bm = −∞`).
    #[allow(clippy::too_many_arguments)]
    fn viterbi_acs(
        &self,
        metrics: &[f64],
        bm: &[f64],
        out0: &[i32],
        out1: &[i32],
        limit: usize,
        metrics_next: &mut [f64],
        decisions: &mut [u8],
    );
}

// ---------------------------------------------------------------------------
// Scalar backend
// ---------------------------------------------------------------------------

/// Portable scalar backend — the equivalence reference.
#[derive(Debug)]
pub struct ScalarTrellisKernels;

static SCALAR: ScalarTrellisKernels = ScalarTrellisKernels;

#[allow(clippy::too_many_arguments)]
fn viterbi_acs_scalar(
    metrics: &[f64],
    bm: &[f64],
    out0: &[i32],
    out1: &[i32],
    limit: usize,
    metrics_next: &mut [f64],
    decisions: &mut [u8],
) {
    let half = metrics.len() / 2;
    for ns in 0..limit {
        let j = ns & (half - 1);
        let c0 = metrics[2 * j] + bm[out0[ns] as usize];
        let c1 = metrics[2 * j + 1] + bm[out1[ns] as usize];
        if c1 > c0 {
            metrics_next[ns] = c1;
            decisions[ns] = 1;
        } else {
            metrics_next[ns] = c0;
            decisions[ns] = 0;
        }
    }
    for m in &mut metrics_next[limit..] {
        *m = f64::NEG_INFINITY;
    }
}

impl TrellisKernels for ScalarTrellisKernels {
    fn backend(&self) -> Backend {
        Backend::Scalar
    }

    fn viterbi_acs(
        &self,
        metrics: &[f64],
        bm: &[f64],
        out0: &[i32],
        out1: &[i32],
        limit: usize,
        metrics_next: &mut [f64],
        decisions: &mut [u8],
    ) {
        viterbi_acs_scalar(metrics, bm, out0, out1, limit, metrics_next, decisions);
    }
}

// ---------------------------------------------------------------------------
// AVX2 backend
// ---------------------------------------------------------------------------

/// AVX2 backend. Not publicly constructible: obtain it through
/// [`for_backend`]`(Backend::Simd)`, which asserts host support — the
/// safety precondition of every `#[target_feature]` function below.
#[derive(Debug)]
pub struct SimdTrellisKernels {
    _priv: (),
}

static SIMD: SimdTrellisKernels = SimdTrellisKernels { _priv: () };

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 lane implementations. Every per-state operation mirrors the
    //! scalar code exactly: plain `add_pd` (no FMA), decisions by
    //! `cmp_pd(GT_OQ)` + `blendv` so ties keep the even candidate just like
    //! the scalar strict `>` — the bitwise-equality contract.

    use core::arch::x86_64::*;

    /// Deinterleaves eight consecutive f64 (four predecessor pairs) into
    /// (even, odd) vectors.
    #[inline(always)]
    unsafe fn deinterleave(p: *const f64) -> (__m256d, __m256d) {
        let lo = _mm256_loadu_pd(p);
        let hi = _mm256_loadu_pd(p.add(4));
        let t0 = _mm256_permute2f128_pd(lo, hi, 0x20);
        let t1 = _mm256_permute2f128_pd(lo, hi, 0x31);
        (_mm256_unpacklo_pd(t0, t1), _mm256_unpackhi_pd(t0, t1))
    }

    /// `if c1 > c0 { c1 } else { c0 }` per lane, plus the comparison mask.
    #[inline(always)]
    unsafe fn pick(c0: __m256d, c1: __m256d) -> (__m256d, __m256d) {
        let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(c1, c0);
        (_mm256_blendv_pd(c0, c1, gt), gt)
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn viterbi_acs(
        metrics: &[f64],
        bm: &[f64],
        out0: &[i32],
        out1: &[i32],
        limit: usize,
        metrics_next: &mut [f64],
        decisions: &mut [u8],
    ) {
        let half = metrics.len() / 2;
        if half < 4 {
            super::viterbi_acs_scalar(metrics, bm, out0, out1, limit, metrics_next, decisions);
            return;
        }
        debug_assert_eq!(limit % half, 0, "limit must be a whole number of halves");
        let mp = metrics.as_ptr();
        let bp = bm.as_ptr();
        for base in (0..limit).step_by(half) {
            for jc in (0..half).step_by(4) {
                let (even, odd) = deinterleave(mp.add(2 * jc));
                let ns = base + jc;
                let i0 = _mm_loadu_si128(out0.as_ptr().add(ns) as *const __m128i);
                let i1 = _mm_loadu_si128(out1.as_ptr().add(ns) as *const __m128i);
                let b0 = _mm256_i32gather_pd::<8>(bp, i0);
                let b1 = _mm256_i32gather_pd::<8>(bp, i1);
                let c0 = _mm256_add_pd(even, b0);
                let c1 = _mm256_add_pd(odd, b1);
                let (win, gt) = pick(c0, c1);
                _mm256_storeu_pd(metrics_next.as_mut_ptr().add(ns), win);
                let mask = _mm256_movemask_pd(gt) as u32;
                decisions[ns] = (mask & 1) as u8;
                decisions[ns + 1] = ((mask >> 1) & 1) as u8;
                decisions[ns + 2] = ((mask >> 2) & 1) as u8;
                decisions[ns + 3] = ((mask >> 3) & 1) as u8;
            }
        }
        for m in &mut metrics_next[limit..] {
            *m = f64::NEG_INFINITY;
        }
    }
}

impl TrellisKernels for SimdTrellisKernels {
    fn backend(&self) -> Backend {
        Backend::Simd
    }

    #[cfg(target_arch = "x86_64")]
    fn viterbi_acs(
        &self,
        metrics: &[f64],
        bm: &[f64],
        out0: &[i32],
        out1: &[i32],
        limit: usize,
        metrics_next: &mut [f64],
        decisions: &mut [u8],
    ) {
        // SAFETY: this handle is only reachable through `for_backend`/
        // `active`, both of which gate on `simd_available()`.
        unsafe { avx2::viterbi_acs(metrics, bm, out0, out1, limit, metrics_next, decisions) }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn viterbi_acs(
        &self,
        metrics: &[f64],
        bm: &[f64],
        out0: &[i32],
        out1: &[i32],
        limit: usize,
        metrics_next: &mut [f64],
        decisions: &mut [u8],
    ) {
        viterbi_acs_scalar(metrics, bm, out0, out1, limit, metrics_next, decisions);
    }
}

/// The handle for a specific backend. Panics when `Backend::Simd` is
/// requested on a host without AVX2 — forcing an unavailable backend is a
/// configuration error and fails loudly.
pub fn for_backend(backend: Backend) -> TrellisKernelHandle {
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
pub fn active() -> TrellisKernelHandle {
    for_backend(selection().backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn simd_viterbi_acs_bitwise_matches_scalar() {
        if !simd_available() {
            return;
        }
        let simd = for_backend(Backend::Simd);
        let mut rng = StdRng::seed_from_u64(77);
        for &(n_states, n_out) in &[(4usize, 2usize), (8, 2), (256, 2), (256, 3)] {
            let half = n_states / 2;
            let out0: Vec<i32> = (0..n_states)
                .map(|_| rng.gen_range(0..1i32 << n_out))
                .collect();
            let out1: Vec<i32> = (0..n_states)
                .map(|_| rng.gen_range(0..1i32 << n_out))
                .collect();
            let bm: Vec<f64> = (0..1 << n_out).map(|_| rng.gen_range(-9.0..9.0)).collect();
            let mut metrics: Vec<f64> = (0..n_states).map(|_| rng.gen_range(-50.0..50.0)).collect();
            // Sprinkle unreachable states.
            for _ in 0..n_states / 4 {
                let i = rng.gen_range(0..n_states);
                metrics[i] = f64::NEG_INFINITY;
            }
            for &limit in &[n_states, half] {
                let mut next_a = vec![0.0; n_states];
                let mut next_b = vec![0.0; n_states];
                let mut dec_a = vec![0u8; n_states];
                let mut dec_b = vec![0u8; n_states];
                ScalarTrellisKernels.viterbi_acs(
                    &metrics,
                    &bm,
                    &out0,
                    &out1,
                    limit,
                    &mut next_a,
                    &mut dec_a,
                );
                simd.viterbi_acs(&metrics, &bm, &out0, &out1, limit, &mut next_b, &mut dec_b);
                for i in 0..n_states {
                    assert_eq!(
                        next_a[i].to_bits(),
                        next_b[i].to_bits(),
                        "metric n={n_states} limit={limit} i={i}"
                    );
                }
                assert_eq!(dec_a, dec_b, "decisions n={n_states} limit={limit}");
            }
        }
    }
}
