//! Scalar-vs-SIMD compute-kernel equivalence, from single kernel calls
//! to the full Fig. 2 chain.
//!
//! The kernel layer's contract (DESIGN.md §11) has two tiers:
//!
//! * **bitwise** — FFT butterflies, the block FIR (both demodulators'
//!   matched filter), the strided correlation power (CDMA acquisition),
//!   the scaled accumulate (pulse shaping) and the Viterbi ACS produce
//!   identical bit patterns on both backends, so anything downstream of
//!   them (matched-filter samples, decoded bits, path metrics, survivor
//!   decisions) is backend-invariant by construction;
//! * **tolerance-bounded** — `dot_real` and `corr_energy` reassociate
//!   their sums into SIMD lane partials, so they agree to rounding, not
//!   bit patterns.
//!
//! Each SIMD assertion is gated on `simd_available()`: on a host without
//! AVX2 the tests reduce to scalar self-consistency instead of failing.
//! The proptest inputs deliberately include lengths that are not
//! multiples of the 4-lane vector width, so the tail paths are pinned
//! too, and the bitwise-tier inputs include runs of `+0.0` and `-0.0`,
//! where a reordered sum would first show a different sign of zero.

use gsp_coding::kernels as trellis_kernels;
use gsp_coding::{ConvCode, ViterbiDecoder};
use gsp_dsp::fft::Fft;
use gsp_dsp::kernels::{self as cpx_kernels, Backend};
use gsp_dsp::Cpx;
use gsp_payload::chain::{run_mf_tdma_frame, ChainConfig};
use proptest::prelude::*;

/// Largest acceptable relative error between lane-partial and strictly
/// sequential summation of a few thousand well-scaled terms.
const REASSOC_TOL: f64 = 1e-12;

fn both_backends() -> Option<(
    gsp_dsp::kernels::CpxKernelHandle,
    gsp_dsp::kernels::CpxKernelHandle,
)> {
    if !cpx_kernels::simd_available() {
        return None;
    }
    Some((
        cpx_kernels::for_backend(Backend::Scalar),
        cpx_kernels::for_backend(Backend::Simd),
    ))
}

/// A sample generator element: selector `0..=2` yields a signed zero
/// (`+0+0j`, `-0-0j`, `-0+0j`), anything else the drawn finite value, so
/// consecutive selections form runs of zeros of either sign.
type CpxDraw = (u8, f64, f64);

fn cpx_draws(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<CpxDraw>> {
    proptest::collection::vec((0u8..6, -1.0f64..1.0, -1.0f64..1.0), n)
}

fn to_cpx(draws: &[CpxDraw]) -> Vec<Cpx> {
    draws
        .iter()
        .map(|&(sel, re, im)| match sel {
            0 => Cpx::new(0.0, 0.0),
            1 => Cpx::new(-0.0, -0.0),
            2 => Cpx::new(-0.0, 0.0),
            _ => Cpx::new(re, im),
        })
        .collect()
}

/// Real taps with `+0.0` / `-0.0` mixed in.
fn to_taps(draws: &[(u8, f64)]) -> Vec<f64> {
    draws
        .iter()
        .map(|&(sel, h)| match sel {
            0 => 0.0,
            1 => -0.0,
            _ => h,
        })
        .collect()
}

fn cpx_bits(v: &[Cpx]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

proptest! {
    /// FIR inner product: SIMD lane partials agree with the sequential
    /// scalar sum to rounding for any tap count, including tails shorter
    /// than a vector.
    #[test]
    fn dot_real_matches_within_tolerance(
        pairs in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..67),
        taps in proptest::collection::vec(-1.0f64..1.0, 1..67),
    ) {
        let n = pairs.len().min(taps.len());
        let x: Vec<Cpx> = pairs[..n].iter().map(|&(re, im)| Cpx::new(re, im)).collect();
        let h = &taps[..n];
        if let Some((scalar, simd)) = both_backends() {
            let a = scalar.dot_real(&x, h, Cpx::new(0.25, -0.5));
            let b = simd.dot_real(&x, h, Cpx::new(0.25, -0.5));
            let scale = n as f64;
            prop_assert!((a.re - b.re).abs() <= REASSOC_TOL * scale, "re {} vs {}", a.re, b.re);
            prop_assert!((a.im - b.im).abs() <= REASSOC_TOL * scale, "im {} vs {}", a.im, b.im);
        }
    }

    /// UW correlator: both the complex correlation and the energy sum
    /// stay within reassociation tolerance on every length.
    #[test]
    fn corr_energy_matches_within_tolerance(
        pairs in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..67),
    ) {
        let y: Vec<Cpx> = pairs.iter().map(|&(re, im)| Cpx::new(re, im)).collect();
        let r: Vec<Cpx> = pairs
            .iter()
            .map(|&(re, im)| Cpx::new(im, -re))
            .collect();
        if let Some((scalar, simd)) = both_backends() {
            let (ca, ea) = scalar.corr_energy(&y, &r);
            let (cb, eb) = simd.corr_energy(&y, &r);
            let scale = y.len() as f64;
            prop_assert!((ca.re - cb.re).abs() <= REASSOC_TOL * scale);
            prop_assert!((ca.im - cb.im).abs() <= REASSOC_TOL * scale);
            prop_assert!((ea - eb).abs() <= REASSOC_TOL * scale);
        }
    }

    /// FFT butterflies are bitwise identical across backends, forward and
    /// inverse, at every power-of-two size the channelizer uses.
    #[test]
    fn fft_is_bitwise_identical(
        log2n in 1usize..9,
        seed_pairs in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 256),
        inverse in any::<bool>(),
    ) {
        let n = 1usize << log2n;
        let data: Vec<Cpx> = seed_pairs[..n].iter().map(|&(re, im)| Cpx::new(re, im)).collect();
        if cpx_kernels::simd_available() {
            let scalar_fft = Fft::with_kernels(n, cpx_kernels::for_backend(Backend::Scalar));
            let simd_fft = Fft::with_kernels(n, cpx_kernels::for_backend(Backend::Simd));
            let mut a = data.clone();
            let mut b = data;
            if inverse {
                scalar_fft.inverse(&mut a);
                simd_fft.inverse(&mut b);
            } else {
                scalar_fft.forward(&mut a);
                simd_fft.forward(&mut b);
            }
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.re.to_bits(), y.re.to_bits());
                prop_assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
    }

    /// Block FIR (the matched filter): SIMD lanes hold whole outputs, so
    /// every output equals the scalar ascending-tap sum bit for bit, for
    /// output counts on and off the 16-output block and 2-output pair grid.
    #[test]
    fn fir_block_is_bitwise_identical(
        xs in cpx_draws(0..90),
        hs in proptest::collection::vec((0u8..5, -1.0f64..1.0), 1..30),
    ) {
        let x = to_cpx(&xs);
        let h = to_taps(&hs);
        let h = &h[..h.len().min(x.len() + 1)];
        let mut a = vec![Cpx::ZERO; x.len() + 1 - h.len()];
        let mut b = a.clone();
        if let Some((scalar, simd)) = both_backends() {
            scalar.fir_block(&x, h, &mut a);
            simd.fir_block(&x, h, &mut b);
            prop_assert_eq!(cpx_bits(&a), cpx_bits(&b));
        }
    }

    /// Strided correlation power (the CDMA code search), at the
    /// chip-spaced stride 4 and the dense stride 1.
    #[test]
    fn corr_power_strided_is_bitwise_identical(
        cs in cpx_draws(0..40),
        offsets in 0usize..40,
        extra in 0usize..3,
        wide in 0usize..2,
        ys in cpx_draws(250..260),
    ) {
        let stride = [1usize, 4][wide];
        let c = to_cpx(&cs);
        // Exactly as long as the last offset reads, plus 0–2 spare samples.
        let need = offsets + c.len().saturating_sub(1) * stride + extra;
        let y = &to_cpx(&ys)[..need];
        let mut a = vec![0.0f64; offsets];
        let mut b = a.clone();
        if let Some((scalar, simd)) = both_backends() {
            scalar.corr_power_strided(y, &c, stride, &mut a);
            simd.corr_power_strided(y, &c, stride, &mut b);
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&a), bits(&b));
        }
    }

    /// Scaled accumulate (pulse shaping) over duplicated taps.
    #[test]
    fn axpy_real_is_bitwise_identical(
        ds in cpx_draws(0..67),
        hs in proptest::collection::vec((0u8..5, -1.0f64..1.0), 67),
        s in (0u8..6, -1.0f64..1.0, -1.0f64..1.0),
    ) {
        let mut a = to_cpx(&ds);
        let mut b = a.clone();
        let h2: Vec<f64> = to_taps(&hs[..a.len()]).iter().flat_map(|&h| [h, h]).collect();
        let s = to_cpx(&[s])[0];
        if let Some((scalar, simd)) = both_backends() {
            scalar.axpy_real(&mut a, s, &h2);
            simd.axpy_real(&mut b, s, &h2);
            prop_assert_eq!(cpx_bits(&a), cpx_bits(&b));
        }
    }

    /// Viterbi decoding (K=9 rate-1/2, the payload's code) returns
    /// identical hard decisions on both backends for arbitrary LLR
    /// sequences — a consequence of the bitwise ACS contract, so it holds
    /// at any SNR, not just where the code corrects everything.
    #[test]
    fn viterbi_bits_identical_across_backends(
        llr_seed in proptest::collection::vec(-6.0f64..6.0, 2 * (17 + 8)..2 * (97 + 8)),
    ) {
        let k = llr_seed.len() / 2 - 8;
        let llrs = &llr_seed[..2 * (k + 8)];
        if trellis_kernels::simd_available() {
            let mut scalar = ViterbiDecoder::with_kernels(
                ConvCode::umts_half(),
                trellis_kernels::for_backend(Backend::Scalar),
            );
            let mut simd = ViterbiDecoder::with_kernels(
                ConvCode::umts_half(),
                trellis_kernels::for_backend(Backend::Simd),
            );
            prop_assert_eq!(scalar.decode_block(llrs), simd.decode_block(llrs));
        }
    }
}

/// The acceptance test from the issue: the full Fig. 2 chain — composite
/// synthesis, polyphase DEMUX, burst demod, Viterbi, CRC, switch — run
/// once pinned to each backend produces identical decoded bits (and an
/// identical frame report) at link-closing SNR. The demod's FIR and UW
/// paths only match to rounding, but at 12 dB both backends decode every
/// carrier error-free, so the *bits* must agree exactly.
#[test]
fn fig2_chain_decodes_identically_on_both_backends() {
    if !cpx_kernels::simd_available() {
        eprintln!("skipping: host has no SIMD backend");
        return;
    }
    for seed in [1, 7, 1999] {
        let scalar_cfg = ChainConfig {
            esn0_db: Some(12.0),
            kernel_backend: Some(Backend::Scalar),
            ..ChainConfig::default()
        };
        let simd_cfg = ChainConfig {
            kernel_backend: Some(Backend::Simd),
            ..scalar_cfg.clone()
        };
        let scalar_report = run_mf_tdma_frame(&scalar_cfg, seed);
        let simd_report = run_mf_tdma_frame(&simd_cfg, seed);
        assert!(scalar_report.all_clean(), "scalar seed {seed}");
        assert!(simd_report.all_clean(), "simd seed {seed}");
        assert_eq!(
            scalar_report, simd_report,
            "backend-pinned frame reports diverged for seed {seed}"
        );
    }
}

/// Every unpinned kernel handle follows the one process-wide selection,
/// and `for_backend` returns handles that really identify as the backend
/// they were asked for.
#[test]
fn active_and_pinned_handles_are_consistent() {
    let sel = cpx_kernels::selection();
    assert_eq!(cpx_kernels::active().backend(), sel.backend);
    assert_eq!(trellis_kernels::active().backend(), sel.backend);
    assert_eq!(
        cpx_kernels::for_backend(Backend::Scalar).backend(),
        Backend::Scalar
    );
    assert_eq!(
        trellis_kernels::for_backend(Backend::Scalar).backend(),
        Backend::Scalar
    );
    if cpx_kernels::simd_available() {
        assert_eq!(
            cpx_kernels::for_backend(Backend::Simd).backend(),
            Backend::Simd
        );
        assert_eq!(
            trellis_kernels::for_backend(Backend::Simd).backend(),
            Backend::Simd
        );
    }
}
