//! Property-based tests for the DSP substrate: the algebraic identities a
//! signal chain silently relies on.

use gsp_dsp::channelizer::PolyphaseChannelizer;
use gsp_dsp::codes::{Lfsr, OvsfTree};
use gsp_dsp::fft::{dft_reference, Fft};
use gsp_dsp::filter::{FirFilter, FirKernel};
use gsp_dsp::math::wrap_angle;
use gsp_dsp::resample::FarrowInterpolator;
use gsp_dsp::window::Window;
use gsp_dsp::Cpx;
use proptest::prelude::*;

fn cpx_vec(len: usize) -> impl Strategy<Value = Vec<Cpx>> {
    proptest::collection::vec(
        (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Cpx::new(re, im)),
        len..=len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fft_matches_reference_dft(x in cpx_vec(32)) {
        let plan = Fft::new(32);
        let mut got = x.clone();
        plan.forward(&mut got);
        let want = dft_reference(&x);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((*g - *w).abs() < 1e-8);
        }
    }

    #[test]
    fn fft_is_linear(a in cpx_vec(64), b in cpx_vec(64), k in -5.0f64..5.0) {
        let plan = Fft::new(64);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut combo: Vec<Cpx> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(k)).collect();
        plan.forward(&mut combo);
        for i in 0..64 {
            prop_assert!((combo[i] - (fa[i] + fb[i].scale(k))).abs() < 1e-8);
        }
    }

    #[test]
    fn fft_parseval(x in cpx_vec(128)) {
        let plan = Fft::new(128);
        let e_time: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut f = x.clone();
        plan.forward(&mut f);
        let e_freq: f64 = f.iter().map(|v| v.norm_sqr()).sum::<f64>() / 128.0;
        prop_assert!((e_time - e_freq).abs() <= 1e-7 * e_time.max(1.0));
    }

    #[test]
    fn fir_is_linear_and_time_invariant(
        x in cpx_vec(100),
        taps in proptest::collection::vec(-1.0f64..1.0, 3..12),
        shift in 1usize..20,
    ) {
        let kernel = FirKernel::from_taps(taps);
        // Linearity: filter(2x) = 2·filter(x).
        let mut f1 = FirFilter::new(kernel.clone());
        let mut f2 = FirFilter::new(kernel.clone());
        let (mut y1, mut y2) = (Vec::new(), Vec::new());
        f1.process(&x, &mut y1);
        let x2: Vec<Cpx> = x.iter().map(|v| v.scale(2.0)).collect();
        f2.process(&x2, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((b.re - 2.0 * a.re).abs() < 1e-9);
            prop_assert!((b.im - 2.0 * a.im).abs() < 1e-9);
        }
        // Time invariance: delaying the input delays the output.
        let mut f3 = FirFilter::new(kernel);
        let mut delayed_in = vec![Cpx::ZERO; shift];
        delayed_in.extend_from_slice(&x);
        let mut y3 = Vec::new();
        f3.process(&delayed_in, &mut y3);
        for i in 0..y1.len() {
            prop_assert!((y3[i + shift] - y1[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn lowpass_design_always_unity_dc(len in 2usize..40, cutoff in 0.01f64..0.49) {
        let k = FirKernel::lowpass(2 * len + 1, cutoff, Window::Hamming);
        prop_assert!((k.magnitude_at(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn farrow_exact_at_grid_points(x in cpx_vec(4)) {
        let mut f = FarrowInterpolator::new();
        for &s in &x {
            f.push(s);
        }
        prop_assert!((f.interpolate(0.0) - x[1]).abs() < 1e-9);
        prop_assert!((f.interpolate(1.0) - x[2]).abs() < 1e-9);
    }

    #[test]
    fn farrow_weight_rows_equal_direct_interpolation(x in cpx_vec(4), mu in 0.0f64..1.0) {
        // A precomputed weight row (the Tx upsampler's table) and the
        // per-call evaluation are one formula: the same bits.
        let mut f = FarrowInterpolator::new();
        for &s in &x {
            f.push(s);
        }
        let (a, b) = (f.interpolate(mu), f.interpolate_with(&FarrowInterpolator::weights(mu)));
        prop_assert_eq!((a.re.to_bits(), a.im.to_bits()), (b.re.to_bits(), b.im.to_bits()));
    }

    #[test]
    fn wrap_angle_is_idempotent_and_bounded(theta in -100.0f64..100.0) {
        let w = wrap_angle(theta);
        prop_assert!(w > -std::f64::consts::PI - 1e-12);
        prop_assert!(w <= std::f64::consts::PI + 1e-12);
        prop_assert!((wrap_angle(w) - w).abs() < 1e-12);
        // Same point on the circle.
        prop_assert!(((theta - w) / std::f64::consts::TAU).round() * std::f64::consts::TAU
            - (theta - w) < 1e-6);
    }

    #[test]
    fn ovsf_any_pair_same_sf_orthogonal(sf_log in 1u32..7, i in 0usize..64, j in 0usize..64) {
        let sf = 1usize << sf_log;
        let (i, j) = (i % sf, j % sf);
        let a = OvsfTree::code(sf, i);
        let b = OvsfTree::code(sf, j);
        let dot: i32 = a.iter().zip(&b).map(|(x, y)| (*x as i32) * (*y as i32)).sum();
        if i == j {
            prop_assert_eq!(dot, sf as i32);
        } else {
            prop_assert_eq!(dot, 0);
        }
    }

    #[test]
    fn lfsr_never_reaches_zero_state(degree in 3u32..12, seed in 1u64..200) {
        let mask = (1u64 << degree) - 1;
        let mut l = Lfsr::m_sequence(degree, (seed & mask).max(1));
        for _ in 0..2000 {
            l.next_bit();
        }
        // If the state ever hit zero it would stay there and output only
        // zeros; a window of period length must contain ones.
        let ones: u32 = (0..l.period().min(2000)).map(|_| l.next_bit() as u32).sum();
        prop_assert!(ones > 0);
    }

    #[test]
    fn window_coefficients_bounded(len in 2usize..100, kind in 0usize..4) {
        let w = [Window::Hann, Window::Hamming, Window::Blackman, Window::Kaiser(7.0)][kind];
        for c in w.build(len) {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&c));
        }
    }

    #[test]
    fn channelizer_reset_and_slab_reuse_leak_nothing(
        x in cpx_vec(256),
        garbage in cpx_vec(96),
    ) {
        // A channelizer that already demuxed unrelated input, then
        // `reset()`, must produce bit-identical output into a reused
        // (dirty) slab: neither the delay lines nor stale slab contents
        // may leak into the next frame.
        let m = 8;
        let mut fresh = PolyphaseChannelizer::new(m, 12);
        let mut want = Vec::new();
        let want_blocks = fresh.process(&x, &mut want);

        let mut reused = PolyphaseChannelizer::new(m, 12);
        let mut slab = Vec::new();
        reused.process(&garbage, &mut slab); // dirty the state and the slab
        reused.reset();
        slab.clear();
        let blocks = reused.process(&x, &mut slab);

        prop_assert_eq!(blocks, want_blocks);
        prop_assert_eq!(slab.len(), want.len());
        for (i, (a, b)) in slab.iter().zip(&want).enumerate() {
            prop_assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "sample {} differs: {:?} vs {:?}", i, a, b
            );
        }
    }
}
