//! DSP substrate throughput: FIR filtering, FFT, polyphase channelizer,
//! half-band decimation — the per-sample cost floor of the Fig. 2 chain —
//! and the burst matched filter and code search of the demodulators, on
//! each kernel backend.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use gsp_dsp::beamform::{Dbfn, UniformLinearArray};
use gsp_dsp::channelizer::PolyphaseChannelizer;
use gsp_dsp::fft::Fft;
use gsp_dsp::filter::{FirFilter, FirKernel};
use gsp_dsp::halfband::{design_halfband, HalfBandDecimator};
use gsp_dsp::kernels::{for_backend, simd_available, Backend};
use gsp_dsp::pulse::RrcPulse;
use gsp_dsp::window::Window;
use gsp_dsp::Cpx;

fn test_signal(n: usize) -> Vec<Cpx> {
    (0..n)
        .map(|i| Cpx::new((i as f64 * 0.13).sin(), (i as f64 * 0.07).cos()))
        .collect()
}

fn bench_fir(c: &mut Criterion) {
    let mut g = c.benchmark_group("fir");
    let x = test_signal(16_384);
    for taps in [16usize, 33, 65] {
        let kernel = FirKernel::lowpass(taps, 0.2, Window::Hamming);
        g.throughput(Throughput::Elements(x.len() as u64));
        g.bench_function(format!("{taps}-tap"), |b| {
            let mut f = FirFilter::new(kernel.clone());
            let mut out = Vec::with_capacity(x.len());
            b.iter(|| {
                out.clear();
                f.process(&x, &mut out);
                out.len()
            });
        });
    }
    g.finish();
}

/// The backends this host can run.
fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if simd_available() {
        v.push(Backend::Simd);
    }
    v
}

/// One burst through the matched filter, in the two demodulators' shapes:
/// the CDMA receiver (49-tap RRC at 4 samples/chip over an 80-symbol SF-16
/// burst, 5168 samples, no flush) and the TDMA burst demodulator (65-tap
/// RRC, 600 samples plus a 65-sample flush). `streaming` is the
/// per-sample delay line the block kernel replaced.
fn bench_matched_filter(c: &mut Criterion) {
    let mut g = c.benchmark_group("matched_filter");
    for (name, pulse, n, tail) in [
        (
            "cdma-49tap-5168",
            RrcPulse::new(0.22, 4, 6),
            5168usize,
            0usize,
        ),
        ("tdma-65tap-600", RrcPulse::new(0.35, 4, 8), 600, 65),
    ] {
        let kernel = pulse.kernel();
        let x = test_signal(n);
        g.throughput(Throughput::Elements((n + tail) as u64));
        g.bench_function(format!("{name}/streaming"), |b| {
            let mut f = FirFilter::new(kernel.clone());
            let mut out = Vec::with_capacity(n + tail);
            b.iter(|| {
                f.reset();
                out.clear();
                f.process(&x, &mut out);
                out.extend((0..tail).map(|_| f.push(Cpx::ZERO)));
                out.len()
            });
        });
        for backend in backends() {
            let k = kernel.clone().with_kernels(for_backend(backend));
            g.bench_function(format!("{name}/block-{backend:?}"), |b| {
                let (mut scratch, mut out) = (Vec::new(), Vec::new());
                b.iter(|| {
                    k.filter_block(&x, tail, &mut scratch, &mut out);
                    out.len()
                });
            });
        }
    }
    g.finish();
}

/// The CDMA code search: 128 chips at stride 4 (samples per chip) over 64
/// candidate offsets, the waveform plane's acquisition window.
fn bench_code_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("code_search");
    let (window, chips, stride) = (64usize, 128usize, 4usize);
    let y = test_signal(window + (chips - 1) * stride);
    let code: Vec<Cpx> = (0..chips)
        .map(|k| {
            Cpx::new(
                if k % 3 == 0 { -1.0 } else { 1.0 },
                if k % 5 < 2 { -1.0 } else { 1.0 },
            )
        })
        .collect();
    g.throughput(Throughput::Elements((window * chips) as u64));
    for backend in backends() {
        let kernels = for_backend(backend);
        g.bench_function(format!("128chip-64off/{backend:?}"), |b| {
            let mut powers = vec![0.0; window];
            b.iter(|| {
                kernels.corr_power_strided(&y, &code, stride, &mut powers);
                powers[0]
            });
        });
    }
    g.finish();
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    for n in [64usize, 256, 1024, 4096] {
        let plan = Fft::new(n);
        let x = test_signal(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("{n}-pt"), |b| {
            b.iter_batched(
                || x.clone(),
                |mut buf| {
                    plan.forward(&mut buf);
                    buf[0]
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_channelizer(c: &mut Criterion) {
    let mut g = c.benchmark_group("channelizer");
    let x = test_signal(16_384);
    for m in [4usize, 8, 16] {
        g.throughput(Throughput::Elements(x.len() as u64));
        g.bench_function(format!("{m}-channel"), |b| {
            let mut chan = PolyphaseChannelizer::new(m, 12);
            let mut frame = vec![Cpx::ZERO; m];
            b.iter(|| {
                let mut frames = 0u32;
                for &s in &x {
                    if chan.push(s, &mut frame) {
                        frames += 1;
                    }
                }
                frames
            });
        });
    }
    g.finish();
}

fn bench_halfband(c: &mut Criterion) {
    let x = test_signal(16_384);
    let kernel = design_halfband(23, Window::Hamming);
    c.bench_function("halfband/decimate-by-2 (23-tap)", |b| {
        let mut dec = HalfBandDecimator::new(&kernel);
        let mut out = Vec::with_capacity(x.len() / 2 + 1);
        b.iter(|| {
            out.clear();
            dec.process(&x, &mut out);
            out.len()
        });
    });
}

fn bench_dbfn(c: &mut Criterion) {
    let mut g = c.benchmark_group("dbfn");
    for (elements, beams) in [(8usize, 4usize), (16, 8)] {
        let array = UniformLinearArray::half_wavelength(elements);
        let angles: Vec<f64> = (0..beams)
            .map(|b| -45.0 + 90.0 * b as f64 / beams as f64)
            .collect();
        let dbfn = Dbfn::conventional(array, &angles);
        let snap: Vec<Cpx> = (0..elements)
            .map(|n| Cpx::from_angle(n as f64 * 0.3))
            .collect();
        g.throughput(Throughput::Elements(1));
        g.bench_function(format!("{elements}el-{beams}beam/snapshot"), |b| {
            let mut out = vec![Cpx::ZERO; beams];
            b.iter(|| {
                dbfn.form(&snap, &mut out);
                out[0]
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fir,
    bench_matched_filter,
    bench_code_search,
    bench_fft,
    bench_channelizer,
    bench_halfband,
    bench_dbfn
);
criterion_main!(benches);
