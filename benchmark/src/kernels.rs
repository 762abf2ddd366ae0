//! Per-call timings of the active compute kernels and of the CDMA modem,
//! at the shapes the workloads run them:
//!
//! * Viterbi: K=9 rate-1/2, 120 trellis steps (96 info + 16 CRC + 8 tail);
//! * FFT: 8 points, the polyphase DEMUX's transform;
//! * `dot_real`: 65 taps, the RRC matched filter (span 8, 4 samples/symbol);
//! * `corr_energy`: the 24-symbol unique word;
//! * turbo: K=96, 4 iterations — on no workload path;
//! * CDMA: one `sumts(16, 3, 64)` burst, received at the personality's
//!   0 dB Es/N0 with a 64-offset acquisition search.

use crate::metrics::median;
use gsp_channel::awgn::AwgnChannel;
use gsp_coding::{kernels as trellis_kernels, ConvCode, TurboCode, TurboDecoder, ViterbiDecoder};
use gsp_dsp::fft::Fft;
use gsp_dsp::kernels as cpx_kernels;
use gsp_dsp::Cpx;
use gsp_modem::cdma::{CdmaConfig, CdmaReceiver, CdmaTransmitter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Clock time each measured batch aims for.
const BATCH: Duration = Duration::from_millis(4);
/// Batches per kernel; the median batch is reported.
const BATCHES: usize = 5;

/// The label of the process-wide kernel backend.
pub fn backend() -> &'static str {
    cpx_kernels::active().backend().label()
}

/// Median ns per call of `f`, over [`BATCHES`] batches sized to [`BATCH`].
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    f();
    let mut calls = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t.elapsed() >= BATCH / 4 || calls >= 1 << 20 {
            break;
        }
        calls *= 2;
    }
    calls *= 4;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

fn cpx(rng: &mut StdRng, n: usize) -> Vec<Cpx> {
    (0..n)
        .map(|_| Cpx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

fn llrs(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect()
}

/// Measures every kernel; inputs are drawn from `seed`.
pub fn measure(seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dsp = cpx_kernels::active();
    let mut out = Vec::new();

    let coded = llrs(&mut rng, 2 * 120);
    let mut viterbi =
        ViterbiDecoder::with_kernels(ConvCode::umts_half(), trellis_kernels::active());
    let mut bits = Vec::new();
    out.push((
        "kernels.viterbi_ns",
        per_call_ns(|| {
            viterbi.decode_into(black_box(&coded), &mut bits);
            black_box(&bits);
        }),
    ));

    let fft = Fft::with_kernels(8, dsp);
    let block = cpx(&mut rng, 8);
    let mut buf = block.clone();
    out.push((
        "kernels.fft_ns",
        per_call_ns(|| {
            buf.copy_from_slice(&block);
            fft.forward(black_box(&mut buf));
            black_box(&buf);
        }),
    ));

    let x = cpx(&mut rng, 65);
    let taps: Vec<f64> = (0..65).map(|_| rng.gen_range(-1.0..1.0)).collect();
    out.push((
        "kernels.dot_real_ns",
        per_call_ns(|| {
            black_box(dsp.dot_real(black_box(&x), &taps, Cpx::ZERO));
        }),
    ));

    let y = cpx(&mut rng, 24);
    let uw = cpx(&mut rng, 24);
    out.push((
        "kernels.corr_energy_ns",
        per_call_ns(|| {
            black_box(dsp.corr_energy(black_box(&y), &uw));
        }),
    ));

    let code = TurboCode::new(96);
    let turbo_in = llrs(&mut rng, code.coded_len());
    let mut turbo = TurboDecoder::new(code);
    out.push((
        "kernels.turbo_ns",
        per_call_ns(|| {
            turbo.decode_into(black_box(&turbo_in), 4, &mut bits);
            black_box(&bits);
        }),
    ));

    let cfg = CdmaConfig::sumts(16, 3, 64);
    let tx = CdmaTransmitter::new(cfg.clone());
    let payload: Vec<u8> = (0..cfg.payload_bits())
        .map(|_| rng.gen_range(0..2u8))
        .collect();
    out.push((
        "modem.cdma_tx_ns",
        per_call_ns(|| {
            black_box(tx.transmit(black_box(&payload)));
        }),
    ));
    let mut wave = tx.transmit(&payload);
    AwgnChannel::from_esn0_db(0.0).apply(&mut wave, &mut rng);
    let mut rx = CdmaReceiver::new(cfg);
    out.push((
        "modem.cdma_rx_ns",
        per_call_ns(|| {
            black_box(rx.demodulate(black_box(&wave), 64));
        }),
    ));
    out
}
