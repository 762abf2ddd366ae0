//! Telemetry-driven payload benchmark: sweeps the Fig. 2 pipeline engine
//! across 1/2/4/8 workers (32 frames at 12 dB per point) and records the
//! run as `BENCH_payload.json`, the perf-trajectory artefact.
//!
//! The top-level `"metrics"` array holds the 1-worker snapshot (what the
//! frame-p50 ratchet compares against); the `"sweep"` array has one entry
//! per worker count, each run on its own engine and registry so its
//! `payload.workers` gauge reflects that point's actual worker count.
//!
//! The `"kernels"` section is the compute-kernel backend matrix. Its
//! `"matrix"` rows micro-bench each vector kernel (FIR dot, UW
//! correlate-and-energy, FFT butterflies, Viterbi ACS) once per backend
//! on identical inputs; its `"e2e"` rows re-run the 1-worker
//! engine with the receive chain pinned to each backend
//! (`ChainConfig::kernel_backend`). `"decode_speedup"` is the
//! scalar/SIMD ratio of `payload.decode.ns` p50, gated when
//! `"host_simd"` is true. On a host without the required CPU features
//! the SIMD columns are `null`.
//!
//! The `"scaling"` summary holds the **measured** last/first
//! frames-per-second ratio and the **modeled** ratio — the Amdahl bound
//! from the 1-worker point's own stage-sum histograms (serial =
//! `payload.tx.ns` + `payload.switch.ns`; parallel =
//! `payload.tx.synth.ns` + `payload.demux.ns` + `payload.demod.ns` +
//! `payload.decode.ns`, the DEMUX counting as parallel because it runs on
//! the pool in one block range per worker).
//! The modeled ratio captures the architecture's parallel fraction on
//! any host; the measured ratio only reflects it when the host has the
//! cores, so its gate applies only when `"host_parallelism"` ≥ 8.
//!
//! Every field is a wall-clock measurement, so `wall = false` drops only
//! the `host_parallelism` header.

use crate::gate::{Gate, Rule::*};
use crate::report::{amdahl, Artefact};
use gsp_coding::{kernels as trellis_kernels, ConvCode, ViterbiDecoder};
use gsp_dsp::fft::Fft;
use gsp_dsp::kernels::{self as cpx_kernels, Backend, CpxKernelHandle};
use gsp_dsp::Cpx;
use gsp_payload::chain::ChainConfig;
use gsp_payload::pipeline::PipelineEngine;
use gsp_telemetry::{Registry, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Frames per sweep point.
const FRAMES: usize = 32;
/// Frames of each backend-pinned e2e point.
const E2E_FRAMES: usize = 8;
/// Frames of the live smoke run.
const SMOKE_FRAMES: usize = 8;
/// Worker counts swept; the first is the gated baseline.
const WORKERS: [usize; 4] = [1, 2, 4, 8];
/// Composite Es/N0 (dB).
const ESN0_DB: f64 = 12.0;

/// The gated quantities of `BENCH_payload.json`.
pub const GATES: &[Gate] = &[
    Gate::new("metrics[payload.frame.ns].p50", Ratchet(1.5)),
    // 2.5, not 3.0: the SIMD kernels shrink the parallelizable
    // demod/decode time more than the serial residue, lowering the bound.
    Gate::new("scaling.modeled_ratio", AtLeast(2.5)).live(),
    Gate::new("scaling.measured_ratio", AtLeast(2.5)).when("host_parallelism", AtLeast(8.0)),
    Gate::new("kernels.decode_speedup", AtLeast(1.5)).when("kernels.host_simd", Equals("true")),
];

/// One worker-sweep measurement.
struct SweepPoint {
    /// Worker count requested.
    requested: usize,
    /// Effective worker count (the engine caps at one per active carrier).
    workers: usize,
    frames: usize,
    wall_ns: u64,
    frames_per_sec: f64,
    msamples_per_sec: f64,
    snapshot: Snapshot,
}

impl SweepPoint {
    fn label(&self) -> String {
        format!("workers={}", self.requested)
    }

    fn p50(&self, name: &str) -> u64 {
        self.snapshot.histogram(name).map_or(0, |h| h.p50)
    }

    /// Per-frame serial and parallelizable stage nanoseconds, from the
    /// stage-sum histograms. The DEMUX is parallel: it runs on the pool
    /// in one block range per worker.
    fn stage_split(&self) -> Option<(f64, f64)> {
        let sum = |name: &str| self.snapshot.histogram(name).map(|h| h.sum);
        let serial = sum("payload.tx.ns")? + sum("payload.switch.ns")?;
        let parallel = sum("payload.tx.synth.ns")?
            + sum("payload.demux.ns")?
            + sum("payload.demod.ns")?
            + sum("payload.decode.ns")?;
        if self.frames == 0 {
            return None;
        }
        let f = self.frames as f64;
        Some((serial as f64 / f, parallel as f64 / f))
    }
}

/// Median-of-runs nanosecond cost of one call to `f` (after one warmup
/// call), amortised over `reps` calls per run.
fn time_ns<F: FnMut()>(mut f: F, reps: usize) -> u64 {
    f();
    let mut runs: Vec<u64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            (t0.elapsed().as_nanos() as u64) / reps.max(1) as u64
        })
        .collect();
    runs.sort_unstable();
    runs[runs.len() / 2]
}

fn random_cpx(rng: &mut StdRng, n: usize) -> Vec<Cpx> {
    (0..n)
        .map(|_| Cpx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Micro-benches one compute-kernel workload under `handle`.
fn bench_cpx_kernel(kernel: &str, handle: CpxKernelHandle, rng: &mut StdRng) -> u64 {
    match kernel {
        "dsp.dot_real" => {
            // FIR inner product: 48 taps slid across a 4096-sample window,
            // the matched-filter shape of the Fig. 2 lanes.
            let x = random_cpx(rng, 4096 + 48);
            let h: Vec<f64> = (0..48).map(|_| rng.gen_range(-1.0..1.0)).collect();
            time_ns(
                || {
                    let mut acc = Cpx::ZERO;
                    for pos in 0..4096 {
                        acc = handle.dot_real(&x[pos..pos + 48], &h, acc);
                    }
                    black_box(acc);
                },
                8,
            )
        }
        "dsp.corr_energy" => {
            // UW search: a 24-symbol reference correlated at 4096 offsets.
            let y = random_cpx(rng, 4096 + 24);
            let r = random_cpx(rng, 24);
            time_ns(
                || {
                    let mut best = 0.0f64;
                    for pos in 0..4096 {
                        let (acc, energy) = handle.corr_energy(&y[pos..pos + 24], &r);
                        best = best.max(acc.norm_sqr() * energy);
                    }
                    black_box(best);
                },
                8,
            )
        }
        "dsp.fft" => {
            // The channelizer-sized transform, batched.
            let fft = Fft::with_kernels(256, handle);
            let seed_buf = random_cpx(rng, 256);
            let mut buf = seed_buf.clone();
            time_ns(
                || {
                    for _ in 0..128 {
                        buf.copy_from_slice(&seed_buf);
                        fft.forward(&mut buf);
                        black_box(buf[0]);
                    }
                },
                8,
            )
        }
        other => unreachable!("unknown cpx kernel {other}"),
    }
}

/// Micro-benches one trellis-kernel workload under the backend's handle.
fn bench_trellis_kernel(kernel: &str, backend: Backend, rng: &mut StdRng) -> u64 {
    let handle = trellis_kernels::for_backend(backend);
    match kernel {
        "coding.viterbi" => {
            // The pipeline's decode shape: K=9 rate-1/2, 120 info bits.
            let k = 120;
            let code = ConvCode::umts_half();
            let llrs: Vec<f64> = (0..2 * (k + 8)).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let mut dec = ViterbiDecoder::with_kernels(code, handle);
            let mut out = Vec::new();
            time_ns(
                || {
                    dec.decode_into(&llrs, &mut out);
                    black_box(out.len());
                },
                16,
            )
        }
        other => unreachable!("unknown trellis kernel {other}"),
    }
}

/// Times one kernel under `backend`, reseeding the input generator so
/// both backends see identical inputs.
fn bench_kernel(kernel: &str, backend: Backend, seed: u64) -> u64 {
    let rng = &mut StdRng::seed_from_u64(seed);
    if kernel.starts_with("dsp.") {
        bench_cpx_kernel(kernel, cpx_kernels::for_backend(backend), rng)
    } else {
        bench_trellis_kernel(kernel, backend, rng)
    }
}

/// The per-kernel backend matrix rows (scalar always; SIMD when the
/// host supports it).
fn kernel_matrix(seed: u64, simd: bool) -> Artefact {
    let kernels = [
        "dsp.dot_real",
        "dsp.corr_energy",
        "dsp.fft",
        "coding.viterbi",
    ];
    Artefact::rows(kernels.iter().map(|&kernel| {
        let scalar_ns = bench_kernel(kernel, Backend::Scalar, seed);
        let simd_ns = simd.then(|| bench_kernel(kernel, Backend::Simd, seed));
        Artefact::object()
            .with("kernel", kernel)
            .with("scalar_ns", scalar_ns)
            .with("simd_ns", simd_ns)
            .with(
                "speedup",
                simd_ns.map(|s| scalar_ns as f64 / s.max(1) as f64),
            )
    }))
}

fn run_point(cfg: &ChainConfig, requested: usize, frames: usize, seed: u64) -> SweepPoint {
    let mut engine = PipelineEngine::with_workers(cfg.clone(), requested);
    let registry = Registry::new();
    engine.set_telemetry(&registry);
    let t0 = Instant::now();
    let reports = engine.run_frames(frames, seed);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let samples: u64 = reports.iter().map(|r| r.composite_samples as u64).sum();
    let wall_s = (wall_ns as f64 / 1e9).max(1e-12);
    let frames_per_sec = frames as f64 / wall_s;
    let msamples_per_sec = samples as f64 / wall_s / 1e6;
    registry.gauge("payload.frames_per_sec").set(frames_per_sec);
    registry
        .gauge("payload.msamples_per_sec")
        .set(msamples_per_sec);
    SweepPoint {
        requested,
        workers: engine.workers(),
        frames,
        wall_ns,
        frames_per_sec,
        msamples_per_sec,
        snapshot: registry.snapshot(),
    }
}

fn config() -> ChainConfig {
    ChainConfig {
        esn0_db: Some(ESN0_DB),
        ..ChainConfig::default()
    }
}

/// Runs the sweep, the kernel matrix and the pinned e2e points.
pub fn run(seed: u64, wall: bool) -> Artefact {
    let cfg = config();
    let points: Vec<SweepPoint> = WORKERS
        .iter()
        .map(|&w| run_point(&cfg, w, FRAMES, seed))
        .collect();
    let (base, top) = (&points[0], &points[points.len() - 1]);
    let (serial_pf, parallel_pf) = base.stage_split().unwrap_or((0.0, 0.0));
    let scaling = Artefact::object()
        .with("baseline", base.label())
        .with("top", top.label())
        .with("workers", top.workers)
        .with(
            "measured_ratio",
            top.frames_per_sec / base.frames_per_sec.max(1e-12),
        )
        .with("modeled_ratio", amdahl(serial_pf, parallel_pf, top.workers))
        .with("serial_ns_per_frame", serial_pf)
        .with("parallel_ns_per_frame", parallel_pf);

    let host_simd = cpx_kernels::simd_available();
    let matrix = kernel_matrix(seed, host_simd);
    let backends: &[Backend] = if host_simd {
        &[Backend::Scalar, Backend::Simd]
    } else {
        &[Backend::Scalar]
    };
    let e2e: Vec<(Backend, SweepPoint)> = backends
        .iter()
        .map(|&b| {
            let pinned = ChainConfig {
                kernel_backend: Some(b),
                ..cfg.clone()
            };
            (b, run_point(&pinned, 1, E2E_FRAMES, seed))
        })
        .collect();
    let speedup = |name: &str| {
        let simd = e2e.iter().find(|(b, _)| *b == Backend::Simd)?;
        Some(e2e[0].1.p50(name) as f64 / simd.1.p50(name).max(1) as f64)
    };
    let kernels = Artefact::object()
        .with("host_simd", host_simd)
        .with("selected", cpx_kernels::active().backend().label())
        .with("decode_speedup", speedup("payload.decode.ns"))
        .with("frame_speedup", speedup("payload.frame.ns"))
        .line("matrix", matrix)
        .line(
            "e2e",
            Artefact::rows(e2e.iter().map(|(b, p)| {
                Artefact::object()
                    .with("backend", b.label())
                    .with("frames", p.frames)
                    .with("decode_ns_p50", p.p50("payload.decode.ns"))
                    .with("demod_ns_p50", p.p50("payload.demod.ns"))
                    .with("frame_ns_p50", p.p50("payload.frame.ns"))
            })),
        );

    let sweep = Artefact::rows(points.iter().map(|p| {
        Artefact::object()
            .with("label", p.label())
            .with("workers_requested", p.requested)
            .with("workers", p.workers)
            .with("frames", p.frames)
            .with("wall_ns", p.wall_ns)
            .with("frames_per_sec", p.frames_per_sec)
            .with("msamples_per_sec", p.msamples_per_sec)
            .with("metrics", Artefact::metrics(&p.snapshot))
    }));
    Artefact::header(wall)
        .line("scaling", scaling)
        .line("kernels", kernels)
        .line("metrics", Artefact::metrics(&base.snapshot))
        .line("sweep", sweep)
}

/// A short 1-worker run: its frame p50 and its own modeled scaling ratio
/// (so a serial-stage regression fails on any host), with the serial and
/// parallel sides it was modeled from.
pub fn smoke(seed: u64) -> Artefact {
    let cfg = config();
    let top_workers = cfg.active_carriers.min(WORKERS[WORKERS.len() - 1]);
    let p = run_point(&cfg, 1, SMOKE_FRAMES, seed);
    let split = p.stage_split();
    let scaling = Artefact::object()
        .with(
            "modeled_ratio",
            split.map(|(serial, parallel)| amdahl(serial, parallel, top_workers)),
        )
        .with("serial_ns_per_frame", split.map(|(serial, _)| serial))
        .with("parallel_ns_per_frame", split.map(|(_, parallel)| parallel));
    Artefact::object()
        .with("scaling", scaling)
        .with("metrics", Artefact::metrics(&p.snapshot))
}
