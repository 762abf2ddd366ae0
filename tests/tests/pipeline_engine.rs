//! Integration: the payload `PipelineEngine` — serial-vs-parallel bitwise
//! equivalence across configurations, and throughput scaling of the
//! per-carrier receive fan-out where the hardware can show it.

use gsp_modem::tdma::TimingRecoveryKind;
use gsp_payload::chain::{run_mf_tdma_frame, ChainConfig};
use gsp_payload::pipeline::PipelineEngine;
use std::time::{Duration, Instant};

fn configs() -> Vec<ChainConfig> {
    vec![
        ChainConfig::default(),
        ChainConfig {
            esn0_db: Some(14.0),
            ..ChainConfig::default()
        },
        ChainConfig {
            esn0_db: Some(6.0),
            ..ChainConfig::default()
        },
        ChainConfig {
            active_carriers: 3,
            esn0_db: Some(10.0),
            ..ChainConfig::default()
        },
        ChainConfig {
            timing: TimingRecoveryKind::Gardner,
            esn0_db: Some(14.0),
            ..ChainConfig::default()
        },
    ]
}

#[test]
fn parallel_engine_is_bitwise_identical_to_serial() {
    // The acceptance bar: for the same (cfg, seed), an engine at *every*
    // worker count 1..=8 — including counts above the active carrier
    // count, where the clamp and partial chunks kick in — must produce a
    // ChainReport identical (outcomes, switch queues, packet bytes,
    // ground-truth bits) to the fully serial path.
    for cfg in configs() {
        let mut serial = PipelineEngine::with_workers(cfg.clone(), 1);
        for workers in 2..=8usize {
            let mut parallel = PipelineEngine::with_workers(cfg.clone(), workers);
            for seed in [1u64, 17, 400] {
                let a = serial.run_frame(seed);
                let b = parallel.run_frame(seed);
                assert_eq!(a, b, "cfg {cfg:?} workers {workers} seed {seed}");
            }
        }
    }
}

#[test]
fn long_running_pool_matches_a_fresh_engine() {
    // Pool reuse must be invisible: an engine whose workers have chewed
    // through many batched frames (queues exercised, buffers recycled,
    // pipelining engaged) must keep agreeing frame-for-frame with a
    // freshly constructed engine at a different worker count.
    let cfg = ChainConfig {
        esn0_db: Some(10.0),
        ..ChainConfig::default()
    };
    let mut veteran = PipelineEngine::with_workers(cfg.clone(), 4);
    veteran.run_frames(12, 1000); // age the pool
    for seed in [5u64, 77] {
        let fresh = PipelineEngine::with_workers(cfg.clone(), 2);
        let a = veteran.run_frames(3, seed);
        let b = {
            let mut f = fresh;
            f.run_frames(3, seed)
        };
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn engine_reproduces_the_one_shot_chain() {
    // run_mf_tdma_frame is now a thin wrapper; a long-lived engine that
    // has already processed other frames must still agree with it exactly.
    let cfg = ChainConfig {
        esn0_db: Some(12.0),
        ..ChainConfig::default()
    };
    let mut engine = PipelineEngine::new(cfg.clone());
    engine.run_frames(3, 99); // dirty all per-carrier state
    for seed in [2u64, 23] {
        assert_eq!(engine.run_frame(seed), run_mf_tdma_frame(&cfg, seed));
    }
}

#[test]
fn batched_run_frames_reports_consistent_counters() {
    let cfg = ChainConfig {
        esn0_db: Some(14.0),
        ..ChainConfig::default()
    };
    let n = 5;
    let mut engine = PipelineEngine::new(cfg.clone());
    let reports = engine.run_frames(n, 7);
    let stats = engine.stats();
    assert_eq!(reports.len(), n);
    assert_eq!(stats.frames, n as u64);
    let forwarded: u64 = reports.iter().map(|r| r.packets_forwarded).sum();
    assert_eq!(stats.packets_forwarded, forwarded);
    // Every burst is accounted for exactly once.
    assert_eq!(
        stats.packets_forwarded + stats.crc_failures + stats.uw_misses,
        (n * cfg.active_carriers) as u64
    );
    // Stage timers actually ran.
    assert!(stats.tx_ns > 0 && stats.demux_ns > 0 && stats.demod_ns > 0);
}

/// The 25th percentile of `times` (the better quartile for a duration).
fn better_quartile(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[(times.len() - 1) / 4]
}

#[test]
fn parallel_fanout_speeds_up_multiframe_batches() {
    // Wall-clock comparison of the same batch, serial vs fan-out. Timing
    // asserts only make sense where the parallelism exists: on a box with
    // ≥ 4 cores the per-carrier receive fan-out must deliver a clear
    // speedup (the design bar is 2× on 4 cores; 1.5× here leaves margin
    // for CI noise). On fewer cores only the no-pathological-slowdown
    // bound is checked, since threads cannot beat serial on one core.
    //
    // A co-tenant on a shared host only ever slows a batch down, so the
    // two engines run in interleaved rounds (alternating which goes
    // first) and each side is judged by its better quartile of rounds: a
    // slow window then lands on both sides or on rounds that do not
    // count, instead of on the one batch of one side.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cfg = ChainConfig {
        esn0_db: Some(14.0),
        ..ChainConfig::default()
    };
    let (rounds, frames) = (8, 4);
    let mut serial = PipelineEngine::with_workers(cfg.clone(), 1);
    let mut parallel = PipelineEngine::with_workers(cfg.clone(), cores);
    // Warm-up: fault in code paths and allocations on both engines.
    serial.run_frame(0);
    parallel.run_frame(0);

    let (mut serial_ts, mut parallel_ts) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let seed = 5 + round as u64;
        let timed = |engine: &mut PipelineEngine, times: &mut Vec<Duration>| {
            let t0 = Instant::now();
            let report = engine.run_frames(frames, seed);
            times.push(t0.elapsed());
            report
        };
        let (a, b) = if round % 2 == 0 {
            let a = timed(&mut serial, &mut serial_ts);
            (a, timed(&mut parallel, &mut parallel_ts))
        } else {
            let b = timed(&mut parallel, &mut parallel_ts);
            (timed(&mut serial, &mut serial_ts), b)
        };
        assert_eq!(a, b, "speed must not change results (round {round})");
    }

    let serial_t = better_quartile(serial_ts);
    let parallel_t = better_quartile(parallel_ts);
    let speedup = serial_t.as_secs_f64() / parallel_t.as_secs_f64().max(1e-9);
    eprintln!(
        "pipeline fan-out: {cores} cores, {rounds} rounds of {frames} frames, \
         better-quartile serial {serial_t:?}, parallel {parallel_t:?}, speedup {speedup:.2}x"
    );
    if cores >= 4 {
        assert!(
            speedup >= 1.5,
            "{frames}-frame batch on {cores} cores only {speedup:.2}x over serial"
        );
    } else {
        // Single/dual core: the pool's overhead must stay small.
        assert!(
            speedup >= 0.5,
            "fan-out pathologically slow on {cores} cores: {speedup:.2}x"
        );
    }
}
