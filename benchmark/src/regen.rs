//! `regen_frame`: the paper's Fig. 2 regenerative chain alone — one step
//! is one `PipelineEngine::run_frame_into` (Tx burst synthesis, ADC,
//! DEMUX, DEMOD, DECOD, switch) on a one-worker engine at 12 dB Es/N0.

use crate::metrics::ratio;
use crate::round::{build_timed, check, since, CheckFailed, Digest, Mode, Round, Sizes};
use gsp_payload::chain::{ChainConfig, ChainReport};
use gsp_payload::pipeline::{frame_seed, PipelineEngine};
use std::time::Instant;

/// The chain every payload workload runs.
pub fn chain_config() -> ChainConfig {
    ChainConfig {
        esn0_db: Some(12.0),
        ..ChainConfig::default()
    }
}

pub fn round(sizes: &Sizes, seed: u64, mode: Mode) -> Result<Round, CheckFailed> {
    let mut r = Round::default();
    let registry = mode.registry();
    let mut engine = build_timed(sizes.setups, &mut r.setup_ns, || {
        let mut e = PipelineEngine::with_workers(chain_config(), 1);
        e.set_telemetry(&registry);
        e
    });

    let mut report = engine.run_frame_at(frame_seed(seed, 0), 0);
    for i in 1..sizes.regen_warm {
        engine.run_frame_into(frame_seed(seed, i), i as u64, &mut report);
    }
    engine.reset_stats();

    let mut digest = Digest::default();
    for i in sizes.regen_warm..sizes.regen_warm + sizes.regen_frames {
        let t = Instant::now();
        engine.run_frame_into(frame_seed(seed, i), i as u64, &mut report);
        r.step_ns.push(since(t));
        check_switch(&report, i)?;
        if !regenerated(&report) {
            r.failed += 1;
        }
        fold(&mut digest, &report);
    }

    let s = engine.stats();
    digest.u64(s.frames);
    r.digest = digest.finish();
    let stages = [
        ("payload.tx_synth_ns", s.tx_synth_ns),
        ("payload.tx_serial_ns", s.tx_ns),
        ("payload.demux_ns", s.demux_ns),
        ("payload.demod_ns", s.demod_ns),
        ("payload.decode_ns", s.decode_ns),
        ("payload.switch_ns", s.switch_ns),
    ];
    let frames = s.frames;
    for (layer, ns) in stages {
        r.add(layer, ns as f64);
    }
    let staged: u64 = stages.iter().map(|(_, ns)| ns).sum();
    r.add("payload.unattributed_ns", r.step_total_ns() - staged as f64);
    r.add("payload.composite_samples", s.composite_samples as f64);
    let bursts = frames * engine.config().active_carriers as u64;
    r.sim.insert(
        "sim.burst_fail_ratio",
        ratio((s.uw_misses + s.crc_failures) as f64, bursts as f64),
    );
    Ok(r)
}

/// The switch must account for every CRC-clean burst: forwarded or
/// dropped, never lost.
fn check_switch(report: &ChainReport, frame: usize) -> Result<(), CheckFailed> {
    let clean = report
        .carriers
        .iter()
        .filter(|c| c.detected && c.crc_ok)
        .count() as u64;
    let switched = report.packets_forwarded
        + report.packets_dropped_overflow
        + report.packets_dropped_no_route;
    check(clean == switched, "switch_accounting", || {
        format!("frame {frame}: {clean} CRC-clean bursts but the switch accounted for {switched}")
    })
}

/// Every burst detected, CRC-clean and bit-exact, and the DEMUX produced
/// every channel block.
fn regenerated(report: &ChainReport) -> bool {
    report.all_clean() && report.carriers.iter().all(|c| c.bit_errors == 0)
}

fn fold(digest: &mut Digest, report: &ChainReport) {
    for c in &report.carriers {
        digest.u64(c.detected as u64 | (c.crc_ok as u64) << 1);
        digest.u64(c.bit_errors as u64);
    }
    digest.u64(report.packets_forwarded);
    digest.u64(report.packets_dropped_overflow);
    digest.u64(report.packets_dropped_no_route);
    digest.u64(report.composite_samples as u64);
    digest.u64(report.demux_produced as u64);
    for bits in &report.info_bits {
        digest.bytes(bits);
    }
}
