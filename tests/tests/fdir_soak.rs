//! FDIR acceptance: the closed loop from SEU injection through
//! detection, quarantine, the recovery ladder and the lossy uplink, with
//! the traffic plane degrading gracefully the whole way.
//!
//! The headline soak runs at ten times the Table 1 SEU rate with the
//! full ladder enabled and must come out the other side: availability
//! above 0.95, nothing permanently lost, everything healthy at the end,
//! and not a single voice packet dropped while beams were quarantined
//! and recovering. The same seed with recovery disabled must be
//! strictly worse — that delta is the whole point of the plane.

use gsp_fdir::{FdirHarness, HarnessConfig, Health, RecoveryMode};
use gsp_payload::chain::ChainConfig;
use gsp_payload::pipeline::{LaneFault, PipelineEngine};

#[test]
fn accelerated_soak_meets_the_availability_bar() {
    let report = FdirHarness::new(HarnessConfig::soak(10.0), 11).run();

    assert!(
        report.total_injected() > 0,
        "10x the Table 1 rate must land faults in a 768-tick soak"
    );
    assert!(report.detections > 0, "faults must be detected");
    assert!(
        report.availability > 0.95,
        "availability {:.4} under 10x SEU rate with the full ladder",
        report.availability
    );
    assert_eq!(
        report.permanently_quarantined, 0,
        "the ladder must recover every equipment"
    );
    assert!(
        report.healthy_at_end,
        "the quiet tail must drain every recovery: {report:?}"
    );
    // Recoveries actually happened and were measured.
    assert!(!report.mttr_ticks.is_empty());
    assert!(report.mttr_p50().unwrap() <= report.mttr_p95().unwrap());
}

#[test]
fn voice_survives_beam_quarantine_without_a_single_drop() {
    let report = FdirHarness::new(HarnessConfig::soak(10.0), 11).run();
    assert!(
        report.voice_rerouted > 0,
        "a quarantined beam must have pushed voice to its backup"
    );
    assert_eq!(
        report.voice_dropped, 0,
        "voice-class drop rate must be 0% while beams recover ({} offered)",
        report.voice_offered
    );
    assert!((report.voice_drop_rate() - 0.0).abs() < f64::EPSILON);
    // Best-effort classes are the ones that paid for the outages.
    assert!(report.delivered > 0);
}

#[test]
fn disabling_recovery_is_strictly_worse_on_the_same_seed() {
    let full = FdirHarness::new(HarnessConfig::soak(10.0), 11).run();
    let none = FdirHarness::new(
        HarnessConfig::soak_with_mode(10.0, RecoveryMode::NoRecovery),
        11,
    )
    .run();

    assert!(
        none.availability < full.availability,
        "no-mitigation availability {:.4} must be below full-ladder {:.4}",
        none.availability,
        full.availability
    );
    assert!(!none.healthy_at_end, "nothing ever recovers");
    assert!(none.mttr_ticks.is_empty());
    // Scrub-only sits between the two: it fixes configuration upsets
    // but latched lane/hard faults defeat it.
    let scrub = FdirHarness::new(
        HarnessConfig::soak_with_mode(10.0, RecoveryMode::ScrubOnly),
        11,
    )
    .run();
    assert!(scrub.availability >= none.availability);
}

#[test]
fn soak_is_bitwise_deterministic_per_seed() {
    let a = FdirHarness::new(HarnessConfig::soak(10.0), 123).run();
    let b = FdirHarness::new(HarnessConfig::soak(10.0), 123).run();
    assert_eq!(a, b);
}

/// The lane-level loop on the real DSP pipeline (the soak drives the
/// traffic plane for speed; this closes the same detection contract on
/// `PipelineEngine` itself): an injected stall freezes the watchdog
/// heartbeat, an injected CRC fault trips the failure counter, and
/// clearing them restores bitwise-nominal frames.
#[test]
fn pipeline_lane_faults_are_detectable_and_recoverable() {
    let cfg = ChainConfig::default();
    let mut engine = PipelineEngine::new(cfg.clone());

    // Nominal heartbeat baseline.
    engine.run_frame(900);
    let nominal_hb = engine.lane_health(2).heartbeats;
    assert_eq!(nominal_hb, 1);

    engine.inject_lane_fault(2, LaneFault::Stall);
    engine.inject_lane_fault(3, LaneFault::CorruptCrc);
    engine.run_frame(901);

    // Watchdog view: lane 2's heartbeat froze, lane 3's CRC failures rose.
    assert_eq!(
        engine.lane_health(2).heartbeats,
        nominal_hb,
        "a stalled lane must miss its heartbeat deadline"
    );
    assert!(
        engine.lane_health(3).crc_failures > 0,
        "a corrupted CRC checker must trip the failure-rate counter"
    );

    // Recovery rung 1 (lane reset) clears both; the pipeline returns to
    // a state bitwise identical to a never-faulted engine.
    engine.clear_lane_fault(2);
    engine.clear_lane_fault(3);
    let healed = engine.run_frame(902);
    let fresh = PipelineEngine::new(cfg).run_frame(902);
    assert_eq!(healed, fresh, "a reset lane leaves no residue in the frame");
}

#[test]
fn harness_exposes_equipment_health_for_operations() {
    // A quiet harness reports everything healthy from tick zero.
    let cfg = HarnessConfig {
        rate_multiplier: 0.0,
        frames: 16,
        inject_until: 16,
        ..HarnessConfig::soak(1.0)
    };
    let mut h = FdirHarness::new(cfg, 1);
    for _ in 0..16 {
        h.step();
    }
    for eq in 0..=6 {
        assert_eq!(h.health(eq), Health::Healthy);
    }
}
