//! FDIR availability soak: sweeps the closed-loop
//! injection→detection→recovery harness across recovery policies
//! (no-mitigation / scrub-only / full ladder) and SEU regimes (the
//! Table 1 baseline and the accelerated 10× rate), 768 frames each, and
//! records `BENCH_fdir.json`.
//!
//! The top-level `"metrics"` array holds the full-ladder 10× telemetry
//! snapshot, whose `fdir.recovery.mttr` p50 is ratcheted; the `"sweep"`
//! array has one entry per (mode, rate): availability, MTTR p50/p95 in
//! frame ticks, detections, ladder escalation counts, uplink
//! session/retransmission totals and the voice-class loss figures.
//! Every number is a deterministic function of the seed, so a
//! regeneration without `host_parallelism` must equal the committed file.

use crate::gate::{Gate, Rule::*};
use crate::report::Artefact;
use gsp_fdir::{FdirHarness, HarnessConfig, RecoveryMode, SoakReport};
use gsp_telemetry::{Registry, Snapshot};

/// Frames per sweep point (injection stops 96 frames before the end so
/// the ladder can drain).
const FRAMES: u64 = 768;
/// SEU rate multipliers.
const RATES: [f64; 2] = [1.0, 10.0];
/// Recovery policies, weakest first.
const MODES: [RecoveryMode; 3] = [
    RecoveryMode::NoRecovery,
    RecoveryMode::ScrubOnly,
    RecoveryMode::FullLadder,
];

/// The gated quantities of `BENCH_fdir.json`: the full-ladder 10× MTTR,
/// in frame ticks, so a failure means detection got slower or the ladder
/// escalates where a scrub used to suffice.
pub const GATES: &[Gate] = &[Gate::new("metrics[fdir.recovery.mttr].p50", Ratchet(1.5))];

struct SweepPoint {
    mode: RecoveryMode,
    multiplier: f64,
    report: SoakReport,
    snapshot: Snapshot,
}

fn mode_name(mode: RecoveryMode) -> &'static str {
    match mode {
        RecoveryMode::NoRecovery => "none",
        RecoveryMode::ScrubOnly => "scrub",
        RecoveryMode::FullLadder => "full",
    }
}

fn run_point(mode: RecoveryMode, multiplier: f64, seed: u64) -> SweepPoint {
    let cfg = HarnessConfig {
        frames: FRAMES,
        inject_until: FRAMES - 96,
        ..HarnessConfig::soak_with_mode(multiplier, mode)
    };
    let registry = Registry::new();
    let report = FdirHarness::with_telemetry(cfg, seed, &registry).run();
    SweepPoint {
        mode,
        multiplier,
        report,
        snapshot: registry.snapshot(),
    }
}

fn point(p: &SweepPoint, seed: u64) -> Artefact {
    let r = &p.report;
    let rate = Artefact::Float(p.multiplier);
    Artefact::object()
        .with("label", format!("mode={},rate={rate}x", mode_name(p.mode)))
        .with("mode", mode_name(p.mode))
        .with("rate_multiplier", rate)
        .with("frames", r.frames)
        .with("seed", seed)
        .with("injected", r.total_injected())
        .with("detections", r.detections)
        .with("availability", r.availability)
        .with("mttr_p50", r.mttr_p50())
        .with("mttr_p95", r.mttr_p95())
        .with("recoveries", r.mttr_ticks.len())
        .with("escalations", r.escalations.to_vec())
        .with("permanently_quarantined", r.permanently_quarantined)
        .with("healthy_at_end", r.healthy_at_end)
        .with("uplink_sessions", r.uplink_sessions)
        .with("uplink_retransmissions", r.uplink_retransmissions)
        .with("uplink_failures", r.uplink_failures)
        .with("voice_offered", r.voice_offered)
        .with("voice_dropped", r.voice_dropped)
        .with("voice_rerouted", r.voice_rerouted)
        .with("delivered", r.delivered)
        .with("metrics", Artefact::metrics(&p.snapshot))
}

/// Runs the mode × rate sweep.
pub fn run(seed: u64, wall: bool) -> Artefact {
    let points: Vec<SweepPoint> = MODES
        .iter()
        .flat_map(|&mode| RATES.iter().map(move |&rate| run_point(mode, rate, seed)))
        .collect();
    let base = points.last().expect("full-ladder 10x is the last point");
    Artefact::header(wall)
        .with("seed", seed)
        .line("metrics", Artefact::metrics(&base.snapshot))
        .line(
            "sweep",
            Artefact::rows(points.iter().map(|p| point(p, seed))),
        )
}

/// The full-ladder 10× point's snapshot.
pub fn smoke(seed: u64) -> Artefact {
    let p = run_point(RecoveryMode::FullLadder, 10.0, seed);
    Artefact::object().with("metrics", Artefact::metrics(&p.snapshot))
}
