//! Ground-contact soak bench: sweeps the pass-windowed contact plane
//! across fade regimes (calm / soak / storm, 256 frames each) and records
//! `BENCH_ground.json`.
//!
//! Each point runs [`gsp_core::scenario::ground_contact_soak`]: a forced
//! hard fault drives a golden-bitstream re-upload — sized not to fit one
//! pass — through a three-station, Doppler-derated, fade-injected contact
//! plan, while the pass scheduler drains the routine ground work over the
//! same windows. Each sweep entry records the pass utilization,
//! resume/expiry counts, loss-of-signal frame losses, the time-to-recover
//! in frame ticks, and the voice figures; the top level repeats the soak
//! point's gated numbers and the sweep's total voice drops.
//!
//! Every number is simulated-deterministic, so a regeneration without
//! `host_parallelism` must equal the committed file.

use crate::gate::{Gate, Rule::*};
use crate::report::Artefact;
use gsp_core::scenario::{ground_contact_soak, GroundSoakConfig, GroundSoakOutcome};
use gsp_ground::FadeConfig;

/// Frames per regime.
const FRAMES: u64 = 256;

/// The gated quantities of `BENCH_ground.json`: the cross-pass acceptance
/// story, and the across-passes time-to-recover in simulated ticks (so a
/// ratchet failure means scheduling, resume or expiry got slower).
pub const GATES: &[Gate] = &[
    Gate::new("upload_resumes", AtLeast(1.0)),
    Gate::new("cross_station_resume", Equals("true")).live(),
    Gate::new("voice_dropped", Equals("0")).live(),
    Gate::new("mean_pass_utilization", AtLeast(0.1)),
    Gate::new("recovery_ticks", Ratchet(1.5)),
];

/// The fade regimes, mildest first.
fn regimes() -> [(&'static str, FadeConfig); 3] {
    let storm = FadeConfig {
        cut_millis: 300,
        fade_millis: 300,
        fade_loss_millis: 450,
    };
    [
        ("calm", FadeConfig::none()),
        ("soak", FadeConfig::soak()),
        ("storm", storm),
    ]
}

fn point(label: &str, o: &GroundSoakOutcome, seed: u64) -> Artefact {
    let r = &o.report;
    let lost_contact: u64 = r
        .uploads
        .iter()
        .map(|u| u.outcome.frames_lost_contact)
        .sum();
    let expired: u64 = r
        .uploads
        .iter()
        .map(|u| u.outcome.expired_restarts as u64)
        .sum();
    Artefact::object()
        .with("label", label)
        .with("seed", seed)
        .with("frames", r.frames)
        .with("plan_windows", o.plan_windows)
        .with("duty_cycle", o.duty_cycle)
        .with("uploads", r.uploads.len())
        .with("upload_resumes", o.upload_resumes)
        .with("cross_station_resume", o.cross_station_resume)
        .with("upload_frames_lost_contact", lost_contact)
        .with("expired_restarts", expired)
        .with("uplink_sessions", r.uplink_sessions)
        .with("uplink_retransmissions", r.uplink_retransmissions)
        .with("recovery_ticks", o.recovery_ticks)
        .with("healthy_at_end", r.healthy_at_end)
        .with("ground_jobs_completed", o.ground_work.completed.len())
        .with("ground_resumes", o.ground_work.resumes_total)
        .with("mean_pass_utilization", o.ground_work.mean_utilization())
        .with("voice_offered", r.voice_offered)
        .with("voice_dropped", r.voice_dropped)
        .with("voice_rerouted", r.voice_rerouted)
}

/// Runs the fade-regime sweep.
pub fn run(seed: u64, wall: bool) -> Artefact {
    let points: Vec<(&str, GroundSoakOutcome)> = regimes()
        .into_iter()
        .map(|(label, fades)| {
            let cfg = GroundSoakConfig {
                frames: FRAMES,
                fades,
                ..GroundSoakConfig::standard()
            };
            (label, ground_contact_soak(&cfg, seed))
        })
        .collect();
    let soak = &points[1].1;
    Artefact::header(wall)
        .with("seed", seed)
        .with("upload_resumes", soak.upload_resumes)
        .with("cross_station_resume", soak.cross_station_resume)
        .with("recovery_ticks", soak.recovery_ticks)
        .with("mean_pass_utilization", soak.ground_work.mean_utilization())
        .with(
            "voice_dropped",
            points.iter().map(|(_, o)| o.voice_dropped).sum::<u64>(),
        )
        .line(
            "sweep",
            Artefact::rows(points.iter().map(|(label, o)| point(label, o, seed))),
        )
}

/// One standard soak: its recovery ticks, voice drops and cross-station
/// resume.
pub fn smoke(seed: u64) -> Artefact {
    let o = ground_contact_soak(&GroundSoakConfig::standard(), seed);
    Artefact::object()
        .with("cross_station_resume", o.cross_station_resume)
        .with("voice_dropped", o.voice_dropped)
        .with("recovery_ticks", o.recovery_ticks)
}
