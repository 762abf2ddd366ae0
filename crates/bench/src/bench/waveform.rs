//! Live hot-swap benchmark: runs 8 in-orbit waveform exchanges under load
//! (the `waveform_swap_soak` scenario — FDIR harness offering 1.0×
//! traffic and injecting SEUs while the carrier swaps CDMA↔MF-TDMA, 64
//! frames each) and records `BENCH_waveform.json`: per-swap
//! `interruption_ms`, its p50/p99, peak frames in flight during the
//! window, and the voice packets dropped anywhere in any event.
//!
//! One extra event scripts a waveform-processor fault mid-window, so the
//! rollback path's interruption cost is committed alongside the commit
//! path's.
//!
//! Every number is simulated time or a packet count, deterministic in the
//! seed, so a regeneration without `host_parallelism` must equal the
//! committed file.

use crate::gate::{Gate, Rule::*};
use crate::report::Artefact;
use gsp_core::scenario::{waveform_swap_soak, WaveformSwapSoakConfig, WaveformSwapSoakOutcome};
use gsp_waveform::WaveformDescriptor;

/// Clean swap events.
const EVENTS: u64 = 8;
/// Frames per event.
const FRAMES: u64 = 64;

/// The gated quantities of `BENCH_waveform.json`. The interruption is
/// simulated time, so a ratchet failure means the swap protocol itself
/// got slower (more trial frames, a wider window), not the runner.
pub const GATES: &[Gate] = &[
    Gate::new("interruption_ms.p50", Ratchet(1.5)),
    Gate::new("voice_dropped", Equals("0")).live(),
    Gate::new("swaps[*].voice_dropped", Equals("0")).live(),
    Gate::new("swaps[*].committed", Equals("true")).live(),
    Gate::new("rollback.rolled_back", Equals("true")),
];

/// One swap event of the batch.
struct Event {
    label: String,
    outcome: WaveformSwapSoakOutcome,
}

/// Nearest-rank percentile of a pre-sorted slice (q in 0..=1).
fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn run_event(i: u64, seed: u64, fault_at_step: Option<u64>) -> Event {
    // Alternate the swap direction and stagger the quiesce tick so the
    // batch samples both personalities' bring-up costs at different
    // points of the traffic pattern.
    let (cdma, tdma) = (
        WaveformDescriptor::sumts_cdma(),
        WaveformDescriptor::mf_tdma(),
    );
    let (from, to) = if i.is_multiple_of(2) {
        (cdma, tdma)
    } else {
        (tdma, cdma)
    };
    let cfg = WaveformSwapSoakConfig {
        frames: FRAMES,
        swap_at: FRAMES / 4 + (i * 5) % (FRAMES / 4),
        from,
        to,
        fault_at_step,
    };
    let outcome = waveform_swap_soak(&cfg, seed ^ (0x5EED_u64 << 12) ^ i);
    let fault = if fault_at_step.is_some() {
        " (fault)"
    } else {
        ""
    };
    Event {
        label: format!("{}->{}{fault}", cfg.from.name, cfg.to.name),
        outcome,
    }
}

fn event(label: &str, o: &WaveformSwapSoakOutcome) -> Artefact {
    let s = &o.swap;
    Artefact::object()
        .with("label", label)
        .with("committed", s.committed)
        .with("rolled_back", s.rolled_back)
        .with("interruption_ms", s.interruption_ms())
        .with("window_ticks", s.window_ticks)
        .with("frames_in_flight", s.frames_in_flight)
        .with("replayed_frames", s.replayed_frames)
        .with("trials", s.trials)
        .with("trial_failures", s.trial_failures)
        .with("handover_packets", s.handover_packets)
        .with("handover_dropped", s.handover_dropped)
        .with("uplink_sessions", s.uplink.sessions)
        .with("uplink_elapsed_ns", s.uplink.elapsed_ns)
        .with("voice_offered", o.voice_offered)
        .with("voice_delivered", o.voice_delivered)
        .with("voice_dropped", o.voice_dropped)
}

/// Runs the swap batch and the scripted-fault rollback event.
pub fn run(seed: u64, wall: bool) -> Artefact {
    let batch: Vec<Event> = (0..EVENTS).map(|i| run_event(i, seed, None)).collect();
    assert!(
        batch.iter().all(|e| e.outcome.swap.committed),
        "a clean swap event failed to commit"
    );
    let rollback = run_event(0, seed, Some(1));
    assert!(
        rollback.outcome.swap.rolled_back,
        "the scripted fault event must roll back"
    );
    let mut interruptions: Vec<f64> = batch
        .iter()
        .map(|e| e.outcome.swap.interruption_ms())
        .collect();
    interruptions.sort_by(|a, b| a.partial_cmp(b).expect("finite interruption"));
    let in_flight_max = batch
        .iter()
        .map(|e| e.outcome.swap.frames_in_flight)
        .max()
        .unwrap_or(0);
    let voice_dropped: u64 = batch
        .iter()
        .chain([&rollback])
        .map(|e| e.outcome.voice_dropped)
        .sum();
    Artefact::header(wall)
        .with("seed", seed)
        .with("events", EVENTS)
        .with("frames_per_event", FRAMES)
        .line(
            "interruption_ms",
            Artefact::object()
                .with("p50", pct(&interruptions, 0.5))
                .with("p99", pct(&interruptions, 0.99))
                .with("max", pct(&interruptions, 1.0)),
        )
        .line(
            "frames_in_flight",
            Artefact::object().with("max", in_flight_max),
        )
        .line("voice_dropped", voice_dropped)
        .line("rollback", event(&rollback.label, &rollback.outcome))
        .line(
            "swaps",
            Artefact::rows(batch.iter().map(|e| event(&e.label, &e.outcome))),
        )
}

/// One standard CDMA→MF-TDMA swap under load, in the committed shape.
pub fn smoke(seed: u64) -> Artefact {
    let o = waveform_swap_soak(&WaveformSwapSoakConfig::standard(), seed);
    Artefact::object()
        .with(
            "interruption_ms",
            Artefact::object().with("p50", o.swap.interruption_ms()),
        )
        .with("voice_dropped", o.voice_dropped)
        .with("swaps", vec![event("smoke", &o)])
}
