//! `swap_soak`: live personality exchange under load. One step is one
//! event's tick loop: an FDIR harness (1.0× load, 3× SEU rate) steps
//! alongside a `HotSwapController` that boots on CDMA, swaps to MF-TDMA
//! at a quarter of the event and back at five eighths. A round is the
//! clean events plus one event whose scripted fault at window step 1 must
//! roll the first swap back. Building the harness and controller is the
//! event's set-up.

use crate::metrics::{median, ratio};
use crate::round::{check, since, CheckFailed, Digest, Mode, Round, Sizes, Spans};
use gsp_fdir::{FaultKind, FdirHarness, HarnessConfig};
use gsp_waveform::{
    HotSwapController, SwapCommand, SwapPhase, SwapReport, WaveformDescriptor, WaveformRegistry,
};
use std::time::Instant;

/// Outcome totals over a round's events.
#[derive(Default)]
struct Totals {
    carriers: u64,
    acquired: u64,
    offered: u64,
    dropped: u64,
    voice_offered: u64,
    voice_dropped: u64,
    interruption_ms: Vec<f64>,
    swaps_expected: u64,
    swaps_ok: u64,
    availability: Vec<f64>,
}

pub fn round(sizes: &Sizes, seed: u64, mode: Mode) -> Result<Round, CheckFailed> {
    let mut r = Round::default();
    let mut totals = Totals::default();
    let mut digest = Digest::default();
    for i in 0..=sizes.swap_events {
        let scripted_fault = i == sizes.swap_events;
        event(
            sizes,
            seed ^ i,
            scripted_fault,
            mode,
            &mut r,
            &mut totals,
            &mut digest,
        )?;
    }
    r.digest = digest.finish();

    let tick_layers = [
        "fdir.harness_step_ns",
        "waveform.cdma_tick_ns",
        "waveform.mftdma_tick_ns",
        "waveform.window_tick_ns",
        "waveform.command_swap_ns",
    ];
    let attributed: f64 = tick_layers.iter().map(|l| r.total(l)).sum();
    r.add("waveform.unattributed_ns", r.step_total_ns() - attributed);
    r.sim.insert(
        "sim.burst_fail_ratio",
        ratio(
            (totals.carriers - totals.acquired) as f64,
            totals.carriers as f64,
        ),
    );
    r.sim.insert(
        "sim.pkt_drop_ratio",
        ratio(totals.dropped as f64, totals.offered as f64),
    );
    r.sim.insert(
        "sim.voice_drop_ratio",
        ratio(totals.voice_dropped as f64, totals.voice_offered as f64),
    );
    r.sim.insert(
        "sim.swap_interruption_ms_p50",
        median(&totals.interruption_ms),
    );
    r.sim.insert(
        "sim.swap_ok_ratio",
        ratio(totals.swaps_ok as f64, totals.swaps_expected as f64),
    );
    r.sim.insert(
        "sim.fdir_availability",
        ratio(
            totals.availability.iter().sum(),
            totals.availability.len() as f64,
        ),
    );
    Ok(r)
}

fn event(
    sizes: &Sizes,
    seed: u64,
    scripted_fault: bool,
    mode: Mode,
    r: &mut Round,
    totals: &mut Totals,
    digest: &mut Digest,
) -> Result<(), CheckFailed> {
    let ticks = sizes.swap_ticks;
    let (first_at, back_at) = (ticks / 4, ticks * 5 / 8);
    let fault_tick = first_at + 1;
    let spans = Spans::new(mode);

    let t = Instant::now();
    let registry = mode.registry();
    let mut hcfg = HarnessConfig::soak(3.0);
    hcfg.load = 1.0;
    hcfg.frames = ticks;
    hcfg.inject_until = ticks - ticks / 8;
    let mut harness = FdirHarness::with_telemetry(hcfg, seed, &registry);
    // One controller per event (step), so this layer's per-step mean is
    // its per-call time.
    let mut ctl = spans
        .time(r, "waveform.controller_new_ns", || {
            HotSwapController::new(
                WaveformRegistry::builtin(),
                &WaveformDescriptor::sumts_cdma(),
            )
        })
        .map_err(|e| CheckFailed {
            check: "boot",
            detail: format!("the CDMA personality did not boot: {e:?}"),
        })?;
    r.setup_ns.push(since(t));

    let t = Instant::now();
    command(
        &spans,
        r,
        &mut ctl,
        WaveformDescriptor::mf_tdma(),
        first_at,
        seed ^ 0x5A_AB,
    )?;
    let mut swaps: Vec<SwapReport> = Vec::new();
    let mut reports = Vec::with_capacity(ticks as usize);
    for tick in 0..ticks {
        spans.time(r, "fdir.harness_step_ns", || harness.step());
        let before = ctl.phase();
        let personality = if ctl.active_name() == "mf-tdma" {
            "waveform.mftdma_tick_ns"
        } else {
            "waveform.cdma_tick_ns"
        };
        let span = spans.start();
        let out = ctl.step(seed, tick, scripted_fault && tick == fault_tick);
        let in_window = before == SwapPhase::Window || out.phase == SwapPhase::Window;
        spans.stop(
            r,
            if in_window {
                "waveform.window_tick_ns"
            } else {
                personality
            },
            span,
        );
        reports.extend(out.reports);
        if before == SwapPhase::Window && out.phase != SwapPhase::Window {
            swaps.push(ctl.swap_report().clone());
            if out.phase == SwapPhase::Committed && swaps.len() == 1 && !scripted_fault {
                command(
                    &spans,
                    r,
                    &mut ctl,
                    WaveformDescriptor::sumts_cdma(),
                    back_at,
                    seed ^ 0x5A_AC,
                )?;
            }
        }
    }
    r.step_ns.push(since(t));

    let retired: Vec<u64> = reports.iter().map(|f| f.tick).collect();
    check(retired.iter().copied().eq(0..ticks), "tick_history", || {
        format!("event {seed:#x}: ticks retired {retired:?}, expected each of 0..{ticks} once, in order")
    })?;
    if scripted_fault {
        check(swaps.len() == 1 && swaps[0].rolled_back, "rollback", || {
            format!("the scripted fault at window step 1 did not roll back: {swaps:?}")
        })?;
    }
    let stats = harness.engine().stats();
    let offered: u64 = stats.classes.iter().map(|c| c.offered).sum();
    let dropped: u64 = stats.classes.iter().map(|c| c.dropped()).sum();
    let queued = stats.backlog + harness.engine().switch_depth_total() as u64;
    check(
        offered == stats.delivered() + dropped + queued,
        "conservation",
        || {
            format!(
                "event {seed:#x}: offered {offered} != delivered {} + dropped {dropped} + queued {queued}",
                stats.delivered()
            )
        },
    )?;

    let expected = if scripted_fault { 1 } else { 2 };
    let ok = swaps
        .iter()
        .filter(|s| {
            if scripted_fault {
                s.rolled_back
            } else {
                s.committed
            }
        })
        .count() as u64;
    let handover_dropped: u64 = swaps.iter().map(|s| s.handover_dropped).sum();
    let voice_dropped = stats.classes[0].dropped() + handover_dropped;
    if ok < expected || voice_dropped > 0 {
        r.failed += 1;
    }
    totals.swaps_expected += expected;
    totals.swaps_ok += ok;
    totals
        .interruption_ms
        .extend(swaps.iter().map(SwapReport::interruption_ms));
    totals.carriers += reports.iter().map(|f| f.carriers as u64).sum::<u64>();
    totals.acquired += reports.iter().map(|f| f.acquired as u64).sum::<u64>();
    totals.offered += offered;
    totals.dropped += dropped + handover_dropped;
    totals.voice_offered += stats.classes[0].offered;
    totals.voice_dropped += voice_dropped;
    let availability = harness.supervisor().availability();
    totals.availability.push(availability);

    digest.debug(&swaps);
    digest.debug(&reports);
    digest.debug(stats);
    digest.u64(availability.to_bits());

    r.add(
        "waveform.trials",
        swaps.iter().map(|s| s.trials as f64).sum(),
    );
    r.add(
        "waveform.replayed_frames",
        swaps.iter().map(|s| s.replayed_frames as f64).sum(),
    );
    let snapshot = registry.snapshot();
    let injected: u64 = FaultKind::ALL
        .iter()
        .map(|k| snapshot.counter(&format!("fdir.injected.{}", k.name())))
        .sum();
    r.add("fdir.injected", injected as f64);
    for (layer, name) in [
        ("fdir.detections", "fdir.detections"),
        ("fdir.uplink_sessions", "fdir.uplink.sessions"),
        ("fdir.uplink_retransmissions", "fdir.uplink.retransmissions"),
    ] {
        r.add(layer, snapshot.counter(name) as f64);
    }
    r.add("traffic.offered", offered as f64);
    r.add("traffic.delivered", stats.delivered() as f64);
    r.add("traffic.dropped", (dropped + handover_dropped) as f64);
    Ok(())
}

/// Commands a swap to `target` at `at_tick`; a refused command is a
/// correctness failure (the clean uplink always delivers).
fn command(
    spans: &Spans,
    r: &mut Round,
    ctl: &mut HotSwapController,
    target: WaveformDescriptor,
    at_tick: u64,
    seed: u64,
) -> Result<(), CheckFailed> {
    spans
        .time(r, "waveform.command_swap_ns", || {
            ctl.command_swap(SwapCommand::new(&target, at_tick), seed)
        })
        .map_err(|e| CheckFailed {
            check: "swap_command",
            detail: format!("swap to {} at tick {at_tick} refused: {e}", target.name),
        })
}
