//! The constellation workloads — one step is one BSP superstep,
//! `ConstellationEngine::run_frame`, on one thread:
//!
//! * `fleet_payload`: 4 satellites at 1.0× load, each running the full
//!   Fig. 2 chain inside its step, no faults;
//! * `fleet_surge`: 8 satellites at 2.0× load (28.8M logical terminals),
//!   no sample-level payload, satellite 1 failed halfway so quarantine,
//!   beam migration and the ISL merge all run.

use crate::metrics::ratio;
use crate::regen::chain_config;
use crate::round::{build_timed, check, since, CheckFailed, Digest, Mode, Round, Sizes};
use crate::Workload;
use gsp_constellation::{ConstellationConfig, ConstellationEngine};
use gsp_telemetry::{Counter, Registry, Snapshot};
use std::time::Instant;

/// The satellite whose scripted failure `fleet_surge` injects.
const FAILED_SAT: usize = 1;

/// Payload stage histograms, as `(layer, histogram suffix)`.
const STAGES: [(&str, &str); 6] = [
    ("payload.tx_synth_ns", "payload.tx.synth.ns"),
    ("payload.tx_serial_ns", "payload.tx.ns"),
    ("payload.demux_ns", "payload.demux.ns"),
    ("payload.demod_ns", "payload.demod.ns"),
    ("payload.decode_ns", "payload.decode.ns"),
    ("payload.switch_ns", "payload.switch.ns"),
];

pub fn round(w: Workload, sizes: &Sizes, seed: u64, mode: Mode) -> Result<Round, CheckFailed> {
    let payload = w == Workload::FleetPayload;
    let (cfg, steps) = if payload {
        let mut cfg = ConstellationConfig::standard(4, 1.0);
        cfg.payload = Some(chain_config());
        (cfg, sizes.fleet_payload_steps)
    } else {
        (
            ConstellationConfig::standard(8, 2.0),
            sizes.fleet_surge_steps,
        )
    };
    let fail_at = (!payload).then_some(steps / 2);

    let mut r = Round::default();
    let registry = mode.registry();
    let mut engine = build_timed(sizes.setups, &mut r.setup_ns, || {
        ConstellationEngine::with_telemetry(cfg.clone(), seed, &registry)
    });
    let mut probe = FailProbe::new(&registry, cfg.satellites, payload);
    for step in 0..steps {
        if fail_at == Some(step) {
            engine.fail_satellite(FAILED_SAT);
        }
        let t = Instant::now();
        engine.run_frame();
        r.step_ns.push(since(t));
        if probe.fired() {
            r.failed += 1;
        }
    }

    let report = engine.report();
    let totals = report.class_totals();
    let dropped: u64 = (0..totals.len()).map(|c| report.class_dropped(c)).sum();
    let backlog: u64 = report.satellites.iter().map(|s| s.traffic.backlog).sum();
    let pending: u64 = report.satellites.iter().map(|s| s.pending_isl).sum();
    let switched: u64 = (0..cfg.satellites)
        .map(|s| engine.switch_depth(s) as u64)
        .sum();
    let accounted =
        report.delivered() + dropped + backlog + switched + pending + report.isl_in_flight;
    check(report.offered() == accounted, "conservation", || {
        format!(
            "offered {} != delivered {} + dropped {dropped} + backlog {backlog} + switch {switched} \
             + pending ISL {pending} + in flight {}",
            report.offered(),
            report.delivered(),
            report.isl_in_flight
        )
    })?;
    if fail_at.is_some() {
        let quarantined: Vec<usize> = report.quarantines.iter().map(|q| q.sat).collect();
        check(quarantined == [FAILED_SAT], "quarantine", || {
            format!("satellite {FAILED_SAT} failed but the quarantines were {quarantined:?}")
        })?;
    }
    let mut digest = Digest::default();
    digest.debug(&report);
    r.digest = digest.finish();

    let snapshot = registry.snapshot();
    let sum = |suffix: &str| -> f64 {
        (0..cfg.satellites)
            .filter_map(|s| snapshot.histogram(&format!("sat{s}.{suffix}")))
            .map(|h| h.sum as f64)
            .sum()
    };
    let frame_ns = sum("payload.frame.ns");
    let mut staged = 0.0;
    for (layer, suffix) in STAGES {
        let ns = sum(suffix);
        staged += ns;
        r.add(layer, ns);
    }
    let shard = engine.shard_busy_ns() as f64;
    let coordinator = engine.coordinator_ns() as f64;
    r.add("payload.unattributed_ns", frame_ns - staged);
    r.add("traffic.frame_ns", shard - frame_ns);
    r.add("constellation.shard_busy_ns", shard);
    r.add("constellation.coordinator_ns", coordinator);
    r.add(
        "constellation.unattributed_ns",
        r.step_total_ns() - shard - coordinator,
    );
    r.add(
        "payload.composite_samples",
        counter_sum(&snapshot, cfg.satellites, "payload.composite_samples") as f64,
    );
    r.add("traffic.offered", report.offered() as f64);
    r.add("traffic.delivered", report.delivered() as f64);
    r.add("traffic.dropped", dropped as f64);
    r.add(
        "isl.packets",
        totals.iter().map(|c| c.isl_out).sum::<u64>() as f64,
    );
    r.add("isl.dropped", report.isl_dropped.iter().sum::<u64>() as f64);

    if payload {
        let bursts = counter_sum(&snapshot, cfg.satellites, "payload.frames")
            * chain_config().active_carriers as u64;
        let failed_bursts = counter_sum(&snapshot, cfg.satellites, "payload.uw_misses")
            + counter_sum(&snapshot, cfg.satellites, "payload.crc.failures");
        r.sim.insert(
            "sim.burst_fail_ratio",
            ratio(failed_bursts as f64, bursts as f64),
        );
    }
    r.sim.insert(
        "sim.pkt_drop_ratio",
        ratio(dropped as f64, report.offered() as f64),
    );
    r.sim.insert(
        "sim.voice_drop_ratio",
        ratio(report.class_dropped(0) as f64, totals[0].offered as f64),
    );
    Ok(r)
}

fn counter_sum(snapshot: &Snapshot, satellites: usize, suffix: &str) -> u64 {
    (0..satellites)
        .map(|s| snapshot.counter(&format!("sat{s}.{suffix}")))
        .sum()
}

/// Watches the registry for a superstep that dropped a voice packet or,
/// with the payload on, lost a burst: that step counts as failed.
struct FailProbe {
    counters: Vec<Counter>,
    seen: u64,
}

impl FailProbe {
    fn new(registry: &Registry, satellites: usize, payload: bool) -> Self {
        let mut names = vec![
            "traffic.voice.dropped_aged",
            "traffic.voice.dropped_switch",
            "traffic.voice.dropped_shed",
        ];
        if payload {
            names.extend([
                "payload.uw_misses",
                "payload.crc.failures",
                "payload.demux.errors",
            ]);
        }
        let counters = (0..satellites)
            .flat_map(|s| names.iter().map(move |n| format!("sat{s}.{n}")))
            .map(|name| registry.counter(&name))
            .collect();
        FailProbe { counters, seen: 0 }
    }

    fn fired(&mut self) -> bool {
        let now: u64 = self.counters.iter().map(Counter::get).sum();
        let fired = now > self.seen;
        self.seen = now;
        fired
    }
}
