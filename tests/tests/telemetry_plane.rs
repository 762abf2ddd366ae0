//! The telemetry plane's contract: metrics are observed, never consulted.
//!
//! A telemetry-enabled pipeline engine must produce bitwise-identical
//! frame reports to a disabled one at every worker count, the recorded
//! numbers must agree with the engine's own counters, switch drops must
//! surface end to end, and a housekeeping frame must carry the whole
//! picture to the ground through the CRC envelope.

use gsp_core::housekeeping::{decode_frame, encode_frame};
use gsp_payload::chain::ChainConfig;
use gsp_payload::pipeline::PipelineEngine;
use gsp_telemetry::Registry;

fn noisy_cfg() -> ChainConfig {
    ChainConfig {
        esn0_db: Some(8.0), // low enough that some bursts break
        ..ChainConfig::default()
    }
}

#[test]
fn enabled_engine_is_bitwise_identical_to_disabled_across_worker_counts() {
    let cfg = noisy_cfg();
    for workers in [1usize, 2, 3, 6] {
        let mut plain = PipelineEngine::with_workers(cfg.clone(), workers);
        let mut instrumented = PipelineEngine::with_workers(cfg.clone(), workers);
        let registry = Registry::new();
        instrumented.set_telemetry(&registry);
        for seed in [1u64, 17, 99] {
            let a = plain.run_frame(seed);
            let b = instrumented.run_frame(seed);
            assert_eq!(a, b, "workers {workers} seed {seed}");
        }
        // Deterministic counters agree too (the `_ns` timing fields are
        // wall-clock measurements and naturally differ between runs).
        let (p, i) = (plain.stats(), instrumented.stats());
        assert_eq!(
            (p.frames, p.uw_misses, p.crc_failures, p.packets_forwarded),
            (i.frames, i.uw_misses, i.crc_failures, i.packets_forwarded),
            "workers {workers}"
        );
    }
}

#[test]
fn noop_registry_changes_nothing_either() {
    let cfg = noisy_cfg();
    let mut plain = PipelineEngine::with_workers(cfg.clone(), 2);
    let mut noop = PipelineEngine::with_workers(cfg, 2);
    noop.set_telemetry(&Registry::noop());
    let a = plain.run_frame(5);
    let b = noop.run_frame(5);
    assert_eq!(a, b);
}

#[test]
fn recorded_metrics_agree_with_engine_stats() {
    let cfg = noisy_cfg();
    let mut engine = PipelineEngine::with_workers(cfg, 3);
    let registry = Registry::new();
    engine.set_telemetry(&registry);
    engine.run_frames(6, 42);

    let stats = engine.stats();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("payload.frames"), stats.frames);
    assert_eq!(snap.counter("payload.uw_misses"), stats.uw_misses);
    assert_eq!(snap.counter("payload.crc.failures"), stats.crc_failures);
    assert_eq!(
        snap.counter("payload.packets.forwarded"),
        stats.packets_forwarded
    );
    assert_eq!(
        snap.counter("payload.composite_samples"),
        stats.composite_samples
    );
    // Per-lane histograms sum to the serial stage counters.
    let demod = snap.histogram("payload.demod.ns").expect("demod hist");
    assert_eq!(demod.sum, stats.demod_ns);
    assert_eq!(demod.count, 6 * 6);
    let decode = snap.histogram("payload.decode.ns").expect("decode hist");
    assert_eq!(decode.sum, stats.decode_ns);
    // The modem layer counted the same bursts through its own hooks.
    assert_eq!(snap.counter("modem.tdma.bursts"), 6 * 6);
    assert_eq!(snap.counter("modem.tdma.uw_miss"), stats.uw_misses);
}

#[test]
fn switch_drops_surface_in_report_stats_and_registry() {
    // One beam with a one-packet queue: 6 clean carriers all route to
    // beam 0, so 5 packets must drop as overflow every frame.
    let cfg = ChainConfig {
        beams: 1,
        switch_queue_limit: 1,
        esn0_db: None,
        ..ChainConfig::default()
    };
    let mut engine = PipelineEngine::with_workers(cfg, 2);
    let registry = Registry::new();
    engine.set_telemetry(&registry);
    let report = engine.run_frame(3);

    assert_eq!(report.packets_forwarded, 1);
    assert_eq!(report.packets_dropped_overflow, 5);
    assert_eq!(report.packets_dropped_no_route, 0);
    let sw = report.switch.stats();
    assert_eq!(
        (sw.forwarded, sw.dropped_overflow, sw.dropped_no_route),
        (1, 5, 0)
    );

    let stats = engine.stats();
    assert_eq!(stats.packets_dropped_overflow, 5);
    assert_eq!(stats.packets_dropped_no_route, 0);

    let snap = registry.snapshot();
    assert_eq!(snap.counter("payload.packets.dropped_overflow"), 5);
    assert_eq!(snap.counter("payload.packets.forwarded"), 1);
}

#[test]
fn transponder_surfaces_accumulated_drops() {
    use gsp_payload::transponder::{TransponderConfig, TransponderSim};
    let cfg = TransponderConfig {
        uplink: ChainConfig {
            beams: 2,
            switch_queue_limit: 2,
            ..ChainConfig::default()
        },
        ..TransponderConfig::default()
    };
    let mut sim = TransponderSim::new(cfg);
    sim.run_frame(1);
    sim.run_frame(2);
    // 6 packets onto 2 beams (3 each) with room for 2: one overflow drop
    // per beam per frame.
    let (overflow, no_route) = sim.switch_drops();
    assert_eq!(overflow, 4);
    assert_eq!(no_route, 0);
    assert_eq!(sim.uplink_stats().packets_forwarded, 8);
}

#[test]
fn fdir_soak_is_bitwise_identical_with_telemetry_on_or_off() {
    use gsp_fdir::{FdirHarness, HarnessConfig};

    // The FDIR plane records dozens of metrics per tick — injections,
    // detections, transitions, recovery rungs, uplink retries, MTTR —
    // and none of them may feed back: the SoakReport is a pure function
    // of (config, seed) whether the registry is live or not.
    let registry = Registry::new();
    let observed = FdirHarness::with_telemetry(HarnessConfig::soak(10.0), 31, &registry).run();
    let blind = FdirHarness::new(HarnessConfig::soak(10.0), 31).run();
    assert_eq!(
        observed, blind,
        "fdir telemetry must be observed, never consulted"
    );

    // And the registry faithfully mirrors the ground truth it observed.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("fdir.detections"), observed.detections);
    assert_eq!(snap.counter("fdir.transitions"), observed.transitions);
    assert_eq!(snap.counter("fdir.recovery.scrub"), observed.escalations[0]);
    assert_eq!(snap.counter("fdir.recovery.reset"), observed.escalations[1]);
    assert_eq!(
        snap.counter("fdir.recovery.reconfig"),
        observed.escalations[2]
    );
    assert_eq!(
        snap.counter("fdir.uplink.retransmissions"),
        observed.uplink_retransmissions
    );
    let injected: u64 = (0..6)
        .map(|i| {
            snap.counter(&format!(
                "fdir.injected.{}",
                gsp_fdir::FaultKind::ALL[i].name()
            ))
        })
        .sum();
    assert_eq!(injected, observed.total_injected());
    let mttr = snap.histogram("fdir.recovery.mttr").expect("mttr recorded");
    assert_eq!(mttr.count, observed.mttr_ticks.len() as u64);
}

#[test]
fn housekeeping_frame_carries_the_registry_to_the_ground() {
    let cfg = noisy_cfg();
    let mut engine = PipelineEngine::new(cfg);
    let registry = Registry::new();
    engine.set_telemetry(&registry);
    engine.run_frames(4, 7);

    let snap = registry.snapshot();
    let frame = encode_frame(&snap);
    let decoded = decode_frame(&frame).expect("clean frame decodes");
    assert_eq!(decoded, snap);

    // A single flipped payload bit kills the whole frame.
    let mut bad = frame.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x10;
    assert!(decode_frame(&bad).is_none());
}

/// Expands the brace groups of one README metric token:
/// `a.{b,c}` → `a.b`, `a.c`.
fn expand_braces(token: &str) -> Vec<String> {
    match (token.find('{'), token.find('}')) {
        (Some(open), Some(close)) if open < close => token[open + 1..close]
            .split(',')
            .flat_map(|alt| {
                expand_braces(&format!("{}{alt}{}", &token[..open], &token[close + 1..]))
            })
            .collect(),
        _ => vec![token.to_string()],
    }
}

/// The README "Telemetry" table's traffic row names exactly the metrics a
/// live `TrafficEngine` registers, with class names written `<class>` and
/// beam indices `<b>`.
#[test]
fn readme_traffic_row_matches_the_registered_traffic_metrics() {
    use gsp_traffic::{TrafficConfig, TrafficEngine};
    use std::collections::BTreeSet;

    let readme = include_str!("../../README.md");
    let row = readme
        .lines()
        .find(|l| l.starts_with("| traffic |"))
        .expect("the README Telemetry table has a traffic row");
    let documented: BTreeSet<String> = row
        .split('`')
        .skip(1)
        .step_by(2)
        .flat_map(expand_braces)
        .collect();

    let cfg = TrafficConfig::standard(1.0);
    let registry = Registry::new();
    let mut engine = TrafficEngine::with_telemetry(cfg.clone(), 1, &registry);
    engine.run(4);
    let normalise = |name: &str| {
        name.split('.')
            .map(|part| {
                if cfg.classes.iter().any(|c| c.name == part) {
                    "<class>".to_string()
                } else if part
                    .strip_prefix("beam")
                    .is_some_and(|b| !b.is_empty() && b.bytes().all(|c| c.is_ascii_digit()))
                {
                    "beam<b>".to_string()
                } else {
                    part.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(".")
    };
    let registered: BTreeSet<String> = registry
        .snapshot()
        .entries
        .iter()
        .map(|e| normalise(&e.name))
        .collect();

    let missing: Vec<&String> = registered.difference(&documented).collect();
    assert!(missing.is_empty(), "README traffic row omits {missing:?}");
    let stale: Vec<&String> = documented.difference(&registered).collect();
    assert!(
        stale.is_empty(),
        "README traffic row lists unregistered {stale:?}"
    );
}
