//! Constellation-scale integration tests: the determinism contract
//! across shard-thread counts, and the handover invariant — a migrated
//! beam population emits exactly the traffic it would have emitted had
//! it never moved.

use gsp_constellation::{ConstellationConfig, ConstellationEngine, ConstellationReport};
use proptest::prelude::*;

fn run(
    satellites: usize,
    threads: usize,
    frames: u64,
    seed: u64,
    fail_sat: Option<usize>,
) -> ConstellationReport {
    let mut cfg = ConstellationConfig::standard(satellites, 1.0);
    cfg.shard_threads = threads;
    let mut engine = ConstellationEngine::new(cfg, seed);
    engine.run(frames / 2);
    if let Some(sat) = fail_sat {
        engine.fail_satellite(sat);
    }
    engine.run(frames - frames / 2);
    engine.report()
}

/// The acceptance matrix: double runs are byte-identical at shard-thread
/// counts {1, 2, N+1}, and all of them agree with each other — with and
/// without a whole-satellite fault script.
#[test]
fn double_runs_are_byte_identical_across_shard_thread_counts() {
    for fail_sat in [None, Some(1)] {
        let reference = run(4, 1, 96, 42, fail_sat);
        for threads in [1usize, 2, 5] {
            let a = run(4, threads, 96, 42, fail_sat);
            let b = run(4, threads, 96, 42, fail_sat);
            assert_eq!(a, b, "double run diverged at {threads} threads");
            assert_eq!(
                a, reference,
                "{threads}-thread run diverged from serial (fault: {fail_sat:?})"
            );
        }
        assert!(reference.delivered() > 0);
    }
}

/// Different seeds must actually diverge — the identity above is not a
/// constant function.
#[test]
fn different_seeds_give_different_constellations() {
    let a = run(3, 2, 48, 1, None);
    let b = run(3, 2, 48, 2, None);
    assert_ne!(a, b);
}

/// Global per-class offered totals of a report.
fn offered_per_class(r: &ConstellationReport) -> Vec<u64> {
    r.class_totals().iter().map(|c| c.offered).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The handover invariant: every flow aggregate owns a private RNG
    /// stream, so migrating a beam between satellites at an arbitrary
    /// frame boundary changes *where* its traffic is served but not
    /// *what* traffic it offers. The constellation-wide per-class
    /// offered totals are bitwise equal to the never-migrated run, the
    /// handover run is itself reproducible, and no packet leaks from the
    /// global conservation ledger.
    #[test]
    fn handover_preserves_offered_traffic_exactly(
        beam in 0u64..18,
        to in 0usize..3,
        at in 1u64..48,
        seed in 0u64..1024,
    ) {
        let frames = 64u64;
        let scenario = || {
            let mut engine =
                ConstellationEngine::new(ConstellationConfig::standard(3, 1.0), seed);
            engine.run(at);
            engine.handover(beam, to);
            assert_eq!(engine.routing().owner(beam), to);
            engine.run(frames - at);
            engine
        };
        let migrated = scenario();
        let baseline = run(3, 1, frames, seed, None);
        // Same offered traffic, packet for packet, class for class.
        prop_assert_eq!(
            offered_per_class(&migrated.report()),
            offered_per_class(&baseline)
        );
        // The handover run is reproducible.
        prop_assert_eq!(scenario().report(), migrated.report());
        // And conservation holds globally: offered packets are
        // delivered, dropped, backlogged, queued, or in flight.
        let r = migrated.report();
        let totals = r.class_totals();
        let offered: u64 = totals.iter().map(|c| c.offered).sum();
        let dropped: u64 = (0..totals.len()).map(|c| r.class_dropped(c)).sum();
        let backlog: u64 = r.satellites.iter().map(|s| s.traffic.backlog).sum();
        let switch: u64 = migrated_switch_depth(&migrated);
        prop_assert_eq!(
            offered,
            r.delivered() + dropped + backlog + switch + r.isl_in_flight
        );
    }
}

/// Total switch-queue occupancy across the constellation (not part of
/// the report — read live off the engine).
fn migrated_switch_depth(engine: &ConstellationEngine) -> u64 {
    (0..engine.config().satellites)
        .map(|s| engine.switch_depth(s) as u64)
        .sum()
}

/// A quarantined satellite never runs another traffic frame, so its
/// gauges must be refreshed by the migration that empties it: after the
/// quarantine its backlog, session count and every beam's queue depth
/// read 0, agreeing with the live engine state.
#[test]
fn a_quarantined_satellites_gauges_follow_its_evacuation() {
    let registry = gsp_telemetry::Registry::new();
    let cfg = ConstellationConfig::standard(8, 2.0);
    let beams = cfg.traffic.beams;
    let mut engine = ConstellationEngine::with_telemetry(cfg, 7, &registry);
    engine.run(400);
    engine.fail_satellite(1);
    engine.run(400);
    let report = engine.report();
    assert_eq!(
        report.quarantines.iter().map(|q| q.sat).collect::<Vec<_>>(),
        [1]
    );

    let snap = registry.snapshot();
    let gauge = |name: &str| match snap.get(name) {
        Some(gsp_telemetry::export::MetricValue::Gauge(v)) => *v,
        other => panic!("{name} is not a registered gauge: {other:?}"),
    };
    let depth: f64 = (0..beams)
        .map(|b| gauge(&format!("sat1.traffic.beam{b}.depth")))
        .sum();
    assert_eq!(depth, 0.0);
    assert_eq!(depth, engine.switch_depth(1) as f64);
    assert_eq!(gauge("sat1.traffic.backlog"), 0.0);
    assert_eq!(
        gauge("sat1.traffic.backlog"),
        report.satellites[1].traffic.backlog as f64
    );
    assert_eq!(gauge("sat1.traffic.sessions"), 0.0);
    // The survivors keep reporting live, non-trivial state.
    assert!(gauge("sat0.traffic.sessions") > 0.0);
}
