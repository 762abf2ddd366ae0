//! Closed-loop traffic soak: sweeps the `gsp-traffic` engine across
//! 0.5×/1.0×/2.0× of uplink capacity (256 frames each) and records
//! `BENCH_traffic.json`.
//!
//! The top-level `"metrics"` array holds the nominal-load (1.0×)
//! telemetry snapshot, which the latency ratchet compares against; the
//! `"sweep"` array has one entry per load: goodput, per-class
//! offered/delivered/drop-rate, and p50/p99 grant and packet latency in
//! frame ticks. Every number is a deterministic function of the seed
//! (latencies are frame ticks, not wall clock), so a regeneration
//! without `host_parallelism` must equal the committed file.

use crate::gate::{Gate, Rule::*};
use crate::report::Artefact;
use gsp_telemetry::{Registry, Snapshot};
use gsp_traffic::{TrafficConfig, TrafficEngine, TrafficSummary};

/// Frames per load point (and of the smoke run).
const FRAMES: u64 = 256;
/// Offered loads, as multiples of uplink capacity.
const LOADS: [f64; 3] = [0.5, 1.0, 2.0];

/// The gated quantities of `BENCH_traffic.json`: the 1.0× packet
/// latency, in frame ticks, so a failure means the queueing behaviour
/// itself regressed, not the runner.
pub const GATES: &[Gate] = &[Gate::new(
    "metrics[traffic.packet.latency].p50",
    Ratchet(1.5),
)];

/// One load point of the sweep.
struct LoadPoint {
    load: f64,
    summary: TrafficSummary,
    snapshot: Snapshot,
}

fn run_point(load: f64, seed: u64) -> LoadPoint {
    let registry = Registry::new();
    let mut engine = TrafficEngine::with_telemetry(TrafficConfig::standard(load), seed, &registry);
    engine.run(FRAMES);
    LoadPoint {
        load,
        summary: engine.summary(),
        snapshot: registry.snapshot(),
    }
}

/// The per-class rows, with tick-latency percentiles from the point's
/// own snapshot.
fn classes(p: &LoadPoint) -> Artefact {
    let rows: Vec<Artefact> = p
        .summary
        .classes
        .iter()
        .map(|c| {
            let hist = |suffix: &str| {
                p.snapshot
                    .histogram(&format!("traffic.{}.{suffix}", c.name))
                    .copied()
                    .unwrap_or_default()
            };
            let (lat, grant) = (hist("latency"), hist("grant.latency"));
            Artefact::object()
                .with("name", c.name.as_str())
                .with("offered", c.offered)
                .with("delivered", c.delivered)
                .with("dropped_aged", c.dropped_aged)
                .with("dropped_switch", c.dropped_switch)
                .with("drop_rate", c.drop_rate)
                .with("grant_p50", grant.p50)
                .with("grant_p99", grant.p99)
                .with("latency_p50", lat.p50)
                .with("latency_p99", lat.p99)
        })
        .collect();
    rows.into()
}

/// Runs the load sweep.
pub fn run(seed: u64, wall: bool) -> Artefact {
    let points: Vec<LoadPoint> = LOADS.iter().map(|&load| run_point(load, seed)).collect();
    let base = points.iter().find(|p| p.load == 1.0).unwrap_or(&points[0]);
    let sweep = Artefact::rows(points.iter().map(|p| {
        let s = &p.summary;
        Artefact::object()
            .with("label", format!("load={}", Artefact::Float(p.load)))
            .with("load", p.load)
            .with("frames", s.frames)
            .with("seed", seed)
            .with("goodput", s.goodput)
            .with("backlog", s.backlog)
            .with("delivered_per_beam", s.delivered_per_beam.clone())
            .with("classes", classes(p))
            .with("metrics", Artefact::metrics(&p.snapshot))
    }));
    Artefact::header(wall)
        .with("seed", seed)
        .line("metrics", Artefact::metrics(&base.snapshot))
        .line("sweep", sweep)
}

/// The nominal-load (1.0×) point's snapshot.
pub fn smoke(seed: u64) -> Artefact {
    Artefact::object().with("metrics", Artefact::metrics(&run_point(1.0, seed).snapshot))
}
