//! Constellation-scale soak: sweeps the `gsp-constellation` coordinator
//! across 2 and 4 satellites × 1/2/4 shard threads (256 frames, nominal
//! load) and records `BENCH_constellation.json`.
//!
//! Every point runs the **same** scenario at every shard-thread count
//! and asserts the reports are identical — the determinism contract is
//! enforced by the bench itself. The artefact records:
//!
//! * a `"scaling"` block for the flagship point (the largest satellite
//!   count): measured frames/s per thread count, the measured
//!   multi-shard/1-shard ratio, and the **modeled** Amdahl ratio from the
//!   serial run's shard-busy vs coordinator nanosecond split (the
//!   measured ratio is gated only when `"host_parallelism"` ≥ 8);
//! * a `"sweep"` array with one entry per satellite count: offered /
//!   delivered / dropped totals, ISL link accounting, per-class drop
//!   rates, and the terminal-equivalent offered-load scale
//!   (`terminals_total`);
//! * a `"quarantine"` block replaying the whole-satellite FDIR scenario:
//!   a mid-run freeze, watchdog quarantine and beam migration onto the
//!   survivors, with the voice class asserted lossless.
//!
//! `wall = false` omits every wall-clock-derived field (the `"scaling"`
//! block, per-point frames/s and `host_parallelism`).

use crate::gate::{Gate, Rule::*};
use crate::report::{amdahl, Artefact};
use gsp_constellation::{ConstellationConfig, ConstellationEngine, ConstellationReport};
use std::time::Instant;

/// Frames per point.
const FRAMES: u64 = 256;
/// Satellite counts swept; the last is the flagship.
const SATELLITES: [usize; 2] = [2, 4];
/// Shard-thread counts every point is replayed at; the first is serial.
const THREADS: [usize; 3] = [1, 2, 4];
/// Offered load (multiple of capacity).
const LOAD: f64 = 1.0;

/// The gated quantities of `BENCH_constellation.json`.
pub const GATES: &[Gate] = &[
    Gate::new("scaling.modeled_ratio", AtLeast(2.5)),
    Gate::new("scaling.measured_ratio", AtLeast(2.5)).when("host_parallelism", AtLeast(8.0)),
    // The acceptance scale: >= 4 satellites, >= 2M terminal-equivalents.
    Gate::new("scaling.satellites", AtLeast(4.0)),
    Gate::new("sweep[*].terminals_total", AtLeast(2_000_000.0)),
    Gate::new("quarantine.voice_dropped", Equals("0")),
    Gate::new("sweep[*].reports_identical", Equals("true")).live(),
];

/// One (satellites, threads) run.
struct RunOutcome {
    report: ConstellationReport,
    wall_ns: u64,
    shard_busy_ns: u64,
    coordinator_ns: u64,
}

impl RunOutcome {
    fn frames_per_sec(&self, frames: u64) -> f64 {
        frames as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

fn run_once(satellites: usize, threads: usize, frames: u64, seed: u64) -> RunOutcome {
    let mut cfg = ConstellationConfig::standard(satellites, LOAD);
    cfg.shard_threads = threads;
    let mut engine = ConstellationEngine::new(cfg, seed);
    let t0 = Instant::now();
    engine.run(frames);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    RunOutcome {
        report: engine.report(),
        wall_ns,
        shard_busy_ns: engine.shard_busy_ns(),
        coordinator_ns: engine.coordinator_ns(),
    }
}

/// The sweep entry for one satellite count (`runs` in `THREADS` order).
fn point(satellites: usize, seed: u64, runs: &[RunOutcome], wall: bool) -> Artefact {
    let r = &runs[0].report;
    let totals = r.class_totals();
    let classes: Vec<Artefact> = ["voice", "video", "data"]
        .iter()
        .zip(&totals)
        .enumerate()
        .map(|(i, (name, c))| {
            let dropped = r.class_dropped(i);
            let rate = if c.offered == 0 {
                0.0
            } else {
                dropped as f64 / c.offered as f64
            };
            Artefact::object()
                .with("name", *name)
                .with("offered", c.offered)
                .with("delivered", c.delivered)
                .with("dropped", dropped)
                .with("drop_rate", rate)
        })
        .collect();
    let entry = Artefact::object()
        .with("satellites", satellites)
        .with("load", LOAD)
        .with("frames", FRAMES)
        .with("seed", seed)
        .with("terminals_total", r.terminals_total)
        .with("offered", r.offered())
        .with("delivered", r.delivered())
        .with(
            "dropped",
            (0..totals.len()).map(|c| r.class_dropped(c)).sum::<u64>(),
        )
        .with("isl_out", totals.iter().map(|c| c.isl_out).sum::<u64>())
        .with("isl_in", totals.iter().map(|c| c.isl_in).sum::<u64>())
        .with("isl_dropped", r.isl_dropped.clone())
        .with("isl_in_flight", r.isl_in_flight)
        .with("reports_identical", true)
        .with("classes", classes);
    if !wall {
        return entry;
    }
    let throughput: Vec<Artefact> = THREADS
        .iter()
        .zip(runs)
        .map(|(&t, run)| {
            Artefact::object()
                .with("threads", t)
                .with("frames_per_sec", run.frames_per_sec(FRAMES))
        })
        .collect();
    entry.with("throughput", throughput)
}

/// Replays the whole-satellite quarantine scenario (asserting voice
/// losslessness on the way).
fn quarantine(satellites: usize, seed: u64) -> Artefact {
    let cfg = ConstellationConfig::standard(satellites, LOAD);
    let beams_per_sat = cfg.traffic.beams;
    let mut engine = ConstellationEngine::new(cfg, seed);
    engine.run(FRAMES / 2);
    engine.fail_satellite(1);
    engine.run(FRAMES - FRAMES / 2);
    let r = engine.report();
    assert_eq!(
        r.quarantines.len(),
        1,
        "the fault must confirm exactly once"
    );
    let q = r.quarantines[0];
    assert_eq!(q.sat, 1);
    let voice_dropped = r.class_dropped(0);
    assert_eq!(
        voice_dropped, 0,
        "voice must reroute through a whole-satellite quarantine with zero drops"
    );
    let survivors_serve: usize = r
        .satellites
        .iter()
        .filter(|s| s.sat != 1)
        .map(|s| s.home_beams.len())
        .sum();
    assert_eq!(survivors_serve, satellites * beams_per_sat);
    Artefact::object()
        .with("satellites", satellites)
        .with("frames", FRAMES)
        .with("seed", seed)
        .with("failed_sat", q.sat)
        .with("fault_tick", FRAMES / 2)
        .with("quarantine_tick", q.tick)
        .with("beams_migrated", beams_per_sat)
        .with("beams_on_survivors", survivors_serve)
        .with("voice_dropped", voice_dropped)
        .with("voice_delivered", r.class_totals()[0].delivered)
        .with("frames_skipped", r.satellites[1].frames_skipped)
}

/// Runs the satellites × threads sweep and the quarantine replay.
pub fn run(seed: u64, wall: bool) -> Artefact {
    let mut sweep = Vec::new();
    let mut flagship = Vec::new();
    for satellites in SATELLITES {
        let runs: Vec<RunOutcome> = THREADS
            .iter()
            .map(|&t| run_once(satellites, t, FRAMES, seed))
            .collect();
        for (t, run) in THREADS.iter().zip(&runs).skip(1) {
            assert_eq!(
                run.report, runs[0].report,
                "report diverged at {t} shard threads ({satellites} satellites)"
            );
        }
        sweep.push(point(satellites, seed, &runs, wall));
        flagship = runs;
    }
    let satellites = SATELLITES[SATELLITES.len() - 1];
    let mut doc = Artefact::header(wall).with("seed", seed);
    if wall {
        // The Amdahl model from the serial run's own split: shard steps
        // are the parallelizable span, the coordinator merge is serial.
        let (serial, top) = (&flagship[0], &flagship[flagship.len() - 1]);
        let threads_top = THREADS[THREADS.len() - 1];
        let fps: Vec<f64> = flagship.iter().map(|r| r.frames_per_sec(FRAMES)).collect();
        let scaling = Artefact::object()
            .with("satellites", satellites)
            .with("frames", FRAMES)
            .with("threads", THREADS.to_vec())
            .with("frames_per_sec", fps.clone())
            .with(
                "measured_ratio",
                top.frames_per_sec(FRAMES) / fps[0].max(1e-12),
            )
            .with(
                "modeled_ratio",
                amdahl(
                    serial.coordinator_ns as f64,
                    serial.shard_busy_ns as f64,
                    threads_top.min(satellites),
                ),
            )
            .with("shard_busy_ns", serial.shard_busy_ns)
            .with("coordinator_ns", serial.coordinator_ns);
        doc = doc.line("scaling", scaling);
    }
    doc.line("quarantine", quarantine(satellites, seed))
        .line("sweep", Artefact::rows(sweep))
}

/// A 3-satellite, 32-frame run at 1 and 2 shard threads: the reports
/// must stay identical in the current tree.
pub fn smoke(seed: u64) -> Artefact {
    let identical = run_once(3, 1, 32, seed).report == run_once(3, 2, 32, seed).report;
    Artefact::object().with(
        "sweep",
        vec![Artefact::object().with("reports_identical", identical)],
    )
}
