//! What every workload shares: the round record, the run modes, the
//! correctness failure, the span clock and the output digest.

use gsp_telemetry::Registry;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::time::Instant;

/// How a round runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The production configuration: a live telemetry registry, as every
    /// scenario and the housekeeping downlink use, and no bench spans.
    Production,
    /// Production plus bench-side spans around each public call.
    Traced,
    /// Telemetry off (`Registry::noop()`), to price the telemetry layer.
    NoTelemetry,
}

impl Mode {
    /// The registry the round's system reports through.
    pub fn registry(self) -> Registry {
        match self {
            Mode::NoTelemetry => Registry::noop(),
            Mode::Production | Mode::Traced => Registry::new(),
        }
    }
}

/// Work per round. Every round of a run repeats the same work on the same
/// seed, so its simulated outputs must repeat exactly.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Back-to-back constructions timed per round (`regen_frame`, fleets).
    pub setups: usize,
    /// `regen_frame`: untimed warm frames, then timed frames.
    pub regen_warm: usize,
    pub regen_frames: usize,
    /// Timed supersteps of `fleet_payload` and `fleet_surge`.
    pub fleet_payload_steps: u64,
    pub fleet_surge_steps: u64,
    /// `swap_soak`: clean events per round (plus one scripted-fault
    /// event), and ticks per event.
    pub swap_events: u64,
    pub swap_ticks: u64,
}

impl Sizes {
    /// The benchmark's rounds: about 1–1.5 s each (`swap_soak` 3.5 s) on
    /// a 2-vCPU x86-64 host, so a run has enough rounds for its medians
    /// to shrug off a slow spell on a shared host.
    pub const FULL: Sizes = Sizes {
        setups: 5,
        regen_warm: 32,
        regen_frames: 600,
        fleet_payload_steps: 160,
        fleet_surge_steps: 4000,
        swap_events: 8,
        swap_ticks: 128,
    };

    /// Rounds small enough for the test suite's debug build.
    pub const TINY: Sizes = Sizes {
        setups: 2,
        regen_warm: 2,
        regen_frames: 4,
        fleet_payload_steps: 2,
        fleet_surge_steps: 20,
        swap_events: 1,
        swap_ticks: 12,
    };
}

/// A correctness check that failed: the run stops and names it.
#[derive(Debug)]
pub struct CheckFailed {
    pub check: &'static str,
    pub detail: String,
}

impl fmt::Display for CheckFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "check `{}` failed: {}", self.check, self.detail)
    }
}

/// `Ok(())` when `ok`, else the named failure.
pub fn check(
    ok: bool,
    check: &'static str,
    detail: impl FnOnce() -> String,
) -> Result<(), CheckFailed> {
    if ok {
        Ok(())
    } else {
        Err(CheckFailed {
            check,
            detail: detail(),
        })
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Construction times of the system under test, ns.
    pub setup_ns: Vec<u64>,
    /// Wall time of each timed step, ns.
    pub step_ns: Vec<u64>,
    /// Timed steps whose simulated outcome failed (see each workload).
    pub failed: u64,
    /// Digest of the simulated outputs; equal in every round of a run.
    pub digest: u64,
    /// Per-layer totals over the timed steps (ns or counts), by per-layer
    /// metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Simulated outcome ratios, by per-layer metric name.
    pub sim: BTreeMap<&'static str, f64>,
}

impl Round {
    pub fn step_total_ns(&self) -> f64 {
        self.step_ns.iter().map(|&n| n as f64).sum()
    }

    pub fn step_mean_ns(&self) -> f64 {
        crate::metrics::ratio(self.step_total_ns(), self.step_ns.len() as f64)
    }

    /// Adds `v` to `layer`'s total.
    pub fn add(&mut self, layer: &'static str, v: f64) {
        *self.layers.entry(layer).or_default() += v;
    }

    /// Total of `layer` (0 when absent).
    pub fn total(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0.0)
    }
}

/// Nanoseconds since `t`.
pub fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Builds the system `n` times back to back, timing each build into
/// `setup_ns`, and keeps the last one.
pub fn build_timed<T>(n: usize, setup_ns: &mut Vec<u64>, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = Instant::now();
        let built = build();
        setup_ns.push(since(t));
        last = Some(built);
    }
    last.expect("at least one build")
}

/// Bench-side spans: in a traced round, times each wrapped call into its
/// layer; otherwise reads no clock at all.
pub struct Spans {
    on: bool,
}

impl Spans {
    pub fn new(mode: Mode) -> Self {
        Spans {
            on: mode == Mode::Traced,
        }
    }

    /// Opens a span (no clock read when untraced).
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Closes a span opened by [`Spans::start`] into `layer`.
    pub fn stop(&self, round: &mut Round, layer: &'static str, start: Option<Instant>) {
        if let Some(t) = start {
            round.add(layer, since(t) as f64);
        }
    }

    /// Runs `f` inside a span on `layer`.
    pub fn time<T>(&self, round: &mut Round, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = self.start();
        let out = f();
        self.stop(round, layer, t);
        out
    }
}

/// Order-sensitive digest of simulated outputs.
#[derive(Default)]
pub struct Digest(DefaultHasher);

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.0.write(v);
    }

    /// Folds in `v`'s `Debug` form, which covers every field of a report.
    pub fn debug(&mut self, v: &impl fmt::Debug) {
        write!(self, "{v:?}").expect("hashing cannot fail");
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}
