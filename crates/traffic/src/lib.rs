//! # gsp-traffic — the closed-loop multi-beam traffic engine
//!
//! The regenerative payload of §2.1 exists to "work at the packet level
//! … acting for example at the packet level as a router" — but a router
//! is only proven under *sustained* load. This crate closes the loop
//! around the payload's switching and capacity-assignment planes with a
//! deterministic, seedable, frame-clocked soak:
//!
//! * [`population`] — millions of logical terminals aggregated into
//!   per-(beam, class) flow aggregates. Session arrivals are calibrated
//!   to an offered-load multiple of the frame capacity; session sizes
//!   are heavy-tailed (bounded Pareto) and sources are on/off, so the
//!   instantaneous load is bursty while the long-run mean is exact.
//! * [`dama`] — the closed DAMA loop. Backlog persists *across* frames:
//!   packets not granted this frame age, are re-requested next frame,
//!   and are dropped (with accounting) once they out-live the class of
//!   service. Each frame feeds the payload's
//!   [`gsp_payload::scheduler::DamaScheduler`] the whole carried
//!   backlog instead of a hand-built one-shot request list.
//! * [`engine`] — the frame clock. Generation → DAMA grant → QoS switch
//!   ingress → per-beam downlink egress, with per-class counters,
//!   queue-depth gauges and grant/packet latency histograms (in frame
//!   ticks) surfaced through `gsp-telemetry`.
//!
//! ## Determinism contract
//!
//! A [`engine::TrafficEngine`] run is **bitwise deterministic** for a
//! fixed `(config, seed, frames)`: one serial `StdRng` drives every
//! draw in a fixed aggregate/session order, latencies are counted in
//! frame ticks (never wall clock), and the switch's WRR state is part
//! of its value. `bench traffic` exploits this — the emitted
//! `BENCH_traffic.json` carries only deterministic quantities, so two
//! runs with the same seed are byte-identical.

#![deny(missing_docs)]

pub mod dama;
pub mod engine;
pub mod population;

pub use engine::{
    BeamMigration, BeamOutage, ClassCounters, IslConfig, TrafficEngine, TrafficStats,
    TrafficSummary,
};

use gsp_modem::framing::MfTdmaFrame;
use gsp_payload::switch::{ClassConfig, QosConfig};

/// One QoS flow class of the traffic model.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficClass {
    /// Short lowercase name, used in metric names
    /// (`traffic.<name>.latency` …).
    pub name: &'static str,
    /// Fraction of the total offered load carried by this class.
    pub share: f64,
    /// DAMA priority (higher = served first by the scheduler).
    pub priority: u8,
    /// Strict-priority class at the switch egress (served before any
    /// weighted class).
    pub strict: bool,
    /// Weighted-round-robin quantum at the switch egress when not
    /// strict.
    pub weight: u32,
    /// Per-beam switch queue capacity, packets.
    pub queue_limit: usize,
    /// Early-drop threshold at the switch, packets (`None` = off).
    pub early_drop: Option<usize>,
    /// Bounded-Pareto session-size upper bound, packets.
    pub max_session: u32,
    /// Packets an *on* session emits per frame.
    pub on_rate: usize,
    /// Packets a backlogged grant request may wait before being dropped,
    /// frames.
    pub max_age: u64,
}

/// Logical terminals aggregated behind each (beam, class) flow aggregate
/// — the "millions of users" scale figure. Only the packet `source` ids
/// sample it; the DAMA loop requests per aggregate.
pub const TERMINALS_PER_AGGREGATE: u64 = 200_000;

/// Traffic-engine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficConfig {
    /// Downlink beams (each with its own uplink flow aggregates).
    pub beams: usize,
    /// MF-TDMA frame geometry scheduled each tick
    /// ([`MfTdmaFrame::total_slots`] is the uplink capacity per frame;
    /// one slot carries one packet).
    pub frame: MfTdmaFrame,
    /// The QoS classes, most important first.
    pub classes: Vec<TrafficClass>,
    /// Offered load as a multiple of the frame capacity (1.0 = the
    /// uplink can just barely carry the long-run mean).
    pub load: f64,
    /// Packets each beam's Tx chain drains from the switch per frame
    /// (the downlink rate).
    pub beam_egress_per_frame: usize,
}

impl TrafficConfig {
    /// The standard three-class scenario at the given offered load:
    /// 6 beams over the paper's 6×8 MF-TDMA frame (48 slots/frame), with
    /// `voice` (strict, top DAMA priority, 20% of load), `video`
    /// (WRR weight 3, 30%) and best-effort `data` (WRR weight 1 with an
    /// early-drop threshold, 50%).
    pub fn standard(load: f64) -> Self {
        TrafficConfig {
            beams: 6,
            frame: MfTdmaFrame {
                n_carriers: 6,
                slots_per_frame: 8,
                slot_symbols: 1024,
                symbol_rate: 170_667.0,
            },
            classes: vec![
                TrafficClass {
                    name: "voice",
                    share: 0.2,
                    priority: 2,
                    strict: true,
                    weight: 1,
                    queue_limit: 256,
                    early_drop: None,
                    max_session: 8,
                    on_rate: 2,
                    max_age: 32,
                },
                TrafficClass {
                    name: "video",
                    share: 0.3,
                    priority: 1,
                    strict: false,
                    weight: 3,
                    queue_limit: 128,
                    early_drop: None,
                    max_session: 32,
                    on_rate: 4,
                    max_age: 32,
                },
                TrafficClass {
                    name: "data",
                    share: 0.5,
                    priority: 0,
                    strict: false,
                    weight: 1,
                    queue_limit: 64,
                    early_drop: Some(48),
                    max_session: 64,
                    on_rate: 4,
                    max_age: 32,
                },
            ],
            load,
            beam_egress_per_frame: 10,
        }
    }

    /// Uplink slots (= packets) per frame.
    pub fn capacity(&self) -> usize {
        self.frame.total_slots()
    }

    /// Number of QoS classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of (beam, class) flow aggregates.
    pub fn n_aggregates(&self) -> usize {
        self.beams * self.classes.len()
    }

    /// The switch queueing discipline implied by the classes.
    pub fn qos(&self) -> QosConfig {
        QosConfig {
            classes: self
                .classes
                .iter()
                .map(|c| ClassConfig {
                    strict: c.strict,
                    weight: c.weight,
                    queue_limit: c.queue_limit,
                    early_drop: c.early_drop,
                })
                .collect(),
        }
    }
}

/// Histogram bucket upper bounds for latencies measured in frame ticks:
/// roughly four points per octave from 1 to 1024 frames (plus the
/// implicit overflow bucket).
pub fn tick_buckets() -> Vec<u64> {
    vec![
        1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_is_consistent() {
        let cfg = TrafficConfig::standard(1.0);
        assert_eq!(cfg.capacity(), 48);
        assert_eq!(cfg.n_aggregates(), 18);
        let share: f64 = cfg.classes.iter().map(|c| c.share).sum();
        assert!((share - 1.0).abs() < 1e-12);
        assert_eq!(cfg.qos().n_classes(), 3);
        assert!(cfg.qos().classes[0].strict);
    }

    #[test]
    fn tick_buckets_are_strictly_ascending() {
        let b = tick_buckets();
        assert!(b.windows(2).all(|w| w[0] < w[1]), "{b:?}");
    }
}
