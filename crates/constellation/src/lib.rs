//! # gsp-constellation — N software payloads sharded across threads
//!
//! The paper's pitch is a payload whose function is *software*: one
//! generic processing platform, many missions. This crate takes the
//! obvious next step for capacity — if the payload is software, a
//! **constellation** of them is a data-parallel program. It shards the
//! single-payload stack (traffic engine, transponder pipeline, telemetry,
//! FDIR supervision) into N satellites × M transponders, stepped in
//! parallel on a pool of shard threads, joined by inter-satellite links
//! and a beam-to-gateway routing table:
//!
//! * [`satellite`] — one spacecraft: a [`gsp_traffic::TrafficEngine`]
//!   homed at the satellite's global beams, an optional
//!   [`gsp_payload::pipeline::PipelineEngine`] (the M transponder
//!   lanes), and a one-equipment [`gsp_fdir::Supervisor`] whose watchdog
//!   turns a frozen heartbeat into a whole-spacecraft quarantine.
//! * [`routing`] — the beam-to-gateway table: global beam → owning
//!   satellite → ground gateway, with deterministic round-robin
//!   reconvergence when a satellite dies.
//! * [`engine`] — the coordinator: a bulk-synchronous frame clock that
//!   sends each `Box<Satellite>` by value through
//!   [`gsp_payload::pool::Pool`] (the pipeline's worker pool, one level
//!   up) and receives them back in order, merges ISL egress in fixed satellite order onto bounded one-frame-
//!   latency links, migrates beam populations between satellites at
//!   frame boundaries (terminal handover), and reacts to FDIR
//!   quarantines by migrating a whole satellite out while routing
//!   reconverges onto the survivors.
//!
//! ## Determinism contract
//!
//! A constellation run is a pure function of `(config, seed, frames,
//! fault script)` — satellites never share state while stepping, link
//! merges happen in fixed satellite order, ISL routing is a pure hash of immutable
//! packet fields, and every per-aggregate RNG stream is derived from the
//! constellation seed via SplitMix64. Reports are **bitwise identical**
//! across `shard_threads` ∈ {1, 2, …}; the inline single-thread run is
//! the reference.

#![deny(missing_docs)]

pub mod engine;
pub mod routing;
pub mod satellite;

pub use engine::{ConstellationEngine, ConstellationReport, QuarantineEvent};
pub use routing::RoutingTable;
pub use satellite::{Satellite, SatelliteReport, SatelliteStep};

use gsp_payload::chain::ChainConfig;
use gsp_traffic::TrafficConfig;

/// Fraction of granted packets destined to a remote satellite's coverage
/// (hash-selected per packet; see [`gsp_traffic::IslConfig`]).
pub(crate) const REMOTE_FRACTION: f64 = 0.15;
/// Bound on each inter-satellite link queue, packets per frame; the
/// overflow is dropped with per-class accounting.
pub(crate) const ISL_QUEUE_LIMIT: usize = 4096;
/// Ground gateways the beam-to-gateway table folds downlinks onto.
pub(crate) const GATEWAYS: usize = 3;

/// Constellation-level configuration: the per-satellite stacks plus the
/// sharding knob.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstellationConfig {
    /// Satellites in the constellation (N).
    pub satellites: usize,
    /// Pool threads stepping the satellites; `<= 1` steps them inline
    /// (the bitwise reference), and values above `satellites` are
    /// clamped.
    pub shard_threads: usize,
    /// The per-satellite traffic scenario (beams, classes, offered
    /// load, terminals per aggregate).
    pub traffic: TrafficConfig,
    /// The per-satellite transponder pipeline (M carrier lanes), or
    /// `None` to run the traffic/FDIR planes alone.
    pub payload: Option<ChainConfig>,
}

impl ConstellationConfig {
    /// The standard constellation: N satellites each flying the standard
    /// three-class traffic scenario at `load`, no sample-level payload,
    /// 15% ISL-routed traffic, serial stepping (callers opt into shard
    /// threads explicitly).
    pub fn standard(satellites: usize, load: f64) -> Self {
        ConstellationConfig {
            satellites,
            shard_threads: 1,
            traffic: TrafficConfig::standard(load),
            payload: None,
        }
    }

    /// Logical terminals aggregated behind the whole constellation's
    /// flow aggregates — the offered-load scale figure.
    pub fn terminals_total(&self) -> u64 {
        self.satellites as u64
            * self.traffic.n_aggregates() as u64
            * gsp_traffic::TERMINALS_PER_AGGREGATE
    }
}

/// Satellite `idx`'s seed, derived from the constellation seed (distinct
/// SplitMix64 streams per spacecraft).
pub fn satellite_seed(seed: u64, idx: usize) -> u64 {
    rand::splitmix64_mix(seed ^ rand::splitmix64_mix(0xC0_5731_1A71_0000 ^ idx as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_scales_terminals_with_satellites() {
        let cfg = ConstellationConfig::standard(4, 1.0);
        assert_eq!(cfg.traffic.n_aggregates(), 18);
        assert_eq!(cfg.terminals_total(), 4 * 18 * 200_000);
        assert!(
            cfg.terminals_total() >= 2_000_000,
            "the acceptance scale floor"
        );
    }

    #[test]
    fn satellite_seeds_are_distinct_streams() {
        let seeds: Vec<u64> = (0..64).map(|i| satellite_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
        assert_ne!(satellite_seed(42, 0), satellite_seed(43, 0));
    }
}
