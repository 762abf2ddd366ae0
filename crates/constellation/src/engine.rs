//! The constellation coordinator: BSP frame clock over N satellite shards.
//!
//! Every frame is one bulk-synchronous superstep:
//!
//! 1. **Ingress** — each satellite receives the ISL packets launched
//!    toward it *last* frame (one-frame link latency).
//! 2. **Step** — every satellite runs [`crate::Satellite::step`]: the
//!    coordinator sends each `Box<Satellite>` by value through the
//!    payload's [`Pool`] and receives every one back in send order. With
//!    `shard_threads <= 1` the pool steps them inline; the reports are
//!    bitwise identical at any thread count.
//! 3. **Merge** — ISL egress is pushed onto the per-destination link
//!    queues in **fixed ascending satellite order** (dead destinations
//!    rerouted via [`RoutingTable::route_sat`]); queues are bounded by
//!    `ISL_QUEUE_LIMIT` with per-class drop accounting.
//! 4. **Reconverge** — any satellite whose supervisor confirmed
//!    `Quarantined` this frame is migrated out at the boundary: the
//!    routing table reassigns its beams round-robin over the survivors,
//!    each beam's population + DAMA backlog moves to its new owner, the
//!    switch is evacuated and — together with any ISL ingress buffered
//!    behind the freeze — forwarded over links to the beams' new owners.
//!
//! Satellites never share state while stepping and the merge order never
//! depends on thread timing, so a run is a pure function of
//! `(config, seed, frames, fault script)` — the determinism tests assert
//! byte-identical reports across shard-thread counts.

use gsp_fdir::Health;
use gsp_payload::pool::Pool;
use gsp_payload::switch::BasebandPacket;
use gsp_telemetry::Registry;
use gsp_traffic::ClassCounters;
use std::time::Instant;

use crate::routing::RoutingTable;
use crate::satellite::{Satellite, SatelliteReport, SatelliteStep};
use crate::{ConstellationConfig, GATEWAYS, ISL_QUEUE_LIMIT};

/// One whole-satellite quarantine, as reacted to by the coordinator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// Frame at which the coordinator migrated the satellite out.
    pub tick: u64,
    /// The satellite quarantined.
    pub sat: usize,
}

/// Deterministic constellation run totals: a pure function of
/// `(config, seed, frames, fault script)`. Carries no wall-clock content
/// — timing lives behind [`ConstellationEngine::shard_busy_ns`] and
/// [`ConstellationEngine::coordinator_ns`].
#[derive(Clone, Debug, PartialEq)]
pub struct ConstellationReport {
    /// Frames simulated.
    pub frames: u64,
    /// Per-satellite reports, in satellite order.
    pub satellites: Vec<SatelliteReport>,
    /// Packets dropped at a full ISL queue, per class.
    pub isl_dropped: Vec<u64>,
    /// Packets still in flight on ISL links.
    pub isl_in_flight: u64,
    /// Whole-satellite quarantines, in occurrence order.
    pub quarantines: Vec<QuarantineEvent>,
    /// Packets delivered per ground gateway (serving satellite × local
    /// beam folded through the beam-to-gateway table).
    pub delivered_per_gateway: Vec<u64>,
    /// Logical terminals aggregated behind the constellation's flow
    /// aggregates (the offered-load scale knob).
    pub terminals_total: u64,
}

impl ConstellationReport {
    /// Constellation-wide per-class counters (summed over satellites).
    pub fn class_totals(&self) -> Vec<ClassCounters> {
        let n = self
            .satellites
            .first()
            .map_or(0, |s| s.traffic.classes.len());
        let mut out = vec![ClassCounters::default(); n];
        for s in &self.satellites {
            for (t, c) in out.iter_mut().zip(&s.traffic.classes) {
                t.offered += c.offered;
                t.granted += c.granted;
                t.dropped_aged += c.dropped_aged;
                t.dropped_switch += c.dropped_switch;
                t.rerouted += c.rerouted;
                t.dropped_shed += c.dropped_shed;
                t.delivered += c.delivered;
                t.isl_out += c.isl_out;
                t.isl_in += c.isl_in;
                t.grant_latency_sum += c.grant_latency_sum;
                t.packet_latency_sum += c.packet_latency_sum;
            }
        }
        out
    }

    /// Packets delivered across the whole constellation.
    pub fn delivered(&self) -> u64 {
        self.satellites.iter().map(|s| s.traffic.delivered()).sum()
    }

    /// Packets offered across the whole constellation.
    pub fn offered(&self) -> u64 {
        self.class_totals().iter().map(|c| c.offered).sum()
    }

    /// All drops of class `class` anywhere in the constellation: DAMA
    /// age-outs, switch drops, outage sheds and ISL queue drops.
    pub fn class_dropped(&self, class: usize) -> u64 {
        self.class_totals()[class].dropped() + self.isl_dropped[class]
    }
}

/// A satellite's trip through the pool: the satellite (by value), the
/// frame tick and its ISL ingress out, its step output back.
type Trip = (Box<Satellite>, u64, Vec<BasebandPacket>, SatelliteStep);

fn step_satellite((sat, tick, isl_in, out): &mut Trip) {
    *out = sat.step(*tick, std::mem::take(isl_in));
}

/// The constellation coordinator; see the module docs for the superstep.
pub struct ConstellationEngine {
    cfg: ConstellationConfig,
    routing: RoutingTable,
    /// `None` only while a satellite is out on the pool.
    sats: Vec<Option<Box<Satellite>>>,
    /// Per-destination ISL queues; filled this frame, drained next.
    links: Vec<Vec<BasebandPacket>>,
    /// Per-class drops at a full ISL queue.
    isl_dropped: Vec<u64>,
    quarantines: Vec<QuarantineEvent>,
    tick: u64,
    pool: Pool<Trip>,
    /// Wall-clock ns in the coordinator's serial merge/reconverge span.
    coord_ns: u64,
}

impl ConstellationEngine {
    /// Builds the constellation with telemetry disabled.
    pub fn new(cfg: ConstellationConfig, seed: u64) -> Self {
        Self::with_telemetry(cfg, seed, &Registry::noop())
    }

    /// Builds the constellation; satellite `i` reports through
    /// `registry.scoped("sat<i>.")`.
    pub fn with_telemetry(cfg: ConstellationConfig, seed: u64, registry: &Registry) -> Self {
        assert!(cfg.satellites > 0, "a constellation needs satellites");
        assert!(
            cfg.satellites <= u16::MAX as usize,
            "satellite indices must fit the ISL u16 addressing"
        );
        let sats: Vec<Option<Box<Satellite>>> = (0..cfg.satellites)
            .map(|i| Some(Box::new(Satellite::new(i, &cfg, seed, registry))))
            .collect();
        ConstellationEngine {
            routing: RoutingTable::new(cfg.satellites, cfg.traffic.beams, GATEWAYS),
            sats,
            links: vec![Vec::new(); cfg.satellites],
            isl_dropped: vec![0; cfg.traffic.n_classes()],
            quarantines: Vec::new(),
            tick: 0,
            pool: Pool::new(cfg.shard_threads.min(cfg.satellites), step_satellite),
            coord_ns: 0,
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ConstellationConfig {
        &self.cfg
    }

    /// Frames simulated so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The routing table (beam ownership, gateways, liveness).
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Pushes one packet onto the link toward `dest`, honouring the
    /// bounded queue (drops are counted per class).
    fn push_link(&mut self, dest: usize, pkt: BasebandPacket) {
        if self.links[dest].len() >= ISL_QUEUE_LIMIT {
            self.isl_dropped[pkt.class as usize] += 1;
        } else {
            self.links[dest].push(pkt);
        }
    }

    /// Advances the whole constellation one frame (one BSP superstep —
    /// see the module docs).
    pub fn run_frame(&mut self) {
        let tick = self.tick;
        let n = self.cfg.satellites;
        // 1–2. Ingress and step: each satellite leaves with what was
        // launched toward it last frame, and comes back in send order.
        for s in 0..n {
            let sat = self.sats[s].take().expect("satellite present");
            let isl_in = std::mem::take(&mut self.links[s]);
            let out = SatelliteStep::default();
            self.pool.send((sat, tick, isl_in, out));
        }
        let mut outs: Vec<SatelliteStep> = Vec::with_capacity(n);
        for s in 0..n {
            let (sat, _, _, out) = self.pool.recv();
            self.sats[s] = Some(sat);
            outs.push(out);
        }

        // 3–4. The coordinator's serial span: merge egress in fixed
        // satellite order, then reconverge around fresh quarantines.
        let t0 = Instant::now();
        let mut quarantined_now: Vec<usize> = Vec::new();
        for (s, out) in outs.into_iter().enumerate() {
            for (dest, pkt) in out.isl_egress {
                let dest = self.routing.route_sat(dest as usize);
                self.push_link(dest, pkt);
            }
            for t in out.transitions {
                if t.to == Health::Quarantined {
                    quarantined_now.push(s);
                }
            }
        }
        for s in quarantined_now {
            self.apply_quarantine(s, tick);
        }
        self.tick += 1;
        self.coord_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Advances the constellation `frames` ticks.
    pub fn run(&mut self, frames: u64) {
        for _ in 0..frames {
            self.run_frame();
        }
    }

    /// Migrates quarantined satellite `s` out of the constellation:
    /// routing reconverges, every beam's population + backlog moves to
    /// its new owner, and stranded traffic (evacuated switch queues,
    /// frozen ISL ingress, packets already in flight toward `s`) is
    /// forwarded over links to the beams' new owners.
    fn apply_quarantine(&mut self, s: usize, tick: u64) {
        let moved = self.routing.quarantine(s);
        let beams = self.cfg.traffic.beams;
        let dead = self.sats[s].as_mut().expect("satellite present");
        let migrations: Vec<(usize, gsp_traffic::BeamMigration)> = moved
            .iter()
            .map(|&(g, to)| (to, dead.extract_beam(g)))
            .collect();
        let mut stranded = dead.evacuate_switch();
        stranded.extend(dead.take_pending_isl());
        stranded.extend(std::mem::take(&mut self.links[s]));
        for (to, m) in migrations {
            self.sats[to]
                .as_mut()
                .expect("satellite present")
                .inject_beam(m);
        }
        for pkt in stranded {
            // A stranded packet was addressed to one of the dead
            // satellite's local downlink beams; its cell's new owner
            // serves it (keeping the local beam index).
            let g = (s * beams + pkt.dest_beam as usize) as u64;
            let owner = self.routing.owner(g);
            self.push_link(owner, pkt);
        }
        self.quarantines.push(QuarantineEvent { tick, sat: s });
    }

    /// Injects a whole-spacecraft fault on satellite `s` (freeze-on-fault
    /// — the supervisor escalates to quarantine within `confirm_ticks`
    /// frames and the coordinator migrates the satellite out).
    pub fn fail_satellite(&mut self, s: usize) {
        self.sats[s].as_mut().expect("satellite present").fail();
    }

    /// Hands global beam `beam` over to satellite `to` at the current
    /// frame boundary: the beam's population and DAMA backlog migrate and
    /// the routing table re-points. Deterministic: the migrated aggregates
    /// resume their RNG streams exactly where they paused.
    pub fn handover(&mut self, beam: u64, to: usize) {
        let from = self.routing.owner(beam);
        if from == to {
            return;
        }
        assert!(self.routing.alive(to), "handover target is quarantined");
        let m = self.sats[from]
            .as_mut()
            .expect("satellite present")
            .extract_beam(beam);
        self.sats[to]
            .as_mut()
            .expect("satellite present")
            .inject_beam(m);
        self.routing.set_owner(beam, to);
    }

    /// Packets sitting in satellite `s`'s switch queues (live engine
    /// state — conservation audits read it alongside the report).
    pub fn switch_depth(&self, s: usize) -> usize {
        self.sats[s]
            .as_ref()
            .expect("satellite present")
            .switch_depth_total()
    }

    /// Wall-clock nanoseconds spent inside satellite steps, summed over
    /// all shards (CPU time when threaded, not wall time).
    pub fn shard_busy_ns(&self) -> u64 {
        self.sats
            .iter()
            .map(|s| s.as_ref().expect("satellite present").busy_ns())
            .sum()
    }

    /// Wall-clock nanoseconds in the coordinator's serial merge and
    /// reconverge span (the Amdahl serial fraction of a frame).
    pub fn coordinator_ns(&self) -> u64 {
        self.coord_ns
    }

    /// The deterministic run report (no wall-clock content).
    pub fn report(&self) -> ConstellationReport {
        let beams = self.cfg.traffic.beams;
        let mut per_gateway = vec![0u64; self.routing.gateways()];
        for (s, sat) in self.sats.iter().enumerate() {
            let sat = sat.as_ref().expect("satellite present");
            for (b, &d) in sat.traffic_stats().delivered_per_beam.iter().enumerate() {
                per_gateway[self.routing.gateway((s * beams + b) as u64)] += d;
            }
        }
        ConstellationReport {
            frames: self.tick,
            satellites: self
                .sats
                .iter()
                .map(|s| s.as_ref().expect("satellite present").report())
                .collect(),
            isl_dropped: self.isl_dropped.clone(),
            isl_in_flight: self.links.iter().map(|l| l.len() as u64).sum(),
            quarantines: self.quarantines.clone(),
            delivered_per_gateway: per_gateway,
            terminals_total: self.cfg.terminals_total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstellationConfig;

    fn run(cfg: ConstellationConfig, seed: u64, frames: u64) -> ConstellationReport {
        let mut e = ConstellationEngine::new(cfg, seed);
        e.run(frames);
        e.report()
    }

    #[test]
    fn serial_and_threaded_runs_are_bitwise_identical() {
        let mut cfg = ConstellationConfig::standard(4, 1.0);
        let serial = run(cfg.clone(), 42, 96);
        cfg.shard_threads = 2;
        let two = run(cfg.clone(), 42, 96);
        cfg.shard_threads = 4;
        let four = run(cfg.clone(), 42, 96);
        // Oversubscribed: more threads than satellites is clamped.
        cfg.shard_threads = 9;
        let nine = run(cfg, 42, 96);
        assert_eq!(serial, two);
        assert_eq!(serial, four);
        assert_eq!(serial, nine);
        assert!(serial.delivered() > 0);
        assert_eq!(serial.terminals_total, 4 * 18 * 200_000);
    }

    #[test]
    fn isl_traffic_flows_and_global_conservation_holds() {
        let mut e = ConstellationEngine::new(ConstellationConfig::standard(3, 1.0), 7);
        e.run(128);
        let r = e.report();
        let totals = r.class_totals();
        let isl_out: u64 = totals.iter().map(|c| c.isl_out).sum();
        let isl_in: u64 = totals.iter().map(|c| c.isl_in).sum();
        assert!(isl_out > 0, "remote fraction routed nothing");
        let isl_dropped: u64 = r.isl_dropped.iter().sum();
        assert_eq!(
            isl_out,
            isl_in + r.isl_in_flight + isl_dropped,
            "every ISL packet is delivered, in flight, or dropped"
        );
        // Global conservation: offered packets are delivered, dropped,
        // backlogged, queued in a switch, or in flight on a link.
        let offered = r.offered();
        let dropped: u64 = (0..totals.len()).map(|c| r.class_dropped(c)).sum();
        let backlog: u64 = r.satellites.iter().map(|s| s.traffic.backlog).sum();
        let switch: u64 = (0..3)
            .map(|s| {
                e.sats[s]
                    .as_ref()
                    .expect("satellite present")
                    .switch_depth_total() as u64
            })
            .sum();
        assert_eq!(
            offered,
            r.delivered() + dropped + backlog + switch + r.isl_in_flight
        );
    }

    #[test]
    fn handover_migrates_a_beam_between_satellites() {
        let mut e = ConstellationEngine::new(ConstellationConfig::standard(2, 1.0), 42);
        e.run(32);
        e.handover(1, 1);
        assert_eq!(e.routing().owner(1), 1);
        e.run(32);
        let r = e.report();
        assert_eq!(r.satellites[0].home_beams, vec![0, 2, 3, 4, 5]);
        assert!(r.satellites[1].home_beams.contains(&1));
        assert_eq!(r.frames, 64);
    }

    #[test]
    fn quarantine_migrates_beams_and_voice_survives_with_zero_drops() {
        let mut cfg = ConstellationConfig::standard(4, 1.0);
        cfg.shard_threads = 2;
        let mut e = ConstellationEngine::new(cfg.clone(), 42);
        e.run(64);
        e.fail_satellite(1);
        e.run(96);
        let r = e.report();
        assert_eq!(r.quarantines.len(), 1);
        assert_eq!(r.quarantines[0].sat, 1);
        assert_eq!(r.satellites[1].health, Health::Quarantined);
        // Routing reconverged: sat 1 serves nothing, survivors inherited.
        assert!(r.satellites[1].home_beams.is_empty());
        assert!(!e.routing().alive(1));
        assert_eq!(e.routing().owned_beams(1), Vec::<u64>::new());
        let inherited: usize = [0usize, 2, 3]
            .iter()
            .map(|&s| r.satellites[s].home_beams.len())
            .sum();
        assert_eq!(inherited, 24, "all 24 beams served by survivors");
        // The dead satellite froze: no frames, no stranded ingress.
        assert!(r.satellites[1].frames_skipped > 0);
        assert_eq!(r.satellites[1].pending_isl, 0, "frozen ingress evacuated");
        assert_eq!(
            e.sats[1]
                .as_ref()
                .expect("satellite present")
                .switch_depth_total(),
            0,
            "switch evacuated"
        );
        // Voice keeps flowing on the survivors with zero drops anywhere.
        assert_eq!(r.class_dropped(0), 0, "voice dropped during quarantine");
        let voice_after: u64 = [0usize, 2, 3]
            .iter()
            .map(|&s| r.satellites[s].traffic.classes[0].delivered)
            .sum();
        assert!(voice_after > 0);
        // And the run stays deterministic: replaying the same fault
        // script serially gives the identical report.
        cfg.shard_threads = 1;
        let mut e2 = ConstellationEngine::new(cfg, 42);
        e2.run(64);
        e2.fail_satellite(1);
        e2.run(96);
        assert_eq!(e2.report(), r);
    }
}
