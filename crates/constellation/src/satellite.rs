//! One satellite of the constellation: a full payload stack on a shard.
//!
//! A [`Satellite`] bundles everything the single-payload crates built —
//! a [`TrafficEngine`] homed at this satellite's global beams, optionally
//! a [`PipelineEngine`] (the M transponder lanes of the sample-level
//! chain), and a one-equipment FDIR [`Supervisor`] watching the whole
//! spacecraft — behind a single [`Satellite::step`] entry point the
//! constellation coordinator calls once per frame. The struct is `Send`
//! and owned by value, so the coordinator sends it through the payload's
//! worker pool each frame, the same pool and the same by-value discipline
//! as the pipeline's carrier lanes.
//!
//! ## Freeze-on-fault
//!
//! [`Satellite::fail`] models a whole-spacecraft fault (processor latch,
//! power bus trip): the satellite *skips* frames — population paused,
//! payload idle, ISL ingress buffered unprocessed — and, critically, its
//! heartbeat freezes. The supervisor's watchdog readout turns that into
//! `heartbeat_missed`, confirms over `confirm_ticks` frames, and emits a
//! `Healthy → Suspect → Quarantined` escalation that the coordinator
//! reacts to at the next frame boundary (beam migration, switch
//! evacuation, routing reconvergence). Everything on the decision path is
//! frame-clocked and deterministic.

use gsp_fdir::{DetectorReadout, Health, RecoveryMode, Supervisor, SupervisorConfig, Transition};
use gsp_payload::pipeline::{frame_seed, PipelineEngine};
use gsp_payload::switch::BasebandPacket;
use gsp_telemetry::Registry;
use gsp_traffic::{BeamMigration, IslConfig, TrafficEngine, TrafficStats};
use std::time::Instant;

use crate::ConstellationConfig;

/// What one satellite hands back from a frame step: its ISL egress (to be
/// merged onto links in fixed satellite order) and any FDIR health
/// transitions the coordinator must react to.
#[derive(Debug, Default)]
pub struct SatelliteStep {
    /// Granted packets routed off-satellite, `(destination, packet)`, in
    /// grant order.
    pub isl_egress: Vec<(u16, BasebandPacket)>,
    /// Supervisor health transitions this frame (the coordinator watches
    /// for `to == Quarantined`).
    pub transitions: Vec<Transition>,
}

/// Deterministic per-satellite run totals (no wall-clock content — the
/// shard timing lives behind [`Satellite::busy_ns`] instead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SatelliteReport {
    /// Satellite index.
    pub sat: usize,
    /// Frames actually executed.
    pub frames_run: u64,
    /// Frames skipped while frozen by a fault.
    pub frames_skipped: u64,
    /// Supervisor verdict on the spacecraft.
    pub health: Health,
    /// The traffic engine's deterministic totals.
    pub traffic: TrafficStats,
    /// Global uplink beams currently served (natives plus handovers).
    pub home_beams: Vec<u64>,
    /// Transponder frames where every carrier decoded CRC-clean
    /// (payload-enabled configurations only).
    pub payload_clean_frames: u64,
    /// Packets the transponder pipeline's switch forwarded.
    pub payload_packets: u64,
    /// ISL ingress buffered unprocessed behind a frozen satellite.
    pub pending_isl: u64,
}

/// One satellite's full stack; see the module docs.
pub struct Satellite {
    idx: usize,
    traffic: TrafficEngine,
    payload: Option<PipelineEngine>,
    payload_seed: u64,
    supervisor: Supervisor,
    /// Injected whole-spacecraft fault: while set, frames are skipped.
    faulted: bool,
    /// Frames executed (freezes with the fault — the watchdog signal).
    heartbeat: u64,
    /// The watchdog's last heartbeat sample.
    watchdog_seen: u64,
    /// ISL ingress that arrived while frozen, in arrival order.
    pending_isl: Vec<BasebandPacket>,
    frames_run: u64,
    frames_skipped: u64,
    payload_clean_frames: u64,
    payload_packets: u64,
    busy_ns: u64,
}

impl Satellite {
    /// Builds satellite `idx` of the constellation: traffic homed at
    /// global beams `idx·beams ..`, telemetry scoped under `sat<idx>.`,
    /// seeds derived per satellite from the constellation seed.
    pub fn new(idx: usize, cfg: &ConstellationConfig, seed: u64, registry: &Registry) -> Self {
        let scoped = registry.scoped(&format!("sat{idx}."));
        let sat_seed = crate::satellite_seed(seed, idx);
        let traffic_seed = rand::splitmix64_mix(sat_seed ^ 0x007A_FF1C);
        let payload_seed = rand::splitmix64_mix(sat_seed ^ 0x09A7_10AD);
        let beams = cfg.traffic.beams as u64;
        let mut traffic = TrafficEngine::for_shard(
            cfg.traffic.clone(),
            traffic_seed,
            idx as u64 * beams,
            &scoped,
        );
        traffic.set_isl(Some(IslConfig {
            self_sat: idx as u16,
            n_sats: cfg.satellites as u16,
            remote_fraction: crate::REMOTE_FRACTION,
        }));
        let payload = cfg.payload.clone().map(|p| {
            // One serial transponder pipeline per shard: the parallelism
            // axis is the constellation's shard threads, not nested
            // worker pools.
            let mut e = PipelineEngine::with_workers(p, 1);
            e.set_telemetry(&scoped);
            e
        });
        Satellite {
            idx,
            traffic,
            payload,
            payload_seed,
            supervisor: Supervisor::new(1, SupervisorConfig::standard(RecoveryMode::NoRecovery)),
            faulted: false,
            heartbeat: 0,
            watchdog_seen: 0,
            pending_isl: Vec::new(),
            frames_run: 0,
            frames_skipped: 0,
            payload_clean_frames: 0,
            payload_packets: 0,
            busy_ns: 0,
        }
    }

    /// This satellite's constellation index.
    pub fn idx(&self) -> usize {
        self.idx
    }

    /// Advances the satellite one frame: ISL ingress, transponder frame,
    /// traffic frame, watchdog sample, supervisor tick — or, while
    /// frozen, buffers the ingress and skips straight to the watchdog.
    pub fn step(&mut self, tick: u64, isl_in: Vec<BasebandPacket>) -> SatelliteStep {
        let t0 = Instant::now();
        if self.faulted || self.supervisor.health(0).is_isolated() {
            self.pending_isl.extend(isl_in);
            self.frames_skipped += 1;
        } else {
            let mut ingress = std::mem::take(&mut self.pending_isl);
            ingress.extend(isl_in);
            self.traffic.ingress_isl(ingress);
            if let Some(p) = &mut self.payload {
                let r = p.run_frame_at(frame_seed(self.payload_seed, tick as usize), tick);
                if r.all_clean() {
                    self.payload_clean_frames += 1;
                }
                self.payload_packets += r.packets_forwarded;
            }
            self.traffic.run_frame();
            self.heartbeat += 1;
            self.frames_run += 1;
        }
        let readout = DetectorReadout {
            heartbeat_missed: self.heartbeat == self.watchdog_seen,
            ..DetectorReadout::default()
        };
        self.watchdog_seen = self.heartbeat;
        let outcome = self.supervisor.step(tick, &[readout]);
        let isl_egress = self.traffic.take_isl_egress();
        self.busy_ns += t0.elapsed().as_nanos() as u64;
        SatelliteStep {
            isl_egress,
            transitions: outcome.transitions,
        }
    }

    /// Injects a whole-spacecraft fault (freeze-on-fault — see the
    /// module docs).
    pub fn fail(&mut self) {
        self.faulted = true;
    }

    /// The supervisor's verdict on the spacecraft.
    pub fn health(&self) -> Health {
        self.supervisor.health(0)
    }

    /// The global uplink beams currently served, ascending.
    pub fn home_beams(&self) -> Vec<u64> {
        self.traffic.home_beams()
    }

    /// Lifts one global beam's population and DAMA backlog out — the
    /// departure half of a handover or quarantine migration.
    pub fn extract_beam(&mut self, home_beam: u64) -> BeamMigration {
        self.traffic.extract_beam_population(home_beam)
    }

    /// Injects a handed-over beam (the arrival half).
    pub fn inject_beam(&mut self, m: BeamMigration) {
        self.traffic.inject_beam_population(m);
    }

    /// Drains every switch queue for off-satellite forwarding (the
    /// quarantine evacuation; packets are counted `isl_out`).
    pub fn evacuate_switch(&mut self) -> Vec<BasebandPacket> {
        self.traffic.evacuate_switch()
    }

    /// Takes the ISL ingress buffered while frozen, in arrival order.
    pub fn take_pending_isl(&mut self) -> Vec<BasebandPacket> {
        std::mem::take(&mut self.pending_isl)
    }

    /// The traffic engine's deterministic totals.
    pub fn traffic_stats(&self) -> &TrafficStats {
        self.traffic.stats()
    }

    /// Packets sitting in switch queues across all beams.
    pub fn switch_depth_total(&self) -> usize {
        self.traffic.switch_depth_total()
    }

    /// Wall-clock nanoseconds this shard has spent inside
    /// [`Satellite::step`] (timing only — never part of a report).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// The deterministic per-satellite report (no wall-clock content).
    pub fn report(&self) -> SatelliteReport {
        SatelliteReport {
            sat: self.idx,
            frames_run: self.frames_run,
            frames_skipped: self.frames_skipped,
            health: self.health(),
            traffic: self.traffic.stats().clone(),
            home_beams: self.home_beams(),
            payload_clean_frames: self.payload_clean_frames,
            payload_packets: self.payload_packets,
            pending_isl: self.pending_isl.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstellationConfig;

    fn cfg(satellites: usize) -> ConstellationConfig {
        ConstellationConfig::standard(satellites, 1.0)
    }

    #[test]
    fn a_healthy_satellite_runs_frames_and_emits_isl() {
        let mut s = Satellite::new(0, &cfg(4), 42, &Registry::noop());
        let mut egress = 0usize;
        for tick in 0..64 {
            let out = s.step(tick, Vec::new());
            for (dest, _) in &out.isl_egress {
                assert!((*dest as usize) < 4 && *dest != 0);
            }
            egress += out.isl_egress.len();
            assert!(out.transitions.is_empty(), "healthy run must stay quiet");
        }
        assert!(egress > 0, "remote fraction routed nothing");
        let r = s.report();
        assert_eq!(r.frames_run, 64);
        assert_eq!(r.health, Health::Healthy);
        assert_eq!(r.home_beams, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn freeze_on_fault_escalates_to_quarantine_and_buffers_ingress() {
        let mut s = Satellite::new(1, &cfg(4), 42, &Registry::noop());
        for tick in 0..16 {
            s.step(tick, Vec::new());
        }
        s.fail();
        let mut quarantined_at = None;
        for tick in 16..24 {
            let pkt = BasebandPacket {
                source: 9,
                dest_beam: 0,
                class: 0,
                born_tick: tick,
                data: vec![0; 8],
            };
            let out = s.step(tick, vec![pkt]);
            for t in out.transitions {
                if t.to == Health::Quarantined {
                    quarantined_at = Some(tick);
                }
            }
        }
        // Suspect on the first missed heartbeat, confirmed one frame
        // later (confirm_ticks = 2).
        assert_eq!(quarantined_at, Some(17));
        let r = s.report();
        assert_eq!(r.frames_run, 16);
        assert_eq!(r.frames_skipped, 8);
        assert_eq!(
            r.pending_isl, 8,
            "frozen ingress must be buffered, not lost"
        );
        assert_eq!(s.take_pending_isl().len(), 8);
    }
}
