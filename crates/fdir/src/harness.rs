//! The closed-loop FDIR soak: injection, detection, recovery and the
//! live traffic plane advancing on one frame clock.
//!
//! Each downlink beam is modelled as one *equipment*: a small
//! partially-reconfigurable FPGA (its demod/decode personality), the
//! lane state feeding it (heartbeats, CRC checker, queue memory) and a
//! scrubber. Equipment `n_beams` is the central DAMA scheduler. Every
//! frame tick:
//!
//! 1. the [`crate::inject::FaultInjector`] draws this
//!    tick's SEUs and corrupts live state — configuration bits flip,
//!    lanes stall, grant tables stop validating;
//! 2. the detectors run — watchdog heartbeats, CRC-rate tripwires,
//!    CRC read-back against the golden bitstream, EDAC correction
//!    counts, grant-table trips — and feed the
//!    [`crate::supervisor::Supervisor`];
//! 3. ordered [`RecoveryAction`]s execute: scrub passes, lane resets,
//!    and — the ladder's last rung — a golden-bitstream re-upload over
//!    the lossy uplink whose simulated transfer time extends the
//!    equipment's busy window;
//! 4. health transitions drive the traffic plane: a quarantined beam is
//!    outaged (voice reroutes to a backup, best-effort sheds), a healed
//!    beam rejoins;
//! 5. the [`TrafficEngine`] runs one frame under whatever capacity
//!    remains.
//!
//! The whole loop is bitwise deterministic per seed, and every FDIR
//! event is observable through `gsp-telemetry` without ever being
//! consulted: the [`SoakReport`] is bit-identical with the registry
//! enabled or disabled.
//!
//! A note on clocks: one frame tick stands for the injector's
//! `TICK_EXPOSURE_DAYS` of orbital radiation exposure, so a
//! few-hundred-tick soak sees a realistic upset population. The
//! reconfiguration uplink's simulated transfer time is charged against
//! the recovering equipment at `UPLINK_NS_PER_TICK` — compressed by the
//! same spirit, so a multi-second GEO transfer costs tens of ticks of
//! unavailability rather than dominating (or vanishing from) the soak.

use crate::inject::{FaultInjector, FaultKind};
use crate::recovery::{ReconfigUplink, UplinkOutcome};
use crate::supervisor::{
    DetectorReadout, Health, RecoveryAction, RecoveryMode, Supervisor, SupervisorConfig,
};
use gsp_fpga::mitigation::{ReadbackStrategy, Scrubber};
use gsp_fpga::{Bitstream, ConfigPort, FpgaDevice, FpgaFabric};
use gsp_telemetry::{Counter, Gauge, Histogram, Registry};
use gsp_traffic::{BeamOutage, TrafficConfig, TrafficEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-beam digital processing FPGA: a small partially
/// reconfigurable part whose 8192 configuration bits are the beam's
/// radiation-sensitive cross-section.
fn beam_device(frames: usize) -> FpgaDevice {
    FpgaDevice {
        name: "BEAM-DPP",
        clb_rows: 4,
        clb_cols: 4,
        frames,
        frame_bytes: 256,
        gate_capacity: 10_000,
        partial_reconfig: true,
        port: ConfigPort::Jtag {
            clock_hz: 10_000_000,
        },
        essential_fraction: 0.2,
    }
}

/// Simulated uplink nanoseconds charged as one tick of equipment busy
/// time (the transfer-to-frame clock exchange rate).
const UPLINK_NS_PER_TICK: u64 = 1_000_000_000;
/// Grant-table sensitive bits on the scheduler equipment.
const SCHEDULER_BITS: u64 = 4096;

/// Soak parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct HarnessConfig {
    /// Downlink beams (= beam equipments; the scheduler is one more).
    pub beams: usize,
    /// Offered traffic load as a multiple of uplink capacity.
    pub load: f64,
    /// Frame ticks to run.
    pub frames: u64,
    /// Injection stops at this tick (a quiet tail lets every recovery
    /// finish, so a healthy end state is a meaningful assertion).
    pub inject_until: u64,
    /// SEU rate as a multiple of the Table 1 baseline (1.0 = baseline,
    /// 10.0 = the accelerated soak regime).
    pub rate_multiplier: f64,
    /// Detection / escalation policy.
    pub supervisor: SupervisorConfig,
    /// The reconfiguration uplink the ladder's last rung crosses.
    pub uplink: ReconfigUplink,
    /// Configuration frames per beam FPGA (golden bitstream size knob:
    /// the wire image is roughly `golden_frames × 256` bytes, which is
    /// what must fit — or resume across — contact windows).
    pub golden_frames: usize,
}

impl HarnessConfig {
    /// The accelerated soak regime: 6 beams at 0.75 load, SEU rate at
    /// `rate_multiplier`× the Table 1 baseline, full recovery ladder
    /// over the 20%-loss GEO uplink, 768 ticks with a 96-tick tail.
    pub fn soak(rate_multiplier: f64) -> Self {
        HarnessConfig {
            beams: 6,
            load: 0.75,
            frames: 768,
            inject_until: 672,
            rate_multiplier,
            supervisor: SupervisorConfig::standard(RecoveryMode::FullLadder),
            uplink: ReconfigUplink::flight_default(),
            golden_frames: 4,
        }
    }

    /// The same soak with a different recovery policy.
    pub fn soak_with_mode(rate_multiplier: f64, mode: RecoveryMode) -> Self {
        HarnessConfig {
            supervisor: SupervisorConfig::standard(mode),
            ..Self::soak(rate_multiplier)
        }
    }
}

/// One beam's recoverable hardware: fabric, golden image, scrubber and
/// the lane fault latches.
struct BeamEquipment {
    fabric: FpgaFabric,
    golden: Bitstream,
    wire: Vec<u8>,
    scrubber: Scrubber,
    stalled: bool,
    crc_fault: bool,
    edac_fault: bool,
    hard_fault: bool,
}

impl BeamEquipment {
    fn new(beam: usize, frames: usize) -> Self {
        let device = beam_device(frames);
        let golden = Bitstream::synthesise(100 + beam as u32, &device, device.frames);
        let mut fabric = FpgaFabric::new(device);
        fabric
            .configure_full(&golden)
            .expect("golden image fits its own device");
        fabric.power_on();
        let wire = golden.serialise().to_vec();
        BeamEquipment {
            fabric,
            golden,
            wire,
            scrubber: Scrubber::new(1),
            stalled: false,
            crc_fault: false,
            edac_fault: false,
            hard_fault: false,
        }
    }

    fn sensitive_bits(&self) -> u64 {
        self.fabric.device().config_bits()
    }
}

/// Telemetry handles (all no-op unless a registry was attached).
struct Instruments {
    injected: Vec<Counter>,
    detections: Counter,
    transitions: Counter,
    scrubs: Counter,
    resets: Counter,
    reconfigs: Counter,
    uplink_sessions: Counter,
    uplink_retransmissions: Counter,
    uplink_failures: Counter,
    mttr: Histogram,
    quarantined: Gauge,
    availability: Gauge,
}

impl Instruments {
    fn register(registry: &Registry) -> Self {
        Instruments {
            injected: FaultKind::ALL
                .iter()
                .map(|k| registry.counter(&format!("fdir.injected.{}", k.name())))
                .collect(),
            detections: registry.counter("fdir.detections"),
            transitions: registry.counter("fdir.transitions"),
            scrubs: registry.counter("fdir.recovery.scrub"),
            resets: registry.counter("fdir.recovery.reset"),
            reconfigs: registry.counter("fdir.recovery.reconfig"),
            uplink_sessions: registry.counter("fdir.uplink.sessions"),
            uplink_retransmissions: registry.counter("fdir.uplink.retransmissions"),
            uplink_failures: registry.counter("fdir.uplink.failures"),
            mttr: registry.histogram_with("fdir.recovery.mttr", gsp_traffic::tick_buckets()),
            quarantined: registry.gauge("fdir.quarantined"),
            availability: registry.gauge("fdir.availability"),
        }
    }
}

/// The closed loop: injector → detectors → supervisor → recovery →
/// traffic plane, one frame tick at a time.
pub struct FdirHarness {
    cfg: HarnessConfig,
    seed: u64,
    rng: StdRng,
    injector: FaultInjector,
    supervisor: Supervisor,
    beams: Vec<BeamEquipment>,
    engine: TrafficEngine,
    tel: Instruments,
    tick: u64,
    injected: [u64; 6],
    grant_trips_seen: u64,
    mttr_reported: usize,
    uploads: Vec<UploadRecord>,
}

impl FdirHarness {
    /// A harness with telemetry disabled.
    pub fn new(cfg: HarnessConfig, seed: u64) -> Self {
        Self::with_telemetry(cfg, seed, &Registry::noop())
    }

    /// A harness publishing `fdir.*` metrics (and the traffic plane's
    /// `traffic.*` metrics) on `registry`.
    pub fn with_telemetry(cfg: HarnessConfig, seed: u64, registry: &Registry) -> Self {
        assert!(cfg.beams >= 2, "rerouting needs a backup beam");
        assert!(cfg.inject_until <= cfg.frames);
        let traffic_cfg = TrafficConfig {
            beams: cfg.beams,
            ..TrafficConfig::standard(cfg.load)
        };
        FdirHarness {
            injector: FaultInjector::new(cfg.rate_multiplier),
            supervisor: Supervisor::new(cfg.beams + 1, cfg.supervisor),
            beams: (0..cfg.beams)
                .map(|b| BeamEquipment::new(b, cfg.golden_frames))
                .collect(),
            engine: TrafficEngine::with_telemetry(traffic_cfg, seed, registry),
            tel: Instruments::register(registry),
            rng: StdRng::seed_from_u64(seed ^ 0xFD1E_5EED_5A17_0001),
            cfg,
            seed,
            tick: 0,
            injected: [0; 6],
            grant_trips_seen: 0,
            mttr_reported: 0,
            uploads: Vec::new(),
        }
    }

    /// Health of `equipment` (beams `0..beams`, scheduler last).
    pub fn health(&self, equipment: usize) -> Health {
        self.supervisor.health(equipment)
    }

    /// The supervisor (read access for assertions and reporting).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// The traffic engine riding the soak.
    pub fn engine(&self) -> &TrafficEngine {
        &self.engine
    }

    /// Latches a hard fault on `beam`, as if a radiation hit had burned
    /// a lane driver. Only a verified golden-bitstream re-upload clears
    /// it — the deterministic trigger for the ground-contact scenarios.
    pub fn force_hard_fault(&mut self, beam: usize) {
        self.beams[beam].hard_fault = true;
    }

    fn inject(&mut self) {
        let n = self.cfg.beams;
        let bits = self.beams[0].sensitive_bits();
        let faults = self.injector.draw(n, bits, SCHEDULER_BITS, &mut self.rng);
        for f in faults {
            self.injected[f.kind.index()] += 1;
            self.tel.injected[f.kind.index()].inc();
            match f.kind {
                FaultKind::ConfigUpset => {
                    self.beams[f.equipment]
                        .fabric
                        .inject_random_upset(&mut self.rng);
                }
                FaultKind::LaneCrc => self.beams[f.equipment].crc_fault = true,
                FaultKind::LaneStall => self.beams[f.equipment].stalled = true,
                FaultKind::SwitchEdac => {
                    self.beams[f.equipment].edac_fault = true;
                    self.engine.note_switch_edac(f.equipment);
                }
                FaultKind::HardFault => self.beams[f.equipment].hard_fault = true,
                FaultKind::GrantTable => self.engine.inject_scheduler_fault(),
            }
        }
    }

    fn readouts(&mut self) -> Vec<DetectorReadout> {
        let mut out: Vec<DetectorReadout> = self
            .beams
            .iter()
            .map(|b| {
                let scan_bad = ReadbackStrategy::CrcCompare
                    .detect(&b.fabric, &b.golden)
                    .map(|bad| !bad.is_empty())
                    .unwrap_or(true);
                DetectorReadout {
                    heartbeat_missed: b.stalled,
                    crc_rate_trip: b.crc_fault || b.hard_fault,
                    function_broken: scan_bad || !b.fabric.function_correct(&b.golden),
                    edac_trip: b.edac_fault,
                    grant_trip: false,
                }
            })
            .collect();
        let trips = self.engine.scheduler_faults_detected();
        out.push(DetectorReadout {
            grant_trip: trips > self.grant_trips_seen,
            ..DetectorReadout::default()
        });
        self.grant_trips_seen = trips;
        out
    }

    fn execute(&mut self, action: RecoveryAction) {
        let n = self.cfg.beams;
        match action {
            RecoveryAction::Scrub { equipment } => {
                self.tel.scrubs.inc();
                if equipment < n {
                    let b = &mut self.beams[equipment];
                    b.scrubber
                        .scrub_full(&mut b.fabric, &b.golden)
                        .expect("scrub on a powered fabric");
                }
                // Scheduler: a scrub has nothing to rewrite — the rung
                // burns its busy window and the ladder escalates.
            }
            RecoveryAction::Reset { equipment } => {
                self.tel.resets.inc();
                self.reset_state(equipment);
            }
            RecoveryAction::Reconfigure { equipment } => {
                self.tel.reconfigs.inc();
                // Decorrelate each upload's channel from the soak seed,
                // the tick and the equipment, deterministically.
                let upload_seed =
                    rand::splitmix64_mix(self.seed ^ (self.tick << 20) ^ ((equipment as u64) << 8));
                let wire: Vec<u8> = if equipment < n {
                    self.beams[equipment].wire.clone()
                } else {
                    // The scheduler's "golden image" is its grant-table
                    // microcode: small, but it still crosses the link.
                    (0..512u32).flat_map(|i| i.to_be_bytes()).collect()
                };
                let out = self.cfg.uplink.upload(&wire, upload_seed);
                self.tel.uplink_sessions.add(out.sessions as u64);
                self.tel.uplink_retransmissions.add(out.retransmissions);
                self.uploads.push(UploadRecord {
                    equipment,
                    tick: self.tick,
                    outcome: out.clone(),
                });
                if out.verified {
                    if let Some(b) = self.beams.get_mut(equipment) {
                        let fresh =
                            Bitstream::deserialise(&wire).expect("the verified upload round-trips");
                        b.fabric.power_off();
                        b.fabric
                            .configure_full(&fresh)
                            .expect("golden image fits its own device");
                        b.fabric.power_on();
                        b.hard_fault = false;
                    }
                    self.reset_state(equipment);
                } else {
                    self.tel.uplink_failures.inc();
                }
                // The transfer occupied the equipment for its simulated
                // duration, success or not.
                let busy = out.elapsed_ns / UPLINK_NS_PER_TICK;
                self.supervisor.extend_busy(equipment, busy);
            }
        }
    }

    /// A state reset: clears a beam's lane latches (a latched hard fault
    /// survives it) or the scheduler's grant-table fault.
    fn reset_state(&mut self, equipment: usize) {
        match self.beams.get_mut(equipment) {
            Some(b) => (b.stalled, b.crc_fault, b.edac_fault) = (false, false, false),
            None => self.engine.clear_scheduler_fault(),
        }
    }

    fn apply_transition(&mut self, equipment: usize, to: Health) {
        let n = self.cfg.beams;
        if equipment >= n {
            return; // Scheduler quarantine already freezes grants.
        }
        match to {
            Health::Healthy => self.engine.set_beam_outage(equipment, None),
            // The outage set at quarantine holds while a rung runs.
            Health::Recovering => {}
            // Isolated (or written off): route around the beam through
            // the nearest beam that is itself serviceable.
            to if to.is_isolated() => {
                let backup = (1..n)
                    .map(|d| (equipment + d) % n)
                    .find(|&b| self.engine.beam_outage(b).is_none())
                    .unwrap_or((equipment + 1) % n);
                self.engine.set_beam_outage(
                    equipment,
                    Some(BeamOutage {
                        backup,
                        reroute_below: 1,
                    }),
                );
            }
            _ => {}
        }
    }

    /// Advances the loop one frame tick.
    pub fn step(&mut self) {
        let t = self.tick;
        if t < self.cfg.inject_until {
            self.inject();
        }
        let readouts = self.readouts();
        let detections = self.supervisor.detections();
        let outcome = self.supervisor.step(t, &readouts);
        self.tel
            .detections
            .add(self.supervisor.detections() - detections);
        self.tel.transitions.add(outcome.transitions.len() as u64);
        for tr in &outcome.transitions {
            self.apply_transition(tr.equipment, tr.to);
        }
        for action in outcome.actions {
            self.execute(action);
        }
        self.engine.run_frame();
        // Newly completed recoveries land in the MTTR histogram.
        let mttr = self.supervisor.mttr_ticks();
        for &v in &mttr[self.mttr_reported..] {
            self.tel.mttr.record(v);
        }
        self.mttr_reported = mttr.len();
        let quarantined = (0..=self.cfg.beams)
            .filter(|&e| self.supervisor.health(e).is_isolated())
            .count();
        self.tel.quarantined.set(quarantined as f64);
        self.tick += 1;
    }

    /// Runs the full soak and reports.
    pub fn run(mut self) -> SoakReport {
        for _ in 0..self.cfg.frames {
            self.step();
        }
        self.tel.availability.set(self.supervisor.availability());
        let stats = self.engine.stats();
        let voice = &stats.classes[0];
        SoakReport {
            frames: self.cfg.frames,
            injected: self.injected,
            detections: self.supervisor.detections(),
            transitions: self.supervisor.transitions(),
            mttr_ticks: self.supervisor.mttr_ticks().to_vec(),
            availability: self.supervisor.availability(),
            permanently_quarantined: self.supervisor.permanently_quarantined(),
            escalations: self.supervisor.escalations(),
            healthy_at_end: self.supervisor.all_healthy(),
            uplink_sessions: self.uploads.iter().map(|u| u.outcome.sessions as u64).sum(),
            uplink_retransmissions: self.uploads.iter().map(|u| u.outcome.retransmissions).sum(),
            uplink_failures: self.uploads.iter().filter(|u| !u.outcome.verified).count() as u64,
            voice_offered: voice.offered,
            voice_delivered: voice.delivered,
            voice_dropped: voice.dropped(),
            voice_rerouted: voice.rerouted,
            delivered: stats.delivered(),
            backlog: stats.backlog,
            uploads: self.uploads,
        }
    }
}

/// One golden-bitstream upload attempt the harness ran, with its full
/// contact-plane outcome (which passes and stations it crossed, where
/// it resumed).
#[derive(Clone, Debug, PartialEq)]
pub struct UploadRecord {
    /// Equipment the upload targeted (beams `0..beams`, scheduler last).
    pub equipment: usize,
    /// Frame tick the Reconfigure rung fired on.
    pub tick: u64,
    /// The uplink's detailed outcome.
    pub outcome: UplinkOutcome,
}

/// What a soak produced — a pure function of `(config, seed)`,
/// regardless of whether telemetry was attached.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakReport {
    /// Frame ticks run.
    pub frames: u64,
    /// Faults injected per [`FaultKind::ALL`] index.
    pub injected: [u64; 6],
    /// Confirmed fault detections.
    pub detections: u64,
    /// Health transitions taken.
    pub transitions: u64,
    /// Detection-to-healthy times of completed recoveries, in ticks.
    pub mttr_ticks: Vec<u64>,
    /// Fraction of equipment-ticks in nominal service.
    pub availability: f64,
    /// Equipments written off by ladder exhaustion.
    pub permanently_quarantined: usize,
    /// Recovery actions issued per rung (scrub, reset, reconfigure).
    pub escalations: [u64; 3],
    /// Every equipment Healthy when the soak ended.
    pub healthy_at_end: bool,
    /// TFTP sessions consumed by golden-bitstream uploads.
    pub uplink_sessions: u64,
    /// TFTP retransmissions across all uploads.
    pub uplink_retransmissions: u64,
    /// Uploads that exhausted their session budget unverified.
    pub uplink_failures: u64,
    /// Voice-class packets offered.
    pub voice_offered: u64,
    /// Voice-class packets delivered.
    pub voice_delivered: u64,
    /// Voice-class packets lost (aged, switch-dropped or shed).
    pub voice_dropped: u64,
    /// Voice-class packets rerouted around a quarantined beam.
    pub voice_rerouted: u64,
    /// Packets delivered across all classes and beams.
    pub delivered: u64,
    /// Packets still awaiting a grant at the end.
    pub backlog: u64,
    /// Every golden-bitstream upload the soak ran, in order.
    pub uploads: Vec<UploadRecord>,
}

impl SoakReport {
    fn mttr_percentile(&self, p: f64) -> Option<u64> {
        if self.mttr_ticks.is_empty() {
            return None;
        }
        let mut v = self.mttr_ticks.clone();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * p).round() as usize;
        Some(v[idx])
    }

    /// Median time-to-recover, in ticks.
    pub fn mttr_p50(&self) -> Option<u64> {
        self.mttr_percentile(0.50)
    }

    /// 95th-percentile time-to-recover, in ticks.
    pub fn mttr_p95(&self) -> Option<u64> {
        self.mttr_percentile(0.95)
    }

    /// Voice packets lost as a fraction of voice packets offered.
    pub fn voice_drop_rate(&self) -> f64 {
        if self.voice_offered == 0 {
            0.0
        } else {
            self.voice_dropped as f64 / self.voice_offered as f64
        }
    }

    /// Total faults injected.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_soak_stays_healthy_and_drops_nothing_to_fdir() {
        let cfg = HarnessConfig {
            rate_multiplier: 0.0,
            frames: 128,
            inject_until: 128,
            ..HarnessConfig::soak(1.0)
        };
        let report = FdirHarness::new(cfg, 5).run();
        assert_eq!(report.total_injected(), 0);
        assert_eq!(report.detections, 0);
        assert!((report.availability - 1.0).abs() < 1e-12);
        assert!(report.healthy_at_end);
        assert_eq!(report.voice_rerouted, 0);
    }

    #[test]
    fn soak_reports_are_deterministic_per_seed() {
        let a = FdirHarness::new(HarnessConfig::soak(10.0), 77).run();
        let b = FdirHarness::new(HarnessConfig::soak(10.0), 77).run();
        assert_eq!(a, b);
        let c = FdirHarness::new(HarnessConfig::soak(10.0), 78).run();
        assert_ne!(a, c, "seeds should decorrelate the soak");
    }

    #[test]
    fn accelerated_soak_detects_and_recovers() {
        let report = FdirHarness::new(HarnessConfig::soak(10.0), 11).run();
        assert!(report.total_injected() > 0, "10x must land faults");
        assert!(report.detections > 0, "faults must be detected");
        assert!(!report.mttr_ticks.is_empty(), "recoveries must complete");
        assert!(
            report.healthy_at_end,
            "the quiet tail must drain: {report:?}"
        );
        assert_eq!(report.permanently_quarantined, 0);
        assert!(
            report.availability > 0.95,
            "availability {:.4}",
            report.availability
        );
    }

    #[test]
    fn no_recovery_is_strictly_worse_same_seed() {
        let full = FdirHarness::new(HarnessConfig::soak(10.0), 11).run();
        let none = FdirHarness::new(
            HarnessConfig::soak_with_mode(10.0, RecoveryMode::NoRecovery),
            11,
        )
        .run();
        assert!(
            none.availability < full.availability,
            "{} vs {}",
            none.availability,
            full.availability
        );
        assert!(!none.healthy_at_end);
        assert!(none.mttr_ticks.is_empty(), "nothing ever recovers");
    }

    #[test]
    fn telemetry_observes_the_soak_without_perturbing_it() {
        let registry = Registry::new();
        let with = FdirHarness::with_telemetry(HarnessConfig::soak(10.0), 19, &registry).run();
        let without = FdirHarness::new(HarnessConfig::soak(10.0), 19).run();
        assert_eq!(with, without, "telemetry must be observed, never consulted");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("fdir.detections"),
            with.detections,
            "counters mirror the report"
        );
        assert_eq!(snap.counter("fdir.injected.config"), with.injected[0]);
    }
}
