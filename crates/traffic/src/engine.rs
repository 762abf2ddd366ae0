//! The frame-clocked traffic engine: population → DAMA → switch → beams.
//!
//! Each [`TrafficEngine::run_frame`] tick:
//!
//! 1. the [`crate::population::Population`] emits this frame's packets
//!    (each aggregate drawing from its own private RNG stream);
//! 2. they join the [`crate::dama::DamaLoop`] backlog, which ages, asks
//!    the scheduler, and releases granted packets oldest-first;
//! 3. released packets ingress the QoS [`PacketSwitch`] (grant latency
//!    measured at this boundary);
//! 4. every beam's Tx chain drains up to `beam_egress_per_frame` packets
//!    (strict/WRR order), measuring end-to-end packet latency
//!    `tick − born_tick`;
//! 5. the frame's telemetry is published to `gsp-telemetry` in one pass.
//!    Per-packet sites stage locally and publish at the public-call
//!    boundary: every counter is a field of [`TrafficStats`] and is
//!    published as its delta since the last publish, each class's tick
//!    latencies are staged in a [`HistogramBatch`] and flushed (and
//!    merged into the all-class `traffic.packet.latency` /
//!    `traffic.grant.latency`, so each observation is bucketed once),
//!    and the gauges are re-read. The same publish ends every other
//!    public mutator (`ingress_isl`, `evacuate_switch`,
//!    `set_beam_outage`, `extract_`/`inject_beam_population`), so at any
//!    public-call boundary the registry holds exactly what recording
//!    each packet as it passed would have left there.
//!
//! Telemetry is observed, never consulted: an engine with a live
//! [`Registry`] produces bit-identical [`TrafficStats`] to one without,
//! which the determinism tests assert.
//!
//! ## Metric names
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `traffic.frames` | counter | frames simulated |
//! | `traffic.backlog` | gauge | packets awaiting a DAMA grant |
//! | `traffic.sessions` | gauge | live population sessions |
//! | `traffic.packet.latency` | histogram | end-to-end ticks, all classes |
//! | `traffic.grant.latency` | histogram | DAMA wait ticks, all classes |
//! | `traffic.<class>.offered` | counter | packets generated |
//! | `traffic.<class>.delivered` | counter | packets out of a beam |
//! | `traffic.<class>.dropped_aged` | counter | DAMA age-outs |
//! | `traffic.<class>.dropped_switch` | counter | switch queue drops |
//! | `traffic.<class>.rerouted` | counter | packets re-pointed off an outaged beam |
//! | `traffic.<class>.dropped_shed` | counter | packets shed during a beam outage |
//! | `traffic.grant_table.trips` | counter | scheduler plans discarded as corrupt |
//! | `traffic.<class>.latency` | histogram | end-to-end ticks |
//! | `traffic.<class>.grant.latency` | histogram | DAMA wait ticks |
//! | `traffic.beam<b>.delivered` | counter | packets out of beam *b* |
//! | `traffic.beam<b>.depth` | gauge | beam *b* switch queue depth |
//! | `traffic.isl.out` | counter | granted packets routed to a remote satellite |
//! | `traffic.isl.in` | counter | packets ingressing from an inter-satellite link |
//!
//! In a constellation each shard resolves these names through a scoped
//! registry (`Registry::scoped("sat3.")`), so N engines share one
//! registry without collisions while the single-payload names above stay
//! stable.

use crate::dama::{AggregateBacklog, DamaLoop};
use crate::population::{MigratedBeam, Population};
use crate::{tick_buckets, TrafficConfig};
use gsp_payload::switch::{BasebandPacket, PacketSwitch};
use gsp_telemetry::{Counter, Gauge, HistogramBatch, Registry};

/// Deterministic per-class counters (the engine's ground truth — kept
/// independent of telemetry so a disabled registry changes nothing).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Packets generated by the population.
    pub offered: u64,
    /// Packets granted uplink capacity by the DAMA loop.
    pub granted: u64,
    /// Packets dropped in the DAMA backlog for exceeding `max_age`.
    pub dropped_aged: u64,
    /// Packets dropped by the switch (queue limit or early drop).
    pub dropped_switch: u64,
    /// Packets re-pointed from an outaged beam to its backup.
    pub rerouted: u64,
    /// Packets shed because their beam was outaged and their class too
    /// low to reroute (or the backup was down as well).
    pub dropped_shed: u64,
    /// Packets delivered out of a downlink beam.
    pub delivered: u64,
    /// Granted packets routed onto an inter-satellite link instead of a
    /// local beam (includes switch evacuations forwarded on quarantine).
    pub isl_out: u64,
    /// Packets that ingressed from an inter-satellite link.
    pub isl_in: u64,
    /// Sum of DAMA grant latencies (ticks) over granted packets.
    pub grant_latency_sum: u64,
    /// Sum of end-to-end latencies (ticks) over delivered packets.
    pub packet_latency_sum: u64,
}

impl ClassCounters {
    /// All losses attributable to this class.
    pub fn dropped(&self) -> u64 {
        self.dropped_aged + self.dropped_switch + self.dropped_shed
    }
}

/// Deterministic run totals: a pure function of `(config, seed, frames)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Frames simulated.
    pub frames: u64,
    /// Per-class counters, indexed like `TrafficConfig::classes`.
    pub classes: Vec<ClassCounters>,
    /// Packets delivered per downlink beam.
    pub delivered_per_beam: Vec<u64>,
    /// Packets currently awaiting a DAMA grant.
    pub backlog: u64,
}

impl TrafficStats {
    /// Packets delivered across all beams.
    pub fn delivered(&self) -> u64 {
        self.delivered_per_beam.iter().sum()
    }
}

/// Human-facing per-class digest derived from [`TrafficStats`].
#[derive(Clone, Debug, PartialEq)]
pub struct ClassSummary {
    /// Class name.
    pub name: String,
    /// Packets generated.
    pub offered: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// DAMA age-out drops.
    pub dropped_aged: u64,
    /// Switch queue drops.
    pub dropped_switch: u64,
    /// Packets rerouted off an outaged beam.
    pub rerouted: u64,
    /// Packets shed during a beam outage.
    pub dropped_shed: u64,
    /// All drops over offered (0 when idle).
    pub drop_rate: f64,
    /// Mean DAMA grant wait, ticks.
    pub mean_grant_latency: f64,
    /// Mean end-to-end latency, ticks.
    pub mean_packet_latency: f64,
}

/// Whole-run digest derived from [`TrafficStats`].
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSummary {
    /// Frames simulated.
    pub frames: u64,
    /// Per-class digests.
    pub classes: Vec<ClassSummary>,
    /// Packets delivered per beam.
    pub delivered_per_beam: Vec<u64>,
    /// Delivered packets per frame as a fraction of uplink capacity.
    pub goodput: f64,
    /// Packets still awaiting a grant at the end of the run.
    pub backlog: u64,
}

/// Degraded-service posture for one downlink beam while its equipment is
/// quarantined (set by the FDIR supervisor in `gsp-fdir`): traffic whose
/// class index is strictly below `reroute_below` is re-pointed at the
/// `backup` beam; everything else is shed with per-class accounting.
/// Class 0 (voice) is the highest priority, so `reroute_below: 1` keeps
/// voice flowing and sheds video and data — QoS-strict degradation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BeamOutage {
    /// Beam that carries rerouted traffic while this one is down.
    pub backup: usize,
    /// Classes with index below this are rerouted; the rest are shed.
    pub reroute_below: u8,
}

/// This engine's place in a constellation, for inter-satellite-link
/// routing of granted traffic (see [`TrafficEngine::set_isl`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IslConfig {
    /// This satellite's index.
    pub self_sat: u16,
    /// Satellites in the constellation.
    pub n_sats: u16,
    /// Fraction of granted packets destined to a remote satellite's
    /// coverage. The decision is a pure SplitMix64 hash of immutable
    /// packet fields — no RNG state — so it is reproducible regardless of
    /// grant order.
    pub remote_fraction: f64,
}

/// One aggregate beam's worth of population *and* DAMA backlog lifted
/// out of an engine — the unit of terminal handover between satellites.
/// Opaque: sessions, RNG streams, queued cohorts and class identities
/// travel together and are re-injected in lockstep.
#[derive(Clone, Debug)]
pub struct BeamMigration {
    pop: MigratedBeam,
    backlog: Vec<AggregateBacklog>,
}

impl BeamMigration {
    /// The global uplink beam being handed over.
    pub fn home_beam(&self) -> u64 {
        self.pop.home_beam()
    }
}

/// A registry counter that mirrors one engine total: [`Mirror::publish`]
/// adds whatever the total gained since the last publish.
#[derive(Clone, Debug)]
struct Mirror {
    counter: Counter,
    published: u64,
}

impl Mirror {
    fn new(counter: Counter) -> Self {
        Mirror {
            counter,
            published: 0,
        }
    }

    fn publish(&mut self, total: u64) {
        if total != self.published {
            self.counter.add(total - self.published);
            self.published = total;
        }
    }
}

/// One QoS class's instruments.
#[derive(Clone, Debug)]
struct ClassInstruments {
    offered: Mirror,
    delivered: Mirror,
    dropped_aged: Mirror,
    dropped_switch: Mirror,
    rerouted: Mirror,
    dropped_shed: Mirror,
    latency: HistogramBatch,
    grant_latency: HistogramBatch,
}

/// One downlink beam's instruments.
#[derive(Clone, Debug)]
struct BeamInstruments {
    delivered: Mirror,
    depth: Gauge,
}

/// Telemetry handles, resolved once at construction. Counters mirror
/// [`TrafficStats`]; tick latencies are staged per class and published,
/// with the all-class aggregates derived from them, by
/// [`TrafficEngine::publish`].
#[derive(Clone, Debug)]
struct Instruments {
    frames: Mirror,
    backlog: Gauge,
    sessions: Gauge,
    packet_latency: HistogramBatch,
    grant_latency: HistogramBatch,
    grant_trips: Mirror,
    isl_out: Mirror,
    isl_in: Mirror,
    classes: Vec<ClassInstruments>,
    beams: Vec<BeamInstruments>,
}

impl Instruments {
    /// The engine's instruments, or `None` for a disabled registry.
    fn resolve(reg: &Registry, cfg: &TrafficConfig) -> Option<Self> {
        if !reg.enabled() {
            return None;
        }
        let hist = |name: &str| HistogramBatch::new(reg.histogram_with(name, tick_buckets()));
        let counter = |name: &str| Mirror::new(reg.counter(name));
        Some(Instruments {
            frames: counter("traffic.frames"),
            backlog: reg.gauge("traffic.backlog"),
            sessions: reg.gauge("traffic.sessions"),
            packet_latency: hist("traffic.packet.latency"),
            grant_latency: hist("traffic.grant.latency"),
            grant_trips: counter("traffic.grant_table.trips"),
            isl_out: counter("traffic.isl.out"),
            isl_in: counter("traffic.isl.in"),
            classes: cfg
                .classes
                .iter()
                .map(|c| {
                    let name = |quantity: &str| ["traffic.", c.name, ".", quantity].concat();
                    ClassInstruments {
                        offered: counter(&name("offered")),
                        delivered: counter(&name("delivered")),
                        dropped_aged: counter(&name("dropped_aged")),
                        dropped_switch: counter(&name("dropped_switch")),
                        rerouted: counter(&name("rerouted")),
                        dropped_shed: counter(&name("dropped_shed")),
                        latency: hist(&name("latency")),
                        grant_latency: hist(&name("grant.latency")),
                    }
                })
                .collect(),
            beams: (0..cfg.beams)
                .map(|b| BeamInstruments {
                    delivered: counter(&format!("traffic.beam{b}.delivered")),
                    depth: reg.gauge(&format!("traffic.beam{b}.depth")),
                })
                .collect(),
        })
    }
}

/// The closed-loop traffic engine (see the module docs for the per-frame
/// sequence).
#[derive(Clone, Debug)]
pub struct TrafficEngine {
    cfg: TrafficConfig,
    population: Population,
    dama: DamaLoop,
    switch: PacketSwitch,
    tick: u64,
    stats: TrafficStats,
    /// Last-seen per-class switch drop totals, for per-frame deltas.
    switch_drop_base: Vec<u64>,
    /// Per-beam outage posture (None = beam healthy).
    outage: Vec<Option<BeamOutage>>,
    /// Constellation placement for ISL routing (None = single payload).
    isl: Option<IslConfig>,
    /// Granted packets awaiting ISL pickup, `(dest satellite, packet)`.
    isl_egress: Vec<(u16, BasebandPacket)>,
    /// `None` when telemetry is disabled.
    tel: Option<Instruments>,
}

impl TrafficEngine {
    /// Engine with telemetry disabled (a no-op registry).
    pub fn new(cfg: TrafficConfig, seed: u64) -> Self {
        Self::with_telemetry(cfg, seed, &Registry::noop())
    }

    /// Engine reporting through `registry`.
    pub fn with_telemetry(cfg: TrafficConfig, seed: u64, registry: &Registry) -> Self {
        Self::for_shard(cfg, seed, 0, registry)
    }

    /// A constellation shard's engine: its population is homed at global
    /// uplink beams `home_beam_base ..` so every satellite draws from
    /// disjoint terminal-id ranges and unrelated per-aggregate RNG
    /// streams (pass `satellite × cfg.beams`). `home_beam_base = 0`
    /// reproduces the single-payload engine exactly.
    pub fn for_shard(
        cfg: TrafficConfig,
        seed: u64,
        home_beam_base: u64,
        registry: &Registry,
    ) -> Self {
        let n = cfg.n_classes();
        let population = Population::with_home_base(&cfg, seed, home_beam_base);
        let dama = DamaLoop::new(&cfg);
        let switch = PacketSwitch::with_qos(cfg.beams, cfg.qos());
        let tel = Instruments::resolve(registry, &cfg);
        let stats = TrafficStats {
            frames: 0,
            classes: vec![ClassCounters::default(); n],
            delivered_per_beam: vec![0; cfg.beams],
            backlog: 0,
        };
        TrafficEngine {
            population,
            dama,
            switch,
            tick: 0,
            stats,
            switch_drop_base: vec![0; n],
            outage: vec![None; cfg.beams],
            isl: None,
            isl_egress: Vec::new(),
            tel,
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TrafficConfig {
        &self.cfg
    }

    /// Frames simulated so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The deterministic run totals.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Declares or lifts a beam outage (no-op for an out-of-range beam).
    ///
    /// Entering an outage immediately drains the beam's queued switch
    /// traffic and re-dispositions it under the outage rules — rerouted
    /// to the backup or shed by class — so nothing sits in a queue that
    /// will not drain. While the outage stands, newly granted packets for
    /// the beam get the same treatment and the beam's Tx chain egresses
    /// nothing. Lifting the outage restores normal service.
    pub fn set_beam_outage(&mut self, beam: usize, outage: Option<BeamOutage>) {
        if beam >= self.cfg.beams {
            return;
        }
        self.outage[beam] = outage;
        if outage.is_some() {
            for pkt in self.switch.drain_beam(beam) {
                self.dispatch(pkt);
            }
        }
        self.publish();
    }

    /// The outage posture of `beam`, if any.
    pub fn beam_outage(&self, beam: usize) -> Option<BeamOutage> {
        self.outage.get(beam).copied().flatten()
    }

    /// Imposes a persistent grant-table fault on the DAMA scheduler (an
    /// SEU in grant memory — see [`crate::dama::DamaLoop::inject_grant_fault`]).
    pub fn inject_scheduler_fault(&mut self) {
        self.dama.inject_grant_fault();
    }

    /// Clears an injected grant-table fault (the FDIR reset action).
    pub fn clear_scheduler_fault(&mut self) {
        self.dama.clear_grant_fault();
    }

    /// Scheduler plans discarded so far by the grant-table validity
    /// check (an FDIR tripwire input).
    pub fn scheduler_faults_detected(&self) -> u64 {
        self.dama.grant_faults_detected()
    }

    /// Places this engine in a constellation (or removes it with `None`):
    /// while set, a hash-selected `remote_fraction` of granted packets is
    /// routed onto inter-satellite links instead of a local beam, to be
    /// drained by [`TrafficEngine::take_isl_egress`].
    pub fn set_isl(&mut self, isl: Option<IslConfig>) {
        self.isl = isl;
    }

    /// Granted packets awaiting ISL pickup, `(destination satellite,
    /// packet)`, in grant order. The constellation drains this once per
    /// frame and merges across satellites in fixed index order.
    pub fn take_isl_egress(&mut self) -> Vec<(u16, BasebandPacket)> {
        std::mem::take(&mut self.isl_egress)
    }

    /// Ingresses packets arriving over inter-satellite links, in the
    /// given order (the constellation presents them merged in fixed
    /// source-satellite order). Outage postures apply as for local
    /// traffic.
    pub fn ingress_isl(&mut self, pkts: Vec<BasebandPacket>) {
        for pkt in pkts {
            self.stats.classes[pkt.class as usize].isl_in += 1;
            self.dispatch(pkt);
        }
        self.publish();
    }

    /// The global uplink beams this engine currently serves (natives
    /// plus handed-over ones), ascending.
    pub fn home_beams(&self) -> Vec<u64> {
        self.population.home_beams()
    }

    /// Lifts global uplink beam `home_beam`'s population aggregates and
    /// their DAMA backlogs out of this engine — the departure half of a
    /// terminal handover. Deterministic and frame-boundary-safe: nothing
    /// else about the engine changes.
    pub fn extract_beam_population(&mut self, home_beam: u64) -> BeamMigration {
        let (positions, pop) = self.population.extract_home_beam(home_beam);
        let backlog = self.dama.extract_aggregates(&positions);
        self.stats.backlog = self.dama.backlog_len() as u64;
        self.publish();
        BeamMigration { pop, backlog }
    }

    /// Injects a handed-over beam: population aggregates and DAMA
    /// backlogs are appended in lockstep, resuming their RNG streams and
    /// grant-latency clocks exactly where extraction paused them.
    pub fn inject_beam_population(&mut self, m: BeamMigration) {
        let classes = self.population.inject(m.pop);
        debug_assert_eq!(classes.len(), m.backlog.len());
        for b in m.backlog {
            self.dama.inject_aggregate(b);
        }
        debug_assert_eq!(
            self.population.aggregate_count(),
            self.dama.aggregate_count(),
            "population and DAMA aggregate orders must stay in lockstep"
        );
        self.stats.backlog = self.dama.backlog_len() as u64;
        self.publish();
    }

    /// Drains every beam's switch queue — the evacuation step of a
    /// whole-satellite quarantine. The caller forwards the packets over
    /// ISL (they are counted `isl_out`); queue depths drop to zero.
    pub fn evacuate_switch(&mut self) -> Vec<BasebandPacket> {
        let mut out = Vec::new();
        for beam in 0..self.cfg.beams {
            out.extend(self.switch.drain_beam(beam));
        }
        for pkt in &out {
            self.stats.classes[pkt.class as usize].isl_out += 1;
        }
        self.publish();
        out
    }

    /// Packets sitting in `beam`'s switch queue.
    pub fn switch_depth(&self, beam: usize) -> usize {
        self.switch.depth(beam)
    }

    /// Packets sitting in switch queues across all beams.
    pub fn switch_depth_total(&self) -> usize {
        (0..self.cfg.beams).map(|b| self.switch.depth(b)).sum()
    }

    /// Routes one granted packet to a remote satellite, or `None` to
    /// keep it local. A pure SplitMix64 hash of the packet's immutable
    /// fields drives both the remote/local decision and the (uniform)
    /// choice among the other satellites.
    fn isl_route(&self, pkt: &BasebandPacket) -> Option<u16> {
        let isl = self.isl.as_ref()?;
        if isl.n_sats <= 1 || isl.remote_fraction <= 0.0 {
            return None;
        }
        let key = (pkt.source as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ pkt.born_tick.rotate_left(17)
            ^ ((pkt.dest_beam as u64) << 8)
            ^ pkt.class as u64;
        let h = rand::splitmix64_mix(key);
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        if frac >= isl.remote_fraction {
            return None;
        }
        let h2 = rand::splitmix64_mix(h);
        let other = (h2 % (isl.n_sats as u64 - 1)) as u16;
        Some((isl.self_sat + 1 + other) % isl.n_sats)
    }

    /// Records one EDAC single-bit correction in `beam`'s switch queue
    /// memory (the injection side of the FDIR EDAC tripwire).
    pub fn note_switch_edac(&mut self, beam: usize) {
        self.switch.note_edac_correction(beam);
    }

    /// Routes one granted packet under the current outage postures:
    /// healthy beam → straight into the switch; outaged beam → reroute to
    /// the backup if the class qualifies and the backup is up, shed
    /// otherwise.
    fn dispatch(&mut self, mut pkt: gsp_payload::switch::BasebandPacket) {
        let beam = pkt.dest_beam as usize;
        let Some(outage) = self.outage.get(beam).copied().flatten() else {
            self.switch.ingress(pkt);
            return;
        };
        let class = pkt.class as usize;
        let backup_up = self.outage.get(outage.backup).is_some_and(|o| o.is_none());
        if pkt.class < outage.reroute_below && backup_up {
            pkt.dest_beam = outage.backup as u8;
            self.stats.classes[class].rerouted += 1;
            self.switch.ingress(pkt);
        } else {
            self.stats.classes[class].dropped_shed += 1;
        }
    }

    /// Advances the loop one frame.
    pub fn run_frame(&mut self) {
        let tick = self.tick;
        let n_classes = self.cfg.n_classes();

        // 1. Generate this frame's traffic.
        let offered = self.population.generate(tick);
        for o in &offered {
            self.stats.classes[o.packet.class as usize].offered += 1;
        }

        // 2–3. Closed DAMA loop: backlog in, grants out.
        self.dama.offer(tick, offered);
        let outcome = self.dama.run_frame(tick);
        for (class, &aged) in outcome.aged.iter().enumerate() {
            self.stats.classes[class].dropped_aged += aged;
        }
        for (pkt, grant_latency) in outcome.released {
            let class = pkt.class as usize;
            self.stats.classes[class].granted += 1;
            self.stats.classes[class].grant_latency_sum += grant_latency;
            if let Some(tel) = &mut self.tel {
                tel.classes[class].grant_latency.record(grant_latency);
            }
            if let Some(dest_sat) = self.isl_route(&pkt) {
                self.stats.classes[class].isl_out += 1;
                self.isl_egress.push((dest_sat, pkt));
            } else {
                self.dispatch(pkt);
            }
        }

        // 4. Downlink: each beam drains its Tx-chain share (an outaged
        // beam's Tx chain is down and egresses nothing).
        for beam in 0..self.cfg.beams {
            let share = if self.outage[beam].is_none() {
                self.cfg.beam_egress_per_frame
            } else {
                0
            };
            for _ in 0..share {
                let Some(pkt) = self.switch.egress(beam) else {
                    break;
                };
                let class = pkt.class as usize;
                let latency = tick.saturating_sub(pkt.born_tick);
                self.stats.classes[class].delivered += 1;
                self.stats.classes[class].packet_latency_sum += latency;
                self.stats.delivered_per_beam[beam] += 1;
                if let Some(tel) = &mut self.tel {
                    tel.classes[class].latency.record(latency);
                }
            }
        }

        // 5. Switch drop deltas (overflow + early + no-route) per class.
        for class in 0..n_classes {
            let cs = self.switch.class_stats(class);
            let total = cs.dropped_overflow + cs.dropped_early + cs.dropped_no_route;
            let delta = total - self.switch_drop_base[class];
            self.switch_drop_base[class] = total;
            self.stats.classes[class].dropped_switch += delta;
        }

        self.stats.backlog = self.dama.backlog_len() as u64;
        self.stats.frames += 1;
        self.tick += 1;
        self.publish();
    }

    /// Brings the registry up to date with the engine: counters gain
    /// their [`TrafficStats`] deltas, the staged tick latencies are
    /// flushed (each class batch also merged into the all-class
    /// aggregate), and the gauges are re-read. Every public mutator ends
    /// here, so between public calls the registry holds exactly what
    /// per-packet recording would have left in it.
    fn publish(&mut self) {
        let Some(tel) = &mut self.tel else { return };
        let stats = &self.stats;
        let total = |field: fn(&ClassCounters) -> u64| stats.classes.iter().map(field).sum();
        tel.frames.publish(stats.frames);
        tel.grant_trips.publish(self.dama.grant_faults_detected());
        tel.isl_out.publish(total(|c| c.isl_out));
        tel.isl_in.publish(total(|c| c.isl_in));
        for (ci, c) in tel.classes.iter_mut().zip(&stats.classes) {
            ci.offered.publish(c.offered);
            ci.delivered.publish(c.delivered);
            ci.dropped_aged.publish(c.dropped_aged);
            ci.dropped_switch.publish(c.dropped_switch);
            ci.rerouted.publish(c.rerouted);
            ci.dropped_shed.publish(c.dropped_shed);
            tel.packet_latency.merge_from(&ci.latency);
            tel.grant_latency.merge_from(&ci.grant_latency);
            ci.latency.flush();
            ci.grant_latency.flush();
        }
        tel.packet_latency.flush();
        tel.grant_latency.flush();
        for (b, bi) in tel.beams.iter_mut().enumerate() {
            bi.delivered.publish(stats.delivered_per_beam[b]);
            bi.depth.set(self.switch.depth(b) as f64);
        }
        tel.backlog.set(stats.backlog as f64);
        tel.sessions.set(self.population.active_sessions() as f64);
    }

    /// Advances the loop `frames` ticks.
    pub fn run(&mut self, frames: u64) {
        for _ in 0..frames {
            self.run_frame();
        }
    }

    /// Digest of the run so far.
    pub fn summary(&self) -> TrafficSummary {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let classes = self
            .cfg
            .classes
            .iter()
            .zip(&self.stats.classes)
            .map(|(c, s)| ClassSummary {
                name: c.name.to_string(),
                offered: s.offered,
                delivered: s.delivered,
                dropped_aged: s.dropped_aged,
                dropped_switch: s.dropped_switch,
                rerouted: s.rerouted,
                dropped_shed: s.dropped_shed,
                drop_rate: ratio(s.dropped(), s.offered),
                mean_grant_latency: ratio(s.grant_latency_sum, s.granted),
                mean_packet_latency: ratio(s.packet_latency_sum, s.delivered),
            })
            .collect();
        TrafficSummary {
            frames: self.stats.frames,
            classes,
            delivered_per_beam: self.stats.delivered_per_beam.clone(),
            goodput: ratio(self.stats.delivered(), self.stats.frames) / self.cfg.capacity() as f64,
            backlog: self.stats.backlog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soak(load: f64, seed: u64, frames: u64) -> TrafficEngine {
        let mut e = TrafficEngine::new(TrafficConfig::standard(load), seed);
        e.run(frames);
        e
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let a = soak(1.0, 42, 96);
        let b = soak(1.0, 42, 96);
        assert_eq!(a.stats(), b.stats());
        let c = soak(1.0, 43, 96);
        assert_ne!(a.stats(), c.stats(), "different seeds should diverge");
    }

    #[test]
    fn telemetry_observation_does_not_perturb_the_run() {
        let reg = Registry::new();
        let mut with = TrafficEngine::with_telemetry(TrafficConfig::standard(1.0), 42, &reg);
        with.run(96);
        let without = soak(1.0, 42, 96);
        assert_eq!(with.stats(), without.stats());
        // And the registry actually observed the run.
        let snap = reg.snapshot();
        assert_eq!(snap.counter("traffic.frames"), 96);
        assert_eq!(
            snap.counter("traffic.voice.delivered"),
            without.stats().classes[0].delivered
        );
        let h = snap.histogram("traffic.packet.latency").expect("hist");
        assert_eq!(h.count, without.stats().delivered());
    }

    #[test]
    fn nominal_load_reaches_every_beam_with_real_goodput() {
        let e = soak(1.0, 42, 256);
        let s = e.summary();
        let active = s.delivered_per_beam.iter().filter(|&&d| d > 0).count();
        assert!(active >= 4, "only {active} beams delivered: {s:?}");
        assert!(s.goodput > 0.5, "goodput {}", s.goodput);
        for c in &s.classes {
            assert!(c.offered > 0 && c.delivered > 0, "{c:?}");
        }
    }

    #[test]
    fn underload_keeps_the_priority_class_lossless() {
        let e = soak(0.5, 42, 256);
        let s = e.stats();
        assert_eq!(s.classes[0].dropped(), 0, "voice dropped under 0.5x load");
        assert!(s.classes[0].delivered > 0);
    }

    /// The acceptance demonstration: at 2× oversubscription the strict
    /// top-priority class stays lossless while best-effort traffic is
    /// shed (aged out of the DAMA backlog or dropped at the switch).
    #[test]
    fn oversubscription_sheds_best_effort_but_never_voice() {
        let e = soak(2.0, 42, 256);
        let s = e.stats();
        let voice = &s.classes[0];
        let data = &s.classes[2];
        assert_eq!(voice.dropped(), 0, "voice dropped at 2x: {voice:?}");
        assert!(voice.delivered > 0);
        assert!(
            data.dropped() > 0,
            "2x load should shed best-effort traffic: {data:?}"
        );
        // And the loss is real: data goodput is visibly below offered.
        assert!(data.delivered < data.offered);
    }

    #[test]
    fn grant_latency_rises_with_load() {
        let calm = soak(0.5, 42, 256).summary();
        let busy = soak(2.0, 42, 256).summary();
        let mean = |s: &TrafficSummary| {
            s.classes
                .iter()
                .map(|c| c.mean_grant_latency)
                .fold(0.0, f64::max)
        };
        assert!(mean(&busy) > mean(&calm), "calm {:?} busy {:?}", calm, busy);
    }

    #[test]
    fn beam_outage_reroutes_voice_and_sheds_best_effort() {
        let mut e = TrafficEngine::new(TrafficConfig::standard(1.0), 42);
        e.run(64); // warm up healthy
        let delivered_before = e.stats().delivered_per_beam[1];
        e.set_beam_outage(
            1,
            Some(BeamOutage {
                backup: 2,
                reroute_below: 1,
            }),
        );
        e.run(64);
        let s = e.stats();
        assert_eq!(
            s.delivered_per_beam[1], delivered_before,
            "an outaged beam must not egress"
        );
        assert!(s.classes[0].rerouted > 0, "voice rerouted: {:?}", s.classes);
        assert_eq!(s.classes[0].dropped_shed, 0, "voice must never be shed");
        assert!(
            s.classes[1].dropped_shed + s.classes[2].dropped_shed > 0,
            "lower classes shed during the outage: {:?}",
            s.classes
        );
        // Lifting the outage restores egress on the beam.
        e.set_beam_outage(1, None);
        e.run(64);
        assert!(e.stats().delivered_per_beam[1] > delivered_before);
    }

    #[test]
    fn scheduler_fault_freezes_grants_until_cleared() {
        let mut e = TrafficEngine::new(TrafficConfig::standard(1.0), 42);
        e.run(32);
        let granted = |e: &TrafficEngine| e.stats().classes.iter().map(|c| c.granted).sum::<u64>();
        let before = granted(&e);
        e.inject_scheduler_fault();
        e.run(8);
        assert_eq!(e.scheduler_faults_detected(), 8);
        assert_eq!(
            granted(&e),
            before,
            "a tripped grant table must freeze releases, not act on them"
        );
        e.clear_scheduler_fault();
        e.run(32);
        assert!(granted(&e) > before, "traffic resumed");
        assert_eq!(e.scheduler_faults_detected(), 8);
    }

    #[test]
    fn conservation_holds_through_an_outage() {
        let mut e = TrafficEngine::new(TrafficConfig::standard(2.0), 7);
        e.run(64);
        e.set_beam_outage(
            0,
            Some(BeamOutage {
                backup: 3,
                reroute_below: 1,
            }),
        );
        e.run(32);
        e.set_beam_outage(0, None);
        e.run(32);
        let s = e.stats();
        let offered: u64 = s.classes.iter().map(|c| c.offered).sum();
        let delivered = s.delivered();
        let dropped: u64 = s.classes.iter().map(|c| c.dropped()).sum();
        let switched: u64 = (0..e.config().beams)
            .map(|b| e.switch.depth(b) as u64)
            .sum();
        assert_eq!(offered, delivered + dropped + s.backlog + switched);
    }

    #[test]
    fn isl_routes_a_fraction_and_conservation_extends_across_links() {
        let mut a = TrafficEngine::new(TrafficConfig::standard(1.0), 42);
        let mut b = TrafficEngine::for_shard(
            TrafficConfig::standard(1.0),
            43,
            TrafficConfig::standard(1.0).beams as u64,
            &Registry::noop(),
        );
        a.set_isl(Some(IslConfig {
            self_sat: 0,
            n_sats: 2,
            remote_fraction: 0.25,
        }));
        b.set_isl(Some(IslConfig {
            self_sat: 1,
            n_sats: 2,
            remote_fraction: 0.25,
        }));
        let mut to_b: Vec<BasebandPacket> = Vec::new();
        let mut to_a: Vec<BasebandPacket> = Vec::new();
        for _ in 0..128 {
            // One-frame ISL latency, delivered before the frame runs.
            a.ingress_isl(std::mem::take(&mut to_a));
            b.ingress_isl(std::mem::take(&mut to_b));
            a.run_frame();
            b.run_frame();
            for (sat, pkt) in a.take_isl_egress() {
                assert_eq!(sat, 1, "2-sat constellation: remote must be the peer");
                to_b.push(pkt);
            }
            for (sat, pkt) in b.take_isl_egress() {
                assert_eq!(sat, 0);
                to_a.push(pkt);
            }
        }
        let sa = a.stats();
        let isl_out_a: u64 = sa.classes.iter().map(|c| c.isl_out).sum();
        assert!(isl_out_a > 0, "25% remote fraction routed nothing");
        let offered_a: u64 = sa.classes.iter().map(|c| c.offered).sum();
        assert!(
            isl_out_a < offered_a / 2,
            "remote fraction should stay a minority: {isl_out_a}/{offered_a}"
        );
        // Per-engine conservation with ISL terms: offered + isl_in =
        // delivered + dropped + backlog + switch + isl_out (+ in flight
        // toward b, already counted in a.isl_out).
        let dropped_a: u64 = sa.classes.iter().map(|c| c.dropped()).sum();
        let isl_in_a: u64 = sa.classes.iter().map(|c| c.isl_in).sum();
        assert_eq!(
            offered_a + isl_in_a,
            sa.delivered() + dropped_a + sa.backlog + a.switch_depth_total() as u64 + isl_out_a
        );
    }

    #[test]
    fn beam_handover_moves_population_and_backlog_in_lockstep() {
        let cfg = TrafficConfig::standard(2.0);
        let beams = cfg.beams as u64;
        let mut from = TrafficEngine::new(cfg.clone(), 7);
        let mut to = TrafficEngine::for_shard(cfg.clone(), 8, beams, &Registry::noop());
        from.run(64);
        to.run(64);
        assert_eq!(from.home_beams(), (0..beams).collect::<Vec<_>>());
        let m = from.extract_beam_population(1);
        assert_eq!(m.home_beam(), 1);
        let moved_backlog: u64 = m.backlog.iter().map(|b| b.packets() as u64).sum();
        assert_eq!(from.home_beams(), vec![0, 2, 3, 4, 5]);
        let backlog_before = to.stats().backlog;
        to.inject_beam_population(m);
        assert_eq!(to.stats().backlog, backlog_before + moved_backlog);
        assert!(to.home_beams().contains(&1));
        // Both engines keep running deterministically after the move.
        from.run(64);
        to.run(64);
        assert!(to.stats().frames == 128 && from.stats().frames == 128);
    }

    #[test]
    fn evacuation_empties_the_switch_and_counts_isl_out() {
        let mut e = TrafficEngine::new(TrafficConfig::standard(2.0), 7);
        e.run(64);
        let depth = e.switch_depth_total();
        assert!(depth > 0, "2x load should leave queued switch traffic");
        let evacuated = e.evacuate_switch();
        assert_eq!(evacuated.len(), depth);
        assert_eq!(e.switch_depth_total(), 0);
        let isl_out: u64 = e.stats().classes.iter().map(|c| c.isl_out).sum();
        assert_eq!(isl_out, depth as u64);
    }

    #[test]
    fn conservation_offered_equals_disposition_plus_queues() {
        let mut e = TrafficEngine::new(TrafficConfig::standard(2.0), 7);
        e.run(128);
        let s = e.stats();
        let offered: u64 = s.classes.iter().map(|c| c.offered).sum();
        let delivered = s.delivered();
        let dropped: u64 = s.classes.iter().map(|c| c.dropped()).sum();
        let switched: u64 = (0..e.config().beams)
            .map(|b| e.switch.depth(b) as u64)
            .sum();
        assert_eq!(
            offered,
            delivered + dropped + s.backlog + switched,
            "packet conservation violated"
        );
    }
}
