//! The terminal-population model: per-(beam, class) flow aggregates.
//!
//! The paper's payload serves a whole coverage of user terminals; this
//! module models that population *statistically* rather than per-object.
//! Each uplink beam carries one flow aggregate per QoS class, standing
//! in for [`TERMINALS_PER_AGGREGATE`] logical terminals. An aggregate holds
//! the set of live *sessions*:
//!
//! * sessions **arrive** at a calibrated rate — a fractional-Bernoulli
//!   draw per frame so any non-integer arrival rate is matched exactly in
//!   the mean;
//! * each session carries a **bounded-Pareto** number of packets
//!   ([`bounded_pareto`], shape α, support `[1, max_session]`) — the
//!   heavy-tailed "elephants and mice" mix of real traffic;
//! * a session is an **on/off source**: each frame it toggles between
//!   emitting (`on_rate` packets/frame) and silence, so the instantaneous
//!   offered load is bursty while every session eventually emits its full
//!   size.
//!
//! Because every packet of a session is emitted sooner or later, the
//! long-run offered rate equals `arrival_rate × mean_session_size`
//! regardless of the on/off duty cycle — which is exactly how
//! [`Population::new`] calibrates the arrival rate from the configured
//! load fraction.
//!
//! ## Per-aggregate RNG streams and handover
//!
//! Every aggregate owns its **own** SplitMix64-derived RNG stream, seeded
//! from `(population seed, home id)`, where the *home id* is the
//! aggregate's globally unique identity (`home_base + beam·classes +
//! class` — a constellation gives each satellite a disjoint `home_base`).
//! All of an aggregate's draws come from its private stream, so its
//! emission is a pure function of its own state: lifting the aggregates
//! of one uplink beam out of a population ([`Population::extract_home_beam`])
//! and injecting them into another ([`Population::inject`]) — a terminal
//! **handover** between satellites — continues the exact packet sequence
//! the never-migrated population would have produced. The handover
//! proptests pin this bitwise.

use crate::{TrafficConfig, TERMINALS_PER_AGGREGATE};
use gsp_payload::switch::BasebandPacket;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Bounded-Pareto shape parameter for session sizes (α > 1).
const PARETO_ALPHA: f64 = 1.5;
/// Payload bytes per generated packet.
const PAYLOAD_BYTES: usize = 8;

/// Per-frame probability that an *on* session falls silent.
const P_OFF: f64 = 0.3;
/// Per-frame probability that an *off* session resumes emitting.
const P_ON: f64 = 0.5;

/// One bounded-Pareto draw on `[1, h]` with shape `alpha` (inverse-CDF).
pub fn bounded_pareto(rng: &mut StdRng, alpha: f64, h: f64) -> f64 {
    let u: f64 = rng.gen();
    (1.0 - u * (1.0 - h.powf(-alpha))).powf(-1.0 / alpha)
}

/// Mean of the continuous bounded Pareto on `[1, h]` with shape `alpha`
/// (α ≠ 1).
pub fn bounded_pareto_mean(alpha: f64, h: f64) -> f64 {
    (alpha / (alpha - 1.0)) * (1.0 - h.powf(1.0 - alpha)) / (1.0 - h.powf(-alpha))
}

/// The RNG stream of aggregate `home` under `seed` — double-mixed so
/// nearby home ids land in unrelated stream states.
fn aggregate_seed(seed: u64, home: u64) -> u64 {
    rand::splitmix64_mix(seed ^ rand::splitmix64_mix(0x5EED_A66E ^ home))
}

/// One live session of a flow aggregate.
#[derive(Clone, Debug)]
struct Session {
    /// Packets still to emit.
    remaining: u32,
    /// Currently emitting?
    on: bool,
    /// Hashed logical-terminal id stamped on this session's packets.
    source: u16,
}

/// All live sessions of one (uplink beam, class) pair.
#[derive(Clone, Debug)]
struct FlowAggregate {
    /// QoS class index.
    class: usize,
    /// Globally unique aggregate identity (survives migration).
    home: u64,
    /// Mean new sessions per frame.
    arrival_rate: f64,
    /// Packets an on session emits per frame.
    on_rate: u32,
    /// Bounded-Pareto session-size upper bound.
    max_session: f64,
    /// First logical-terminal id of this aggregate's range.
    terminal_base: u64,
    /// This aggregate's private draw stream.
    rng: StdRng,
    sessions: Vec<Session>,
}

/// A packet offered to the DAMA loop, tagged with the flow aggregate
/// (= DAMA "terminal") that generated it.
#[derive(Clone, Debug)]
pub struct Offered {
    /// Flow-aggregate *position* in the population (the id the DAMA loop
    /// requests capacity under; positions shift on handover, with the
    /// DAMA backlog kept in lockstep by the engine).
    pub aggregate: u16,
    /// The packet itself (class and `born_tick` already stamped).
    pub packet: BasebandPacket,
}

/// The aggregates of one uplink beam lifted out of a population for a
/// handover — opaque: sessions, RNG state and identity travel together.
#[derive(Clone, Debug)]
pub struct MigratedBeam {
    aggs: Vec<FlowAggregate>,
    home_beam: u64,
}

impl MigratedBeam {
    /// The global uplink-beam id these aggregates belong to.
    pub fn home_beam(&self) -> u64 {
        self.home_beam
    }

    /// Number of aggregates carried.
    pub fn len(&self) -> usize {
        self.aggs.len()
    }

    /// Whether the extraction matched nothing.
    pub fn is_empty(&self) -> bool {
        self.aggs.is_empty()
    }
}

/// The whole terminal population: one flow aggregate per
/// (uplink beam, class).
#[derive(Clone, Debug)]
pub struct Population {
    aggregates: Vec<FlowAggregate>,
    beams: usize,
    n_classes: usize,
}

impl Population {
    /// Builds the population for `cfg` under `seed`, calibrating each
    /// aggregate's session arrival rate so its long-run offered packet
    /// rate is `load × capacity × share / beams` packets per frame.
    /// Home ids start at 0 (a single-payload deployment).
    pub fn new(cfg: &TrafficConfig, seed: u64) -> Self {
        Self::with_home_base(cfg, seed, 0)
    }

    /// [`Population::new`] with this population's aggregates homed at
    /// global uplink beams `home_beam_base ..`: aggregate identities are
    /// `home_beam_base·classes + beam·classes + class`, so satellites of
    /// a constellation built with disjoint bases draw from disjoint
    /// terminal-id ranges and unrelated RNG streams.
    pub fn with_home_base(cfg: &TrafficConfig, seed: u64, home_beam_base: u64) -> Self {
        let mut aggregates = Vec::with_capacity(cfg.n_aggregates());
        for beam in 0..cfg.beams {
            for (class, c) in cfg.classes.iter().enumerate() {
                let pkts_per_frame = cfg.load * cfg.capacity() as f64 * c.share / cfg.beams as f64;
                let mean = bounded_pareto_mean(PARETO_ALPHA, c.max_session as f64);
                let home = (home_beam_base + beam as u64) * cfg.n_classes() as u64 + class as u64;
                aggregates.push(FlowAggregate {
                    class,
                    home,
                    arrival_rate: pkts_per_frame / mean,
                    on_rate: c.on_rate as u32,
                    max_session: c.max_session as f64,
                    terminal_base: home * TERMINALS_PER_AGGREGATE,
                    rng: StdRng::seed_from_u64(aggregate_seed(seed, home)),
                    sessions: Vec::new(),
                });
            }
        }
        Population {
            aggregates,
            beams: cfg.beams,
            n_classes: cfg.n_classes(),
        }
    }

    /// Live sessions across all aggregates.
    pub fn active_sessions(&self) -> usize {
        self.aggregates.iter().map(|a| a.sessions.len()).sum()
    }

    /// Aggregates currently generating here (natives plus any injected
    /// by handover).
    pub fn aggregate_count(&self) -> usize {
        self.aggregates.len()
    }

    /// The distinct global uplink beams served here, ascending.
    pub fn home_beams(&self) -> Vec<u64> {
        let mut beams: Vec<u64> = self
            .aggregates
            .iter()
            .map(|a| a.home / self.n_classes as u64)
            .collect();
        beams.sort_unstable();
        beams.dedup();
        beams
    }

    /// Lifts every aggregate homed at global uplink beam `home_beam` out
    /// of this population, returning their former positions (ascending)
    /// so the caller can extract the matching DAMA backlogs in lockstep.
    pub fn extract_home_beam(&mut self, home_beam: u64) -> (Vec<usize>, MigratedBeam) {
        let positions: Vec<usize> = self
            .aggregates
            .iter()
            .enumerate()
            .filter(|(_, a)| a.home / self.n_classes as u64 == home_beam)
            .map(|(i, _)| i)
            .collect();
        let mut aggs = Vec::with_capacity(positions.len());
        for &p in positions.iter().rev() {
            aggs.push(self.aggregates.remove(p));
        }
        aggs.reverse();
        (positions, MigratedBeam { aggs, home_beam })
    }

    /// Appends migrated aggregates (in their carried order); they resume
    /// their private streams exactly where extraction paused them.
    /// Returns the class of each appended aggregate, in append order.
    pub fn inject(&mut self, m: MigratedBeam) -> Vec<usize> {
        let classes = m.aggs.iter().map(|a| a.class).collect();
        self.aggregates.extend(m.aggs);
        classes
    }

    /// Advances every aggregate one frame: spawn arrivals, toggle on/off
    /// states, and collect the packets emitted this frame. All draws come
    /// from each aggregate's private stream in fixed aggregate/session
    /// order, so the emission is a pure function of population state.
    pub fn generate(&mut self, tick: u64) -> Vec<Offered> {
        let mut out = Vec::new();
        for (idx, agg) in self.aggregates.iter_mut().enumerate() {
            let rng = &mut agg.rng;
            // Fractional-Bernoulli arrivals: exact in the mean.
            let mut n = agg.arrival_rate.floor() as usize;
            let frac = agg.arrival_rate - agg.arrival_rate.floor();
            if frac > 0.0 && rng.gen_bool(frac) {
                n += 1;
            }
            for _ in 0..n {
                let size = bounded_pareto(rng, PARETO_ALPHA, agg.max_session)
                    .round()
                    .clamp(1.0, agg.max_session) as u32;
                let terminal = agg.terminal_base + rng.gen_range(0..TERMINALS_PER_AGGREGATE);
                agg.sessions.push(Session {
                    remaining: size,
                    on: true,
                    source: rand::splitmix64_mix(terminal) as u16,
                });
            }
            for s in agg.sessions.iter_mut() {
                if s.on {
                    if rng.gen_bool(P_OFF) {
                        s.on = false;
                    }
                } else if rng.gen_bool(P_ON) {
                    s.on = true;
                }
                if !s.on {
                    continue;
                }
                let burst = agg.on_rate.min(s.remaining);
                for _ in 0..burst {
                    let dest_beam = rng.gen_range(0..self.beams) as u8;
                    out.push(Offered {
                        aggregate: idx as u16,
                        packet: BasebandPacket {
                            source: s.source,
                            dest_beam,
                            class: agg.class as u8,
                            born_tick: tick,
                            data: vec![agg.class as u8; PAYLOAD_BYTES],
                        },
                    });
                }
                s.remaining -= burst;
            }
            agg.sessions.retain(|s| s.remaining > 0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_pareto_stays_in_support_and_matches_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let (alpha, h) = (1.5, 64.0);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = bounded_pareto(&mut rng, alpha, h);
            assert!((1.0..=h).contains(&x), "{x}");
            sum += x;
        }
        let mean = sum / n as f64;
        let expect = bounded_pareto_mean(alpha, h);
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "empirical {mean}, analytic {expect}"
        );
    }

    #[test]
    fn long_run_offered_rate_matches_the_load_calibration() {
        let cfg = crate::TrafficConfig::standard(1.0);
        let mut pop = Population::new(&cfg, 7);
        let frames = 2_000u64;
        let mut offered = 0usize;
        for t in 0..frames {
            offered += pop.generate(t).len();
        }
        // Long-run mean must approach load × capacity = 48 pkts/frame.
        // Discretising the Pareto sizes and the end-of-run session tail
        // bias this a few percent; 15% is a robust statistical gate.
        let rate = offered as f64 / frames as f64;
        let target = cfg.load * cfg.capacity() as f64;
        assert!(
            (rate - target).abs() / target < 0.15,
            "offered {rate}/frame, target {target}"
        );
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let cfg = crate::TrafficConfig::standard(2.0);
        let run = || {
            let mut pop = Population::new(&cfg, 42);
            let mut sig = Vec::new();
            for t in 0..50 {
                for o in pop.generate(t) {
                    sig.push((
                        o.aggregate,
                        o.packet.source,
                        o.packet.dest_beam,
                        o.packet.class,
                    ));
                }
            }
            sig
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn packets_carry_their_aggregate_class_and_birth_tick() {
        let cfg = crate::TrafficConfig::standard(2.0);
        let n_classes = cfg.n_classes();
        let mut pop = Population::new(&cfg, 3);
        let mut seen = 0;
        for t in 0..20 {
            for o in pop.generate(t) {
                assert_eq!(o.packet.born_tick, t);
                assert_eq!(o.aggregate as usize % n_classes, o.packet.class as usize);
                assert!((o.packet.dest_beam as usize) < cfg.beams);
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn disjoint_home_bases_draw_disjoint_terminal_ranges() {
        let cfg = crate::TrafficConfig::standard(1.0);
        let a = Population::with_home_base(&cfg, 9, 0);
        let b = Population::with_home_base(&cfg, 9, cfg.beams as u64);
        let beams_a = a.home_beams();
        let beams_b = b.home_beams();
        assert_eq!(beams_a, (0..cfg.beams as u64).collect::<Vec<_>>());
        assert_eq!(
            beams_b,
            (cfg.beams as u64..2 * cfg.beams as u64).collect::<Vec<_>>()
        );
        // Same seed, different homes: the streams must still diverge.
        let mut a = a;
        let mut b = b;
        let sig = |pop: &mut Population| {
            let mut v = Vec::new();
            for t in 0..40 {
                v.extend(
                    pop.generate(t)
                        .into_iter()
                        .map(|o| (o.packet.source, o.packet.dest_beam)),
                );
            }
            v
        };
        assert_ne!(sig(&mut a), sig(&mut b));
    }

    /// The handover contract at the population level: aggregates lifted
    /// out of one population and injected into another continue the
    /// exact packet sequence the never-migrated population would have
    /// produced.
    #[test]
    fn migrated_aggregates_continue_their_streams_exactly() {
        let cfg = crate::TrafficConfig::standard(1.5);
        let n_classes = cfg.n_classes() as u64;
        let sig_of = |offered: Vec<Offered>, beam: u64, pop: &Population| -> Vec<(u16, u8, u8)> {
            // Select packets of the migrated beam by aggregate position.
            offered
                .into_iter()
                .filter(|o| {
                    let home = pop.aggregates[o.aggregate as usize].home;
                    home / n_classes == beam
                })
                .map(|o| (o.packet.source, o.packet.dest_beam, o.packet.class))
                .collect()
        };

        let beam = 2u64;
        let handover_tick = 13u64;
        let frames = 40u64;

        // Reference: never migrated.
        let mut stay = Population::new(&cfg, 123);
        let mut reference = Vec::new();
        for t in 0..frames {
            let offered = stay.generate(t);
            reference.push(sig_of(offered, beam, &stay));
        }

        // Migrated: identical until the handover tick, then the beam's
        // aggregates move to a second (differently seeded, differently
        // homed) population and keep emitting there.
        let mut from = Population::new(&cfg, 123);
        let mut to = Population::with_home_base(&cfg, 77, cfg.beams as u64);
        let mut migrated = Vec::new();
        for t in 0..frames {
            if t == handover_tick {
                let (_, m) = from.extract_home_beam(beam);
                assert_eq!(m.len(), cfg.n_classes());
                assert_eq!(m.home_beam(), beam);
                to.inject(m);
            }
            if t < handover_tick {
                migrated.push(sig_of(from.generate(t), beam, &from));
                let _ = to.generate(t);
            } else {
                let _ = from.generate(t);
                migrated.push(sig_of(to.generate(t), beam, &to));
            }
        }
        assert_eq!(reference, migrated);
    }
}
