//! Single-event latch-up and burnout (§4.2: "Other effects can appear:
//! latch-up, burnout … which are more difficult to recover from or
//! impossible").
//!
//! A latch-up is a parasitic-thyristor turn-on: the device draws
//! destructive current until power is cycled. With current limiting it is
//! *recoverable at the cost of a power cycle* (a service interruption far
//! longer than an SEU scrub); without — or on an unlucky strike — it is a
//! **burnout**, permanent loss. Rates are orders of magnitude below the
//! SEU rate for qualified parts.

use crate::environment::{PoissonArrivals, RadiationEnvironment};
use rand::Rng;

/// Latch-up susceptibility of a device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatchupModel {
    /// Latch-up events per device per day in quiet GEO (qualified parts:
    /// ~1e-4 and below).
    pub events_per_day_geo: f64,
    /// Probability a latch-up is destructive (burnout) despite the
    /// current-limiting circuitry.
    pub burnout_probability: f64,
    /// Power-cycle recovery time, seconds (detection + off + reload + on).
    pub recovery_s: f64,
}

impl LatchupModel {
    /// A qualified space part behind current limiters.
    pub fn qualified() -> Self {
        LatchupModel {
            events_per_day_geo: 1e-4,
            burnout_probability: 0.01,
            recovery_s: 30.0,
        }
    }

    /// A commercial part without latch-up protection — why §4.2's
    /// environment forbids COTS silicon in the payload.
    pub fn commercial_unprotected() -> Self {
        LatchupModel {
            events_per_day_geo: 5e-3,
            burnout_probability: 0.5,
            recovery_s: 30.0,
        }
    }

    /// Event rate per second in the given environment (scales with the
    /// same heavy-ion flux multiplier as SEUs).
    pub fn rate_per_second(&self, env: &RadiationEnvironment) -> f64 {
        self.events_per_day_geo * env.seu_multiplier / 86_400.0
    }
}

/// Outcome of a latch-up mission simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatchupOutcome {
    /// Latch-up events experienced.
    pub events: u64,
    /// Recoverable events (power-cycled away).
    pub recovered: u64,
    /// Seconds of downtime spent in power cycles.
    pub downtime_s: f64,
    /// Did the device burn out (mission loss for this equipment)?
    pub burned_out: bool,
    /// Mission time survived, seconds (= window unless burned out).
    pub survived_s: f64,
}

/// Replays an explicit latch-up event sequence: `(arrival_s, burnout)`
/// pairs over a `window_s` mission. This is the accounting core of
/// [`simulate_mission`], split out so detection/power-cycle bookkeeping
/// can be tested against hand-written deterministic sequences (and so an
/// FDIR harness can feed it recorded event logs).
///
/// Events after a burnout are ignored — the equipment is gone.
pub fn replay_events<I>(model: &LatchupModel, window_s: f64, events: I) -> LatchupOutcome
where
    I: IntoIterator<Item = (f64, bool)>,
{
    let mut out = LatchupOutcome {
        survived_s: window_s,
        ..LatchupOutcome::default()
    };
    for (t, burnout) in events {
        out.events += 1;
        if burnout {
            out.burned_out = true;
            out.survived_s = t;
            break;
        }
        out.recovered += 1;
        out.downtime_s += model.recovery_s;
    }
    out
}

/// Simulates latch-ups over `mission_days` in `env`.
pub fn simulate_mission<R: Rng>(
    model: &LatchupModel,
    env: &RadiationEnvironment,
    mission_days: f64,
    rng: &mut R,
) -> LatchupOutcome {
    let window_s = mission_days * 86_400.0;
    let arrivals =
        PoissonArrivals::new(model.rate_per_second(env)).arrivals_in_window(window_s, rng);
    // Draw the burnout verdicts in arrival order (identical RNG draw
    // sequence to the pre-refactor loop), then hand the record to the
    // shared replay accounting. Verdicts past a burnout are never drawn —
    // replay stops there and the next trial's RNG stream is unaffected.
    let mut events = Vec::with_capacity(arrivals.len());
    for t in arrivals {
        let burnout = rng.gen_bool(model.burnout_probability);
        events.push((t, burnout));
        if burnout {
            break;
        }
    }
    replay_events(model, window_s, events)
}

/// Monte-Carlo burnout probability over a mission.
pub fn burnout_probability<R: Rng>(
    model: &LatchupModel,
    env: &RadiationEnvironment,
    mission_days: f64,
    trials: usize,
    rng: &mut R,
) -> f64 {
    let mut burned = 0usize;
    for _ in 0..trials {
        if simulate_mission(model, env, mission_days, rng).burned_out {
            burned += 1;
        }
    }
    burned as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn qualified_part_survives_a_geo_mission() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = burnout_probability(
            &LatchupModel::qualified(),
            &RadiationEnvironment::geo_quiet(),
            15.0 * 365.0,
            400,
            &mut rng,
        );
        // λ·T ≈ 0.55 events over 15 y, ×1% burnout ⇒ P ≈ 0.5%.
        assert!(p < 0.03, "burnout probability {p}");
    }

    #[test]
    fn commercial_part_does_not() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = burnout_probability(
            &LatchupModel::commercial_unprotected(),
            &RadiationEnvironment::geo_quiet(),
            15.0 * 365.0,
            200,
            &mut rng,
        );
        // λ·T ≈ 27 events at 50% burnout each: essentially certain loss.
        assert!(p > 0.95, "burnout probability {p}");
    }

    #[test]
    fn event_count_matches_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = LatchupModel {
            events_per_day_geo: 0.1,
            burnout_probability: 0.0,
            recovery_s: 30.0,
        };
        let mut events = 0u64;
        let trials = 200;
        for _ in 0..trials {
            events += simulate_mission(&model, &RadiationEnvironment::geo_quiet(), 100.0, &mut rng)
                .events;
        }
        let mean = events as f64 / trials as f64;
        assert!((mean - 10.0).abs() < 1.0, "mean events {mean}");
    }

    #[test]
    fn recoverable_events_cost_downtime_not_the_mission() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = LatchupModel {
            events_per_day_geo: 1.0,
            burnout_probability: 0.0,
            recovery_s: 60.0,
        };
        let out = simulate_mission(&model, &RadiationEnvironment::geo_quiet(), 30.0, &mut rng);
        assert!(!out.burned_out);
        assert_eq!(out.recovered, out.events);
        assert!((out.downtime_s - out.events as f64 * 60.0).abs() < 1e-9);
        assert_eq!(out.survived_s, 30.0 * 86_400.0);
    }

    #[test]
    fn burnout_truncates_the_mission() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = LatchupModel {
            events_per_day_geo: 1.0,
            burnout_probability: 1.0,
            recovery_s: 30.0,
        };
        let out = simulate_mission(&model, &RadiationEnvironment::geo_quiet(), 30.0, &mut rng);
        assert!(out.burned_out);
        assert_eq!(out.recovered, 0);
        assert!(out.survived_s < 30.0 * 86_400.0);
    }

    #[test]
    fn replay_accounts_power_cycles_deterministically() {
        // Three recoverable latch-ups at known times: each costs exactly
        // one power cycle of `recovery_s`, nothing else.
        let model = LatchupModel {
            events_per_day_geo: 1.0,
            burnout_probability: 0.0,
            recovery_s: 45.0,
        };
        let window = 10.0 * 86_400.0;
        let out = replay_events(
            &model,
            window,
            [(1_000.0, false), (50_000.0, false), (700_000.0, false)],
        );
        assert_eq!(out.events, 3);
        assert_eq!(out.recovered, 3);
        assert!((out.downtime_s - 135.0).abs() < 1e-12);
        assert!(!out.burned_out);
        assert_eq!(out.survived_s, window);
        // An empty sequence is a clean mission.
        let quiet = replay_events(&model, window, []);
        assert_eq!(
            quiet,
            LatchupOutcome {
                survived_s: window,
                ..LatchupOutcome::default()
            }
        );
    }

    #[test]
    fn replay_burnout_truncates_and_ignores_later_events() {
        let model = LatchupModel::qualified();
        let window = 86_400.0;
        let out = replay_events(
            &model,
            window,
            [
                (100.0, false),
                (5_000.0, true),
                // The device is dead: these must not be counted.
                (6_000.0, false),
                (7_000.0, true),
            ],
        );
        assert_eq!(out.events, 2, "counting stops at the burnout");
        assert_eq!(out.recovered, 1);
        assert!((out.downtime_s - model.recovery_s).abs() < 1e-12);
        assert!(out.burned_out);
        assert_eq!(out.survived_s, 5_000.0);
    }

    #[test]
    fn simulate_mission_is_replay_of_its_own_event_log() {
        // The Monte-Carlo path and the replay path share accounting:
        // replaying the events a simulation drew reproduces its outcome
        // bit for bit.
        let model = LatchupModel {
            events_per_day_geo: 0.5,
            burnout_probability: 0.2,
            recovery_s: 30.0,
        };
        let env = RadiationEnvironment::geo_quiet();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let sim = simulate_mission(&model, &env, 60.0, &mut rng);
            // Reconstruct the same event log with an identical RNG.
            let mut rng2 = StdRng::seed_from_u64(seed);
            let window_s = 60.0 * 86_400.0;
            let arrivals = PoissonArrivals::new(model.rate_per_second(&env))
                .arrivals_in_window(window_s, &mut rng2);
            let mut events = Vec::new();
            for t in arrivals {
                let b = rng2.gen_bool(model.burnout_probability);
                events.push((t, b));
                if b {
                    break;
                }
            }
            assert_eq!(replay_events(&model, window_s, events), sim);
        }
    }

    #[test]
    fn flare_scales_the_rate() {
        let model = LatchupModel::qualified();
        let quiet = model.rate_per_second(&RadiationEnvironment::geo_quiet());
        let flare = model.rate_per_second(&RadiationEnvironment::solar_flare());
        assert!((flare / quiet - 100.0).abs() < 1e-9);
    }
}
