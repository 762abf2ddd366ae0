//! Monte-Carlo SEU campaigns: how often does the payload function break,
//! and how much does scrubbing buy? (Experiments E6/E7.)
//!
//! Each trial plays Poisson SEU arrivals over a simulated window against an
//! FPGA configuration; a *scrub pass* (when configured) restores every
//! frame at a fixed period. The figure of merit is **unavailability** —
//! the fraction of time at least one *essential* configuration bit is
//! corrupted — plus upset counters.
//!
//! Trials are independent, so the campaign fans out over a scoped
//! `std::thread` worker pool with one deterministic RNG per trial
//! (guides: data-parallel map, no shared mutable state).

use crate::environment::{PoissonArrivals, RadiationEnvironment};
use gsp_fpga::device::FpgaDevice;
use gsp_fpga::fabric::FpgaFabric;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Device under test.
    pub device: FpgaDevice,
    /// Baseline per-bit daily SEU rate (Table 1: 1e-7).
    pub seu_per_bit_day: f64,
    /// Environment regime (rate multiplier).
    pub environment: RadiationEnvironment,
    /// Scrub period in seconds; `None` disables scrubbing.
    pub scrub_period_s: Option<f64>,
    /// Simulated window per trial, days.
    pub sim_days: f64,
    /// Number of Monte-Carlo trials.
    pub trials: usize,
    /// Base RNG seed (workers derive from it deterministically).
    pub seed: u64,
}

/// Rejected campaign parameters: each variant names the degenerate
/// configuration that would otherwise produce a silently meaningless
/// campaign (empty trial loops, divide-by-zero unavailability, or a
/// scrub loop that never advances time).
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignError {
    /// `sim_days` must be positive: a zero or negative window divides by
    /// zero when normalising broken time into unavailability.
    NonPositiveSimDays(f64),
    /// `trials` must be at least 1: zero trials merges nothing and
    /// reports an all-default result that looks like a perfect device.
    ZeroTrials,
    /// `seu_per_bit_day` must be positive: zero disables arrivals (every
    /// result degenerates to "no upsets ever") and negative rates are
    /// rejected by the Poisson process with a panic deep in a worker.
    NonPositiveSeuRate(f64),
    /// `scrub_period_s = Some(p)` with `p <= 0` would schedule the next
    /// scrub at the current instant forever — the event loop spins
    /// without advancing simulated time.
    NonPositiveScrubPeriod(f64),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::NonPositiveSimDays(d) => {
                write!(f, "sim_days must be positive, got {d}")
            }
            CampaignError::ZeroTrials => write!(f, "trials must be at least 1"),
            CampaignError::NonPositiveSeuRate(r) => {
                write!(f, "seu_per_bit_day must be positive, got {r}")
            }
            CampaignError::NonPositiveScrubPeriod(p) => {
                write!(f, "scrub_period_s must be positive when set, got {p}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl CampaignConfig {
    /// Checks the configuration for degenerate values; campaigns refuse
    /// to start on any [`CampaignError`].
    pub fn validate(&self) -> Result<(), CampaignError> {
        // `<= 0.0 || is_nan` rather than `!(x > 0.0)`: same NaN-rejecting
        // semantics, spelled out.
        if self.sim_days <= 0.0 || self.sim_days.is_nan() {
            return Err(CampaignError::NonPositiveSimDays(self.sim_days));
        }
        if self.trials == 0 {
            return Err(CampaignError::ZeroTrials);
        }
        if self.seu_per_bit_day <= 0.0 || self.seu_per_bit_day.is_nan() {
            return Err(CampaignError::NonPositiveSeuRate(self.seu_per_bit_day));
        }
        if let Some(p) = self.scrub_period_s {
            if p <= 0.0 || p.is_nan() {
                return Err(CampaignError::NonPositiveScrubPeriod(p));
            }
        }
        Ok(())
    }
}

/// Aggregated campaign outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CampaignResult {
    /// Trials run.
    pub trials: usize,
    /// Total SEUs injected across trials.
    pub total_upsets: u64,
    /// SEUs that hit essential bits.
    pub essential_upsets: u64,
    /// Mean fraction of simulated time the function was broken.
    pub unavailability: f64,
    /// Trials in which the function was broken at window end
    /// (without scrubbing these stay broken until a reload).
    pub broken_at_end: usize,
}

impl CampaignResult {
    fn merge(&mut self, other: &CampaignResult) {
        let t = (self.trials + other.trials).max(1);
        self.unavailability = (self.unavailability * self.trials as f64
            + other.unavailability * other.trials as f64)
            / t as f64;
        self.trials += other.trials;
        self.total_upsets += other.total_upsets;
        self.essential_upsets += other.essential_upsets;
        self.broken_at_end += other.broken_at_end;
    }
}

/// One trial: event-driven upset/scrub simulation.
fn run_trial(cfg: &CampaignConfig, fabric: &FpgaFabric, rng: &mut StdRng) -> CampaignResult {
    let window_s = cfg.sim_days * 86_400.0;
    let rate = cfg
        .environment
        .seu_rate_per_second(cfg.seu_per_bit_day, cfg.device.config_bits());
    let arrivals = PoissonArrivals::new(rate).arrivals_in_window(window_s, rng);

    // Set of currently-flipped bits (a second hit restores the bit).
    let mut flipped: HashSet<(usize, usize, u8)> = HashSet::new();
    let mut essential_flipped = 0usize;
    let mut broken_since: Option<f64> = None;
    let mut broken_time = 0.0f64;
    let mut total_upsets = 0u64;
    let mut essential_upsets = 0u64;

    let mut next_scrub = cfg.scrub_period_s;
    let mut arrival_iter = arrivals.into_iter().peekable();

    loop {
        // Next event: arrival or scrub, whichever is earlier.
        let t_arr = arrival_iter.peek().copied();
        let (t, is_scrub) = match (t_arr, next_scrub) {
            (None, None) => break,
            (Some(a), None) => (a, false),
            (None, Some(s)) if s < window_s => (s, true),
            (None, Some(_)) => break,
            (Some(a), Some(s)) => {
                if s < a && s < window_s {
                    (s, true)
                } else {
                    (a, false)
                }
            }
        };
        if t >= window_s {
            break;
        }
        if is_scrub {
            // Blind full pass restores every frame.
            if essential_flipped > 0 {
                broken_time += t - broken_since.take().unwrap_or(t);
            }
            flipped.clear();
            essential_flipped = 0;
            next_scrub = Some(t + cfg.scrub_period_s.unwrap());
        } else {
            arrival_iter.next();
            total_upsets += 1;
            let frame = rng.gen_range(0..cfg.device.frames);
            let byte = rng.gen_range(0..cfg.device.frame_bytes);
            let bit = rng.gen_range(0..8u8);
            let key = (frame, byte, bit);
            let essential = fabric.bit_is_essential(frame, byte, bit);
            if essential {
                essential_upsets += 1;
            }
            let was_broken = essential_flipped > 0;
            if flipped.remove(&key) {
                if essential {
                    essential_flipped -= 1;
                }
            } else {
                flipped.insert(key);
                if essential {
                    essential_flipped += 1;
                }
            }
            match (was_broken, essential_flipped > 0) {
                (false, true) => broken_since = Some(t),
                (true, false) => broken_time += t - broken_since.take().unwrap_or(t),
                _ => {}
            }
        }
    }
    let broken_at_end = essential_flipped > 0;
    if let Some(s) = broken_since {
        broken_time += window_s - s;
    }
    CampaignResult {
        trials: 1,
        total_upsets,
        essential_upsets,
        unavailability: broken_time / window_s,
        broken_at_end: broken_at_end as usize,
    }
}

/// Runs the campaign, fanning trials out across scoped `std::thread`
/// workers. Each trial derives its own SplitMix64-mixed seed from
/// `(cfg.seed, trial index)` (so seeds never collide the way plain
/// `seed ^ i*CONST` can), and the per-trial results are merged in trial
/// order, so the result is bitwise independent of the worker count.
///
/// Degenerate configurations are rejected up front with a
/// [`CampaignError`] instead of producing a silently empty or
/// non-terminating campaign.
pub fn run_scrub_campaign(cfg: &CampaignConfig) -> Result<CampaignResult, CampaignError> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    run_on_workers(cfg, cores)
}

/// [`run_scrub_campaign`] on `workers` threads (clamped to the trial
/// count); worker `w` runs trials `w, w + workers, …`.
fn run_on_workers(cfg: &CampaignConfig, workers: usize) -> Result<CampaignResult, CampaignError> {
    cfg.validate()?;
    let workers = workers.clamp(1, cfg.trials);
    // A read-only fabric shared across workers purely for the essential-bit
    // predicate (no configuration memory is touched by trials).
    let fabric = FpgaFabric::new(cfg.device.clone());

    let stripes: Vec<Vec<CampaignResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let fabric = &fabric;
                scope.spawn(move || {
                    (w..cfg.trials)
                        .step_by(workers)
                        .map(|t| {
                            let seed = rand::splitmix64_mix(cfg.seed ^ t as u64);
                            run_trial(cfg, fabric, &mut StdRng::seed_from_u64(seed))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });

    let mut total = CampaignResult::default();
    for t in 0..cfg.trials {
        total.merge(&stripes[t % workers][t / workers]);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> CampaignConfig {
        CampaignConfig {
            device: FpgaDevice::small_100k(),
            seu_per_bit_day: 1e-7,
            environment: RadiationEnvironment::solar_flare(),
            scrub_period_s: None,
            sim_days: 10.0,
            trials: 64,
            seed: 1234,
        }
    }

    #[test]
    fn degenerate_configs_are_rejected_with_typed_errors() {
        let bad_days = CampaignConfig {
            sim_days: 0.0,
            ..base_cfg()
        };
        assert_eq!(
            run_scrub_campaign(&bad_days),
            Err(CampaignError::NonPositiveSimDays(0.0))
        );
        let bad_trials = CampaignConfig {
            trials: 0,
            ..base_cfg()
        };
        assert_eq!(
            run_scrub_campaign(&bad_trials),
            Err(CampaignError::ZeroTrials)
        );
        let bad_rate = CampaignConfig {
            seu_per_bit_day: -1e-7,
            ..base_cfg()
        };
        assert_eq!(
            run_scrub_campaign(&bad_rate),
            Err(CampaignError::NonPositiveSeuRate(-1e-7))
        );
        let bad_scrub = CampaignConfig {
            scrub_period_s: Some(0.0),
            ..base_cfg()
        };
        assert_eq!(
            run_scrub_campaign(&bad_scrub),
            Err(CampaignError::NonPositiveScrubPeriod(0.0))
        );
        assert!(bad_scrub
            .validate()
            .unwrap_err()
            .to_string()
            .contains("scrub_period_s"));
        // NaN is caught, not treated as "positive enough".
        let nan_days = CampaignConfig {
            sim_days: f64::NAN,
            ..base_cfg()
        };
        assert!(matches!(
            nan_days.validate(),
            Err(CampaignError::NonPositiveSimDays(_))
        ));
    }

    #[test]
    fn campaign_is_bitwise_independent_of_the_worker_count() {
        // On this configuration, merging per-worker running means differs
        // in the last bit between one and three workers (…0a5a against
        // …0a5b), so the test tells the two merge orders apart.
        let cfg = CampaignConfig {
            trials: 20,
            ..base_cfg()
        };
        let one = run_on_workers(&cfg, 1).expect("valid config");
        let three = run_on_workers(&cfg, 3).expect("valid config");
        assert_eq!(one.unavailability.to_bits(), three.unavailability.to_bits());
        assert_eq!(one, three);
    }

    #[test]
    fn campaign_is_deterministic_for_fixed_seed() {
        let cfg = base_cfg();
        let a = run_scrub_campaign(&cfg).expect("valid config");
        let b = run_scrub_campaign(&cfg).expect("valid config");
        assert_eq!(a, b);
    }

    #[test]
    fn upset_count_matches_expectation() {
        let cfg = CampaignConfig {
            trials: 200,
            ..base_cfg()
        };
        let r = run_scrub_campaign(&cfg).expect("valid config");
        // λ = 1e-7 × 100 (flare) × bits × days.
        let bits = cfg.device.config_bits() as f64;
        let expect = 1e-7 * 100.0 * bits * cfg.sim_days * cfg.trials as f64;
        let got = r.total_upsets as f64;
        assert!(
            (got - expect).abs() < 0.15 * expect,
            "upsets {got} vs expected {expect}"
        );
    }

    #[test]
    fn essential_fraction_shows_up_in_hits() {
        let cfg = CampaignConfig {
            trials: 200,
            ..base_cfg()
        };
        let r = run_scrub_campaign(&cfg).expect("valid config");
        let frac = r.essential_upsets as f64 / r.total_upsets.max(1) as f64;
        assert!((frac - 0.2).abs() < 0.05, "essential hit fraction {frac}");
    }

    #[test]
    fn scrubbing_reduces_unavailability() {
        let no_scrub = run_scrub_campaign(&base_cfg()).expect("valid config");
        let hourly = run_scrub_campaign(&CampaignConfig {
            scrub_period_s: Some(3600.0),
            ..base_cfg()
        })
        .expect("valid config");
        let minute = run_scrub_campaign(&CampaignConfig {
            scrub_period_s: Some(60.0),
            ..base_cfg()
        })
        .expect("valid config");
        assert!(
            hourly.unavailability < no_scrub.unavailability,
            "hourly {} vs none {}",
            hourly.unavailability,
            no_scrub.unavailability
        );
        assert!(
            minute.unavailability <= hourly.unavailability,
            "minute {} vs hourly {}",
            minute.unavailability,
            hourly.unavailability
        );
        // With a 60 s period, broken intervals are clipped to ≤ 60 s.
        assert!(minute.unavailability < 0.01);
    }

    #[test]
    fn harsher_environments_mean_more_unavailability() {
        let mk = |env: RadiationEnvironment| {
            run_scrub_campaign(&CampaignConfig {
                environment: env,
                scrub_period_s: Some(3_600.0),
                trials: 96,
                ..base_cfg()
            })
            .expect("valid config")
        };
        let quiet = mk(RadiationEnvironment::geo_quiet());
        let gcr = mk(RadiationEnvironment::cosmic_ray_enhanced());
        let flare = mk(RadiationEnvironment::solar_flare());
        assert!(quiet.total_upsets < gcr.total_upsets);
        assert!(gcr.total_upsets < flare.total_upsets);
        assert!(quiet.unavailability <= gcr.unavailability + 1e-9);
        assert!(gcr.unavailability <= flare.unavailability + 1e-9);
    }

    #[test]
    fn without_scrubbing_failures_persist() {
        let r = run_scrub_campaign(&CampaignConfig {
            trials: 100,
            ..base_cfg()
        })
        .expect("valid config");
        // Flare rates over 10 days on ~100 kbit: most trials end broken.
        assert!(
            r.broken_at_end > 50,
            "{} of {} trials broken at end",
            r.broken_at_end,
            r.trials
        );
    }
}
