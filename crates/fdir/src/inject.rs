//! Seeded SEU fault injection: radiation statistics mapped onto live
//! payload targets.
//!
//! `gsp-radiation` models *when* upsets arrive (Poisson at the Table 1
//! per-bit daily rate, scaled by the environment's flux multiplier);
//! this module decides *where they land*. Each equipment — one per
//! downlink beam plus the central scheduler — exposes a number of
//! sensitive bits, and every arrival is classified into the payload
//! state it corrupts: an FPGA configuration frame, a lane's CRC checker,
//! a lane's sequencer (stall), the switch's queue memory (an EDAC
//! event), or — rarely — a hard fault that only a full golden-bitstream
//! reload clears. Grant-table upsets target the scheduler equipment.
//!
//! Everything is drawn from the caller's RNG, so a soak is bitwise
//! deterministic per seed.

use gsp_radiation::environment::{PoissonArrivals, RadiationEnvironment};
use rand::Rng;

/// The payload state an SEU corrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A configuration-frame bit in the beam's FPGA fabric (repaired by
    /// a scrub pass; breaks the function only if the bit is essential).
    ConfigUpset,
    /// The lane's CRC checker: every burst now fails the check
    /// (cleared by a lane reset).
    LaneCrc,
    /// The lane's sequencer: the receive half stops and the watchdog
    /// heartbeat freezes (cleared by a lane reset).
    LaneStall,
    /// A bit in the switch's queue memory, caught and corrected by
    /// EDAC — but a correction *rate* above threshold is itself a
    /// symptom worth a reset.
    SwitchEdac,
    /// A grant-table word in the scheduler: plans stop reconciling and
    /// the table validity check trips (cleared by a controller reset).
    GrantTable,
    /// A latched hard fault that neither scrubbing nor a state reset
    /// clears — only the ladder's last rung (golden-bitstream partial
    /// reconfiguration) recovers the equipment.
    HardFault,
}

impl FaultKind {
    /// All kinds, in telemetry order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::ConfigUpset,
        FaultKind::LaneCrc,
        FaultKind::LaneStall,
        FaultKind::SwitchEdac,
        FaultKind::GrantTable,
        FaultKind::HardFault,
    ];

    /// Stable metric-name suffix (`fdir.injected.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::ConfigUpset => "config",
            FaultKind::LaneCrc => "lane_crc",
            FaultKind::LaneStall => "lane_stall",
            FaultKind::SwitchEdac => "switch_edac",
            FaultKind::GrantTable => "grant_table",
            FaultKind::HardFault => "hard",
        }
    }

    /// Index into [`FaultKind::ALL`]-shaped count arrays.
    pub fn index(self) -> usize {
        FaultKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind")
    }
}

/// One injected fault: which equipment, what broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Equipment index (beams `0..n_beams`, scheduler at `n_beams`).
    pub equipment: usize,
    /// What the upset corrupted.
    pub kind: FaultKind,
}

/// Quiet-GEO per-bit daily upset rate (Table 1: 1e-7 for the MH1RT
/// class).
const SEU_PER_BIT_DAY: f64 = 1e-7;
/// Simulated days of orbital exposure compressed into one frame tick —
/// the soak's time acceleration. A 48 ms MF-TDMA frame standing in for
/// a quarter-day of exposure turns per-day rates into per-tick rates a
/// few-hundred-tick soak can exercise.
const TICK_EXPOSURE_DAYS: f64 = 0.25;

/// Draws each tick's fault set from the Table 1 Poisson statistics in
/// quiet GEO ([`RadiationEnvironment::geo_quiet`]), accelerated by a
/// rate multiplier.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    /// Acceleration multiplier on top of the environment's flux (1.0 =
    /// the Table 1 baseline, 10.0 = the accelerated soak regime).
    rate_multiplier: f64,
}

impl FaultInjector {
    /// Injector at `rate_multiplier`× the Table 1 baseline.
    pub fn new(rate_multiplier: f64) -> Self {
        FaultInjector { rate_multiplier }
    }

    /// Expected faults per frame tick for an equipment exposing `bits`
    /// sensitive bits.
    pub fn fault_rate_per_tick(&self, bits: u64) -> f64 {
        RadiationEnvironment::geo_quiet()
            .seu_rate_per_second(SEU_PER_BIT_DAY * self.rate_multiplier, bits)
            * TICK_EXPOSURE_DAYS
            * 86_400.0
    }

    /// Draws one tick's faults: a Poisson count per equipment (beams
    /// expose `beam_bits` sensitive bits each, the scheduler
    /// `sched_bits`), then a kind per arrival. Beam arrivals are mostly
    /// configuration upsets, with a tail of lane/queue faults and a
    /// rare hard fault; scheduler arrivals always corrupt the grant
    /// table. Deterministic in `rng`.
    pub fn draw<R: Rng>(
        &self,
        n_beams: usize,
        beam_bits: u64,
        sched_bits: u64,
        rng: &mut R,
    ) -> Vec<Fault> {
        let mut out = Vec::new();
        let beam_arrivals = PoissonArrivals::new(self.fault_rate_per_tick(beam_bits));
        for equipment in 0..n_beams {
            for _ in beam_arrivals.arrivals_in_window(1.0, rng) {
                let roll = rng.gen_range(0..100u32);
                let kind = if roll < 40 {
                    FaultKind::ConfigUpset
                } else if roll < 65 {
                    FaultKind::LaneCrc
                } else if roll < 80 {
                    FaultKind::LaneStall
                } else if roll < 94 {
                    FaultKind::SwitchEdac
                } else {
                    FaultKind::HardFault
                };
                out.push(Fault { equipment, kind });
            }
        }
        let sched_arrivals = PoissonArrivals::new(self.fault_rate_per_tick(sched_bits));
        for _ in sched_arrivals.arrivals_in_window(1.0, rng) {
            out.push(Fault {
                equipment: n_beams,
                kind: FaultKind::GrantTable,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rate_composes_baseline_multiplier_and_exposure() {
        // 8192 bits at 1e-7/bit/day, quarter-day ticks: 2.048e-4 per
        // tick; the 10x regime is exactly ten times that.
        let base = FaultInjector::new(1.0);
        assert!((base.fault_rate_per_tick(8192) - 8192.0 * 1e-7 * 0.25).abs() < 1e-15);
        let hot = FaultInjector::new(10.0);
        let ratio = hot.fault_rate_per_tick(8192) / base.fault_rate_per_tick(8192);
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let inj = FaultInjector::new(50.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64)
                .flat_map(|_| inj.draw(6, 8192, 4096, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10), "seeds should decorrelate");
    }

    #[test]
    fn accelerated_regime_injects_more() {
        let count = |mult: f64| {
            let inj = FaultInjector::new(mult);
            let mut rng = StdRng::seed_from_u64(3);
            (0..512)
                .map(|_| inj.draw(6, 8192, 4096, &mut rng).len())
                .sum::<usize>()
        };
        let base = count(10.0);
        let hot = count(100.0);
        assert!(base > 0, "10x over 512 ticks should land faults");
        assert!(hot > 3 * base, "100x should dominate 10x: {hot} vs {base}");
    }

    #[test]
    fn scheduler_faults_are_always_grant_table() {
        let inj = FaultInjector::new(2000.0);
        let mut rng = StdRng::seed_from_u64(1);
        let faults: Vec<Fault> = (0..64)
            .flat_map(|_| inj.draw(4, 8192, 8192, &mut rng))
            .collect();
        assert!(faults.iter().any(|f| f.equipment == 4));
        for f in &faults {
            if f.equipment == 4 {
                assert_eq!(f.kind, FaultKind::GrantTable);
            } else {
                assert_ne!(f.kind, FaultKind::GrantTable);
            }
        }
    }

    #[test]
    fn kind_indexing_round_trips() {
        for (i, k) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.name().is_empty());
        }
    }
}
