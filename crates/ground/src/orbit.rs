//! Deterministic orbit/visibility model: which ground station sees the
//! satellite when, and how good the link is at each moment of a pass.
//!
//! The model is deliberately kinematic rather than Keplerian: a
//! circular orbit of period `PERIOD_NS` carries the satellite over each
//! station once per revolution, at a phase fixed by the station's
//! longitude. Every pass lasts `PASS_NS` centred on the overhead point
//! and is cut into `SLICES` abutting [`ContactWindow`]s. Each slice's
//! link is the zenith-quality base channel derated for its
//! elevation/Doppler profile — the AOS/LOS edges see the satellite low
//! and fast, so they run slower and lossier than the overhead midpoint —
//! and optionally degraded (or cut outright) by seeded link fades.
//! Everything is a pure function of `(stations, fades, seed)`: two
//! builds of the same plan are identical down to the last nanosecond.

use gsp_netproto::{ContactSchedule, ContactWindow, LinkConfig};

/// A ground station in the contact network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroundStation {
    /// Station index, carried into every window it serves.
    pub id: u16,
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Orbital phase of the station's overhead point, in thousandths
    /// of a period (0..1000 — longitude, in orbit-phase units).
    pub phase_millis: u32,
}

// The orbit is a compressed LEO-class regime sized for simulation: 2 s
// period, 240 ms passes in 8 slices, a 1 Mbps up / 4 Mbps down bent pipe
// with 3 ms propagation, edges at 40% rate with +12% frame loss.

/// Orbital period, nanoseconds.
const PERIOD_NS: u64 = 2_000_000_000;
/// AOS-to-LOS span of one pass, nanoseconds.
const PASS_NS: u64 = 240_000_000;
/// Doppler/elevation slices per pass (each becomes one window).
const SLICES: u32 = 8;
/// The zenith-quality channel, in force at the pass midpoint.
pub const ZENITH_LINK: LinkConfig = LinkConfig {
    delay_ns: 3_000_000,
    up_rate_bps: 1_000_000,
    down_rate_bps: 4_000_000,
    ber: 0.0,
    loss_prob: 0.0,
};
/// Edge-slice rate as thousandths of the zenith rate (a pass opens and
/// closes at this fraction and ramps linearly to 1.0 mid-pass).
const EDGE_RATE_MILLIS: u64 = 400;
/// Extra whole-frame loss probability at the extreme edge, in
/// thousandths (applied ∝ the square of the distance from zenith).
const EDGE_LOSS_MILLIS: u64 = 120;
const _: () = assert!(SLICES > 0 && PASS_NS >= SLICES as u64, "degenerate pass");

/// Seeded link-fade fault injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FadeConfig {
    /// Probability a slice is cut outright (hard mid-pass LOS), in
    /// thousandths.
    pub cut_millis: u32,
    /// Probability a surviving slice carries a deep fade, in
    /// thousandths.
    pub fade_millis: u32,
    /// Loss probability a deep fade adds, in thousandths.
    pub fade_loss_millis: u32,
}

impl FadeConfig {
    /// No fades at all.
    pub fn none() -> Self {
        FadeConfig {
            cut_millis: 0,
            fade_millis: 0,
            fade_loss_millis: 0,
        }
    }

    /// The soak regime: 15% of slices cut, 20% of the rest faded to
    /// +35% loss.
    pub fn soak() -> Self {
        FadeConfig {
            cut_millis: 150,
            fade_millis: 200,
            fade_loss_millis: 350,
        }
    }
}

/// The compiled contact plane: stations + orbit + fades → the
/// [`ContactSchedule`] that gates every `gsp-netproto` exchange.
#[derive(Clone, Debug, PartialEq)]
pub struct ContactLink {
    /// The station network.
    pub stations: Vec<GroundStation>,
    /// Fade injection.
    pub fades: FadeConfig,
    /// Seed keying the fade draws.
    pub seed: u64,
}

/// The default three-station network, phased a third of an orbit apart.
pub fn standard_network() -> Vec<GroundStation> {
    vec![
        GroundStation {
            id: 0,
            name: "KIR",
            phase_millis: 167,
        },
        GroundStation {
            id: 1,
            name: "SVL",
            phase_millis: 500,
        },
        GroundStation {
            id: 2,
            name: "TRL",
            phase_millis: 833,
        },
    ]
}

impl ContactLink {
    /// The standard network on the compressed LEO orbit.
    pub fn standard(fades: FadeConfig, seed: u64) -> Self {
        ContactLink {
            stations: standard_network(),
            fades,
            seed,
        }
    }

    /// Derates the base link for slice `k` of `n`: rate ramps linearly
    /// from the edge fraction to 1.0 at mid-pass, loss grows with the
    /// square of the distance from zenith (both symmetric around the
    /// overhead point, so slice `k` and slice `n-1-k` match).
    fn slice_link(&self, k: u32, n: u32) -> LinkConfig {
        // Distance of the slice midpoint from the pass midpoint,
        // normalised to 0 (zenith) ..= ~1 (extreme edge), in
        // thousandths. The |4k+2-2n| numerator is identical for slice
        // k and its mirror n-1-k, so the profile is exactly symmetric
        // even under integer division.
        let x_num = (4 * k as u64 + 2).abs_diff(2 * n as u64);
        let x_millis = x_num * 1000 / (2 * n as u64);
        let rate_millis = 1000 - (1000 - EDGE_RATE_MILLIS) * x_millis / 1000;
        let added_loss = EDGE_LOSS_MILLIS * x_millis * x_millis / 1_000_000;
        LinkConfig {
            up_rate_bps: (ZENITH_LINK.up_rate_bps * rate_millis / 1000).max(1),
            down_rate_bps: (ZENITH_LINK.down_rate_bps * rate_millis / 1000).max(1),
            loss_prob: (ZENITH_LINK.loss_prob + added_loss as f64 / 1000.0).min(1.0),
            ..ZENITH_LINK
        }
    }

    /// Builds the contact plan out to `horizon_ns`. Passes are emitted
    /// chronologically with globally increasing `pass_id`s; overlapping
    /// passes (stations phased closer than a pass width) resolve to the
    /// earlier station, deterministically.
    pub fn schedule(&self, horizon_ns: u64) -> ContactSchedule {
        // All pass intervals [start, end) in chronological order.
        let mut passes: Vec<(u64, u16, u64)> = Vec::new(); // (start, station, orbit_k)
        for s in &self.stations {
            let phase = PERIOD_NS * s.phase_millis as u64 / 1000;
            let mut k = 0u64;
            loop {
                let centre = phase + k * PERIOD_NS;
                let start = centre.saturating_sub(PASS_NS / 2);
                if start >= horizon_ns {
                    break;
                }
                passes.push((start, s.id, k));
                k += 1;
            }
        }
        passes.sort_unstable();
        let mut windows = Vec::new();
        let mut last_end = 0u64;
        let mut pass_id = 0u32;
        for (start, station, orbit_k) in passes {
            if start < last_end {
                continue; // Earlier station keeps an overlapping pass.
            }
            let slice_ns = PASS_NS / SLICES as u64;
            let mut emitted = false;
            for k in 0..SLICES {
                let w_start = start + k as u64 * slice_ns;
                let w_end = if k + 1 == SLICES {
                    start + PASS_NS
                } else {
                    w_start + slice_ns
                };
                let h = rand::splitmix64_mix(
                    self.seed ^ ((station as u64) << 48) ^ (orbit_k << 16) ^ k as u64,
                );
                if self.fades.cut_millis > 0 && h % 1000 < self.fades.cut_millis as u64 {
                    continue; // Faded out: a hole in the pass.
                }
                let mut link = self.slice_link(k, SLICES);
                if self.fades.fade_millis > 0 && (h >> 32) % 1000 < self.fades.fade_millis as u64 {
                    link.loss_prob =
                        (link.loss_prob + self.fades.fade_loss_millis as f64 / 1000.0).min(1.0);
                }
                windows.push(ContactWindow {
                    start_ns: w_start,
                    end_ns: w_end,
                    station,
                    pass_id,
                    link,
                });
                emitted = true;
            }
            last_end = start + PASS_NS;
            if emitted {
                pass_id += 1;
            }
        }
        ContactSchedule::new(windows)
    }

    /// Fraction of the horizon spent in contact with any station.
    pub fn duty_cycle(&self, horizon_ns: u64) -> f64 {
        if horizon_ns == 0 {
            return 0.0;
        }
        self.schedule(horizon_ns).contact_ns() as f64 / horizon_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_sorted() {
        let link = ContactLink::standard(FadeConfig::soak(), 9);
        let a = link.schedule(10_000_000_000);
        let b = link.schedule(10_000_000_000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for pair in a.windows().windows(2) {
            assert!(pair[0].end_ns <= pair[1].start_ns);
        }
    }

    #[test]
    fn every_station_gets_passes_each_orbit() {
        let link = ContactLink::standard(FadeConfig::none(), 1);
        let plan = link.schedule(4_000_000_000); // two orbits
        for s in 0..3u16 {
            let n = plan.windows().iter().filter(|w| w.station == s).count();
            assert_eq!(n, 16, "station {s}: 8 slices × 2 orbits");
        }
        // Without fades, each pass's slices abut into one contact run.
        let first_pass: Vec<_> = plan.windows().iter().filter(|w| w.pass_id == 0).collect();
        for pair in first_pass.windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].start_ns, "slices must abut");
        }
    }

    #[test]
    fn edges_are_slower_and_lossier_than_zenith() {
        let link = ContactLink::standard(FadeConfig::none(), 1);
        let plan = link.schedule(1_000_000_000);
        let pass: Vec<_> = plan.windows().iter().filter(|w| w.pass_id == 0).collect();
        assert_eq!(pass.len(), 8);
        let edge = pass[0].link;
        let zenith = pass[4].link;
        assert!(edge.up_rate_bps < zenith.up_rate_bps);
        assert!(edge.loss_prob > zenith.loss_prob);
        // The profile is symmetric about the overhead point.
        assert_eq!(pass[0].link, pass[7].link);
        assert_eq!(pass[3].link, pass[4].link);
    }

    #[test]
    fn fades_cut_slices_and_key_off_the_seed() {
        let calm = ContactLink::standard(FadeConfig::none(), 5).schedule(8_000_000_000);
        let stormy = ContactLink::standard(FadeConfig::soak(), 5).schedule(8_000_000_000);
        assert!(
            stormy.windows().len() < calm.windows().len(),
            "a 15% cut rate must remove slices over 4 orbits"
        );
        let other = ContactLink::standard(FadeConfig::soak(), 6).schedule(8_000_000_000);
        assert_ne!(stormy, other, "fades must be seed-keyed");
    }

    #[test]
    fn duty_cycle_matches_geometry_without_fades() {
        let link = ContactLink::standard(FadeConfig::none(), 1);
        // 3 passes of 240 ms per 2 s orbit = 36%.
        let duty = link.duty_cycle(20_000_000_000);
        assert!((duty - 0.36).abs() < 0.02, "duty {duty}");
    }
}
