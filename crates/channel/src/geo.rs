//! GEO link geometry and budget.
//!
//! The paper's system is a geostationary regenerative satellite
//! ("three geostationary satellites are enough to cover the earth", §2.1;
//! "we consider a geostationary satellite (where propagation time is
//! fixed)", §3.3) with a 30 GHz, 500 MHz-wide uplink. This module computes
//! slant range, free-space path loss and a simple up-link budget, and the
//! transparent-cascade Eb/N0 that the regeneration-gain experiment uses
//! for its budget comparison.

/// Speed of light, m/s.
pub const C_LIGHT: f64 = 299_792_458.0;
/// GEO orbital radius from Earth centre, m.
pub const GEO_RADIUS_M: f64 = 42_164_000.0;
/// Mean Earth radius, m.
pub const EARTH_RADIUS_M: f64 = 6_371_000.0;
/// Boltzmann constant, dBW/K/Hz.
pub const BOLTZMANN_DBW: f64 = -228.6;

/// A ground↔GEO link characterised by the terminal's elevation angle.
#[derive(Clone, Copy, Debug)]
pub struct GeoLink {
    /// Terminal elevation angle, degrees (90 = sub-satellite point).
    pub elevation_deg: f64,
    /// Carrier frequency, Hz (paper: ~30 GHz uplink).
    pub carrier_hz: f64,
}

impl GeoLink {
    /// Slant range from terminal to satellite, metres.
    ///
    /// Law of cosines on (Earth centre, terminal, satellite) with the
    /// terminal's zenith angle = 90° + elevation.
    pub fn slant_range_m(&self) -> f64 {
        let el = self.elevation_deg.to_radians();
        let re = EARTH_RADIUS_M;
        let rs = GEO_RADIUS_M;
        // d² + 2·re·sin(el)·d + (re² − rs²) = 0, positive root:
        let b = 2.0 * re * el.sin();
        let c = re * re - rs * rs;
        (-b + (b * b - 4.0 * c).sqrt()) / 2.0
    }

    /// Free-space path loss in dB at the carrier frequency.
    pub fn free_space_loss_db(&self) -> f64 {
        let d = self.slant_range_m();
        20.0 * (4.0 * std::f64::consts::PI * d * self.carrier_hz / C_LIGHT).log10()
    }

    /// Received C/N0 in dB-Hz for a terminal EIRP (dBW), satellite G/T
    /// (dB/K) and additional losses (dB).
    pub fn cn0_dbhz(&self, eirp_dbw: f64, gt_dbk: f64, extra_losses_db: f64) -> f64 {
        eirp_dbw - self.free_space_loss_db() - extra_losses_db + gt_dbk - BOLTZMANN_DBW
    }

    /// Eb/N0 in dB at the given information bit rate.
    pub fn ebn0_db(&self, eirp_dbw: f64, gt_dbk: f64, extra_losses_db: f64, bitrate: f64) -> f64 {
        self.cn0_dbhz(eirp_dbw, gt_dbk, extra_losses_db) - 10.0 * bitrate.log10()
    }
}

/// End-to-end Eb/N0 composition (the regeneration advantage of §2.1).
///
/// * Transparent payload: the two AWGN hops cascade,
///   `1/(Eb/N0)_tot = 1/(Eb/N0)_up + 1/(Eb/N0)_down`.
/// * Regenerative payload: each hop is decoded independently; the
///   end-to-end BER is `≈ BER_up + BER_down`, so the *effective* Eb/N0 is
///   set by the worse hop rather than the cascade.
pub fn transparent_combined_ebn0_db(up_db: f64, down_db: f64) -> f64 {
    let up = 10f64.powf(up_db / 10.0);
    let down = 10f64.powf(down_db / 10.0);
    10.0 * (1.0 / (1.0 / up + 1.0 / down)).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uplink at 30 GHz from a terminal at the given elevation.
    fn uplink(elevation_deg: f64) -> GeoLink {
        GeoLink {
            elevation_deg,
            carrier_hz: 30e9,
        }
    }

    #[test]
    fn subsatellite_range_is_geo_altitude() {
        let link = uplink(90.0);
        assert!((link.slant_range_m() - (GEO_RADIUS_M - EARTH_RADIUS_M)).abs() < 1.0);
    }

    #[test]
    fn delay_is_in_the_120ms_class() {
        // One-way GEO delay: ~119.4 ms at zenith, up to ~139 ms at horizon.
        let zenith = uplink(90.0).slant_range_m() / C_LIGHT;
        let horizon = uplink(0.0).slant_range_m() / C_LIGHT;
        assert!((zenith - 0.1194).abs() < 0.001, "zenith {zenith}");
        assert!(horizon > zenith && horizon < 0.14, "horizon {horizon}");
        // Ground↔satellite↔ground ≈ 250 ms (the paper's GEO round trip to
        // the transparent relay's far end).
        assert!((2.0 * horizon - 0.25).abs() < 0.03);
    }

    #[test]
    fn slant_range_decreases_with_elevation() {
        let mut prev = f64::INFINITY;
        for el in [0.0, 10.0, 30.0, 60.0, 90.0] {
            let d = uplink(el).slant_range_m();
            assert!(d < prev, "elevation {el}");
            prev = d;
        }
    }

    #[test]
    fn path_loss_magnitude_at_30ghz() {
        // ~213.5 dB at zenith for 30 GHz GEO.
        let l = uplink(90.0).free_space_loss_db();
        assert!((l - 213.1).abs() < 1.0, "loss {l}");
    }

    #[test]
    fn link_budget_produces_sane_ebn0() {
        // Small terminal: 45 dBW EIRP, payload G/T 10 dB/K, 3 dB margin,
        // 384 kbps → healthy single-digit-to-teens Eb/N0.
        let link = uplink(30.0);
        let ebn0 = link.ebn0_db(45.0, 10.0, 3.0, 384e3);
        assert!(ebn0 > 3.0 && ebn0 < 20.0, "Eb/N0 {ebn0}");
    }

    #[test]
    fn transparent_cascade_is_worse_than_either_hop() {
        let combined = transparent_combined_ebn0_db(10.0, 10.0);
        assert!((combined - 6.99).abs() < 0.05, "combined {combined}");
        assert!(transparent_combined_ebn0_db(10.0, 30.0) < 10.0);
        assert!(transparent_combined_ebn0_db(10.0, 30.0) > 9.5);
    }
}
