//! GEO link budget composition.
//!
//! The paper's system is a geostationary regenerative satellite
//! ("three geostationary satellites are enough to cover the earth", §2.1).
//! This module computes the transparent-cascade Eb/N0 that the
//! regeneration-gain experiment uses for its budget comparison.

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

    #[test]
    fn transparent_cascade_is_worse_than_either_hop() {
        let combined = transparent_combined_ebn0_db(10.0, 10.0);
        assert!((combined - 6.99).abs() < 0.05, "combined {combined}");
        assert!(transparent_combined_ebn0_db(10.0, 30.0) < 10.0);
        assert!(transparent_combined_ebn0_db(10.0, 30.0) > 9.5);
    }
}
