//! Gate/CLB resource accounting: maps gate budgets (e.g. from
//! `gsp-modem::complexity`) onto device capacity, and computes how many
//! configuration frames a design of a given size occupies.

use crate::bitstream::Bitstream;
use crate::device::FpgaDevice;

/// Equivalent gates per CLB for the simulated fabric family.
pub const GATES_PER_CLB: u64 = 160;

/// A placement summary for a design of `gates` on a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Gates requested.
    pub gates: u64,
    /// CLBs occupied.
    pub clbs: usize,
    /// Configuration frames (CLB columns) touched.
    pub frames_used: usize,
    /// Utilisation in parts-per-thousand of device gate capacity.
    pub utilisation_ppt: u32,
}

/// Errors when a design does not fit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityExceeded {
    /// Gates requested.
    pub gates: u64,
    /// Device capacity.
    pub capacity: u64,
}

impl std::fmt::Display for CapacityExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "design needs {} gates, device has {}",
            self.gates, self.capacity
        )
    }
}

impl std::error::Error for CapacityExceeded {}

/// Places a design of `gates` equivalent gates on `device`.
pub fn place(gates: u64, device: &FpgaDevice) -> Result<Placement, CapacityExceeded> {
    if gates > device.gate_capacity {
        return Err(CapacityExceeded {
            gates,
            capacity: device.gate_capacity,
        });
    }
    let clbs = gates.div_ceil(GATES_PER_CLB) as usize;
    let clbs_per_frame = device.clb_rows; // one frame per CLB column
    let frames_used = clbs.div_ceil(clbs_per_frame).min(device.frames);
    let utilisation_ppt = (gates * 1000 / device.gate_capacity.max(1)) as u32;
    Ok(Placement {
        gates,
        clbs,
        frames_used,
        utilisation_ppt,
    })
}

/// Synthesises design `design_id` of `gates` equivalent gates for
/// `device`: the frames its placement touches (at least one) carry the
/// design, and a design too large to place fills the whole device.
pub fn bitstream_for(design_id: u32, gates: u64, device: &FpgaDevice) -> Bitstream {
    let frames = place(gates, device)
        .map(|p| p.frames_used.max(1))
        .unwrap_or(device.frames);
    Bitstream::synthesise(design_id, device, frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_math() {
        let dev = FpgaDevice::virtex_like_1m();
        let p = place(200_000, &dev).unwrap();
        assert_eq!(p.clbs, 1250);
        assert_eq!(p.frames_used, 1250usize.div_ceil(64));
        assert_eq!(p.utilisation_ppt, 200);
    }

    #[test]
    fn rejects_oversize_design() {
        let dev = FpgaDevice::small_100k();
        assert!(place(200_000, &dev).is_err());
        assert!(place(100_000, &dev).is_ok());
    }

    #[test]
    fn paper_anchor_modem_fits_1m_device() {
        // Both §2.3 personalities (~200 kgate) fit the 1 Mgate-class device
        // with room to spare — the paper's hardware-compatibility claim.
        let dev = FpgaDevice::virtex_like_1m();
        let p = place(200_000, &dev).unwrap();
        assert!(p.utilisation_ppt <= 250);
    }

    #[test]
    fn tmr_overhead_may_not_fit() {
        // A 200 kgate design under TMR needs ~640 kgates: fits the 1 M part,
        // not the 600 k monolithic one — why §4.3 prefers scrubbing.
        let tmr_gates = (200_000.0 * crate::mitigation::TmrVoter::GATE_OVERHEAD) as u64;
        assert!(place(tmr_gates, &FpgaDevice::virtex_like_1m()).is_ok());
        assert!(place(tmr_gates, &FpgaDevice::monolithic_600k()).is_err());
    }

    #[test]
    fn zero_gate_design_occupies_nothing() {
        let dev = FpgaDevice::small_100k();
        let p = place(0, &dev).unwrap();
        assert_eq!(p.clbs, 0);
        assert_eq!(p.frames_used, 0);
    }
}
