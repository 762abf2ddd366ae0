//! The live FPGA: power state, configuration, read-back, SEU injection,
//! and a functional model over *essential* configuration bits.
//!
//! The fabric tracks simulated time costs (nanoseconds) for configuration
//! operations so the payload's reconfiguration service can report the
//! §3.1 service-interruption budget.

use crate::bitstream::{frame_crc, Bitstream};
use crate::device::FpgaDevice;
use rand::Rng;

/// Power/configuration state of the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricState {
    /// Unpowered — services through this FPGA are off (§3.1 step 2).
    Off,
    /// Powered but holding no valid configuration.
    Blank,
    /// Powered and running a configuration.
    Running,
}

/// Errors from fabric operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// The operation is illegal in the current state.
    WrongState {
        /// State the fabric was in.
        state: FabricState,
    },
    /// Bitstream geometry does not match the device.
    GeometryMismatch,
    /// Bitstream targets a different device.
    DeviceMismatch,
    /// Partial reconfiguration requested on a global-reload-only device.
    NoPartialReconfig,
    /// Frame index out of range.
    BadFrame,
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::WrongState { state } => write!(f, "illegal in state {state:?}"),
            FabricError::GeometryMismatch => write!(f, "bitstream geometry mismatch"),
            FabricError::DeviceMismatch => write!(f, "bitstream targets another device"),
            FabricError::NoPartialReconfig => write!(f, "device has no partial reconfiguration"),
            FabricError::BadFrame => write!(f, "frame index out of range"),
        }
    }
}

impl std::error::Error for FabricError {}

/// The simulated fabric.
#[derive(Clone, Debug)]
pub struct FpgaFabric {
    device: FpgaDevice,
    state: FabricState,
    /// Live configuration memory, frame-major.
    config: Vec<Vec<u8>>,
    /// The design currently loaded (None when blank).
    design_id: Option<u32>,
    /// Nanoseconds of configuration-port activity accumulated.
    busy_ns: u64,
    /// Upsets injected since the last full reload (diagnostics).
    upsets_injected: u64,
}

impl FpgaFabric {
    /// A blank, powered-off fabric of the given device.
    pub fn new(device: FpgaDevice) -> Self {
        let config = vec![vec![0u8; device.frame_bytes]; device.frames];
        FpgaFabric {
            device,
            state: FabricState::Off,
            config,
            design_id: None,
            busy_ns: 0,
            upsets_injected: 0,
        }
    }

    /// Device descriptor.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// Current state.
    pub fn state(&self) -> FabricState {
        self.state
    }

    /// Loaded design, if any.
    pub fn design_id(&self) -> Option<u32> {
        self.design_id
    }

    /// Total configuration-port busy time accumulated, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Upsets injected since the last full configuration.
    pub fn upsets_injected(&self) -> u64 {
        self.upsets_injected
    }

    /// Powers the fabric off (dropping services, keeping config memory —
    /// a real SRAM FPGA would lose it, but the reconfiguration flow always
    /// reloads before power-on, and keeping it makes diagnostics easier).
    pub fn power_off(&mut self) {
        self.state = FabricState::Off;
    }

    /// Powers the fabric on; it runs if a design is loaded.
    pub fn power_on(&mut self) {
        self.state = if self.design_id.is_some() {
            FabricState::Running
        } else {
            FabricState::Blank
        };
    }

    /// Full configuration load (§3.1 step 3). Legal only while off —
    /// the paper's process explicitly switches the FPGA off first.
    /// Returns the port time consumed in nanoseconds.
    pub fn configure_full(&mut self, bs: &Bitstream) -> Result<u64, FabricError> {
        if self.state != FabricState::Off {
            return Err(FabricError::WrongState { state: self.state });
        }
        if bs.device_name != self.device.name {
            return Err(FabricError::DeviceMismatch);
        }
        if bs.frames.len() != self.device.frames || bs.frames[0].len() != self.device.frame_bytes {
            return Err(FabricError::GeometryMismatch);
        }
        for (dst, src) in self.config.iter_mut().zip(&bs.frames) {
            dst.copy_from_slice(src);
        }
        self.design_id = Some(bs.design_id);
        self.upsets_injected = 0;
        let t = self.device.full_config_time_ns();
        self.busy_ns += t;
        Ok(t)
    }

    /// Partial reconfiguration of one frame — legal while running, per the
    /// Xilinx mechanism the paper describes ("each CLB can be read or
    /// written independently without interrupting operations performed").
    pub fn configure_frame(&mut self, frame: usize, data: &[u8]) -> Result<u64, FabricError> {
        if !self.device.partial_reconfig {
            return Err(FabricError::NoPartialReconfig);
        }
        if self.state == FabricState::Off {
            return Err(FabricError::WrongState { state: self.state });
        }
        if frame >= self.device.frames {
            return Err(FabricError::BadFrame);
        }
        if data.len() != self.device.frame_bytes {
            return Err(FabricError::GeometryMismatch);
        }
        self.config[frame].copy_from_slice(data);
        let t = self.device.frame_config_time_ns();
        self.busy_ns += t;
        Ok(t)
    }

    /// Reads one frame back (the §4.3 read-back function). Requires
    /// partial-reconfiguration/read-back support and power.
    pub fn readback_frame(&self, frame: usize) -> Result<&[u8], FabricError> {
        if !self.device.partial_reconfig {
            return Err(FabricError::NoPartialReconfig);
        }
        if self.state == FabricState::Off {
            return Err(FabricError::WrongState { state: self.state });
        }
        self.config
            .get(frame)
            .map(|f| f.as_slice())
            .ok_or(FabricError::BadFrame)
    }

    /// CRC-16 of a live frame — the paper's gate-cheap alternative to
    /// memorising the golden file ("calculating a CRC for each cell and
    /// comparing CRC values which is less gate consuming").
    pub fn readback_frame_crc(&self, frame: usize) -> Result<u16, FabricError> {
        self.readback_frame(frame).map(frame_crc)
    }

    /// CRC-24 over the whole live configuration — the §3.2 validation
    /// telemetry ("e.g. CRC of the new configuration of the FPGA").
    pub fn global_crc(&self) -> u32 {
        Bitstream::global_crc_of(&self.config)
    }

    /// Injects one SEU at a uniformly random configuration bit.
    /// Legal in any powered state (radiation does not ask).
    pub fn inject_random_upset<R: Rng>(&mut self, rng: &mut R) -> (usize, usize, u8) {
        let frame = rng.gen_range(0..self.device.frames);
        let byte = rng.gen_range(0..self.device.frame_bytes);
        let bit = rng.gen_range(0..8u8);
        self.config[frame][byte] ^= 1 << bit;
        self.upsets_injected += 1;
        (frame, byte, bit)
    }

    /// Injects an SEU at a specific bit (failure-injection tests).
    pub fn inject_upset_at(&mut self, frame: usize, byte: usize, bit: u8) {
        self.config[frame][byte] ^= 1 << bit;
        self.upsets_injected += 1;
    }

    /// Whether a configuration bit is *essential* to the implemented
    /// function: a deterministic keyed hash marks
    /// `device.essential_fraction` of all bits.
    pub fn bit_is_essential(&self, frame: usize, byte: usize, bit: u8) -> bool {
        let mut h = (frame as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((byte as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(bit as u64);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (h as f64 / u64::MAX as f64) < self.device.essential_fraction
    }

    /// Compares the live configuration against a golden bitstream,
    /// returning the indices of mismatching frames (read-back compare
    /// detection of §4.3).
    pub fn diff_frames(&self, golden: &Bitstream) -> Vec<usize> {
        self.config
            .iter()
            .zip(&golden.frames)
            .enumerate()
            .filter_map(|(i, (live, gold))| (live != gold).then_some(i))
            .collect()
    }

    /// Functional health of the loaded design against its golden
    /// bitstream: the function still works iff no *essential* bit differs.
    pub fn function_correct(&self, golden: &Bitstream) -> bool {
        for (f, (live, gold)) in self.config.iter().zip(&golden.frames).enumerate() {
            for (b, (lv, gv)) in live.iter().zip(gold.iter()).enumerate() {
                let mut diff = lv ^ gv;
                while diff != 0 {
                    let bit = diff.trailing_zeros() as u8;
                    if self.bit_is_essential(f, b, bit) {
                        return false;
                    }
                    diff &= diff - 1;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn loaded_fabric() -> (FpgaFabric, Bitstream) {
        let dev = FpgaDevice::small_100k();
        let bs = Bitstream::synthesise(3, &dev, dev.frames);
        let mut fab = FpgaFabric::new(dev);
        fab.configure_full(&bs).unwrap();
        fab.power_on();
        (fab, bs)
    }

    #[test]
    fn reconfiguration_protocol_state_machine() {
        let dev = FpgaDevice::small_100k();
        let bs = Bitstream::synthesise(1, &dev, 4);
        let mut fab = FpgaFabric::new(dev);
        assert_eq!(fab.state(), FabricState::Off);
        // Power on blank: no design.
        fab.power_on();
        assert_eq!(fab.state(), FabricState::Blank);
        // Configure while powered is rejected (the paper's process switches
        // the FPGA off first).
        assert!(matches!(
            fab.configure_full(&bs),
            Err(FabricError::WrongState { .. })
        ));
        fab.power_off();
        fab.configure_full(&bs).unwrap();
        fab.power_on();
        assert_eq!(fab.state(), FabricState::Running);
        assert_eq!(fab.design_id(), Some(1));
    }

    #[test]
    fn rejects_wrong_device_bitstream() {
        let mut fab = FpgaFabric::new(FpgaDevice::small_100k());
        let other = FpgaDevice::virtex_like_1m();
        let bs = Bitstream::synthesise(1, &other, 4);
        assert_eq!(fab.configure_full(&bs), Err(FabricError::DeviceMismatch));
    }

    #[test]
    fn global_crc_matches_bitstream_after_load() {
        let (fab, bs) = loaded_fabric();
        assert_eq!(fab.global_crc(), bs.global_crc);
    }

    #[test]
    fn upset_changes_crc_and_diff() {
        let (mut fab, bs) = loaded_fabric();
        let mut rng = StdRng::seed_from_u64(8);
        let (frame, _, _) = fab.inject_random_upset(&mut rng);
        assert_ne!(fab.global_crc(), bs.global_crc);
        assert_eq!(fab.diff_frames(&bs), vec![frame]);
        assert_ne!(fab.readback_frame_crc(frame).unwrap(), bs.frame_crcs[frame]);
    }

    #[test]
    fn partial_reconfig_repairs_frame() {
        let (mut fab, bs) = loaded_fabric();
        fab.inject_upset_at(5, 17, 3);
        assert_eq!(fab.diff_frames(&bs), vec![5]);
        fab.configure_frame(5, &bs.frames[5]).unwrap();
        assert!(fab.diff_frames(&bs).is_empty());
        assert_eq!(fab.global_crc(), bs.global_crc);
    }

    #[test]
    fn monolithic_device_rejects_partial_ops() {
        let dev = FpgaDevice::monolithic_600k();
        let bs = Bitstream::synthesise(1, &dev, 4);
        let mut fab = FpgaFabric::new(dev);
        fab.configure_full(&bs).unwrap();
        fab.power_on();
        assert_eq!(
            fab.configure_frame(0, &bs.frames[0]),
            Err(FabricError::NoPartialReconfig)
        );
        assert!(fab.readback_frame(0).is_err());
    }

    #[test]
    fn essential_fraction_is_respected() {
        let (fab, _) = loaded_fabric();
        let mut essential = 0usize;
        let mut total = 0usize;
        for f in 0..fab.device().frames {
            for b in 0..fab.device().frame_bytes {
                for bit in 0..8 {
                    essential += fab.bit_is_essential(f, b, bit) as usize;
                    total += 1;
                }
            }
        }
        let frac = essential as f64 / total as f64;
        assert!((frac - 0.2).abs() < 0.01, "essential fraction {frac}");
    }

    #[test]
    fn non_essential_upsets_do_not_break_function() {
        let (mut fab, bs) = loaded_fabric();
        // Find a non-essential bit and flip it.
        'outer: for f in 0..fab.device().frames {
            for b in 0..fab.device().frame_bytes {
                for bit in 0..8 {
                    if !fab.bit_is_essential(f, b, bit) {
                        fab.inject_upset_at(f, b, bit);
                        break 'outer;
                    }
                }
            }
        }
        assert!(fab.function_correct(&bs));
        // Now flip an essential bit.
        'outer2: for f in 0..fab.device().frames {
            for b in 0..fab.device().frame_bytes {
                for bit in 0..8 {
                    if fab.bit_is_essential(f, b, bit) {
                        fab.inject_upset_at(f, b, bit);
                        break 'outer2;
                    }
                }
            }
        }
        assert!(!fab.function_correct(&bs));
    }

    #[test]
    fn config_time_accounting() {
        let (mut fab, bs) = loaded_fabric();
        let before = fab.busy_ns();
        let t = fab.configure_frame(0, &bs.frames[0]).unwrap();
        assert_eq!(fab.busy_ns(), before + t);
        assert_eq!(t, fab.device().frame_config_time_ns());
    }
}
