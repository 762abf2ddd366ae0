//! # gsp-fpga — simulated space-qualified reconfigurable fabric
//!
//! The paper's hardware platform (§4) is an FPGA whose *configuration
//! memory* is the reconfiguration target of the whole system — and the
//! radiation-soft spot that §4.3's mitigation techniques protect. This
//! crate simulates that fabric bit-exactly at the configuration level:
//!
//! * [`device`] — device descriptors (CLB grid, configuration frames, gate
//!   capacity, configuration-port speeds, partial-reconfiguration
//!   capability: the paper notes "major FPGAs are not partially
//!   configurable and only a global reload is possible", so both kinds are
//!   modelled);
//! * [`bitstream`] — framed bitstreams with per-frame CRC-16 and a global
//!   CRC-24 (`gsp-coding`'s 25.212 byte CRC), parsed through the
//!   workspace's one length-checked wire cursor;
//! * [`fabric`] — the live device: power state, JTAG-like full
//!   configuration, partial (per-frame) configuration, read-back, and a
//!   functional model in which *essential* configuration bits determine
//!   whether the implemented function still works;
//! * [`mitigation`] — §4.3's techniques: TMR majority voting (the pe² law),
//!   duplication + XOR detection, read-back-compare and read-back-CRC SEU
//!   detection with partial-reconfiguration repair, and periodic blind
//!   **SEU scrubbing**;
//! * [`resources`] — gate/CLB accounting connecting the modem gate budgets
//!   of `gsp-modem::complexity` to device capacity.
//!
//! ```
//! use gsp_fpga::{Bitstream, FpgaDevice, FpgaFabric};
//!
//! // The paper's §3.1 process: off → load → CRC telemetry → on.
//! let device = FpgaDevice::small_100k();
//! let bitstream = Bitstream::synthesise(7, &device, 12);
//! let mut fabric = FpgaFabric::new(device);
//! fabric.configure_full(&bitstream).unwrap();
//! fabric.power_on();
//! assert_eq!(fabric.global_crc(), bitstream.global_crc);
//! assert_eq!(fabric.design_id(), Some(7));
//! ```

#![warn(missing_docs)]

pub mod bitstream;
pub mod device;
pub mod fabric;
pub mod mitigation;
pub mod resources;

pub use bitstream::Bitstream;
pub use device::{ConfigPort, FpgaDevice};
pub use fabric::{FabricState, FpgaFabric};
