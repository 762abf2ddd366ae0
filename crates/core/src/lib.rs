//! # gsp-core — the generic software-radio satellite payload
//!
//! The paper's contribution, assembled from the substrate crates: a
//! regenerative payload whose digital functions are *personalities* loaded
//! onto simulated FPGAs, reconfigured in orbit by a ground NCC through the
//! Fig. 4 protocol stack, validated, rolled back on failure, and defended
//! against the radiation environment.
//!
//! * [`ncc`] — the ground network control centre: bitstream catalogue,
//!   upload-protocol choice, telecommand issue, telemetry bookkeeping;
//! * [`ops`] — the operations link: telecommands and telemetry carried
//!   over the real N1 stack (controlled-mode frames on a dedicated
//!   virtual channel) between NCC and on-board processor controller;
//! * [`housekeeping`] — the observability plane on the TM channel:
//!   metrics snapshots encoded as CRC-protected housekeeping frames that
//!   the [`ncc`] decodes whole-or-not-at-all;
//! * [`scenario`] — end-to-end stories: the CDMA→TDMA waveform change
//!   while the payload flies, the decoder upgrade, the SEU-scrub routine;
//! * [`exp`] — one driver per paper table/figure/claim (E1…E12, F2);
//!   see DESIGN.md §3 for the index and EXPERIMENTS.md for the results;
//! * [`table`] — plain-text table rendering shared by the drivers and the
//!   `gsp-bench` binaries.
//!
//! ## Quickstart
//!
//! ```
//! use gsp_core::scenario::{waveform_switch, WaveformSwitchConfig};
//!
//! let outcome = waveform_switch(&WaveformSwitchConfig::default(), 7);
//! assert!(outcome.success);
//! assert!(outcome.tdma_verified.clean());
//! ```

#![warn(missing_docs)]

pub mod exp;
pub mod housekeeping;
pub mod ncc;
pub mod ops;
pub mod scenario;
pub mod table;

pub use gsp_waveform::{WaveformDescriptor, WaveformRegistry};
pub use scenario::{waveform_switch, WaveformSwitchConfig, WaveformSwitchOutcome};
pub use table::ExpTable;
