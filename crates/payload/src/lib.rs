//! # gsp-payload — the regenerative payload and its management plane
//!
//! Everything on the spacecraft side of the paper's Figs. 1 and 2:
//!
//! * [`platform`] — the platform of Fig. 1: telecommand (TC) intake,
//!   telemetry (TM) emission, clock/frequency reference generation;
//! * [`equipment`] — the payload equipments of Fig. 2 (ADC, DBFN, DEMUX,
//!   DEMOD, DECOD, baseband switch, Tx), each digital one hosting a
//!   simulated FPGA from `gsp-fpga`;
//! * [`memory`] — the on-board bitstream memory and the optional bitstream
//!   **library** of §3.2 ("this allows to reduce time transfers between
//!   the ground and the satellite but requires a lot of available memory
//!   on-board");
//! * [`obpc`] — the on-board processor controller of §3.1, which "is able
//!   to exchange with the controller on the platform and also to address
//!   each equipment separately", and runs the five-step reconfiguration
//!   service with CRC validation and rollback;
//! * [`switch`] — the baseband packet switch that makes the payload
//!   regenerative (routing at packet level, §2.1);
//! * [`chain`] — the full Fig. 2 receive chain, driven end-to-end with
//!   synthetic MF-TDMA traffic (experiment F2);
//! * [`pipeline`] — the reusable chain engine: long-lived per-carrier
//!   state, per-carrier Tx synthesis and DEMOD→DECOD→CRC stepped on the
//!   worker pool with cross-frame pipelining, and per-stage counters;
//! * [`pool`] — the one worker pool: persistent threads stepping work
//!   items that travel by value and come back in send order (the
//!   pipeline's lanes here, the constellation's satellites one level up);
//! * [`txchain`] — the Tx part of Fig. 2: the downlink chain (the burst
//!   codec's CRC + convolutional coding, QPSK burst, TWTA) and the
//!   matching ground receiver, closing the regenerative loop;
//! * [`partition`] — the §4.4 payload-structuring strategies (one chip /
//!   chip per equipment / chip per function) and their reconfiguration
//!   scope and interruption costs.

#![deny(missing_docs)]

pub mod chain;
pub mod equipment;
pub mod frontend;
pub mod memory;
pub mod obpc;
pub mod partition;
pub mod pipeline;
pub mod platform;
pub mod pool;
pub mod scheduler;
pub mod switch;
pub mod transponder;
pub mod txchain;

pub use equipment::{Equipment, EquipmentId, EquipmentKind};
pub use memory::OnboardMemory;
pub use obpc::{Obpc, ReconfigError, ReconfigReport};
pub use pipeline::{LaneFault, LaneHealth, PipelineEngine, PipelineStats};
pub use platform::{Platform, Telecommand, Telemetry};
