//! # gsp-fdir — fault detection, isolation and recovery for the payload
//!
//! The paper's §4 argues that a software-radio payload survives the GEO
//! radiation environment only if mitigation is *closed-loop*: upsets are
//! injected by the environment, detected by read-back and watchdogs, and
//! repaired through the same reconfiguration machinery that uploads new
//! designs. This crate closes that loop across the whole stack:
//!
//! * [`inject`] — maps `gsp-radiation`'s Poisson SEU arrivals onto live
//!   targets: per-carrier lane state (CRC corruption, stalls), switch
//!   queue memory (EDAC events), scheduler grant tables, and FPGA
//!   configuration frames. Deterministic per seed.
//! * [`supervisor`] — per-equipment detection (watchdog heartbeats,
//!   CRC-rate tripwires, read-back frame CRCs, grant-table trips)
//!   feeding a `Healthy → Suspect → Quarantined → Recovering → Healthy`
//!   state machine with a bounded escalation ladder.
//! * [`recovery`] — the ladder's last rung: the golden bitstream
//!   re-uploaded through `gsp-netproto` TFTP over a lossy, corrupting
//!   GEO uplink with jittered exponential backoff, bounded retries and
//!   transfer resume.
//! * [`harness`] — the closed-loop soak: injection, detection, recovery
//!   and the live `gsp-traffic` engine (quarantined beams reroute voice
//!   and shed best-effort) advancing on one frame clock, reporting
//!   availability, MTTR and escalation counts. Bitwise deterministic
//!   per seed; every transition observable through `gsp-telemetry`.
//!
//! Telemetry is observed, never consulted: a harness with a live
//! registry produces a [`harness::SoakReport`] bit-identical to one
//! without (asserted in `tests/tests/telemetry_plane.rs`).

#![deny(missing_docs)]

pub mod harness;
pub mod inject;
pub mod recovery;
pub mod supervisor;

pub use harness::{FdirHarness, HarnessConfig, SoakReport, UploadRecord};
pub use inject::{Fault, FaultInjector, FaultKind};
pub use recovery::{ReconfigUplink, UplinkOutcome};
pub use supervisor::{
    DetectorReadout, Health, RecoveryAction, RecoveryMode, Supervisor, SupervisorConfig, Transition,
};
