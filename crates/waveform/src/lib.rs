//! # gsp-waveform — the STRS-style waveform plane
//!
//! The paper's thesis is a *generic* payload whose personality is
//! exchanged in orbit. This crate makes that exchange a first-class,
//! measured service instead of a narrative: waveforms are registry-loaded
//! personalities with an STRS-style lifecycle, and a hot-swap controller
//! exchanges them on a live transponder while traffic is offered and
//! faults are injected — buffering ingress across the swap window and
//! rolling back to the previous personality when a fault lands mid-swap.
//!
//! * [`descriptor`] — the self-describing, checksummed wire form a ground
//!   segment uploads over the N3 stack; validation happens before any
//!   component is instantiated;
//! * [`component`] — the STRS lifecycle state machine
//!   (`instantiate → configure → run → deactivate → teardown`), its
//!   errors and the personality-neutral frame report;
//! * [`adapters`] — the [`Waveform`]: one personality that walks that
//!   lifecycle over the existing `gsp-modem` CDMA chain or the
//!   `gsp-payload` [`PipelineEngine`](gsp_payload::pipeline::PipelineEngine),
//!   as its descriptor's kind says, with per-frame processing a pure
//!   function of `(seed, tick)`;
//! * [`registry`] — name/version lookup from validated descriptors to
//!   instantiated personalities: the fixed table of the S-UMTS CDMA and
//!   MF-TDMA builds every payload ships;
//! * [`hotswap`] — the [`HotSwapController`]:
//!   TFTP download + validate while the carrier is still up, frame-
//!   boundary quiesce, teardown/bring-up with a confidence window,
//!   buffered-ingress replay, and fault-triggered rollback.
//!
//! ## Determinism contract
//!
//! Every frame a waveform processes is a pure function of the component
//! state and `(seed, tick)`; the controller's swap machinery consumes no
//! wall clock and no ambient randomness, so double runs are bitwise
//! identical, and a rolled-back swap leaves the frame history of the old
//! personality exactly contiguous — bitwise identical to a run that
//! never attempted the swap.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapters;
pub mod component;
pub mod descriptor;
pub mod hotswap;
pub mod registry;

pub use adapters::Waveform;
pub use component::{LifecycleOp, LifecycleState, WaveformError, WaveformFrameReport};
pub use descriptor::{DescriptorError, WaveformDescriptor, WaveformKind};
pub use hotswap::{HotSwapController, StepOutcome, SwapCommand, SwapPhase, SwapReport};
pub use registry::WaveformRegistry;
