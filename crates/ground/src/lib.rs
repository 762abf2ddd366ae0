//! # gsp-ground — the ground-segment contact plane
//!
//! Everything between the NCC and the satellite that is *not* the
//! protocol stack: which station sees the spacecraft when, how good
//! each moment of a pass is, and how queued ground work packs into the
//! bounded contacts a real (non-GEO) mission gets.
//!
//! Three layers:
//!
//! * [`orbit`] — a deterministic visibility model. A [`ContactLink`]
//!   compiles a station network, an orbit, and seeded link fades into
//!   the [`gsp_netproto::ContactSchedule`] that
//!   [`gsp_netproto::sim::Sim`] consults per transmitted frame: pass
//!   windows sliced into Doppler/elevation segments, edges derated,
//!   faded slices cut outright.
//! * [`scheduler`] — a [`run_schedule`] pass scheduler that queues
//!   reconfiguration uploads, waveform-descriptor deliveries and
//!   housekeeping downlinks into those contacts by priority, with
//!   byte-exact suspend/resume across passes and stations, resume
//!   expiry, and per-pass utilization reporting.
//! * The FDIR tie-in lives in `gsp-fdir`: `ReconfigUplink::over_contacts`
//!   drives a real TFTP exchange through the same schedule, so a golden
//!   bitstream that does not fit one pass suspends at the stalled block
//!   and resumes on the next pass — possibly at another station.
//!
//! Everything is a pure function of `(config, seed)`; two runs are
//! byte-identical.

pub mod orbit;
pub mod scheduler;

pub use orbit::{standard_network, ContactLink, FadeConfig, GroundStation};
pub use scheduler::{run_schedule, Job, JobCompletion, JobKind, PassUtilization, ScheduleReport};
