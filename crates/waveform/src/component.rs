//! The STRS-style lifecycle of a [`Waveform`](crate::Waveform): its
//! states, its errors and the report of one processed frame.
//!
//! STRS structures a radio application as a component the infrastructure
//! drives through a fixed life: *instantiate* (the registry load),
//! *configure* (allocate and parameterise the processing state),
//! *run* (enter the live state), *deactivate* (quiesce at a frame
//! boundary, state preserved), *teardown* (release everything). The
//! legal edges are one table, [`LifecycleState::after`]; every illegal
//! call is an error, never a silent no-op, because the hot-swap
//! controller leans on the transitions to prove the old personality is
//! still rollback-able until the new one has earned its confidence
//! window.

/// Where a component is in its life.
///
/// Legal edges ([`LifecycleState::after`]): `Instantiated → Configured
/// → Running ⇄ Deactivated`, and any non-running state `→ TornDown`.
/// `Deactivated → Running` is the rollback edge: a deactivated
/// personality keeps its processing state and can resume exactly where
/// it stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LifecycleState {
    /// Registry-loaded; descriptor accepted, no processing state yet.
    Instantiated,
    /// Processing state allocated and parameterised.
    Configured,
    /// Live: owns its carrier, processes frames.
    Running,
    /// Quiesced at a frame boundary with state preserved.
    Deactivated,
    /// Processing state released; terminal.
    TornDown,
}

/// A lifecycle call on a [`Waveform`](crate::Waveform).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LifecycleOp {
    /// Allocate and parameterise the processing state.
    Configure,
    /// Take (or re-take) the carrier.
    Run,
    /// Process one frame.
    Step,
    /// Quiesce at a frame boundary, state preserved.
    Deactivate,
    /// Release the processing state.
    Teardown,
}

impl LifecycleState {
    /// The lifecycle table: where `op` leads from `self`, `None` if it is
    /// illegal there. `Waveform`'s guard and the explorer both read it.
    pub fn after(self, op: LifecycleOp) -> Option<LifecycleState> {
        use LifecycleOp as Op;
        use LifecycleState::*;
        match (self, op) {
            (Instantiated, Op::Configure) => Some(Configured),
            (Configured | Deactivated, Op::Run) | (Running, Op::Step) => Some(Running),
            (Running, Op::Deactivate) => Some(Deactivated),
            (Instantiated | Configured | Deactivated, Op::Teardown) => Some(TornDown),
            _ => None,
        }
    }
}

/// A lifecycle or processing fault from a waveform component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaveformError {
    /// A lifecycle method was called from the wrong state.
    BadTransition {
        /// State the component was in.
        from: LifecycleState,
        /// The operation that was attempted.
        op: LifecycleOp,
    },
    /// The descriptor asked for parameters this component cannot build.
    Unbuildable(&'static str),
}

impl std::fmt::Display for WaveformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaveformError::BadTransition { from, op } => {
                write!(f, "illegal lifecycle call {op:?} from {from:?}")
            }
            WaveformError::Unbuildable(why) => write!(f, "descriptor unbuildable: {why}"),
        }
    }
}

impl std::error::Error for WaveformError {}

/// What one frame of a running waveform produced, personality-neutral
/// so the controller, scenarios and benches can compare CDMA and
/// MF-TDMA histories bitwise.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WaveformFrameReport {
    /// The frame tick this report covers.
    pub tick: u64,
    /// Carriers (or users) processed.
    pub carriers: u32,
    /// Carriers whose burst/code was acquired cleanly.
    pub acquired: u32,
    /// Information bits carried across all carriers.
    pub info_bits: u64,
    /// Bit errors against the transmitted ground truth.
    pub bit_errors: u64,
    /// CRC failures after decoding.
    pub crc_failures: u64,
    /// Packets the personality forwarded toward the downlink this frame
    /// (switch egress for MF-TDMA, regenerated bursts for CDMA).
    pub packets_forwarded: u64,
}

impl WaveformFrameReport {
    /// Every carrier acquired, zero errors, zero CRC failures.
    pub fn clean(&self) -> bool {
        self.acquired == self.carriers && self.bit_errors == 0 && self.crc_failures == 0
    }
}
