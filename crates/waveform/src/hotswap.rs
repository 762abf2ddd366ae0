//! The hot-swap controller: exchanging waveform personalities on a live
//! carrier, with buffered-ingress replay and fault-triggered rollback.
//!
//! A swap is commanded, not performed: [`HotSwapController::command_swap`]
//! delivers the descriptor over the lossy N3/TFTP uplink and validates
//! it *while the old personality keeps the carrier*. Only at the armed
//! frame boundary does the controller quiesce: the old waveform is
//! deactivated (state preserved — it is the rollback target), the new
//! one is configured and put through a confidence window of trial
//! frames, and every real frame tick that arrives meanwhile is buffered.
//! On commit the buffered ticks are replayed through the new
//! personality, in order, plus the old switch's undrained ingress; on a
//! mid-swap fault (or a confidence window that never closes) the new
//! instance is torn down, the old one re-runs, and the *same* buffered
//! ticks are replayed through it — which, because every frame is a pure
//! function of `(seed, tick)`, lands the history bitwise on the
//! never-swapped run.
//!
//! Every swap rule is one pure function, [`decide`], over a light
//! [`SwapState`], and the lifecycle calls of each [`SwapAction`] are one
//! table, [`SwapAction::lifecycle`]; the controller does the signal work.
//!
//! Service interruption is a measurement here, not a constant: the
//! window length in ticks times the frame period, plus the modelled
//! configure/teardown costs, comes out per swap in
//! [`SwapReport::interruption_ms`].

use crate::adapters::Waveform;
use crate::component::{LifecycleOp, WaveformFrameReport};
use crate::descriptor::WaveformDescriptor;
use crate::registry::{LoadError, WaveformRegistry};
use gsp_fdir::recovery::{ReconfigUplink, UplinkOutcome};
use gsp_payload::pipeline::frame_seed;

/// A commanded personality exchange.
#[derive(Clone, Debug)]
pub struct SwapCommand {
    /// The descriptor wire form to deliver and load.
    pub wire: Vec<u8>,
    /// Frame boundary at which to quiesce the carrier.
    pub at_tick: u64,
    /// Clean trial frames the incoming personality must produce before
    /// the swap commits.
    pub confidence_frames: u32,
    /// Window ticks after which a swap that has not committed is
    /// abandoned and rolled back (bounds the service interruption).
    pub abort_after: u32,
    /// The uplink the wire form crosses.
    pub uplink: ReconfigUplink,
}

impl SwapCommand {
    /// A swap of `target` at `at_tick` over a clean uplink with the
    /// default confidence window (3 clean trials, abort after 32).
    pub fn new(target: &WaveformDescriptor, at_tick: u64) -> Self {
        SwapCommand {
            wire: target.to_wire(),
            at_tick,
            confidence_frames: 3,
            abort_after: 32,
            uplink: ReconfigUplink::clean(),
        }
    }
}

/// Where the controller is in a swap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SwapPhase {
    /// No swap commanded.
    #[default]
    Idle,
    /// Descriptor delivered and validated; waiting for the armed tick.
    Armed,
    /// Carrier quiesced; incoming personality in its confidence window.
    Window,
    /// Swap committed; the new personality owns the carrier.
    Committed,
    /// Swap abandoned; the old personality owns the carrier again.
    RolledBack,
}

/// Why a swap command was refused outright (the carrier is untouched).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwapError {
    /// The uplink never delivered a verified wire form (boxed: the
    /// outcome carries per-pass resume forensics and is large).
    Delivery(Box<UplinkOutcome>),
    /// The wire form delivered but the registry refused it.
    Rejected(LoadError),
    /// A swap is already in flight.
    Busy,
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::Delivery(o) => {
                write!(f, "descriptor upload failed after {} sessions", o.sessions)
            }
            SwapError::Rejected(e) => write!(f, "descriptor refused: {e}"),
            SwapError::Busy => write!(f, "swap already in flight"),
        }
    }
}

impl std::error::Error for SwapError {}

/// Everything one swap did, for the bench and the scenario report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwapReport {
    /// Name of the personality that held the carrier before the swap.
    pub from: String,
    /// Name of the personality the command asked for.
    pub to: String,
    /// What the descriptor delivery cost on the uplink.
    pub uplink: UplinkOutcome,
    /// The commanded quiesce tick.
    pub armed_at: u64,
    /// Ticks the carrier spent quiesced (the swap window).
    pub window_ticks: u64,
    /// Trial frames the incoming personality ran.
    pub trials: u32,
    /// Trial frames that were not clean.
    pub trial_failures: u32,
    /// Peak frames buffered while the carrier was quiesced.
    pub frames_in_flight: u32,
    /// Buffered frames replayed after commit or rollback.
    pub replayed_frames: u32,
    /// Switch-residue packets handed from the old personality to the new.
    pub handover_packets: u64,
    /// Handover packets the incoming personality refused (counted as
    /// drops by the caller).
    pub handover_dropped: u64,
    /// Modelled service interruption: window ticks × frame period, plus
    /// the incoming configure and outgoing teardown costs.
    pub interruption_ns: u64,
    /// The new personality owns the carrier.
    pub committed: bool,
    /// The old personality owns the carrier again.
    pub rolled_back: bool,
}

impl SwapReport {
    /// Service interruption in milliseconds.
    pub fn interruption_ms(&self) -> f64 {
        self.interruption_ns as f64 / 1e6
    }
}

/// What one controller step produced: zero reports while the carrier is
/// quiesced, one in steady state, and the whole replayed backlog on the
/// tick a swap commits or rolls back.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// Frame reports retired this step, in tick order.
    pub reports: Vec<WaveformFrameReport>,
    /// Controller phase after the step.
    pub phase: SwapPhase,
}

/// Trial frames draw from a salted seed stream so they can never collide
/// with (and never perturb) the real tick seeds.
const TRIAL_SALT: u64 = 0x7121_A15A_17ED_5EED;

/// Where a swap is, as [`decide`] sees it. Arming loads the command's
/// confidence window into the counts; the window spends them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SwapState {
    /// The phase. `Idle`, `Committed` and `RolledBack` are all idle.
    pub phase: SwapPhase,
    /// The commanded quiesce tick (read while `Armed`).
    pub at: u64,
    /// Clean trial frames still needed to commit.
    pub trials_left: u32,
    /// Window ticks left before the swap rolls back.
    pub ticks_left: u32,
}

impl SwapState {
    /// The state after accepting `cmd`; `None` while a swap is in flight.
    pub fn arm(self, cmd: &SwapCommand) -> Option<SwapState> {
        let idle = !matches!(self.phase, SwapPhase::Armed | SwapPhase::Window);
        idle.then_some(SwapState {
            phase: SwapPhase::Armed,
            at: cmd.at_tick,
            trials_left: cmd.confidence_frames,
            ticks_left: cmd.abort_after,
        })
    }
}

/// What [`decide`] tells the controller to do. After `OpenWindow` or
/// `Trial` it decides the same tick again; the others consume the tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SwapAction {
    /// The active personality serves the tick.
    Run,
    /// Quiesce the active personality and bring the incoming one up.
    OpenWindow,
    /// Run a trial frame on the incoming personality.
    Trial,
    /// Buffer the tick behind the quiesced carrier.
    Buffer,
    /// Buffer the tick; the incoming personality takes the carrier.
    Commit,
    /// Buffer the tick; the old personality re-takes the carrier.
    Rollback,
}

impl SwapAction {
    /// The lifecycle calls the action makes on the active and on the
    /// incoming personality, in order. The incoming one is instantiated
    /// when the command is accepted, becomes the active one after
    /// `Commit`'s calls and is dropped after `Rollback`'s.
    pub fn lifecycle(self) -> (&'static [LifecycleOp], &'static [LifecycleOp]) {
        use LifecycleOp::*;
        match self {
            SwapAction::OpenWindow => (&[Deactivate], &[Configure, Run]),
            SwapAction::Commit => (&[Teardown], &[]),
            SwapAction::Rollback => (&[Run], &[Deactivate, Teardown]),
            _ => (&[], &[]),
        }
    }
}

/// The swap controller's whole decision for frame `tick`. `fault` (the
/// FDIR signal) rolls an open window back; `trial_clean` is this tick's
/// trial outcome, `None` until one has run. Pure:
/// [`HotSwapController::step`] and `tests/tests/control_plane.rs` call it.
pub fn decide(
    st: SwapState,
    tick: u64,
    fault: bool,
    trial_clean: Option<bool>,
) -> (SwapState, SwapAction) {
    use SwapAction::*;
    use SwapPhase::*;
    let mut next = st;
    let action = match (st.phase, trial_clean) {
        (Armed, _) if tick >= st.at => OpenWindow,
        (Window, _) if fault => Rollback,
        (Window, None) => Trial,
        (Window, Some(clean)) => {
            next.trials_left = st.trials_left.saturating_sub(u32::from(clean));
            next.ticks_left = st.ticks_left.saturating_sub(1);
            match (next.trials_left, next.ticks_left) {
                (0, _) => Commit,
                (_, 0) => Rollback,
                _ => Buffer,
            }
        }
        _ => Run,
    };
    next.phase = match action {
        OpenWindow => Window,
        Commit => Committed,
        Rollback => RolledBack,
        _ => st.phase,
    };
    (next, action)
}

/// The controller. Owns the active personality outright, and the
/// incoming one from an accepted command until the window closes.
pub struct HotSwapController {
    registry: WaveformRegistry,
    active: Waveform,
    state: SwapState,
    /// The commanded personality (on trial while the window is open).
    incoming: Option<Waveform>,
    /// Real frame ticks that arrived while the carrier was quiesced.
    buffered: Vec<u64>,
    report: SwapReport,
}

impl HotSwapController {
    /// Boots the controller with `initial` loaded from `registry`,
    /// configured and running (the satellite launches with a
    /// personality, it does not swap into its first one).
    pub fn new(
        registry: WaveformRegistry,
        initial: &WaveformDescriptor,
    ) -> Result<Self, LoadError> {
        let active = registry.bring_up(initial)?;
        Ok(HotSwapController {
            registry,
            active,
            state: SwapState::default(),
            incoming: None,
            buffered: Vec::new(),
            report: SwapReport::default(),
        })
    }

    /// Name of the personality currently holding (or, mid-window, about
    /// to re-take) the carrier.
    pub fn active_name(&self) -> &str {
        &self.active.descriptor().name
    }

    /// Controller phase.
    pub fn phase(&self) -> SwapPhase {
        self.state.phase
    }

    /// The last (or in-flight) swap's report.
    pub fn swap_report(&self) -> &SwapReport {
        &self.report
    }

    /// Delivers `cmd`'s wire form over its uplink, validates it against
    /// the registry, and arms the swap for `cmd.at_tick`. The carrier is
    /// live throughout; a refused command leaves no trace on it.
    pub fn command_swap(&mut self, cmd: SwapCommand, seed: u64) -> Result<(), SwapError> {
        let armed = self.state.arm(&cmd).ok_or(SwapError::Busy)?;
        let uplink = cmd.uplink.upload(&cmd.wire, seed);
        if !uplink.verified {
            return Err(SwapError::Delivery(Box::new(uplink)));
        }
        // Validate all the way to an instantiated component; it holds no
        // processing state until the armed boundary configures it, so a
        // long-armed swap cannot hold duplicate processing state.
        let incoming = self
            .registry
            .load_wire(&cmd.wire)
            .map_err(SwapError::Rejected)?;
        self.report = SwapReport {
            from: self.active.descriptor().name.clone(),
            to: incoming.descriptor().name.clone(),
            uplink,
            armed_at: cmd.at_tick,
            ..SwapReport::default()
        };
        self.state = armed;
        self.incoming = Some(incoming);
        Ok(())
    }

    /// Advances one frame tick, doing what [`decide`] says. `fault` is
    /// the FDIR signal for this tick; it only matters inside the swap
    /// window, where it triggers rollback. Outside a window the active
    /// personality simply runs the frame.
    pub fn step(&mut self, seed: u64, tick: u64, fault: bool) -> StepOutcome {
        let mut trial_clean = None;
        let action = loop {
            let (state, action) = decide(self.state, tick, fault, trial_clean);
            self.state = state;
            match action {
                SwapAction::OpenWindow => self.lifecycle(action),
                SwapAction::Trial => trial_clean = Some(self.trial(seed, tick)),
                action => break action,
            }
        };
        let reports = if action == SwapAction::Run {
            vec![self.run_tick(seed, tick)]
        } else {
            // Inside the window the carrier is quiesced: the tick buffers.
            self.buffered.push(tick);
            self.report.window_ticks += 1;
            self.report.frames_in_flight =
                self.report.frames_in_flight.max(self.buffered.len() as u32);
            match action {
                SwapAction::Buffer => Vec::new(),
                _ => self.close_window(action, seed),
            }
        };
        StepOutcome {
            reports,
            phase: self.phase(),
        }
    }

    /// Makes `action`'s lifecycle calls, charging their modelled cost.
    fn lifecycle(&mut self, action: SwapAction) {
        let (on_active, on_incoming) = action.lifecycle();
        let incoming = self.incoming.as_mut().expect("a swap holds its incoming");
        for (wf, ops) in [(&mut self.active, on_active), (incoming, on_incoming)] {
            for &op in ops {
                let cost = wf
                    .apply(op)
                    .expect("the lifecycle table allows every swap call");
                self.report.interruption_ns = self.report.interruption_ns.saturating_add(cost);
            }
        }
    }

    /// Whether one trial frame (salted seed stream) ran clean.
    fn trial(&mut self, seed: u64, tick: u64) -> bool {
        let incoming = self.incoming.as_mut().expect("a swap holds its incoming");
        let trial_seed = frame_seed(seed ^ TRIAL_SALT, self.report.trials as usize);
        let clean = incoming
            .step(trial_seed, tick)
            .expect("incoming runs trials")
            .clean();
        self.report.trials += 1;
        self.report.trial_failures += u32::from(!clean);
        clean
    }

    /// Commit (hand over switch residue, tear down the old personality)
    /// or roll back (tear down the incoming one, re-run the old), record
    /// the outcome, and replay the buffered backlog, in tick order,
    /// through whichever personality now owns the carrier.
    fn close_window(&mut self, action: SwapAction, seed: u64) -> Vec<WaveformFrameReport> {
        let committed = action == SwapAction::Commit;
        if committed {
            let residue = self.active.drain_ingress();
            let incoming = self.incoming.as_mut().expect("a swap holds its incoming");
            self.report.handover_packets = residue.len() as u64;
            self.report.handover_dropped = residue.len() as u64 - incoming.absorb_ingress(&residue);
        }
        self.lifecycle(action);
        let incoming = self.incoming.take().expect("a swap holds its incoming");
        if committed {
            self.active = incoming;
        }
        let window_ns = self
            .report
            .window_ticks
            .saturating_mul(self.active.descriptor().frame_ns);
        self.report.interruption_ns = self.report.interruption_ns.saturating_add(window_ns);
        self.report.committed = committed;
        self.report.rolled_back = !committed;
        self.report.replayed_frames = self.buffered.len() as u32;
        std::mem::take(&mut self.buffered)
            .into_iter()
            .map(|tick| self.run_tick(seed, tick))
            .collect()
    }

    fn run_tick(&mut self, seed: u64, tick: u64) -> WaveformFrameReport {
        self.active
            .step(frame_seed(seed, tick as usize), tick)
            .expect("active personality runs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 20030422;

    fn controller(initial: &WaveformDescriptor) -> HotSwapController {
        HotSwapController::new(WaveformRegistry::builtin(), initial).unwrap()
    }

    fn drive(
        ctl: &mut HotSwapController,
        ticks: u64,
        fault_at: Option<u64>,
    ) -> Vec<WaveformFrameReport> {
        let mut all = Vec::new();
        for tick in 0..ticks {
            let fault = fault_at == Some(tick);
            all.extend(ctl.step(SEED, tick, fault).reports);
        }
        all
    }

    #[test]
    fn live_swap_commits_and_replays_every_buffered_tick() {
        let mut ctl = controller(&WaveformDescriptor::sumts_cdma());
        ctl.command_swap(SwapCommand::new(&WaveformDescriptor::mf_tdma(), 8), SEED)
            .unwrap();
        let reports = drive(&mut ctl, 24, None);
        assert_eq!(ctl.phase(), SwapPhase::Committed);
        assert_eq!(ctl.active_name(), "mf-tdma");
        let r = ctl.swap_report();
        assert!(r.committed && !r.rolled_back);
        assert!(r.window_ticks >= 3, "confidence window ran: {r:?}");
        assert_eq!(r.replayed_frames as u64, r.window_ticks);
        assert!(r.interruption_ns > 0);
        // Every tick 0..24 retired exactly once, in order.
        let ticks: Vec<u64> = reports.iter().map(|f| f.tick).collect();
        assert_eq!(ticks, (0..24).collect::<Vec<u64>>());
    }

    #[test]
    fn fault_mid_swap_rolls_back_bitwise_to_the_never_swapped_history() {
        for fault_tick in 8..14 {
            let mut swapped = controller(&WaveformDescriptor::mf_tdma());
            // A 6-frame confidence window keeps every scripted fault
            // tick inside the swap window.
            let cmd = SwapCommand {
                confidence_frames: 6,
                ..SwapCommand::new(&WaveformDescriptor::sumts_cdma(), 8)
            };
            swapped.command_swap(cmd, SEED).unwrap();
            let with_fault = drive(&mut swapped, 20, Some(fault_tick));
            assert_eq!(
                swapped.phase(),
                SwapPhase::RolledBack,
                "fault at {fault_tick}"
            );
            assert_eq!(swapped.active_name(), "mf-tdma");

            let mut plain = controller(&WaveformDescriptor::mf_tdma());
            let baseline = drive(&mut plain, 20, None);
            assert_eq!(
                with_fault, baseline,
                "rollback at {fault_tick} must land on the never-swapped history"
            );
        }
    }

    #[test]
    fn double_runs_are_bitwise_identical() {
        let run = || {
            let mut ctl = controller(&WaveformDescriptor::sumts_cdma());
            ctl.command_swap(SwapCommand::new(&WaveformDescriptor::mf_tdma(), 5), SEED)
                .unwrap();
            let reports = drive(&mut ctl, 16, None);
            (reports, ctl.swap_report().clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn undeliverable_descriptor_leaves_the_carrier_alone() {
        let mut ctl = controller(&WaveformDescriptor::sumts_cdma());
        let black_hole = ReconfigUplink {
            link: gsp_netproto::LinkConfig {
                loss_prob: 1.0,
                ..gsp_netproto::LinkConfig::clean_fast()
            },
            backoff: gsp_netproto::BackoffPolicy::for_link(&gsp_netproto::LinkConfig::clean_fast()),
            max_sessions: 2,
            session_deadline_ns: 1_000_000_000,
            contacts: None,
            resume_expiry_ns: 0,
        };
        let cmd = SwapCommand {
            uplink: black_hole,
            ..SwapCommand::new(&WaveformDescriptor::mf_tdma(), 4)
        };
        assert!(matches!(
            ctl.command_swap(cmd, SEED),
            Err(SwapError::Delivery(_))
        ));
        assert_eq!(ctl.phase(), SwapPhase::Idle);
        let reports = drive(&mut ctl, 8, None);
        assert_eq!(reports.len(), 8, "carrier never quiesced");
    }

    #[test]
    fn corrupt_wire_is_rejected_before_the_carrier_is_touched() {
        let mut ctl = controller(&WaveformDescriptor::sumts_cdma());
        let mut cmd = SwapCommand::new(&WaveformDescriptor::mf_tdma(), 4);
        let last = cmd.wire.len() - 1;
        cmd.wire[last] ^= 0x01;
        assert!(matches!(
            ctl.command_swap(cmd, SEED),
            Err(SwapError::Rejected(_))
        ));
        assert_eq!(ctl.phase(), SwapPhase::Idle);
    }

    #[test]
    fn an_overlong_frame_period_is_refused_before_it_can_overflow_the_report() {
        let target = WaveformDescriptor {
            frame_ns: u64::MAX,
            ..WaveformDescriptor::mf_tdma()
        };
        assert_eq!(
            WaveformRegistry::builtin()
                .load_wire(&target.to_wire())
                .map(|_| ()),
            Err(LoadError::Descriptor(
                crate::descriptor::DescriptorError::BadParameter("frame_ns")
            ))
        );
        let mut ctl = controller(&WaveformDescriptor::sumts_cdma());
        assert!(matches!(
            ctl.command_swap(SwapCommand::new(&target, 2), SEED),
            Err(SwapError::Rejected(_))
        ));
        assert_eq!(ctl.phase(), SwapPhase::Idle);
        assert_eq!(drive(&mut ctl, 8, None).len(), 8, "carrier never quiesced");
    }

    #[test]
    fn a_second_command_mid_swap_is_refused() {
        let mut ctl = controller(&WaveformDescriptor::sumts_cdma());
        ctl.command_swap(SwapCommand::new(&WaveformDescriptor::mf_tdma(), 4), SEED)
            .unwrap();
        assert_eq!(
            ctl.command_swap(SwapCommand::new(&WaveformDescriptor::mf_tdma(), 9), SEED),
            Err(SwapError::Busy)
        );
    }
}
