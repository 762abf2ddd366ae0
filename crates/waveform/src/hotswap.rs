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
//! Service interruption is a measurement here, not a constant: the
//! window length in ticks times the frame period, plus the modelled
//! configure/teardown costs, comes out per swap in
//! [`SwapReport::interruption_ms`].

use crate::adapters::Waveform;
use crate::component::WaveformFrameReport;
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// Where the controller is in a swap. `Committed` and `RolledBack` are
/// idle states whose outcome the swap report records.
enum Swap {
    /// No swap armed or open.
    Idle,
    /// Validated descriptor waiting for the command's quiesce tick.
    Armed {
        cmd: SwapCommand,
        target: WaveformDescriptor,
    },
    /// Carrier quiesced; the incoming personality runs trial frames.
    Window(Window),
}

/// An open swap window.
struct Window {
    cmd: SwapCommand,
    /// The personality on trial, configured and running.
    incoming: Waveform,
    /// Real frame ticks that arrived while the carrier was quiesced.
    buffered: Vec<u64>,
    /// Clean trial frames so far.
    clean_trials: u32,
}

/// The controller. Owns the active personality outright; during a swap
/// window it also owns the incoming one.
pub struct HotSwapController {
    registry: WaveformRegistry,
    active: Waveform,
    swap: Swap,
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
        let (active, _) = registry.bring_up(initial)?;
        Ok(HotSwapController {
            registry,
            active,
            swap: Swap::Idle,
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
        match self.swap {
            Swap::Armed { .. } => SwapPhase::Armed,
            Swap::Window(_) => SwapPhase::Window,
            Swap::Idle if self.report.committed => SwapPhase::Committed,
            Swap::Idle if self.report.rolled_back => SwapPhase::RolledBack,
            Swap::Idle => SwapPhase::Idle,
        }
    }

    /// The last (or in-flight) swap's report.
    pub fn swap_report(&self) -> &SwapReport {
        &self.report
    }

    /// Delivers `cmd`'s wire form over its uplink, validates it against
    /// the registry, and arms the swap for `cmd.at_tick`. The carrier is
    /// live throughout; a refused command leaves no trace on it.
    pub fn command_swap(&mut self, cmd: SwapCommand, seed: u64) -> Result<(), SwapError> {
        if !matches!(self.swap, Swap::Idle) {
            return Err(SwapError::Busy);
        }
        let uplink = cmd.uplink.upload(&cmd.wire, seed);
        if !uplink.verified {
            return Err(SwapError::Delivery(Box::new(uplink)));
        }
        // Validate all the way to an instantiated component, then drop
        // it: the real bring-up happens at the armed boundary so a
        // long-armed swap cannot hold duplicate processing state.
        let target = self
            .registry
            .load_wire(&cmd.wire)
            .map_err(SwapError::Rejected)?
            .descriptor()
            .clone();
        self.report = SwapReport {
            from: self.active.descriptor().name.clone(),
            to: target.name.clone(),
            uplink,
            armed_at: cmd.at_tick,
            ..SwapReport::default()
        };
        self.swap = Swap::Armed { cmd, target };
        Ok(())
    }

    /// Advances one frame tick. `fault` is the FDIR signal for this
    /// tick; it only matters inside the swap window, where it triggers
    /// rollback. Outside a window the active personality simply runs the
    /// frame.
    pub fn step(&mut self, seed: u64, tick: u64, fault: bool) -> StepOutcome {
        let mut w = match std::mem::replace(&mut self.swap, Swap::Idle) {
            Swap::Armed { cmd, target } if tick >= cmd.at_tick => self.open_window(cmd, &target),
            Swap::Window(w) => w,
            idle_or_armed => {
                self.swap = idle_or_armed;
                let report = self.run_tick(seed, tick);
                return StepOutcome {
                    reports: vec![report],
                    phase: self.phase(),
                };
            }
        };

        // Inside the window: the carrier is quiesced, this tick buffers.
        w.buffered.push(tick);
        self.report.window_ticks += 1;
        self.report.frames_in_flight = self.report.frames_in_flight.max(w.buffered.len() as u32);

        let reports = if fault {
            self.rollback(w, seed)
        } else {
            // One trial frame per tick on the incoming personality, from
            // the salted seed stream.
            let trial_idx = self.report.trials as usize;
            let trial = w
                .incoming
                .step(frame_seed(seed ^ TRIAL_SALT, trial_idx), tick)
                .expect("incoming runs trials");
            self.report.trials += 1;
            if trial.clean() {
                w.clean_trials += 1;
            } else {
                self.report.trial_failures += 1;
            }
            if w.clean_trials >= w.cmd.confidence_frames {
                self.commit(w, seed)
            } else if self.report.window_ticks >= w.cmd.abort_after as u64 {
                self.rollback(w, seed)
            } else {
                self.swap = Swap::Window(w);
                Vec::new()
            }
        };
        StepOutcome {
            reports,
            phase: self.phase(),
        }
    }

    /// Quiesce the carrier and bring the incoming personality into its
    /// confidence window.
    fn open_window(&mut self, cmd: SwapCommand, target: &WaveformDescriptor) -> Window {
        self.active.deactivate().expect("active quiesces");
        let (incoming, configure_ns) = self
            .registry
            .bring_up(target)
            .expect("descriptor validated at command time");
        self.report.interruption_ns += configure_ns;
        Window {
            cmd,
            incoming,
            buffered: Vec::new(),
            clean_trials: 0,
        }
    }

    /// Commit: hand over switch residue, tear down the old personality,
    /// replay the buffered backlog through the new one.
    fn commit(&mut self, mut w: Window, seed: u64) -> Vec<WaveformFrameReport> {
        let residue = self.active.drain_ingress();
        self.report.handover_packets = residue.len() as u64;
        let absorbed = w.incoming.absorb_ingress(&residue);
        self.report.handover_dropped = self.report.handover_packets - absorbed;
        let teardown_ns = self.active.teardown().expect("deactivated old tears down");
        self.report.interruption_ns += teardown_ns;
        self.active = w.incoming;
        self.close_window(true, w.buffered, seed)
    }

    /// Rollback: tear down the incoming personality, re-run the old one,
    /// replay the buffered backlog through it.
    fn rollback(&mut self, mut w: Window, seed: u64) -> Vec<WaveformFrameReport> {
        w.incoming.deactivate().ok();
        let teardown_ns = w.incoming.teardown().expect("incoming tears down");
        self.report.interruption_ns += teardown_ns;
        self.active.run().expect("old personality re-runs");
        self.close_window(false, w.buffered, seed)
    }

    /// Records the swap's outcome and replays the buffered `backlog`, in
    /// tick order, through whichever personality now owns the carrier.
    fn close_window(
        &mut self,
        committed: bool,
        backlog: Vec<u64>,
        seed: u64,
    ) -> Vec<WaveformFrameReport> {
        let frame_ns = self.active.descriptor().frame_ns;
        self.report.interruption_ns += self.report.window_ticks * frame_ns;
        self.report.committed = committed;
        self.report.rolled_back = !committed;
        self.report.replayed_frames = backlog.len() as u32;
        backlog
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
