//! The per-equipment FDIR state machine and its recovery ladder.
//!
//! Detection inputs arrive each tick as a [`DetectorReadout`] per
//! equipment — watchdog heartbeat misses, CRC-failure-rate tripwires,
//! read-back/function checks, EDAC correction storms, grant-table
//! trips. The [`Supervisor`] folds them into one health state per
//! equipment:
//!
//! ```text
//!            dirty           confirmed            rung issued
//! Healthy ─────────▶ Suspect ─────────▶ Quarantined ─────────▶ Recovering
//!    ▲                  │ clean                                    │
//!    │                  ▼                          clean streak    │
//!    └──────────────────┴──────────────────────────────◀───────────┘
//!                                                  dirty after rung ⇒ escalate
//!                                     ladder exhausted ⇒ PermanentlyQuarantined
//! ```
//!
//! The ladder escalates `Scrub → Reset → Reconfigure`; a full pass that
//! still leaves the equipment dirty restarts the ladder at most
//! [`SupervisorConfig::max_ladder_restarts`] times before the equipment
//! is written off. [`RecoveryMode`] caps the ladder: `NoRecovery`
//! quarantines forever (the control run), `ScrubOnly` never escalates
//! past rung 0, `FullLadder` uses all three rungs.
//!
//! Every rule above lives in one pure function, [`decide`].
//! [`Supervisor::step`] calls it per equipment and derives detections,
//! MTTR, escalations and availability from what it returns.

/// Health of one equipment, as the supervisor sees it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Health {
    /// Nominal service.
    #[default]
    Healthy,
    /// A tripwire fired; awaiting confirmation over consecutive ticks.
    Suspect,
    /// Fault confirmed: the equipment is isolated (its beam outaged).
    Quarantined,
    /// A recovery rung has been issued; waiting for it to take and for
    /// the detectors to run clean.
    Recovering,
    /// The ladder was exhausted without a clean bill: permanent loss.
    PermanentlyQuarantined,
}

impl Health {
    /// Whether the equipment is out of service: confirmed faulty, under
    /// recovery, or written off.
    pub fn is_isolated(self) -> bool {
        matches!(
            self,
            Health::Quarantined | Health::Recovering | Health::PermanentlyQuarantined
        )
    }
}

/// One tick's detector outputs for one equipment — every input the
/// supervisor consults, nothing else.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetectorReadout {
    /// The lane's watchdog deadline lapsed (heartbeat did not advance).
    pub heartbeat_missed: bool,
    /// The lane's CRC failure rate tripped its threshold.
    pub crc_rate_trip: bool,
    /// Read-back found corrupted configuration frames, or the
    /// implemented function failed its check.
    pub function_broken: bool,
    /// EDAC corrections on the equipment's queue memory this tick.
    pub edac_trip: bool,
    /// The scheduler's grant-table validity check discarded a plan.
    pub grant_trip: bool,
}

impl DetectorReadout {
    /// Whether any tripwire fired.
    pub fn any(&self) -> bool {
        self.heartbeat_missed
            || self.crc_rate_trip
            || self.function_broken
            || self.edac_trip
            || self.grant_trip
    }
}

/// A recovery action the supervisor orders the harness to execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Rung 0: one full scrub pass from the golden bitstream.
    Scrub {
        /// Target equipment.
        equipment: usize,
    },
    /// Rung 1: reset the equipment's mutable state (lane flags, grant
    /// table) without touching configuration.
    Reset {
        /// Target equipment.
        equipment: usize,
    },
    /// Rung 2: full golden-bitstream partial reconfiguration, fetched
    /// over the uplink.
    Reconfigure {
        /// Target equipment.
        equipment: usize,
    },
}

/// How far up the ladder the supervisor may climb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Detection only: confirmed faults quarantine the equipment
    /// forever (the unmitigated control run).
    NoRecovery,
    /// Only rung 0 (scrubbing) is available.
    ScrubOnly,
    /// The whole `Scrub → Reset → Reconfigure` ladder.
    FullLadder,
}

/// Consecutive dirty ticks before a suspect is confirmed.
const CONFIRM_TICKS: u64 = 2;
/// Ticks a scrub pass occupies the equipment.
const SCRUB_BUSY_TICKS: u64 = 2;
/// Ticks a state reset occupies the equipment.
const RESET_BUSY_TICKS: u64 = 3;
/// Consecutive clean ticks (after the rung completes) to declare the
/// equipment healthy again.
const CLEAN_TICKS_TO_HEAL: u64 = 2;

/// Supervisor escalation policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SupervisorConfig {
    /// Ladder reach.
    pub mode: RecoveryMode,
    /// Full ladder passes allowed beyond the first before the
    /// equipment is permanently quarantined.
    pub max_ladder_restarts: u32,
}

impl SupervisorConfig {
    /// Flight-like defaults for `mode`.
    pub fn standard(mode: RecoveryMode) -> Self {
        SupervisorConfig {
            mode,
            max_ladder_restarts: 1,
        }
    }

    /// The declared recovery bound: the most ticks a `Recovering`
    /// equipment with clean readouts takes to heal — the longest rung's
    /// busy window plus `uplink_ticks`, the largest extension
    /// ([`Supervisor::extend_busy`]), plus the clean streak.
    pub fn recovery_bound_ticks(&self, uplink_ticks: u64) -> u64 {
        SCRUB_BUSY_TICKS.max(RESET_BUSY_TICKS) + uplink_ticks + CLEAN_TICKS_TO_HEAL
    }
}

/// A recorded health transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transition {
    /// Frame tick of the transition.
    pub tick: u64,
    /// Equipment index.
    pub equipment: usize,
    /// State left.
    pub from: Health,
    /// State entered.
    pub to: Health,
}

/// What one supervision tick decided.
#[derive(Clone, Debug, Default)]
pub struct StepOutcome {
    /// Recovery actions to execute *this tick*.
    pub actions: Vec<RecoveryAction>,
    /// Health transitions taken this tick, in equipment order.
    pub transitions: Vec<Transition>,
}

/// One equipment's supervision state: its health plus the counters and
/// deadlines [`decide`] reads. Times are absolute frame ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct EquipmentState {
    /// Current health.
    pub health: Health,
    /// Consecutive dirty ticks while `Suspect`.
    pub dirty_streak: u64,
    /// Tick the fault was first seen (the MTTR epoch; no rule reads it).
    pub detect_tick: u64,
    /// The recovery rung in progress completes at this tick.
    pub busy_until: u64,
    /// Consecutive clean ticks after the rung completed.
    pub clean_streak: u64,
    /// Next ladder rung to issue (0 scrub, 1 reset, 2 reconfigure).
    pub rung: u8,
    /// Ladder restarts consumed.
    pub restarts: u32,
}

/// The supervisor's whole transition rule for one equipment at `tick`:
/// the state after this tick's readout (`dirty` = any tripwire fired)
/// and the rung to issue, if any (0 scrub, 1 reset, 2 reconfigure, as
/// indexed in [`Supervisor::escalations`]). Pure: [`Supervisor::step`]
/// and the explorer in `tests/tests/control_plane.rs` both call it.
pub fn decide(
    cfg: &SupervisorConfig,
    st: &EquipmentState,
    dirty: bool,
    tick: u64,
) -> (EquipmentState, Option<usize>) {
    use Health::*;
    let mut next = *st;
    match st.health {
        Healthy if dirty => {
            next.health = Suspect;
            next.detect_tick = tick;
            next.dirty_streak = 1;
        }
        // Transient: stand down.
        Suspect if !dirty => next.health = Healthy,
        Suspect => {
            next.dirty_streak += 1;
            if next.dirty_streak >= CONFIRM_TICKS {
                (next.health, next.rung, next.restarts) = (Quarantined, 0, 0);
            }
        }
        // Under NoRecovery a quarantine is forever.
        Quarantined if cfg.mode != RecoveryMode::NoRecovery => {
            next.health = Recovering;
            return issue_rung(cfg, next, tick);
        }
        // A rung in progress masks the readouts.
        Recovering if tick < st.busy_until => {}
        Recovering if !dirty => {
            next.clean_streak += 1;
            if next.clean_streak >= CLEAN_TICKS_TO_HEAL {
                next.health = Healthy;
            }
        }
        // The rung did not take: escalate, restart the ladder, or write
        // the equipment off. Under ScrubOnly every rung is the last.
        Recovering => {
            next.clean_streak = 0;
            let exhausted = cfg.mode == RecoveryMode::ScrubOnly || st.rung >= 2;
            if exhausted && st.restarts >= cfg.max_ladder_restarts {
                next.health = PermanentlyQuarantined;
            } else {
                if exhausted {
                    (next.restarts, next.rung) = (st.restarts + 1, 0);
                } else {
                    next.rung += 1;
                }
                return issue_rung(cfg, next, tick);
            }
        }
        _ => {}
    }
    (next, None)
}

/// Issues `next`'s ladder rung at `tick`, busy for the rung's window.
fn issue_rung(
    cfg: &SupervisorConfig,
    mut next: EquipmentState,
    tick: u64,
) -> (EquipmentState, Option<usize>) {
    let rung = match cfg.mode {
        RecoveryMode::ScrubOnly => 0,
        _ => usize::from(next.rung.min(2)),
    };
    // A reconfigure's uplink transfer dominates its window; the harness
    // extends it once it knows the simulated transfer time.
    let busy = if rung == 0 {
        SCRUB_BUSY_TICKS
    } else {
        RESET_BUSY_TICKS
    };
    next.busy_until = tick + busy;
    next.clean_streak = 0;
    (next, Some(rung))
}

/// The FDIR supervisor: one state machine per equipment plus the
/// accumulated detection/recovery statistics a soak reports.
#[derive(Clone, Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    eq: Vec<EquipmentState>,
    ticks: u64,
    detections: u64,
    transitions: u64,
    mttr_ticks: Vec<u64>,
    unavailable_ticks: u64,
    /// Actions issued per rung index.
    escalations: [u64; 3],
}

impl Supervisor {
    /// Supervisor over `n_equipment` equipments.
    pub fn new(n_equipment: usize, cfg: SupervisorConfig) -> Self {
        Supervisor {
            cfg,
            eq: vec![EquipmentState::default(); n_equipment],
            ticks: 0,
            detections: 0,
            transitions: 0,
            mttr_ticks: Vec::new(),
            unavailable_ticks: 0,
            escalations: [0; 3],
        }
    }

    /// Current health of `equipment`.
    pub fn health(&self, equipment: usize) -> Health {
        self.eq[equipment].health
    }

    /// Confirmed fault detections so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Health transitions taken so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Completed recoveries' detection-to-healthy times, in ticks.
    pub fn mttr_ticks(&self) -> &[u64] {
        &self.mttr_ticks
    }

    /// Actions issued per ladder rung (scrub, reset, reconfigure).
    pub fn escalations(&self) -> [u64; 3] {
        self.escalations
    }

    /// Equipments currently written off.
    pub fn permanently_quarantined(&self) -> usize {
        self.eq
            .iter()
            .filter(|e| e.health == Health::PermanentlyQuarantined)
            .count()
    }

    /// Whether every equipment is currently Healthy.
    pub fn all_healthy(&self) -> bool {
        self.eq.iter().all(|e| e.health == Health::Healthy)
    }

    /// Fraction of equipment-ticks spent in nominal service (`Healthy`).
    pub fn availability(&self) -> f64 {
        let total = self.ticks * self.eq.len() as u64;
        if total == 0 {
            1.0
        } else {
            1.0 - self.unavailable_ticks as f64 / total as f64
        }
    }

    /// Extends the busy window of a recovering equipment — called by the
    /// harness after a [`RecoveryAction::Reconfigure`] whose uplink
    /// transfer consumed real (simulated) time.
    pub fn extend_busy(&mut self, equipment: usize, extra_ticks: u64) {
        self.eq[equipment].busy_until += extra_ticks;
    }

    /// Advances every state machine one tick through [`decide`].
    /// `readouts` must hold one [`DetectorReadout`] per equipment,
    /// reflecting the *previous* frame's symptoms. Returned actions must
    /// be executed this tick, before the payload frame runs.
    pub fn step(&mut self, tick: u64, readouts: &[DetectorReadout]) -> StepOutcome {
        assert_eq!(readouts.len(), self.eq.len(), "one readout per equipment");
        let mut out = StepOutcome::default();
        self.ticks += 1;
        for (equipment, (st, readout)) in self.eq.iter_mut().zip(readouts).enumerate() {
            let (next, rung) = decide(&self.cfg, st, readout.any(), tick);
            let (from, to) = (st.health, next.health);
            if from != to {
                out.transitions.push(Transition {
                    tick,
                    equipment,
                    from,
                    to,
                });
                self.transitions += 1;
                match to {
                    Health::Quarantined => self.detections += 1,
                    Health::Healthy if from == Health::Recovering => {
                        self.mttr_ticks.push(tick - st.detect_tick);
                    }
                    _ => {}
                }
            }
            if let Some(rung) = rung {
                self.escalations[rung] += 1;
                out.actions.push(match rung {
                    0 => RecoveryAction::Scrub { equipment },
                    1 => RecoveryAction::Reset { equipment },
                    _ => RecoveryAction::Reconfigure { equipment },
                });
            }
            if to != Health::Healthy {
                self.unavailable_ticks += 1;
            }
            *st = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirty() -> DetectorReadout {
        DetectorReadout {
            crc_rate_trip: true,
            ..DetectorReadout::default()
        }
    }

    fn clean() -> DetectorReadout {
        DetectorReadout::default()
    }

    /// Runs one equipment through `script` (true = dirty tick) and
    /// returns every action issued.
    fn drive(sup: &mut Supervisor, script: &[bool]) -> Vec<RecoveryAction> {
        let mut actions = Vec::new();
        for (t, &d) in script.iter().enumerate() {
            let r = if d { dirty() } else { clean() };
            actions.extend(sup.step(t as u64, &[r]).actions);
        }
        actions
    }

    #[test]
    fn transient_suspicion_stands_down_without_actions() {
        let mut sup = Supervisor::new(1, SupervisorConfig::standard(RecoveryMode::FullLadder));
        let actions = drive(&mut sup, &[true, false, false]);
        assert!(actions.is_empty());
        assert_eq!(sup.health(0), Health::Healthy);
        assert_eq!(sup.detections(), 0);
        // One tick of Suspect counted against availability.
        assert!((sup.availability() - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn confirmed_fault_walks_the_full_cycle_and_records_mttr() {
        let mut sup = Supervisor::new(1, SupervisorConfig::standard(RecoveryMode::FullLadder));
        // Dirty for 3 ticks (detect at 0, confirm at 1, quarantine tick
        // 2 issues the scrub), then the scrub takes effect and the
        // detectors run clean.
        let actions = drive(&mut sup, &[true, true, true, false, false, false, false]);
        assert_eq!(actions, vec![RecoveryAction::Scrub { equipment: 0 }]);
        assert_eq!(sup.health(0), Health::Healthy);
        assert_eq!(sup.detections(), 1);
        assert_eq!(sup.escalations(), [1, 0, 0]);
        assert_eq!(sup.mttr_ticks(), &[5], "healed at tick 5, detected at 0");
    }

    #[test]
    fn persistent_fault_escalates_scrub_reset_reconfigure() {
        let mut sup = Supervisor::new(1, SupervisorConfig::standard(RecoveryMode::FullLadder));
        // Dirty forever: the ladder must climb to the top.
        let actions = drive(&mut sup, &[true; 16]);
        assert!(actions.contains(&RecoveryAction::Scrub { equipment: 0 }));
        assert!(actions.contains(&RecoveryAction::Reset { equipment: 0 }));
        assert!(actions.contains(&RecoveryAction::Reconfigure { equipment: 0 }));
        let esc = sup.escalations();
        assert!(esc[0] >= 1 && esc[1] >= 1 && esc[2] >= 1, "{esc:?}");
    }

    #[test]
    fn ladder_exhaustion_permanently_quarantines() {
        let cfg = SupervisorConfig {
            max_ladder_restarts: 0,
            ..SupervisorConfig::standard(RecoveryMode::FullLadder)
        };
        let mut sup = Supervisor::new(1, cfg);
        drive(&mut sup, &[true; 40]);
        assert_eq!(sup.health(0), Health::PermanentlyQuarantined);
        assert_eq!(sup.permanently_quarantined(), 1);
        assert!(sup.mttr_ticks().is_empty(), "it never healed");
        // Once written off, no further actions are issued.
        let n = sup.escalations().iter().sum::<u64>();
        drive(&mut sup, &[true; 10]);
        assert_eq!(sup.escalations().iter().sum::<u64>(), n);
    }

    #[test]
    fn scrub_only_mode_never_escalates_past_rung_zero() {
        let mut sup = Supervisor::new(1, SupervisorConfig::standard(RecoveryMode::ScrubOnly));
        let actions = drive(&mut sup, &[true; 24]);
        assert!(!actions.is_empty());
        assert!(actions
            .iter()
            .all(|a| matches!(a, RecoveryAction::Scrub { .. })));
        let esc = sup.escalations();
        assert_eq!(esc[1] + esc[2], 0, "{esc:?}");
        // A scrub-proof fault eventually writes the equipment off.
        assert_eq!(sup.health(0), Health::PermanentlyQuarantined);
    }

    #[test]
    fn no_recovery_mode_quarantines_forever_without_actions() {
        let mut sup = Supervisor::new(1, SupervisorConfig::standard(RecoveryMode::NoRecovery));
        let actions = drive(&mut sup, &[true, true, false, false, false, false]);
        assert!(actions.is_empty());
        assert_eq!(sup.health(0), Health::Quarantined);
        assert_eq!(sup.detections(), 1);
        // Even after the symptoms clear, nobody recovers the equipment:
        // it stays quarantined and unavailability keeps accruing.
        drive(&mut sup, &[false; 10]);
        assert_eq!(sup.health(0), Health::Quarantined);
        assert!(sup.availability() < 1.0);
    }

    #[test]
    fn extend_busy_defers_the_verdict() {
        let mut sup = Supervisor::new(1, SupervisorConfig::standard(RecoveryMode::FullLadder));
        // Reach Recovering with the scrub issued at tick 2.
        drive(&mut sup, &[true, true, true]);
        assert_eq!(sup.health(0), Health::Recovering);
        sup.extend_busy(0, 50);
        // Clean ticks during the extended busy window must not heal.
        for t in 3..20 {
            sup.step(t, &[clean()]);
        }
        assert_eq!(sup.health(0), Health::Recovering);
    }

    #[test]
    fn independent_equipments_do_not_interfere() {
        let mut sup = Supervisor::new(3, SupervisorConfig::standard(RecoveryMode::FullLadder));
        for t in 0..8 {
            let r1 = if t < 3 { dirty() } else { clean() };
            sup.step(t, &[clean(), r1, clean()]);
        }
        assert_eq!(sup.health(0), Health::Healthy);
        assert_eq!(sup.health(2), Health::Healthy);
        assert_eq!(sup.detections(), 1);
    }
}
