//! Exhaustive state-space check of the composed control plane.
//!
//! The payload's control logic is four small discrete controllers, each
//! of which decides in one pure function: the FDIR supervisor
//! (`gsp_fdir::supervisor::decide`), the hot-swap controller
//! (`gsp_waveform::hotswap::decide`), the waveform lifecycle
//! (`LifecycleState::after`, driven by `SwapAction::lifecycle`) and the
//! upload resume planner (`ReconfigUplink::plan_session`). The soaks only
//! check the transitions they happen to reach; this test reaches every
//! one within a bounded depth, by breadth-first search with deduplicated
//! states, run to its fixpoint, calling the same functions the runtime
//! calls and matching on states only to check invariants:
//!
//! 1. at most one personality is `Running`, and every real tick is served
//!    by a running one;
//! 2. after a rollback, the pre-swap personality is running again;
//! 3. no equipment leaves `PermanentlyQuarantined`;
//! 4. under clean readouts, every `Recovering` equipment reaches `Healthy`
//!    or `PermanentlyQuarantined` within
//!    `SupervisorConfig::recovery_bound_ticks`;
//! 5. an upload resumed after loss of signal completes the image it
//!    started.
//!
//! The harness runs a golden upload to completion in one call and
//! charges its simulated time to the equipment as a busy extension. So
//! the contact plane is explored first, on its own: every AOS/LOS
//! sequence up to depth `SLOTS` through the real uplink, on a clean and
//! on a lossy link (invariant 5).
//! The busy extensions those uploads produce are then the bounded input
//! that a Reconfigure rung draws from in the product of two supervised
//! equipments and the swap controller (invariants 1–4).

use gsp_fdir::recovery::ReconfigUplink;
use gsp_fdir::supervisor::{self, EquipmentState, Health, RecoveryMode, SupervisorConfig};
use gsp_netproto::{BackoffPolicy, ContactSchedule, ContactWindow, LinkConfig};
use gsp_waveform::hotswap::{self, SwapAction, SwapState};
use gsp_waveform::{LifecycleOp, LifecycleState, SwapCommand, SwapPhase, WaveformDescriptor};
use std::collections::HashSet;

/// One contact slot: about one and a half TFTP blocks of lockstep on
/// the clean 10 Mbps lab link.
const SLOT_NS: u64 = 4_000_000;
/// Contact slots explored: every AOS/LOS sequence of this length.
const SLOTS: u32 = 9;
/// The frame-tick exchange rate for upload time (the harness's
/// `UPLINK_NS_PER_TICK`).
const TICK_NS: u64 = 8 * SLOT_NS;
/// Depth cap in frame ticks: the product search must reach its fixpoint
/// (no new state) within it, so every input sequence of any length is
/// covered.
const DEPTH_CAP: usize = 40;

/// The uplink over the contact plan of `mask` (bit `i` set: slot `i` is
/// in contact), followed by one pass long enough for the whole image,
/// on a link erasing `loss` of all frames. On-board resume state expires
/// after two silent slots.
fn uplink_over(mask: u32, loss: f64) -> ReconfigUplink {
    let link = LinkConfig {
        loss_prob: loss,
        ..LinkConfig::clean_fast()
    };
    let window = |start_ns: u64, end_ns: u64, i: u32| ContactWindow {
        start_ns,
        end_ns,
        station: (i % 2) as u16,
        pass_id: i,
        link,
    };
    let mut windows: Vec<ContactWindow> = (0..SLOTS)
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| window(u64::from(i) * SLOT_NS, u64::from(i + 1) * SLOT_NS, i))
        .collect();
    let last = u64::from(SLOTS + 1) * SLOT_NS;
    windows.push(window(last, last + 100 * SLOT_NS, SLOTS));
    ReconfigUplink {
        link,
        backoff: BackoffPolicy {
            base_ns: 5_000_000,
            max_ns: 20_000_000,
            jitter: 0.25,
            max_attempts: 3,
        },
        max_sessions: 4 * SLOTS,
        session_deadline_ns: 400_000_000,
        contacts: None,
        resume_expiry_ns: 0,
    }
    .over_contacts(ContactSchedule::new(windows), 2 * SLOT_NS)
}

/// Invariant 5 over every contact sequence. Returns the busy extensions
/// (in frame ticks) the uploads charge, for the product search.
fn explore_contact_plane() -> Vec<u64> {
    let image: Vec<u8> = (0..2 * 512 + 100).map(|i| (i * 31 % 251) as u8).collect();
    let (mut resumed, mut expired) = (0, 0);
    let mut extensions = Vec::new();
    for (mask, loss) in (0..1u32 << SLOTS).flat_map(|m| [(m, 0.0), (m, 0.1)]) {
        let out = uplink_over(mask, loss).upload(&image, u64::from(mask));
        assert!(
            out.delivered && out.verified,
            "invariant 5: contact mask {mask:#b} at loss {loss} did not complete the image it \
             started: {out:?}"
        );
        resumed += usize::from(!out.resumed_at_block.is_empty());
        expired += usize::from(out.expired_restarts > 0);
        extensions.push(out.elapsed_ns / TICK_NS);
    }
    assert!(
        resumed > 0 && expired > 0,
        "{resumed} resumed, {expired} expired"
    );
    println!(
        "contact plane: {} AOS/LOS sequences to depth {SLOTS} on a clean and a 10%-loss link, \
         {resumed} uploads resumed after LOS, {expired} restarted after expiry",
        1u32 << SLOTS
    );
    extensions.sort_unstable();
    extensions.dedup();
    extensions
}

/// One personality as the explorer tracks it: which descriptor, where in
/// its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Personality {
    design: u8,
    state: LifecycleState,
}

/// A product state. Times are relative to the tick about to be decided,
/// so states that differ only by when they happen coincide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Node {
    eq: [EquipmentState; 2],
    swap: SwapState,
    active: Personality,
    incoming: Option<Personality>,
    /// The design that held the carrier when the swap was accepted.
    pre_swap: u8,
}

impl Node {
    /// Advances the reference tick by one.
    fn shifted(mut self) -> Node {
        for st in &mut self.eq {
            st.busy_until = st.busy_until.saturating_sub(1);
            // The MTTR epoch feeds statistics only.
            st.detect_tick = 0;
        }
        self.swap.at = self.swap.at.saturating_sub(1);
        self
    }
}

/// Applies `op` to `p` through the lifecycle table; an illegal call is a
/// violation.
fn call(p: &mut Personality, op: LifecycleOp) {
    p.state = p
        .state
        .after(op)
        .unwrap_or_else(|| panic!("illegal lifecycle call {op:?} on {p:?}"));
}

/// The supervisor successors of one equipment under either readout: each
/// Reconfigure rung draws its busy extension from `extensions`, as the
/// harness charges the upload (`Supervisor::extend_busy`).
fn supervise(
    cfg: &SupervisorConfig,
    st: &EquipmentState,
    extensions: &[u64],
) -> Vec<EquipmentState> {
    let mut out = Vec::new();
    for dirty in [false, true] {
        let (next, rung) = supervisor::decide(cfg, st, dirty, 0);
        assert!(
            st.health != Health::PermanentlyQuarantined || next.health == st.health,
            "invariant 3: {st:?} left PermanentlyQuarantined for {next:?}"
        );
        if rung == Some(2) {
            out.extend(extensions.iter().map(|&e| EquipmentState {
                busy_until: next.busy_until + e,
                ..next
            }));
        } else {
            out.push(next);
        }
    }
    out
}

/// The swap-side successors of `n` under every fault, trial outcome and
/// command input, with invariants 1 and 2 checked on the way.
fn swap_successors(n: &Node, cmds: &[SwapCommand; 2], seen: &mut [bool; 4]) -> Vec<Node> {
    let mut out = Vec::new();
    for (command, fault, trial) in (0..8).map(|i| (i & 1 == 1, i & 2 == 2, i & 4 == 4)) {
        let mut m = *n;
        if command {
            let other = 1 - m.active.design;
            if let Some(armed) = m.swap.arm(&cmds[usize::from(other)]) {
                m.swap = armed;
                m.incoming = Some(Personality {
                    design: other,
                    state: LifecycleState::Instantiated,
                });
                m.pre_swap = m.active.design;
            }
        }
        let mut trial_clean = None;
        let action = loop {
            let (state, action) = hotswap::decide(m.swap, 0, fault, trial_clean);
            m.swap = state;
            let (on_active, on_incoming) = action.lifecycle();
            on_active.iter().for_each(|&op| call(&mut m.active, op));
            for &op in on_incoming {
                call(m.incoming.as_mut().expect("a swap holds its incoming"), op);
            }
            match action {
                SwapAction::OpenWindow => {}
                SwapAction::Trial => {
                    call(
                        m.incoming.as_mut().expect("a trial needs its incoming"),
                        LifecycleOp::Step,
                    );
                    trial_clean = Some(trial);
                }
                action => break action,
            }
        };
        match action {
            SwapAction::Commit => {
                m.active = m.incoming.take().expect("a commit promotes its incoming");
                seen[0] = true;
            }
            SwapAction::Rollback => {
                m.incoming = None;
                assert!(
                    m.active.design == m.pre_swap && m.active.state == LifecycleState::Running,
                    "invariant 2: after a rollback {:?} holds the carrier, not design {}",
                    m.active,
                    m.pre_swap
                );
                seen[1] = true;
            }
            _ => {}
        }
        let running = [Some(m.active), m.incoming]
            .iter()
            .flatten()
            .filter(|p| p.state == LifecycleState::Running)
            .count();
        assert!(
            running <= 1,
            "invariant 1: {running} personalities running in {m:?}"
        );
        if matches!(
            action,
            SwapAction::Run | SwapAction::Commit | SwapAction::Rollback
        ) {
            // The tick (or the replayed backlog) is served by the active one.
            call(&mut m.active, LifecycleOp::Step);
        }
        seen[2] |= m.swap.phase == SwapPhase::Window;
        out.push(m);
    }
    out
}

/// Invariant 4: from `st`, clean readouts move a `Recovering` equipment
/// out of `Recovering` within the declared bound.
fn check_recovery_bound(cfg: &SupervisorConfig, st: &EquipmentState, bound: u64) {
    if st.health != Health::Recovering {
        return;
    }
    let mut s = *st;
    for tick in 0..bound {
        s = supervisor::decide(cfg, &s, false, tick).0;
        if matches!(s.health, Health::Healthy | Health::PermanentlyQuarantined) {
            return;
        }
    }
    panic!(
        "invariant 4: {st:?} still {:?} after {bound} clean ticks",
        s.health
    );
}

#[test]
fn control_plane_state_space_holds_every_invariant() {
    let extensions = explore_contact_plane();
    let cfg = SupervisorConfig::standard(RecoveryMode::FullLadder);
    let bound = cfg.recovery_bound_ticks(*extensions.last().expect("some upload ran"));
    let descriptors = [
        WaveformDescriptor::sumts_cdma(),
        WaveformDescriptor::mf_tdma(),
    ];
    // A short confidence window keeps commit and abort within reach.
    let cmds = descriptors.map(|d| SwapCommand {
        confidence_frames: 2,
        abort_after: 3,
        ..SwapCommand::new(&d, 1)
    });
    let start = Node {
        eq: [EquipmentState::default(); 2],
        swap: SwapState::default(),
        active: Personality {
            design: 0,
            state: LifecycleState::Running,
        },
        incoming: None,
        pre_swap: 0,
    };
    let mut visited = HashSet::from([start]);
    let mut frontier = vec![start];
    // Commit, rollback, window reached; permanent quarantine reached.
    let mut seen = [false; 4];
    let mut transitions = 0usize;
    // Ticks from the start to the deepest state found.
    let mut depth = 0;
    loop {
        let mut next = Vec::new();
        for n in &frontier {
            let e0 = supervise(&cfg, &n.eq[0], &extensions);
            let e1 = supervise(&cfg, &n.eq[1], &extensions);
            let swaps = swap_successors(n, &cmds, &mut seen);
            for (a, b, s) in e0
                .iter()
                .flat_map(|a| e1.iter().map(move |b| (a, b)))
                .flat_map(|(a, b)| swaps.iter().map(move |s| (a, b, s)))
            {
                transitions += 1;
                let m = Node { eq: [*a, *b], ..*s }.shifted();
                if visited.insert(m) {
                    for st in &m.eq {
                        check_recovery_bound(&cfg, st, bound);
                        seen[3] |= st.health == Health::PermanentlyQuarantined;
                    }
                    next.push(m);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        depth += 1;
        assert!(depth <= DEPTH_CAP, "no fixpoint within {DEPTH_CAP} ticks");
        frontier = next;
    }
    println!(
        "control plane: {} states, {transitions} transitions, fixpoint (deepest state at \
         depth {depth}), recovery bound {bound} ticks",
        visited.len()
    );
    assert_eq!(
        seen, [true; 4],
        "commit, rollback, window, write-off all reached"
    );
}
