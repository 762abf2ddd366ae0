//! The recovery ladder's last rung: re-uploading the golden bitstream
//! through `gsp-netproto` TFTP over a lossy, corrupting GEO uplink.
//!
//! The upload is driven as a sequence of bounded *sessions* against one
//! persistent on-board TFTP server. Within a session the writer
//! retransmits on a jittered exponential backoff schedule; when it
//! exhausts its per-block attempt budget (or the session deadline
//! lapses) the session ends, and the next one **resumes** at the block
//! the writer was stalled on instead of re-sending the prefix — the
//! server's cumulative-ACK rule re-synchronises a writer that resumes
//! one block behind. Where each session starts, where it must end and
//! whether it resumes or starts over is decided in one place, the pure
//! [`ReconfigUplink::plan_session`]; `upload` does only the simulator
//! and TFTP work. The whole exchange runs in `gsp-netproto`'s
//! discrete-event simulator, so the transfer cost comes out in real
//! (simulated) nanoseconds and the harness can charge it against the
//! recovering equipment's busy window. Deterministic per seed.

use gsp_netproto::ip::{ADDR_NCC, ADDR_OBPC};
use gsp_netproto::tftp::{TftpServer, TftpWriter};
use gsp_netproto::{BackoffPolicy, ContactSchedule, LinkConfig, Sim};

/// The uplink a golden-bitstream re-upload crosses.
#[derive(Clone, Debug, PartialEq)]
pub struct ReconfigUplink {
    /// Channel model (delay, rate, BER, erasure probability).
    pub link: LinkConfig,
    /// Retransmission schedule within a session.
    pub backoff: BackoffPolicy,
    /// Upload sessions before the rung is abandoned.
    pub max_sessions: u32,
    /// Simulated time budget per session, in nanoseconds.
    pub session_deadline_ns: u64,
    /// Pass-windowed contact plan gating the channel. `None` is the
    /// always-on GEO pipe; with a plan, each session waits for the next
    /// acquisition of signal, is bounded by that contact's loss of
    /// signal, and the transfer resumes at the stalled block on the
    /// next pass — possibly through a different station.
    pub contacts: Option<ContactSchedule>,
    /// How long the on-board server keeps a suspended transfer's state
    /// while waiting for contact, in nanoseconds (0 = forever). Past
    /// this, the session expires and the upload restarts from block 0.
    pub resume_expiry_ns: u64,
}

impl ReconfigUplink {
    /// The FDIR soak regime: the GEO link with one in five frames
    /// erased outright, jittered exponential backoff sized for the
    /// link's RTT, six sessions of two simulated minutes each.
    pub fn flight_default() -> Self {
        let link = LinkConfig {
            loss_prob: 0.2,
            ..LinkConfig::geo_default()
        };
        ReconfigUplink {
            backoff: BackoffPolicy::for_link(&link),
            link,
            max_sessions: 6,
            session_deadline_ns: 120_000_000_000,
            contacts: None,
            resume_expiry_ns: 0,
        }
    }

    /// A clean, fast channel for tests that only need the mechanics.
    pub fn clean() -> Self {
        let link = LinkConfig::clean_fast();
        ReconfigUplink {
            backoff: BackoffPolicy::for_link(&link),
            link,
            max_sessions: 3,
            session_deadline_ns: 60_000_000_000,
            contacts: None,
            resume_expiry_ns: 0,
        }
    }

    /// The same uplink gated on a pass-windowed contact plan, with
    /// server-side resume state expiring after `expiry_ns` out of
    /// contact (0 = never expires).
    pub fn over_contacts(mut self, plan: ContactSchedule, expiry_ns: u64) -> Self {
        self.contacts = Some(plan);
        self.resume_expiry_ns = expiry_ns;
        self
    }

    /// The resume planner: the next session at `now_ns`, given when the
    /// transfer was suspended and the block it stalled on (`None` before
    /// the first session). It waits for acquisition of signal, ends at
    /// the budget or loss of signal, and resumes — or, once the on-board
    /// resume state has expired, starts over. `None` when the plan has
    /// no window left: the upload gives up rather than wedge.
    pub fn plan_session(&self, now_ns: u64, suspended: Option<(u64, u16)>) -> Option<SessionPlan> {
        let (start_ns, los_ns, via) = match &self.contacts {
            None => (now_ns, u64::MAX, None),
            Some(plan) => {
                let first = plan.next_contact(now_ns)?;
                // A contact is a run of abutting windows: Doppler slices
                // of one pass, or a seamless handover to the next station.
                let mut los_ns = first.end_ns;
                while let Some(w) = plan.window_at(los_ns) {
                    los_ns = w.end_ns;
                }
                let via = Some((first.station, first.pass_id));
                (first.start_ns.max(now_ns), los_ns, via)
            }
        };
        let expired = suspended.is_some_and(|(since_ns, _)| {
            self.resume_expiry_ns > 0 && start_ns.saturating_sub(since_ns) > self.resume_expiry_ns
        });
        Some(SessionPlan {
            start_ns,
            deadline_ns: start_ns
                .saturating_add(self.session_deadline_ns)
                .min(los_ns),
            via,
            expired,
            resume_at: suspended.filter(|_| !expired).map_or(0, |(_, block)| block),
        })
    }

    /// Uploads `wire` (a serialised golden bitstream) to the on-board
    /// controller in [`Self::plan_session`]'s sessions. Deterministic in
    /// `seed`.
    pub fn upload(&self, wire: &[u8], seed: u64) -> UplinkOutcome {
        let mut out = UplinkOutcome::default();
        // One simulator and one server across every session: simulated
        // time, link state and the server's transfer state (filename,
        // expected block) all persist, which is what makes resume work.
        let mut sim = Sim::new(self.link, seed);
        if let Some(plan) = &self.contacts {
            sim.set_contacts(plan.clone());
        }
        let mut server = TftpServer::new(ADDR_OBPC);
        let mut now_ns = 0u64;
        let mut suspended = None;
        let mut last_stats = None;
        for _ in 0..self.max_sessions {
            let Some(plan) = self.plan_session(now_ns, suspended) else {
                break;
            };
            sim.advance_to(plan.start_ns);
            if plan.expired {
                server = TftpServer::new(ADDR_OBPC);
                out.expired_restarts += 1;
            }
            let writer = if plan.resume_at == 0 {
                TftpWriter::new(
                    ADDR_NCC,
                    ADDR_OBPC,
                    "golden.bit",
                    wire.to_vec(),
                    self.backoff,
                )
            } else {
                out.resumed_at_block.push(plan.resume_at);
                out.resumed_via_station
                    .push(plan.via.map_or(u16::MAX, |(s, _)| s));
                TftpWriter::resume(
                    ADDR_NCC,
                    ADDR_OBPC,
                    "golden.bit",
                    wire.to_vec(),
                    self.backoff,
                    plan.resume_at,
                )
            };
            let Ok(mut writer) = writer else {
                // Bitstream too large for a u16 block counter — the
                // rung cannot succeed, report failure upward.
                break;
            };
            if let Some((station, pass)) = plan.via {
                if out.passes_used.last() != Some(&pass) {
                    out.passes_used.push(pass);
                }
                if !out.stations_used.contains(&station) {
                    out.stations_used.push(station);
                }
            }
            out.sessions += 1;
            let stats = sim.run(&mut writer, &mut server, plan.deadline_ns);
            last_stats = Some(stats);
            now_ns = stats.end_ns;
            out.retransmissions += writer.retransmissions;
            out.elapsed_ns = now_ns;
            if server.complete {
                out.delivered = true;
                break;
            }
            suspended = Some((now_ns, writer.next_block()));
        }
        if let Some(stats) = last_stats {
            out.frames_lost_contact = stats.frames_lost_contact[0] + stats.frames_lost_contact[1];
        }
        out.verified = out.delivered && server.received == wire;
        out
    }
}

/// One upload session, as the resume planner lays it out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionPlan {
    /// When the session starts: now, or the next acquisition of signal.
    pub start_ns: u64,
    /// When it must end: the session budget, cut at loss of signal.
    pub deadline_ns: u64,
    /// `(station, pass id)` carrying the session on a contact-gated link.
    pub via: Option<(u16, u32)>,
    /// The on-board resume state expired: the server starts over.
    pub expired: bool,
    /// The block the session resumes at; 0 sends a fresh request.
    pub resume_at: u16,
}

/// What an upload attempt achieved.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UplinkOutcome {
    /// The server holds a complete file.
    pub delivered: bool,
    /// The delivered bytes match the golden image exactly.
    pub verified: bool,
    /// Sessions consumed (1 = first try succeeded).
    pub sessions: u32,
    /// Total retransmissions across all sessions.
    pub retransmissions: u64,
    /// Block each resumed session restarted at, in order.
    pub resumed_at_block: Vec<u16>,
    /// Station hosting each resumed session, parallel to
    /// `resumed_at_block` (`u16::MAX` on an always-on link).
    pub resumed_via_station: Vec<u16>,
    /// Distinct pass ids the upload crossed, in order (empty on an
    /// always-on link).
    pub passes_used: Vec<u32>,
    /// Distinct stations the upload crossed, in first-use order (empty
    /// on an always-on link).
    pub stations_used: Vec<u16>,
    /// Times the on-board resume state expired between passes and the
    /// upload restarted from block 0.
    pub expired_restarts: u32,
    /// Frames the channel dropped to loss of signal (both directions).
    pub frames_lost_contact: u64,
    /// Simulated time the whole upload occupied, in nanoseconds —
    /// including the silence between passes on a contact-gated link.
    pub elapsed_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_wire(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn clean_link_delivers_in_one_session() {
        let wire = golden_wire(1054);
        let out = ReconfigUplink::clean().upload(&wire, 7);
        assert!(out.delivered && out.verified);
        assert_eq!(out.sessions, 1);
        assert_eq!(out.retransmissions, 0);
        assert!(out.resumed_at_block.is_empty());
        assert!(out.elapsed_ns > 0);
    }

    #[test]
    fn twenty_percent_loss_still_verifies() {
        let uplink = ReconfigUplink::flight_default();
        let wire = golden_wire(1054);
        for seed in 0..8 {
            let out = uplink.upload(&wire, seed);
            assert!(out.delivered, "seed {seed}: {out:?}");
            assert!(out.verified, "seed {seed} must deliver bit-exact");
            assert!(out.sessions <= uplink.max_sessions);
        }
    }

    #[test]
    fn heavy_loss_resumes_mid_file_instead_of_restarting() {
        // A tight attempt budget under heavy loss forces give-ups; the
        // next session must restart at the stalled block, not block 1.
        let link = LinkConfig {
            loss_prob: 0.5,
            ..LinkConfig::clean_fast()
        };
        let uplink = ReconfigUplink {
            backoff: BackoffPolicy {
                max_attempts: 2,
                ..BackoffPolicy::for_link(&link)
            },
            link,
            max_sessions: 24,
            session_deadline_ns: 600_000_000_000,
            contacts: None,
            resume_expiry_ns: 0,
        };
        let wire = golden_wire(4 * 512 + 100);
        let mut saw_mid_file_resume = false;
        for seed in 0..16 {
            let out = uplink.upload(&wire, seed);
            if out.resumed_at_block.iter().any(|&b| b > 1) {
                saw_mid_file_resume = true;
                assert!(
                    out.verified || out.sessions == uplink.max_sessions,
                    "resume must not corrupt the file: {out:?}"
                );
            }
        }
        assert!(saw_mid_file_resume, "50% loss never forced a resume");
    }

    #[test]
    fn black_hole_gives_up_after_session_budget() {
        let link = LinkConfig {
            loss_prob: 1.0,
            ..LinkConfig::clean_fast()
        };
        let uplink = ReconfigUplink {
            backoff: BackoffPolicy::for_link(&link),
            link,
            max_sessions: 4,
            session_deadline_ns: 60_000_000_000,
            contacts: None,
            resume_expiry_ns: 0,
        };
        let out = uplink.upload(&golden_wire(1054), 3);
        assert!(!out.delivered && !out.verified);
        assert_eq!(out.sessions, 4, "bounded retries: all sessions spent");
    }

    use gsp_netproto::ContactWindow;

    /// A lab-grade link with a backoff fast enough to live inside
    /// millisecond-scale contact windows.
    fn windowed_uplink(plan: ContactSchedule, expiry_ns: u64) -> ReconfigUplink {
        let link = LinkConfig::clean_fast();
        ReconfigUplink {
            backoff: BackoffPolicy {
                base_ns: 5_000_000,
                max_ns: 20_000_000,
                jitter: 0.25,
                max_attempts: 3,
            },
            link,
            max_sessions: 12,
            session_deadline_ns: 400_000_000,
            contacts: None,
            resume_expiry_ns: 0,
        }
        .over_contacts(plan, expiry_ns)
    }

    fn window(start_ns: u64, end_ns: u64, station: u16, pass_id: u32) -> ContactWindow {
        ContactWindow {
            start_ns,
            end_ns,
            station,
            pass_id,
            link: LinkConfig::clean_fast(),
        }
    }

    #[test]
    fn los_suspends_and_a_later_pass_resumes_via_another_station() {
        // A ten-block file needs ~26 ms of clean 10 Mbps lockstep; the
        // first pass offers 8 ms, so the transfer MUST suspend at loss
        // of signal and finish through the second station's pass.
        let plan = ContactSchedule::new(vec![
            window(0, 8_000_000, 0, 1),
            window(60_000_000, 600_000_000, 1, 2),
        ]);
        let uplink = windowed_uplink(plan, 0);
        let wire = golden_wire(9 * 512 + 100);
        let out = uplink.upload(&wire, 11);
        assert!(out.delivered && out.verified, "{out:?}");
        assert!(
            !out.resumed_at_block.is_empty(),
            "an 8 ms pass cannot carry 10 blocks: {out:?}"
        );
        assert!(
            out.resumed_at_block.iter().all(|&b| b >= 1),
            "resume must not restart from the WRQ: {out:?}"
        );
        assert_eq!(out.stations_used, vec![0, 1], "{out:?}");
        assert_eq!(out.passes_used, vec![1, 2], "{out:?}");
        assert!(
            out.resumed_via_station.contains(&1),
            "the resume must ride station 1's pass: {out:?}"
        );
        // Byte-exact across the gap, same as the single-pass case.
        assert_eq!(
            uplink.upload(&wire, 11),
            out,
            "contact uploads are deterministic"
        );
    }

    #[test]
    fn abutting_windows_are_one_contact_run() {
        // A seamless handover (next window starts exactly at the
        // previous LOS) must not interrupt the session at all.
        let plan = ContactSchedule::new(vec![
            window(0, 8_000_000, 0, 1),
            window(8_000_000, 600_000_000, 1, 1),
        ]);
        let out = windowed_uplink(plan, 0).upload(&golden_wire(9 * 512 + 100), 11);
        assert!(out.delivered && out.verified, "{out:?}");
        assert_eq!(out.sessions, 1, "handover must not force a resume: {out:?}");
        assert!(out.resumed_at_block.is_empty());
    }

    #[test]
    fn resume_state_expires_between_distant_passes() {
        // The gap to the second pass (192 ms) exceeds the 50 ms resume
        // budget: the on-board server forgets the prefix and the upload
        // restarts from block 0 — and still verifies.
        let plan = ContactSchedule::new(vec![
            window(0, 8_000_000, 0, 1),
            window(200_000_000, 800_000_000, 1, 2),
        ]);
        let out = windowed_uplink(plan, 50_000_000).upload(&golden_wire(9 * 512 + 100), 11);
        assert!(out.delivered && out.verified, "{out:?}");
        assert_eq!(out.expired_restarts, 1, "{out:?}");
        assert!(
            out.resumed_at_block.is_empty(),
            "an expired transfer restarts, it does not resume: {out:?}"
        );
    }

    #[test]
    fn exhausted_plan_gives_up_without_wedging() {
        // One short pass, then silence forever: the upload must stop
        // when the plan runs out, well before its session budget.
        let plan = ContactSchedule::new(vec![window(0, 8_000_000, 0, 1)]);
        let uplink = windowed_uplink(plan, 0);
        let out = uplink.upload(&golden_wire(9 * 512 + 100), 11);
        assert!(!out.delivered && !out.verified);
        assert!(
            out.sessions < uplink.max_sessions,
            "plan exhaustion must cut the session loop short: {out:?}"
        );
        assert!(
            out.elapsed_ns <= 8_000_000,
            "no simulated time may pass outside the plan: {out:?}"
        );
    }

    #[test]
    fn uploads_are_deterministic_per_seed() {
        let uplink = ReconfigUplink::flight_default();
        let wire = golden_wire(2048);
        assert_eq!(uplink.upload(&wire, 42), uplink.upload(&wire, 42));
        let a = uplink.upload(&wire, 1);
        let b = uplink.upload(&wire, 2);
        assert!(
            a.elapsed_ns != b.elapsed_ns || a.retransmissions != b.retransmissions,
            "different seeds should decorrelate the loss pattern"
        );
    }
}
