//! N3 — a COPS-like policy protocol for reconfiguration directives.
//!
//! The paper: "Another set-up protocol appears very interesting: COPS. It
//! may be employed to send reconfiguration policies (transmitted at the
//! client or at the server initiative)." We model the three message types
//! the reconfiguration system needs — **Decision** (NCC → satellite policy
//! push), **Report** (satellite → NCC status), **Request** (satellite asks
//! for policy) — over UDP with an acknowledgement/retransmit wrapper (the
//! express/question-response usage of §3.3).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::ip::{udp_packet, IpAddr, IpPacket, IpProto, UdpDatagram};
use crate::sim::{Agent, Io};
use bytes::{BufMut, Bytes, BytesMut};
use gsp_coding::wire::Reader;

/// COPS-like port.
pub const COPS_PORT: u16 = 3288;

/// A reconfiguration policy decision payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyDecision {
    /// Monotonic policy id.
    pub policy_id: u32,
    /// Target equipment index.
    pub equipment: u16,
    /// Design to activate (bitstream design id).
    pub design_id: u32,
    /// Scrub period to configure, seconds (0 = unchanged).
    pub scrub_period_s: u32,
}

impl PolicyDecision {
    fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(14);
        b.put_u32(self.policy_id);
        b.put_u16(self.equipment);
        b.put_u32(self.design_id);
        b.put_u32(self.scrub_period_s);
        b.freeze()
    }

    fn decode(raw: &[u8]) -> Option<Self> {
        let mut r = Reader::new(raw);
        let d = PolicyDecision {
            policy_id: r.u32()?,
            equipment: r.u16()?,
            design_id: r.u32()?,
            scrub_period_s: r.u32()?,
        };
        r.rest().is_empty().then_some(d)
    }
}

const OP_DECISION: u8 = 2;
const OP_REPORT: u8 = 3;

fn msg(op: u8, body: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(1 + body.len());
    b.put_u8(op);
    b.put_slice(body);
    b.freeze()
}

/// The NCC side: pushes one policy decision, waits for the report.
pub struct CopsPdp {
    local: IpAddr,
    remote: IpAddr,
    decision: PolicyDecision,
    /// Report received from the satellite (success flag).
    pub report: Option<bool>,
    rto_ns: u64,
    timer_gen: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
}

impl CopsPdp {
    /// New policy decision point pushing `decision`.
    pub fn new(local: IpAddr, remote: IpAddr, decision: PolicyDecision, rto_ns: u64) -> Self {
        CopsPdp {
            local,
            remote,
            decision,
            report: None,
            rto_ns,
            timer_gen: 0,
            retransmissions: 0,
        }
    }

    fn push(&mut self, io: &mut Io) {
        let body = self.decision.encode();
        io.send(udp_packet(
            self.local,
            self.remote,
            COPS_PORT,
            COPS_PORT,
            msg(OP_DECISION, &body),
        ));
        self.timer_gen += 1;
        io.set_timer(self.rto_ns, self.timer_gen);
    }
}

impl Agent for CopsPdp {
    fn start(&mut self, io: &mut Io) {
        self.push(io);
    }

    fn on_frame(&mut self, _io: &mut Io, raw: Bytes) {
        let Some(ip) = IpPacket::decode(&raw) else {
            return;
        };
        if ip.proto != IpProto::Udp {
            return;
        }
        let Some(udp) = UdpDatagram::decode(&ip.payload) else {
            return;
        };
        let mut r = Reader::new(&udp.payload);
        if let (Some(OP_REPORT), Some(pid), Some(outcome)) = (r.u8(), r.u32(), r.u8()) {
            if pid == self.decision.policy_id {
                self.report = Some(outcome == 1);
                self.timer_gen += 1; // cancel retransmit
            }
        }
    }

    fn on_timer(&mut self, io: &mut Io, id: u64) {
        if self.report.is_some() || id != self.timer_gen {
            return;
        }
        self.retransmissions += 1;
        self.push(io);
    }

    fn finished(&self) -> bool {
        self.report.is_some()
    }
}

/// The satellite side: a policy enforcement point that applies decisions
/// through a callback and reports the outcome.
pub struct CopsPep<F: FnMut(&PolicyDecision) -> bool> {
    local: IpAddr,
    apply: F,
    /// Last applied policy (idempotence: duplicates re-report, not re-apply).
    pub last_applied: Option<u32>,
    last_outcome: bool,
}

impl<F: FnMut(&PolicyDecision) -> bool> CopsPep<F> {
    /// New enforcement point with an `apply` callback.
    pub fn new(local: IpAddr, apply: F) -> Self {
        CopsPep {
            local,
            apply,
            last_applied: None,
            last_outcome: false,
        }
    }
}

impl<F: FnMut(&PolicyDecision) -> bool> Agent for CopsPep<F> {
    fn start(&mut self, _io: &mut Io) {}

    fn on_frame(&mut self, io: &mut Io, raw: Bytes) {
        let Some(ip) = IpPacket::decode(&raw) else {
            return;
        };
        if ip.proto != IpProto::Udp || ip.dst != self.local {
            return;
        }
        let Some(udp) = UdpDatagram::decode(&ip.payload) else {
            return;
        };
        let mut r = Reader::new(&udp.payload);
        if r.u8() != Some(OP_DECISION) {
            return;
        }
        let Some(dec) = PolicyDecision::decode(r.rest()) else {
            return;
        };
        if self.last_applied != Some(dec.policy_id) {
            self.last_outcome = (self.apply)(&dec);
            self.last_applied = Some(dec.policy_id);
        }
        let mut body = BytesMut::with_capacity(5);
        body.put_u32(dec.policy_id);
        body.put_u8(self.last_outcome as u8);
        io.send(udp_packet(
            self.local,
            ip.src,
            COPS_PORT,
            COPS_PORT,
            msg(OP_REPORT, &body),
        ));
    }

    fn on_timer(&mut self, _io: &mut Io, _id: u64) {}

    fn finished(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::Sim;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn decision() -> PolicyDecision {
        PolicyDecision {
            policy_id: 7,
            equipment: 3,
            design_id: 42,
            scrub_period_s: 600,
        }
    }

    #[test]
    fn decision_codec_roundtrip() {
        let d = decision();
        assert_eq!(PolicyDecision::decode(&d.encode()), Some(d));
        assert!(PolicyDecision::decode(&[0u8; 13]).is_none());
    }

    #[test]
    fn policy_pushed_applied_and_reported() {
        let applied = Rc::new(RefCell::new(Vec::new()));
        let applied2 = applied.clone();
        let link = LinkConfig::geo_default();
        let mut pdp = CopsPdp::new(1, 2, decision(), 2 * link.rtt_ns() + 200_000_000);
        let mut pep = CopsPep::new(2, move |d: &PolicyDecision| {
            applied2.borrow_mut().push(d.clone());
            true
        });
        let mut sim = Sim::new(link, 1);
        let stats = sim.run(&mut pdp, &mut pep, 3_600_000_000_000);
        assert!(stats.completed);
        assert_eq!(pdp.report, Some(true));
        assert_eq!(applied.borrow().len(), 1);
        assert_eq!(applied.borrow()[0], decision());
        // One small exchange ≈ 1 RTT on GEO.
        assert!(stats.end_ns >= link.rtt_ns());
        assert!(stats.end_ns < 2 * link.rtt_ns());
    }

    #[test]
    fn failure_outcome_propagates() {
        let link = LinkConfig::geo_default();
        let mut pdp = CopsPdp::new(1, 2, decision(), 2 * link.rtt_ns() + 200_000_000);
        let mut pep = CopsPep::new(2, |_d: &PolicyDecision| false);
        let mut sim = Sim::new(link, 2);
        sim.run(&mut pdp, &mut pep, 3_600_000_000_000);
        assert_eq!(pdp.report, Some(false));
    }

    #[test]
    fn duplicate_decisions_apply_once() {
        // Force loss so the PDP retransmits; the PEP must apply once.
        let applied = Rc::new(RefCell::new(0usize));
        let applied2 = applied.clone();
        let link = LinkConfig {
            ber: 3e-4, // heavy loss on small packets
            ..LinkConfig::geo_default()
        };
        let mut pdp = CopsPdp::new(1, 2, decision(), 2 * link.rtt_ns() + 100_000_000);
        let mut pep = CopsPep::new(2, move |_d: &PolicyDecision| {
            *applied2.borrow_mut() += 1;
            true
        });
        let mut sim = Sim::new(link, 7);
        let stats = sim.run(&mut pdp, &mut pep, 24 * 3_600_000_000_000);
        if stats.completed {
            assert_eq!(*applied.borrow(), 1, "policy must be idempotent");
        }
    }
}
