//! N3 — SCPS-FP-class file transfer ("SCPS-FP recommended by CCSDS
//! yielding to efficient transfer across the space link", §3.3).
//!
//! Modelled as CCSDS-style rate-based delivery with deferred selective
//! retransmission (the mechanism that actually distinguishes SCPS-FP/CFDP
//! from FTP-over-TCP): the sender streams all segments at line rate over
//! UDP without waiting, the receiver collects them and, on end-of-file,
//! NAKs the missing segment list; repair rounds repeat until complete.
//! No window ever stalls on the 250 ms RTT, and loss costs one repair
//! round instead of a cwnd collapse.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::ip::{udp_packet, IpAddr, IpPacket, IpProto, UdpDatagram};
use crate::sim::{Agent, Io};
use bytes::{BufMut, Bytes, BytesMut};
use gsp_coding::wire::Reader;
use std::collections::BTreeSet;

/// Segment payload size.
pub const SEGMENT: usize = 1000;
/// Upper bound on the segment index a receiver will buffer. A garbage
/// DATA frame carries an arbitrary u32 index; without a cap it could
/// command a multi-gigabyte `resize` before the EOF ever announces the
/// real segment count.
pub const MAX_SEGMENTS: usize = 1 << 20;
/// SCPS-FP-like port.
pub const SCPS_PORT: u16 = 7777;

const OP_DATA: u8 = 1;
const OP_EOF: u8 = 2;
const OP_NAK: u8 = 3;
const OP_FIN: u8 = 4;

fn msg_data(idx: u32, data: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(5 + data.len());
    b.put_u8(OP_DATA);
    b.put_u32(idx);
    b.put_slice(data);
    b.freeze()
}

fn msg_eof(n_segments: u32, size: u32) -> Bytes {
    let mut b = BytesMut::with_capacity(9);
    b.put_u8(OP_EOF);
    b.put_u32(n_segments);
    b.put_u32(size);
    b.freeze()
}

fn msg_nak(missing: &[u32]) -> Bytes {
    let mut b = BytesMut::with_capacity(3 + missing.len() * 4);
    b.put_u8(OP_NAK);
    b.put_u16(missing.len() as u16);
    for &m in missing {
        b.put_u32(m);
    }
    b.freeze()
}

/// Sender: streams the whole file, then answers NAKs until the FIN.
pub struct ScpsFpSender {
    local: IpAddr,
    remote: IpAddr,
    data: Vec<u8>,
    done: bool,
    eof_timer_gen: u64,
    rto_ns: u64,
    /// Repair rounds served.
    pub repair_rounds: u64,
}

impl ScpsFpSender {
    /// New sender of `data`.
    pub fn new(local: IpAddr, remote: IpAddr, data: Vec<u8>, rto_ns: u64) -> Self {
        ScpsFpSender {
            local,
            remote,
            data,
            done: false,
            eof_timer_gen: 0,
            rto_ns,
            repair_rounds: 0,
        }
    }

    fn n_segments(&self) -> u32 {
        (self.data.len().div_ceil(SEGMENT)) as u32
    }

    fn send_segment(&self, io: &mut Io, idx: u32) {
        if idx >= self.n_segments() {
            // A corrupted NAK can name any index; there is nothing to
            // serve beyond the file.
            return;
        }
        let start = idx as usize * SEGMENT;
        let end = (start + SEGMENT).min(self.data.len());
        io.send(udp_packet(
            self.local,
            self.remote,
            SCPS_PORT,
            SCPS_PORT,
            msg_data(idx, &self.data[start..end]),
        ));
    }

    fn send_eof(&mut self, io: &mut Io) {
        io.send(udp_packet(
            self.local,
            self.remote,
            SCPS_PORT,
            SCPS_PORT,
            msg_eof(self.n_segments(), self.data.len() as u32),
        ));
        self.eof_timer_gen += 1;
        io.set_timer(self.rto_ns, self.eof_timer_gen);
    }
}

impl Agent for ScpsFpSender {
    fn start(&mut self, io: &mut Io) {
        // Blast the whole file at line rate, then EOF.
        for idx in 0..self.n_segments() {
            self.send_segment(io, idx);
        }
        self.send_eof(io);
    }

    fn on_frame(&mut self, io: &mut Io, raw: Bytes) {
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
        match r.u8() {
            Some(OP_NAK) => {
                let Some(n) = r.u16() else {
                    return;
                };
                self.repair_rounds += 1;
                for _ in 0..n {
                    // A truncated NAK stops at the last whole index: the
                    // next EOF reprompt re-elicits whatever was cut off.
                    let Some(idx) = r.u32() else {
                        break;
                    };
                    self.send_segment(io, idx);
                }
                self.send_eof(io);
            }
            Some(OP_FIN) => {
                self.done = true;
                self.eof_timer_gen += 1;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, io: &mut Io, id: u64) {
        // EOF (or the FIN ack path) lost: reprompt the receiver.
        if !self.done && id == self.eof_timer_gen {
            self.send_eof(io);
        }
    }

    fn finished(&self) -> bool {
        self.done
    }
}

/// Receiver: collects segments, NAKs the holes after EOF, FINs when whole.
pub struct ScpsFpReceiver {
    local: IpAddr,
    segments: Vec<Option<Vec<u8>>>,
    expected_segments: Option<u32>,
    expected_size: usize,
    /// The completed file once every segment arrived.
    pub file: Option<Vec<u8>>,
}

impl ScpsFpReceiver {
    /// New idle receiver.
    pub fn new(local: IpAddr) -> Self {
        ScpsFpReceiver {
            local,
            segments: Vec::new(),
            expected_segments: None,
            expected_size: 0,
            file: None,
        }
    }

    fn missing(&self) -> Vec<u32> {
        let Some(n) = self.expected_segments else {
            return Vec::new();
        };
        let have: BTreeSet<u32> = self
            .segments
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i as u32))
            .collect();
        (0..n).filter(|i| !have.contains(i)).collect()
    }

    fn try_complete(&mut self, io: &mut Io, peer: IpAddr) {
        let Some(n) = self.expected_segments else {
            return;
        };
        let missing = self.missing();
        if missing.is_empty() {
            if self.file.is_none() {
                let mut out = Vec::with_capacity(self.expected_size);
                // No segment below `n` is missing, so none is skipped.
                for s in self.segments.iter().take(n as usize).flatten() {
                    out.extend_from_slice(s);
                }
                out.truncate(self.expected_size);
                self.file = Some(out);
            }
            io.send(udp_packet(
                self.local,
                peer,
                SCPS_PORT,
                SCPS_PORT,
                Bytes::from_static(&[OP_FIN]),
            ));
        } else {
            // NAK at most what fits one message; the next EOF reprompts.
            let chunk: Vec<u32> = missing.into_iter().take(1000).collect();
            io.send(udp_packet(
                self.local,
                peer,
                SCPS_PORT,
                SCPS_PORT,
                msg_nak(&chunk),
            ));
        }
    }
}

impl Agent for ScpsFpReceiver {
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
        match r.u8() {
            Some(OP_DATA) => {
                let Some(idx) = r.u32() else {
                    return;
                };
                let idx = idx as usize;
                if idx >= MAX_SEGMENTS {
                    return;
                }
                if idx >= self.segments.len() {
                    self.segments.resize(idx + 1, None);
                }
                self.segments[idx] = Some(r.rest().to_vec());
            }
            Some(OP_EOF) => {
                let (Some(n), Some(size)) = (r.u32(), r.u32()) else {
                    return;
                };
                if n as usize > MAX_SEGMENTS {
                    return;
                }
                self.expected_segments = Some(n);
                self.expected_size = size as usize;
                if self.segments.len() < n as usize {
                    self.segments.resize(n as usize, None);
                }
                self.try_complete(io, ip.src);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _io: &mut Io, _id: u64) {}

    fn finished(&self) -> bool {
        self.file.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::Sim;

    fn run(size: usize, link: LinkConfig, seed: u64) -> (Option<Vec<u8>>, u64, u64) {
        let data: Vec<u8> = (0..size).map(|i| (i * 17 % 251) as u8).collect();
        let rto = 2 * link.rtt_ns() + 300_000_000;
        let mut tx = ScpsFpSender::new(1, 2, data.clone(), rto);
        let mut rx = ScpsFpReceiver::new(2);
        let mut sim = Sim::new(link, seed);
        let stats = sim.run(&mut tx, &mut rx, 24 * 3_600_000_000_000);
        let ok = rx.file.as_deref() == Some(&data[..]);
        (
            if ok { rx.file } else { None },
            stats.end_ns,
            tx.repair_rounds,
        )
    }

    #[test]
    fn clean_transfer_completes_in_one_pass() {
        let (file, _, rounds) = run(50_000, LinkConfig::geo_default(), 1);
        assert!(file.is_some());
        assert_eq!(rounds, 0);
    }

    #[test]
    fn transfer_time_is_serialisation_plus_one_rtt() {
        // The whole point of rate-based transfer: no window stall.
        let link = LinkConfig::geo_default();
        let size = 96 * 1024;
        let (file, t, _) = run(size, link, 2);
        assert!(file.is_some());
        let serial = link.tx_time_ns(size + size / SEGMENT * 33, true);
        let bound = serial + 2 * link.rtt_ns();
        assert!(
            t <= bound,
            "{:.2}s should be ≈ serialisation {:.2}s + 1 RTT",
            t as f64 / 1e9,
            serial as f64 / 1e9
        );
    }

    #[test]
    fn loss_costs_repair_rounds_not_collapse() {
        let link = LinkConfig {
            ber: 1e-5, // ~8% loss on 1 kB segments
            ..LinkConfig::geo_default()
        };
        let (file, _, rounds) = run(100_000, link, 3);
        assert!(file.is_some());
        assert!(rounds >= 1, "loss should trigger NAK repair");
        assert!(rounds < 10, "{rounds} repair rounds is pathological");
    }

    #[test]
    fn empty_file_transfers() {
        let (file, _, _) = run(0, LinkConfig::clean_fast(), 4);
        assert_eq!(file, Some(vec![]));
    }

    #[test]
    fn survives_eof_loss() {
        // Even at heavy loss the periodic EOF reprompt converges.
        let link = LinkConfig {
            ber: 5e-5,
            ..LinkConfig::geo_default()
        };
        let (file, _, _) = run(20_000, link, 5);
        assert!(file.is_some());
    }
}
