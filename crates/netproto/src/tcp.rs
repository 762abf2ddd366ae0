//! N2 — TCP-lite: a window-based reliable byte stream "for a controlled
//! transfer" (§3.3).
//!
//! Implements the behaviour that matters over a GEO link: three-way
//! handshake, MSS segmentation, slow-start to a configurable maximum
//! window (the RFC 2488 knob — "specific versions for satellite context
//! have been already defined (they concern the segment size, the window
//! mechanism…)"), cumulative ACKs, go-back-N retransmission on timeout,
//! and a simplified FIN close.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::ip::{IpAddr, IpPacket, IpProto};
use crate::sim::Io;
use bytes::{BufMut, Bytes, BytesMut};
use gsp_coding::wire::Reader;
use gsp_telemetry::{Counter, Registry};
use std::collections::VecDeque;

const FLAG_SYN: u8 = 0b0001;
const FLAG_ACK: u8 = 0b0010;
const FLAG_FIN: u8 = 0b0100;

/// TCP-lite header bytes: ports(4) seq(4) ack(4) flags(1) len(2).
pub const TCP_HEADER: usize = 15;

/// A decoded segment.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgement (next expected byte).
    pub ack: u32,
    /// SYN/ACK/FIN flags.
    pub flags: u8,
    /// Payload.
    pub payload: Bytes,
}

impl Segment {
    /// Encodes the segment.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(TCP_HEADER + self.payload.len());
        b.put_u16(self.src_port);
        b.put_u16(self.dst_port);
        b.put_u32(self.seq);
        b.put_u32(self.ack);
        b.put_u8(self.flags);
        b.put_u16(self.payload.len() as u16);
        b.put_slice(&self.payload);
        b.freeze()
    }

    /// Decodes a segment.
    pub fn decode(raw: &[u8]) -> Option<Segment> {
        let mut r = Reader::new(raw);
        let (src_port, dst_port) = (r.u16()?, r.u16()?);
        let (seq, ack, flags, len) = (r.u32()?, r.u32()?, r.u8()?, r.u16()?);
        (r.rest().len() == usize::from(len)).then(|| Segment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            payload: Bytes::copy_from_slice(r.rest()),
        })
    }
}

/// Connection state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    /// Initial.
    Closed,
    /// Listener waiting for SYN.
    Listen,
    /// SYN sent, waiting for SYN+ACK.
    SynSent,
    /// SYN received, SYN+ACK sent.
    SynReceived,
    /// Data flows.
    Established,
    /// FIN sent, waiting for FIN+ACK.
    FinWait,
    /// Connection finished.
    Done,
}

/// A TCP-lite connection endpoint.
#[derive(Debug)]
pub struct TcpConnection {
    local_addr: IpAddr,
    remote_addr: IpAddr,
    local_port: u16,
    remote_port: u16,
    state: TcpState,
    /// Maximum segment payload.
    pub mss: usize,
    /// Maximum send window in bytes (RFC 2488: size ≥ BDP for GEO).
    pub max_window: usize,
    /// Current congestion window (slow-start).
    cwnd: usize,
    rto_ns: u64,
    timer_base: u64,
    timer_gen: u64,
    // Send side.
    snd_una: u32,
    snd_nxt: u32,
    snd_buf: VecDeque<u8>, // bytes from snd_una onward (unacked + unsent)
    fin_wanted: bool,
    retransmits: u64,
    /// Shared `netproto.tcp.retransmits` counter (no-op by default).
    tel_retransmits: Counter,
    /// Shared `netproto.tcp.timeouts` counter (no-op by default).
    tel_timeouts: Counter,
    // Receive side.
    rcv_nxt: u32,
    delivered: Vec<u8>,
}

impl TcpConnection {
    /// Creates a client endpoint (call [`TcpConnection::connect`]).
    pub fn client(
        local: (IpAddr, u16),
        remote: (IpAddr, u16),
        max_window: usize,
        rto_ns: u64,
        timer_base: u64,
    ) -> Self {
        Self::new(
            local,
            remote,
            TcpState::Closed,
            max_window,
            rto_ns,
            timer_base,
        )
    }

    /// Creates a listening endpoint.
    pub fn listener(local: (IpAddr, u16), max_window: usize, rto_ns: u64, timer_base: u64) -> Self {
        Self::new(
            local,
            (0, 0),
            TcpState::Listen,
            max_window,
            rto_ns,
            timer_base,
        )
    }

    fn new(
        local: (IpAddr, u16),
        remote: (IpAddr, u16),
        state: TcpState,
        max_window: usize,
        rto_ns: u64,
        timer_base: u64,
    ) -> Self {
        TcpConnection {
            local_addr: local.0,
            local_port: local.1,
            remote_addr: remote.0,
            remote_port: remote.1,
            state,
            mss: 1024,
            max_window: max_window.max(1024),
            cwnd: 1024,
            rto_ns,
            timer_base,
            timer_gen: 0,
            snd_una: 0,
            snd_nxt: 0,
            snd_buf: VecDeque::new(),
            fin_wanted: false,
            retransmits: 0,
            tel_retransmits: Counter::noop(),
            tel_timeouts: Counter::noop(),
            rcv_nxt: 0,
            delivered: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Total retransmitted segments.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Registers the `netproto.tcp.retransmits` and
    /// `netproto.tcp.timeouts` counters on `registry`.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.tel_retransmits = registry.counter("netproto.tcp.retransmits");
        self.tel_timeouts = registry.counter("netproto.tcp.timeouts");
    }

    /// Bytes delivered in order so far (drains the buffer).
    pub fn take_delivered(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.delivered)
    }

    /// `true` when the connection tear-down completed.
    pub fn is_done(&self) -> bool {
        self.state == TcpState::Done
    }

    /// `true` once established.
    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established
    }

    fn emit(&self, io: &mut Io, seg: Segment) {
        let pkt = IpPacket {
            src: self.local_addr,
            dst: self.remote_addr,
            proto: IpProto::Tcp,
            payload: seg.encode(),
        };
        io.send(pkt.encode());
    }

    fn arm_timer(&mut self, io: &mut Io) {
        self.timer_gen += 1;
        io.set_timer(self.rto_ns, (self.timer_base << 32) | self.timer_gen);
    }

    fn cancel_timer(&mut self) {
        self.timer_gen += 1;
    }

    /// Client: initiates the handshake.
    pub fn connect(&mut self, io: &mut Io) {
        assert_eq!(self.state, TcpState::Closed);
        self.state = TcpState::SynSent;
        let seg = Segment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq: 0,
            ack: 0,
            flags: FLAG_SYN,
            payload: Bytes::new(),
        };
        self.emit(io, seg);
        self.arm_timer(io);
    }

    /// Queues application data for transmission.
    pub fn send(&mut self, io: &mut Io, data: &[u8]) {
        self.snd_buf.extend(data.iter().copied());
        if self.state == TcpState::Established {
            self.pump(io);
        }
    }

    /// Requests a graceful close after all queued data is sent.
    pub fn close(&mut self, io: &mut Io) {
        self.fin_wanted = true;
        if self.state == TcpState::Established && self.snd_buf.is_empty() {
            self.send_fin(io);
        }
    }

    fn send_fin(&mut self, io: &mut Io) {
        self.state = TcpState::FinWait;
        let seg = Segment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            flags: FLAG_FIN | FLAG_ACK,
            payload: Bytes::new(),
        };
        self.emit(io, seg);
        self.arm_timer(io);
    }

    /// Transmits as much of the window as slow-start allows.
    fn pump(&mut self, io: &mut Io) {
        let in_flight = (self.snd_nxt - self.snd_una) as usize;
        let window = self.cwnd.min(self.max_window);
        let mut budget = window.saturating_sub(in_flight);
        let mut offset = in_flight; // index into snd_buf of first unsent byte
        let mut sent_any = false;
        while budget > 0 && offset < self.snd_buf.len() {
            let n = self.mss.min(budget).min(self.snd_buf.len() - offset);
            let chunk: Vec<u8> = self.snd_buf.iter().skip(offset).take(n).copied().collect();
            let seg = Segment {
                src_port: self.local_port,
                dst_port: self.remote_port,
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags: FLAG_ACK,
                payload: Bytes::from(chunk),
            };
            self.emit(io, seg);
            self.snd_nxt += n as u32;
            offset += n;
            budget -= n;
            sent_any = true;
        }
        if sent_any {
            self.arm_timer(io);
        }
    }

    /// Handles a timer; `true` if it belonged to this connection.
    pub fn on_timer(&mut self, io: &mut Io, id: u64) -> bool {
        if id >> 32 != self.timer_base {
            return false;
        }
        if id & 0xFFFF_FFFF != self.timer_gen {
            return true;
        }
        self.tel_timeouts.inc();
        match self.state {
            TcpState::SynSent => {
                let seg = Segment {
                    src_port: self.local_port,
                    dst_port: self.remote_port,
                    seq: 0,
                    ack: 0,
                    flags: FLAG_SYN,
                    payload: Bytes::new(),
                };
                self.emit(io, seg);
                self.retransmits += 1;
                self.tel_retransmits.inc();
                self.arm_timer(io);
            }
            TcpState::Established => {
                // Go-back-N: rewind and slow-start again.
                if self.snd_buf.is_empty() {
                    return true;
                }
                self.retransmits += 1;
                self.tel_retransmits.inc();
                self.snd_nxt = self.snd_una;
                self.cwnd = self.mss;
                self.pump(io);
            }
            TcpState::FinWait => {
                self.send_fin(io);
                self.retransmits += 1;
                self.tel_retransmits.inc();
            }
            _ => {}
        }
        true
    }

    /// Handles an incoming IP packet addressed to this connection.
    pub fn on_packet(&mut self, io: &mut Io, ip: &IpPacket) {
        if ip.proto != IpProto::Tcp || ip.dst != self.local_addr {
            return;
        }
        let Some(seg) = Segment::decode(&ip.payload) else {
            return;
        };
        if seg.dst_port != self.local_port {
            return;
        }
        match self.state {
            TcpState::Listen if seg.flags & FLAG_SYN != 0 => {
                self.remote_addr = ip.src;
                self.remote_port = seg.src_port;
                self.rcv_nxt = seg.seq.wrapping_add(1);
                self.state = TcpState::SynReceived;
                let syn_ack = Segment {
                    src_port: self.local_port,
                    dst_port: self.remote_port,
                    seq: 0,
                    ack: self.rcv_nxt,
                    flags: FLAG_SYN | FLAG_ACK,
                    payload: Bytes::new(),
                };
                self.emit(io, syn_ack);
                self.arm_timer(io);
            }
            TcpState::SynSent if seg.flags & (FLAG_SYN | FLAG_ACK) == FLAG_SYN | FLAG_ACK => {
                self.rcv_nxt = seg.seq.wrapping_add(1);
                self.snd_una = 1;
                self.snd_nxt = 1;
                self.state = TcpState::Established;
                self.cancel_timer();
                let ack = Segment {
                    src_port: self.local_port,
                    dst_port: self.remote_port,
                    seq: self.snd_nxt,
                    ack: self.rcv_nxt,
                    flags: FLAG_ACK,
                    payload: Bytes::new(),
                };
                self.emit(io, ack);
                self.pump(io);
            }
            TcpState::SynReceived if seg.flags & FLAG_ACK != 0 && seg.flags & FLAG_SYN == 0 => {
                self.snd_una = 1;
                self.snd_nxt = 1;
                self.state = TcpState::Established;
                self.cancel_timer();
                // The handshake ACK may carry data already.
                self.accept_data(io, &seg);
                self.pump(io);
            }
            TcpState::Established => {
                // ACK processing.
                if seg.flags & FLAG_ACK != 0 && seg.ack > self.snd_una {
                    let acked = (seg.ack - self.snd_una) as usize;
                    for _ in 0..acked.min(self.snd_buf.len()) {
                        self.snd_buf.pop_front();
                    }
                    self.snd_una = seg.ack;
                    // Slow start: one MSS per ACK, capped.
                    self.cwnd = (self.cwnd + self.mss).min(self.max_window);
                    if self.snd_una == self.snd_nxt {
                        self.cancel_timer();
                    } else {
                        self.arm_timer(io);
                    }
                    self.pump(io);
                    if self.snd_buf.is_empty() && self.fin_wanted {
                        self.send_fin(io);
                        return;
                    }
                }
                if seg.flags & FLAG_FIN != 0 {
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    let fin_ack = Segment {
                        src_port: self.local_port,
                        dst_port: self.remote_port,
                        seq: self.snd_nxt,
                        ack: self.rcv_nxt,
                        flags: FLAG_FIN | FLAG_ACK,
                        payload: Bytes::new(),
                    };
                    self.emit(io, fin_ack);
                    self.state = TcpState::Done;
                    self.cancel_timer();
                    return;
                }
                self.accept_data(io, &seg);
            }
            TcpState::FinWait
                if (seg.flags & FLAG_FIN != 0
                    || (seg.flags & FLAG_ACK != 0 && seg.ack > self.snd_nxt)) =>
            {
                self.state = TcpState::Done;
                self.cancel_timer();
            }
            _ => {}
        }
    }

    fn accept_data(&mut self, io: &mut Io, seg: &Segment) {
        if seg.payload.is_empty() {
            return;
        }
        if seg.seq == self.rcv_nxt {
            self.delivered.extend_from_slice(&seg.payload);
            self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
        }
        // Cumulative ACK (also for duplicates/out-of-order).
        let ack = Segment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            flags: FLAG_ACK,
            payload: Bytes::new(),
        };
        self.emit(io, ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::{Agent, Sim};

    /// Client that connects, sends a blob, closes.
    struct Client {
        conn: TcpConnection,
        data: Vec<u8>,
        pushed: bool,
    }
    /// Server that accepts and accumulates until the peer closes.
    struct Server {
        conn: TcpConnection,
        received: Vec<u8>,
    }

    impl Agent for Client {
        fn start(&mut self, io: &mut Io) {
            self.conn.connect(io);
        }
        fn on_frame(&mut self, io: &mut Io, raw: Bytes) {
            if let Some(ip) = IpPacket::decode(&raw) {
                self.conn.on_packet(io, &ip);
                if self.conn.is_established() && !self.pushed {
                    self.pushed = true;
                    let data = std::mem::take(&mut self.data);
                    self.conn.send(io, &data);
                    self.conn.close(io);
                }
            }
        }
        fn on_timer(&mut self, io: &mut Io, id: u64) {
            self.conn.on_timer(io, id);
        }
        fn finished(&self) -> bool {
            self.conn.is_done()
        }
    }

    impl Agent for Server {
        fn start(&mut self, _io: &mut Io) {}
        fn on_frame(&mut self, io: &mut Io, raw: Bytes) {
            if let Some(ip) = IpPacket::decode(&raw) {
                self.conn.on_packet(io, &ip);
                self.received.extend(self.conn.take_delivered());
            }
        }
        fn on_timer(&mut self, io: &mut Io, id: u64) {
            self.conn.on_timer(io, id);
        }
        fn finished(&self) -> bool {
            self.conn.is_done()
        }
    }

    fn run_transfer(
        size: usize,
        window: usize,
        link: LinkConfig,
        seed: u64,
    ) -> (bool, Vec<u8>, u64, u64) {
        let rto = 2 * link.rtt_ns() + 400_000_000;
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let mut client = Client {
            conn: TcpConnection::client((1, 5000), (2, 80), window, rto, 7),
            data: data.clone(),
            pushed: false,
        };
        let mut server = Server {
            conn: TcpConnection::listener((2, 80), window, rto, 7),
            received: vec![],
        };
        let mut sim = Sim::new(link, seed);
        let stats = sim.run(&mut client, &mut server, 7_200_000_000_000);
        let ok = stats.completed && server.received == data;
        (ok, server.received, stats.end_ns, client.conn.retransmits())
    }

    #[test]
    fn handshake_and_transfer_clean_link() {
        let (ok, rx, _, retx) = run_transfer(10_000, 64 * 1024, LinkConfig::clean_fast(), 1);
        assert!(ok, "received {} bytes", rx.len());
        assert_eq!(retx, 0);
    }

    #[test]
    fn transfer_over_geo_link() {
        let (ok, _, t, _) = run_transfer(100_000, 64 * 1024, LinkConfig::geo_default(), 2);
        assert!(ok);
        // 100 kB at 256 kbps ≈ 3.1 s serialisation minimum + handshake RTTs.
        let secs = t as f64 / 1e9;
        assert!(secs > 3.0 && secs < 20.0, "transfer took {secs} s");
    }

    #[test]
    fn larger_window_is_faster_over_geo() {
        // The RFC 2488 claim: over a long-delay link, window size governs
        // throughput until the pipe is full.
        let (ok_s, _, t_small, _) = run_transfer(200_000, 2 * 1024, LinkConfig::geo_default(), 3);
        let (ok_l, _, t_large, _) = run_transfer(200_000, 32 * 1024, LinkConfig::geo_default(), 3);
        assert!(ok_s && ok_l);
        assert!(
            t_large * 2 < t_small,
            "32k window {t_large} should at least halve 2k window {t_small}"
        );
    }

    #[test]
    fn recovers_from_loss() {
        let link = LinkConfig {
            ber: 1e-5,
            ..LinkConfig::geo_default()
        };
        let (ok, _, _, retx) = run_transfer(60_000, 16 * 1024, link, 4);
        assert!(ok, "transfer must survive loss");
        assert!(retx > 0, "losses should cause retransmissions");
    }

    #[test]
    fn segment_codec_roundtrip() {
        let s = Segment {
            src_port: 5000,
            dst_port: 80,
            seq: 123456,
            ack: 654321,
            flags: FLAG_ACK,
            payload: Bytes::from_static(b"stream bytes"),
        };
        assert_eq!(Segment::decode(&s.encode()), Some(s));
    }

    #[test]
    fn handshake_survives_syn_loss() {
        // Heavy loss on small frames: the SYN retransmit timer must kick in.
        let link = LinkConfig {
            ber: 2e-4, // ~22% loss on a 140-byte handshake frame
            ..LinkConfig::geo_default()
        };
        let mut any_ok = false;
        for seed in 0..5 {
            let (ok, _, _, _) = run_transfer(5_000, 16 * 1024, link, seed);
            any_ok |= ok;
        }
        assert!(any_ok, "at least one transfer should complete under loss");
    }
}
