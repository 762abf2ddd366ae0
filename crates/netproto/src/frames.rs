//! N1 — the transfer system: TM/TC transfer frames on virtual channels.
//!
//! The paper's §3.3: the TM/TC architecture offers a *channel service*
//! ("establishment of an error-controlled data path to the spacecraft")
//! and a *data routing service* ("data unit received from upper layer are,
//! if needed, segmented … encapsulated into data transfer structure …
//! transferred over virtual channel"), with two modes:
//!
//! * **express** — fire-and-forget, "adapted to the transfer of small test
//!   in the question/response mode";
//! * **controlled** — a go-back-N ARQ (a FOP/FARM-lite), "well suited to
//!   the reliable transfer of data configuration, or for a long test".
//!
//! Frames carry a CRC-16; the link simulator models corruption as loss,
//! which is what a CRC-discarding receiver observes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::sim::Io;
use bytes::{BufMut, Bytes, BytesMut};
use gsp_coding::wire::Reader;
use gsp_coding::{Crc, CrcKind};
use gsp_telemetry::{Counter, Registry};
use std::collections::VecDeque;

/// The frame error control field of the TC/TM transfer frame format:
/// CRC-16 (polynomial 0x1021, MSB-first) over header and payload.
const FECF: Crc = Crc::new(CrcKind::Crc16);

/// Maximum payload bytes per transfer frame.
pub const MAX_FRAME_PAYLOAD: usize = 1017;
/// Frame overhead: vcid(1) flags(1) seq(1) len(2) crc(2).
pub const FRAME_OVERHEAD: usize = 7;

/// Frame-service mode (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameMode {
    /// No ARQ.
    Express,
    /// Go-back-N ARQ with the given window (≤ 64).
    Controlled {
        /// Sender window in frames.
        window: usize,
    },
}

const FLAG_FIRST: u8 = 0b0001;
const FLAG_LAST: u8 = 0b0010;
const FLAG_ACK: u8 = 0b0100;
const FLAG_CONTROLLED: u8 = 0b1000;

/// Encodes one transfer frame.
fn encode_frame(vcid: u8, flags: u8, seq: u8, payload: &[u8]) -> Bytes {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    let mut b = BytesMut::with_capacity(payload.len() + FRAME_OVERHEAD);
    b.put_u8(vcid);
    b.put_u8(flags);
    b.put_u8(seq);
    b.put_u16(payload.len() as u16);
    b.put_slice(payload);
    let crc = FECF.compute_bytes(&b);
    b.put_u16(crc as u16);
    b.freeze()
}

/// A decoded transfer frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Virtual channel.
    pub vcid: u8,
    /// Flag bits.
    pub flags: u8,
    /// Sequence number (per VC).
    pub seq: u8,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Frame {
    /// Encodes this frame (header + payload + CRC-16).
    pub fn encode(&self) -> Bytes {
        encode_frame(self.vcid, self.flags, self.seq, &self.payload)
    }

    /// Parses and CRC-checks a frame. `None` = malformed/corrupt.
    pub fn decode(raw: &[u8]) -> Option<Frame> {
        let (body, fecf) = raw.split_at(raw.len().checked_sub(2)?);
        if FECF.compute_bytes(body) != u32::from(Reader::new(fecf).u16()?) {
            return None;
        }
        let mut r = Reader::new(body);
        let (vcid, flags, seq, len) = (r.u8()?, r.u8()?, r.u8()?, r.u16()?);
        (r.rest().len() == usize::from(len)).then(|| Frame {
            vcid,
            flags,
            seq,
            payload: Bytes::copy_from_slice(r.rest()),
        })
    }

    /// Is this an ACK frame?
    pub fn is_ack(&self) -> bool {
        self.flags & FLAG_ACK != 0
    }
}

/// One direction of the N1 service on one virtual channel: a sender for
/// local PDUs and a receiver/reassembler for the peer's frames.
///
/// Embed one per agent; route incoming frames for this `vcid` through
/// [`FrameService::on_frame`], deliver the returned PDUs upward.
#[derive(Debug)]
pub struct FrameService {
    /// Virtual channel id (paper: "some virtual channels may be dedicated
    /// to the reconfiguration procedure").
    pub vcid: u8,
    mode: FrameMode,
    /// Timer-id namespace: ids are `(timer_base << 32) | generation`.
    timer_base: u64,
    rto_ns: u64,
    // Sender state.
    next_seq: u8,
    base_seq: u8,
    outstanding: VecDeque<(u8, Bytes)>, // encoded frames in flight
    backlog: VecDeque<Bytes>,           // encoded frames not yet in window
    timer_gen: u64,
    retransmissions: u64,
    /// Shared `netproto.n1.retransmissions` counter (no-op by default).
    tel_retransmissions: Counter,
    // Receiver state.
    expected_seq: u8,
    assembling: Vec<u8>,
    in_progress: bool,
}

/// Result of processing one incoming frame.
#[derive(Debug, Default)]
pub struct FrameDelivery {
    /// Fully reassembled upper-layer PDUs.
    pub pdus: Vec<Bytes>,
}

impl FrameService {
    /// Creates the service. `timer_base` must be unique per service within
    /// the owning agent. `rto_ns` is the controlled-mode retransmit timeout
    /// (set ≳ RTT + serialisation).
    pub fn new(vcid: u8, mode: FrameMode, timer_base: u64, rto_ns: u64) -> Self {
        if let FrameMode::Controlled { window } = mode {
            assert!((1..=64).contains(&window), "window must be 1..=64");
        }
        FrameService {
            vcid,
            mode,
            timer_base,
            rto_ns,
            next_seq: 0,
            base_seq: 0,
            outstanding: VecDeque::new(),
            backlog: VecDeque::new(),
            timer_gen: 0,
            retransmissions: 0,
            tel_retransmissions: Counter::noop(),
            expected_seq: 0,
            assembling: Vec::new(),
            in_progress: false,
        }
    }

    /// Total controlled-mode retransmissions so far.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Registers the `netproto.n1.retransmissions` counter on `registry`.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.tel_retransmissions = registry.counter("netproto.n1.retransmissions");
    }

    /// `true` when every submitted PDU has been acknowledged (controlled)
    /// or transmitted (express).
    pub fn idle(&self) -> bool {
        self.outstanding.is_empty() && self.backlog.is_empty()
    }

    fn mode_flag(&self) -> u8 {
        match self.mode {
            FrameMode::Express => 0,
            FrameMode::Controlled { .. } => FLAG_CONTROLLED,
        }
    }

    /// Segments and submits one upper-layer PDU.
    pub fn send_pdu(&mut self, io: &mut Io, pdu: &[u8]) {
        let n_frames = pdu.len().div_ceil(MAX_FRAME_PAYLOAD).max(1);
        for (i, chunk) in pdu
            .chunks(MAX_FRAME_PAYLOAD)
            .chain(std::iter::repeat_n(&[][..], usize::from(pdu.is_empty())))
            .enumerate()
        {
            let mut flags = self.mode_flag();
            if i == 0 {
                flags |= FLAG_FIRST;
            }
            if i == n_frames - 1 {
                flags |= FLAG_LAST;
            }
            let frame = encode_frame(self.vcid, flags, self.next_seq, chunk);
            self.next_seq = self.next_seq.wrapping_add(1);
            self.backlog.push_back(frame);
        }
        self.pump(io);
    }

    /// Moves backlog frames into the window and transmits them.
    fn pump(&mut self, io: &mut Io) {
        match self.mode {
            FrameMode::Express => {
                while let Some(f) = self.backlog.pop_front() {
                    io.send(f);
                }
            }
            FrameMode::Controlled { window } => {
                let mut sent_any = false;
                while self.outstanding.len() < window {
                    let Some(f) = self.backlog.pop_front() else {
                        break;
                    };
                    let seq = f[2];
                    io.send(f.clone());
                    self.outstanding.push_back((seq, f));
                    sent_any = true;
                }
                if sent_any {
                    self.arm_timer(io);
                }
            }
        }
    }

    fn arm_timer(&mut self, io: &mut Io) {
        self.timer_gen += 1;
        io.set_timer(self.rto_ns, (self.timer_base << 32) | self.timer_gen);
    }

    /// Handles a timer; returns `true` if the id belonged to this service.
    pub fn on_timer(&mut self, io: &mut Io, id: u64) -> bool {
        if id >> 32 != self.timer_base {
            return false;
        }
        if id & 0xFFFF_FFFF != self.timer_gen {
            return true; // stale generation — cancelled
        }
        if self.outstanding.is_empty() {
            return true;
        }
        // Go-back-N: resend every outstanding frame.
        for (_, f) in &self.outstanding {
            io.send(f.clone());
            self.retransmissions += 1;
            self.tel_retransmissions.inc();
        }
        self.arm_timer(io);
        true
    }

    /// Handles an incoming raw frame for this VC. Returns reassembled PDUs.
    pub fn on_frame(&mut self, io: &mut Io, frame: &Frame) -> FrameDelivery {
        let mut out = FrameDelivery::default();
        if frame.vcid != self.vcid {
            return out;
        }
        if frame.is_ack() {
            // Cumulative ACK: frame.seq = next seq the receiver expects.
            let ack = frame.seq;
            let mut advanced = false;
            while let Some(&(s, _)) = self.outstanding.front() {
                // s < ack in wrapping arithmetic (distance < 128).
                if ack.wrapping_sub(s).wrapping_sub(1) < 128 {
                    self.outstanding.pop_front();
                    self.base_seq = s.wrapping_add(1);
                    advanced = true;
                } else {
                    break;
                }
            }
            if advanced {
                if self.outstanding.is_empty() {
                    self.timer_gen += 1; // cancel
                } else {
                    self.arm_timer(io);
                }
                self.pump(io);
            }
            return out;
        }

        // Data frame.
        let controlled = frame.flags & FLAG_CONTROLLED != 0;
        if controlled {
            if frame.seq == self.expected_seq {
                self.expected_seq = self.expected_seq.wrapping_add(1);
                self.accept(frame, &mut out);
            }
            // ACK with next expected (cumulative), data or duplicate alike.
            io.send(encode_frame(
                self.vcid,
                FLAG_ACK | FLAG_CONTROLLED,
                self.expected_seq,
                &[],
            ));
        } else {
            // Express: sequence gaps abort the current reassembly.
            if frame.seq != self.expected_seq {
                self.in_progress = false;
                self.assembling.clear();
            }
            self.expected_seq = frame.seq.wrapping_add(1);
            self.accept(frame, &mut out);
        }
        out
    }

    fn accept(&mut self, frame: &Frame, out: &mut FrameDelivery) {
        if frame.flags & FLAG_FIRST != 0 {
            self.assembling.clear();
            self.in_progress = true;
        }
        if !self.in_progress {
            return; // lost the head of this PDU
        }
        self.assembling.extend_from_slice(&frame.payload);
        if frame.flags & FLAG_LAST != 0 {
            out.pdus
                .push(Bytes::from(std::mem::take(&mut self.assembling)));
            self.in_progress = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::{Agent, Side, Sim};

    #[test]
    fn frame_codec_roundtrip() {
        let f = encode_frame(3, FLAG_FIRST | FLAG_LAST, 42, b"hello payload");
        let d = Frame::decode(&f).expect("decode");
        assert_eq!(d.vcid, 3);
        assert_eq!(d.seq, 42);
        assert_eq!(&d.payload[..], b"hello payload");
        assert!(!d.is_ack());
    }

    #[test]
    fn frame_decode_rejects_corruption() {
        let f = encode_frame(1, FLAG_FIRST, 0, b"data");
        for pos in 0..f.len() {
            let mut bad = f.to_vec();
            bad[pos] ^= 0x40;
            assert!(Frame::decode(&bad).is_none(), "flip at {pos} accepted");
        }
    }

    /// A file sender over a FrameService and a matching receiver.
    struct FileTx {
        svc: FrameService,
        data: Vec<u8>,
        started: bool,
    }
    struct FileRx {
        svc: FrameService,
        received: Vec<Bytes>,
        want_pdus: usize,
    }

    impl Agent for FileTx {
        fn start(&mut self, io: &mut crate::sim::Io) {
            let data = std::mem::take(&mut self.data);
            self.svc.send_pdu(io, &data);
            self.started = true;
        }
        fn on_frame(&mut self, io: &mut crate::sim::Io, raw: Bytes) {
            if let Some(f) = Frame::decode(&raw) {
                self.svc.on_frame(io, &f);
            }
        }
        fn on_timer(&mut self, io: &mut crate::sim::Io, id: u64) {
            self.svc.on_timer(io, id);
        }
        fn finished(&self) -> bool {
            self.started && self.svc.idle()
        }
    }

    impl Agent for FileRx {
        fn start(&mut self, _io: &mut crate::sim::Io) {}
        fn on_frame(&mut self, io: &mut crate::sim::Io, raw: Bytes) {
            if let Some(f) = Frame::decode(&raw) {
                let d = self.svc.on_frame(io, &f);
                self.received.extend(d.pdus);
            }
        }
        fn on_timer(&mut self, io: &mut crate::sim::Io, id: u64) {
            self.svc.on_timer(io, id);
        }
        fn finished(&self) -> bool {
            self.received.len() >= self.want_pdus
        }
    }

    fn transfer(mode: FrameMode, ber: f64, size: usize, seed: u64) -> (bool, Vec<Bytes>, u64) {
        let link = LinkConfig {
            ber,
            ..LinkConfig::geo_default()
        };
        let rto = 2 * link.rtt_ns() + 200_000_000;
        let data: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
        let mut tx = FileTx {
            svc: FrameService::new(5, mode, 1, rto),
            data: data.clone(),
            started: false,
        };
        let mut rx = FileRx {
            svc: FrameService::new(5, mode, 1, rto),
            received: vec![],
            want_pdus: 1,
        };
        let mut sim = Sim::new(link, seed);
        let stats = sim.run(&mut tx, &mut rx, 3_600_000_000_000);
        let ok = !rx.received.is_empty() && rx.received[0][..] == data[..];
        (ok, rx.received.clone(), stats.end_ns)
    }

    #[test]
    fn express_delivers_on_clean_link() {
        let (ok, pdus, _) = transfer(FrameMode::Express, 0.0, 10_000, 1);
        assert!(ok);
        assert_eq!(pdus.len(), 1);
    }

    #[test]
    fn controlled_delivers_on_clean_link() {
        let (ok, _, _) = transfer(FrameMode::Controlled { window: 8 }, 0.0, 10_000, 1);
        assert!(ok);
    }

    #[test]
    fn controlled_survives_lossy_link() {
        // BER 1e-5 on 1 KiB frames → ~8% frame loss; go-back-N recovers.
        let (ok, _, _) = transfer(FrameMode::Controlled { window: 8 }, 1e-5, 50_000, 2);
        assert!(ok, "controlled mode must deliver through loss");
    }

    #[test]
    fn express_corrupts_on_lossy_link() {
        // The same loss rate breaks at least one fire-and-forget transfer.
        let mut any_fail = false;
        for seed in 0..8 {
            let (ok, _, _) = transfer(FrameMode::Express, 1e-5, 50_000, seed);
            any_fail |= !ok;
        }
        assert!(any_fail, "express mode should drop PDUs over a lossy link");
    }

    #[test]
    fn controlled_window_takes_round_trips() {
        // 50 KiB in 1 KiB frames with window 8 needs ⌈50/8⌉ ≈ 7 RTT-paced
        // bursts on a clean link; check the time is RTT-dominated.
        let (ok, _, t) = transfer(FrameMode::Controlled { window: 8 }, 0.0, 50_000, 3);
        assert!(ok);
        let rtt = LinkConfig::geo_default().rtt_ns();
        assert!(t > 5 * rtt, "{t} should exceed 5 RTT");
        // Express (no ARQ pacing) finishes much faster.
        let (_, _, t_express) = transfer(FrameMode::Express, 0.0, 50_000, 3);
        assert!(t_express < t, "express {t_express} vs controlled {t}");
    }

    #[test]
    fn retransmission_counter_increments_under_loss() {
        let link = LinkConfig {
            ber: 3e-5,
            ..LinkConfig::geo_default()
        };
        let rto = 2 * link.rtt_ns() + 200_000_000;
        let data = vec![7u8; 30_000];
        let mut tx = FileTx {
            svc: FrameService::new(5, FrameMode::Controlled { window: 4 }, 1, rto),
            data,
            started: false,
        };
        let mut rx = FileRx {
            svc: FrameService::new(5, FrameMode::Controlled { window: 4 }, 1, rto),
            received: vec![],
            want_pdus: 1,
        };
        let mut sim = Sim::new(link, 11);
        sim.run(&mut tx, &mut rx, 3_600_000_000_000);
        assert!(tx.svc.retransmissions() > 0);
    }

    #[test]
    fn controlled_mode_survives_sequence_wraparound() {
        // A 300 kB PDU spans ~300 frames: the u8 sequence space wraps at
        // least once; cumulative ACK arithmetic must keep working.
        let (ok, pdus, _) = transfer(FrameMode::Controlled { window: 16 }, 0.0, 300_000, 7);
        assert!(ok, "wraparound transfer failed");
        assert_eq!(pdus[0].len(), 300_000);
    }

    #[test]
    fn express_mode_survives_sequence_wraparound() {
        let (ok, _, _) = transfer(FrameMode::Express, 0.0, 400_000, 8);
        assert!(ok);
    }

    #[test]
    fn different_vcid_is_ignored() {
        let mut svc = FrameService::new(2, FrameMode::Express, 1, 1_000_000);
        let f = Frame::decode(&encode_frame(9, FLAG_FIRST | FLAG_LAST, 0, b"x")).unwrap();
        let mut io_like = crate::sim::Io {
            now_ns: 0,
            side: Side::Ground,
            actions: Vec::new(),
        };
        let d = svc.on_frame(&mut io_like, &f);
        assert!(d.pdus.is_empty());
    }
}
