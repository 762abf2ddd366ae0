//! N3 — TFTP (RFC 1350 subset) over UDP/IP.
//!
//! The paper: "IETF TFTP protocol based on UDP, is used by a client asking
//! a server for reading or writing a file. As TFTP sends just one block up
//! to 512 bytes and then stops until the reception of the acknowledgement,
//! it has to be used only for small transfer for efficiency reason, during
//! the set-up or the test phases." Experiment E4 quantifies exactly that
//! over the GEO link.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::backoff::BackoffPolicy;
use crate::ip::{udp_packet, IpAddr, IpPacket, IpProto, UdpDatagram};
use crate::sim::{Agent, Io};
use bytes::{BufMut, Bytes, BytesMut};
use gsp_coding::wire::Reader;
use gsp_telemetry::{Counter, Registry};

/// TFTP data block size (RFC 1350).
pub const BLOCK: usize = 512;
/// Well-known TFTP port.
pub const TFTP_PORT: u16 = 69;

/// Largest file one RFC 1350 transfer can carry. Block numbers are u16
/// counting from 1 and the transfer must end with a short (possibly
/// empty) block, so at most `u16::MAX` data blocks fit: 65534 full
/// blocks plus a final short one.
pub const MAX_FILE_BYTES: usize = BLOCK * u16::MAX as usize - 1;

/// Errors from constructing a TFTP endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TftpError {
    /// The file needs more data blocks than the u16 block number can
    /// count; the block counter would wrap mid-transfer.
    FileTooLarge {
        /// Requested file size.
        bytes: usize,
        /// Largest representable size ([`MAX_FILE_BYTES`]).
        max: usize,
    },
}

impl std::fmt::Display for TftpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TftpError::FileTooLarge { bytes, max } => write!(
                f,
                "file of {bytes} bytes exceeds the TFTP u16 block-number \
                 limit ({max} bytes)"
            ),
        }
    }
}

impl std::error::Error for TftpError {}

const OP_WRQ: u16 = 2;
const OP_DATA: u16 = 3;
const OP_ACK: u16 = 4;
const OP_ERROR: u16 = 5;

fn msg_wrq(filename: &str) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u16(OP_WRQ);
    b.put_slice(filename.as_bytes());
    b.put_u8(0);
    b.put_slice(b"octet");
    b.put_u8(0);
    b.freeze()
}

fn msg_data(block: u16, data: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + data.len());
    b.put_u16(OP_DATA);
    b.put_u16(block);
    b.put_slice(data);
    b.freeze()
}

fn msg_ack(block: u16) -> Bytes {
    let mut b = BytesMut::with_capacity(4);
    b.put_u16(OP_ACK);
    b.put_u16(block);
    b.freeze()
}

/// TFTP write client (the NCC uploading a file to the satellite).
#[derive(Debug)]
pub struct TftpWriter {
    local: IpAddr,
    remote: IpAddr,
    filename: String,
    data: Vec<u8>,
    /// Next block to send (0 = WRQ phase).
    block: u16,
    done: bool,
    backoff: BackoffPolicy,
    /// Transmissions of the current unit already performed.
    attempt: u32,
    /// Jitter stream key (decorrelates concurrent transfers).
    stream: u64,
    gave_up: bool,
    timer_gen: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Shared `netproto.tftp.retransmissions` counter (no-op by default).
    tel_retransmissions: Counter,
}

impl TftpWriter {
    /// New writer for `data` named `filename`, retransmitting on the
    /// given backoff schedule (use [`BackoffPolicy::fixed`] for the
    /// classic constant-RTO behaviour).
    ///
    /// Fails with [`TftpError::FileTooLarge`] when `data` would need more
    /// than `u16::MAX` blocks: block numbers would silently wrap and the
    /// transfer could never terminate correctly.
    pub fn new(
        local: IpAddr,
        remote: IpAddr,
        filename: &str,
        data: Vec<u8>,
        backoff: BackoffPolicy,
    ) -> Result<Self, TftpError> {
        if data.len() > MAX_FILE_BYTES {
            return Err(TftpError::FileTooLarge {
                bytes: data.len(),
                max: MAX_FILE_BYTES,
            });
        }
        let stream = rand::splitmix64_mix(
            ((local as u64) << 32) ^ remote as u64 ^ (data.len() as u64).rotate_left(17),
        );
        Ok(TftpWriter {
            local,
            remote,
            filename: filename.to_string(),
            data,
            block: 0,
            done: false,
            backoff,
            attempt: 0,
            stream,
            gave_up: false,
            timer_gen: 0,
            retransmissions: 0,
            tel_retransmissions: Counter::noop(),
        })
    }

    /// Resumes an interrupted transfer at `first_block` (1-based): the
    /// WRQ phase is skipped and transmission starts at that DATA block.
    /// Valid only against a server that already holds the transfer state
    /// for this file (it keeps `filename`/`expected_block` across writer
    /// restarts); the server's cumulative-ACK rule re-synchronises a
    /// writer that resumes one block behind.
    pub fn resume(
        local: IpAddr,
        remote: IpAddr,
        filename: &str,
        data: Vec<u8>,
        backoff: BackoffPolicy,
        first_block: u16,
    ) -> Result<Self, TftpError> {
        let mut w = Self::new(local, remote, filename, data, backoff)?;
        w.block = first_block.clamp(1, w.total_blocks());
        Ok(w)
    }

    /// The block the writer is currently trying to deliver (0 = WRQ).
    /// After a give-up, this is where a resumed transfer should restart.
    pub fn next_block(&self) -> u16 {
        self.block
    }

    /// Whether the writer abandoned the transfer after exhausting the
    /// backoff policy's attempt budget on one unit.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Registers the `netproto.tftp.retransmissions` counter on `registry`.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.tel_retransmissions = registry.counter("netproto.tftp.retransmissions");
    }

    fn current_payload(&self) -> Bytes {
        if self.block == 0 {
            msg_wrq(&self.filename)
        } else {
            let start = (self.block as usize - 1) * BLOCK;
            let end = (start + BLOCK).min(self.data.len());
            msg_data(self.block, &self.data[start.min(self.data.len())..end])
        }
    }

    fn transmit(&mut self, io: &mut Io) {
        let payload = self.current_payload();
        io.send(udp_packet(
            self.local,
            self.remote,
            3069,
            TFTP_PORT,
            payload,
        ));
        self.timer_gen += 1;
        let delay = self
            .backoff
            .delay_ns(self.attempt, self.stream ^ ((self.block as u64) << 48));
        io.set_timer(delay, self.timer_gen);
    }

    /// Number of data blocks in the file (a final short/empty block ends
    /// the transfer per RFC 1350). The constructor bounds `data` so this
    /// always fits in u16 without wrapping.
    fn total_blocks(&self) -> u16 {
        (self.data.len() / BLOCK + 1) as u16
    }
}

impl Agent for TftpWriter {
    fn start(&mut self, io: &mut Io) {
        self.transmit(io);
    }

    fn on_frame(&mut self, io: &mut Io, raw: Bytes) {
        if self.done {
            return;
        }
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
        let (Some(op), Some(blk)) = (r.u16(), r.u16()) else {
            return;
        };
        if op == OP_ACK && blk == self.block {
            if self.block == self.total_blocks() {
                self.done = true;
                self.timer_gen += 1; // cancel
                return;
            }
            self.block += 1;
            self.attempt = 0;
            self.transmit(io);
        } else if op == OP_ERROR {
            self.done = true;
        }
    }

    fn on_timer(&mut self, io: &mut Io, id: u64) {
        if self.done || id != self.timer_gen {
            return;
        }
        if self.backoff.exhausted(self.attempt + 1) {
            // Attempt budget spent on this unit: stop hammering a dead
            // link and report failure upward (the caller may resume at
            // `next_block()` once the channel recovers).
            self.gave_up = true;
            self.done = true;
            return;
        }
        self.attempt += 1;
        self.retransmissions += 1;
        self.tel_retransmissions.inc();
        self.transmit(io);
    }

    fn finished(&self) -> bool {
        self.done
    }
}

/// TFTP write server (the satellite's on-board file receiver).
pub struct TftpServer {
    local: IpAddr,
    /// Received file content (valid when `complete`).
    pub received: Vec<u8>,
    /// Name from the WRQ.
    pub filename: Option<String>,
    expected_block: u16,
    /// Transfer complete?
    pub complete: bool,
}

impl TftpServer {
    /// New idle server.
    pub fn new(local: IpAddr) -> Self {
        TftpServer {
            local,
            received: Vec::new(),
            filename: None,
            expected_block: 0,
            complete: false,
        }
    }
}

impl Agent for TftpServer {
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
        if udp.dst_port != TFTP_PORT {
            return;
        }
        let mut r = Reader::new(&udp.payload);
        match r.u16() {
            Some(OP_WRQ) => {
                if self.filename.is_none() {
                    let name = r.rest().split(|&b| b == 0).next().unwrap_or_default();
                    self.filename = Some(String::from_utf8_lossy(name).into_owned());
                    self.expected_block = 1;
                }
                // (Re-)acknowledge the request.
                io.send(udp_packet(
                    self.local,
                    ip.src,
                    TFTP_PORT,
                    udp.src_port,
                    msg_ack(0),
                ));
            }
            Some(OP_DATA) => {
                let Some(blk) = r.u16() else {
                    return;
                };
                let data = r.rest();
                if blk == self.expected_block {
                    self.received.extend_from_slice(data);
                    self.expected_block += 1;
                    if data.len() < BLOCK {
                        self.complete = true;
                    }
                }
                // ACK the highest in-order block (covers duplicates).
                io.send(udp_packet(
                    self.local,
                    ip.src,
                    TFTP_PORT,
                    udp.src_port,
                    msg_ack(
                        self.expected_block
                            .wrapping_sub(1)
                            .max(if blk < self.expected_block { blk } else { 0 }),
                    ),
                ));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _io: &mut Io, _id: u64) {}

    fn finished(&self) -> bool {
        self.complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::{Action, Side, Sim};

    /// A free-standing Io handle for driving an agent callback directly
    /// (no simulator), so timer and duplicate handling can be tested
    /// deterministically.
    fn mk_io() -> Io {
        Io {
            now_ns: 0,
            side: Side::Ground,
            actions: Vec::new(),
        }
    }

    /// Frames the agent queued on this Io.
    fn sends(io: &Io) -> Vec<Bytes> {
        io.actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(f) => Some(f.clone()),
                _ => None,
            })
            .collect()
    }

    /// (opcode, block) of a TFTP frame the writer sent.
    fn tftp_header(frame: &Bytes) -> (u16, u16) {
        let ip = IpPacket::decode(frame).expect("ip");
        let udp = UdpDatagram::decode(&ip.payload).expect("udp");
        (
            u16::from_be_bytes([udp.payload[0], udp.payload[1]]),
            u16::from_be_bytes([udp.payload[2], udp.payload[3]]),
        )
    }

    /// An ACK frame as the server at address 2 would send it.
    fn ack_frame(block: u16) -> Bytes {
        udp_packet(2, 1, TFTP_PORT, 3069, msg_ack(block))
    }

    fn run(size: usize, link: LinkConfig, seed: u64) -> (bool, Vec<u8>, u64, u64) {
        let data: Vec<u8> = (0..size).map(|i| (i * 13 % 251) as u8).collect();
        let rto = 2 * link.rtt_ns() + 300_000_000;
        let mut w =
            TftpWriter::new(1, 2, "design.bit", data.clone(), BackoffPolicy::fixed(rto)).unwrap();
        let mut s = TftpServer::new(2);
        let mut sim = Sim::new(link, seed);
        let stats = sim.run(&mut w, &mut s, 24 * 3_600_000_000_000);
        let ok = stats.completed && s.received == data;
        (ok, s.received, stats.end_ns, w.retransmissions)
    }

    #[test]
    fn small_file_clean_link() {
        let (ok, rx, _, retx) = run(1_000, LinkConfig::clean_fast(), 1);
        assert!(ok, "got {} bytes", rx.len());
        assert_eq!(retx, 0);
    }

    #[test]
    fn exact_multiple_of_block_size() {
        // 1024 = 2 full blocks; RFC 1350 requires a trailing empty block.
        let (ok, rx, _, _) = run(1024, LinkConfig::clean_fast(), 2);
        assert!(ok);
        assert_eq!(rx.len(), 1024);
    }

    #[test]
    fn empty_file() {
        let (ok, rx, _, _) = run(0, LinkConfig::clean_fast(), 3);
        assert!(ok);
        assert!(rx.is_empty());
    }

    #[test]
    fn stop_and_wait_costs_one_rtt_per_block() {
        // The paper's complaint quantified: N blocks ≈ N·RTT on GEO.
        let link = LinkConfig::geo_default();
        let size = 20 * BLOCK;
        let (ok, _, t, _) = run(size, link, 4);
        assert!(ok);
        let blocks = (size / BLOCK + 1) as u64 + 1; // data blocks + WRQ
        let rtt = link.rtt_ns();
        assert!(
            t > blocks * rtt,
            "t={t} should exceed {blocks}·RTT={}",
            blocks * rtt
        );
        // And it is RTT-dominated, not bandwidth-dominated: the same file
        // takes ~40× longer than its serialisation time.
        let serial = link.tx_time_ns(size, true);
        assert!(t > 10 * serial);
    }

    #[test]
    fn survives_lossy_link_with_retransmission() {
        let link = LinkConfig {
            ber: 1e-5,
            ..LinkConfig::geo_default()
        };
        let (ok, _, _, retx) = run(8 * BLOCK, link, 5);
        assert!(ok);
        // With ~4% frame loss over 18 exchanges, retransmissions are likely
        // but not guaranteed; just require successful completion and that
        // the counter is consistent.
        let _ = retx;
    }

    #[test]
    fn completes_under_twenty_percent_loss_within_retry_budget() {
        // The FDIR uplink regime: every fifth frame erased outright.
        // The jittered-backoff budget (8 transmissions per unit) must be
        // enough to push 8 blocks through without giving up.
        let link = LinkConfig {
            loss_prob: 0.2,
            ..LinkConfig::clean_fast()
        };
        let data: Vec<u8> = (0..8 * BLOCK).map(|i| (i * 7 % 251) as u8).collect();
        let policy = BackoffPolicy::for_link(&link);
        let mut w = TftpWriter::new(1, 2, "lossy.bit", data.clone(), policy).unwrap();
        let mut s = TftpServer::new(2);
        let mut sim = Sim::new(link, 11);
        let stats = sim.run(&mut w, &mut s, 3_600_000_000_000);
        assert!(stats.completed, "transfer must finish under 20% loss");
        assert!(!w.gave_up());
        assert_eq!(s.received, data);
        assert!(
            w.retransmissions > 0,
            "20% loss over 18 exchanges must cost retransmissions"
        );
        assert!(
            w.retransmissions < 8 * 10,
            "budget respected: {} retransmissions",
            w.retransmissions
        );
    }

    #[test]
    fn gives_up_after_attempt_budget_and_resumes_mid_file() {
        // A black-hole channel: the writer must stop after its budget,
        // report where it stood, and a resumed writer must finish the
        // file against the same server without re-sending the prefix.
        let policy = BackoffPolicy {
            base_ns: 1_000_000,
            max_ns: 4_000_000,
            jitter: 0.0,
            max_attempts: 3,
        };
        let data: Vec<u8> = (0..3 * BLOCK + 10).map(|i| (i % 251) as u8).collect();
        let mut w = TftpWriter::new(1, 2, "resume.bit", data.clone(), policy).unwrap();
        let mut s = TftpServer::new(2);

        // Session 1: deliver WRQ + block 1, then the channel dies.
        let mut io = mk_io();
        w.start(&mut io);
        for f in sends(&io) {
            let mut sio = mk_io();
            s.on_frame(&mut sio, f);
            for ack in sends(&sio) {
                let mut wio = mk_io();
                w.on_frame(&mut wio, ack);
                // Deliver DATA 1 but swallow everything after it.
                if w.next_block() == 1 {
                    for d in sends(&wio) {
                        let mut sio2 = mk_io();
                        s.on_frame(&mut sio2, d);
                        // ACK 1 is lost: the writer times out on block 1.
                    }
                }
            }
        }
        assert_eq!(s.received.len(), BLOCK, "server holds block 1");
        // Exhaust the budget: timer generations advance by one per send.
        for gen in 2..=4 {
            let mut tio = mk_io();
            w.on_timer(&mut tio, gen);
        }
        assert!(w.gave_up() && w.finished());
        assert_eq!(w.next_block(), 1, "gave up while re-sending block 1");

        // Session 2: channel restored; resume against the SAME server.
        // The server (expecting 2) re-ACKs the duplicate block 1 and the
        // rest flows normally.
        let mut w2 = TftpWriter::resume(
            1,
            2,
            "resume.bit",
            data.clone(),
            BackoffPolicy::fixed(1_000_000),
            w.next_block(),
        )
        .unwrap();
        let mut sim = Sim::new(LinkConfig::clean_fast(), 12);
        let stats = sim.run(&mut w2, &mut s, 1_000_000_000_000);
        assert!(stats.completed);
        assert_eq!(s.received, data, "resumed transfer completes the file");
    }

    #[test]
    fn retransmits_after_timeout_and_ignores_stale_timers() {
        let mut w = TftpWriter::new(
            1,
            2,
            "f.bit",
            vec![7u8; 700],
            BackoffPolicy::fixed(1_000_000),
        )
        .unwrap();
        let mut io0 = mk_io();
        w.start(&mut io0);
        let first = sends(&io0);
        assert_eq!(first.len(), 1, "start sends exactly the WRQ");
        assert_eq!(tftp_header(&first[0]).0, OP_WRQ);

        // No ACK arrives, the RTO fires (generation 1 is current): the
        // writer must resend the identical frame and count it.
        let mut io1 = mk_io();
        w.on_timer(&mut io1, 1);
        let retx = sends(&io1);
        assert_eq!(w.retransmissions, 1);
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0], first[0], "retransmission repeats the frame");

        // The resend armed generation 2; the old generation-1 timer is
        // now stale and must be ignored (no spurious retransmission).
        let mut io2 = mk_io();
        w.on_timer(&mut io2, 1);
        assert_eq!(w.retransmissions, 1);
        assert!(sends(&io2).is_empty(), "stale timer must not retransmit");
    }

    #[test]
    fn duplicate_acks_do_not_advance_or_resend() {
        // 700 bytes = DATA 1 (512) + DATA 2 (188, short → final).
        let data = vec![3u8; 700];
        let mut w = TftpWriter::new(1, 2, "f.bit", data, BackoffPolicy::fixed(1_000_000)).unwrap();
        let mut io = mk_io();
        w.start(&mut io);

        let mut io = mk_io();
        w.on_frame(&mut io, ack_frame(0));
        let s = sends(&io);
        assert_eq!(s.len(), 1);
        assert_eq!(tftp_header(&s[0]), (OP_DATA, 1));

        // Duplicate ACK 0 (e.g. the server re-ACKed a repeated WRQ): the
        // writer is waiting for ACK 1 and must neither advance the block
        // counter nor inject another frame into the link.
        let mut io = mk_io();
        w.on_frame(&mut io, ack_frame(0));
        assert!(sends(&io).is_empty(), "duplicate ACK must be ignored");
        assert_eq!(w.retransmissions, 0);

        // The expected ACK still advances the transfer normally.
        let mut io = mk_io();
        w.on_frame(&mut io, ack_frame(1));
        let s = sends(&io);
        assert_eq!(s.len(), 1);
        assert_eq!(tftp_header(&s[0]), (OP_DATA, 2));

        let mut io = mk_io();
        w.on_frame(&mut io, ack_frame(2));
        assert!(sends(&io).is_empty());
        assert!(w.finished(), "final short block ACKed → done");
    }

    #[test]
    fn oversized_file_errors_cleanly_instead_of_wrapping() {
        // One byte past the limit needs a 65536th block — the u16 block
        // number would wrap to 0 and the transfer could never finish.
        assert_eq!(MAX_FILE_BYTES + 1, BLOCK * u16::MAX as usize);
        let err = TftpWriter::new(
            1,
            2,
            "huge.bit",
            vec![0u8; MAX_FILE_BYTES + 1],
            BackoffPolicy::fixed(1),
        )
        .unwrap_err();
        assert_eq!(
            err,
            TftpError::FileTooLarge {
                bytes: MAX_FILE_BYTES + 1,
                max: MAX_FILE_BYTES
            }
        );
        assert!(err.to_string().contains("block-number limit"));

        // The largest representable file still constructs fine.
        let w = TftpWriter::new(
            1,
            2,
            "big.bit",
            vec![0u8; MAX_FILE_BYTES],
            BackoffPolicy::fixed(1),
        )
        .unwrap();
        assert_eq!(w.total_blocks(), u16::MAX);
    }

    #[test]
    fn filename_is_recorded() {
        let data = vec![1u8; 100];
        let rto = 300_000_000;
        let mut w =
            TftpWriter::new(1, 2, "cdma_to_tdma.bit", data, BackoffPolicy::fixed(rto)).unwrap();
        let mut s = TftpServer::new(2);
        let mut sim = Sim::new(LinkConfig::clean_fast(), 6);
        sim.run(&mut w, &mut s, 1_000_000_000_000);
        assert_eq!(s.filename.as_deref(), Some("cdma_to_tdma.bit"));
    }
}
