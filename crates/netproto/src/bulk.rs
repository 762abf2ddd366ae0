//! N3 — bulk file transfer (FTP / SCPS-FP class) over TCP-lite.
//!
//! The paper: "For large transfer, FTP protocol, or SCPS-FP recommended by
//! CCSDS yielding to efficient transfer across the space link, may be
//! employed." The transfer streams the whole file through the TCP window —
//! so, unlike TFTP, throughput scales with window size instead of paying
//! one RTT per 512-byte block.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::ip::{IpAddr, IpPacket};
use crate::sim::{Agent, Io};
use crate::tcp::TcpConnection;
use bytes::{BufMut, Bytes, BytesMut};
use gsp_coding::wire::Reader;

/// Simple integrity checksum over the file (FNV-1a 32).
pub fn file_checksum(data: &[u8]) -> u32 {
    let mut h = 0x811C_9DC5u32;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Bulk sender: connects, streams `header ‖ data ‖ checksum`, closes.
pub struct BulkSender {
    conn: TcpConnection,
    filename: String,
    data: Vec<u8>,
    pushed: bool,
}

impl BulkSender {
    /// New sender of `data` to `remote`.
    pub fn new(
        local: (IpAddr, u16),
        remote: (IpAddr, u16),
        filename: &str,
        data: Vec<u8>,
        max_window: usize,
        rto_ns: u64,
    ) -> Self {
        BulkSender {
            conn: TcpConnection::client(local, remote, max_window, rto_ns, 21),
            filename: filename.to_string(),
            data,
            pushed: false,
        }
    }

    /// Retransmitted segment count (diagnostics).
    pub fn retransmits(&self) -> u64 {
        self.conn.retransmits()
    }
}

impl Agent for BulkSender {
    fn start(&mut self, io: &mut Io) {
        self.conn.connect(io);
    }

    fn on_frame(&mut self, io: &mut Io, raw: Bytes) {
        let Some(ip) = IpPacket::decode(&raw) else {
            return;
        };
        self.conn.on_packet(io, &ip);
        if self.conn.is_established() && !self.pushed {
            self.pushed = true;
            let data = std::mem::take(&mut self.data);
            let mut stream = BytesMut::with_capacity(data.len() + self.filename.len() + 10);
            stream.put_u16(self.filename.len() as u16);
            stream.put_slice(self.filename.as_bytes());
            stream.put_u32(data.len() as u32);
            stream.put_slice(&data);
            stream.put_u32(file_checksum(&data));
            self.conn.send(io, &stream);
            self.conn.close(io);
        }
    }

    fn on_timer(&mut self, io: &mut Io, id: u64) {
        self.conn.on_timer(io, id);
    }

    fn finished(&self) -> bool {
        self.conn.is_done()
    }
}

/// Bulk receiver: accepts the stream, parses the envelope, checks the
/// checksum.
pub struct BulkReceiver {
    conn: TcpConnection,
    buffer: Vec<u8>,
    /// Parsed filename (once the header arrived).
    pub filename: Option<String>,
    /// The received file, present once complete and checksum-verified.
    pub file: Option<Vec<u8>>,
    /// Set when the checksum failed.
    pub checksum_failed: bool,
}

impl BulkReceiver {
    /// New receiver listening on `local`.
    pub fn new(local: (IpAddr, u16), max_window: usize, rto_ns: u64) -> Self {
        BulkReceiver {
            conn: TcpConnection::listener(local, max_window, rto_ns, 22),
            buffer: Vec::new(),
            filename: None,
            file: None,
            checksum_failed: false,
        }
    }

    /// Parses `name_len u16 | name | size u32 | data | checksum u32`; a
    /// partial envelope waits for more of the stream.
    fn try_parse(&mut self) {
        if self.file.is_some() {
            return;
        }
        let mut r = Reader::new(&self.buffer);
        let Some(name_len) = r.u16() else {
            return;
        };
        let (Some(name), Some(size)) = (r.bytes(usize::from(name_len)), r.u32()) else {
            return;
        };
        if self.filename.is_none() {
            self.filename = Some(String::from_utf8_lossy(name).into_owned());
        }
        let (Some(data), Some(want)) = (r.bytes(size as usize), r.u32()) else {
            return;
        };
        if file_checksum(data) == want {
            self.file = Some(data.to_vec());
        } else {
            self.checksum_failed = true;
        }
    }
}

impl Agent for BulkReceiver {
    fn start(&mut self, _io: &mut Io) {}

    fn on_frame(&mut self, io: &mut Io, raw: Bytes) {
        let Some(ip) = IpPacket::decode(&raw) else {
            return;
        };
        self.conn.on_packet(io, &ip);
        let new = self.conn.take_delivered();
        if !new.is_empty() {
            self.buffer.extend(new);
            self.try_parse();
        }
    }

    fn on_timer(&mut self, io: &mut Io, id: u64) {
        self.conn.on_timer(io, id);
    }

    fn finished(&self) -> bool {
        self.conn.is_done() && (self.file.is_some() || self.checksum_failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::Sim;

    fn run(size: usize, window: usize, link: LinkConfig, seed: u64) -> (Option<Vec<u8>>, u64) {
        let data: Vec<u8> = (0..size).map(|i| (i * 7 % 253) as u8).collect();
        let rto = 2 * link.rtt_ns() + 400_000_000;
        let mut tx = BulkSender::new((1, 2100), (2, 21), "design.bit", data.clone(), window, rto);
        let mut rx = BulkReceiver::new((2, 21), window, rto);
        let mut sim = Sim::new(link, seed);
        let stats = sim.run(&mut tx, &mut rx, 24 * 3_600_000_000_000);
        let ok = rx.file.as_deref() == Some(&data[..]);
        (if ok { rx.file } else { None }, stats.end_ns)
    }

    #[test]
    fn transfers_file_clean_link() {
        let (file, _) = run(50_000, 32 * 1024, LinkConfig::clean_fast(), 1);
        assert!(file.is_some());
    }

    #[test]
    fn transfers_over_geo() {
        let (file, t) = run(100_000, 32 * 1024, LinkConfig::geo_default(), 2);
        assert!(file.is_some());
        // Close to the serialisation bound (3.1 s) plus a few RTTs of
        // handshake/slow-start — far from TFTP's RTT-per-block régime.
        let secs = t as f64 / 1e9;
        assert!(secs < 15.0, "bulk transfer took {secs} s");
    }

    #[test]
    fn survives_loss() {
        let link = LinkConfig {
            ber: 1e-5,
            ..LinkConfig::geo_default()
        };
        let (file, _) = run(60_000, 16 * 1024, link, 3);
        assert!(file.is_some());
    }

    #[test]
    fn filename_propagates() {
        let data = vec![9u8; 1000];
        let link = LinkConfig::clean_fast();
        let rto = 2 * link.rtt_ns() + 400_000_000;
        let mut tx = BulkSender::new((1, 2100), (2, 21), "tdma_p2.bit", data, 16 * 1024, rto);
        let mut rx = BulkReceiver::new((2, 21), 16 * 1024, rto);
        let mut sim = Sim::new(link, 4);
        sim.run(&mut tx, &mut rx, 1_000_000_000_000);
        assert_eq!(rx.filename.as_deref(), Some("tdma_p2.bit"));
    }

    #[test]
    fn checksum_helper_detects_change() {
        let a = file_checksum(b"bitstream content");
        let b = file_checksum(b"bitstream c0ntent");
        assert_ne!(a, b);
        assert_eq!(file_checksum(&[]), 0x811C_9DC5);
    }
}
