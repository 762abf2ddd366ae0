//! N2 — the data system: IP-like datagrams and UDP-like transport.
//!
//! The paper: "IP: addresses are assigned to satellite devices (IP address
//! are reserved for satellite use)" and "according to the upper protocol
//! either TCP (for a controlled transfer) or UDP (for an express transfer)
//! is needed". Headers follow the real formats in spirit (version,
//! protocol, ports, checksum) at reduced width.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{BufMut, Bytes, BytesMut};
use gsp_coding::wire::Reader;

/// Device addresses on the payload network.
pub type IpAddr = u32;

/// The NCC's address.
pub const ADDR_NCC: IpAddr = 0x0A00_0001;
/// The on-board processor controller.
pub const ADDR_OBPC: IpAddr = 0x0A00_0101;

/// Transport protocol numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpProto {
    /// UDP-like datagrams.
    Udp,
    /// TCP-like stream segments.
    Tcp,
    /// ESP-like encrypted payloads.
    Esp,
}

impl IpProto {
    fn code(self) -> u8 {
        match self {
            IpProto::Udp => 17,
            IpProto::Tcp => 6,
            IpProto::Esp => 50,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        match c {
            17 => Some(IpProto::Udp),
            6 => Some(IpProto::Tcp),
            50 => Some(IpProto::Esp),
            _ => None,
        }
    }
}

/// An IP-like packet.
#[derive(Clone, Debug, PartialEq)]
pub struct IpPacket {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Transport protocol.
    pub proto: IpProto,
    /// Transport payload.
    pub payload: Bytes,
}

/// IP header bytes: ver(1) proto(1) len(2) src(4) dst(4) checksum(2).
pub const IP_HEADER: usize = 14;

impl IpPacket {
    /// Encodes the packet.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(IP_HEADER + self.payload.len());
        b.put_u8(4); // version
        b.put_u8(self.proto.code());
        b.put_u16((IP_HEADER + self.payload.len()) as u16);
        b.put_u32(self.src);
        b.put_u32(self.dst);
        let ck = internet_checksum(&b);
        b.put_u16(ck);
        b.put_slice(&self.payload);
        b.freeze()
    }

    /// Decodes and validates a packet.
    pub fn decode(raw: &[u8]) -> Option<IpPacket> {
        let mut r = Reader::new(raw);
        let header = r.bytes(IP_HEADER - 2)?;
        if internet_checksum(header) != r.u16()? {
            return None;
        }
        let mut h = Reader::new(header);
        let (version, proto, len) = (h.u8()?, h.u8()?, h.u16()?);
        if version != 4 || usize::from(len) != raw.len() {
            return None;
        }
        Some(IpPacket {
            src: h.u32()?,
            dst: h.u32()?,
            proto: IpProto::from_code(proto)?,
            payload: Bytes::copy_from_slice(r.rest()),
        })
    }
}

/// 16-bit one's-complement checksum (RFC 1071 style).
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// A UDP-like datagram.
#[derive(Clone, Debug, PartialEq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload.
    pub payload: Bytes,
}

/// UDP header: ports(4) len(2).
pub const UDP_HEADER: usize = 6;

impl UdpDatagram {
    /// Encodes the datagram.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(UDP_HEADER + self.payload.len());
        b.put_u16(self.src_port);
        b.put_u16(self.dst_port);
        b.put_u16((UDP_HEADER + self.payload.len()) as u16);
        b.put_slice(&self.payload);
        b.freeze()
    }

    /// Decodes a datagram.
    pub fn decode(raw: &[u8]) -> Option<UdpDatagram> {
        let mut r = Reader::new(raw);
        let (src_port, dst_port, len) = (r.u16()?, r.u16()?, r.u16()?);
        if usize::from(len) != raw.len() {
            return None;
        }
        Some(UdpDatagram {
            src_port,
            dst_port,
            payload: Bytes::copy_from_slice(r.rest()),
        })
    }
}

/// Convenience: wraps a UDP payload in UDP+IP.
pub fn udp_packet(src: IpAddr, dst: IpAddr, sport: u16, dport: u16, payload: Bytes) -> Bytes {
    IpPacket {
        src,
        dst,
        proto: IpProto::Udp,
        payload: UdpDatagram {
            src_port: sport,
            dst_port: dport,
            payload,
        }
        .encode(),
    }
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_roundtrip() {
        let p = IpPacket {
            src: ADDR_NCC,
            dst: ADDR_OBPC,
            proto: IpProto::Udp,
            payload: Bytes::from_static(b"payload data"),
        };
        let raw = p.encode();
        assert_eq!(IpPacket::decode(&raw), Some(p));
    }

    #[test]
    fn ip_rejects_header_corruption() {
        let p = IpPacket {
            src: 1,
            dst: 2,
            proto: IpProto::Tcp,
            payload: Bytes::from_static(b"x"),
        };
        let mut raw = p.encode().to_vec();
        raw[5] ^= 0x01; // src byte
        assert!(IpPacket::decode(&raw).is_none());
    }

    #[test]
    fn ip_rejects_truncation_and_bad_version() {
        let p = IpPacket {
            src: 1,
            dst: 2,
            proto: IpProto::Esp,
            payload: Bytes::from_static(b"abcdef"),
        };
        let raw = p.encode();
        assert!(IpPacket::decode(&raw[..raw.len() - 1]).is_none());
        let mut bad = raw.to_vec();
        bad[0] = 6;
        assert!(IpPacket::decode(&bad).is_none());
    }

    #[test]
    fn udp_roundtrip() {
        let d = UdpDatagram {
            src_port: 69,
            dst_port: 3069,
            payload: Bytes::from_static(b"RRQ bitstream.bin"),
        };
        assert_eq!(UdpDatagram::decode(&d.encode()), Some(d));
    }

    #[test]
    fn udp_length_mismatch_rejected() {
        let d = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            payload: Bytes::from_static(b"abc"),
        };
        let mut raw = d.encode().to_vec();
        raw.push(0); // extra byte
        assert!(UdpDatagram::decode(&raw).is_none());
    }

    #[test]
    fn checksum_detects_byte_swap() {
        // One's-complement checksum catches single-byte changes.
        let a = internet_checksum(b"\x01\x02\x03\x04");
        let b = internet_checksum(b"\x01\x03\x03\x04");
        assert_ne!(a, b);
        // All-zero data checksums to 0xFFFF.
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xFFFF);
    }

    #[test]
    fn full_udp_ip_stack_roundtrip() {
        let raw = udp_packet(ADDR_NCC, ADDR_OBPC, 1000, 69, Bytes::from_static(b"hi"));
        let ip = IpPacket::decode(&raw).unwrap();
        assert_eq!(ip.proto, IpProto::Udp);
        assert_eq!(ip.dst, ADDR_OBPC);
        let udp = UdpDatagram::decode(&ip.payload).unwrap();
        assert_eq!(&udp.payload[..], b"hi");
    }
}
