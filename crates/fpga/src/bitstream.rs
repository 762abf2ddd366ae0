//! Configuration bitstreams: framed, CRC-protected, serialisable.
//!
//! A bitstream is the unit the whole reconfiguration pipeline moves around:
//! built on the ground, transferred via `gsp-netproto`, stored in the
//! on-board memory/library of `gsp-payload`, loaded into a
//! [`crate::fabric::FpgaFabric`], and validated by CRC (§3.2: "at least one
//! auto-test of the new configuration will be realized (e.g. CRC applied on
//! the configuration)").

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{BufMut, Bytes, BytesMut};
use gsp_coding::wire::Reader;
use gsp_coding::{Crc, CrcKind};

/// Per-frame CRC-16 (D¹⁶+D¹²+D⁵+1), the read-back comparison baseline.
pub(crate) fn frame_crc(frame: &[u8]) -> u16 {
    Crc::new(CrcKind::Crc16).compute_bytes(frame) as u16
}

/// A configuration bitstream for a specific device geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitstream {
    /// Identifies the design (waveform personality, version…).
    pub design_id: u32,
    /// Target device name (checked at load time).
    pub device_name: String,
    /// Frame payloads, all of equal length.
    pub frames: Vec<Vec<u8>>,
    /// Per-frame CRC-16 (read-back comparison baseline).
    pub frame_crcs: Vec<u16>,
    /// Global CRC-24 over all frame payloads.
    pub global_crc: u32,
}

impl Bitstream {
    /// Builds a bitstream from raw frame payloads.
    pub fn new(design_id: u32, device_name: &str, frames: Vec<Vec<u8>>) -> Self {
        assert!(!frames.is_empty());
        let len = frames[0].len();
        assert!(frames.iter().all(|f| f.len() == len), "ragged frames");
        let frame_crcs = frames.iter().map(|f| frame_crc(f)).collect();
        let global_crc = Self::global_crc_of(&frames);
        Bitstream {
            design_id,
            device_name: device_name.to_string(),
            frames,
            frame_crcs,
            global_crc,
        }
    }

    /// Deterministically synthesises a bitstream for a design occupying
    /// `frames_used` of the device's frames (a stand-in for a real place &
    /// route result — content is a keyed pseudo-random pattern so distinct
    /// designs differ).
    pub fn synthesise(
        design_id: u32,
        device: &crate::device::FpgaDevice,
        frames_used: usize,
    ) -> Self {
        assert!(frames_used <= device.frames, "design larger than device");
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (design_id as u64).wrapping_mul(0xD129_42E2);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let frames: Vec<Vec<u8>> = (0..device.frames)
            .map(|f| {
                (0..device.frame_bytes)
                    .map(|_| {
                        if f < frames_used {
                            (next() >> 24) as u8
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        Bitstream::new(design_id, device.name, frames)
    }

    /// Recomputes the global CRC over frame payloads.
    pub fn global_crc_of(frames: &[Vec<u8>]) -> u32 {
        Crc::new(CrcKind::Crc24).compute_bytes(&frames.concat())
    }

    /// Total payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.frames.len() * self.frames[0].len()
    }

    /// Serialises to a wire format:
    /// `design_id u32 | name_len u16 | name | n_frames u32 | frame_bytes u32
    ///  | frames… | frame_crcs… | global_crc u32`.
    pub fn serialise(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.byte_len() + 64);
        buf.put_u32(self.design_id);
        buf.put_u16(self.device_name.len() as u16);
        buf.put_slice(self.device_name.as_bytes());
        buf.put_u32(self.frames.len() as u32);
        buf.put_u32(self.frames[0].len() as u32);
        for f in &self.frames {
            buf.put_slice(f);
        }
        for &c in &self.frame_crcs {
            buf.put_u16(c);
        }
        buf.put_u32(self.global_crc);
        buf.freeze()
    }

    /// Parses the wire format; validates structure and the global CRC.
    /// The geometry fixes the rest at `n_frames·(frame_bytes+2)+4` bytes,
    /// checked before allocating: shorter is `Truncated`, longer `BadGeometry`.
    pub fn deserialise(data: &[u8]) -> Result<Self, BitstreamError> {
        use BitstreamError::*;
        let mut r = Reader::new(data);
        let design_id = r.u32().ok_or(Truncated)?;
        let name_len = r.u16().ok_or(Truncated)?;
        let name = r.bytes(usize::from(name_len)).ok_or(Truncated)?;
        let name = String::from_utf8(name.to_vec()).map_err(|_| BadName)?;
        let n_frames = r.u32().ok_or(Truncated)? as usize;
        let frame_bytes = r.u32().ok_or(Truncated)? as usize;
        if n_frames == 0 || frame_bytes == 0 || n_frames > 1 << 16 || frame_bytes > 1 << 20 {
            return Err(BadGeometry);
        }
        let body_len = frame_bytes
            .checked_add(2)
            .and_then(|b| b.checked_mul(n_frames))
            .and_then(|b| b.checked_add(4))
            .ok_or(BadGeometry)?;
        if r.rest().len() != body_len {
            return Err(if r.rest().len() < body_len {
                Truncated
            } else {
                BadGeometry
            });
        }
        let frame_area = r.bytes(n_frames * frame_bytes).ok_or(Truncated)?; // ≤ body_len: no overflow
        let frames: Vec<Vec<u8>> = frame_area
            .chunks_exact(frame_bytes)
            .map(<[u8]>::to_vec)
            .collect();
        let mut frame_crcs = Vec::with_capacity(n_frames);
        for _ in 0..n_frames {
            frame_crcs.push(r.u16().ok_or(Truncated)?);
        }
        let global_crc = r.u32().ok_or(Truncated)?;
        // Integrity checks.
        for (i, (f, &crc)) in frames.iter().zip(&frame_crcs).enumerate() {
            if frame_crc(f) != crc {
                return Err(FrameCrc { frame: i });
            }
        }
        if Self::global_crc_of(&frames) != global_crc {
            return Err(GlobalCrc);
        }
        Ok(Bitstream {
            design_id,
            device_name: name,
            frames,
            frame_crcs,
            global_crc,
        })
    }
}

/// Bitstream parse/validation failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BitstreamError {
    /// Input shorter than the declared structure.
    Truncated,
    /// Device name is not UTF-8.
    BadName,
    /// Implausible frame geometry.
    BadGeometry,
    /// A frame failed its CRC-16.
    FrameCrc {
        /// Index of the corrupt frame.
        frame: usize,
    },
    /// The global CRC-24 failed.
    GlobalCrc,
}

impl std::fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitstreamError::Truncated => write!(f, "bitstream truncated"),
            BitstreamError::BadName => write!(f, "device name not UTF-8"),
            BitstreamError::BadGeometry => write!(f, "implausible frame geometry"),
            BitstreamError::FrameCrc { frame } => write!(f, "frame {frame} CRC mismatch"),
            BitstreamError::GlobalCrc => write!(f, "global CRC mismatch"),
        }
    }
}

impl std::error::Error for BitstreamError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;

    #[test]
    fn synthesise_geometry_matches_device() {
        let dev = FpgaDevice::small_100k();
        let bs = Bitstream::synthesise(7, &dev, 10);
        assert_eq!(bs.frames.len(), dev.frames);
        assert_eq!(bs.frames[0].len(), dev.frame_bytes);
        assert_eq!(bs.byte_len(), dev.frames * dev.frame_bytes);
        // Unused frames are zero.
        assert!(bs.frames[20].iter().all(|&b| b == 0));
        assert!(bs.frames[3].iter().any(|&b| b != 0));
    }

    #[test]
    fn distinct_designs_differ() {
        let dev = FpgaDevice::small_100k();
        let a = Bitstream::synthesise(1, &dev, 10);
        let b = Bitstream::synthesise(2, &dev, 10);
        assert_ne!(a.frames, b.frames);
        assert_ne!(a.global_crc, b.global_crc);
    }

    #[test]
    fn serialise_roundtrip() {
        let dev = FpgaDevice::small_100k();
        let bs = Bitstream::synthesise(42, &dev, 12);
        let wire = bs.serialise();
        let back = Bitstream::deserialise(&wire).expect("parse");
        assert_eq!(back, bs);
    }

    #[test]
    fn deserialise_detects_corruption() {
        let dev = FpgaDevice::small_100k();
        let bs = Bitstream::synthesise(42, &dev, 12);
        let mut wire = bs.serialise().to_vec();
        // Flip a payload bit inside frame 2.
        let hdr = 4 + 2 + dev.name.len() + 4 + 4;
        wire[hdr + 2 * dev.frame_bytes + 5] ^= 0x01;
        match Bitstream::deserialise(&wire) {
            Err(BitstreamError::FrameCrc { frame }) => assert_eq!(frame, 2),
            other => panic!("expected frame CRC error, got {other:?}"),
        }
    }

    #[test]
    fn deserialise_rejects_truncation() {
        let dev = FpgaDevice::small_100k();
        let wire = Bitstream::synthesise(1, &dev, 4).serialise();
        for cut in [3usize, 10, wire.len() / 2, wire.len() - 1] {
            assert!(Bitstream::deserialise(&wire[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn deserialise_checks_the_exact_length_before_allocating() {
        // A 14-byte header declaring 65 536 frames of 1 MiB: short, and
        // rejected before any frame slot is reserved.
        let mut hdr = vec![0, 0, 0, 1, 0, 0];
        hdr.extend_from_slice(&(1u32 << 16).to_be_bytes());
        hdr.extend_from_slice(&(1u32 << 20).to_be_bytes());
        assert_eq!(hdr.len(), 14);
        assert_eq!(Bitstream::deserialise(&hdr), Err(BitstreamError::Truncated));
    }

    #[test]
    fn deserialise_rejects_trailing_bytes() {
        let dev = FpgaDevice::small_100k();
        let mut wire = Bitstream::synthesise(1, &dev, 4).serialise().to_vec();
        wire.push(0);
        assert_eq!(
            Bitstream::deserialise(&wire),
            Err(BitstreamError::BadGeometry)
        );
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_frames() {
        let _ = Bitstream::new(1, "x", vec![vec![0; 8], vec![0; 9]]);
    }
}
