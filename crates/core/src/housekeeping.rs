//! Housekeeping telemetry downlink: the observability plane on the wire.
//!
//! The paper's Fig. 1 platform carries a telemetry channel to the
//! operation centre; this module gives the metrics registry
//! ([`gsp_telemetry::Registry`]) a seat on it. A housekeeping frame is a
//! metrics [`Snapshot`] serialised as JSON lines and wrapped in a small
//! TM-style envelope:
//!
//! ```text
//! "HK" magic (2) | payload length (4, BE) | JSON-lines payload | CRC-24 (3, BE)
//! ```
//!
//! The CRC-24 is the same polynomial the reconfiguration service uses to
//! attest a loaded bitstream ([`gsp_coding::CrcKind::Crc24`]). A frame
//! that fails any envelope check — magic, length, CRC, or a malformed
//! payload line — is rejected whole, like any other corrupted TM frame:
//! the NCC keeps its previous picture rather than ingesting half of one.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use gsp_coding::wire::Reader;
use gsp_coding::{Crc, CrcKind};
use gsp_telemetry::Snapshot;

/// Frame magic: ASCII "HK".
pub const HK_MAGIC: [u8; 2] = *b"HK";

/// Envelope overhead in bytes (magic + length + CRC-24).
pub const HK_OVERHEAD: usize = 2 + 4 + 3;

/// Encodes a metrics snapshot as one housekeeping downlink frame.
pub fn encode_frame(snapshot: &Snapshot) -> Vec<u8> {
    let payload = snapshot.to_json_lines().into_bytes();
    let mut frame = Vec::with_capacity(payload.len() + HK_OVERHEAD);
    frame.extend_from_slice(&HK_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    let crc = Crc::new(CrcKind::Crc24).compute_bytes(&frame);
    frame.extend_from_slice(&crc.to_be_bytes()[1..]);
    frame
}

/// Decodes a housekeeping frame back into a snapshot (the NCC's side).
///
/// Returns `None` when the magic, declared length, CRC-24 or any payload
/// line is wrong — a corrupted frame never yields a partial snapshot.
pub fn decode_frame(frame: &[u8]) -> Option<Snapshot> {
    let (body, parity) = frame.split_at(frame.len().checked_sub(3)?);
    let mut r = Reader::new(body);
    let (magic, len, payload) = (r.bytes(HK_MAGIC.len())?, r.u32()?, r.rest());
    if magic != HK_MAGIC
        || len as usize != payload.len()
        || Crc::new(CrcKind::Crc24).compute_bytes(body).to_be_bytes()[1..] != *parity
    {
        return None;
    }
    Snapshot::from_json_lines(std::str::from_utf8(payload).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsp_telemetry::Registry;

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.counter("payload.frames").add(12);
        reg.counter("payload.crc.failures").add(1);
        reg.gauge("payload.workers").set(6.0);
        let h = reg.histogram_ns("payload.demod.ns");
        for v in [80_000u64, 95_000, 110_000, 2_000_000] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn frame_roundtrips_bit_exact() {
        let snap = sample_snapshot();
        let frame = encode_frame(&snap);
        let back = decode_frame(&frame).expect("clean frame decodes");
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = Snapshot::default();
        let frame = encode_frame(&snap);
        assert_eq!(frame.len(), HK_OVERHEAD);
        assert_eq!(decode_frame(&frame), Some(snap));
    }

    #[test]
    fn any_flipped_bit_rejects_the_frame() {
        let frame = encode_frame(&sample_snapshot());
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x01;
            assert!(
                decode_frame(&bad).is_none(),
                "flip in byte {byte} slipped through"
            );
        }
    }

    #[test]
    fn truncated_and_padded_frames_reject() {
        let frame = encode_frame(&sample_snapshot());
        assert!(decode_frame(&frame[..frame.len() - 1]).is_none());
        let mut long = frame.clone();
        long.push(0);
        assert!(decode_frame(&long).is_none());
        assert!(decode_frame(&[]).is_none());
    }
}
