//! N2 — IPsec-ESP-like confidentiality wrapper.
//!
//! The paper: "Ipsec: defined for IP security purposes, a ciphering code is
//! performed on-board (it may be realized with FPGA and so possibly itself
//! reconfigurable)". We model the *mechanism* — sequence-numbered,
//! integrity-tagged, keyed payload transformation — with an LFSR keystream.
//!
//! **This is a simulation stand-in, not cryptography**: it exercises the
//! packet layout, overhead, replay-window and key-mismatch behaviour the
//! payload stack needs, nothing more (documented in DESIGN.md).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{BufMut, Bytes, BytesMut};
use gsp_coding::wire::Reader;

/// ESP-like header/trailer overhead: spi(4) seq(4) tag(4).
pub const ESP_OVERHEAD: usize = 12;

/// A security association: key + sequence state.
#[derive(Clone, Debug)]
pub struct SecurityAssociation {
    /// Security parameter index.
    pub spi: u32,
    key: u64,
    tx_seq: u32,
    /// Highest sequence accepted (anti-replay).
    rx_high: u32,
}

impl SecurityAssociation {
    /// Creates an SA with a 64-bit key.
    pub fn new(spi: u32, key: u64) -> Self {
        assert!(key != 0, "zero key would produce a null keystream");
        SecurityAssociation {
            spi,
            key,
            tx_seq: 0,
            rx_high: 0,
        }
    }

    /// Keystream byte `i` for sequence `seq` (xorshift over key/seq/i).
    fn keystream(&self, seq: u32, i: usize) -> u8 {
        let mut x = self
            .key
            .wrapping_add((seq as u64) << 32)
            .wrapping_add(i as u64)
            .wrapping_mul(0x2545_F491_4F6C_DD1D);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 32;
        x as u8
    }

    fn tag(&self, seq: u32, cipher: &[u8]) -> u32 {
        // Keyed FNV-ish integrity tag.
        let mut h = 0xCBF2_9CE4_8422_2325u64 ^ self.key ^ seq as u64;
        for &b in cipher {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
        (h >> 16) as u32
    }

    /// Wraps a plaintext payload: `spi | seq | ciphertext | tag`.
    pub fn protect(&mut self, plain: &[u8]) -> Bytes {
        self.tx_seq += 1;
        let seq = self.tx_seq;
        let mut b = BytesMut::with_capacity(plain.len() + ESP_OVERHEAD);
        b.put_u32(self.spi);
        b.put_u32(seq);
        for (i, &p) in plain.iter().enumerate() {
            b.put_u8(p ^ self.keystream(seq, i));
        }
        let tag = self.tag(seq, &b[8..]);
        b.put_u32(tag);
        b.freeze()
    }

    /// Unwraps a protected payload. `None` on SPI mismatch, bad tag, or
    /// replay (sequence not newer than the highest seen).
    pub fn unprotect(&mut self, wire: &[u8]) -> Option<Vec<u8>> {
        let cipher_len = wire.len().checked_sub(ESP_OVERHEAD)?;
        let mut r = Reader::new(wire);
        if r.u32()? != self.spi {
            return None;
        }
        let seq = r.u32()?;
        if seq <= self.rx_high {
            return None; // replay
        }
        let cipher = r.bytes(cipher_len)?;
        if self.tag(seq, cipher) != r.u32()? {
            return None;
        }
        self.rx_high = seq;
        Some(
            cipher
                .iter()
                .enumerate()
                .map(|(i, &c)| c ^ self.keystream(seq, i))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (SecurityAssociation, SecurityAssociation) {
        (
            SecurityAssociation::new(0x1001, 0xDEAD_BEEF_CAFE_F00D),
            SecurityAssociation::new(0x1001, 0xDEAD_BEEF_CAFE_F00D),
        )
    }

    #[test]
    fn protect_unprotect_roundtrip() {
        let (mut tx, mut rx) = pair();
        let msg = b"load bitstream design 7 on equipment 3";
        let wire = tx.protect(msg);
        assert_eq!(wire.len(), msg.len() + ESP_OVERHEAD);
        assert_eq!(rx.unprotect(&wire).as_deref(), Some(&msg[..]));
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let (mut tx, _) = pair();
        let msg = vec![0u8; 64];
        let wire = tx.protect(&msg);
        // Keystream must actually change the payload bytes.
        assert!(wire[8..8 + 64].iter().any(|&b| b != 0));
    }

    #[test]
    fn wrong_key_rejected() {
        let (mut tx, _) = pair();
        let mut rx = SecurityAssociation::new(0x1001, 0x1234_5678_9ABC_DEF0);
        let wire = tx.protect(b"secret");
        assert!(rx.unprotect(&wire).is_none());
    }

    #[test]
    fn tampering_rejected() {
        let (mut tx, mut rx) = pair();
        let wire = tx.protect(b"command payload").to_vec();
        for pos in 8..wire.len() - 4 {
            let mut bad = wire.clone();
            bad[pos] ^= 0x80;
            assert!(rx.unprotect(&bad).is_none(), "tamper at {pos}");
        }
    }

    #[test]
    fn replay_rejected() {
        let (mut tx, mut rx) = pair();
        let w1 = tx.protect(b"one");
        let w2 = tx.protect(b"two");
        assert!(rx.unprotect(&w2).is_some());
        // Older sequence replayed after a newer one was accepted.
        assert!(rx.unprotect(&w1).is_none());
        // And direct duplicates fail too.
        assert!(rx.unprotect(&w2).is_none());
    }

    #[test]
    fn sequences_increment() {
        let (mut tx, mut rx) = pair();
        for i in 0..10 {
            let msg = vec![i as u8; 16];
            let wire = tx.protect(&msg);
            assert_eq!(rx.unprotect(&wire), Some(msg));
        }
    }

    #[test]
    fn spi_mismatch_rejected() {
        let (mut tx, _) = pair();
        let mut other = SecurityAssociation::new(0x2002, 0xDEAD_BEEF_CAFE_F00D);
        let wire = tx.protect(b"x");
        assert!(other.unprotect(&wire).is_none());
    }
}
