//! CRC attachment per 3G TS 25.212 §4.2.1.
//!
//! The four UMTS generator polynomials. Besides transport-block protection,
//! the payload reuses CRC-16/24 for FPGA-configuration validation (§3.2 of
//! the paper: "at least one auto-test of the new configuration will be
//! realized (e.g. CRC applied on the configuration)") and the read-back
//! SEU detection of §4.3.
//!
//! [`Crc::compute_bytes`] is the workspace's only byte CRC: TM/TC frames,
//! bitstream frames, read-back and housekeeping frames all use it.

/// The four 25.212 CRC lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrcKind {
    /// gCRC8(D) = D⁸ + D⁷ + D⁴ + D³ + D + 1
    Crc8,
    /// gCRC12(D) = D¹² + D¹¹ + D³ + D² + D + 1
    Crc12,
    /// gCRC16(D) = D¹⁶ + D¹² + D⁵ + 1
    Crc16,
    /// gCRC24(D) = D²⁴ + D²³ + D⁶ + D⁵ + D + 1
    Crc24,
}

impl CrcKind {
    /// Number of parity bits.
    pub const fn len(self) -> usize {
        match self {
            CrcKind::Crc8 => 8,
            CrcKind::Crc12 => 12,
            CrcKind::Crc16 => 16,
            CrcKind::Crc24 => 24,
        }
    }

    /// Never zero.
    pub fn is_empty(self) -> bool {
        false
    }

    /// Generator polynomial without the leading term, LSB = D⁰ coefficient.
    const fn poly(self) -> u32 {
        match self {
            CrcKind::Crc8 => 0b1001_1011,
            CrcKind::Crc12 => 0b1000_0000_1111,
            CrcKind::Crc16 => 0b0001_0000_0010_0001,
            CrcKind::Crc24 => 0b1000_0000_0000_0000_0110_0011,
        }
    }
}

/// Bit-serial CRC engine over 0/1 bit slices.
#[derive(Clone, Copy, Debug)]
pub struct Crc {
    kind: CrcKind,
}

impl Crc {
    /// Creates an engine for the given polynomial.
    pub const fn new(kind: CrcKind) -> Self {
        Crc { kind }
    }

    /// The parity bits of `bits` (MSB first, i.e. D^{L−1} coefficient
    /// first), per the 25.212 systematic-division definition.
    pub(crate) fn parity(&self, bits: &[u8]) -> impl Iterator<Item = u8> {
        let l = self.kind.len();
        let poly = self.kind.poly();
        let mut reg: u32 = 0;
        for &b in bits {
            debug_assert!(b <= 1);
            let fb = ((reg >> (l - 1)) as u8 ^ b) & 1;
            reg <<= 1;
            if fb == 1 {
                reg ^= poly;
            }
            reg &= (1u32 << l) - 1;
        }
        (0..l).map(move |i| ((reg >> (l - 1 - i)) & 1) as u8)
    }

    /// Computes the parity bits (MSB first, i.e. D^{L−1} coefficient first)
    /// for the message bits, per the 25.212 systematic-division definition.
    pub fn compute(&self, bits: &[u8]) -> Vec<u8> {
        self.parity(bits).collect()
    }

    /// Appends the parity to the message, returning `message ‖ crc`.
    pub fn attach(&self, bits: &[u8]) -> Vec<u8> {
        bits.iter().copied().chain(self.parity(bits)).collect()
    }

    /// Checks a `message ‖ crc` block; returns `Some(message)` when the
    /// parity verifies, `None` otherwise. Never allocates.
    pub fn check<'a>(&self, block: &'a [u8]) -> Option<&'a [u8]> {
        let l = self.kind.len();
        if block.len() < l {
            return None;
        }
        let (msg, parity) = block.split_at(block.len() - l);
        self.parity(msg).eq(parity.iter().copied()).then_some(msg)
    }

    /// Computes the CRC over a byte slice (MSB-first bit order) — the form
    /// used on FPGA bitstream frames and protocol packets. Equal to
    /// [`Crc::compute`] over the unpacked bits, read as an integer.
    pub fn compute_bytes(&self, data: &[u8]) -> u32 {
        use CrcKind::*;
        // One loop per polynomial, length and polynomial known at compile time.
        match self.kind {
            Crc8 => bytes_crc::<{ Crc8.len() }, { Crc8.poly() }>(data),
            Crc12 => bytes_crc::<{ Crc12.len() }, { Crc12.poly() }>(data),
            Crc16 => bytes_crc::<{ Crc16.len() }, { Crc16.poly() }>(data),
            Crc24 => bytes_crc::<{ Crc24.len() }, { Crc24.poly() }>(data),
        }
    }
}

/// Systematic division of `data` (MSB first) by the degree-`L` generator
/// `POLY`, with the register in the top `L` bits of a `u32` so a whole byte
/// enters at once: the same parity as feeding the bits one at a time.
#[inline(always)]
fn bytes_crc<const L: usize, const POLY: u32>(data: &[u8]) -> u32 {
    const { assert!(8 <= L && L <= 32) };
    let top_poly = POLY << (32 - L);
    let mut reg: u32 = 0;
    for &byte in data {
        reg ^= u32::from(byte) << 24;
        for _ in 0..8 {
            reg = if reg & 0x8000_0000 != 0 {
                (reg << 1) ^ top_poly
            } else {
                reg << 1
            };
        }
    }
    reg >> (32 - L)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_check_roundtrip_all_kinds() {
        for kind in [
            CrcKind::Crc8,
            CrcKind::Crc12,
            CrcKind::Crc16,
            CrcKind::Crc24,
        ] {
            let crc = Crc::new(kind);
            let msg: Vec<u8> = (0..100).map(|i| ((i * 5) % 7 < 3) as u8).collect();
            let block = crc.attach(&msg);
            assert_eq!(block.len(), msg.len() + kind.len());
            assert_eq!(crc.check(&block), Some(&msg[..]));
        }
    }

    #[test]
    fn detects_single_bit_errors() {
        for kind in [
            CrcKind::Crc8,
            CrcKind::Crc12,
            CrcKind::Crc16,
            CrcKind::Crc24,
        ] {
            let crc = Crc::new(kind);
            let msg: Vec<u8> = (0..64).map(|i| (i % 3 == 1) as u8).collect();
            let block = crc.attach(&msg);
            for pos in 0..block.len() {
                let mut bad = block.clone();
                bad[pos] ^= 1;
                assert!(crc.check(&bad).is_none(), "{kind:?} missed flip at {pos}");
            }
        }
    }

    #[test]
    fn detects_all_double_bit_errors_crc16() {
        let crc = Crc::new(CrcKind::Crc16);
        let msg: Vec<u8> = (0..40).map(|i| (i % 2) as u8).collect();
        let block = crc.attach(&msg);
        for i in 0..block.len() {
            for j in (i + 1)..block.len() {
                let mut bad = block.clone();
                bad[i] ^= 1;
                bad[j] ^= 1;
                assert!(crc.check(&bad).is_none(), "missed double flip {i},{j}");
            }
        }
    }

    #[test]
    fn burst_errors_within_crc_length_are_detected() {
        // A CRC of length L detects all bursts of length ≤ L.
        let crc = Crc::new(CrcKind::Crc12);
        let msg: Vec<u8> = (0..80).map(|i| ((i * 11) % 5 == 0) as u8).collect();
        let block = crc.attach(&msg);
        for start in 0..(block.len() - 12) {
            let mut bad = block.clone();
            for k in 0..12 {
                bad[start + k] ^= 1;
            }
            assert!(crc.check(&bad).is_none(), "missed burst at {start}");
        }
    }

    #[test]
    fn zero_message_yields_zero_parity() {
        // Systematic division of the all-zero message gives all-zero parity.
        let crc = Crc::new(CrcKind::Crc24);
        assert!(crc.compute(&[0u8; 50]).iter().all(|&b| b == 0));
    }

    #[test]
    fn empty_message_is_supported() {
        let crc = Crc::new(CrcKind::Crc8);
        let block = crc.attach(&[]);
        assert_eq!(block.len(), 8);
        assert!(crc.check(&block).is_some());
    }

    #[test]
    fn short_block_fails_check() {
        let crc = Crc::new(CrcKind::Crc16);
        assert!(crc.check(&[1, 0, 1]).is_none());
    }

    #[test]
    fn byte_crc_known_answers() {
        // "123456789" is the standard check string: 0x31C3 is the
        // CRC-16/XMODEM check value (same polynomial, zero init, no
        // reflection); 0x23EF52 pins the 25.212 CRC-24.
        assert_eq!(Crc::new(CrcKind::Crc16).compute_bytes(b"123456789"), 0x31C3);
        assert_eq!(
            Crc::new(CrcKind::Crc24).compute_bytes(b"123456789"),
            0x23EF52
        );
    }

    #[test]
    fn byte_crc_reference_behaviour() {
        let crc16 = Crc::new(CrcKind::Crc16);
        let crc24 = Crc::new(CrcKind::Crc24);
        assert_eq!(crc16.compute_bytes(&[]), 0);
        assert_ne!(
            crc16.compute_bytes(b"frame A"),
            crc16.compute_bytes(b"frame B")
        );
        assert_ne!(
            crc24.compute_bytes(b"frame A"),
            crc24.compute_bytes(b"frame B")
        );
        // A single-bit flip always changes the CRC.
        let base = crc16.compute_bytes(b"configuration");
        let mut data = b"configuration".to_vec();
        data[3] ^= 0x10;
        assert_ne!(crc16.compute_bytes(&data), base);
    }

    #[test]
    fn byte_crc_differs_on_different_data() {
        let crc = Crc::new(CrcKind::Crc24);
        let a = crc.compute_bytes(b"configuration frame A");
        let b = crc.compute_bytes(b"configuration frame B");
        assert_ne!(a, b);
    }

    #[test]
    fn byte_crc_matches_bit_crc() {
        let data: Vec<u8> = (0..67u32).map(|i| (i * 37 % 251) as u8 ^ 0xA5).collect();
        let bits: Vec<u8> = data
            .iter()
            .flat_map(|&byte| (0..8).rev().map(move |i| (byte >> i) & 1))
            .collect();
        for kind in [
            CrcKind::Crc8,
            CrcKind::Crc12,
            CrcKind::Crc16,
            CrcKind::Crc24,
        ] {
            let crc = Crc::new(kind);
            for n in 0..=data.len() {
                let from_bits = crc
                    .compute(&bits[..8 * n])
                    .iter()
                    .fold(0u32, |acc, &b| (acc << 1) | b as u32);
                assert_eq!(from_bits, crc.compute_bytes(&data[..n]), "{kind:?} {n}");
            }
        }
    }
}
