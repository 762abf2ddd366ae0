//! Bit-vector helpers shared across the coding stack.

/// Packs a slice of 0/1 bits (MSB first) into bytes, zero-padding the tail.
pub fn pack_bits(bits: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    pack_bits_into(bits, &mut out);
    out
}

/// [`pack_bits`] into `out` (cleared first). A reused buffer of sufficient
/// capacity makes repeated calls allocation-free.
pub fn pack_bits_into(bits: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let pack =
        |chunk: &[u8]| (0..chunk.len()).fold(0u8, |byte, i| byte | (chunk[i] & 1) << (7 - i));
    out.extend(bits.chunks(8).map(pack));
}

/// Unpacks bytes into `n_bits` 0/1 bits, MSB first.
pub fn unpack_bits(bytes: &[u8], n_bits: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n_bits);
    unpack_bits_into(bytes, n_bits, &mut out);
    out
}

/// Unpacks bytes into `n_bits` 0/1 bits (MSB first) written into `out`
/// (cleared first). A reused buffer of sufficient capacity makes repeated
/// calls allocation-free.
pub fn unpack_bits_into(bytes: &[u8], n_bits: usize, out: &mut Vec<u8>) {
    assert!(n_bits <= bytes.len() * 8);
    out.clear();
    out.extend((0..n_bits).map(|i| (bytes[i / 8] >> (7 - i % 8)) & 1));
}

/// Maps a code bit to an antipodal symbol: bit 0 → +1.0, bit 1 → −1.0.
///
/// With this convention a *positive* LLR means "bit 0 more likely", matching
/// every decoder in this crate.
#[inline]
pub fn bit_to_symbol(bit: u8) -> f64 {
    1.0 - 2.0 * bit as f64
}

/// Hard decision on an LLR under the crate convention.
#[inline]
pub fn llr_to_bit(llr: f64) -> u8 {
    if llr >= 0.0 {
        0
    } else {
        1
    }
}

/// Converts a bit slice to noiseless LLRs of magnitude `scale`.
pub fn bits_to_llrs(bits: &[u8], scale: f64) -> Vec<f64> {
    bits.iter().map(|&b| bit_to_symbol(b) * scale).collect()
}

/// Hard-decides a slice of LLRs.
pub fn llrs_to_bits(llrs: &[f64]) -> Vec<u8> {
    llrs.iter().map(|&l| llr_to_bit(l)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let bits: Vec<u8> = (0..37).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        let packed = pack_bits(&bits);
        assert_eq!(packed.len(), 5);
        assert_eq!(unpack_bits(&packed, 37), bits);
    }

    #[test]
    fn pack_is_msb_first() {
        assert_eq!(pack_bits(&[1, 0, 0, 0, 0, 0, 0, 0]), vec![0x80]);
        assert_eq!(pack_bits(&[0, 0, 0, 0, 0, 0, 0, 1]), vec![0x01]);
        assert_eq!(pack_bits(&[1]), vec![0x80]);
    }

    #[test]
    fn symbol_llr_convention_is_consistent() {
        assert_eq!(bit_to_symbol(0), 1.0);
        assert_eq!(bit_to_symbol(1), -1.0);
        assert_eq!(llr_to_bit(2.5), 0);
        assert_eq!(llr_to_bit(-0.1), 1);
        let bits = vec![0u8, 1, 1, 0, 1];
        assert_eq!(llrs_to_bits(&bits_to_llrs(&bits, 4.0)), bits);
    }
}
