//! The burst codec: the one place that decides which CRC and which FEC
//! protect a block, and how long the coded block is. It owns its working
//! buffers and sizes them when built, so once the caller's output buffers
//! have grown, encoding and decoding never touch the heap.

use crate::kernels::{self, TrellisKernelHandle};
use crate::{
    CodingScheme, ConvCode, ConvEncoder, Crc, CrcKind, TurboCode, TurboDecoder, ViterbiDecoder,
};

/// The FEC engine a [`CodingScheme`] selects.
#[derive(Clone, Debug)]
enum Engine {
    Uncoded,
    Conv(ConvEncoder, ViterbiDecoder),
    /// The decoder carries the code; the `usize` is its iteration count.
    Turbo(TurboDecoder, usize),
}

/// CRC attachment, then one [`CodingScheme`], for one information-block
/// size.
#[derive(Clone, Debug)]
pub struct BurstCodec {
    crc: Option<CrcKind>,
    info_bits: usize,
    engine: Engine,
    /// Scratch: the CRC-protected block `info ‖ crc`, on either side.
    protected: Vec<u8>,
}

impl BurstCodec {
    /// A codec for `info_bits`-bit blocks. `backend` pins the Viterbi
    /// decoder to one kernel backend; `None` follows the process-wide
    /// selection, as [`ViterbiDecoder::new`] does. It has no effect on the
    /// turbo decoder, whose recursions are scalar on every backend.
    pub fn new(
        scheme: CodingScheme,
        crc: Option<CrcKind>,
        info_bits: usize,
        backend: Option<TrellisKernelHandle>,
    ) -> Self {
        let k = info_bits + crc.map_or(0, CrcKind::len);
        let conv = |code: ConvCode| {
            let mut viterbi =
                ViterbiDecoder::with_kernels(code.clone(), backend.unwrap_or_else(kernels::active));
            viterbi.reserve_steps(k + code.memory() as usize);
            Engine::Conv(ConvEncoder::new(code), viterbi)
        };
        let engine = match scheme {
            CodingScheme::Uncoded => Engine::Uncoded,
            CodingScheme::ConvHalf => conv(ConvCode::umts_half()),
            CodingScheme::ConvThird => conv(ConvCode::umts_third()),
            CodingScheme::Turbo { iterations } => {
                Engine::Turbo(TurboDecoder::new(TurboCode::new(k)), iterations)
            }
        };
        BurstCodec {
            protected: Vec::with_capacity(k),
            crc,
            info_bits,
            engine,
        }
    }

    /// Information bits per block.
    pub fn info_bits(&self) -> usize {
        self.info_bits
    }

    /// Coded bits per block, tails included.
    pub fn coded_len(&self) -> usize {
        let k = self.info_bits + self.crc.map_or(0, CrcKind::len);
        match &self.engine {
            Engine::Uncoded => k,
            Engine::Conv(enc, _) => enc.code().encoded_len(k),
            Engine::Turbo(dec, _) => dec.code().coded_len(),
        }
    }

    /// Encodes one `info_bits`-bit block into `out` (cleared first).
    pub fn encode_into(&mut self, info: &[u8], out: &mut Vec<u8>) {
        assert_eq!(info.len(), self.info_bits, "information block length");
        self.protected.clear();
        self.protected.extend_from_slice(info);
        if let Some(kind) = self.crc {
            self.protected.extend(Crc::new(kind).parity(info));
        }
        match &mut self.engine {
            Engine::Uncoded => out.clone_from(&self.protected),
            Engine::Conv(enc, _) => enc.encode_into(&self.protected, out),
            Engine::Turbo(dec, _) => dec.code().encode_into(&self.protected, out),
        }
    }

    /// Decodes one block of `coded_len()` LLRs (positive = bit 0 more
    /// likely) into `info_out`, which is cleared and then holds the
    /// `info_bits` CRC-stripped bits whether or not the CRC verified.
    /// Returns whether it verified, and `true` when there is no CRC.
    pub fn decode_into(&mut self, llrs: &[f64], info_out: &mut Vec<u8>) -> bool {
        assert_eq!(llrs.len(), self.coded_len(), "coded block length");
        let block = &mut self.protected;
        match &mut self.engine {
            Engine::Uncoded => {
                block.clear();
                block.extend(llrs.iter().map(|&l| (l < 0.0) as u8));
            }
            Engine::Conv(_, viterbi) => viterbi.decode_into(llrs, block),
            Engine::Turbo(dec, iterations) => dec.decode_into(llrs, *iterations, block),
        }
        info_out.clear();
        info_out.extend_from_slice(&block[..self.info_bits]);
        self.crc
            .is_none_or(|kind| Crc::new(kind).check(block).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::bits_to_llrs;

    const SCHEMES: [CodingScheme; 4] = [
        CodingScheme::Uncoded,
        CodingScheme::ConvHalf,
        CodingScheme::ConvThird,
        CodingScheme::Turbo { iterations: 4 },
    ];
    const INFO: usize = 96;

    fn pattern(n: usize, salt: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 7 + salt) % 11 < 5) as u8).collect()
    }

    /// LLRs of `coded` at amplitude 1 plus a deterministic ±0.9 ripple,
    /// strong enough to flip some uncoded decisions.
    fn noisy_llrs(coded: &[u8], salt: u64) -> Vec<f64> {
        let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        coded
            .iter()
            .map(|&b| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let ripple = (x >> 11) as f64 / (1u64 << 53) as f64 * 1.8 - 0.9;
                (1.0 - 2.0 * b as f64) * (1.0 + ripple) - 0.5 * ripple
            })
            .collect()
    }

    #[test]
    fn noiseless_round_trip_returns_the_info_bits_with_crc_ok() {
        for scheme in SCHEMES {
            for crc in [None, Some(CrcKind::Crc16)] {
                let mut codec = BurstCodec::new(scheme, crc, INFO, None);
                let info = pattern(INFO, 3);
                let mut coded = Vec::new();
                codec.encode_into(&info, &mut coded);
                assert_eq!(codec.coded_len(), coded.len(), "{scheme:?} {crc:?}");
                let mut out = Vec::new();
                assert!(codec.decode_into(&bits_to_llrs(&coded, 4.0), &mut out));
                assert_eq!(out, info, "{scheme:?} {crc:?}");
            }
        }
    }

    #[test]
    fn coded_len_matches_each_scheme_and_crc() {
        let lens = |crc| SCHEMES.map(|s| BurstCodec::new(s, crc, INFO, None).coded_len());
        assert_eq!(lens(None), [96, (96 + 8) * 2, (96 + 8) * 3, 3 * 96 + 12]);
        assert_eq!(
            lens(Some(CrcKind::Crc16)),
            [112, (112 + 8) * 2, (112 + 8) * 3, 3 * 112 + 12]
        );
    }

    #[test]
    fn a_corrupted_block_fails_its_crc_and_still_yields_the_info_bits() {
        // Code `info ‖ wrong parity` with a CRC-less codec one CRC longer:
        // the FEC decodes it cleanly, so only the CRC can object.
        for scheme in SCHEMES {
            let mut block = pattern(INFO, 5);
            let mut bad = Crc::new(CrcKind::Crc16).attach(&block);
            bad[INFO] ^= 1;
            let mut coded = Vec::new();
            BurstCodec::new(scheme, None, INFO + 16, None).encode_into(&bad, &mut coded);
            let mut codec = BurstCodec::new(scheme, Some(CrcKind::Crc16), INFO, None);
            let mut out = Vec::new();
            assert!(
                !codec.decode_into(&bits_to_llrs(&coded, 4.0), &mut out),
                "{scheme:?}"
            );
            block.truncate(INFO);
            assert_eq!(out, block, "{scheme:?}");
        }
    }

    #[test]
    fn a_reused_codec_is_bitwise_identical_to_a_fresh_one() {
        for scheme in SCHEMES {
            for crc in [None, Some(CrcKind::Crc16)] {
                let mut reused = BurstCodec::new(scheme, crc, INFO, None);
                for salt in 1..4 {
                    let info = pattern(INFO, salt as usize);
                    let mut fresh = BurstCodec::new(scheme, crc, INFO, None);
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    reused.encode_into(&info, &mut a);
                    fresh.encode_into(&info, &mut b);
                    assert_eq!(a, b, "{scheme:?} {crc:?}");
                    let llrs = noisy_llrs(&a, salt);
                    let ok_a = reused.decode_into(&llrs, &mut a);
                    let ok_b = fresh.decode_into(&llrs, &mut b);
                    assert_eq!((ok_a, &a), (ok_b, &b), "{scheme:?} {crc:?}");
                    assert_eq!(a.len(), INFO);
                }
            }
        }
    }
}
