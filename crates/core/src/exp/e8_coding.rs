//! E8 — the §2.3 decoder-reconfiguration motivation: "some transmissions
//! can accept a non-coded mode while other ones require a convolutional
//! code or a turbo-code". BER of the four UMTS schemes over AWGN at equal
//! Eb/N0 — the QoS ladder that justifies swapping the on-board decoder.

use crate::exp::{par_trials, Scale};
use crate::table::ExpTable;
use gsp_channel::awgn::GaussianSampler;
use gsp_coding::{BurstCodec, CodingScheme};
use gsp_dsp::measure::count_bit_errors;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Information bits per probe block.
const BLOCK: usize = 320;

/// The DECOD personalities of the QoS ladder, in order.
const DECODERS: [CodingScheme; 4] = [
    CodingScheme::Uncoded,
    CodingScheme::ConvHalf,
    CodingScheme::ConvThird,
    CodingScheme::Turbo { iterations: 6 },
];

/// Bit errors of one block of `codec.info_bits()` random bits sent through
/// the codec as BPSK over AWGN at `ebn0_db`, the rate taken from the coded
/// length, tails included. Draws the bits from `rng`, then one noise
/// sample per coded bit from `g`.
fn awgn_bit_errors(
    codec: &mut BurstCodec,
    ebn0_db: f64,
    rng: &mut StdRng,
    g: &mut GaussianSampler,
) -> usize {
    let bits: Vec<u8> = (0..codec.info_bits())
        .map(|_| rng.gen_range(0..2u8))
        .collect();
    let mut coded = Vec::new();
    codec.encode_into(&bits, &mut coded);
    let rate = bits.len() as f64 / coded.len() as f64;
    let sigma2 = 1.0 / (2.0 * rate * 10f64.powf(ebn0_db / 10.0));
    let sigma = sigma2.sqrt();
    let llrs: Vec<f64> = coded
        .iter()
        .map(|&b| 2.0 * ((1.0 - 2.0 * b as f64) + sigma * g.next(rng)) / sigma2)
        .collect();
    let mut decoded = Vec::new();
    codec.decode_into(&llrs, &mut decoded);
    count_bit_errors(&decoded, &bits)
}

/// Regenerates the coding-scheme BER table.
pub fn e8_coding(scale: Scale, seed: u64) -> ExpTable {
    let mut t = ExpTable::new(
        "E8 — UMTS coding schemes over AWGN (paper §2.3, ref [4] = TS 25.212)",
        &["Eb/N0 (dB)", "Scheme", "BER", "Blocks"],
    );
    let points: &[f64] = match scale {
        Scale::Smoke => &[2.0],
        Scale::Full => &[0.5, 1.0, 1.5, 2.0, 3.0, 4.0],
    };
    let blocks = scale.trials(40, 600);
    for &e in points {
        for scheme in DECODERS {
            let errors: usize = par_trials(blocks, seed, |s| {
                let mut codec = BurstCodec::new(scheme, None, BLOCK, None);
                let mut rng = StdRng::seed_from_u64(s);
                awgn_bit_errors(&mut codec, e, &mut rng, &mut GaussianSampler::new())
            })
            .into_iter()
            .sum();
            let bits = blocks * BLOCK;
            t.row(vec![
                format!("{e:.1}"),
                scheme.label().to_string(),
                format!("{:.2e}", errors as f64 / bits as f64),
                blocks.to_string(),
            ]);
        }
    }
    t.note("QoS ladder: each scheme swap is a §3.1 decoder reconfiguration on the DECOD FPGA");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coding_gain_ordering_at_2db() {
        let t = e8_coding(Scale::Smoke, 17);
        let ber: Vec<f64> = (0..4).map(|r| t.cell(r, 2).parse().unwrap()).collect();
        let uncoded = ber[0];
        let conv_half = ber[1];
        let conv_third = ber[2];
        let turbo = ber[3];
        // At 2 dB: uncoded ≈ 3.8e-2; the coded schemes are far below it.
        assert!((uncoded - 3.8e-2).abs() < 1.5e-2, "uncoded {uncoded}");
        assert!(conv_half < uncoded / 5.0, "conv1/2 {conv_half}");
        assert!(conv_third <= conv_half * 1.5, "conv1/3 {conv_third}");
        assert!(turbo <= conv_half, "turbo {turbo} vs conv1/2 {conv_half}");
    }
}
