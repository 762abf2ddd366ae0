//! TDMA burst framing: preamble, unique word, slot and frame geometry.
//!
//! An MF-TDMA return link is organised as frames of slots on each carrier;
//! each user burst carries a clock-recovery preamble, a unique word (UW)
//! for start-of-burst detection, phase-ambiguity resolution and fine
//! timing, and the traffic payload.

use crate::psk::Modulation;
use gsp_dsp::codes::Lfsr;
use gsp_dsp::kernels::{self, CpxKernelHandle};
use gsp_dsp::Cpx;

/// Burst layout in symbols.
#[derive(Clone, Debug)]
pub struct BurstFormat {
    /// Alternating-pattern clock-recovery preamble length (symbols).
    pub preamble_len: usize,
    /// Unique word, as modulated symbols.
    pub unique_word: Vec<Cpx>,
    /// Payload length (symbols).
    pub payload_len: usize,
    /// Modulation of preamble/payload.
    pub modulation: Modulation,
}

impl BurstFormat {
    /// A standard format: `preamble_len` alternating symbols, a UW of
    /// `uw_len` QPSK symbols derived from an m-sequence, `payload_len`
    /// payload symbols.
    pub fn standard(preamble_len: usize, uw_len: usize, payload_len: usize) -> Self {
        assert!(uw_len >= 8, "UW shorter than 8 symbols detects poorly");
        let mut lfsr = Lfsr::m_sequence(9, 0b1_0101_0101);
        let uw_bits: Vec<u8> = (0..2 * uw_len).map(|_| lfsr.next_bit()).collect();
        let mut unique_word = Vec::new();
        Modulation::Qpsk.map(&uw_bits, &mut unique_word);
        BurstFormat {
            preamble_len,
            unique_word,
            payload_len,
            modulation: Modulation::Qpsk,
        }
    }

    /// Total burst length in symbols.
    pub fn burst_len(&self) -> usize {
        self.preamble_len + self.unique_word.len() + self.payload_len
    }

    /// Payload capacity in bits.
    pub fn payload_bits(&self) -> usize {
        self.payload_len * self.modulation.bits_per_symbol()
    }

    /// The preamble symbol sequence: alternating diagonal QPSK points,
    /// which maximises symbol transitions for the Gardner TED.
    pub fn preamble_symbols(&self) -> Vec<Cpx> {
        let a = std::f64::consts::FRAC_1_SQRT_2;
        (0..self.preamble_len)
            .map(|k| {
                if k % 2 == 0 {
                    Cpx::new(a, a)
                } else {
                    Cpx::new(-a, -a)
                }
            })
            .collect()
    }

    /// Assembles a burst's symbol stream into `syms` (cleared first). A
    /// reused buffer of sufficient capacity makes repeated calls
    /// allocation-free.
    pub fn assemble_into(&self, payload_bits: &[u8], syms: &mut Vec<Cpx>) {
        assert_eq!(
            payload_bits.len(),
            self.payload_bits(),
            "payload must fill the burst exactly"
        );
        syms.clear();
        syms.reserve(self.burst_len());
        let a = std::f64::consts::FRAC_1_SQRT_2;
        for k in 0..self.preamble_len {
            syms.push(if k % 2 == 0 {
                Cpx::new(a, a)
            } else {
                Cpx::new(-a, -a)
            });
        }
        syms.extend_from_slice(&self.unique_word);
        self.modulation.map(payload_bits, syms);
    }
}

/// Result of a unique-word search.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UwDetection {
    /// Symbol index where the UW starts.
    pub position: usize,
    /// Normalised correlation magnitude at the peak (0..1).
    pub magnitude: f64,
    /// Carrier phase estimated from the UW correlation (radians).
    pub phase: f64,
}

/// Searches a symbol stream for the unique word.
///
/// Returns the detection if the normalised correlation magnitude exceeds
/// `threshold` anywhere, taking the global peak. The correlation argument
/// doubles as a data-aided, ambiguity-free phase estimate.
pub fn detect_unique_word(symbols: &[Cpx], uw: &[Cpx], threshold: f64) -> Option<UwDetection> {
    detect_unique_word_with(symbols, uw, threshold, kernels::active())
}

/// [`detect_unique_word`] pinned to a specific compute-kernel backend
/// handle — the per-instance override used by cross-backend tests and
/// benches. The sliding correlate-and-energy loop dispatches through
/// [`gsp_dsp::kernels::CpxKernels::corr_energy`].
pub fn detect_unique_word_with(
    symbols: &[Cpx],
    uw: &[Cpx],
    threshold: f64,
    kernels: CpxKernelHandle,
) -> Option<UwDetection> {
    if symbols.len() < uw.len() {
        return None;
    }
    let uw_energy: f64 = uw.iter().map(|s| s.norm_sqr()).sum();
    let mut best: Option<UwDetection> = None;
    for pos in 0..=(symbols.len() - uw.len()) {
        let (acc, energy) = kernels.corr_energy(&symbols[pos..pos + uw.len()], uw);
        let denom = (uw_energy * energy).sqrt();
        if denom <= 0.0 {
            continue;
        }
        let mag = acc.abs() / denom;
        if mag >= threshold && best.is_none_or(|b| mag > b.magnitude) {
            best = Some(UwDetection {
                position: pos,
                magnitude: mag,
                phase: acc.arg(),
            });
        }
    }
    best
}

/// MF-TDMA frame geometry: `n_carriers` carriers, each with `slots_per_frame`
/// slots of `slot_symbols` symbols (burst + guard).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MfTdmaFrame {
    /// FDM carriers in the processed band (the paper's example uses 6).
    pub n_carriers: usize,
    /// TDMA slots per frame on each carrier.
    pub slots_per_frame: usize,
    /// Slot duration in symbols (burst plus guard time).
    pub slot_symbols: usize,
    /// Symbol rate per carrier, Hz.
    pub symbol_rate: f64,
}

impl MfTdmaFrame {
    /// Aggregate slot count per frame across carriers.
    pub fn total_slots(&self) -> usize {
        self.n_carriers * self.slots_per_frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_assembly_lengths() {
        let fmt = BurstFormat::standard(16, 16, 100);
        assert_eq!(fmt.burst_len(), 132);
        assert_eq!(fmt.payload_bits(), 200);
        let mut burst = Vec::new();
        fmt.assemble_into(&[0u8; 200], &mut burst);
        assert_eq!(burst.len(), 132);
    }

    #[test]
    fn preamble_alternates() {
        let fmt = BurstFormat::standard(8, 16, 10);
        let p = fmt.preamble_symbols();
        for w in p.windows(2) {
            assert!((w[0] + w[1]).abs() < 1e-12, "must alternate antipodally");
        }
    }

    #[test]
    fn uw_detection_finds_position_and_phase() {
        let fmt = BurstFormat::standard(12, 24, 50);
        let bits: Vec<u8> = (0..100).map(|i| (i % 3 == 0) as u8).collect();
        let mut burst = Vec::new();
        fmt.assemble_into(&bits, &mut burst);
        // Rotate the whole burst by a known phase.
        let theta = 0.6;
        for s in burst.iter_mut() {
            *s = s.rotate(theta);
        }
        // Prepend noise-free idle symbols.
        let mut stream = vec![Cpx::ZERO; 7];
        stream.extend(burst);
        let det = detect_unique_word(&stream, &fmt.unique_word, 0.5).expect("detect");
        assert_eq!(det.position, 7 + 12);
        assert!(det.magnitude > 0.99);
        assert!((gsp_dsp::math::wrap_angle(det.phase - theta)).abs() < 1e-9);
    }

    #[test]
    fn uw_not_detected_in_noise_floor() {
        let fmt = BurstFormat::standard(8, 32, 10);
        // A stream of constant symbols has low correlation with the UW.
        let stream = vec![Cpx::new(0.7, -0.7); 200];
        assert!(detect_unique_word(&stream, &fmt.unique_word, 0.8).is_none());
    }

    #[test]
    fn uw_detection_rejects_short_input() {
        let fmt = BurstFormat::standard(8, 32, 10);
        assert!(detect_unique_word(&[Cpx::ONE; 10], &fmt.unique_word, 0.5).is_none());
    }

    #[test]
    fn frame_geometry_math() {
        // The paper's S-UMTS TDMA target: 2 Mbps with 6 carriers.
        let frame = MfTdmaFrame {
            n_carriers: 6,
            slots_per_frame: 8,
            slot_symbols: 1024,
            symbol_rate: 170_667.0, // ≈ 2.048 Msps / 6 carriers / QPSK → 2 Mbps total
        };
        assert_eq!(frame.total_slots(), 48);
    }
}
