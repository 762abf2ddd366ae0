//! Soft-decision Viterbi decoder for the 25.212 convolutional codes.
//!
//! Block decoder with zero-tail termination (matching
//! [`crate::conv::ConvEncoder::encode_block`]): the survivor path is traced
//! back from state 0. Metrics are additive correlation metrics over input
//! LLRs (positive LLR ⇔ bit 0 more likely), so the decoder is
//! max-likelihood for BPSK/QPSK over AWGN.

use crate::conv::ConvCode;
use crate::kernels::{self, TrellisKernelHandle};

/// Reusable Viterbi decoder: the trellis tables are precomputed once per
/// code, and every working buffer — path metrics, survivor matrix,
/// per-step branch metrics — is owned by the decoder and reused across
/// blocks, so steady-state decoding via
/// [`ViterbiDecoder::decode_into`] performs no heap allocation.
///
/// The add-compare-select inner loop dispatches through a pluggable kernel
/// backend ([`crate::kernels`]); output is bitwise identical on every
/// backend.
#[derive(Clone, Debug)]
pub struct ViterbiDecoder {
    code: ConvCode,
    /// `pred_out0[ns]` / `pred_out1[ns]` = packed coded bits emitted on the
    /// transition into `ns` from its even / odd predecessor. The trellis is
    /// stored in predecessor form — for these feed-forward shift-register
    /// codes state `ns` is reached exactly from `2j` and `2j+1` with
    /// `j = ns mod 2^(K-2)`, on input bit `ns >> (K-2)` — which turns the
    /// ACS sweep into a pure gather the SIMD backend can vectorise.
    /// (`i32` so the AVX2 backend can feed them straight to a gather.)
    pred_out0: Vec<i32>,
    pred_out1: Vec<i32>,
    /// Path metrics, double-buffered.
    metrics: Vec<f64>,
    metrics_next: Vec<f64>,
    /// Survivor matrix scratch, `steps * n_states` bytes, grown on demand
    /// and never shrunk. Stale contents are harmless: traceback only reads
    /// cells on the survivor path, all of which the current block wrote.
    decisions: Vec<u8>,
    /// Per-step branch metrics indexed by the packed coded-output pattern
    /// (`1 << n_outputs` entries), rebuilt once per trellis step so the
    /// add-compare-select loop over states is a branch-free table lookup.
    branch_metrics: Vec<f64>,
    /// Compute-kernel backend for the ACS loop.
    kernels: TrellisKernelHandle,
}

impl ViterbiDecoder {
    /// Builds a decoder for `code`, using the process-wide kernel backend
    /// selection.
    pub fn new(code: ConvCode) -> Self {
        Self::with_kernels(code, kernels::active())
    }

    /// Builds a decoder pinned to a specific kernel backend handle — the
    /// per-instance override used by cross-backend tests and benches.
    /// Decoded bits are bitwise identical to [`ViterbiDecoder::new`] on
    /// any backend.
    pub fn with_kernels(code: ConvCode, kernels: TrellisKernelHandle) -> Self {
        let n_states = code.n_states();
        let half = n_states / 2;
        let mem = code.memory();
        let mut pred_out0 = Vec::with_capacity(n_states);
        let mut pred_out1 = Vec::with_capacity(n_states);
        for ns in 0..n_states {
            let j = (ns & (half - 1)) as u32;
            let b = (ns >> (mem - 1)) as u8;
            debug_assert_eq!(code.next_state(2 * j, b) as usize, ns);
            pred_out0.push(code.outputs(2 * j, b) as i32);
            pred_out1.push(code.outputs(2 * j + 1, b) as i32);
        }
        let n_out = code.n_outputs();
        ViterbiDecoder {
            code,
            pred_out0,
            pred_out1,
            metrics: vec![0.0; n_states],
            metrics_next: vec![0.0; n_states],
            decisions: Vec::new(),
            branch_metrics: vec![0.0; 1 << n_out],
            kernels,
        }
    }

    /// Pre-grows the survivor matrix to cover `steps` trellis steps, so
    /// the first [`ViterbiDecoder::decode_into`] call pays no allocation.
    /// [`crate::BurstCodec`] calls this when it is built, keeping the
    /// cold-start spike out of latency histograms; decoding is unaffected.
    pub fn reserve_steps(&mut self, steps: usize) {
        let n_states = self.code.n_states();
        if self.decisions.len() < steps * n_states {
            self.decisions.resize(steps * n_states, 0);
        }
    }

    /// Decodes a terminated block of LLRs (length must be a multiple of the
    /// code's output count and cover `k + memory` trellis steps), returning
    /// the `k` information bits.
    ///
    /// `llrs.len() == (k + memory) * n_outputs`. Allocates the output;
    /// steady-state callers should prefer [`ViterbiDecoder::decode_into`].
    pub fn decode_block(&mut self, llrs: &[f64]) -> Vec<u8> {
        let mut bits = Vec::new();
        self.decode_into(llrs, &mut bits);
        bits
    }

    /// Decodes a terminated block of LLRs into a caller-held buffer
    /// (cleared, then filled with the `k` information bits).
    ///
    /// This is the allocation-free entry point: once the decoder has seen
    /// a block of the current size and `out` has capacity `k`, repeated
    /// calls touch the heap not at all. Output is bitwise identical to
    /// [`ViterbiDecoder::decode_block`] on a fresh decoder.
    pub fn decode_into(&mut self, llrs: &[f64], out: &mut Vec<u8>) {
        let n_out = self.code.n_outputs();
        assert_eq!(
            llrs.len() % n_out,
            0,
            "LLR length not a multiple of code outputs"
        );
        let steps = llrs.len() / n_out;
        let memory = self.code.memory() as usize;
        assert!(steps > memory, "block too short to contain the tail");
        let k = steps - memory;
        let n_states = self.code.n_states();

        // Survivor decisions: decisions[t][s] stores the *oldest register
        // bit of the winning predecessor* of state s at step t. The input
        // bit itself needs no storage — shifting in the input makes it the
        // successor state's MSB, so traceback reads it off the state.
        // (256 B/step for the K=9 codes.) Grown, never zeroed: traceback
        // only visits cells the current block wrote.
        if self.decisions.len() < steps * n_states {
            self.decisions.resize(steps * n_states, 0);
        }

        self.metrics.fill(f64::NEG_INFINITY);
        self.metrics[0] = 0.0; // encoder starts in state 0
        for t in 0..steps {
            let step_llrs = &llrs[t * n_out..(t + 1) * n_out];
            // Branch metrics for every coded-output pattern, once per step:
            // the ACS loop over states then pays one table lookup per
            // transition instead of an LLR loop with a data-dependent
            // branch per coded bit.
            branch_metrics(step_llrs, &mut self.branch_metrics);
            let dec = &mut self.decisions[t * n_states..(t + 1) * n_states];
            // During the tail only bit 0 is transmitted, so only successor
            // states with a zero MSB — the lower half — are reachable; the
            // kernel parks the rest at −∞.
            let limit = if t >= k { n_states / 2 } else { n_states };
            self.kernels.viterbi_acs(
                &self.metrics,
                &self.branch_metrics,
                &self.pred_out0,
                &self.pred_out1,
                limit,
                &mut self.metrics_next,
                dec,
            );
            std::mem::swap(&mut self.metrics, &mut self.metrics_next);
        }

        // Trace back from the terminated state 0. At each step the input
        // bit that produced the current state is its MSB, and the stored
        // decision restores the predecessor's discarded oldest bit. The
        // tail steps are walked for their state transitions but emit no
        // information bits, so `out` holds exactly `k` bits.
        let mem = self.code.memory();
        let mask = n_states as u32 - 1;
        out.clear();
        out.resize(k, 0);
        let mut state = 0u32;
        for t in (0..steps).rev() {
            if t < k {
                out[t] = ((state >> (mem - 1)) & 1) as u8;
            }
            let oldest = self.decisions[t * n_states + state as usize];
            state = ((state << 1) & mask) | oldest as u32;
        }
    }
}

/// Branch-metric table for one step: for every packed coded pattern `p`
/// (MSB-first), `bm[p] = Σᵢ (pᵢ == 0 ? +llr[i] : −llr[i])`.
fn branch_metrics(step_llrs: &[f64], bm: &mut [f64]) {
    let n_out = step_llrs.len();
    debug_assert_eq!(bm.len(), 1 << n_out);
    for (p, b) in bm.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (i, &l) in step_llrs.iter().enumerate() {
            let coded = (p >> (n_out - 1 - i)) & 1;
            acc += if coded == 0 { l } else { -l };
        }
        *b = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::bits_to_llrs;
    use crate::conv::ConvEncoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn awgn_llrs(coded: &[u8], ebn0_db: f64, rate: f64, rng: &mut StdRng) -> Vec<f64> {
        // BPSK: y = x + n, LLR = 2y/σ² with Es = 1, σ² = 1/(2·rate·Eb/N0).
        let ebn0 = 10f64.powf(ebn0_db / 10.0);
        let sigma2 = 1.0 / (2.0 * rate * ebn0);
        let sigma = sigma2.sqrt();
        coded
            .iter()
            .map(|&b| {
                let x = 1.0 - 2.0 * b as f64;
                let u1: f64 = rng.gen_range(1e-12..1.0f64);
                let u2: f64 = rng.gen_range(0.0..1.0f64);
                let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                2.0 * (x + sigma * n) / sigma2
            })
            .collect()
    }

    #[test]
    fn noiseless_roundtrip_k3() {
        let code = ConvCode::k3_test();
        let mut enc = ConvEncoder::new(code.clone());
        let mut dec = ViterbiDecoder::new(code);
        let bits: Vec<u8> = (0..64).map(|i| ((i * 3) % 5 < 2) as u8).collect();
        let coded = enc.encode_block(&bits);
        let llrs = bits_to_llrs(&coded, 4.0);
        assert_eq!(dec.decode_block(&llrs), bits);
    }

    #[test]
    fn noiseless_roundtrip_umts_codes() {
        for code in [ConvCode::umts_half(), ConvCode::umts_third()] {
            let mut enc = ConvEncoder::new(code.clone());
            let mut dec = ViterbiDecoder::new(code);
            let bits: Vec<u8> = (0..200).map(|i| ((i * 7) % 11 < 5) as u8).collect();
            let coded = enc.encode_block(&bits);
            let llrs = bits_to_llrs(&coded, 1.0);
            assert_eq!(dec.decode_block(&llrs), bits);
        }
    }

    #[test]
    fn corrects_isolated_hard_errors() {
        // dfree = 12 for the UMTS rate-1/2 code: 5 scattered flips correct.
        let code = ConvCode::umts_half();
        let mut enc = ConvEncoder::new(code.clone());
        let mut dec = ViterbiDecoder::new(code);
        let bits: Vec<u8> = (0..100).map(|i| (i % 4 == 1) as u8).collect();
        let mut coded = enc.encode_block(&bits);
        for &pos in &[5usize, 40, 90, 130, 180] {
            coded[pos] ^= 1;
        }
        let llrs = bits_to_llrs(&coded, 1.0);
        assert_eq!(dec.decode_block(&llrs), bits);
    }

    #[test]
    fn soft_decisions_beat_erasures() {
        // Erased positions (LLR 0) do not break decoding.
        let code = ConvCode::umts_third();
        let mut enc = ConvEncoder::new(code.clone());
        let mut dec = ViterbiDecoder::new(code);
        let bits: Vec<u8> = (0..80).map(|i| (i % 5 == 0) as u8).collect();
        let coded = enc.encode_block(&bits);
        let mut llrs = bits_to_llrs(&coded, 1.0);
        for i in (0..llrs.len()).step_by(7) {
            llrs[i] = 0.0;
        }
        assert_eq!(dec.decode_block(&llrs), bits);
    }

    #[test]
    fn umts_half_corrects_awgn_at_moderate_snr() {
        let code = ConvCode::umts_half();
        let mut enc = ConvEncoder::new(code.clone());
        let mut dec = ViterbiDecoder::new(code);
        let mut rng = StdRng::seed_from_u64(42);
        let mut errors = 0usize;
        let mut total = 0usize;
        for _ in 0..30 {
            let bits: Vec<u8> = (0..200).map(|_| rng.gen_range(0..2u8)).collect();
            let coded = enc.encode_block(&bits);
            let llrs = awgn_llrs(&coded, 4.0, 0.5, &mut rng);
            let out = dec.decode_block(&llrs);
            errors += out.iter().zip(&bits).filter(|(a, b)| a != b).count();
            total += bits.len();
        }
        // At Eb/N0 = 4 dB the K=9 r=1/2 code is far below 1e-3.
        assert!(
            errors as f64 / total as f64 <= 1e-3,
            "BER {} too high",
            errors as f64 / total as f64
        );
    }

    #[test]
    fn rate_third_outperforms_rate_half_at_low_snr() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ber = |code: ConvCode, rate: f64| -> f64 {
            let mut enc = ConvEncoder::new(code.clone());
            let mut dec = ViterbiDecoder::new(code);
            let mut errors = 0usize;
            let mut total = 0usize;
            for _ in 0..40 {
                let bits: Vec<u8> = (0..150).map(|_| rng.gen_range(0..2u8)).collect();
                let coded = enc.encode_block(&bits);
                let llrs = awgn_llrs(&coded, 1.5, rate, &mut rng);
                let out = dec.decode_block(&llrs);
                errors += out.iter().zip(&bits).filter(|(a, b)| a != b).count();
                total += bits.len();
            }
            (errors.max(1)) as f64 / total as f64
        };
        let b_half = ber(ConvCode::umts_half(), 0.5);
        let b_third = ber(ConvCode::umts_third(), 1.0 / 3.0);
        assert!(
            b_third <= b_half,
            "r=1/3 ({b_third}) should beat r=1/2 ({b_half}) at same Eb/N0"
        );
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_misaligned_llrs() {
        let mut dec = ViterbiDecoder::new(ConvCode::umts_half());
        let _ = dec.decode_block(&[0.5; 33]);
    }
}
