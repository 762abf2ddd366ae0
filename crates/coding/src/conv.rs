//! Convolutional encoding per 3G TS 25.212 §4.2.3.1.
//!
//! Constraint length K = 9 codes at rates 1/2 and 1/3, with the standard
//! 8-zero-bit tail termination ("8 tail bits with binary value 0 shall be
//! added to the end of the code block").

/// A rate-1/n feed-forward convolutional code description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvCode {
    /// Constraint length (memory + 1).
    pub constraint: u32,
    /// Generator polynomials, MSB = current input bit. One per output.
    pub generators: Vec<u32>,
}

impl ConvCode {
    /// UMTS rate-1/2 code: G0 = 561₈, G1 = 753₈, K = 9.
    pub fn umts_half() -> Self {
        ConvCode {
            constraint: 9,
            generators: vec![0o561, 0o753],
        }
    }

    /// UMTS rate-1/3 code: G0 = 557₈, G1 = 663₈, G2 = 711₈, K = 9.
    pub fn umts_third() -> Self {
        ConvCode {
            constraint: 9,
            generators: vec![0o557, 0o663, 0o711],
        }
    }

    /// A small K=3 test code (7, 5)₈ — handy for exhaustive trellis tests.
    #[cfg(test)]
    pub(crate) fn k3_test() -> Self {
        ConvCode {
            constraint: 3,
            generators: vec![0o7, 0o5],
        }
    }

    /// Code rate denominator (outputs per input bit).
    #[inline]
    pub fn n_outputs(&self) -> usize {
        self.generators.len()
    }

    /// Number of memory bits (trellis states = 2^memory).
    #[inline]
    pub fn memory(&self) -> u32 {
        self.constraint - 1
    }

    /// Number of trellis states.
    #[inline]
    pub fn n_states(&self) -> usize {
        1 << self.memory()
    }

    /// Encoded length (including tail) for `k` information bits.
    pub fn encoded_len(&self, k: usize) -> usize {
        (k + self.memory() as usize) * self.n_outputs()
    }

    /// Output bits for input `bit` in state `state` (state = previous
    /// `memory()` inputs, most recent in the MSB).
    #[inline]
    pub fn outputs(&self, state: u32, bit: u8) -> u32 {
        // Register contents viewed by the generators: current bit followed
        // by the state (most recent first).
        let reg = ((bit as u32) << self.memory()) | state;
        let mut out = 0u32;
        for &g in &self.generators {
            out = (out << 1) | ((reg & g).count_ones() & 1);
        }
        out
    }

    /// Next state after shifting in `bit`.
    #[inline]
    pub fn next_state(&self, state: u32, bit: u8) -> u32 {
        ((state >> 1) | ((bit as u32) << (self.memory() - 1))) & (self.n_states() as u32 - 1)
    }
}

/// Streaming convolutional encoder.
#[derive(Clone, Debug)]
pub struct ConvEncoder {
    code: ConvCode,
    state: u32,
}

impl ConvEncoder {
    /// New encoder in the all-zero state.
    pub fn new(code: ConvCode) -> Self {
        ConvEncoder { code, state: 0 }
    }

    /// The code in use.
    pub fn code(&self) -> &ConvCode {
        &self.code
    }

    /// Encodes one bit, appending `n_outputs` coded bits to `out`.
    pub fn push(&mut self, bit: u8, out: &mut Vec<u8>) {
        debug_assert!(bit <= 1);
        let o = self.code.outputs(self.state, bit);
        let n = self.code.n_outputs();
        for i in (0..n).rev() {
            out.push(((o >> i) & 1) as u8);
        }
        self.state = self.code.next_state(self.state, bit);
    }

    /// Encodes a whole block with 25.212 zero-tail termination, returning
    /// the coded bits. The encoder ends in (and is reset to) state 0.
    pub fn encode_block(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.code.encoded_len(bits.len()));
        self.encode_into(bits, &mut out);
        out
    }

    /// Encodes a whole zero-tail-terminated block into `out` (cleared
    /// first). A reused buffer of sufficient capacity makes repeated calls
    /// allocation-free. The encoder ends in (and is reset to) state 0.
    pub fn encode_into(&mut self, bits: &[u8], out: &mut Vec<u8>) {
        self.state = 0;
        out.clear();
        out.reserve(self.code.encoded_len(bits.len()));
        for &b in bits {
            self.push(b, out);
        }
        for _ in 0..self.code.memory() {
            self.push(0, out);
        }
        debug_assert_eq!(self.state, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_length_matches_formula() {
        let mut enc = ConvEncoder::new(ConvCode::umts_half());
        let coded = enc.encode_block(&[1u8; 100]);
        assert_eq!(coded.len(), (100 + 8) * 2);
        let mut enc3 = ConvEncoder::new(ConvCode::umts_third());
        assert_eq!(enc3.encode_block(&[0u8; 40]).len(), (40 + 8) * 3);
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let mut enc = ConvEncoder::new(ConvCode::umts_third());
        assert!(enc.encode_block(&[0u8; 64]).iter().all(|&b| b == 0));
    }

    #[test]
    fn encoder_is_linear() {
        // Conv codes are linear: enc(a ⊕ b) = enc(a) ⊕ enc(b).
        let code = ConvCode::umts_half();
        let a: Vec<u8> = (0..50).map(|i| (i % 3 == 0) as u8).collect();
        let b: Vec<u8> = (0..50).map(|i| (i % 7 == 2) as u8).collect();
        let xor: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let ea = ConvEncoder::new(code.clone()).encode_block(&a);
        let eb = ConvEncoder::new(code.clone()).encode_block(&b);
        let ex = ConvEncoder::new(code).encode_block(&xor);
        for i in 0..ea.len() {
            assert_eq!(ex[i], ea[i] ^ eb[i]);
        }
    }

    #[test]
    fn k3_impulse_response_matches_handworked() {
        // (7,5) code: input 1 then zeros → outputs 11 10 11 then 00…
        let mut enc = ConvEncoder::new(ConvCode::k3_test());
        let coded = enc.encode_block(&[1, 0, 0, 0]);
        assert_eq!(&coded[..8], &[1, 1, 1, 0, 1, 1, 0, 0]);
    }

    #[test]
    fn umts_half_impulse_response_is_the_generators() {
        // For input 1,0,0,…: output pair k is (bit k of G0, bit k of G1)
        // read from the MSB of the 9-bit generators.
        let mut enc = ConvEncoder::new(ConvCode::umts_half());
        let coded = enc.encode_block(&[1, 0, 0, 0, 0, 0, 0, 0, 0]);
        let g0 = 0o561u32;
        let g1 = 0o753u32;
        for k in 0..9 {
            assert_eq!(coded[2 * k] as u32, (g0 >> (8 - k)) & 1, "G0 bit {k}");
            assert_eq!(coded[2 * k + 1] as u32, (g1 >> (8 - k)) & 1, "G1 bit {k}");
        }
    }

    #[test]
    fn termination_returns_to_zero_state() {
        let code = ConvCode::umts_third();
        let mut enc = ConvEncoder::new(code);
        for pattern in 0..16u32 {
            let bits: Vec<u8> = (0..32).map(|i| ((pattern >> (i % 4)) & 1) as u8).collect();
            enc.encode_block(&bits);
            assert_eq!(enc.state, 0);
        }
    }

    #[test]
    fn state_transitions_are_consistent() {
        let code = ConvCode::umts_half();
        // next_state shifts the register right with the new bit at the MSB;
        // two pushes of (1, 0) from state 0 give state 0b01000000.
        let s1 = code.next_state(0, 1);
        let s2 = code.next_state(s1, 0);
        assert_eq!(s1, 0b1000_0000);
        assert_eq!(s2, 0b0100_0000);
    }
}
