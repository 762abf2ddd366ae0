//! UMTS turbo coding (3G TS 25.212 §4.2.3.2): a parallel concatenation of
//! two 8-state RSC encoders (feedback g0 = 13₈ = 1+D²+D³, feed-forward
//! g1 = 15₈ = 1+D+D³) joined by the prime internal interleaver, with
//! independent trellis termination — decoded by iterative max-log-MAP.
//!
//! Coded output for K information bits is `3K + 12` bits in the spec's
//! order: `x₁ z₁ z'₁ … x_K z_K z'_K`, then the six termination bits of
//! encoder 1 (`x z` pairs) and the six of encoder 2.

use crate::bits::llr_to_bit;
use crate::interleave::{prime_interleaver, Interleaver};

/// Number of trellis states of each constituent encoder.
const STATES: usize = 8;
/// Tail steps per constituent.
const TAIL: usize = 3;

/// The "effectively −∞" path metric of the max-log-MAP recursions.
///
/// Small enough that no real path metric approaches it, large enough that
/// adding a branch metric to it is absorbed exactly (`−1e300 + γ = −1e300`
/// for every |γ| < 5e283), so unreachable states stay at exactly this value.
const NEG: f64 = -1e300;

/// The 8-state RSC constituent trellis (g0 = 13₈, g1 = 15₈).
///
/// State is `(a_{k-1}, a_{k-2}, a_{k-3})` in bits (2, 1, 0) of the state
/// index, where `a` is the feedback-register sequence.
#[derive(Clone, Copy, Debug, Default)]
struct RscTrellis;

impl RscTrellis {
    /// (next_state, parity_bit) for input `d` in state `s`.
    #[inline]
    const fn step(s: usize, d: u8) -> (usize, u8) {
        let s2 = ((s >> 1) & 1) as u8; // a_{k-2}
        let s3 = (s & 1) as u8; // a_{k-3}
        let s1 = ((s >> 2) & 1) as u8; // a_{k-1}
        let a = d ^ s2 ^ s3; // feedback 1 + D² + D³
        let z = a ^ s1 ^ s3; // feed-forward 1 + D + D³
        let ns = ((a as usize) << 2) | (s >> 1);
        (ns, z)
    }

    /// The input that drives the feedback to zero (termination input).
    #[inline]
    fn term_input(s: usize) -> u8 {
        (((s >> 1) & 1) ^ (s & 1)) as u8
    }
}

/// `BWD[s] = [(ns, gamma_idx); 2]` — the successors of `s` for inputs
/// d=0, d=1 and the gamma-table index `(d<<1)|z` of each transition.
const BWD: [[(usize, usize); 2]; STATES] = build_bwd();

/// `FWD[ns] = [(s, gamma_idx); 2]` — the two predecessors of `ns` (even
/// first) with the same gamma-table index as in [`BWD`].
const FWD: [[(usize, usize); 2]; STATES] = build_fwd();

const fn build_bwd() -> [[(usize, usize); 2]; STATES] {
    let mut t = [[(0, 0); 2]; STATES];
    let mut s = 0;
    while s < STATES {
        let mut d = 0;
        while d < 2 {
            let (ns, z) = RscTrellis::step(s, d as u8);
            t[s][d] = (ns, (d << 1) | z as usize);
            d += 1;
        }
        s += 1;
    }
    t
}

const fn build_fwd() -> [[(usize, usize); 2]; STATES] {
    let mut t = [[(0, 0); 2]; STATES];
    let mut s = 0;
    while s < STATES {
        let mut d = 0;
        while d < 2 {
            let (ns, g) = BWD[s][d];
            t[ns][s & 1] = (s, g);
            d += 1;
        }
        s += 1;
    }
    t
}

/// Max-log-MAP forward recursion over the information steps:
/// `alpha[t+1][ns]` = max over the two predecessors `(s, d)` of `ns` of
/// `alpha[t][s] + gammas[t][(d<<1)|z]`; `alpha[0]` is the caller's boundary.
fn map_forward(alpha: &mut [[f64; STATES]], gammas: &[[f64; 4]]) {
    for (t, g) in gammas.iter().enumerate() {
        let prev = alpha[t];
        let mut next = [0.0; STATES];
        for (ns, n) in next.iter_mut().enumerate() {
            let (s0, g0) = FWD[ns][0];
            let (s1, g1) = FWD[ns][1];
            let c0 = prev[s0] + g[g0];
            let c1 = prev[s1] + g[g1];
            *n = if c1 > c0 { c1 } else { c0 };
        }
        alpha[t + 1] = next;
    }
}

/// Max-log-MAP backward recursion over the information steps:
/// `beta[t][s]` = max over `d` of `gammas[t][(d<<1)|z] + beta[t+1][ns]`;
/// the caller seeds `beta[gammas.len()]`.
fn map_backward(beta: &mut [[f64; STATES]], gammas: &[[f64; 4]]) {
    for t in (0..gammas.len()).rev() {
        let nxt = beta[t + 1];
        let g = &gammas[t];
        let mut cur = [0.0; STATES];
        for (s, c) in cur.iter_mut().enumerate() {
            let (n0, g0) = BWD[s][0];
            let (n1, g1) = BWD[s][1];
            let c0 = g[g0] + nxt[n0];
            let c1 = g[g1] + nxt[n1];
            *c = if c1 > c0 { c1 } else { c0 };
        }
        beta[t] = cur;
    }
}

/// Per-bit extrinsic over the information steps: `m_d` = max over `s` of
/// `(alpha[t][s] + gammas[t][(d<<1)|z]) + beta[t+1][ns]`, and
/// `ext[t] = (m₀ − m₁) − sys[t] − apriori[t]`.
fn map_extrinsic(
    alpha: &[[f64; STATES]],
    beta: &[[f64; STATES]],
    gammas: &[[f64; 4]],
    sys: &[f64],
    apriori: &[f64],
    ext: &mut [f64],
) {
    for (t, e) in ext.iter_mut().enumerate() {
        let a = &alpha[t];
        let b = &beta[t + 1];
        let g = &gammas[t];
        let mut m0 = NEG;
        let mut m1 = NEG;
        for s in 0..STATES {
            let (n0, g0) = BWD[s][0];
            let (n1, g1) = BWD[s][1];
            // Association (a + γ) + β matches the historical scan.
            let c0 = a[s] + g[g0] + b[n0];
            if c0 > m0 {
                m0 = c0;
            }
            let c1 = a[s] + g[g1] + b[n1];
            if c1 > m1 {
                m1 = c1;
            }
        }
        let llr = m0 - m1;
        *e = llr - sys[t] - apriori[t];
    }
}

/// A configured UMTS turbo code for a fixed information-block size.
#[derive(Clone, Debug)]
pub struct TurboCode {
    k: usize,
    interleaver: Interleaver,
}

impl TurboCode {
    /// Creates the code for `k` information bits (40 ≤ k ≤ 5114).
    pub fn new(k: usize) -> Self {
        TurboCode {
            k,
            interleaver: prime_interleaver(k),
        }
    }

    /// Information block length.
    pub fn info_len(&self) -> usize {
        self.k
    }

    /// Coded block length `3K + 12`.
    pub fn coded_len(&self) -> usize {
        3 * self.k + 4 * TAIL
    }

    /// Encodes a block of exactly `k` bits into `3K + 12` coded bits.
    pub fn encode_block(&self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.coded_len());
        self.encode_into(bits, &mut out);
        out
    }

    /// Encodes a block of exactly `k` bits into `out` (cleared first). The
    /// two constituents run side by side, the second reading its input
    /// through the interleaver, so a reused buffer of sufficient capacity
    /// makes repeated calls allocation-free.
    pub fn encode_into(&self, bits: &[u8], out: &mut Vec<u8>) {
        assert_eq!(bits.len(), self.k, "block length mismatch");
        out.clear();
        out.reserve(self.coded_len());
        let (mut s1, mut s2) = (0, 0);
        for (&d, &p) in bits.iter().zip(self.interleaver.table()) {
            let (n1, z1) = RscTrellis::step(s1, d);
            let (n2, z2) = RscTrellis::step(s2, bits[p as usize]);
            out.extend([d, z1, z2]);
            (s1, s2) = (n1, n2);
        }
        // Each constituent's termination: three (systematic, parity) pairs.
        for mut s in [s1, s2] {
            for _ in 0..TAIL {
                let d = RscTrellis::term_input(s);
                let (ns, z) = RscTrellis::step(s, d);
                out.extend([d, z]);
                s = ns;
            }
            debug_assert_eq!(s, 0, "termination must reach state 0");
        }
    }
}

/// Iterative max-log-MAP turbo decoder with a fully persistent workspace:
/// trellis buffers, extrinsic vectors and the systematic/parity stream
/// splits are all preallocated, so steady-state decoding via
/// [`TurboDecoder::decode_into`] performs no heap allocation.
///
/// The recursions are scalar on every kernel backend: the 8-state trellis
/// is too short for AVX2 to pay off (DESIGN.md §11).
#[derive(Clone, Debug)]
pub struct TurboDecoder {
    code: TurboCode,
    // Preallocated working storage, reused across blocks.
    alpha: Vec<[f64; STATES]>,
    beta: Vec<[f64; STATES]>,
    /// Per-step branch-metric table over the information steps:
    /// `gammas[t][(d<<1)|z]`. Only four values exist per step, so the
    /// recursions become table lookups.
    gammas: Vec<[f64; 4]>,
    ext1: Vec<f64>,
    ext2: Vec<f64>,
    apriori: Vec<f64>,
    sys_il: Vec<f64>,
    scratch: Vec<f64>,
    /// Per-call channel-stream demux scratch (`x`, `z`, `z'`).
    sys: Vec<f64>,
    par1: Vec<f64>,
    par2: Vec<f64>,
}

impl TurboDecoder {
    /// Builds a decoder for `code`.
    pub fn new(code: TurboCode) -> Self {
        let k = code.info_len();
        let steps = k + TAIL;
        TurboDecoder {
            code,
            alpha: vec![[0.0; STATES]; steps + 1],
            beta: vec![[0.0; STATES]; steps + 1],
            gammas: vec![[0.0; 4]; k],
            ext1: vec![0.0; k],
            ext2: vec![0.0; k],
            apriori: vec![0.0; k],
            sys_il: vec![0.0; k],
            scratch: vec![0.0; k],
            sys: vec![0.0; k],
            par1: vec![0.0; k],
            par2: vec![0.0; k],
        }
    }

    /// The code this decoder targets.
    pub fn code(&self) -> &TurboCode {
        &self.code
    }

    /// Max-log-MAP over one constituent. Writes per-bit extrinsic LLRs to
    /// `ext`. `sys`/`par`/`apriori` have length K; tails length 3 each.
    ///
    /// The information steps run through the table-driven recursions; the
    /// three tail steps (one termination input per state, no extrinsic)
    /// run per branch. Both are bitwise identical to the historical
    /// single-loop implementation: the four-entry gamma table holds exactly
    /// the values `±a ± b` that the per-branch expression produced (±1
    /// multiplies and IEEE negation are exact), and [`NEG`] absorbs branch
    /// metrics so unreachable states keep the precise sentinel the
    /// historical skip tests relied on.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    fn bcjr(
        alpha: &mut [[f64; STATES]],
        beta: &mut [[f64; STATES]],
        gammas: &mut [[f64; 4]],
        sys: &[f64],
        par: &[f64],
        apriori: &[f64],
        tail_sys: &[f64; TAIL],
        tail_par: &[f64; TAIL],
        ext: &mut [f64],
    ) {
        let k = sys.len();
        let steps = k + TAIL;

        // Per-step branch-metric table over the information steps, indexed
        // by (d<<1)|z: with a = ½(sys+apriori) and b = ½·par the four
        // combinations of x, z ∈ {±1} are exactly ±a ± b.
        for (t, g) in gammas.iter_mut().enumerate() {
            let a = 0.5 * (sys[t] + apriori[t]);
            let b = 0.5 * par[t];
            *g = [a + b, a - b, -a + b, -a - b];
        }

        // Branch metric of (state, input) at tail step t (t ≥ k).
        let tail_gamma = |t: usize, s: usize, d: u8| -> (f64, usize) {
            let (ns, z) = RscTrellis::step(s, d);
            let x = 1.0 - 2.0 * d as f64;
            let zz = 1.0 - 2.0 * z as f64;
            (0.5 * tail_sys[t - k] * x + 0.5 * tail_par[t - k] * zz, ns)
        };

        // Forward recursion (encoder starts in state 0): information steps
        // from the table, then the tail steps (single termination input).
        alpha[0] = [NEG; STATES];
        alpha[0][0] = 0.0;
        map_forward(&mut alpha[..=k], gammas);
        for t in k..steps {
            let mut next = [NEG; STATES];
            for s in 0..STATES {
                let a = alpha[t][s];
                if a <= NEG {
                    continue;
                }
                let (g, ns) = tail_gamma(t, s, RscTrellis::term_input(s));
                let m = a + g;
                if m > next[ns] {
                    next[ns] = m;
                }
            }
            alpha[t + 1] = next;
        }

        // Backward recursion (termination ends in state 0): tail steps
        // down to beta[k], then the information steps from the table.
        beta[steps] = [NEG; STATES];
        beta[steps][0] = 0.0;
        for t in (k..steps).rev() {
            let mut prev = [NEG; STATES];
            for s in 0..STATES {
                let (g, ns) = tail_gamma(t, s, RscTrellis::term_input(s));
                let m = g + beta[t + 1][ns];
                if m > prev[s] {
                    prev[s] = m;
                }
            }
            beta[t] = prev;
        }
        map_backward(&mut beta[..=k], gammas);

        // Per-bit LLR and extrinsic extraction over the information steps.
        map_extrinsic(alpha, beta, gammas, sys, apriori, ext);
    }

    /// Decodes a received block of `3K + 12` channel LLRs (same ordering as
    /// [`TurboCode::encode_block`]) with `iterations` full decoder passes,
    /// returning the K hard-decided information bits.
    ///
    /// Allocates the output; steady-state callers should prefer
    /// [`TurboDecoder::decode_into`].
    pub fn decode_block(&mut self, llrs: &[f64], iterations: usize) -> Vec<u8> {
        let mut bits = Vec::new();
        self.decode_into(llrs, iterations, &mut bits);
        bits
    }

    /// Decodes a received block into a caller-held buffer (cleared, then
    /// filled with the K hard-decided information bits).
    ///
    /// This is the allocation-free entry point: all working storage — the
    /// trellis, the extrinsics, the `x`/`z`/`z'` demux — lives in the
    /// decoder, so once `out` has capacity K repeated calls touch the heap
    /// not at all. Output is bitwise identical to
    /// [`TurboDecoder::decode_block`] on a fresh decoder.
    pub fn decode_into(&mut self, llrs: &[f64], iterations: usize, out: &mut Vec<u8>) {
        let k = self.code.info_len();
        assert_eq!(
            llrs.len(),
            self.code.coded_len(),
            "LLR block length mismatch"
        );
        assert!(iterations >= 1);

        // De-multiplex the streams into the persistent splits.
        for i in 0..k {
            self.sys[i] = llrs[3 * i];
            self.par1[i] = llrs[3 * i + 1];
            self.par2[i] = llrs[3 * i + 2];
        }
        let t = &llrs[3 * k..];
        let tail1_sys = [t[0], t[2], t[4]];
        let tail1_par = [t[1], t[3], t[5]];
        let tail2_sys = [t[6], t[8], t[10]];
        let tail2_par = [t[7], t[9], t[11]];

        self.code
            .interleaver
            .interleave(&self.sys, &mut self.sys_il);

        self.ext2.fill(0.0);
        for _ in 0..iterations {
            // DEC1: a-priori = deinterleaved extrinsic of DEC2.
            self.code
                .interleaver
                .deinterleave(&self.ext2, &mut self.apriori);
            Self::bcjr(
                &mut self.alpha,
                &mut self.beta,
                &mut self.gammas,
                &self.sys,
                &self.par1,
                &self.apriori,
                &tail1_sys,
                &tail1_par,
                &mut self.ext1,
            );
            // DEC2: a-priori = interleaved extrinsic of DEC1.
            self.code
                .interleaver
                .interleave(&self.ext1, &mut self.scratch);
            self.apriori.copy_from_slice(&self.scratch);
            Self::bcjr(
                &mut self.alpha,
                &mut self.beta,
                &mut self.gammas,
                &self.sys_il,
                &self.par2,
                &self.apriori,
                &tail2_sys,
                &tail2_par,
                &mut self.ext2,
            );
        }

        // Final decision: systematic + both extrinsics.
        self.code
            .interleaver
            .deinterleave(&self.ext2, &mut self.scratch);
        out.clear();
        out.extend((0..k).map(|i| llr_to_bit(self.sys[i] + self.ext1[i] + self.scratch[i])));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::bits_to_llrs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rsc_termination_reaches_zero_from_every_state() {
        for s in 0..STATES {
            let mut st = s;
            for _ in 0..TAIL {
                let d = RscTrellis::term_input(st);
                let (ns, _) = RscTrellis::step(st, d);
                st = ns;
            }
            assert_eq!(st, 0, "state {s} did not terminate");
        }
    }

    #[test]
    fn rsc_trellis_is_fully_connected_in_two_steps_pairs() {
        // Each state has exactly two successors and two predecessors.
        let mut preds = [0usize; STATES];
        for s in 0..STATES {
            let (n0, _) = RscTrellis::step(s, 0);
            let (n1, _) = RscTrellis::step(s, 1);
            assert_ne!(n0, n1);
            preds[n0] += 1;
            preds[n1] += 1;
        }
        assert!(preds.iter().all(|&p| p == 2));
    }

    #[test]
    fn fwd_and_bwd_tables_agree() {
        // FWD must be the exact inverse image of BWD.
        for (s, row) in BWD.iter().enumerate() {
            for (d, &(ns, gidx)) in row.iter().enumerate() {
                let p = s & 1;
                assert_eq!(FWD[ns][p], (s, gidx), "s={s} d={d}");
                assert_eq!(gidx >> 1, d, "gamma idx encodes the input bit");
            }
        }
    }

    #[test]
    fn encode_length_is_3k_plus_12() {
        let code = TurboCode::new(40);
        let coded = code.encode_block(&[0u8; 40]);
        assert_eq!(coded.len(), 132);
    }

    #[test]
    fn systematic_bits_pass_through() {
        let code = TurboCode::new(100);
        let bits: Vec<u8> = (0..100).map(|i| (i % 3 == 0) as u8).collect();
        let coded = code.encode_block(&bits);
        for i in 0..100 {
            assert_eq!(coded[3 * i], bits[i]);
        }
    }

    #[test]
    fn zero_block_encodes_to_zero_plus_zero_tail() {
        // All-zero input keeps both RSCs in state 0; tails are zero too.
        let code = TurboCode::new(64);
        let coded = code.encode_block(&[0u8; 64]);
        assert!(coded.iter().all(|&b| b == 0));
    }

    #[test]
    fn noiseless_roundtrip() {
        let code = TurboCode::new(320);
        let mut dec = TurboDecoder::new(code.clone());
        let bits: Vec<u8> = (0..320).map(|i| ((i * 13) % 7 < 3) as u8).collect();
        let coded = code.encode_block(&bits);
        let llrs = bits_to_llrs(&coded, 2.0);
        assert_eq!(dec.decode_block(&llrs, 2), bits);
    }

    #[test]
    fn decodes_awgn_at_low_snr() {
        // Turbo at Eb/N0 = 2 dB, K = 640: expect very few errors (waterfall
        // region is ~1 dB for this size).
        let code = TurboCode::new(640);
        let mut dec = TurboDecoder::new(code.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let rate = 640.0 / code.coded_len() as f64;
        let ebn0 = 10f64.powf(2.0 / 10.0);
        let sigma2 = 1.0 / (2.0 * rate * ebn0);
        let sigma = sigma2.sqrt();
        let mut errors = 0usize;
        let mut total = 0usize;
        for _ in 0..10 {
            let bits: Vec<u8> = (0..640).map(|_| rng.gen_range(0..2u8)).collect();
            let coded = code.encode_block(&bits);
            let llrs: Vec<f64> = coded
                .iter()
                .map(|&b| {
                    let x = 1.0 - 2.0 * b as f64;
                    let u1: f64 = rng.gen_range(1e-12..1.0f64);
                    let u2: f64 = rng.gen_range(0.0..1.0f64);
                    let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    2.0 * (x + sigma * n) / sigma2
                })
                .collect();
            let out = dec.decode_block(&llrs, 6);
            errors += out.iter().zip(&bits).filter(|(a, b)| a != b).count();
            total += bits.len();
        }
        let ber = errors as f64 / total as f64;
        assert!(ber < 1e-3, "turbo BER {ber} at 2 dB too high");
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let code = TurboCode::new(320);
        let mut dec = TurboDecoder::new(code.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let rate = 320.0 / code.coded_len() as f64;
        let ebn0 = 10f64.powf(1.5 / 10.0);
        let sigma2 = 1.0 / (2.0 * rate * ebn0);
        let sigma = sigma2.sqrt();
        let mut err_by_iter = Vec::new();
        let bits: Vec<u8> = (0..320).map(|_| rng.gen_range(0..2u8)).collect();
        let coded = code.encode_block(&bits);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| {
                let x = 1.0 - 2.0 * b as f64;
                let u1: f64 = rng.gen_range(1e-12..1.0f64);
                let u2: f64 = rng.gen_range(0.0..1.0f64);
                let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                2.0 * (x + sigma * n) / sigma2
            })
            .collect();
        for iters in [1usize, 4, 8] {
            let out = dec.decode_block(&llrs, iters);
            err_by_iter.push(out.iter().zip(&bits).filter(|(a, b)| a != b).count());
        }
        assert!(
            err_by_iter[2] <= err_by_iter[0],
            "errors by iteration {err_by_iter:?}"
        );
    }

    #[test]
    #[should_panic(expected = "block length mismatch")]
    fn encode_rejects_wrong_length() {
        let code = TurboCode::new(40);
        let _ = code.encode_block(&[0u8; 39]);
    }
}
