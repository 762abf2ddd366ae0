//! # gsp-coding — UMTS (3G TS 25.212) channel coding for the payload DECOD
//!
//! The paper's first reconfiguration example (§2.3) is swapping the on-board
//! *decoder* between the UMTS coding schemes: no coding, convolutional
//! coding, or turbo coding, "depending on the application considered and the
//! required quality of service". This crate implements that whole suite:
//!
//! * CRC attachment with the four 25.212 generator polynomials
//!   (CRC-8/12/16/24) — also the workspace's one byte CRC, used by the
//!   FPGA configuration validation service of §3.2 and the TM/TC frames;
//! * the K=9 convolutional codes at rates 1/2 and 1/3 with a soft-decision
//!   Viterbi decoder (256 states, block decoding with tail termination);
//! * the UMTS turbo code: a parallel concatenation of two 8-state RSC
//!   encoders (feedback 13₈, feed-forward 15₈) with trellis termination and
//!   a 25.212-family prime interleaver, decoded by an iterative
//!   max-log-MAP (BCJR) decoder;
//! * [`BurstCodec`], the one place that decides which CRC and which
//!   [`CodingScheme`] protect a block and how long the coded block is:
//!   the uplink lanes, the downlink and the coding experiments use it;
//! * block/random interleavers;
//! * [`wire`], the length-checked cursor every decoder of untrusted bytes
//!   in the workspace reads through.
//!
//! Interfaces are bit-vector (`&[u8]` of 0/1) on the encoder side and LLR
//! (`&[f64]`, positive = bit 0 more likely) on the decoder side, matching
//! how the demodulators of `gsp-modem` hand off soft symbols.
//!
//! ### Spec fidelity note (recorded in DESIGN.md)
//! The 25.212 turbo internal interleaver is reproduced structurally (R×C
//! matrix, prime p with primitive root, intra-row power permutations with
//! per-row prime offsets, inter-row permutation, pruning) but the fixed
//! inter-row pattern tables of the spec are replaced by a deterministic
//! derived pattern; encoder and decoder share it, so link performance is
//! statistically identical to the standard interleaver family.

#![deny(missing_docs)]

pub mod bits;
pub mod codec;
pub mod conv;
pub mod crc;
pub mod interleave;
pub mod kernels;
pub mod turbo;
pub mod viterbi;
pub mod wire;

pub use codec::BurstCodec;
pub use conv::{ConvCode, ConvEncoder};
pub use crc::{Crc, CrcKind};
pub use turbo::{TurboCode, TurboDecoder};
pub use viterbi::ViterbiDecoder;

/// The coding scheme selected for a link — the reconfiguration axis of the
/// paper's §2.3 decoder example.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CodingScheme {
    /// No channel coding (transparent).
    Uncoded,
    /// UMTS convolutional code, rate 1/2, K=9.
    ConvHalf,
    /// UMTS convolutional code, rate 1/3, K=9.
    ConvThird,
    /// UMTS turbo code, rate ≈ 1/3, with the given decoder iteration count.
    Turbo {
        /// Number of max-log-MAP iterations the decoder runs.
        iterations: usize,
    },
}

impl CodingScheme {
    /// Human-readable label used by experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            CodingScheme::Uncoded => "uncoded",
            CodingScheme::ConvHalf => "conv r=1/2 K=9",
            CodingScheme::ConvThird => "conv r=1/3 K=9",
            CodingScheme::Turbo { .. } => "turbo r=1/3",
        }
    }
}
