//! The full Fig. 2 receive chain, end to end (experiment F2):
//!
//! ```text
//! per-carrier bursts ─► FDM composite (ADC output) ─► polyphase DEMUX
//!   ─► per-carrier TDMA DEMOD ─► DECOD (Viterbi) ─► CRC ─► packet switch
//! ```
//!
//! The MF-TDMA uplink uses an 8-channel channelizer with 6 active carriers
//! (the paper's §2.3 carrier count); each active carrier bears one QPSK
//! burst per frame, convolutionally coded per UMTS.

use crate::pipeline::PipelineEngine;
use crate::switch::PacketSwitch;
use gsp_coding::kernels::TrellisKernelHandle;
use gsp_coding::{BurstCodec, CodingScheme, CrcKind};
use gsp_modem::framing::BurstFormat;
use gsp_modem::tdma::{TdmaConfig, TimingRecoveryKind};

/// Channelizer size (power of two): the width of the MF-TDMA bank.
pub const CHANNELS: usize = 8;

/// Chain configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainConfig {
    /// Active carriers (≤ [`CHANNELS`]; paper: 6).
    pub active_carriers: usize,
    /// Information bits per burst, before CRC and coding.
    pub info_bits: usize,
    /// Es/N0 at the composite input, dB; `None` = noiseless.
    pub esn0_db: Option<f64>,
    /// Downlink beams on the switch.
    pub beams: usize,
    /// Per-beam switch queue capacity, packets. The default (1024) never
    /// fills on a single frame; congestion scenarios shrink it to make
    /// overflow drops observable.
    pub switch_queue_limit: usize,
    /// Timing-recovery scheme of the per-carrier demodulators (the Fig. 3
    /// personality knob).
    pub timing: TimingRecoveryKind,
    /// Compute-kernel backend for the hot inner loops (channelizer FFT,
    /// matched filter, UW correlator, Viterbi ACS). `None` follows the
    /// process-wide selection (`GSP_KERNEL_BACKEND` or auto-detection);
    /// `Some(backend)` pins the engine's receive chain (demux FFT,
    /// per-lane demodulators and decoders) to that backend, which is how
    /// the cross-backend equivalence tests and the bench matrix force
    /// scalar vs SIMD on the same host.
    pub kernel_backend: Option<gsp_dsp::kernels::Backend>,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            active_carriers: 6,
            info_bits: 96,
            esn0_db: None,
            beams: 4,
            switch_queue_limit: 1024,
            timing: TimingRecoveryKind::OerderMeyr,
            kernel_backend: None,
        }
    }
}

/// Outcome for one carrier's burst.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CarrierOutcome {
    /// Carrier index.
    pub carrier: usize,
    /// Burst detected (UW found)?
    pub detected: bool,
    /// CRC verified after decoding?
    pub crc_ok: bool,
    /// Bit errors against the transmitted information bits.
    pub bit_errors: usize,
    /// Information bits carried.
    pub bits: usize,
}

/// Frame-level report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainReport {
    /// Per-carrier outcomes.
    pub carriers: Vec<CarrierOutcome>,
    /// Packets forwarded by the switch.
    pub packets_forwarded: u64,
    /// Packets the switch dropped on a full beam queue.
    pub packets_dropped_overflow: u64,
    /// Packets the switch dropped for want of a route.
    pub packets_dropped_no_route: u64,
    /// Composite samples processed.
    pub composite_samples: usize,
    /// The switch with its queued packets (input to the Tx chains).
    pub switch: PacketSwitch,
    /// The information bits each carrier transmitted (ground truth for
    /// end-to-end verification by the transponder scenario).
    pub info_bits: Vec<Vec<u8>>,
    /// Channel blocks the polyphase DEMUX actually produced this frame.
    pub demux_produced: usize,
    /// Channel blocks the DEMUX was expected to produce
    /// (`ceil(composite_samples / CHANNELS)`). A mismatch means the
    /// composite was not a whole number of channelizer blocks — the lanes
    /// demodulated zero-padded garbage, which a `debug_assert` used to
    /// catch only in debug builds. See [`ChainReport::demux_ok`].
    pub demux_expected: usize,
}

impl ChainReport {
    /// Aggregate BER across carriers.
    pub fn ber(&self) -> f64 {
        let errs: usize = self.carriers.iter().map(|c| c.bit_errors).sum();
        let bits: usize = self.carriers.iter().map(|c| c.bits).sum();
        if bits == 0 {
            0.0
        } else {
            errs as f64 / bits as f64
        }
    }

    /// Did the DEMUX produce exactly the expected number of channel
    /// blocks? False means the composite length was not a block multiple
    /// and the tail (or everything past the expected count) was lost —
    /// a real error in release builds, not just a debug assertion.
    pub fn demux_ok(&self) -> bool {
        self.demux_produced == self.demux_expected
    }

    /// All carriers detected and CRC-clean, and the DEMUX accounted for
    /// every channel block?
    pub fn all_clean(&self) -> bool {
        self.demux_ok() && self.carriers.iter().all(|c| c.detected && c.crc_ok)
    }
}

/// Runs one MF-TDMA frame through the whole chain.
///
/// Convenience wrapper over [`crate::pipeline::PipelineEngine`]: builds a
/// fresh engine (auto worker count — the report is bitwise independent of
/// it), runs one frame and returns its report. Callers processing many
/// frames should hold a [`PipelineEngine`] instead, which keeps the
/// per-carrier demodulators, decoders and the channelizer alive between
/// frames.
pub fn run_mf_tdma_frame(cfg: &ChainConfig, seed: u64) -> ChainReport {
    PipelineEngine::new(cfg.clone()).run_frame(seed)
}

/// The burst every uplink lane and downlink chain sends: `info_bits`
/// protected by CRC-16 and the rate-½ K=9 convolutional code, carried as
/// QPSK behind a 24-symbol preamble and a 24-symbol unique word. Returns
/// the codec and the burst configuration dimensioned for its coded block.
pub(crate) fn burst_link(
    info_bits: usize,
    timing: TimingRecoveryKind,
    backend: Option<TrellisKernelHandle>,
) -> (BurstCodec, TdmaConfig) {
    let crc = Some(CrcKind::Crc16);
    let codec = BurstCodec::new(CodingScheme::ConvHalf, crc, info_bits, backend);
    let format = BurstFormat::standard(24, 24, codec.coded_len() / 2);
    (codec, TdmaConfig::new(format, timing))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_frame_is_clean_on_all_carriers() {
        let report = run_mf_tdma_frame(&ChainConfig::default(), 1);
        assert!(report.all_clean(), "{:?}", report.carriers);
        assert_eq!(report.packets_forwarded, 6);
        assert_eq!(report.ber(), 0.0);
    }

    #[test]
    fn moderate_noise_still_decodes() {
        let cfg = ChainConfig {
            esn0_db: Some(14.0),
            ..ChainConfig::default()
        };
        let mut clean_frames = 0;
        for seed in 0..5 {
            let report = run_mf_tdma_frame(&cfg, seed);
            if report.all_clean() {
                clean_frames += 1;
            }
        }
        assert!(clean_frames >= 4, "only {clean_frames}/5 frames clean");
    }

    #[test]
    fn single_carrier_works() {
        let cfg = ChainConfig {
            active_carriers: 1,
            ..ChainConfig::default()
        };
        let report = run_mf_tdma_frame(&cfg, 3);
        assert!(report.all_clean());
        assert_eq!(report.packets_forwarded, 1);
    }

    #[test]
    fn heavy_noise_breaks_crc_not_the_chain() {
        let cfg = ChainConfig {
            esn0_db: Some(-2.0),
            ..ChainConfig::default()
        };
        let report = run_mf_tdma_frame(&cfg, 4);
        // The chain must not panic; most carriers should fail CRC or UW.
        assert!(
            report.carriers.iter().filter(|c| c.crc_ok).count() < 6,
            "noise this heavy should corrupt something"
        );
    }

    #[test]
    fn gardner_timing_also_carries_the_chain() {
        let cfg = ChainConfig {
            timing: TimingRecoveryKind::Gardner,
            esn0_db: Some(14.0),
            ..ChainConfig::default()
        };
        let report = run_mf_tdma_frame(&cfg, 9);
        let clean = report.carriers.iter().filter(|c| c.crc_ok).count();
        assert!(clean >= 5, "Gardner chain: {clean}/6 clean");
    }

    #[test]
    fn packets_route_round_robin_to_beams() {
        let report = run_mf_tdma_frame(&ChainConfig::default(), 5);
        assert!(report.all_clean());
        // 6 carriers over 4 beams: beams 0,1 get 2 packets, 2,3 get 1.
        assert_eq!(report.packets_forwarded, 6);
    }
}
