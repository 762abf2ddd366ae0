//! The complete regenerative transponder: uplink Fig. 2 chain → baseband
//! packet switch → per-beam Tx chains → downlink channel → ground
//! terminals. This is §2.1's payoff made executable: each hop is decoded
//! independently, so uplink noise does not accumulate onto the downlink.

use crate::chain::{ChainConfig, ChainReport};
use crate::pipeline::{PipelineEngine, PipelineStats};
use crate::txchain::{DownlinkConfig, DownlinkPacket, GroundReceiver, TxChain};
use gsp_channel::awgn::AwgnChannel;
use gsp_coding::bits::pack_bits;
use gsp_dsp::{measure::mean_power, Cpx};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Transponder scenario configuration.
#[derive(Clone, Debug, Default)]
pub struct TransponderConfig {
    /// Uplink chain parameters.
    pub uplink: ChainConfig,
    /// Downlink chain parameters.
    pub downlink: DownlinkConfig,
    /// Downlink Es/N0 at the ground terminal, dB; `None` = noiseless.
    pub downlink_esn0_db: Option<f64>,
}

/// Scenario outcome.
#[derive(Clone, Debug)]
pub struct TransponderReport {
    /// The uplink half's report.
    pub uplink: ChainReport,
    /// Packets recovered at the ground terminals.
    pub delivered: Vec<DownlinkPacket>,
    /// Downlink CRC failures in this frame.
    pub downlink_crc_failures: u64,
    /// Packets whose payload equals the uplink information bytes, whole.
    pub end_to_end_exact: usize,
}

/// The transponder as a persistent simulator: the uplink half runs on a
/// [`PipelineEngine`] (long-lived per-carrier chains reused from frame to
/// frame, parallel demod fan-out) and the downlink half on one Tx chain
/// and one ground receiver, both also kept from frame to frame.
pub struct TransponderSim {
    downlink_esn0_db: Option<f64>,
    engine: PipelineEngine,
    tx: TxChain,
    rx: GroundReceiver,
    /// Scratch: the downlink burst in flight.
    wave: Vec<Cpx>,
}

impl TransponderSim {
    /// Builds the simulator (uplink engine with auto worker count).
    pub fn new(cfg: TransponderConfig) -> Self {
        TransponderSim {
            engine: PipelineEngine::new(cfg.uplink.clone()),
            tx: TxChain::new(cfg.downlink.clone()),
            rx: GroundReceiver::new(cfg.downlink.clone()),
            wave: Vec::new(),
            downlink_esn0_db: cfg.downlink_esn0_db,
        }
    }

    /// Uplink engine stage counters accumulated so far (includes the
    /// switch drop counters surfaced per frame in
    /// [`ChainReport::packets_dropped_overflow`] /
    /// [`ChainReport::packets_dropped_no_route`]).
    pub fn uplink_stats(&self) -> PipelineStats {
        self.engine.stats()
    }

    /// Total switch drops accumulated across the frames run so far, as
    /// `(overflow, no_route)`.
    pub fn switch_drops(&self) -> (u64, u64) {
        let s = self.engine.stats();
        (s.packets_dropped_overflow, s.packets_dropped_no_route)
    }

    /// Registers the uplink engine's metrics on `registry` (see
    /// [`PipelineEngine::set_telemetry`]).
    pub fn set_telemetry(&mut self, registry: &gsp_telemetry::Registry) {
        self.engine.set_telemetry(registry);
    }

    /// Runs one frame through the whole regenerative transponder.
    pub fn run_frame(&mut self, seed: u64) -> TransponderReport {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD0_177E);
        let uplink = self.engine.run_frame(seed);

        let mut switch = uplink.switch.clone();
        let failures_before = self.rx.crc_failures();
        let mut delivered = Vec::new();
        for beam in 0..switch.beams() {
            // At most 64 bursts per beam and frame.
            for pkt in std::iter::from_fn(|| switch.egress(beam)).take(64) {
                self.tx.transmit_into(&pkt, &mut self.wave);
                // Normalise the TWTA output back to the matched-filter
                // calibration before the calibrated-noise channel.
                let p = mean_power(&self.wave);
                if p > 0.0 {
                    let g = (0.25 / p).sqrt();
                    for s in self.wave.iter_mut() {
                        *s = s.scale(g);
                    }
                }
                if let Some(db) = self.downlink_esn0_db {
                    let mut ch = AwgnChannel::from_esn0_db(db - 6.0);
                    ch.apply(&mut self.wave, &mut rng);
                }
                if let Some(pkt) = self.rx.receive(&self.wave) {
                    delivered.push(pkt);
                }
            }
        }

        // Bit-exact end-to-end verification against the uplink ground
        // truth: a truncated packet is not exact.
        let end_to_end_exact = delivered
            .iter()
            .filter(|p| {
                uplink
                    .info_bits
                    .get(p.source as usize)
                    .is_some_and(|bits| p.data == pack_bits(bits))
            })
            .count();

        TransponderReport {
            uplink,
            delivered,
            downlink_crc_failures: self.rx.crc_failures() - failures_before,
            end_to_end_exact,
        }
    }
}

/// Runs one frame through the whole regenerative transponder (convenience
/// wrapper building a one-shot [`TransponderSim`]).
pub fn run_transponder(cfg: &TransponderConfig, seed: u64) -> TransponderReport {
    TransponderSim::new(cfg.clone()).run_frame(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_transponder_delivers_every_packet_bit_exact() {
        let rep = run_transponder(&TransponderConfig::default(), 1);
        assert!(rep.uplink.all_clean());
        assert_eq!(rep.delivered.len(), 6);
        assert_eq!(rep.end_to_end_exact, 6);
        assert_eq!(rep.downlink_crc_failures, 0);
    }

    #[test]
    fn noisy_both_hops_still_regenerates() {
        // Moderate noise on each hop independently: because the payload
        // regenerates, the downlink sees clean packets regardless of
        // uplink noise (as long as the uplink CRC passed).
        let cfg = TransponderConfig {
            uplink: ChainConfig {
                esn0_db: Some(12.0),
                ..ChainConfig::default()
            },
            downlink_esn0_db: Some(10.0),
            ..TransponderConfig::default()
        };
        let rep = run_transponder(&cfg, 2);
        let forwarded = rep.uplink.packets_forwarded as usize;
        assert!(forwarded >= 5, "uplink forwarded {forwarded}");
        assert!(
            rep.end_to_end_exact >= forwarded - 1,
            "delivered {} exact of {forwarded} forwarded",
            rep.end_to_end_exact
        );
    }

    #[test]
    fn persistent_sim_matches_one_shot_runs() {
        // Reusing the uplink engine, the downlink chain and the ground
        // receiver across frames must not change any outcome relative to
        // a fresh transponder per frame.
        let cfg = TransponderConfig {
            uplink: ChainConfig {
                esn0_db: Some(12.0),
                ..ChainConfig::default()
            },
            downlink_esn0_db: Some(10.0),
            ..TransponderConfig::default()
        };
        let mut sim = TransponderSim::new(cfg.clone());
        for seed in [4u64, 5, 6] {
            let persistent = sim.run_frame(seed);
            let one_shot = run_transponder(&cfg, seed);
            assert_eq!(persistent.uplink, one_shot.uplink, "seed {seed}");
            assert_eq!(persistent.delivered, one_shot.delivered, "seed {seed}");
            assert_eq!(
                persistent.downlink_crc_failures,
                one_shot.downlink_crc_failures
            );
            assert_eq!(persistent.end_to_end_exact, one_shot.end_to_end_exact);
        }
        assert_eq!(sim.uplink_stats().frames, 3);
    }

    #[test]
    fn truncated_packets_are_not_bit_exact() {
        // 8-byte downlink packets carry only 8 of each 12-byte uplink
        // packet: every one is delivered, none is exact.
        let cfg = TransponderConfig {
            downlink: DownlinkConfig { packet_bytes: 8 },
            ..TransponderConfig::default()
        };
        let rep = run_transponder(&cfg, 1);
        assert_eq!(rep.delivered.len(), 6);
        assert!(rep.delivered.iter().all(|p| p.data.len() == 8));
        assert_eq!(rep.end_to_end_exact, 0);
    }

    #[test]
    fn packets_route_to_configured_beams() {
        let rep = run_transponder(&TransponderConfig::default(), 3);
        for p in &rep.delivered {
            assert_eq!(p.beam as usize, p.source as usize % 4);
        }
    }
}
