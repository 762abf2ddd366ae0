//! The Tx part of Fig. 2: per-beam downlink chains that drain the
//! baseband switch, re-encode and re-modulate the packets, and a matching
//! ground receiver — closing the *regenerative* loop of §2.1 ("the signal
//! is demodulated and packet switching can be performed at the satellite
//! level").

use crate::switch::{BasebandPacket, PacketSwitch};
use gsp_channel::twta::SalehTwta;
use gsp_coding::bits::{pack_bits, unpack_bits_into};
use gsp_coding::wire::Reader;
use gsp_coding::{ConvCode, ConvEncoder, Crc, CrcKind, ViterbiDecoder};
use gsp_dsp::Cpx;
use gsp_modem::framing::BurstFormat;
use gsp_modem::tdma::{
    TdmaBurstDemodulator, TdmaBurstModulator, TdmaConfig, TdmaDemodResult, TimingRecoveryKind,
};

/// Downlink frame parameters shared by the payload Tx and the ground Rx.
#[derive(Clone, Debug)]
pub struct DownlinkConfig {
    /// Payload bytes carried per downlink burst.
    pub packet_bytes: usize,
    /// TWTA input back-off in dB (§ Fig. 2's Tx part drives a TWTA).
    pub twta_backoff_db: f64,
    /// Enable the TWTA model (disable for ideal-amplifier ablations).
    pub twta_enabled: bool,
}

impl Default for DownlinkConfig {
    fn default() -> Self {
        DownlinkConfig {
            packet_bytes: 32,
            twta_backoff_db: 6.0,
            twta_enabled: true,
        }
    }
}

impl DownlinkConfig {
    /// Header bytes prepended to each packet (source id + length).
    const HEADER_BYTES: usize = 4;

    fn info_bits(&self) -> usize {
        (Self::HEADER_BYTES + self.packet_bytes) * 8
    }

    fn coded_bits(&self) -> usize {
        (self.info_bits() + 16 + 8) * 2 // +CRC16, +tail, rate 1/2
    }

    fn burst_format(&self) -> BurstFormat {
        BurstFormat::standard(24, 24, self.coded_bits() / 2)
    }

    fn tdma_config(&self) -> TdmaConfig {
        TdmaConfig::new(self.burst_format(), TimingRecoveryKind::OerderMeyr)
    }
}

/// One beam's transmit chain: CRC → conv encode → QPSK burst → TWTA.
pub struct TxChain {
    config: DownlinkConfig,
    modulator: TdmaBurstModulator,
    crc: Crc,
    encoder: ConvEncoder,
    twta: SalehTwta,
    bursts_sent: u64,
    /// Scratch: header + payload bytes of the burst being built.
    body: Vec<u8>,
    /// Scratch: the body unpacked to bits.
    bits: Vec<u8>,
    /// Scratch: bits with the CRC attached.
    protected: Vec<u8>,
    /// Scratch: the convolutionally coded block.
    coded: Vec<u8>,
    /// Scratch: assembled burst symbols before pulse shaping.
    syms: Vec<Cpx>,
}

impl TxChain {
    /// Builds a chain for the given downlink parameters.
    pub fn new(config: DownlinkConfig) -> Self {
        let modulator = TdmaBurstModulator::new(config.tdma_config());
        TxChain {
            twta: SalehTwta::classic(config.twta_backoff_db),
            config,
            modulator,
            crc: Crc::new(CrcKind::Crc16),
            encoder: ConvEncoder::new(ConvCode::umts_half()),
            bursts_sent: 0,
            body: Vec::new(),
            bits: Vec::new(),
            protected: Vec::new(),
            coded: Vec::new(),
            syms: Vec::new(),
        }
    }

    /// Bursts transmitted so far.
    pub fn bursts_sent(&self) -> u64 {
        self.bursts_sent
    }

    /// Encodes one packet into a downlink burst waveform. Packets longer
    /// than `packet_bytes` are truncated; shorter ones zero-padded.
    ///
    /// The returned waveform is the only allocation in steady state: every
    /// intermediate stage (body, bits, CRC, coded block, burst symbols)
    /// reuses chain-owned scratch.
    pub fn transmit_packet(&mut self, pkt: &BasebandPacket) -> Vec<Cpx> {
        self.body.clear();
        self.body
            .resize(DownlinkConfig::HEADER_BYTES + self.config.packet_bytes, 0);
        self.body[0..2].copy_from_slice(&pkt.source.to_be_bytes());
        self.body[2] = pkt.dest_beam;
        self.body[3] = pkt.data.len().min(255) as u8;
        let n = pkt.data.len().min(self.config.packet_bytes);
        self.body[4..4 + n].copy_from_slice(&pkt.data[..n]);
        unpack_bits_into(&self.body, self.body.len() * 8, &mut self.bits);
        self.crc.attach_into(&self.bits, &mut self.protected);
        self.encoder.encode_into(&self.protected, &mut self.coded);
        let mut wave = Vec::new();
        self.modulator
            .modulate_into(&self.coded, &mut self.syms, &mut wave);
        if self.config.twta_enabled {
            self.twta.apply(&mut wave);
        }
        self.bursts_sent += 1;
        wave
    }

    /// Drains up to `max` packets from one switch beam queue into burst
    /// waveforms.
    pub fn drain_beam(
        &mut self,
        switch: &mut PacketSwitch,
        beam: usize,
        max: usize,
    ) -> Vec<Vec<Cpx>> {
        let mut out = Vec::new();
        while out.len() < max {
            let Some(pkt) = switch.egress(beam) else {
                break;
            };
            out.push(self.transmit_packet(&pkt));
        }
        out
    }
}

/// A recovered downlink packet at the ground terminal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DownlinkPacket {
    /// Uplink source id carried through the payload.
    pub source: u16,
    /// Beam the payload routed to.
    pub beam: u8,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// The ground receiver matching [`TxChain`].
pub struct GroundReceiver {
    config: DownlinkConfig,
    demod: TdmaBurstDemodulator,
    viterbi: ViterbiDecoder,
    crc: Crc,
    crc_failures: u64,
    /// Scratch: the demodulator's reusable result slot.
    demod_out: TdmaDemodResult,
    /// Scratch: the Viterbi decoder's reusable output buffer.
    decoded: Vec<u8>,
}

impl GroundReceiver {
    /// Builds the receiver.
    pub fn new(config: DownlinkConfig) -> Self {
        let demod = TdmaBurstDemodulator::new(config.tdma_config());
        GroundReceiver {
            config,
            demod,
            viterbi: ViterbiDecoder::new(ConvCode::umts_half()),
            crc: Crc::new(CrcKind::Crc16),
            crc_failures: 0,
            demod_out: TdmaDemodResult::default(),
            decoded: Vec::new(),
        }
    }

    /// CRC failures observed.
    pub fn crc_failures(&self) -> u64 {
        self.crc_failures
    }

    /// Demodulates and decodes one downlink burst.
    pub fn receive(&mut self, samples: &[Cpx]) -> Option<DownlinkPacket> {
        if !self.demod.demodulate_into(samples, &mut self.demod_out) {
            return None;
        }
        self.viterbi
            .decode_into(&self.demod_out.llrs, &mut self.decoded);
        let Some(info) = self.crc.check(&self.decoded) else {
            self.crc_failures += 1;
            return None;
        };
        let bytes = pack_bits(info);
        let mut r = Reader::new(&bytes);
        let (source, beam, len) = (r.u16()?, r.u8()?, r.u8()?);
        let len = usize::from(len).min(self.config.packet_bytes);
        Some(DownlinkPacket {
            source,
            beam,
            data: r.bytes(len)?.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsp_channel::awgn::AwgnChannel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn packet(source: u16, beam: u8, data: Vec<u8>) -> BasebandPacket {
        BasebandPacket {
            class: 0,
            born_tick: 0,
            source,
            dest_beam: beam,
            data,
        }
    }

    #[test]
    fn clean_downlink_roundtrip() {
        let cfg = DownlinkConfig::default();
        let mut tx = TxChain::new(cfg.clone());
        let mut rx = GroundReceiver::new(cfg);
        let pkt = packet(7, 2, (0..32u8).collect());
        let wave = tx.transmit_packet(&pkt);
        let got = rx.receive(&wave).expect("decoded");
        assert_eq!(got.source, 7);
        assert_eq!(got.beam, 2);
        assert_eq!(got.data, (0..32u8).collect::<Vec<_>>());
    }

    #[test]
    fn short_packets_report_their_length() {
        let cfg = DownlinkConfig::default();
        let mut tx = TxChain::new(cfg.clone());
        let mut rx = GroundReceiver::new(cfg);
        let pkt = packet(1, 0, vec![0xAB, 0xCD]);
        let got = rx.receive(&tx.transmit_packet(&pkt)).expect("decoded");
        assert_eq!(got.data, vec![0xAB, 0xCD]);
    }

    #[test]
    fn twta_backoff_keeps_link_clean_through_noise() {
        // At 6 dB back-off the Saleh nonlinearity leaves margin at 10 dB
        // Es/N0; packets decode with no CRC failures.
        let cfg = DownlinkConfig::default();
        let mut tx = TxChain::new(cfg.clone());
        let mut rx = GroundReceiver::new(cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let mut ok = 0;
        for i in 0..10u16 {
            let data: Vec<u8> = (0..32).map(|_| rng.gen()).collect();
            let pkt = packet(i, (i % 4) as u8, data.clone());
            let mut wave = tx.transmit_packet(&pkt);
            // Normalise the TWTA's small-signal gain before adding
            // calibrated noise.
            let p: f64 = wave.iter().map(|s| s.norm_sqr()).sum::<f64>() / wave.len() as f64;
            let target = 0.25; // matched-filter calibration for sps=4
            let g = (target / p).sqrt();
            for s in wave.iter_mut() {
                *s = s.scale(g);
            }
            let mut ch = AwgnChannel::from_esn0_db(10.0 - 6.0);
            ch.apply(&mut wave, &mut rng);
            if let Some(got) = rx.receive(&wave) {
                assert_eq!(got.data, data);
                ok += 1;
            }
        }
        assert!(ok >= 9, "{ok}/10 packets decoded");
    }

    #[test]
    fn drain_beam_respects_queue_and_limit() {
        let cfg = DownlinkConfig::default();
        let mut tx = TxChain::new(cfg);
        let mut sw = PacketSwitch::new(2, 16);
        for i in 0..5u16 {
            sw.ingress(packet(i, 1, vec![i as u8]));
        }
        let bursts = tx.drain_beam(&mut sw, 1, 3);
        assert_eq!(bursts.len(), 3);
        assert_eq!(sw.depth(1), 2);
        assert_eq!(tx.bursts_sent(), 3);
        // Empty beam drains nothing.
        assert!(tx.drain_beam(&mut sw, 0, 3).is_empty());
    }

    #[test]
    fn switch_to_ground_end_to_end() {
        // Packets routed by the switch arrive at the ground terminal with
        // source ids intact — the regenerative forward path.
        let cfg = DownlinkConfig::default();
        let mut tx = TxChain::new(cfg.clone());
        let mut rx = GroundReceiver::new(cfg);
        let mut sw = PacketSwitch::new(4, 16);
        for i in 0..8u16 {
            sw.ingress(packet(i, (i % 4) as u8, vec![i as u8; 10]));
        }
        let mut recovered = Vec::new();
        for beam in 0..4 {
            for wave in tx.drain_beam(&mut sw, beam, 16) {
                recovered.push(rx.receive(&wave).expect("decoded"));
            }
        }
        assert_eq!(recovered.len(), 8);
        let mut sources: Vec<u16> = recovered.iter().map(|p| p.source).collect();
        sources.sort_unstable();
        assert_eq!(sources, (0..8).collect::<Vec<_>>());
        assert_eq!(rx.crc_failures(), 0);
    }
}
