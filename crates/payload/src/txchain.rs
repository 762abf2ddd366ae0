//! The Tx part of Fig. 2: the downlink chain that re-encodes and
//! re-modulates the packets leaving the baseband switch, and a matching
//! ground receiver — closing the *regenerative* loop of §2.1 ("the signal
//! is demodulated and packet switching can be performed at the satellite
//! level").

use crate::chain::burst_link;
use crate::switch::BasebandPacket;
use gsp_channel::twta::SalehTwta;
use gsp_coding::bits::{pack_bits_into, unpack_bits_into};
use gsp_coding::wire::Reader;
use gsp_coding::BurstCodec;
use gsp_dsp::Cpx;
use gsp_modem::tdma::{
    TdmaBurstDemodulator, TdmaBurstModulator, TdmaConfig, TdmaDemodResult, TimingRecoveryKind,
};

/// TWTA input back-off in dB (§ Fig. 2's Tx part drives a TWTA).
const TWTA_BACKOFF_DB: f64 = 6.0;

/// Downlink frame parameters shared by the payload Tx and the ground Rx.
#[derive(Clone, Debug)]
pub struct DownlinkConfig {
    /// Payload bytes carried per downlink burst.
    pub packet_bytes: usize,
}

impl Default for DownlinkConfig {
    fn default() -> Self {
        DownlinkConfig { packet_bytes: 32 }
    }
}

impl DownlinkConfig {
    /// Header bytes prepended to each packet (source id + length).
    const HEADER_BYTES: usize = 4;

    /// The downlink burst's codec and modem configuration.
    fn burst(&self) -> (BurstCodec, TdmaConfig) {
        let info_bits = (Self::HEADER_BYTES + self.packet_bytes) * 8;
        burst_link(info_bits, TimingRecoveryKind::OerderMeyr, None)
    }
}

/// The downlink transmit chain: burst codec → QPSK burst → TWTA.
pub struct TxChain {
    config: DownlinkConfig,
    modulator: TdmaBurstModulator,
    codec: BurstCodec,
    twta: SalehTwta,
    /// Scratch: header + payload bytes of the burst being built.
    body: Vec<u8>,
    /// Scratch: the body unpacked to bits.
    bits: Vec<u8>,
    /// Scratch: the coded block.
    coded: Vec<u8>,
    /// Scratch: assembled burst symbols before pulse shaping.
    syms: Vec<Cpx>,
}

impl TxChain {
    /// Builds a chain for the given downlink parameters.
    pub fn new(config: DownlinkConfig) -> Self {
        let (codec, tdma) = config.burst();
        TxChain {
            twta: SalehTwta::classic(TWTA_BACKOFF_DB),
            config,
            modulator: TdmaBurstModulator::new(tdma),
            codec,
            body: Vec::new(),
            bits: Vec::new(),
            coded: Vec::new(),
            syms: Vec::new(),
        }
    }

    /// Encodes one packet into a downlink burst waveform written into
    /// `wave` (cleared first). Packets longer than `packet_bytes` are
    /// truncated; shorter ones zero-padded.
    ///
    /// Every stage (body, bits, coded block, burst symbols, `wave`) reuses
    /// a buffer, so a warm chain allocates nothing.
    pub fn transmit_into(&mut self, pkt: &BasebandPacket, wave: &mut Vec<Cpx>) {
        self.body.clear();
        self.body
            .resize(DownlinkConfig::HEADER_BYTES + self.config.packet_bytes, 0);
        self.body[0..2].copy_from_slice(&pkt.source.to_be_bytes());
        self.body[2] = pkt.dest_beam;
        self.body[3] = pkt.data.len().min(255) as u8;
        let n = pkt.data.len().min(self.config.packet_bytes);
        self.body[4..4 + n].copy_from_slice(&pkt.data[..n]);
        unpack_bits_into(&self.body, self.body.len() * 8, &mut self.bits);
        self.codec.encode_into(&self.bits, &mut self.coded);
        self.modulator
            .modulate_into(&self.coded, &mut self.syms, wave);
        self.twta.apply(wave);
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
    codec: BurstCodec,
    crc_failures: u64,
    /// Scratch: the demodulator's reusable result slot.
    demod_out: TdmaDemodResult,
    /// Scratch: the decoded information bits.
    bits: Vec<u8>,
    /// Scratch: the decoded bits packed into header + payload bytes.
    body: Vec<u8>,
}

impl GroundReceiver {
    /// Builds the receiver.
    pub fn new(config: DownlinkConfig) -> Self {
        let (codec, tdma) = config.burst();
        GroundReceiver {
            config,
            demod: TdmaBurstDemodulator::new(tdma),
            codec,
            crc_failures: 0,
            demod_out: TdmaDemodResult::default(),
            bits: Vec::new(),
            body: Vec::new(),
        }
    }

    /// CRC failures observed.
    pub fn crc_failures(&self) -> u64 {
        self.crc_failures
    }

    /// Demodulates and decodes one downlink burst. On a warm receiver the
    /// returned packet's `data` is the only allocation.
    pub fn receive(&mut self, samples: &[Cpx]) -> Option<DownlinkPacket> {
        if !self.demod.demodulate_into(samples, &mut self.demod_out) {
            return None;
        }
        if !self.codec.decode_into(&self.demod_out.llrs, &mut self.bits) {
            self.crc_failures += 1;
            return None;
        }
        pack_bits_into(&self.bits, &mut self.body);
        let mut r = Reader::new(&self.body);
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
    use crate::switch::PacketSwitch;
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
        let mut wave = Vec::new();
        tx.transmit_into(&pkt, &mut wave);
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
        let mut wave = Vec::new();
        tx.transmit_into(&pkt, &mut wave);
        let got = rx.receive(&wave).expect("decoded");
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
        let mut wave = Vec::new();
        for i in 0..10u16 {
            let data: Vec<u8> = (0..32).map(|_| rng.gen()).collect();
            let pkt = packet(i, (i % 4) as u8, data.clone());
            tx.transmit_into(&pkt, &mut wave);
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
    fn switch_to_ground_end_to_end() {
        // Packets routed by the switch arrive at the ground terminal with
        // source ids intact — the regenerative forward path. Each burst
        // takes one packet off its beam queue.
        let cfg = DownlinkConfig::default();
        let mut tx = TxChain::new(cfg.clone());
        let mut rx = GroundReceiver::new(cfg);
        let mut sw = PacketSwitch::new(4, 16);
        for i in 0..8u16 {
            sw.ingress(packet(i, (i % 4) as u8, vec![i as u8; 10]));
        }
        let mut recovered = Vec::new();
        let mut wave = Vec::new();
        for beam in 0..4 {
            while let Some(pkt) = sw.egress(beam) {
                // Two packets per beam: one left after the first egress.
                assert_eq!(sw.depth(beam), 1 - recovered.len() % 2);
                tx.transmit_into(&pkt, &mut wave);
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
