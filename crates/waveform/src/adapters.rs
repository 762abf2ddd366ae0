//! The [`Waveform`]: one lifecycle-managed personality whose processing
//! chain is the S-UMTS CDMA modem (`gsp-modem`) or the MF-TDMA pipeline
//! engine (`gsp-payload`), as its descriptor's kind says.
//!
//! The adapter is deliberately thin: *instantiate* stores the
//! descriptor, *configure* builds the real processing state (modem
//! banks, the pipeline engine), *deactivate* parks it untouched so a
//! rollback can resume bit-for-bit, and *teardown* drops it. Frame
//! processing goes straight through the pre-existing chains — the
//! waveform plane adds lifecycle and observability, not a third modem.

use crate::component::{LifecycleOp, LifecycleState, WaveformError, WaveformFrameReport};
use crate::descriptor::{WaveformDescriptor, WaveformKind};
use gsp_channel::awgn::AwgnChannel;
use gsp_modem::cdma::{CdmaConfig, CdmaReceiver, CdmaTransmitter};
use gsp_payload::chain::{ChainConfig, CHANNELS};
use gsp_payload::pipeline::PipelineEngine;
use gsp_payload::switch::BasebandPacket;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Modelled lifecycle costs, in simulated nanoseconds. Configuration is
/// dominated by per-carrier state allocation; teardown by quiescing and
/// releasing it. The constants are per the §4.4 partial-reconfiguration
/// discussion: bring-up is an order of magnitude dearer than teardown.
const CONFIGURE_BASE_NS: u64 = 2_000_000;
const CONFIGURE_PER_CARRIER_NS: u64 = 500_000;
const TEARDOWN_BASE_NS: u64 = 250_000;
const TEARDOWN_PER_CARRIER_NS: u64 = 50_000;

/// MF-TDMA engine worker count. The report stream is bitwise identical
/// at any count; one keeps the lanes on the caller's thread, with no
/// pool threads to start per swap.
const ENGINE_WORKERS: usize = 1;

/// Per-carrier sub-seed: carrier `k` of frame seed `s` draws from its
/// own `StdRng` so carrier count changes never re-phase the others.
fn carrier_seed(seed: u64, k: usize) -> u64 {
    seed ^ (0xC0DE_0000_0000_0000 | (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A waveform personality with an STRS-style lifecycle.
///
/// Instantiation is the registry load; everything after is a method.
/// `step` is a pure function of the component state and `(seed, tick)`
/// — no wall clock, no ambient randomness — which is what lets a
/// rolled-back swap replay buffered ticks and land bitwise on the
/// never-swapped history.
pub struct Waveform {
    descriptor: WaveformDescriptor,
    state: LifecycleState,
    /// Built by `configure`, dropped by `teardown`.
    chain: Option<Chain>,
}

/// The processing state behind a configured personality.
enum Chain {
    /// One spread/despread user chain per carrier, each run end-to-end
    /// (random payload → transmit → AWGN at the descriptor's Es/N0 →
    /// acquire → despread) every frame, plus the ingress absorbed from
    /// a displaced predecessor.
    Cdma {
        lanes: Vec<(CdmaTransmitter, CdmaReceiver)>,
        pending: Vec<BasebandPacket>,
    },
    /// The full Fig. 2 regenerative chain, switch included.
    MfTdma(Box<PipelineEngine>),
}

impl Waveform {
    /// Instantiates `descriptor` as a personality of `kind` (the kind
    /// the registry lists under the descriptor's name), refusing
    /// parameters that chain cannot build.
    pub(crate) fn instantiate(
        descriptor: &WaveformDescriptor,
        kind: WaveformKind,
    ) -> Result<Self, WaveformError> {
        let refusal = match kind {
            WaveformKind::Cdma if descriptor.kind != kind => Some("kind is not Cdma"),
            WaveformKind::MfTdma if descriptor.kind != kind => Some("kind is not MfTdma"),
            WaveformKind::Cdma if descriptor.info_bits > 256 => {
                Some("CDMA burst payload exceeds 256 bits")
            }
            WaveformKind::MfTdma if usize::from(descriptor.carriers) > CHANNELS => {
                Some("MF-TDMA bank is 8 channels wide")
            }
            _ => None,
        };
        if let Some(why) = refusal {
            return Err(WaveformError::Unbuildable(why));
        }
        Ok(Waveform {
            descriptor: descriptor.clone(),
            state: LifecycleState::Instantiated,
            chain: None,
        })
    }

    /// The descriptor this component was instantiated from.
    pub fn descriptor(&self) -> &WaveformDescriptor {
        &self.descriptor
    }

    /// Current lifecycle state.
    pub fn state(&self) -> LifecycleState {
        self.state
    }

    /// Takes the edge [`LifecycleState::after`] gives for `op`; when the
    /// table has none the call is illegal and nothing changes.
    fn transition(&mut self, op: LifecycleOp) -> Result<(), WaveformError> {
        self.state = self.state.after(op).ok_or(WaveformError::BadTransition {
            from: self.state,
            op,
        })?;
        Ok(())
    }

    /// Applies the lifecycle call `op`, other than `Step`, returning its
    /// modelled cost in simulated nanoseconds (0 for `Run` and
    /// `Deactivate`).
    pub(crate) fn apply(&mut self, op: LifecycleOp) -> Result<u64, WaveformError> {
        match op {
            LifecycleOp::Configure => self.configure(),
            LifecycleOp::Teardown => self.teardown(),
            op => self.transition(op).map(|()| 0),
        }
    }

    /// `Instantiated → Configured`: allocate and parameterise the
    /// processing state. Returns the modelled configuration cost in
    /// simulated nanoseconds (charged to the swap window).
    pub fn configure(&mut self) -> Result<u64, WaveformError> {
        self.transition(LifecycleOp::Configure)?;
        let d = &self.descriptor;
        self.chain = Some(match d.kind {
            WaveformKind::Cdma => {
                let cfg = CdmaConfig::sumts(16, 3, d.info_bits as usize);
                Chain::Cdma {
                    lanes: (0..d.carriers)
                        .map(|_| {
                            (
                                CdmaTransmitter::new(cfg.clone()),
                                CdmaReceiver::new(cfg.clone()),
                            )
                        })
                        .collect(),
                    pending: Vec::new(),
                }
            }
            WaveformKind::MfTdma => Chain::MfTdma(Box::new(PipelineEngine::with_workers(
                ChainConfig {
                    active_carriers: d.carriers as usize,
                    info_bits: d.info_bits as usize,
                    esn0_db: d.esn0_db(),
                    ..ChainConfig::default()
                },
                ENGINE_WORKERS,
            ))),
        });
        Ok(CONFIGURE_BASE_NS + CONFIGURE_PER_CARRIER_NS * d.carriers as u64)
    }

    /// `Configured | Deactivated → Running`: take (or re-take, on
    /// rollback) the carrier.
    pub fn run(&mut self) -> Result<(), WaveformError> {
        self.transition(LifecycleOp::Run)
    }

    /// Process one frame. `Running` only. Deterministic in
    /// `(seed, tick)` given the component's state history.
    pub fn step(&mut self, seed: u64, tick: u64) -> Result<WaveformFrameReport, WaveformError> {
        self.transition(LifecycleOp::Step)?;
        let chain = self
            .chain
            .as_mut()
            .expect("configure built the chain of a running waveform");
        let mut report = WaveformFrameReport {
            tick,
            ..WaveformFrameReport::default()
        };
        match chain {
            Chain::Cdma { lanes, pending } => {
                report.carriers = lanes.len() as u32;
                let esn0 = self.descriptor.esn0_db();
                for (k, (tx, rx)) in lanes.iter_mut().enumerate() {
                    let mut rng = StdRng::seed_from_u64(carrier_seed(seed, k));
                    let bits: Vec<u8> = (0..tx.config().payload_bits())
                        .map(|_| rng.gen_range(0..2u8))
                        .collect();
                    let mut wave = tx.transmit(&bits);
                    if let Some(db) = esn0 {
                        let mut ch = AwgnChannel::from_esn0_db(db);
                        ch.apply(&mut wave, &mut rng);
                    }
                    report.info_bits += bits.len() as u64;
                    match rx.demodulate(&wave, 64) {
                        Some(res) => {
                            report.acquired += 1;
                            report.packets_forwarded += 1;
                            report.bit_errors +=
                                res.bits.iter().zip(&bits).filter(|(a, b)| a != b).count() as u64;
                        }
                        None => {
                            report.crc_failures += 1;
                        }
                    }
                }
                // Ingress absorbed from a displaced predecessor is
                // re-framed onto the CDMA downlink, one burst per packet.
                report.packets_forwarded += pending.len() as u64;
                pending.clear();
            }
            Chain::MfTdma(engine) => {
                let frame = engine.run_frame_at(seed, tick);
                report.carriers = frame.carriers.len() as u32;
                report.packets_forwarded = frame.packets_forwarded;
                for c in &frame.carriers {
                    if c.detected && c.crc_ok {
                        report.acquired += 1;
                    }
                    if c.detected && !c.crc_ok {
                        report.crc_failures += 1;
                    }
                    report.info_bits += c.bits as u64;
                    report.bit_errors += c.bit_errors as u64;
                }
            }
        }
        Ok(report)
    }

    /// Accept ingress handed over from the personality being replaced
    /// (the old switch's undrained queues). Returns how many packets the
    /// component accepted — none before `configure` or after
    /// `teardown`; the controller counts the rest as dropped, so a
    /// personality that cannot absorb a handover shows up in the
    /// voice-drop metric instead of silently losing traffic.
    pub fn absorb_ingress(&mut self, packets: &[BasebandPacket]) -> u64 {
        match &mut self.chain {
            Some(Chain::Cdma { pending, .. }) => pending.extend_from_slice(packets),
            Some(Chain::MfTdma(engine)) => engine.preload_ingress(packets.iter().cloned()),
            None => return 0,
        }
        packets.len() as u64
    }

    /// Drain any buffered ingress for handover to a successor. Called on
    /// a `Deactivated` component by the swap commit path.
    pub fn drain_ingress(&mut self) -> Vec<BasebandPacket> {
        match &mut self.chain {
            Some(Chain::Cdma { pending, .. }) => std::mem::take(pending),
            Some(Chain::MfTdma(engine)) => engine.quiesce(),
            None => Vec::new(),
        }
    }

    /// Any non-running state `→ TornDown`: release the processing state.
    /// Returns the modelled teardown cost in simulated nanoseconds.
    pub fn teardown(&mut self) -> Result<u64, WaveformError> {
        self.transition(LifecycleOp::Teardown)?;
        self.chain = None;
        Ok(TEARDOWN_BASE_NS + TEARDOWN_PER_CARRIER_NS * self.descriptor.carriers as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn running(d: &WaveformDescriptor) -> Waveform {
        let mut wf = Waveform::instantiate(d, d.kind).unwrap();
        wf.configure().unwrap();
        wf.run().unwrap();
        wf
    }

    #[test]
    fn lifecycle_edges_are_enforced() {
        for d in [
            WaveformDescriptor::sumts_cdma(),
            WaveformDescriptor::mf_tdma(),
        ] {
            let mut wf = Waveform::instantiate(&d, d.kind).unwrap();
            assert!(wf.step(1, 0).is_err(), "{}: step before configure", d.name);
            assert!(wf.run().is_err(), "{}: run before configure", d.name);
            wf.configure().unwrap();
            assert!(wf.configure().is_err(), "{}: double configure", d.name);
            wf.run().unwrap();
            assert!(wf.teardown().is_err(), "{}: teardown while running", d.name);
            wf.transition(LifecycleOp::Deactivate).unwrap();
            wf.run().unwrap();
            wf.transition(LifecycleOp::Deactivate).unwrap();
            wf.teardown().unwrap();
            assert!(wf.run().is_err(), "{}: run after teardown", d.name);
            assert!(wf.step(1, 0).is_err(), "{}: step after teardown", d.name);
        }
    }

    #[test]
    fn cdma_frames_are_deterministic_and_clean_on_a_clean_channel() {
        let mut d = WaveformDescriptor::sumts_cdma();
        d.esn0_cdb = i16::MIN;
        let (mut a, mut b) = (running(&d), running(&d));
        for tick in 0..4 {
            let ra = a.step(99 + tick, tick).unwrap();
            let rb = b.step(99 + tick, tick).unwrap();
            assert_eq!(ra, rb);
            assert!(ra.clean(), "clean channel must decode clean: {ra:?}");
        }
    }

    #[test]
    fn mf_tdma_step_matches_raw_engine() {
        let mut wf = running(&WaveformDescriptor::mf_tdma());
        let report = wf.step(7, 3).unwrap();

        let mut engine = PipelineEngine::with_workers(
            ChainConfig {
                esn0_db: Some(12.0),
                ..ChainConfig::default()
            },
            1,
        );
        let raw = engine.run_frame_at(7, 3);
        assert_eq!(report.packets_forwarded, raw.packets_forwarded);
        assert_eq!(
            report.bit_errors,
            raw.carriers
                .iter()
                .map(|c| c.bit_errors as u64)
                .sum::<u64>()
        );
        assert_eq!(report.carriers, raw.carriers.len() as u32);
    }

    #[test]
    fn absorbed_ingress_is_forwarded_not_lost() {
        let pkts: Vec<BasebandPacket> = (0..5u16)
            .map(|i| BasebandPacket {
                source: i,
                dest_beam: 0,
                class: 0,
                born_tick: 0,
                data: vec![0u8; 8],
            })
            .collect();
        let d = WaveformDescriptor::sumts_cdma();
        let mut wf = running(&d);
        assert_eq!(wf.absorb_ingress(&pkts), 5);
        let base = wf.step(3, 0).unwrap();
        let no_ingress = running(&d).step(3, 0).unwrap();
        assert_eq!(base.packets_forwarded, no_ingress.packets_forwarded + 5);

        // Both kinds hand absorbed ingress back intact when drained, and
        // a component with no processing state absorbs nothing.
        for d in [
            WaveformDescriptor::sumts_cdma(),
            WaveformDescriptor::mf_tdma(),
        ] {
            let mut wf = running(&d);
            assert_eq!(wf.absorb_ingress(&pkts), 5, "{}", d.name);
            wf.transition(LifecycleOp::Deactivate).unwrap();
            let mut drained = wf.drain_ingress();
            drained.sort_by_key(|p| p.source);
            assert_eq!(drained, pkts, "{}", d.name);
            let mut fresh = Waveform::instantiate(&d, d.kind).unwrap();
            assert_eq!(fresh.absorb_ingress(&pkts), 0, "{}", d.name);
        }
    }

    #[test]
    fn each_kind_refuses_what_its_chain_cannot_build() {
        let cdma = WaveformDescriptor::sumts_cdma();
        let tdma = WaveformDescriptor::mf_tdma();
        let refusals = [
            (&tdma, WaveformKind::Cdma, "kind is not Cdma"),
            (&cdma, WaveformKind::MfTdma, "kind is not MfTdma"),
            (
                &WaveformDescriptor {
                    info_bits: 257,
                    ..cdma.clone()
                },
                WaveformKind::Cdma,
                "CDMA burst payload exceeds 256 bits",
            ),
            (
                &WaveformDescriptor {
                    carriers: 9,
                    ..tdma.clone()
                },
                WaveformKind::MfTdma,
                "MF-TDMA bank is 8 channels wide",
            ),
        ];
        for (d, kind, why) in refusals {
            assert_eq!(
                Waveform::instantiate(d, kind).map(|_| ()),
                Err(WaveformError::Unbuildable(why))
            );
        }
    }
}
