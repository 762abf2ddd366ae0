//! Fuzz-style robustness tests for the decoders of untrusted bytes:
//! every `gsp-netproto` frame decoder and the payload's uplink and
//! downlink records.
//!
//! Two layers:
//!
//! 1. **Pure decoders** — `Frame::decode`, `tcp::Segment::decode`,
//!    `IpPacket::decode`, `UdpDatagram::decode`,
//!    `SecurityAssociation::unprotect`, `housekeeping::decode_frame`,
//!    `ops::decode_tc`/`decode_tm`, `Bitstream::deserialise` and
//!    `WaveformDescriptor::from_wire` — fed random byte soup, every
//!    strict prefix of valid encodings, and single-bit mutations. The
//!    contract is error-not-panic: malformed input yields `None` (or the
//!    decoder's error), never an out-of-bounds slice or unwrap. A flipped
//!    housekeeping frame is always rejected (its CRC-24 catches every
//!    single-bit error); a flipped TC/TM PDU, which has no CRC of its own
//!    (the N1 frame carries it), either decodes to a PDU whose canonical
//!    encoding is exactly the flipped bytes, or is rejected.
//!
//! 2. **Agents in a live `Sim`** — TFTP server/writer, SCPS-FP
//!    sender/receiver, COPS PDP/PEP — facing a `Blaster` peer that
//!    sends raw garbage frames plus UDP-wrapped garbage aimed at each
//!    protocol's well-known port (so the opcode parsers, not just the
//!    IP header checks, see hostile bytes). The test passes when the
//!    run completes: any panic in `on_frame` fails it.
//!
//! Plus a cut-point property for `gsp-fdir`'s contact-gated
//! `ReconfigUplink`: wherever loss of signal truncates the first
//! pass, the resumed transfer ends byte-exact.

use bytes::Bytes;
use gsp_core::{housekeeping, ops};
use gsp_fdir::recovery::ReconfigUplink;
use gsp_fpga::bitstream::{Bitstream, BitstreamError};
use gsp_netproto::cops::{CopsPdp, CopsPep, PolicyDecision, COPS_PORT};
use gsp_netproto::frames::Frame;
use gsp_netproto::ip::{udp_packet, IpPacket, UdpDatagram, ADDR_NCC, ADDR_OBPC};
use gsp_netproto::ipsec::SecurityAssociation;
use gsp_netproto::scpsfp::{ScpsFpReceiver, ScpsFpSender, SCPS_PORT};
use gsp_netproto::tcp::Segment;
use gsp_netproto::tftp::{TftpServer, TftpWriter, TFTP_PORT};
use gsp_netproto::{Agent, BackoffPolicy, ContactSchedule, ContactWindow, Io, LinkConfig, Sim};
use gsp_payload::platform::{Telecommand, Telemetry};
use gsp_telemetry::Registry;
use gsp_waveform::WaveformDescriptor;
use proptest::prelude::*;

// ---------------------------------------------------------------- pure decoders

const SPI: u32 = 0x1001;
const KEY: u64 = 0xDEAD_BEEF_CAFE_F00D;

/// A housekeeping frame whose metrics are drawn from `seed`.
fn hk_frame(seed: &[u8]) -> Vec<u8> {
    let reg = Registry::new();
    reg.counter("payload.frames").add(seed.len() as u64);
    reg.gauge("payload.workers")
        .set(f64::from(seed.first().copied().unwrap_or(0)));
    let h = reg.histogram_ns("payload.demod.ns");
    for &b in seed.iter().take(16) {
        h.record(1_000 * u64::from(b) + 1);
    }
    housekeeping::encode_frame(&reg.snapshot())
}

fn name_of(data: &[u8]) -> String {
    String::from_utf8_lossy(data).chars().take(12).collect()
}

/// One encoded telecommand of every shape, its fields drawn from `data`.
fn tc_pdus(data: &[u8]) -> Vec<Bytes> {
    let name = name_of(data);
    [
        Telecommand::StoreBitstream {
            name: name.clone(),
            data: data.to_vec(),
        },
        Telecommand::Reconfigure {
            equipment: data.len(),
            name: name.clone(),
        },
        Telecommand::Validate { equipment: 3 },
        Telecommand::DropBitstream { name },
        Telecommand::StatusRequest { equipment: 0 },
    ]
    .iter()
    .map(ops::encode_tc)
    .collect()
}

/// One encoded telemetry item of every shape, its fields drawn from
/// `data`.
fn tm_pdus(data: &[u8]) -> Vec<Bytes> {
    let name = name_of(data);
    [
        Telemetry::BitstreamStored {
            name: name.clone(),
            bytes: data.len(),
        },
        Telemetry::ReconfigDone {
            equipment: 3,
            crc24: 0xABCDEF,
            success: true,
            interruption_ns: data.len() as u64,
        },
        Telemetry::ValidationReport {
            equipment: 1,
            crc_ok: true,
            crc24: 7,
        },
        Telemetry::CommandFailed { reason: name },
        Telemetry::Status {
            equipment: 2,
            running: true,
            design_id: Some(0x07D6),
        },
        Telemetry::Housekeeping {
            frame: data.to_vec(),
        },
    ]
    .iter()
    .map(ops::encode_tm)
    .collect()
}

/// A bitstream of 8-byte frames cut from `data` (zero-padded; at least
/// one frame).
fn bitstream_of(data: &[u8]) -> Bitstream {
    let mut frames: Vec<Vec<u8>> = data
        .chunks(8)
        .map(|c| {
            let mut f = c.to_vec();
            f.resize(8, 0);
            f
        })
        .collect();
    if frames.is_empty() {
        frames.push(vec![0; 8]);
    }
    Bitstream::new(data.len() as u32, "fuzz-device", frames)
}

/// A descriptor whose carrier count and name are drawn from `data`.
fn descriptor_of(data: &[u8]) -> WaveformDescriptor {
    WaveformDescriptor {
        name: format!("wf-{}", data.len()),
        carriers: 1 + (data.len() % 64) as u16,
        ..WaveformDescriptor::mf_tdma()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random bytes through every pure decoder: `None` or a value,
    /// never a panic.
    #[test]
    fn decoders_never_panic_on_random_bytes(raw in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Frame::decode(&raw);
        let _ = Segment::decode(&raw);
        let _ = IpPacket::decode(&raw);
        let _ = UdpDatagram::decode(&raw);
        let _ = housekeeping::decode_frame(&raw);
        let _ = ops::decode_tc(&raw);
        let _ = ops::decode_tm(&raw);
        let _ = Bitstream::deserialise(&raw);
        let _ = WaveformDescriptor::from_wire(&raw);
        let _ = SecurityAssociation::new(SPI, KEY).unprotect(&raw);
        // An SA whose SPI matches the soup reaches the sequence and tag
        // checks.
        let spi = raw.iter().take(4).fold(0u32, |a, &b| (a << 8) | u32::from(b));
        let _ = SecurityAssociation::new(spi, KEY).unprotect(&raw);
    }

    /// Every strict prefix of a valid frame must be rejected (the
    /// length field no longer matches), and decoding it must not read
    /// past the slice.
    #[test]
    fn truncated_frames_are_rejected(
        vcid in any::<u8>(),
        flags in any::<u8>(),
        seq in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..4096,
    ) {
        let frame = Frame { vcid, flags, seq, payload: Bytes::from(payload) };
        let encoded = frame.encode();
        prop_assert_eq!(Frame::decode(&encoded).as_ref(), Some(&frame));
        let cut = cut % encoded.len();
        prop_assert_eq!(Frame::decode(&encoded[..cut]), None);
    }

    /// Single-byte corruption of a valid frame either flips to another
    /// self-consistent frame or is rejected — decode never panics and
    /// an accepted frame always satisfies its own length field.
    #[test]
    fn mutated_frames_decode_or_reject(
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        pos in 0usize..4096,
        bit in 0u8..8,
    ) {
        let flip = |mut bytes: Vec<u8>| {
            let at = pos % bytes.len();
            bytes[at] ^= 1 << bit;
            bytes
        };
        let frame = Frame { vcid: 3, flags: 0, seq: 9, payload: Bytes::from(payload.clone()) };
        let bytes = flip(frame.encode().to_vec());
        if let Some(f) = Frame::decode(&bytes) {
            prop_assert_eq!(f.encode().len(), bytes.len());
        }

        // CRC-24 catches every single-bit error in a housekeeping frame.
        prop_assert_eq!(housekeeping::decode_frame(&flip(hk_frame(&payload))), None);

        // A TC/TM PDU has no CRC of its own: a flip may decode to another
        // command, but only to one whose canonical encoding is exactly
        // the flipped bytes.
        for pdu in tc_pdus(&payload) {
            let bytes = flip(pdu.to_vec());
            if let Some(tc) = ops::decode_tc(&bytes) {
                prop_assert_eq!(ops::encode_tc(&tc).to_vec(), bytes);
            }
        }
        for pdu in tm_pdus(&payload) {
            let bytes = flip(pdu.to_vec());
            if let Some(tm) = ops::decode_tm(&bytes) {
                prop_assert_eq!(ops::encode_tm(&tm).to_vec(), bytes);
            }
        }
    }

    /// Truncated prefixes of valid TCP segments and UDP-in-IP packets
    /// are rejected without panicking.
    #[test]
    fn truncated_segments_and_packets_are_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..4096,
    ) {
        let seg = Segment {
            src_port: 9,
            dst_port: 10,
            seq: 7,
            ack: 3,
            flags: 1,
            payload: Bytes::from(payload.clone()),
        };
        let enc = seg.encode();
        prop_assert_eq!(Segment::decode(&enc).as_ref(), Some(&seg));
        prop_assert_eq!(Segment::decode(&enc[..cut % enc.len()]), None);

        let pkt = udp_packet(ADDR_NCC, ADDR_OBPC, 5, 6, Bytes::from(payload.clone()));
        prop_assert!(IpPacket::decode(&pkt).is_some());
        prop_assert_eq!(IpPacket::decode(&pkt[..cut % pkt.len()]), None);

        let mut tx = SecurityAssociation::new(SPI, KEY);
        let mut rx = SecurityAssociation::new(SPI, KEY);
        let esp = tx.protect(&payload);
        prop_assert_eq!(rx.unprotect(&esp[..cut % esp.len()]), None);
        prop_assert_eq!(rx.unprotect(&esp), Some(payload.clone()));

        let hk = hk_frame(&payload);
        prop_assert!(housekeeping::decode_frame(&hk).is_some());
        prop_assert_eq!(housekeeping::decode_frame(&hk[..cut % hk.len()]), None);

        for pdu in tc_pdus(&payload) {
            prop_assert_eq!(ops::decode_tc(&pdu[..cut % pdu.len()]), None);
        }
        for pdu in tm_pdus(&payload) {
            prop_assert_eq!(ops::decode_tm(&pdu[..cut % pdu.len()]), None);
        }

        let bs = bitstream_of(&payload);
        let wire = bs.serialise();
        prop_assert_eq!(Bitstream::deserialise(&wire).as_ref(), Ok(&bs));
        prop_assert_eq!(
            Bitstream::deserialise(&wire[..cut % wire.len()]),
            Err(BitstreamError::Truncated)
        );

        let d = descriptor_of(&payload);
        let wire = d.to_wire();
        prop_assert_eq!(WaveformDescriptor::from_wire(&wire).as_ref(), Ok(&d));
        prop_assert!(WaveformDescriptor::from_wire(&wire[..cut % wire.len()]).is_err());
    }
}

// ---------------------------------------------------------------- agents under fire

/// A hostile peer: on start it floods the link with raw garbage
/// frames plus UDP datagrams wrapping garbage payloads addressed to
/// each well-known port, then echoes one more garbage volley at the
/// first frame it hears back.
struct Blaster {
    volleys: Vec<Vec<u8>>,
    target: gsp_netproto::ip::IpAddr,
    echoed: bool,
}

impl Blaster {
    fn new(volleys: Vec<Vec<u8>>, target: gsp_netproto::ip::IpAddr) -> Self {
        Blaster {
            volleys,
            target,
            echoed: false,
        }
    }

    fn fire(&self, io: &mut Io) {
        for v in &self.volleys {
            // Raw bytes straight onto the link: exercises the IP
            // header rejection path.
            io.send(Bytes::from(v.clone()));
            // The same bytes as a UDP payload to each protocol port:
            // exercises the opcode parsers behind the header checks.
            for port in [TFTP_PORT, SCPS_PORT, COPS_PORT] {
                io.send(udp_packet(
                    ADDR_NCC ^ 0xFF,
                    self.target,
                    port,
                    port,
                    Bytes::from(v.clone()),
                ));
            }
        }
    }
}

impl Agent for Blaster {
    fn start(&mut self, io: &mut Io) {
        self.fire(io);
    }

    fn on_frame(&mut self, io: &mut Io, _frame: Bytes) {
        if !self.echoed {
            self.echoed = true;
            self.fire(io);
        }
    }

    fn on_timer(&mut self, _io: &mut Io, _id: u64) {}

    fn finished(&self) -> bool {
        // The blaster never gates the run: the target's own state (or
        // the deadline) ends it.
        true
    }
}

/// Runs `target` as the space-side agent against a ground-side
/// `Blaster`; completion without panicking is the assertion.
fn survive_as_space(target: &mut dyn Agent, volleys: Vec<Vec<u8>>, seed: u64) {
    let mut sim = Sim::new(LinkConfig::clean_fast(), seed);
    let mut blaster = Blaster::new(volleys, ADDR_OBPC);
    sim.run(&mut blaster, target, 50_000_000);
}

/// Runs `target` as the ground-side initiator against a space-side
/// `Blaster` that answers its opening frames with garbage.
fn survive_as_ground(target: &mut dyn Agent, volleys: Vec<Vec<u8>>, seed: u64) {
    let mut sim = Sim::new(LinkConfig::clean_fast(), seed);
    let mut blaster = Blaster::new(volleys, ADDR_NCC);
    sim.run(target, &mut blaster, 50_000_000);
}

fn volley_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The TFTP server and the SCPS-FP receiver (the space-side
    /// listeners a ground station talks to) survive garbage volleys.
    #[test]
    fn space_listeners_survive_garbage(volleys in volley_strategy(), seed in any::<u64>()) {
        survive_as_space(&mut TftpServer::new(ADDR_OBPC), volleys.clone(), seed);
        survive_as_space(&mut ScpsFpReceiver::new(ADDR_OBPC), volleys.clone(), seed);
        let mut pep = CopsPep::new(ADDR_OBPC, |_d: &PolicyDecision| true);
        survive_as_space(&mut pep, volleys, seed);
    }

    /// The ground-side initiators — TFTP writer, SCPS-FP sender, COPS
    /// PDP — survive garbage replies to their opening frames.
    #[test]
    fn ground_initiators_survive_garbage(volleys in volley_strategy(), seed in any::<u64>()) {
        let mut writer = TftpWriter::new(
            ADDR_NCC,
            ADDR_OBPC,
            "golden.bit",
            vec![0xA5; 700],
            BackoffPolicy::fixed(5_000_000),
        )
        .expect("700 B fits");
        survive_as_ground(&mut writer, volleys.clone(), seed);

        let mut sender = ScpsFpSender::new(ADDR_NCC, ADDR_OBPC, vec![0x5A; 2500], 5_000_000);
        survive_as_ground(&mut sender, volleys.clone(), seed);

        let decision = PolicyDecision {
            policy_id: 1,
            equipment: 2,
            design_id: 3,
            scrub_period_s: 30,
        };
        let mut pdp = CopsPdp::new(ADDR_NCC, ADDR_OBPC, decision, 5_000_000);
        survive_as_ground(&mut pdp, volleys, seed);
    }
}

// ---------------------------------------------------------------- cross-pass resume

fn golden_wire(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 % 251) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wherever loss of signal cuts the first pass — mid-WRQ,
    /// mid-block, mid-ACK — the upload suspends and the next pass
    /// (a different station) finishes it byte-exact, and the whole
    /// outcome is a deterministic function of (plan, seed).
    #[test]
    fn uplink_resumes_byte_exact_from_any_cut_point(
        cut_ns in 500_000u64..22_000_000,
        gap_ns in 1_000_000u64..50_000_000,
        seed in any::<u64>(),
    ) {
        let link = LinkConfig::clean_fast();
        let plan = ContactSchedule::new(vec![
            ContactWindow {
                start_ns: 0,
                end_ns: cut_ns,
                station: 0,
                pass_id: 1,
                link,
            },
            ContactWindow {
                start_ns: cut_ns + gap_ns,
                end_ns: cut_ns + gap_ns + 2_000_000_000,
                station: 1,
                pass_id: 2,
                link,
            },
        ]);
        let uplink = ReconfigUplink {
            link,
            backoff: BackoffPolicy {
                base_ns: 5_000_000,
                max_ns: 20_000_000,
                jitter: 0.25,
                max_attempts: 4,
            },
            max_sessions: 24,
            session_deadline_ns: 400_000_000,
            contacts: None,
            resume_expiry_ns: 0,
        }
        .over_contacts(plan, 0);

        let wire = golden_wire(9 * 512 + 100);
        let out = uplink.upload(&wire, seed);
        prop_assert!(out.delivered, "cut {cut_ns} gap {gap_ns}: {out:?}");
        prop_assert!(out.verified, "resume must be byte-exact: {out:?}");
        // Any resumed session restarts at the stalled block, never
        // from scratch (expiry is disabled here).
        prop_assert_eq!(out.expired_restarts, 0);
        for &blk in &out.resumed_at_block {
            prop_assert!(blk >= 1, "resume restarted from scratch: {out:?}");
        }
        // The 22 ms ceiling on the first window is short of the ~26 ms
        // a 10-block transfer needs, so every case must cross passes.
        prop_assert!(out.stations_used.contains(&1), "{out:?}");

        let again = uplink.upload(&wire, seed);
        prop_assert_eq!(out, again);
    }
}
