//! The operations link: platform telecommands and telemetry carried over
//! the *actual* N1 protocol stack (controlled-mode TM/TC transfer frames
//! on a dedicated virtual channel), not an abstract RTT model — Fig. 1's
//! platform↔NCC interaction end to end.
//!
//! The NCC queues [`Telecommand`]s; each travels as one PDU over the
//! simulated GEO link, is executed by the on-board processor controller,
//! and every resulting [`Telemetry`] item returns the same way.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{BufMut, Bytes, BytesMut};
use gsp_coding::wire::Reader;
use gsp_netproto::frames::{Frame, FrameMode, FrameService};
use gsp_netproto::link::LinkConfig;
use gsp_netproto::sim::{Agent, Io, Sim, SimStats};
use gsp_payload::obpc::Obpc;
use gsp_payload::platform::{Platform, Telecommand, Telemetry};

/// Virtual channel dedicated to operations (the paper: "some virtual
/// channels may be dedicated to the reconfiguration procedure").
pub const OPS_VCID: u8 = 1;

fn put_bytes(b: &mut BytesMut, data: &[u8]) {
    b.put_u32(data.len() as u32);
    b.put_slice(data);
}

/// Reads what [`put_bytes`] wrote: a `u32` length, then that many bytes.
fn get_bytes(r: &mut Reader) -> Option<Vec<u8>> {
    let n = r.u32()?;
    Some(r.bytes(n as usize)?.to_vec())
}

/// Reads a bool byte: `0` or `1`, anything else refused.
fn get_bool(r: &mut Reader) -> Option<bool> {
    match r.u8()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// Encodes a telecommand as a PDU.
pub fn encode_tc(tc: &Telecommand) -> Bytes {
    let mut b = BytesMut::new();
    match tc {
        Telecommand::StoreBitstream { name, data } => {
            b.put_u8(1);
            put_bytes(&mut b, name.as_bytes());
            put_bytes(&mut b, data);
        }
        Telecommand::Reconfigure { equipment, name } => {
            b.put_u8(2);
            b.put_u16(*equipment as u16);
            put_bytes(&mut b, name.as_bytes());
        }
        Telecommand::Validate { equipment } => {
            b.put_u8(3);
            b.put_u16(*equipment as u16);
        }
        Telecommand::DropBitstream { name } => {
            b.put_u8(4);
            put_bytes(&mut b, name.as_bytes());
        }
        Telecommand::StatusRequest { equipment } => {
            b.put_u8(5);
            b.put_u16(*equipment as u16);
        }
    }
    b.freeze()
}

/// Decodes a telecommand PDU.
pub fn decode_tc(data: &[u8]) -> Option<Telecommand> {
    let mut r = Reader::new(data);
    let tc = match r.u8()? {
        1 => Telecommand::StoreBitstream {
            name: String::from_utf8(get_bytes(&mut r)?).ok()?,
            data: get_bytes(&mut r)?,
        },
        2 => Telecommand::Reconfigure {
            equipment: usize::from(r.u16()?),
            name: String::from_utf8(get_bytes(&mut r)?).ok()?,
        },
        3 => Telecommand::Validate {
            equipment: usize::from(r.u16()?),
        },
        4 => Telecommand::DropBitstream {
            name: String::from_utf8(get_bytes(&mut r)?).ok()?,
        },
        5 => Telecommand::StatusRequest {
            equipment: usize::from(r.u16()?),
        },
        _ => return None,
    };
    r.finish()?;
    Some(tc)
}

/// Encodes a telemetry item as a PDU.
pub fn encode_tm(tm: &Telemetry) -> Bytes {
    let mut b = BytesMut::new();
    match tm {
        Telemetry::BitstreamStored { name, bytes } => {
            b.put_u8(1);
            put_bytes(&mut b, name.as_bytes());
            b.put_u32(*bytes as u32);
        }
        Telemetry::ReconfigDone {
            equipment,
            crc24,
            success,
            interruption_ns,
        } => {
            b.put_u8(2);
            b.put_u16(*equipment as u16);
            b.put_u32(*crc24);
            b.put_u8(*success as u8);
            b.put_u64(*interruption_ns);
        }
        Telemetry::ValidationReport {
            equipment,
            crc_ok,
            crc24,
        } => {
            b.put_u8(3);
            b.put_u16(*equipment as u16);
            b.put_u8(*crc_ok as u8);
            b.put_u32(*crc24);
        }
        Telemetry::CommandFailed { reason } => {
            b.put_u8(4);
            put_bytes(&mut b, reason.as_bytes());
        }
        Telemetry::Status {
            equipment,
            running,
            design_id,
        } => {
            b.put_u8(5);
            b.put_u16(*equipment as u16);
            b.put_u8(*running as u8);
            b.put_u8(design_id.is_some() as u8);
            b.put_u32(design_id.unwrap_or(0));
        }
        Telemetry::Housekeeping { frame } => {
            b.put_u8(6);
            put_bytes(&mut b, frame);
        }
    }
    b.freeze()
}

/// Decodes a telemetry PDU. Only the canonical encoding is accepted: a
/// bool byte other than 0 or 1, or a non-zero `design_id` word after an
/// absent flag, is refused.
pub fn decode_tm(data: &[u8]) -> Option<Telemetry> {
    let mut r = Reader::new(data);
    let tm = match r.u8()? {
        1 => Telemetry::BitstreamStored {
            name: String::from_utf8(get_bytes(&mut r)?).ok()?,
            bytes: r.u32()? as usize,
        },
        2 => Telemetry::ReconfigDone {
            equipment: usize::from(r.u16()?),
            crc24: r.u32()?,
            success: get_bool(&mut r)?,
            interruption_ns: r.u64()?,
        },
        3 => Telemetry::ValidationReport {
            equipment: usize::from(r.u16()?),
            crc_ok: get_bool(&mut r)?,
            crc24: r.u32()?,
        },
        4 => Telemetry::CommandFailed {
            reason: String::from_utf8(get_bytes(&mut r)?).ok()?,
        },
        5 => Telemetry::Status {
            equipment: usize::from(r.u16()?),
            running: get_bool(&mut r)?,
            design_id: match (get_bool(&mut r)?, r.u32()?) {
                (true, id) => Some(id),
                (false, 0) => None,
                (false, _) => return None,
            },
        },
        6 => Telemetry::Housekeeping {
            frame: get_bytes(&mut r)?,
        },
        _ => return None,
    };
    r.finish()?;
    Some(tm)
}

/// The NCC end of the operations link.
pub struct NccOps {
    svc: FrameService,
    queue: Vec<Telecommand>,
    /// Telemetry received back from the spacecraft.
    pub telemetry: Vec<Telemetry>,
    /// Telemetry items expected before the session closes.
    pub expect_tm: usize,
    started: bool,
}

impl NccOps {
    /// New NCC endpoint sending `commands` and waiting for `expect_tm`
    /// telemetry items.
    pub fn new(commands: Vec<Telecommand>, expect_tm: usize, link: &LinkConfig) -> Self {
        NccOps {
            svc: FrameService::new(
                OPS_VCID,
                FrameMode::Controlled { window: 8 },
                2,
                2 * link.rtt_ns() + 300_000_000,
            ),
            queue: commands,
            telemetry: Vec::new(),
            expect_tm,
            started: false,
        }
    }
}

impl Agent for NccOps {
    fn start(&mut self, io: &mut Io) {
        for tc in std::mem::take(&mut self.queue) {
            let pdu = encode_tc(&tc);
            self.svc.send_pdu(io, &pdu);
        }
        self.started = true;
    }

    fn on_frame(&mut self, io: &mut Io, raw: Bytes) {
        if let Some(f) = Frame::decode(&raw) {
            for pdu in self.svc.on_frame(io, &f).pdus {
                if let Some(tm) = decode_tm(&pdu) {
                    self.telemetry.push(tm);
                }
            }
        }
    }

    fn on_timer(&mut self, io: &mut Io, id: u64) {
        self.svc.on_timer(io, id);
    }

    fn finished(&self) -> bool {
        self.started && self.svc.idle() && self.telemetry.len() >= self.expect_tm
    }
}

/// The spacecraft end: executes commands through the OBPC as they arrive.
pub struct SatelliteOps {
    svc: FrameService,
    platform: Platform,
    /// The on-board processor controller (exposed for post-session
    /// inspection).
    pub obpc: Obpc,
}

impl SatelliteOps {
    /// New spacecraft endpoint around an OBPC.
    pub fn new(obpc: Obpc, link: &LinkConfig) -> Self {
        SatelliteOps {
            svc: FrameService::new(
                OPS_VCID,
                FrameMode::Controlled { window: 8 },
                2,
                2 * link.rtt_ns() + 300_000_000,
            ),
            platform: Platform::new(),
            obpc,
        }
    }
}

impl Agent for SatelliteOps {
    fn start(&mut self, _io: &mut Io) {}

    fn on_frame(&mut self, io: &mut Io, raw: Bytes) {
        let Some(f) = Frame::decode(&raw) else { return };
        let delivery = self.svc.on_frame(io, &f);
        let mut executed = false;
        for pdu in delivery.pdus {
            if let Some(tc) = decode_tc(&pdu) {
                self.platform.uplink(tc);
                executed = true;
            }
        }
        if executed {
            self.obpc.service_platform(&mut self.platform);
            for tm in self.platform.downlink() {
                let pdu = encode_tm(&tm);
                self.svc.send_pdu(io, &pdu);
            }
        }
    }

    fn on_timer(&mut self, io: &mut Io, id: u64) {
        self.svc.on_timer(io, id);
    }

    fn finished(&self) -> bool {
        true
    }
}

/// Runs one operations session: sends `commands` over `link`, executes
/// them on `obpc`, returns (telemetry received at the NCC, link stats,
/// the OBPC afterwards).
pub fn run_ops_session(
    commands: Vec<Telecommand>,
    expect_tm: usize,
    obpc: Obpc,
    link: LinkConfig,
    seed: u64,
) -> (Vec<Telemetry>, SimStats, Obpc) {
    let mut ncc = NccOps::new(commands, expect_tm, &link);
    let mut sat = SatelliteOps::new(obpc, &link);
    let mut sim = Sim::new(link, seed);
    let stats = sim.run(&mut ncc, &mut sat, 48 * 3_600_000_000_000);
    (ncc.telemetry, stats, sat.obpc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsp_fpga::device::FpgaDevice;
    use gsp_payload::equipment::standard_payload;
    use gsp_payload::memory::OnboardMemory;

    fn fresh_obpc() -> Obpc {
        Obpc::new(OnboardMemory::new(8 << 20, true), standard_payload())
    }

    /// One telecommand of every kind.
    fn sample_tcs() -> Vec<Telecommand> {
        vec![
            Telecommand::StoreBitstream {
                name: "a.bit".into(),
                data: vec![1, 2, 3, 255],
            },
            Telecommand::Reconfigure {
                equipment: 3,
                name: "a.bit".into(),
            },
            Telecommand::Validate { equipment: 4 },
            Telecommand::DropBitstream { name: "x".into() },
            Telecommand::StatusRequest { equipment: 0 },
        ]
    }

    /// One telemetry item of every kind (and both `Status` shapes).
    fn sample_tms() -> Vec<Telemetry> {
        vec![
            Telemetry::BitstreamStored {
                name: "a.bit".into(),
                bytes: 12345,
            },
            Telemetry::ReconfigDone {
                equipment: 3,
                crc24: 0xABCDEF,
                success: true,
                interruption_ns: 5_930_000,
            },
            Telemetry::ValidationReport {
                equipment: 3,
                crc_ok: false,
                crc24: 7,
            },
            Telemetry::CommandFailed {
                reason: "no equipment 99".into(),
            },
            Telemetry::Status {
                equipment: 1,
                running: true,
                design_id: Some(0x07D6),
            },
            Telemetry::Status {
                equipment: 2,
                running: false,
                design_id: None,
            },
            Telemetry::Housekeeping {
                frame: crate::housekeeping::encode_frame(&Default::default()),
            },
        ]
    }

    #[test]
    fn tc_tm_codecs_roundtrip() {
        for tc in sample_tcs() {
            assert_eq!(decode_tc(&encode_tc(&tc)), Some(tc));
        }
        for tm in sample_tms() {
            assert_eq!(decode_tm(&encode_tm(&tm)), Some(tm));
        }
    }

    #[test]
    fn pdus_with_trailing_bytes_are_refused() {
        assert_eq!(decode_tc(&[3, 0, 4, 0xFF, 0xEE]), None);
        let report = encode_tm(&Telemetry::ValidationReport {
            equipment: 3,
            crc_ok: true,
            crc24: 7,
        });
        assert_eq!(report.len(), 8);
        assert_eq!(decode_tm(&[&report[..], &[0]].concat()), None);
        for tc in sample_tcs() {
            let padded = [&encode_tc(&tc)[..], &[0]].concat();
            assert_eq!(decode_tc(&padded), None, "{tc:?}");
        }
        for tm in sample_tms() {
            let padded = [&encode_tm(&tm)[..], &[0]].concat();
            assert_eq!(decode_tm(&padded), None, "{tm:?}");
        }
    }

    #[test]
    fn non_canonical_tm_pdus_are_refused() {
        let done = Telemetry::ReconfigDone {
            equipment: 3,
            crc24: 0xABCDEF,
            success: true,
            interruption_ns: 5,
        };
        let mut pdu = encode_tm(&done).to_vec();
        assert_eq!(pdu[7], 1, "success byte");
        pdu[7] = 3;
        assert_eq!(decode_tm(&pdu), None);

        let report = Telemetry::ValidationReport {
            equipment: 3,
            crc_ok: false,
            crc24: 7,
        };
        let mut pdu = encode_tm(&report).to_vec();
        pdu[3] = 2;
        assert_eq!(decode_tm(&pdu), None);

        let status = Telemetry::Status {
            equipment: 2,
            running: false,
            design_id: None,
        };
        let pdu = encode_tm(&status).to_vec();
        for (at, byte) in [(3, 0x80), (4, 2), (8, 1)] {
            let mut bad = pdu.clone();
            bad[at] = byte;
            assert_eq!(decode_tm(&bad), None, "byte {at} = {byte:#x}");
        }
    }

    #[test]
    fn full_reconfiguration_session_over_the_real_stack() {
        // Upload + reconfigure + validate + status, all as TC frames over
        // the lossy GEO link; telemetry confirms each step.
        let device = FpgaDevice::virtex_like_1m();
        let tdma = gsp_waveform::WaveformDescriptor::mf_tdma();
        let bitstream = tdma.bitstream_for(&device).serialise().to_vec();
        let commands = vec![
            Telecommand::StoreBitstream {
                name: "tdma.bit".into(),
                data: bitstream,
            },
            Telecommand::Reconfigure {
                equipment: 3,
                name: "tdma.bit".into(),
            },
            Telecommand::Validate { equipment: 3 },
            Telecommand::StatusRequest { equipment: 3 },
        ];
        let link = LinkConfig {
            ber: 1e-6,
            ..LinkConfig::geo_default()
        };
        let (tm, stats, obpc) = run_ops_session(commands, 4, fresh_obpc(), link, 31);
        assert!(stats.completed, "session must finish");
        assert_eq!(tm.len(), 4);
        assert!(matches!(tm[0], Telemetry::BitstreamStored { .. }));
        assert!(matches!(
            tm[1],
            Telemetry::ReconfigDone { success: true, .. }
        ));
        assert!(matches!(
            tm[2],
            Telemetry::ValidationReport { crc_ok: true, .. }
        ));
        assert!(matches!(
            tm[3],
            Telemetry::Status {
                running: true,
                design_id: Some(_),
                ..
            }
        ));
        assert!(obpc.equipments[3].in_service());
        // The ~97 KiB bitstream at 256 kbps dominates: seconds of session.
        let secs = stats.end_ns as f64 / 1e9;
        assert!(secs > 3.0 && secs < 60.0, "session took {secs} s");
    }

    #[test]
    fn failed_command_reports_over_the_link() {
        let commands = vec![Telecommand::Reconfigure {
            equipment: 3,
            name: "ghost.bit".into(),
        }];
        let (tm, stats, _) =
            run_ops_session(commands, 1, fresh_obpc(), LinkConfig::geo_default(), 5);
        assert!(stats.completed);
        assert!(matches!(tm[0], Telemetry::CommandFailed { .. }));
    }

    #[test]
    fn malformed_pdus_are_ignored() {
        assert_eq!(decode_tc(&[]), None);
        assert_eq!(decode_tc(&[99, 1, 2]), None);
        assert_eq!(decode_tm(&[2, 0]), None);
        // Truncated StoreBitstream.
        let good = encode_tc(&Telecommand::StoreBitstream {
            name: "n".into(),
            data: vec![1, 2, 3],
        });
        assert_eq!(decode_tc(&good[..good.len() - 2]), None);
    }
}
