//! The ground network control centre (NCC): the authority the paper puts
//! in charge of reconfiguration ("the independence of the satellite
//! operator they offer is not required since the satellite operator is
//! equally in charge of the reconfiguration", §3.3).

use crate::housekeeping;
use gsp_fpga::bitstream::Bitstream;
use gsp_netproto::link::LinkConfig;
use gsp_netproto::scenarios::{simulate_transfer, TransferProtocol, TransferStats};
use gsp_payload::platform::Telemetry;
use gsp_telemetry::Snapshot;
use std::collections::HashMap;

/// The NCC's design catalogue and link bookkeeping.
#[derive(Debug)]
pub struct Ncc {
    /// Serialised bitstreams by name.
    catalogue: HashMap<String, Vec<u8>>,
    /// The TC/TM link used for uploads.
    pub link: LinkConfig,
    /// Latest successfully decoded housekeeping snapshot.
    housekeeping: Option<Snapshot>,
    hk_frames_ok: u64,
    hk_frames_rejected: u64,
}

impl Ncc {
    /// New NCC over `link`.
    pub fn new(link: LinkConfig) -> Self {
        Ncc {
            catalogue: HashMap::new(),
            link,
            housekeeping: None,
            hk_frames_ok: 0,
            hk_frames_rejected: 0,
        }
    }

    /// Ingests one telemetry item from the downlink. Housekeeping frames
    /// are decoded (envelope + CRC-24 + payload parse) and, when clean,
    /// replace the NCC's housekeeping picture; a corrupted frame is
    /// counted and discarded whole. Returns `true` if the item was a
    /// cleanly decoded housekeeping frame.
    pub fn ingest_telemetry(&mut self, tm: &Telemetry) -> bool {
        let Telemetry::Housekeeping { frame } = tm else {
            return false;
        };
        match housekeeping::decode_frame(frame) {
            Some(snap) => {
                self.housekeeping = Some(snap);
                self.hk_frames_ok += 1;
                true
            }
            None => {
                self.hk_frames_rejected += 1;
                false
            }
        }
    }

    /// The latest housekeeping snapshot, if any frame decoded cleanly.
    pub fn housekeeping(&self) -> Option<&Snapshot> {
        self.housekeeping.as_ref()
    }

    /// (housekeeping frames decoded, frames rejected as corrupted).
    pub fn housekeeping_stats(&self) -> (u64, u64) {
        (self.hk_frames_ok, self.hk_frames_rejected)
    }

    /// Registers a bitstream in the catalogue.
    pub fn register_bitstream(&mut self, name: &str, bs: &Bitstream) {
        self.catalogue
            .insert(name.to_string(), bs.serialise().to_vec());
    }

    /// Catalogue lookup.
    pub fn design_bytes(&self, name: &str) -> Option<&[u8]> {
        self.catalogue.get(name).map(|v| v.as_slice())
    }

    /// Simulates uploading a catalogued design over the link with the
    /// given protocol; returns the transfer statistics.
    pub fn upload(&self, name: &str, proto: TransferProtocol, seed: u64) -> Option<TransferStats> {
        let size = self.catalogue.get(name)?.len();
        Some(simulate_transfer(proto, size, self.link, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsp_fpga::device::FpgaDevice;
    use gsp_waveform::WaveformDescriptor;

    #[test]
    fn catalogue_roundtrip() {
        let mut ncc = Ncc::new(LinkConfig::geo_default());
        let dev = FpgaDevice::virtex_like_1m();
        let tdma = WaveformDescriptor::mf_tdma();
        ncc.register_bitstream("tdma", &tdma.bitstream_for(&dev));
        let bytes = ncc.design_bytes("tdma").expect("registered");
        let bs = Bitstream::deserialise(bytes).expect("valid");
        assert_eq!(bs.design_id, tdma.design_id());
    }

    #[test]
    fn upload_accounts_time() {
        let mut ncc = Ncc::new(LinkConfig::geo_default());
        let dev = FpgaDevice::small_100k();
        ncc.register_bitstream("x", &WaveformDescriptor::mf_tdma().bitstream_for(&dev));
        let st = ncc
            .upload("x", TransferProtocol::Bulk { window: 32 * 1024 }, 1)
            .expect("upload");
        assert!(st.delivered);
        assert!(st.duration_s > 0.0);
    }

    #[test]
    fn all_three_protocols_upload_the_same_design() {
        let mut ncc = Ncc::new(LinkConfig::geo_default());
        let dev = FpgaDevice::small_100k();
        let cdma = WaveformDescriptor {
            carriers: 1,
            ..WaveformDescriptor::sumts_cdma()
        };
        ncc.register_bitstream("w", &cdma.bitstream_for(&dev));
        let mut times = Vec::new();
        for proto in [
            TransferProtocol::Tftp,
            TransferProtocol::Bulk { window: 32 * 1024 },
            TransferProtocol::ScpsFp,
        ] {
            let st = ncc.upload("w", proto, 2).expect("upload");
            assert!(st.delivered, "{proto:?}");
            times.push(st.duration_s);
        }
        // TFTP slowest, SCPS-FP fastest on the clean GEO link.
        assert!(times[0] > times[1] && times[1] > times[2], "{times:?}");
    }

    #[test]
    fn unknown_design_yields_none() {
        let ncc = Ncc::new(LinkConfig::geo_default());
        assert!(ncc.upload("ghost", TransferProtocol::Tftp, 1).is_none());
        assert!(ncc.design_bytes("ghost").is_none());
    }
}
