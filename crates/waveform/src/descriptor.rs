//! Waveform descriptors: the self-describing wire form a swap command
//! carries over the N3 stack.
//!
//! A descriptor is what actually crosses the lossy uplink — a compact,
//! versioned, checksummed record naming the component to load and the
//! parameters to configure it with. The registry refuses to instantiate
//! anything whose wire form does not validate, which is the STRS
//! "configure from validated profile" rule: a corrupted or truncated
//! upload is rejected *before* the running carrier is touched.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use gsp_coding::wire::Reader;
use gsp_fpga::bitstream::Bitstream;
use gsp_fpga::device::FpgaDevice;
use gsp_modem::complexity::ModemPersonality;

/// The longest frame period a descriptor may declare: one second, ~20×
/// the built-ins' 48 ms. A frame period is a physical TDMA/CDMA frame
/// time, and the bound keeps a swap's window ticks × frame period (the
/// interruption it reports) far from `u64` overflow.
pub const MAX_FRAME_NS: u64 = 1_000_000_000;

/// Which processing chain a descriptor parameterises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaveformKind {
    /// The S-UMTS CDMA personality (spread single-carrier).
    Cdma,
    /// The MF-TDMA personality (multi-carrier burst modem behind the
    /// regenerative switch).
    MfTdma,
}

impl WaveformKind {
    fn code(self) -> u8 {
        match self {
            WaveformKind::Cdma => 1,
            WaveformKind::MfTdma => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(WaveformKind::Cdma),
            2 => Some(WaveformKind::MfTdma),
            _ => None,
        }
    }
}

/// A validated, versioned waveform component descriptor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveformDescriptor {
    /// Registry lookup name (e.g. `"sumts-cdma"`).
    pub name: String,
    /// Component version as `(major, minor)`; the registry requires an
    /// exact major match and a minor no newer than what it ships.
    pub version: (u16, u16),
    /// Which chain the parameters below configure.
    pub kind: WaveformKind,
    /// Active carriers (MF-TDMA) or despread users (CDMA).
    pub carriers: u16,
    /// Information bits per carrier per frame.
    pub info_bits: u16,
    /// Operating Es/N0 in centi-dB (fixed point keeps the wire form and
    /// `Eq` exact); `i16::MIN` encodes a clean, noiseless channel.
    pub esn0_cdb: i16,
    /// Nominal frame duration in nanoseconds — the exchange rate between
    /// swap-window ticks and service-interruption time.
    pub frame_ns: u64,
}

impl WaveformDescriptor {
    /// The built-in S-UMTS CDMA personality (SF 16, 64-bit bursts).
    pub fn sumts_cdma() -> Self {
        WaveformDescriptor {
            name: "sumts-cdma".into(),
            version: (1, 0),
            kind: WaveformKind::Cdma,
            carriers: 6,
            info_bits: 64,
            esn0_cdb: 0,
            frame_ns: 48_000_000,
        }
    }

    /// The built-in MF-TDMA personality (paper Fig. 2 geometry: 6 active
    /// carriers in an 8-channel bank, 96 info bits per burst).
    pub fn mf_tdma() -> Self {
        WaveformDescriptor {
            name: "mf-tdma".into(),
            version: (2, 0),
            kind: WaveformKind::MfTdma,
            carriers: 6,
            info_bits: 96,
            esn0_cdb: 1200,
            frame_ns: 48_000_000,
        }
    }

    /// Operating Es/N0 in dB, `None` for the clean-channel sentinel.
    pub fn esn0_db(&self) -> Option<f64> {
        if self.esn0_cdb == i16::MIN {
            None
        } else {
            Some(self.esn0_cdb as f64 / 100.0)
        }
    }

    /// Gate budget on the fabric (the §2.3 complexity model): CDMA
    /// scales with despread users, MF-TDMA with carriers.
    pub fn gates(&self) -> u64 {
        let n = self.carriers as usize;
        match self.kind {
            WaveformKind::Cdma => ModemPersonality::Cdma { users: n },
            WaveformKind::MfTdma => ModemPersonality::Tdma { carriers: n },
        }
        .gates()
    }

    /// Bitstream design id: `0x0CD0` (CDMA) or `0x07D0` (MF-TDMA) plus
    /// the carrier count.
    pub fn design_id(&self) -> u32 {
        let base = match self.kind {
            WaveformKind::Cdma => 0x0CD0,
            WaveformKind::MfTdma => 0x07D0,
        };
        base + self.carriers as u32
    }

    /// The personality's bitstream, synthesised for `device`.
    pub fn bitstream_for(&self, device: &FpgaDevice) -> Bitstream {
        gsp_fpga::resources::bitstream_for(self.design_id(), self.gates(), device)
    }

    /// Serialises to the uplink wire form: magic, version, fields,
    /// length-prefixed name, trailing checksum.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(32 + self.name.len());
        w.extend_from_slice(MAGIC);
        w.extend_from_slice(&self.version.0.to_be_bytes());
        w.extend_from_slice(&self.version.1.to_be_bytes());
        w.push(self.kind.code());
        w.extend_from_slice(&self.carriers.to_be_bytes());
        w.extend_from_slice(&self.info_bits.to_be_bytes());
        w.extend_from_slice(&self.esn0_cdb.to_be_bytes());
        w.extend_from_slice(&self.frame_ns.to_be_bytes());
        let name = self.name.as_bytes();
        w.push(name.len() as u8);
        w.extend_from_slice(name);
        let sum = fletcher32(&w);
        w.extend_from_slice(&sum.to_be_bytes());
        w
    }

    /// Parses and validates a wire form; every failure names the field
    /// that broke so the ground segment's reject telemetry is useful.
    pub fn from_wire(wire: &[u8]) -> Result<Self, DescriptorError> {
        use DescriptorError::*;
        // 4 magic + 20 fixed fields + empty name + 4 checksum.
        if wire.len() < 28 {
            return Err(Truncated);
        }
        let (body, sum) = wire.split_at(wire.len() - 4);
        if Reader::new(sum).u32() != Some(fletcher32(body)) {
            return Err(Checksum);
        }
        let mut r = Reader::new(body);
        if r.bytes(MAGIC.len()) != Some(&MAGIC[..]) {
            return Err(BadMagic);
        }
        let version = (r.u16().ok_or(Truncated)?, r.u16().ok_or(Truncated)?);
        let code = r.u8().ok_or(Truncated)?;
        let kind = WaveformKind::from_code(code).ok_or(UnknownKind(code))?;
        let (carriers, info_bits) = (r.u16().ok_or(Truncated)?, r.u16().ok_or(Truncated)?);
        let (esn0_cdb, frame_ns) = (r.i16().ok_or(Truncated)?, r.u64().ok_or(Truncated)?);
        let name_len = r.u8().ok_or(Truncated)?;
        if r.rest().len() != usize::from(name_len) {
            return Err(Truncated);
        }
        let name = std::str::from_utf8(r.rest())
            .map_err(|_| BadName)?
            .to_string();
        let d = WaveformDescriptor {
            name,
            version,
            kind,
            carriers,
            info_bits,
            esn0_cdb,
            frame_ns,
        };
        d.sanity_check()?;
        Ok(d)
    }

    /// Parameter sanity independent of any registry: a descriptor that
    /// passes still needs a registered personality willing to build it.
    pub fn sanity_check(&self) -> Result<(), DescriptorError> {
        if self.name.is_empty() {
            return Err(DescriptorError::BadName);
        }
        if self.carriers == 0 || self.carriers > 64 {
            return Err(DescriptorError::BadParameter("carriers"));
        }
        if self.info_bits == 0 || self.info_bits > 4096 {
            return Err(DescriptorError::BadParameter("info_bits"));
        }
        if self.frame_ns == 0 || self.frame_ns > MAX_FRAME_NS {
            return Err(DescriptorError::BadParameter("frame_ns"));
        }
        Ok(())
    }
}

/// Why a wire form was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DescriptorError {
    /// Too short to hold the fixed fields, or name length disagrees.
    Truncated,
    /// Trailing Fletcher-32 did not match the body.
    Checksum,
    /// Leading magic bytes wrong — not a descriptor at all.
    BadMagic,
    /// Kind code not in the supported set.
    UnknownKind(u8),
    /// Name empty or not UTF-8.
    BadName,
    /// A field failed its range check.
    BadParameter(&'static str),
}

impl std::fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DescriptorError::Truncated => write!(f, "descriptor truncated"),
            DescriptorError::Checksum => write!(f, "descriptor checksum mismatch"),
            DescriptorError::BadMagic => write!(f, "descriptor magic mismatch"),
            DescriptorError::UnknownKind(c) => write!(f, "unknown waveform kind code {c}"),
            DescriptorError::BadName => write!(f, "descriptor name empty or not UTF-8"),
            DescriptorError::BadParameter(p) => write!(f, "descriptor parameter out of range: {p}"),
        }
    }
}

impl std::error::Error for DescriptorError {}

const MAGIC: &[u8; 4] = b"GSPW";

/// Fletcher-32 over the body, the same family of cheap, byte-order-aware
/// checksum the reconfiguration service uses for bitstream validation.
fn fletcher32(data: &[u8]) -> u32 {
    let mut a: u32 = 0;
    let mut b: u32 = 0;
    for chunk in data.chunks(2) {
        let word = if chunk.len() == 2 {
            u16::from_be_bytes([chunk[0], chunk[1]]) as u32
        } else {
            (chunk[0] as u32) << 8
        };
        a = (a + word) % 65535;
        b = (b + a) % 65535;
    }
    (b << 16) | a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip_both_builtins() {
        for d in [
            WaveformDescriptor::sumts_cdma(),
            WaveformDescriptor::mf_tdma(),
        ] {
            let wire = d.to_wire();
            assert_eq!(WaveformDescriptor::from_wire(&wire).unwrap(), d);
        }
    }

    #[test]
    fn every_single_bitflip_is_rejected() {
        let wire = WaveformDescriptor::mf_tdma().to_wire();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    WaveformDescriptor::from_wire(&bad).is_err(),
                    "flip of byte {byte} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn truncation_is_rejected_not_panicked() {
        let wire = WaveformDescriptor::sumts_cdma().to_wire();
        for len in 0..wire.len() {
            assert!(WaveformDescriptor::from_wire(&wire[..len]).is_err());
        }
    }

    #[test]
    fn parameter_ranges_are_enforced() {
        let mut d = WaveformDescriptor::mf_tdma();
        d.carriers = 0;
        assert_eq!(
            d.sanity_check(),
            Err(DescriptorError::BadParameter("carriers"))
        );
        let mut d = WaveformDescriptor::mf_tdma();
        d.info_bits = 5000;
        assert_eq!(
            d.sanity_check(),
            Err(DescriptorError::BadParameter("info_bits"))
        );
    }

    /// The §2.3 narrative personalities: the one-user CDMA anchor and the
    /// six-carrier MF-TDMA.
    fn narrative() -> [WaveformDescriptor; 2] {
        [
            WaveformDescriptor {
                carriers: 1,
                ..WaveformDescriptor::sumts_cdma()
            },
            WaveformDescriptor::mf_tdma(),
        ]
    }

    #[test]
    fn narrative_personalities_keep_their_designs_and_bitstreams() {
        let dev = FpgaDevice::virtex_like_1m();
        let expected = [
            (0x0CD1, 220_080, 98_554, 0x36_366E),
            (0x07D6, 204_600, 98_554, 0x0C_EAA6),
        ];
        for (d, (id, gates, len, crc)) in narrative().iter().zip(expected) {
            let bs = d.bitstream_for(&dev);
            assert_eq!(d.design_id(), id, "{}", d.name);
            assert_eq!(d.gates(), gates, "{}", d.name);
            assert_eq!(bs.serialise().len(), len, "{}", d.name);
            assert_eq!(bs.global_crc, crc, "{}", d.name);
        }
    }

    #[test]
    fn paper_compatibility_claim_executable() {
        // Both §2.3 personalities fit the same 1 Mgate device.
        let dev = FpgaDevice::virtex_like_1m();
        let [cdma, tdma] = narrative();
        let pc = gsp_fpga::resources::place(cdma.gates(), &dev).unwrap();
        let pt = gsp_fpga::resources::place(tdma.gates(), &dev).unwrap();
        assert!(pt.frames_used <= dev.frames && pc.frames_used <= dev.frames);
        // TDMA fits the footprint CDMA occupied (±10%).
        assert!(tdma.gates() as f64 <= cdma.gates() as f64 * 1.1);
    }

    #[test]
    fn bitstreams_differ_between_personalities() {
        let dev = FpgaDevice::virtex_like_1m();
        let [a, b] = narrative().map(|d| d.bitstream_for(&dev));
        assert_ne!(a.global_crc, b.global_crc);
        assert_eq!(a.frames.len(), dev.frames);
    }

    #[test]
    fn esn0_sentinel_means_clean_channel() {
        let mut d = WaveformDescriptor::sumts_cdma();
        d.esn0_cdb = i16::MIN;
        assert_eq!(d.esn0_db(), None);
        d.esn0_cdb = -350;
        assert_eq!(d.esn0_db(), Some(-3.5));
    }
}
