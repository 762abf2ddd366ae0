//! The waveform registry: name/version lookup from validated
//! descriptors to instantiated [`Waveform`]s.
//!
//! The registry is the STRS configuration-manager role: it lists the
//! personalities the payload ships, and it is the *only* way a
//! descriptor becomes a live component. Loading validates in three
//! stages — wire checksum and field ranges
//! ([`WaveformDescriptor::from_wire`]), name/version resolution against
//! the registered set, then the personality's own buildability check —
//! so a hostile or corrupt upload fails closed long before a carrier is
//! quiesced.

use crate::adapters::Waveform;
use crate::component::{WaveformError, WaveformFrameReport};
use crate::descriptor::{DescriptorError, WaveformDescriptor, WaveformKind};

/// The registered personalities: name, version, and the chain kind a
/// descriptor under that name must build.
const BUILTIN: [(&str, (u16, u16), WaveformKind); 2] = [
    ("sumts-cdma", (1, 0), WaveformKind::Cdma),
    ("mf-tdma", (2, 0), WaveformKind::MfTdma),
];

/// The name/version-indexed set of personalities a payload ships.
pub struct WaveformRegistry(());

/// Why a load was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// The wire form failed validation before lookup was attempted.
    Descriptor(DescriptorError),
    /// No personality is registered under the requested name.
    UnknownName(String),
    /// The name exists but no registered version is compatible
    /// (exact major, registered minor ≥ requested minor).
    IncompatibleVersion {
        /// What the descriptor asked for.
        requested: (u16, u16),
        /// What the registry ships under that name.
        available: (u16, u16),
    },
    /// The personality refused the (otherwise valid) parameters, or a
    /// lifecycle call on it failed.
    Factory(WaveformError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Descriptor(e) => write!(f, "descriptor rejected: {e}"),
            LoadError::UnknownName(n) => write!(f, "no waveform registered as {n:?}"),
            LoadError::IncompatibleVersion {
                requested,
                available,
            } => write!(
                f,
                "version {}.{} requested but {}.{} registered",
                requested.0, requested.1, available.0, available.1
            ),
            LoadError::Factory(e) => write!(f, "factory refused descriptor: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl WaveformRegistry {
    /// The registry every payload ships: the S-UMTS CDMA and MF-TDMA
    /// personalities.
    pub fn builtin() -> Self {
        WaveformRegistry(())
    }

    /// Full load path: parse + validate `wire`, resolve the name,
    /// instantiate. The returned component is in the `Instantiated`
    /// state.
    pub fn load_wire(&self, wire: &[u8]) -> Result<Waveform, LoadError> {
        let d = WaveformDescriptor::from_wire(wire).map_err(LoadError::Descriptor)?;
        self.load(&d)
    }

    /// Resolves and instantiates an already-parsed descriptor.
    pub fn load(&self, d: &WaveformDescriptor) -> Result<Waveform, LoadError> {
        d.sanity_check().map_err(LoadError::Descriptor)?;
        let &(_, version, kind) = BUILTIN
            .iter()
            .find(|(name, ..)| *name == d.name)
            .ok_or_else(|| LoadError::UnknownName(d.name.clone()))?;
        let compatible = version.0 == d.version.0 && version.1 >= d.version.1;
        if !compatible {
            return Err(LoadError::IncompatibleVersion {
                requested: d.version,
                available: version,
            });
        }
        Waveform::instantiate(d, kind).map_err(LoadError::Factory)
    }

    /// Loads `d`, configures it and runs it.
    pub(crate) fn bring_up(&self, d: &WaveformDescriptor) -> Result<Waveform, LoadError> {
        let mut wf = self.load(d)?;
        wf.configure().map_err(LoadError::Factory)?;
        wf.run().map_err(LoadError::Factory)?;
        Ok(wf)
    }

    /// Self-tests the personality `d` names: loads it on a clean,
    /// noiseless channel, configures and runs it, and steps one frame.
    /// The report is [`clean`](WaveformFrameReport::clean) when every
    /// carrier decoded without error.
    pub fn self_test(
        &self,
        d: &WaveformDescriptor,
        seed: u64,
    ) -> Result<WaveformFrameReport, LoadError> {
        let clean = WaveformDescriptor {
            esn0_cdb: i16::MIN,
            ..d.clone()
        };
        let mut wf = self.bring_up(&clean)?;
        wf.step(seed, 0).map_err(LoadError::Factory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LifecycleState;

    #[test]
    fn builtins_load_from_their_own_wire_forms() {
        let r = WaveformRegistry::builtin();
        for d in [
            WaveformDescriptor::sumts_cdma(),
            WaveformDescriptor::mf_tdma(),
        ] {
            let wf = r.load_wire(&d.to_wire()).expect("builtin loads");
            assert_eq!(wf.state(), LifecycleState::Instantiated);
            assert_eq!(wf.descriptor(), &d);
        }
    }

    #[test]
    fn unknown_name_and_bad_version_fail_closed() {
        let r = WaveformRegistry::builtin();
        let mut d = WaveformDescriptor::sumts_cdma();
        d.name = "dvb-rcs".into();
        assert_eq!(
            r.load(&d).map(|_| ()).unwrap_err(),
            LoadError::UnknownName("dvb-rcs".into())
        );
        assert_eq!(
            r.self_test(&d, 1),
            Err(LoadError::UnknownName("dvb-rcs".into()))
        );
        let mut d = WaveformDescriptor::mf_tdma();
        d.version = (3, 0);
        assert!(matches!(
            r.load(&d).map(|_| ()),
            Err(LoadError::IncompatibleVersion { .. })
        ));
        assert!(matches!(
            r.self_test(&d, 1),
            Err(LoadError::IncompatibleVersion { .. })
        ));
    }

    #[test]
    fn every_builtin_and_the_one_user_cdma_self_test_clean() {
        let r = WaveformRegistry::builtin();
        let one_user = WaveformDescriptor {
            carriers: 1,
            ..WaveformDescriptor::sumts_cdma()
        };
        for d in [
            WaveformDescriptor::sumts_cdma(),
            WaveformDescriptor::mf_tdma(),
            one_user,
        ] {
            for seed in 0..3 {
                let report = r.self_test(&d, seed).expect("builtin loads");
                assert!(report.clean(), "{} seed {seed}: {report:?}", d.name);
                assert_eq!(report.carriers, d.carriers as u32);
            }
        }
    }

    #[test]
    fn corrupt_wire_never_reaches_a_factory() {
        let r = WaveformRegistry::builtin();
        let mut wire = WaveformDescriptor::mf_tdma().to_wire();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        assert!(matches!(
            r.load_wire(&wire).map(|_| ()),
            Err(LoadError::Descriptor(_))
        ));
    }
}
