//! # gsp-kernels — compute-kernel backend selection for the gsp workspace
//!
//! The vectorisable hot loops of the payload chain (complex dot/MAC,
//! radix-2 FFT butterflies, block FIR, Viterbi add-compare-select) exist in
//! two implementations: a portable **scalar** backend and a **SIMD** backend
//! built on `core::arch` x86_64 AVX2 intrinsics. This crate owns the
//! *selection* of a backend — host feature detection and the
//! `GSP_KERNEL_BACKEND` environment override — while the kernel
//! implementations themselves live next to their data types
//! (`gsp_dsp::kernels` for complex-sample kernels, `gsp_coding::kernels`
//! for trellis kernels). Every kernel handle that is not pinned follows the
//! one [`selection`]; there is no per-kernel exception.
//!
//! Selection is resolved once per process ([`selection`]) and is purely a
//! *performance* decision: the equivalence contract between backends
//! (bitwise for the trellis kernels, tolerance-bounded for reassociated
//! dot-product reductions) is documented in DESIGN.md §11 and pinned by
//! proptests, so modem logic never needs to know which backend is active.
//!
//! ```
//! let sel = gsp_kernels::selection();
//! // On any host this resolves to a usable backend.
//! if sel.backend == gsp_kernels::Backend::Simd {
//!     assert!(gsp_kernels::simd_available());
//! }
//! ```

#![deny(missing_docs)]

use std::sync::OnceLock;

/// A compute-kernel backend identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable sequential implementation; the reference for equivalence.
    Scalar,
    /// AVX2 (x86_64) implementation, selected only when the host supports it.
    Simd,
}

impl Backend {
    /// Stable lowercase label, used in bench artifacts and env parsing.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        }
    }
}

/// Name of the environment variable that forces a backend:
/// `scalar`, `simd` or `auto` (case-insensitive). Unset means `auto`.
pub const BACKEND_ENV: &str = "GSP_KERNEL_BACKEND";

/// Whether the SIMD backend can run on this host (x86_64 with AVX2).
///
/// The SIMD kernels additionally avoid FMA so that per-lane arithmetic
/// matches the scalar backend's rounding exactly; AVX2 alone is the gate.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The process-wide backend decision.
#[derive(Clone, Copy, Debug)]
pub struct Selection {
    /// The backend every auto-dispatched kernel handle resolves to.
    pub backend: Backend,
}

fn auto_selection() -> Selection {
    let backend = if simd_available() {
        Backend::Simd
    } else {
        Backend::Scalar
    };
    Selection { backend }
}

/// The selection a value of [`BACKEND_ENV`] asks for (`None` = unset).
/// Panics on an unknown value, and on `simd` when the host has no AVX2.
fn parse_selection(value: Option<&str>) -> Selection {
    let Some(v) = value else {
        return auto_selection();
    };
    match v.to_ascii_lowercase().as_str() {
        "scalar" => Selection {
            backend: Backend::Scalar,
        },
        "simd" => {
            assert!(
                simd_available(),
                "GSP_KERNEL_BACKEND=simd but this host has no AVX2 \
                 (unset the variable or use `scalar`/`auto`)"
            );
            Selection {
                backend: Backend::Simd,
            }
        }
        "auto" | "" => auto_selection(),
        other => panic!("GSP_KERNEL_BACKEND must be `scalar`, `simd` or `auto`, got {other:?}"),
    }
}

/// The process-wide backend selection, resolved once on first use
/// (env override first, then feature detection) and cached. Every kernel
/// handle that is not pinned follows it.
///
/// Per-instance overrides (the `with_kernels` constructors and
/// `ChainConfig::kernel_backend`) bypass this and are how one process runs
/// both backends side by side, e.g. in the cross-backend equivalence tests.
pub fn selection() -> Selection {
    static SELECTION: OnceLock<Selection> = OnceLock::new();
    *SELECTION.get_or_init(|| parse_selection(std::env::var(BACKEND_ENV).ok().as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Backend::Scalar.label(), "scalar");
        assert_eq!(Backend::Simd.label(), "simd");
    }

    #[test]
    fn selection_is_consistent_with_detection() {
        // Whatever the env says, a Simd selection implies host support.
        let sel = selection();
        if sel.backend == Backend::Simd {
            assert!(simd_available());
        }
    }

    #[test]
    fn scalar_parses_in_any_case() {
        for v in ["scalar", "SCALAR", "Scalar"] {
            let sel = parse_selection(Some(v));
            assert_eq!(sel.backend, Backend::Scalar, "{v}");
        }
    }

    #[test]
    fn simd_parses_where_avx2_exists() {
        if simd_available() {
            for v in ["simd", "SIMD", "Simd"] {
                let sel = parse_selection(Some(v));
                assert_eq!(sel.backend, Backend::Simd, "{v}");
            }
        } else {
            let err = std::panic::catch_unwind(|| parse_selection(Some("simd")));
            assert!(err.is_err(), "simd without AVX2 must panic");
        }
    }

    #[test]
    fn auto_empty_and_unset_detect_the_host() {
        let want = if simd_available() {
            Backend::Simd
        } else {
            Backend::Scalar
        };
        for v in [Some("auto"), Some("AUTO"), Some("Auto"), Some(""), None] {
            assert_eq!(parse_selection(v).backend, want, "{v:?}");
        }
    }

    #[test]
    #[should_panic(
        expected = "GSP_KERNEL_BACKEND must be `scalar`, `simd` or `auto`, got \"avx512\""
    )]
    fn garbage_panics() {
        parse_selection(Some("avx512"));
    }
}
