//! # gsp-dsp — DSP substrate for the generic software-radio satellite payload
//!
//! This crate provides the signal-processing primitives on which the payload
//! simulation of the `gsp` workspace is built: a small complex-baseband type,
//! FIR/half-band/root-raised-cosine filters, a radix-2 FFT, a numerically
//! controlled oscillator, a polyphase channelizer (the MF-TDMA demultiplexer
//! of the paper's Fig. 2), spreading-code generators (m-sequences, OVSF,
//! Gold scrambling) for the S-UMTS CDMA waveform, resampling and measurement
//! helpers.
//!
//! Everything here is deterministic and allocation-conscious: streaming
//! operators own preallocated state and expose `process`-style methods that
//! write into caller-provided buffers wherever the call sites are hot
//! (guides: Rust Performance Book — reuse collections, avoid allocation in
//! hot loops).
//!
//! The crate depends only on `std` and the dependency-free `gsp-kernels`
//! backend selector; stochastic behaviour lives in `gsp-channel` and above.
//! Hot inner loops (FIR MAC, block matched filter, pulse shaping, UW and
//! code correlation, FFT butterflies) dispatch through the pluggable
//! scalar/SIMD backends of [`kernels`].
//!
//! ```
//! use gsp_dsp::prelude::*;
//!
//! // Design a root-raised-cosine pulse and matched-filter an impulse.
//! let pulse = RrcPulse::new(0.22, 4, 8);
//! let kernel = pulse.kernel();
//! let mut mf = FirFilter::new(kernel);
//! let y = mf.push(Cpx::ONE);
//! assert!((y.re - mf.kernel().taps()[0]).abs() < 1e-12);
//!
//! // OVSF codes of one spreading factor are orthogonal.
//! let a = OvsfTree::code(8, 2);
//! let b = OvsfTree::code(8, 5);
//! let dot: i32 = a.iter().zip(&b).map(|(x, y)| (*x as i32) * (*y as i32)).sum();
//! assert_eq!(dot, 0);
//! ```

#![deny(missing_docs)]

pub mod beamform;
pub mod channelizer;
pub mod codes;
pub mod complex;
pub mod fft;
pub mod filter;
pub mod halfband;
pub mod kernels;
pub mod math;
pub mod measure;
pub mod nco;
pub mod pulse;
pub mod resample;
pub mod window;

pub use complex::Cpx;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::beamform::{Dbfn, UniformLinearArray};
    pub use crate::channelizer::PolyphaseChannelizer;
    pub use crate::codes::{Lfsr, OvsfTree, ScramblingCode};
    pub use crate::complex::Cpx;
    pub use crate::fft::Fft;
    pub use crate::filter::{FirFilter, FirKernel};
    pub use crate::halfband::HalfBandDecimator;
    pub use crate::kernels::{Backend, CpxKernelHandle, CpxKernels};
    pub use crate::math::{db_to_lin, q_function, sinc};
    pub use crate::measure::{evm_rms, mean_power, snr_estimate_m2m4};
    pub use crate::nco::Nco;
    pub use crate::pulse::RrcPulse;
    pub use crate::resample::FarrowInterpolator;
    pub use crate::window::Window;
}
