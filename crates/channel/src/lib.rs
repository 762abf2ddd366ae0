//! # gsp-channel — impairment models between the user terminal and the
//! payload's ADC
//!
//! Everything analogue that the paper abstracts away is modelled here at
//! complex baseband: AWGN at a configured Es/N0, carrier phase/frequency
//! offsets, fractional timing offsets and sample-clock drift, the
//! travelling-wave-tube amplifier nonlinearity (Saleh model) and the
//! transparent-cascade GEO link budget.
//!
//! All stochastic parts take a caller-supplied [`rand::Rng`] so experiments
//! are reproducible and parallel sweeps can split seeds.

#![warn(missing_docs)]

pub mod awgn;
pub mod geo;
pub mod impairments;
pub mod twta;

pub use awgn::{AwgnChannel, GaussianSampler};
pub use impairments::{ClockDrift, FrequencyOffset, PhaseOffset, TimingOffset};
pub use twta::SalehTwta;
