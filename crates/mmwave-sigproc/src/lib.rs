//! # mmwave-sigproc
//!
//! From-scratch digital-signal-processing substrate for the MilBack mmWave
//! backscatter stack. The allowed dependency set contains no DSP crates, so
//! this crate owns:
//!
//! * [`complex`] — complex arithmetic (`Complex`, phasors, power/magnitude helpers),
//! * [`fft`](mod@fft) — radix-2 + Bluestein FFTs with reusable plans,
//! * [`window`] — spectral windows and their coefficients,
//! * [`filter`] — first-order RC dynamics (the detector's video response),
//! * [`waveform`] — FMCW chirps (sawtooth/triangular), tones, OAQFM symbols,
//! * [`detect`] — peak finding, integrate-and-dump, midpoint thresholds,
//! * [`parallel`] — frame-level worker pools with a bit-exact serial fallback,
//! * [`stats`] — percentiles, CDFs, BER counting, Q-function,
//! * [`random`] — seeded Gaussian/AWGN sources for reproducible Monte-Carlo,
//! * [`units`] — dB/dBm/watt conversions and RF constants.
//!
//! Everything is deterministic given a seed, `#![forbid(unsafe_code)]`, and
//! heavily unit-tested: the higher layers (channel models, localization,
//! OAQFM modems) are only as trustworthy as these primitives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod detect;
pub mod fft;
pub mod filter;
pub mod parallel;
pub mod random;
pub mod stats;
pub mod units;
pub mod waveform;
pub mod window;

pub use complex::Complex;
pub use fft::{fft, ifft, FftPlan};
pub use random::GaussianSource;
pub use waveform::{Chirp, ChirpShape, OaqfmSymbol};
pub use window::Window;
