//! # milback-ap
//!
//! The MilBack access point (§8, Fig 7): FMCW and two-tone waveform
//! generation, TX/RX chains, and the AP-side estimators — ranging via
//! five-chirp background subtraction, two-antenna AoA, orientation from the
//! reflected-power-vs-frequency profile, and the OAQFM uplink receiver.
//!
//! * [`waveform`] — chirp/tone plans, the Field-1 mode signalling, patched
//!   2×2 GHz sweeps,
//! * [`txrx`] — PA/LNA/mixer/BPF chains with calibrated budgets,
//! * [`fmcw`] — range spectra + background subtraction + node detection,
//! * [`doppler`] — range–Doppler maps; the toggling node at Nyquist Doppler,
//! * [`aoa`] — phase-comparison angle estimation,
//! * [`orientation`] — AP-side orientation sensing,
//! * [`uplink_rx`] — per-tone OOK slicing of the node's backscatter,
//! * [`query`] — OAQFM carrier selection from orientation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aoa;
pub mod doppler;
pub mod fmcw;
pub mod orientation;
pub mod query;
pub mod txrx;
pub mod uplink_rx;
pub mod waveform;

pub use aoa::{AoaEstimate, AoaEstimator};
pub use doppler::DopplerProcessor;
pub use fmcw::{EchoDetection, FmcwProcessor, FmcwScratch};
pub use orientation::{ApOrientationEstimate, ApOrientationEstimator};
pub use query::QueryPlanner;
pub use txrx::{ApRadio, RxChain, TxChain};
pub use uplink_rx::UplinkReceiver;
pub use waveform::{CarrierSet, FmcwConfig, LinkDirection};
