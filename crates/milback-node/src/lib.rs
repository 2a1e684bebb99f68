//! # milback-node
//!
//! The MilBack backscatter node (§4, Fig 4): a passive dual-port Frequency
//! Scanning Antenna whose two ports sit behind SPDT switches that select
//! between the ground plane (reflective) and 50 Ω envelope detectors
//! (absorptive), read out by a low-power MCU.
//!
//! * [`node`] — hardware composition and the detector/backscatter physics,
//! * [`mode`] — port modes,
//! * [`downlink`] — OAQFM demodulation from the detector traces,
//! * [`uplink`] — OAQFM backscatter modulation (switch schedules),
//! * [`orientation`] — triangular-chirp peak-delay orientation sensing,
//! * [`power`] — the 18 mW / 32 mW power accounting of §9.6,
//! * [`firmware`] — the MCU state machine through a packet, with its
//!   energy ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(feature = "std"), no_std)]

// The node core — the firmware state machine, port modes and the power
// model — compiles without `std` (what an MCU build would take). The
// simulation-facing modules synthesize traces and decode them with the
// std-only DSP crates, so they sit behind the default `std` feature.
#[cfg(feature = "std")]
pub mod downlink;
pub mod firmware;
pub mod mode;
#[cfg(feature = "std")]
pub mod node;
#[cfg(feature = "std")]
pub mod orientation;
pub mod power;
#[cfg(feature = "std")]
pub mod uplink;

#[cfg(feature = "std")]
pub use downlink::{OaqfmDemodulator, Thresholds};
pub use mode::{PortMode, PortStates};
#[cfg(feature = "std")]
pub use node::{NodeHardware, PortPowers};
#[cfg(feature = "std")]
pub use orientation::OrientationEstimator;
pub use power::{NodeActivity, NodePowerModel};
#[cfg(feature = "std")]
pub use uplink::UplinkModulator;
