//! # mmwave-rf
//!
//! RF substrate for the MilBack mmWave backscatter stack: antenna models
//! (including the dual-port Frequency Scanning Antenna the node is built
//! around and the Van Atta arrays of the baselines), behavioral models of
//! the prototype's RF components, free-space propagation, receiver noise,
//! and the channel/beat-signal synthesis the FMCW pipeline digests.
//!
//! The paper's physical artifacts (HFSS-simulated FSA, Keysight instruments,
//! evaluation-board components) are replaced here by physics-level
//! behavioral models; see DESIGN.md's substitution table for the mapping
//! and the calibration anchors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antenna;
pub mod channel;
pub mod components;
pub mod noise;
pub mod propagation;

pub use antenna::fsa::{DualPortFsa, FsaDesign, FsaPort};
pub use antenna::vanatta::VanAttaArray;
pub use antenna::{Antenna, Horn};
pub use channel::{ApFrontend, Echo, NodePose, Reflector, Vec2};
pub use components::{Adc, Amplifier, EnvelopeDetector, SpdtSwitch};
