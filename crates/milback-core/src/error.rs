//! Unified error type for the MilBack network core.

use crate::protocol::FrameError;
use milback_ap::aoa::AoaError;
use milback_ap::fmcw::FmcwError;
use milback_ap::orientation::ApOrientationError;
use milback_ap::query::QueryError;
use milback_ap::uplink_rx::UplinkRxError;
use milback_node::downlink::DemodError;
use milback_node::firmware::TransitionError;
use milback_node::orientation::OrientationError;
use milback_node::uplink::UplinkError;

/// Any error the end-to-end pipelines can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum MilbackError {
    /// FMCW processing failed.
    Fmcw(FmcwError),
    /// Angle estimation failed.
    Aoa(AoaError),
    /// AP-side orientation estimation failed.
    ApOrientation(ApOrientationError),
    /// Node-side orientation estimation failed.
    NodeOrientation(OrientationError),
    /// Carrier planning failed.
    Query(QueryError),
    /// Downlink demodulation failed.
    Demod(DemodError),
    /// Uplink modulation failed.
    UplinkTx(UplinkError),
    /// Uplink reception failed.
    UplinkRx(UplinkRxError),
    /// A wire frame failed to parse.
    Frame(FrameError),
    /// The node firmware rejected an event as illegal in its state.
    Transition(TransitionError),
    /// The discrete-event engine detected a scheduling violation.
    Engine(String),
    /// Protocol-level violation.
    Protocol(String),
    /// A configuration value is invalid.
    Config(String),
    /// A node index addressed a scene that does not contain it — the
    /// typed replacement for unwrapping [`Scene::view_for_node`]'s
    /// `Option` (relay routes can name any index, so the bound must be
    /// an error, not a panic).
    ///
    /// [`Scene::view_for_node`]: crate::scene::Scene::view_for_node
    NodeOutOfScene {
        /// The offending node index.
        idx: usize,
        /// How many nodes the scene actually holds.
        nodes: usize,
    },
    /// The packet-lifecycle conservation audit failed: offered packets
    /// did not partition into deliveries plus attributed drops
    /// (see [`LifecycleStats::audit`]).
    ///
    /// [`LifecycleStats::audit`]: crate::lifecycle::LifecycleStats::audit
    Conservation {
        /// Packets offered to the MAC layer.
        offered: u64,
        /// Packets delivered (direct plus relayed).
        delivered: u64,
        /// Packets dropped across the attribution taxonomy.
        dropped: u64,
    },
    /// The lifecycle ledger's shed-stage breakdown disagrees with its
    /// `service_shed` drop count (see [`LifecycleStats::audit`]).
    ///
    /// [`LifecycleStats::audit`]: crate::lifecycle::LifecycleStats::audit
    ShedBreakdown {
        /// Sheds summed over the per-stage breakdown.
        by_stage: u64,
        /// The `service_shed` drop count.
        service_shed: u64,
    },
}

impl std::fmt::Display for MilbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MilbackError::Fmcw(e) => write!(f, "FMCW: {e}"),
            MilbackError::Aoa(e) => write!(f, "AoA: {e}"),
            MilbackError::ApOrientation(e) => write!(f, "AP orientation: {e}"),
            MilbackError::NodeOrientation(e) => write!(f, "node orientation: {e}"),
            MilbackError::Query(e) => write!(f, "carrier planning: {e}"),
            MilbackError::Demod(e) => write!(f, "downlink demodulation: {e}"),
            MilbackError::UplinkTx(e) => write!(f, "uplink modulation: {e}"),
            MilbackError::UplinkRx(e) => write!(f, "uplink reception: {e}"),
            MilbackError::Frame(e) => write!(f, "wire frame: {e}"),
            MilbackError::Transition(e) => write!(f, "firmware: {e}"),
            MilbackError::Engine(s) => write!(f, "engine: {s}"),
            MilbackError::Protocol(s) => write!(f, "protocol: {s}"),
            MilbackError::Config(s) => write!(f, "config: {s}"),
            MilbackError::NodeOutOfScene { idx, nodes } => {
                write!(f, "node {idx} out of scene ({nodes} nodes)")
            }
            MilbackError::Conservation {
                offered,
                delivered,
                dropped,
            } => write!(
                f,
                "lifecycle conservation violated: offered {offered} != delivered {delivered} \
                 + dropped {dropped}"
            ),
            MilbackError::ShedBreakdown {
                by_stage,
                service_shed,
            } => write!(
                f,
                "lifecycle shed breakdown sums to {by_stage}, but {service_shed} packets \
                 were shed"
            ),
        }
    }
}

impl std::error::Error for MilbackError {
    /// Exposes the wrapped AP/node error so callers can walk the chain
    /// (`anyhow`-style inspection, `{:#}`-style reporting) instead of
    /// string-matching the `Display` output.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MilbackError::Fmcw(e) => Some(e),
            MilbackError::Aoa(e) => Some(e),
            MilbackError::ApOrientation(e) => Some(e),
            MilbackError::NodeOrientation(e) => Some(e),
            MilbackError::Query(e) => Some(e),
            MilbackError::Demod(e) => Some(e),
            MilbackError::UplinkTx(e) => Some(e),
            MilbackError::UplinkRx(e) => Some(e),
            MilbackError::Frame(e) => Some(e),
            MilbackError::Transition(e) => Some(e),
            MilbackError::Engine(_)
            | MilbackError::Protocol(_)
            | MilbackError::Config(_)
            | MilbackError::NodeOutOfScene { .. }
            | MilbackError::Conservation { .. }
            | MilbackError::ShedBreakdown { .. } => None,
        }
    }
}

macro_rules! from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for MilbackError {
            fn from(e: $ty) -> Self {
                MilbackError::$variant(e)
            }
        }
    };
}

from_error!(Fmcw, FmcwError);
from_error!(Aoa, AoaError);
from_error!(ApOrientation, ApOrientationError);
from_error!(NodeOrientation, OrientationError);
from_error!(Query, QueryError);
from_error!(Demod, DemodError);
from_error!(UplinkTx, UplinkError);
from_error!(UplinkRx, UplinkRxError);
from_error!(Frame, FrameError);
from_error!(Transition, TransitionError);

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, MilbackError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn conversions_and_display() {
        let e: MilbackError = FmcwError::LengthMismatch.into();
        assert!(e.to_string().starts_with("FMCW"));
        let e: MilbackError = DemodError::TraceTooShort.into();
        assert!(e.to_string().contains("downlink"));
        let e = MilbackError::Protocol("bad chirp count".into());
        assert!(e.to_string().contains("bad chirp count"));
        let e: MilbackError = UplinkError::RateTooHigh {
            requested_hz: 1.0,
            max_hz: 0.5,
        }
        .into();
        assert!(e.to_string().contains("uplink modulation"));
    }

    #[test]
    fn nested_aoa_error_displays() {
        let e: MilbackError = AoaError::Fmcw(FmcwError::NoEchoDetected).into();
        assert!(e.to_string().contains("AoA"));
    }

    #[test]
    fn source_exposes_wrapped_error() {
        let e: MilbackError = FmcwError::NoEchoDetected.into();
        let src = e.source().expect("wrapped errors carry a source");
        assert_eq!(src.to_string(), FmcwError::NoEchoDetected.to_string());

        let e: MilbackError = FrameError::BadMagic { got: 0x00 }.into();
        assert!(e.source().unwrap().to_string().contains("magic"));

        let e: MilbackError = TransitionError {
            state_name: "Idle",
            event: milback_node::firmware::Event::PayloadComplete,
        }
        .into();
        assert!(e.source().unwrap().to_string().contains("illegal"));
    }

    #[test]
    fn string_variants_have_no_source() {
        assert!(MilbackError::Protocol("x".into()).source().is_none());
        assert!(MilbackError::Config("x".into()).source().is_none());
        assert!(MilbackError::Engine("x".into()).source().is_none());
        assert!(MilbackError::NodeOutOfScene { idx: 3, nodes: 1 }
            .source()
            .is_none());
    }

    #[test]
    fn node_out_of_scene_names_the_bounds() {
        let e = MilbackError::NodeOutOfScene { idx: 7, nodes: 4 };
        assert_eq!(e.to_string(), "node 7 out of scene (4 nodes)");
    }

    #[test]
    fn conservation_violation_names_the_ledger() {
        let e = MilbackError::Conservation {
            offered: 10,
            delivered: 6,
            dropped: 3,
        };
        assert_eq!(
            e.to_string(),
            "lifecycle conservation violated: offered 10 != delivered 6 + dropped 3"
        );
        assert!(e.source().is_none());
    }

    #[test]
    fn source_chain_is_walkable() {
        // Two levels: MilbackError → AoaError → FmcwError.
        let e: MilbackError = AoaError::Fmcw(FmcwError::NoEchoDetected).into();
        let mut depth = 0;
        let mut cur: &dyn std::error::Error = &e;
        while let Some(next) = cur.source() {
            depth += 1;
            cur = next;
        }
        assert!(depth >= 2, "chain depth {depth}");
    }
}
