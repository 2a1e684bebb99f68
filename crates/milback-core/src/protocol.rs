//! The MilBack joint communication-and-localization protocol (§7, Fig 8).
//!
//! A packet is: **Preamble Field 1** (triangular chirps — lets the node
//! sense its orientation, and the chirp count tells it whether the payload
//! is uplink [3 chirps] or downlink [2 chirps + gap]) → **Preamble Field 2**
//! (five sawtooth chirps while the node toggles — AP-side localization and
//! orientation) → **Payload** (OAQFM uplink or downlink data).
//!
//! This module owns packet framing, timing and (de)serialization, plus the
//! node-side chirp-count detector that decodes the Field-1 mode signal.

use crate::engine::{secs_to_ps, TimePs};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use milback_ap::waveform::{FmcwConfig, LinkDirection};
use serde::{Deserialize, Serialize};

/// Gap between the two Field-1 chirps that signals downlink, seconds.
pub const FIELD1_GAP_S: f64 = 45e-6;

/// Magic byte opening every serialized MilBack frame.
pub(crate) const FRAME_MAGIC: u8 = 0xB7;

/// A MilBack packet: direction, payload, and the timing derived from the
/// waveform configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Whether the payload is uplink or downlink.
    pub direction: LinkDirection,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Packet {
    /// Creates a downlink packet.
    pub fn downlink(payload: impl Into<Vec<u8>>) -> Self {
        Self {
            direction: LinkDirection::Downlink,
            payload: payload.into(),
        }
    }

    /// Creates an uplink packet (payload supplied by the node).
    pub fn uplink(payload: impl Into<Vec<u8>>) -> Self {
        Self {
            direction: LinkDirection::Uplink,
            payload: payload.into(),
        }
    }

    /// Airtime of the preamble, seconds.
    pub fn preamble_duration_s(&self, fmcw: &FmcwConfig) -> f64 {
        let field1 = match self.direction {
            LinkDirection::Uplink => 3.0 * fmcw.field1_chirp_s,
            LinkDirection::Downlink => 2.0 * fmcw.field1_chirp_s + FIELD1_GAP_S,
        };
        // Field 2: five chirps at the chirp repetition interval.
        let field2 = 5.0 * fmcw.chirp_interval_s;
        field1 + field2
    }

    /// Airtime of the payload at a symbol rate (2 bits/symbol), seconds.
    pub fn payload_duration_s(&self, symbol_rate_hz: f64) -> f64 {
        assert!(symbol_rate_hz > 0.0);
        (self.payload.len() as f64 * 4.0) / symbol_rate_hz
    }

    /// Total packet airtime, seconds.
    pub fn duration_s(&self, fmcw: &FmcwConfig, symbol_rate_hz: f64) -> f64 {
        self.preamble_duration_s(fmcw) + self.payload_duration_s(symbol_rate_hz)
    }

    /// Protocol efficiency: payload airtime over total airtime.
    pub fn efficiency(&self, fmcw: &FmcwConfig, symbol_rate_hz: f64) -> f64 {
        self.payload_duration_s(symbol_rate_hz) / self.duration_s(fmcw, symbol_rate_hz)
    }

    /// [`duration_s`](Self::duration_s) on the engine clock, picoseconds.
    pub fn duration_ps(&self, fmcw: &FmcwConfig, symbol_rate_hz: f64) -> TimePs {
        secs_to_ps(self.duration_s(fmcw, symbol_rate_hz))
    }

    /// Serializes to a length-prefixed wire frame:
    /// `magic(1) | direction(1) | len(u16 BE) | payload | checksum(1)`.
    /// A payload longer than the `u16` length field can declare is
    /// [`FrameError::PayloadTooLong`].
    pub fn to_bytes(&self) -> Result<Bytes, FrameError> {
        let len = u16::try_from(self.payload.len()).map_err(|_| FrameError::PayloadTooLong {
            len: self.payload.len(),
        })?;
        let mut buf = BytesMut::with_capacity(self.payload.len() + 5);
        buf.put_u8(FRAME_MAGIC);
        buf.put_u8(match self.direction {
            LinkDirection::Uplink => 0x01,
            LinkDirection::Downlink => 0x02,
        });
        buf.put_u16(len);
        buf.put_slice(&self.payload);
        buf.put_u8(checksum(&buf));
        Ok(buf.freeze())
    }

    /// Parses a wire frame produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(mut data: Bytes) -> Result<Self, FrameError> {
        if data.len() < 5 {
            return Err(FrameError::Truncated { len: data.len() });
        }
        let expected_sum = checksum(&data[..data.len() - 1]);
        let magic = data.get_u8();
        if magic != FRAME_MAGIC {
            return Err(FrameError::BadMagic { got: magic });
        }
        let direction = match data.get_u8() {
            0x01 => LinkDirection::Uplink,
            0x02 => LinkDirection::Downlink,
            other => return Err(FrameError::BadDirection { got: other }),
        };
        let len = data.get_u16() as usize;
        if data.len() != len + 1 {
            return Err(FrameError::LengthMismatch {
                declared: len,
                actual: data.len() - 1,
            });
        }
        let payload = data.split_to(len).to_vec();
        let sum = data.get_u8();
        if sum != expected_sum {
            return Err(FrameError::BadChecksum {
                expected: expected_sum,
                got: sum,
            });
        }
        Ok(Self { direction, payload })
    }
}

/// XOR checksum over a byte slice.
fn checksum(data: &[u8]) -> u8 {
    data.iter().fold(0u8, |a, &b| a ^ b)
}

/// Upper bound on slots per frame: a u16 slot index on the wire plus a
/// sanity ceiling — a frame longer than this is a configuration mistake,
/// not a schedule.
pub(crate) const MAX_SLOTS_PER_FRAME: usize = 4096;

/// The multi-node airtime plan: frames of equal slots, each slot wide
/// enough for one complete packet plus a guard interval. All arithmetic
/// is on the engine clock (integer picoseconds) so a slot boundary
/// computed anywhere in the stack is the *same* tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotPlan {
    /// Slots per frame.
    pub slots_per_frame: usize,
    /// One slot's width, picoseconds (packet airtime + guard).
    pub slot_ps: TimePs,
}

impl SlotPlan {
    /// Builds a plan of `slots_per_frame` slots sized for `packet` at
    /// `symbol_rate_hz`, with `guard_s` of turnaround per slot.
    pub fn for_packet(
        slots_per_frame: usize,
        packet: &Packet,
        fmcw: &FmcwConfig,
        symbol_rate_hz: f64,
        guard_s: f64,
    ) -> crate::error::Result<Self> {
        use crate::error::MilbackError;
        if slots_per_frame == 0 {
            return Err(MilbackError::Config(
                "a frame needs at least one slot".into(),
            ));
        }
        if slots_per_frame > MAX_SLOTS_PER_FRAME {
            return Err(MilbackError::Config(format!(
                "{slots_per_frame} slots per frame exceeds the {MAX_SLOTS_PER_FRAME}-slot limit"
            )));
        }
        if guard_s < 0.0 {
            return Err(MilbackError::Config(
                "guard interval cannot be negative".into(),
            ));
        }
        let slot_ps = packet.duration_ps(fmcw, symbol_rate_hz) + secs_to_ps(guard_s);
        if slot_ps == 0 {
            return Err(MilbackError::Config("slot width must be positive".into()));
        }
        Ok(Self {
            slots_per_frame,
            slot_ps,
        })
    }

    /// One frame's airtime, picoseconds.
    pub fn frame_ps(&self) -> TimePs {
        self.slot_ps * self.slots_per_frame as TimePs
    }

    /// The slot node `node_idx` contends in during `frame` — a
    /// SplitMix64-style hash of `(seed, node, frame)`, so the pattern is
    /// deterministic, uniform, and varies per frame (slotted-ALOHA
    /// rather than a fixed TDMA assignment; collisions are resolved by
    /// retrying in the next frame).
    ///
    /// A 0-slot plan has no slot: every node maps to slot 0, which lies
    /// past the plan, so a policy's schedule over it is empty instead of a
    /// division by zero. Campaigns reject such a plan up front
    /// ([`CampaignSpec`](crate::CampaignSpec)).
    pub(crate) fn slot_for(&self, node_idx: usize, frame: usize, seed: u64) -> usize {
        let mut z = seed
            ^ (node_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (frame as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % self.slots_per_frame.max(1) as u64) as usize
    }
}

/// Wire-frame errors: a payload too long to frame, or a frame that does
/// not parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The payload exceeds the 65 535 bytes the length field can declare.
    PayloadTooLong {
        /// Payload bytes.
        len: usize,
    },
    /// Fewer bytes than the minimum frame.
    Truncated {
        /// Bytes available.
        len: usize,
    },
    /// Wrong magic byte.
    BadMagic {
        /// The byte found.
        got: u8,
    },
    /// Unknown direction code.
    BadDirection {
        /// The code found.
        got: u8,
    },
    /// Declared and actual payload lengths disagree.
    LengthMismatch {
        /// Declared length.
        declared: usize,
        /// Actual length.
        actual: usize,
    },
    /// Checksum failure.
    BadChecksum {
        /// Expected checksum.
        expected: u8,
        /// Received checksum.
        got: u8,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::PayloadTooLong { len } => {
                write!(f, "{len}-byte payload exceeds the 65535-byte frame limit")
            }
            FrameError::Truncated { len } => write!(f, "frame truncated at {len} bytes"),
            FrameError::BadMagic { got } => write!(f, "bad magic byte 0x{got:02X}"),
            FrameError::BadDirection { got } => write!(f, "bad direction code 0x{got:02X}"),
            FrameError::LengthMismatch { declared, actual } => {
                write!(f, "length field says {declared}, payload has {actual}")
            }
            FrameError::BadChecksum { expected, got } => {
                write!(f, "checksum 0x{got:02X} != expected 0x{expected:02X}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Node-side Field-1 detector: counts triangular-chirp power bursts in a
/// detector trace and decodes the signalled direction (§7).
#[derive(Debug, Clone, Copy)]
pub struct Field1Detector {
    /// Power threshold separating chirp activity from the gap.
    pub threshold: f64,
    /// Minimum quiet samples separating two bursts.
    pub min_gap_samples: usize,
}

impl Field1Detector {
    /// Creates a detector.
    pub fn new(threshold: f64, min_gap_samples: usize) -> Self {
        Self {
            threshold,
            min_gap_samples,
        }
    }

    /// Counts activity bursts in a node detector trace.
    pub(crate) fn count_bursts(&self, trace: &[f64]) -> usize {
        let mut bursts = 0;
        let mut quiet = self.min_gap_samples; // start "quiet enough"
        for &v in trace {
            if v > self.threshold {
                if quiet >= self.min_gap_samples {
                    bursts += 1;
                }
                quiet = 0;
            } else {
                quiet = quiet.saturating_add(1);
            }
        }
        bursts
    }

    /// Decodes the direction from a trace.
    pub fn detect_direction(&self, trace: &[f64]) -> Option<LinkDirection> {
        LinkDirection::from_chirp_count(self.count_bursts(trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        for packet in [
            Packet::uplink(vec![1, 2, 3]),
            Packet::downlink(vec![]),
            Packet::downlink(vec![0xFF; 1000]),
        ] {
            let wire = packet.to_bytes().unwrap();
            assert_eq!(Packet::from_bytes(wire).unwrap(), packet);
        }
    }

    /// The length field's ceiling: 65 535 bytes frame and parse back;
    /// one byte more is a typed error, not a panic.
    #[test]
    fn frame_length_limit_is_typed() {
        let longest = Packet::uplink(vec![0x5A; u16::MAX as usize]);
        assert_eq!(
            Packet::from_bytes(longest.to_bytes().unwrap()).unwrap(),
            longest
        );
        let too_long = Packet::downlink(vec![0x5A; u16::MAX as usize + 1]);
        assert_eq!(
            too_long.to_bytes(),
            Err(FrameError::PayloadTooLong { len: 65_536 })
        );
    }

    #[test]
    fn frame_detects_corruption() {
        let wire = Packet::uplink(vec![1, 2, 3]).to_bytes().unwrap();
        let mut corrupted = wire.to_vec();
        corrupted[4] ^= 0x10;
        let err = Packet::from_bytes(Bytes::from(corrupted)).unwrap_err();
        assert!(matches!(err, FrameError::BadChecksum { .. }));
    }

    #[test]
    fn frame_rejects_bad_magic_and_direction() {
        let wire = Packet::uplink(vec![9]).to_bytes().unwrap();
        let mut bad_magic = wire.to_vec();
        bad_magic[0] = 0x00;
        assert!(matches!(
            Packet::from_bytes(Bytes::from(bad_magic)).unwrap_err(),
            FrameError::BadMagic { .. }
        ));
        let mut bad_dir = wire.to_vec();
        bad_dir[1] = 0x07;
        // Fix checksum so the direction check is what fails... checksum is
        // verified against the received buffer, so recompute it.
        let n = bad_dir.len();
        bad_dir[n - 1] = super::checksum(&bad_dir[..n - 1]);
        assert!(matches!(
            Packet::from_bytes(Bytes::from(bad_dir)).unwrap_err(),
            FrameError::BadDirection { got: 0x07 }
        ));
    }

    #[test]
    fn frame_rejects_truncation_and_length_lies() {
        assert!(matches!(
            Packet::from_bytes(Bytes::from(vec![1, 2])).unwrap_err(),
            FrameError::Truncated { len: 2 }
        ));
        let wire = Packet::uplink(vec![1, 2, 3, 4]).to_bytes().unwrap();
        let mut lying = wire.to_vec();
        lying[3] = 2; // declare 2 bytes instead of 4
        assert!(matches!(
            Packet::from_bytes(Bytes::from(lying)).unwrap_err(),
            FrameError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn preamble_timing_matches_protocol() {
        let fmcw = FmcwConfig::milback_default();
        let up = Packet::uplink(vec![0; 10]);
        let down = Packet::downlink(vec![0; 10]);
        // Uplink: 3×45 µs field 1 + 5×100 µs field 2 = 635 µs.
        assert!((up.preamble_duration_s(&fmcw) - 635e-6).abs() < 1e-9);
        // Downlink: 2×45 + 45 gap + 500 = 635 µs as well.
        assert!((down.preamble_duration_s(&fmcw) - 635e-6).abs() < 1e-9);
    }

    #[test]
    fn payload_timing_and_efficiency() {
        let fmcw = FmcwConfig::milback_default();
        let p = Packet::downlink(vec![0; 4500]); // 18000 symbols
                                                 // At 18 Msym/s: payload = 1 ms; preamble 635 µs → efficiency ≈ 0.61.
        let eff = p.efficiency(&fmcw, 18e6);
        assert!((eff - 0.61).abs() < 0.02, "efficiency {eff:.3}");
        assert!((p.payload_duration_s(18e6) - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_payload_is_pure_preamble() {
        // A zero-byte packet is legal (a beacon: localization with no
        // data); its airtime is exactly the preamble and its efficiency 0.
        let fmcw = FmcwConfig::milback_default();
        for p in [Packet::uplink(vec![]), Packet::downlink(vec![])] {
            assert_eq!(p.payload_duration_s(20e6), 0.0);
            assert_eq!(p.duration_s(&fmcw, 20e6), p.preamble_duration_s(&fmcw));
            assert_eq!(
                p.duration_ps(&fmcw, 20e6),
                secs_to_ps(p.preamble_duration_s(&fmcw))
            );
            assert_eq!(p.efficiency(&fmcw, 20e6), 0.0);
            // And it still frames/unframes.
            assert_eq!(Packet::from_bytes(p.to_bytes().unwrap()).unwrap(), p);
        }
    }

    #[test]
    fn airtime_is_monotone_in_payload_length() {
        let fmcw = FmcwConfig::milback_default();
        let mut last_ps = 0;
        let mut last_eff = -1.0;
        for len in [0usize, 1, 2, 16, 255, 256, 4096, u16::MAX as usize] {
            let p = Packet::uplink(vec![0xA5; len]);
            let ps = p.duration_ps(&fmcw, 20e6);
            assert!(ps >= last_ps, "airtime shrank at {len} bytes");
            if len > 0 {
                assert!(ps > last_ps, "airtime flat at {len} bytes");
            }
            let eff = p.efficiency(&fmcw, 20e6);
            assert!(eff > last_eff, "efficiency not increasing at {len} bytes");
            assert!(eff < 1.0);
            last_ps = ps;
            last_eff = eff;
        }
    }

    #[test]
    fn slot_plan_accepts_max_slot_count_and_rejects_beyond() {
        let fmcw = FmcwConfig::milback_default();
        let p = Packet::uplink(vec![0; 32]);
        let max = SlotPlan::for_packet(MAX_SLOTS_PER_FRAME, &p, &fmcw, 20e6, 5e-6).unwrap();
        assert_eq!(max.slots_per_frame, MAX_SLOTS_PER_FRAME);
        // Frame time stays coherent at the maximum width.
        assert_eq!(max.frame_ps(), max.slot_ps * MAX_SLOTS_PER_FRAME as u64);
        assert!(SlotPlan::for_packet(MAX_SLOTS_PER_FRAME + 1, &p, &fmcw, 20e6, 5e-6).is_err());
        assert!(SlotPlan::for_packet(0, &p, &fmcw, 20e6, 5e-6).is_err());
        assert!(SlotPlan::for_packet(4, &p, &fmcw, 20e6, -1e-6).is_err());
    }

    #[test]
    fn slot_plan_timing_matches_packet_airtime() {
        let fmcw = FmcwConfig::milback_default();
        let p = Packet::uplink(vec![0; 100]);
        let plan = SlotPlan::for_packet(8, &p, &fmcw, 20e6, 10e-6).unwrap();
        assert_eq!(plan.slot_ps, p.duration_ps(&fmcw, 20e6) + 10_000_000);
        assert_eq!(plan.frame_ps(), 8 * plan.slot_ps);
    }

    #[test]
    fn slot_hash_is_deterministic_in_range_and_varies() {
        let fmcw = FmcwConfig::milback_default();
        let p = Packet::uplink(vec![0; 8]);
        let plan = SlotPlan::for_packet(16, &p, &fmcw, 20e6, 0.0).unwrap();
        let mut seen = std::collections::HashSet::new();
        for node in 0..64 {
            for frame in 0..8 {
                let s = plan.slot_for(node, frame, 0xFEED);
                assert!(s < 16);
                assert_eq!(s, plan.slot_for(node, frame, 0xFEED));
                seen.insert(s);
            }
        }
        assert!(
            seen.len() > 8,
            "hash should spread over most slots, hit {}",
            seen.len()
        );
        // Different frames move a node between slots (ALOHA retry works).
        let moves = (0..8)
            .map(|f| plan.slot_for(7, f, 0xFEED))
            .collect::<std::collections::HashSet<_>>();
        assert!(moves.len() > 1, "node must rehash across frames");
    }

    #[test]
    fn field1_burst_counting() {
        let d = Field1Detector::new(0.5, 3);
        // Three bursts separated by quiet gaps.
        let mut trace = Vec::new();
        for _ in 0..3 {
            trace.extend([1.0; 10]);
            trace.extend([0.0; 5]);
        }
        assert_eq!(d.count_bursts(&trace), 3);
        assert_eq!(d.detect_direction(&trace), Some(LinkDirection::Uplink));
    }

    #[test]
    fn field1_two_bursts_mean_downlink() {
        let d = Field1Detector::new(0.5, 3);
        let mut trace = vec![1.0; 10];
        trace.extend([0.0; 8]);
        trace.extend([1.0; 10]);
        assert_eq!(d.detect_direction(&trace), Some(LinkDirection::Downlink));
    }

    #[test]
    fn field1_ripple_within_burst_not_double_counted() {
        let d = Field1Detector::new(0.5, 5);
        // A burst with one sample dipping below threshold.
        let trace = [1.0, 1.0, 0.2, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(d.count_bursts(&trace), 1);
    }

    #[test]
    fn field1_unknown_counts_yield_none() {
        let d = Field1Detector::new(0.5, 3);
        assert_eq!(d.detect_direction(&[0.0; 20]), None); // zero bursts
        let mut five = Vec::new();
        for _ in 0..5 {
            five.extend([1.0; 4]);
            five.extend([0.0; 6]);
        }
        assert_eq!(d.detect_direction(&five), None);
    }
}
