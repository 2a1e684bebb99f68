//! Protocol walkthrough: builds MilBack packets (Fig 8), shows the Field-1
//! mode signalling the node decodes from raw detector bursts, the framing
//! layer's corruption detection, and the airtime/efficiency arithmetic.
//!
//! Run with: `cargo run --release --example protocol_trace`

use milback::ap::waveform::{FmcwConfig, LinkDirection};
use milback::core::protocol::{Field1Detector, Packet, FIELD1_GAP_S};

fn main() {
    let fmcw = FmcwConfig::milback_default();
    println!("MilBack packet structure (Fig 8)\n");

    for packet in [
        Packet::uplink(b"node telemetry: 48 bytes of sensor readings....".to_vec()),
        Packet::downlink(b"AP command: set-report-interval=100ms".to_vec()),
    ] {
        let dir = packet.direction;
        println!(
            "── {dir:?} packet, {} payload bytes ──",
            packet.payload.len()
        );
        println!(
            "  Field 1: {} triangular chirps of {:.0} µs{}",
            dir.field1_chirp_count(),
            fmcw.field1_chirp_s * 1e6,
            if dir == LinkDirection::Downlink {
                format!(
                    " (with a {:.0} µs gap — the downlink marker)",
                    FIELD1_GAP_S * 1e6
                )
            } else {
                String::new()
            }
        );
        println!(
            "  Field 2: 5 sawtooth chirps of {:.0} µs at {:.0} µs spacing (localization)",
            fmcw.field2_chirp_s * 1e6,
            fmcw.chirp_interval_s * 1e6
        );
        let sym_rate = 18e6;
        println!(
            "  preamble {:.0} µs + payload {:.0} µs at {:.0} Msym/s → efficiency {:.1}%",
            packet.preamble_duration_s(&fmcw) * 1e6,
            packet.payload_duration_s(sym_rate) * 1e6,
            sym_rate / 1e6,
            packet.efficiency(&fmcw, sym_rate) * 100.0
        );

        // Wire framing round-trip.
        let wire = packet.to_bytes().expect("payload fits a frame");
        println!(
            "  wire frame: {} bytes (magic|dir|len|payload|checksum)",
            wire.len()
        );
        let parsed = Packet::from_bytes(wire.clone()).expect("frame parses");
        assert_eq!(parsed, packet);

        // Bit-flip detection.
        let mut corrupted = wire.to_vec();
        corrupted[5] ^= 0x40;
        match Packet::from_bytes(corrupted.into()) {
            Err(e) => println!("  corrupted frame rejected: {e}"),
            Ok(_) => unreachable!("corruption must be caught"),
        }
        println!();
    }

    // The node's Field-1 burst counter in action.
    println!("Node-side mode detection from detector bursts:");
    let detector = Field1Detector::new(0.5, 5);
    let uplink_trace = bursts(3, 45, 10);
    let downlink_trace = bursts(2, 45, 45);
    println!(
        "  3 bursts → {:?}",
        detector
            .detect_direction(&uplink_trace)
            .expect("uplink signal")
    );
    println!(
        "  2 bursts + gap → {:?}",
        detector
            .detect_direction(&downlink_trace)
            .expect("downlink signal")
    );
}

/// Builds a synthetic detector trace with `n` power bursts.
fn bursts(n: usize, width: usize, gap: usize) -> Vec<f64> {
    let mut t = Vec::new();
    for _ in 0..n {
        t.extend(std::iter::repeat_n(1.0, width));
        t.extend(std::iter::repeat_n(0.0, gap));
    }
    t
}
