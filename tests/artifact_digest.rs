//! Golden digests of the JSON artifacts a traced campaign writes.
//!
//! An FNV-1a digest folds the exact bytes of each rendering, so a changed
//! number format, key order, separator or escape fails here:
//!
//! * the JSONL trace (`TraceBuffer::to_jsonl`) and the Chrome trace
//!   (`chrome_trace`) of traced campaigns of the 64-node ±60° sector scene
//!   under slotted ALOHA, backoff and SDM-aware assignment, plus a
//!   relay-on ALOHA leg behind a congested `Drop` AP pipeline (the only
//!   leg that records relay hops);
//! * each leg's metrics registry and lifecycle ledger rendering
//!   (`json::to_string`).
//!
//! The same legs gate the event queue's dispatch count exactly: the
//! combined `queue_depth` histogram tallies one observation per popped
//! event.
//!
//! The committed digests were recorded before the JSON writers were
//! collapsed onto one module.

use milback::core::json;
use milback::core::protocol::SlotPlan;
use milback::core::telemetry::{chrome_trace, Metrics, TraceBuffer, TraceRecord};
use milback::core::{
    ApServiceConfig, BackoffAloha, CampaignProbe, CampaignSpec, CoverageModel, MacPolicy, Network,
    OverflowPolicy, Packet, RelayAwareMac, RelayConfig, Scene, SdmAwareAssignment, SlottedAloha,
    SlottedRunReport, SystemConfig,
};
use milback::sigproc::random::GaussianSource;

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-delimit each rendering so two artifacts cannot trade bytes.
        for b in (text.len() as u64).to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const NODES: usize = 64;
const FRAMES: usize = 6;
const PAYLOAD: [u8; 16] = [0x42; 16];
/// Small enough that every leg evicts, so the flow pairing of
/// partially evicted packet chains is part of the digest.
const TRACE_CAPACITY: usize = 512;

fn sector_network() -> Network {
    let scene = Scene::arc(NODES, 4.0, 120f64.to_radians(), 12f64.to_radians());
    Network::new(SystemConfig::milback_default(), scene).unwrap()
}

fn plan_for(net: &Network) -> SlotPlan {
    SlotPlan::for_packet(
        8,
        &Packet::uplink(PAYLOAD.to_vec()),
        &net.config.fmcw,
        net.config.uplink_symbol_rate_hz,
        10e-6,
    )
    .unwrap()
}

/// Edge nodes past ±45° are coverage gaps bridged by two-hop relays.
fn relay_on() -> RelayConfig {
    RelayConfig {
        coverage: CoverageModel {
            ap_range_m: f64::INFINITY,
            sector_half_rad: 45f64.to_radians(),
        },
        max_hops: 2,
        tag_range_m: 0.5,
        hop_snr_penalty_db: 3.0,
    }
}

/// A Capture stage two slots deep behind a one-grant `Drop` queue.
fn congested(plan: &SlotPlan) -> ApServiceConfig {
    ApServiceConfig::instantaneous()
        .with_stage_latencies(2 * plan.slot_ps, 0, 0)
        .with_queue(1, OverflowPolicy::Drop)
}

/// One traced leg: its trace, metrics and lifecycle rendering.
struct Leg {
    name: &'static str,
    trace: TraceBuffer,
    metrics: Metrics,
    lifecycle_json: String,
}

fn traced_legs() -> Vec<Leg> {
    let net = sector_network();
    let plan = plan_for(&net);
    let direct = CampaignSpec::new(FRAMES, &PAYLOAD, plan);
    let relayed = CampaignSpec::new(FRAMES, &PAYLOAD, plan)
        .with_service(congested(&plan))
        .with_relay(relay_on());
    let legs: [(&'static str, &CampaignSpec<'_>, Box<dyn MacPolicy>); 4] = [
        ("aloha", &direct, Box::new(SlottedAloha::new(0xA1))),
        (
            "backoff",
            &direct,
            Box::new(BackoffAloha::new(0xB2, 5).unwrap()),
        ),
        ("sdm", &direct, Box::new(SdmAwareAssignment::new())),
        (
            "aloha_relay",
            &relayed,
            Box::new(RelayAwareMac::new(0xC3, relay_on())),
        ),
    ];
    legs.into_iter()
        .enumerate()
        .map(|(i, (name, spec, policy))| {
            let mut rng = GaussianSource::new(0xA27F_AC70 + i as u64);
            let mut probe = CampaignProbe::with_trace(TRACE_CAPACITY);
            let r: SlottedRunReport = net.run(spec, policy, &mut rng, &mut probe).unwrap();
            let metrics = probe
                .take_metrics()
                .expect("a traced probe collects metrics");
            let trace = probe.trace.take().expect("a traced probe").into_buffer();
            Leg {
                name,
                trace,
                metrics,
                lifecycle_json: json::to_string(&r.lifecycle),
            }
        })
        .collect()
}

fn kind(r: &TraceRecord) -> &'static str {
    match r {
        TraceRecord::Event { .. } => "event",
        TraceRecord::Slot { .. } => "slot",
        TraceRecord::Backoff { .. } => "backoff",
        TraceRecord::SdmRotation { .. } => "sdm_rotation",
        TraceRecord::Energy { .. } => "energy",
        TraceRecord::Stage { .. } => "stage",
        TraceRecord::RelayHop { .. } => "relay_hop",
        TraceRecord::FlowEnd { .. } => "flow_end",
    }
}

#[test]
fn artifact_digest_renderings() {
    let legs = traced_legs();

    let mut seen: Vec<&'static str> = legs
        .iter()
        .flat_map(|l| l.trace.records().map(kind))
        .collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen,
        [
            "backoff",
            "energy",
            "event",
            "flow_end",
            "relay_hop",
            "sdm_rotation",
            "slot",
            "stage"
        ],
        "every trace record kind must reach the digest"
    );
    assert!(
        legs.iter().all(|l| l.trace.dropped() > 0),
        "every leg must evict so partial flow chains are rendered"
    );

    // The queue's dispatch count, exactly: one `queue_depth` observation
    // per popped event. Instantaneous AP, no relay grants: every frame is
    // served in one pass, so the only events are the frame boundaries.
    let dispatched = |leg: &Leg| {
        leg.metrics
            .histogram("queue_depth")
            .expect("a metrics probe tallies queue depths")
            .count
    };
    for leg in &legs[..3] {
        assert_eq!(dispatched(leg), FRAMES as u64, "leg {}", leg.name);
        assert!(leg.metrics.counter("ap_served") > 0, "leg {}", leg.name);
    }
    // A staged pipeline with relay grants takes the event path: a frame
    // boundary per frame, a `SlotFire` per offered grant, a `RelayFire`
    // per granted chain, and Capture, Plan and Transmit completions for
    // every grant that was not shed (the queue drains, so every admitted
    // grant is served).
    let relay = &legs[3];
    let m = &relay.metrics;
    assert!(m.counter("ap_dropped") > 0 && m.counter("relay_fired") > 0);
    assert_eq!(
        dispatched(relay),
        FRAMES as u64
            + m.counter("ap_offered")
            + m.counter("relay_fired")
            + 3 * m.counter("ap_served"),
        "leg {}",
        relay.name
    );

    let mut jsonl = Fnv::new();
    for leg in &legs {
        jsonl.bytes(&leg.trace.to_jsonl());
    }
    let sections: Vec<(&str, &TraceBuffer)> = legs.iter().map(|l| (l.name, &l.trace)).collect();
    let mut chrome = Fnv::new();
    chrome.bytes(&chrome_trace(&sections));
    let mut metrics = Fnv::new();
    let mut lifecycle = Fnv::new();
    for leg in &legs {
        metrics.bytes(&json::to_string(&leg.metrics));
        lifecycle.bytes(&leg.lifecycle_json);
    }

    assert_eq!(
        jsonl.0, 3_147_927_471_420_894_087,
        "JSONL trace digest moved"
    );
    assert_eq!(
        chrome.0, 16_214_772_116_518_597_362,
        "Chrome trace digest moved"
    );
    assert_eq!(
        metrics.0, 1_560_293_721_493_029_612,
        "metrics rendering digest moved"
    );
    assert_eq!(
        lifecycle.0, 16_955_618_270_727_097_429,
        "lifecycle rendering digest moved"
    );
}
