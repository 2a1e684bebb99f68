//! Campaign-metrics serialization: the `results/METRICS_mac.json`
//! artifact `mac_compare` writes and `net_scale` consumes.
//!
//! All JSON here is hand-rolled (the workspace's serde shim is a no-op
//! marker), with the same hygiene rules as the CSV anchors: no `NaN`/`inf`
//! token can ever appear (the telemetry layer filters non-finite values at
//! observation time), and reduced-mode runs write nothing so the artifact
//! always describes a full-scale campaign unless CI regenerates it
//! deliberately.

use crate::hostinfo::HostInfo;
use milback_core::telemetry::Metrics;
use milback_core::LifecycleStats;
use std::fmt::Write as _;

/// Schema tag of `results/METRICS_mac.json`.
pub const METRICS_MAC_SCHEMA: &str = "milback-metrics-mac-v1";

/// Schema tag of `results/METRICS_lifecycle.json`.
pub const METRICS_LIFECYCLE_SCHEMA: &str = "milback-metrics-lifecycle-v1";

// `fold_queue_depths` — the trace-ring reconstruction of the engine's
// queue-depth histogram — is gone: a bounded ring evicts its oldest
// records, so any histogram rebuilt from it silently truncated on long
// campaigns. The engine now tallies dispatch-time depths losslessly
// (`Engine::enable_depth_stats`) and the campaign runner folds them into
// the probe's metrics directly.

/// Renders the full `METRICS_mac.json` document: schema, host block,
/// campaign configuration, and one merged metrics registry per policy (in
/// the given order, which the writer keeps deterministic).
pub fn metrics_mac_json(
    host: &HostInfo,
    config: &[(&str, String)],
    policies: &[(&str, &Metrics)],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{METRICS_MAC_SCHEMA}\",");
    let _ = writeln!(out, "  \"host\": {},", host.to_json());
    out.push_str("  \"config\": { ");
    for (i, (k, v)) in config.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{k}\": {v}");
    }
    out.push_str(" },\n  \"policies\": {\n");
    for (i, (name, metrics)) in policies.iter().enumerate() {
        let _ = write!(out, "    \"{name}\": {}", metrics.to_json());
        out.push_str(if i + 1 < policies.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Renders the full `METRICS_lifecycle.json` document: schema, host
/// block, campaign configuration, and one [`LifecycleStats::to_json`]
/// ledger per sweep cell (in the given order, which `net_audit` keeps
/// deterministic: policy-major, direct before relay). Every cell carries
/// all seven canonical drop labels even at zero, and percentile keys
/// appear only on non-empty sketches — the same hygiene contract as the
/// MAC document.
pub fn metrics_lifecycle_json(
    host: &HostInfo,
    config: &[(&str, String)],
    cells: &[(String, &LifecycleStats)],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{METRICS_LIFECYCLE_SCHEMA}\",");
    let _ = writeln!(out, "  \"host\": {},", host.to_json());
    out.push_str("  \"config\": { ");
    for (i, (k, v)) in config.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{k}\": {v}");
    }
    out.push_str(" },\n  \"cells\": {\n");
    for (i, (name, lifecycle)) in cells.iter().enumerate() {
        let _ = write!(out, "    \"{name}\": {}", lifecycle.to_json());
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Extracts one counter from a policy's section of a `METRICS_mac.json`
/// document. A substring reader over the writer's known layout — not a
/// JSON parser — which is all the cross-consumer (`net_scale`) needs
/// without a JSON dependency.
pub fn parse_policy_counter(text: &str, policy: &str, counter: &str) -> Option<u64> {
    let section_start = text.find(&format!("\"{policy}\": {{"))?;
    let section = &text[section_start..];
    // Sections are one line each; stay inside this policy's line.
    let section = section.lines().next()?;
    let key = format!("\"{counter}\":");
    let at = section.find(&key)? + key.len();
    let digits: String = section[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostInfo {
        HostInfo {
            cores: 4,
            threads: 2,
            rustc: "rustc 1.99.0 (test)".into(),
        }
    }

    #[test]
    fn lifecycle_document_carries_every_label_and_round_trips() {
        use milback_core::DropReason;
        let mut direct = LifecycleStats::new();
        direct.offer(5);
        direct.deliver_direct(3);
        direct.record_drops(DropReason::SdmInseparable, 2);
        direct.observe_slot_wait_us(120.0, 3);
        let relayed = LifecycleStats::new();
        let doc = metrics_lifecycle_json(
            &host(),
            &[("nodes", "64".into()), ("frames", "24".into())],
            &[
                ("aloha/direct".into(), &direct),
                ("aloha/relay".into(), &relayed),
            ],
        );
        assert!(doc.contains(METRICS_LIFECYCLE_SCHEMA));
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
        for label in DropReason::LABELS {
            // Both cells carry the full drop table, even the empty one.
            assert_eq!(doc.matches(&format!("\"{label}\":")).count(), 2);
        }
        // The section reader works on lifecycle cells too.
        assert_eq!(
            parse_policy_counter(&doc, "aloha/direct", "offered"),
            Some(5)
        );
        assert_eq!(
            parse_policy_counter(&doc, "aloha/direct", "sdm_inseparable"),
            Some(2)
        );
        assert_eq!(
            parse_policy_counter(&doc, "aloha/relay", "offered"),
            Some(0)
        );
    }

    #[test]
    fn document_round_trips_counters() {
        let mut aloha = Metrics::new();
        aloha.inc("slots_fired", 42);
        aloha.inc("slot_collisions", 7);
        let mut sdm = Metrics::new();
        sdm.inc("slots_fired", 42);
        sdm.inc("slot_collisions", 0);
        let doc = metrics_mac_json(
            &host(),
            &[("frames", "24".into()), ("slots", "8".into())],
            &[("aloha", &aloha), ("sdm", &sdm)],
        );
        assert!(doc.contains(METRICS_MAC_SCHEMA));
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
        assert_eq!(
            parse_policy_counter(&doc, "aloha", "slot_collisions"),
            Some(7)
        );
        assert_eq!(
            parse_policy_counter(&doc, "sdm", "slot_collisions"),
            Some(0)
        );
        assert_eq!(parse_policy_counter(&doc, "sdm", "slots_fired"), Some(42));
        assert_eq!(parse_policy_counter(&doc, "polling", "slots_fired"), None);
    }
}
