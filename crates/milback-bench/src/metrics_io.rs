//! Campaign-metrics documents: `results/METRICS_mac.json`, which
//! `mac_compare` writes, and `results/METRICS_lifecycle.json`, which
//! `net_audit` writes.
//!
//! Both are one [`metrics_document`] written through the workspace's one
//! JSON writer ([`milback_core::json`]), so they share its rules: floats in
//! `{:e}` form and never a `NaN`/`inf` token (the telemetry layer also
//! filters non-finite values at observation time), escaped strings, and
//! insertion-ordered members.

use crate::hostinfo::HostInfo;
use milback_core::json::{self, Json};

/// Schema tag of `results/METRICS_mac.json`.
pub const METRICS_MAC_SCHEMA: &str = "milback-metrics-mac-v2";

/// Schema tag of `results/METRICS_lifecycle.json`.
pub const METRICS_LIFECYCLE_SCHEMA: &str = "milback-metrics-lifecycle-v2";

/// Renders a metrics document: `schema`, the `host` block, the campaign
/// `config` (typed values, in the given order), and one `section_key`
/// object holding each named section in the given order — the per-policy
/// [`Metrics`](milback_core::Metrics) registries of `METRICS_mac.json`
/// under `policies`, or the per-cell
/// [`LifecycleStats`](milback_core::LifecycleStats) ledgers of
/// `METRICS_lifecycle.json` under `cells`.
pub fn metrics_document<K: AsRef<str>, V: Json>(
    schema: &str,
    host: &HostInfo,
    config: &[(&str, &dyn Json)],
    section_key: &str,
    sections: &[(K, V)],
) -> String {
    json::document(|doc| {
        doc.field("schema", schema)
            .field("host", host)
            .object("config", |c| {
                for (key, value) in config {
                    c.field(key, value);
                }
            })
            .object(section_key, |s| {
                for (name, section) in sections {
                    s.field(name.as_ref(), section);
                }
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use milback_core::telemetry::Metrics;
    use milback_core::{DropReason, LifecycleStats};

    fn host() -> HostInfo {
        HostInfo {
            cores: 4,
            threads: 2,
            rustc: "rustc 1.99.0 (test)".into(),
        }
    }

    #[test]
    fn lifecycle_document_carries_every_label() {
        let mut direct = LifecycleStats::new();
        direct.offer(5);
        direct.deliver_direct(3);
        direct.record_drops(DropReason::SdmInseparable, 2);
        direct.observe_slot_wait_us(120.0, 3);
        let relayed = LifecycleStats::new();
        let doc = metrics_document(
            METRICS_LIFECYCLE_SCHEMA,
            &host(),
            &[("nodes", &64usize), ("gap_fraction", &0.25)],
            "cells",
            &[
                ("aloha/direct".to_string(), &direct),
                ("aloha/relay".to_string(), &relayed),
            ],
        );
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(
            lines[..4],
            [
                "{",
                r#""schema":"milback-metrics-lifecycle-v2","#,
                r#""host":{"cores":4,"threads":2,"rustc":"rustc 1.99.0 (test)"},"#,
                r#""config":{"nodes":64,"gap_fraction":2.5e-1},"#,
            ]
        );
        let cells = format!(
            r#""cells":{{"aloha/direct":{},"aloha/relay":{}}}"#,
            json::to_string(&direct),
            json::to_string(&relayed)
        );
        assert_eq!(lines[4..], [cells.as_str(), "}"]);
        assert!(doc.ends_with("}\n"));
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
        // The cells' counters land under their keys.
        let direct_json = json::to_string(&direct);
        assert!(direct_json.starts_with(r#"{"offered":5,"delivered_direct":3,"#));
        assert!(direct_json.contains(r#""sdm_inseparable":2,"#));
        assert!(json::to_string(&relayed).starts_with(r#"{"offered":0,"#));
        for label in DropReason::LABELS {
            // Both cells carry the full drop table, even the empty one.
            assert_eq!(doc.matches(&format!(r#""{label}":"#)).count(), 2);
        }
    }

    #[test]
    fn mac_document_carries_each_policy_registry() {
        let mut aloha = Metrics::new();
        aloha.inc("slots_fired", 42);
        aloha.inc("slot_collisions", 7);
        let mut sdm = Metrics::new();
        sdm.inc("slots_fired", 42);
        sdm.inc("slot_collisions", 0);
        let doc = metrics_document(
            METRICS_MAC_SCHEMA,
            &host(),
            &[
                ("frames", &24usize),
                ("node_counts", &[1usize, 2, 4].as_slice()),
            ],
            "policies",
            &[("aloha", &aloha), ("sdm", &sdm)],
        );
        assert!(doc.contains(r#""schema":"milback-metrics-mac-v2","#));
        assert!(doc.contains(r#""config":{"frames":24,"node_counts":[1,2,4]},"#));
        assert!(doc.contains(
            r#""policies":{"aloha":{"counters":{"slots_fired":42,"slot_collisions":7},"histograms":{}},"sdm":{"counters":{"slots_fired":42,"slot_collisions":0},"histograms":{}}}"#
        ));
        assert!(!doc.contains("polling"));
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
    }

    #[test]
    fn host_strings_are_escaped_not_rewritten() {
        let mut h = host();
        h.rustc = r#"rustc "nightly" \ build"#.into();
        let doc = metrics_document::<&str, u64>(METRICS_MAC_SCHEMA, &h, &[], "policies", &[]);
        assert!(
            doc.contains(r#""rustc":"rustc \"nightly\" \\ build""#),
            "{doc}"
        );
        assert!(doc.contains("\n\"policies\":{}\n}\n"), "{doc}");
    }
}
