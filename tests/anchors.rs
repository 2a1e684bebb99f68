//! Every committed anchor under `results/` reproduces. Each experiment
//! binary's own anchor-producing code, compiled here as a module, runs
//! in-process on one thread and must render its CSV byte for byte. The
//! metrics documents must match on every line but the `host` block,
//! traced or not, and the traced `mac_compare` run's trace artifacts must
//! be well-formed. The city-scale sweep matches on every column but the
//! two wall-clock ones: its 10³–10⁵ rows here, and all four rows,
//! 10⁶ included, in the ignored release test
//!
//! ```text
//! cargo test --release -q --test anchors -- --ignored
//! ```
//!
//! An anchor that moves on purpose is regenerated with its binary at
//! `MILBACK_THREADS=1`, which this test then pins.

use milback_bench::runner::RunnerConfig;
use milback_bench::{results_dir, Report};
use milback_core::telemetry::DEFAULT_TRACE_CAPACITY;
use std::collections::BTreeMap;

#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/ablations.rs"]
mod ablations;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/extensions_study.rs"]
mod extensions_study;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/fig10_fsa_pattern.rs"]
mod fig10;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/fig11_oaqfm_micro.rs"]
mod fig11;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/fig12a_ranging.rs"]
mod fig12a;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/fig12b_angle_cdf.rs"]
mod fig12b;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/fig13a_orientation_node.rs"]
mod fig13a;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/fig13b_orientation_ap.rs"]
mod fig13b;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/fig14_downlink.rs"]
mod fig14;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/fig15_uplink.rs"]
mod fig15;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/mac_compare.rs"]
mod mac_compare;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/net_audit.rs"]
mod net_audit;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/net_load.rs"]
mod net_load;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/net_relay.rs"]
mod net_relay;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/net_scale.rs"]
mod net_scale;
#[allow(dead_code)]
#[path = "../crates/milback-bench/src/bin/net_scale_city.rs"]
mod net_scale_city;

/// Every committed anchor: the 24 CSVs and the two metrics documents.
const ANCHORS: [&str; 26] = [
    "METRICS_lifecycle.json",
    "METRICS_mac.json",
    "ablation_a1.csv",
    "ablation_a2.csv",
    "ablation_a3.csv",
    "ablation_a4.csv",
    "ablation_a5.csv",
    "ablation_a6.csv",
    "extension_e1.csv",
    "extension_e2.csv",
    "extension_e3.csv",
    "extension_mac_compare.csv",
    "extension_net_audit.csv",
    "extension_net_load.csv",
    "extension_net_relay.csv",
    "extension_net_scale.csv",
    "extension_net_scale_city.csv",
    "figure_10_port_a.csv",
    "figure_10_port_b.csv",
    "figure_11.csv",
    "figure_12a.csv",
    "figure_12b.csv",
    "figure_13a.csv",
    "figure_13b.csv",
    "figure_14.csv",
    "figure_15.csv",
];

fn anchor(file: &str) -> String {
    assert!(ANCHORS.contains(&file), "{file} is not a listed anchor");
    let path = results_dir().join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Compares a rendered anchor with the committed one line by line, so a
/// mismatch names its first differing line.
fn assert_lines_eq(file: &str, rendered: &str, keep: impl Fn(&str) -> bool) {
    let committed = anchor(file);
    let want: Vec<&str> = committed.lines().filter(|l| keep(l)).collect();
    let got: Vec<&str> = rendered.lines().filter(|l| keep(l)).collect();
    for (k, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(w, g, "{file} line {} differs", k + 1);
    }
    assert_eq!(want.len(), got.len(), "{file} line count differs");
}

/// Byte-for-byte equality, reported by first differing line.
fn assert_anchor(file: &str, rendered: &str) {
    assert_lines_eq(file, rendered, |_| true);
    assert!(
        rendered == anchor(file),
        "{file} differs in its line endings"
    );
}

/// Each report's CSV against the anchor its binary writes it to.
fn assert_reports(reports: impl IntoIterator<Item = Report>) {
    for report in reports {
        assert_anchor(&report.csv_file(), &report.to_csv());
    }
}

/// The metrics documents match on every line but the host block, which
/// records the machine that wrote them.
fn not_host(line: &str) -> bool {
    !line.starts_with("\"host\":")
}

/// `results/` holds the listed anchors and no other CSV or metrics
/// document, so no committed anchor goes unchecked.
#[test]
fn results_holds_exactly_the_listed_anchors() {
    let mut committed: Vec<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".csv") || name.starts_with("METRICS_"))
        .collect();
    committed.sort();
    assert_eq!(committed, ANCHORS);
}

#[test]
fn fig10_anchors_reproduce() {
    assert_reports(fig10::reports(&RunnerConfig::serial()));
}

#[test]
fn fig11_anchor_reproduces() {
    assert_reports([fig11::report(&RunnerConfig::serial())]);
}

#[test]
fn fig12a_anchor_reproduces() {
    assert_reports([fig12a::report(&RunnerConfig::serial())]);
}

#[test]
fn fig12b_anchor_reproduces() {
    assert_reports([fig12b::report(&RunnerConfig::serial())]);
}

#[test]
fn fig13a_anchor_reproduces() {
    assert_reports([fig13a::report(&RunnerConfig::serial())]);
}

#[test]
fn fig13b_anchor_reproduces() {
    assert_reports([fig13b::report(&RunnerConfig::serial())]);
}

#[test]
fn fig14_anchor_reproduces() {
    assert_reports([fig14::report(&RunnerConfig::serial())]);
}

#[test]
fn fig15_anchor_reproduces() {
    assert_reports([fig15::report(&RunnerConfig::serial())]);
}

#[test]
fn ablation_anchors_reproduce() {
    assert_reports(ablations::reports(&RunnerConfig::serial()));
}

#[test]
fn extension_study_anchors_reproduce() {
    assert_reports(extensions_study::reports(&RunnerConfig::serial()));
}

#[test]
fn net_scale_anchor_reproduces() {
    let serial = RunnerConfig::serial();
    let report = net_scale::report(&net_scale::run(&serial), serial.threads);
    assert_anchor("extension_net_scale.csv", &report.to_csv());
}

/// Tracing records each policy's densest campaign on top of the metrics
/// probe; it must leave both the CSV and the metrics document unchanged,
/// and the traces it writes must be well-formed.
#[test]
fn mac_compare_anchors_reproduce() {
    let serial = RunnerConfig::serial();
    for trace_capacity in [None, Some(DEFAULT_TRACE_CAPACITY)] {
        let sweep = mac_compare::run(&serial, trace_capacity);
        let report = mac_compare::report(&sweep, serial.threads);
        assert_anchor("extension_mac_compare.csv", &report.to_csv());
        let doc = mac_compare::metrics_doc(&sweep).expect("the sweep recorded metrics");
        assert_lines_eq("METRICS_mac.json", &doc, not_host);
        let traces = mac_compare::trace_files(&sweep);
        match trace_capacity {
            None => assert!(traces.is_empty(), "an untraced sweep wrote traces"),
            Some(_) => assert_traces_well_formed(&traces),
        }
    }
}

/// The traced sweep's files: one JSONL trace per policy whose `time_ps`
/// never goes backwards, then the Chrome trace, in which every flow that
/// appears both starts (`s`) and finishes (`f`). The JSON writer renders
/// a non-finite value as `null`, so no file may carry one.
fn assert_traces_well_formed(files: &[(String, String)]) {
    let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "mac_aloha.trace.jsonl",
            "mac_backoff.trace.jsonl",
            "mac_polling.trace.jsonl",
            "mac_sdm.trace.jsonl",
            "mac_compare.trace.json",
        ]
    );
    for (name, text) in files {
        assert!(!text.contains("null"), "{name} carries a non-finite value");
    }
    let (chrome, jsonl) = files.split_last().unwrap();
    for (name, text) in jsonl {
        let stamps: Vec<u64> = text
            .lines()
            .filter_map(|line| line.split("\"time_ps\":").nth(1))
            .map(|rest| rest.split([',', '}']).next().unwrap().parse().unwrap())
            .collect();
        assert!(!stamps.is_empty(), "{name}: no timestamped records");
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "{name}: time_ps went backwards"
        );
    }
    let (name, text) = chrome;
    assert!(
        text.starts_with("{\"traceEvents\":[{"),
        "{name}: no trace events"
    );
    let mut flows: BTreeMap<&str, String> = BTreeMap::new();
    for event in text.split("\"cat\":\"flow\",\"ph\":\"").skip(1) {
        let id = event
            .split("\"id\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("{name}: flow event without an id"));
        flows.entry(id).or_default().push_str(&event[..1]);
    }
    for (id, phases) in &flows {
        assert!(
            phases.starts_with('s') && phases.ends_with('f'),
            "{name}: dangling flow {id}: {phases}"
        );
    }
}

#[test]
fn net_load_anchor_reproduces() {
    let sweep = net_load::run(&RunnerConfig::serial()).unwrap();
    assert_anchor("extension_net_load.csv", &net_load::csv(&sweep));
}

#[test]
fn net_relay_anchor_reproduces() {
    let sweep = net_relay::run(&RunnerConfig::serial()).unwrap();
    assert_anchor("extension_net_relay.csv", &net_relay::csv(&sweep));
}

#[test]
fn net_audit_anchors_reproduce() {
    let audit = net_audit::run(&RunnerConfig::serial()).unwrap();
    assert_anchor("extension_net_audit.csv", &net_audit::csv(&audit));
    let doc = net_audit::metrics_doc(&audit);
    assert_lines_eq("METRICS_lifecycle.json", &doc, not_host);
}

/// The city sweep's first `rows` node counts against the committed rows,
/// on every column but `nodes_per_sec` and `wall_s`, which are
/// wall-clock.
fn assert_city_rows(rows: usize) {
    let serial = RunnerConfig::serial();
    let points = net_scale_city::run(&net_scale_city::NODE_COUNTS[..rows], &serial).unwrap();
    let rendered = net_scale_city::csv(&points, serial.threads);
    let deterministic = |line: &str| -> String {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(cells.len(), 23, "{line}");
        [&cells[..13], &cells[15..]].concat().join(",")
    };
    let committed = anchor("extension_net_scale_city.csv");
    assert_eq!(
        committed.lines().count(),
        net_scale_city::NODE_COUNTS.len() + 1,
        "extension_net_scale_city.csv: one row per node count"
    );
    let want: Vec<String> = committed
        .lines()
        .take(rows + 1)
        .map(deterministic)
        .collect();
    let got: Vec<String> = rendered.lines().map(deterministic).collect();
    assert_eq!(want, got);
}

#[test]
fn net_scale_city_rows_reproduce() {
    assert_city_rows(3);
}

#[test]
#[ignore = "the 10⁶-node row; run in release by scripts/ci.sh"]
fn net_scale_city_all_rows_reproduce() {
    assert_city_rows(net_scale_city::NODE_COUNTS.len());
}
