//! The committed network-sweep anchors reproduce: each room-scale sweep
//! binary's own `run` and CSV writer, compiled here as a module, runs on
//! one thread and must render `results/*.csv` byte for byte. The metrics
//! documents must match their committed anchors on every line but the
//! `host` block, traced or not, and the city-scale sweep's 10³-node row
//! must match on every column but the two wall-clock ones.
//!
//! An anchor that moves on purpose is regenerated with the binary at
//! `MILBACK_THREADS=1`, which this test then pins.

use milback_bench::results_dir;
use milback_bench::runner::RunnerConfig;
use milback_core::telemetry::DEFAULT_TRACE_CAPACITY;

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

fn anchor(file: &str) -> String {
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

/// The metrics documents match on every line but the host block, which
/// records the machine that wrote them.
fn not_host(line: &str) -> bool {
    !line.starts_with("\"host\":")
}

#[test]
fn net_scale_anchor_reproduces() {
    let serial = RunnerConfig::serial();
    let report = net_scale::report(&net_scale::run(&serial), serial.threads);
    assert_anchor("extension_net_scale.csv", &report.to_csv());
}

/// Tracing records each policy's densest campaign on top of the metrics
/// probe; it must leave both the CSV and the metrics document unchanged.
#[test]
fn mac_compare_anchors_reproduce() {
    let serial = RunnerConfig::serial();
    for trace_capacity in [None, Some(DEFAULT_TRACE_CAPACITY)] {
        let sweep = mac_compare::run(&serial, trace_capacity);
        let report = mac_compare::report(&sweep, serial.threads);
        assert_anchor("extension_mac_compare.csv", &report.to_csv());
        let doc = mac_compare::metrics_doc(&sweep).expect("the sweep recorded metrics");
        assert_lines_eq("METRICS_mac.json", &doc, not_host);
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

/// The city sweep's 10³-node row: every column but `nodes_per_sec` and
/// `wall_s`, which are wall-clock.
#[test]
fn net_scale_city_row_reproduces() {
    let serial = RunnerConfig::serial();
    let points = net_scale_city::run(&[1_000], &serial).unwrap();
    let rendered = net_scale_city::csv(&points, serial.threads);
    let deterministic = |line: &str| -> String {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(cells.len(), 23, "{line}");
        [&cells[..13], &cells[15..]].concat().join(",")
    };
    let committed = anchor("extension_net_scale_city.csv");
    let want: Vec<String> = committed.lines().take(2).map(deterministic).collect();
    let got: Vec<String> = rendered.lines().map(deterministic).collect();
    assert_eq!(want, got);
}
