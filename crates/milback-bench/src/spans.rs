//! Host-side wall-clock profiling spans.
//!
//! A span times a named stage of harness work — `setup`, `trials`, `io`,
//! a DSP hot path — on the **host** clock, accumulated into a global
//! registry and exportable as a tab-separated file (via
//! `MILBACK_SPAN_FILE`) that `all_experiments` folds into its per-stage
//! timing table and `bench_smoke` embeds in `BENCH_experiments.json`.
//!
//! Spans live entirely outside the simulation: they never touch simulated
//! time, trial RNG streams, or campaign state, so they cannot perturb a
//! result — the wall clock is read on the host side of the probe boundary
//! only, exactly as the telemetry non-perturbation contract requires.

use std::sync::Mutex;
use std::time::Instant;

/// Accumulated statistics of one named span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name (stage label).
    pub name: String,
    /// Total wall-clock time across all entries, nanoseconds.
    pub total_ns: u128,
    /// Times the span was entered.
    pub count: u64,
}

/// First-entry-ordered accumulation: `Vec` keeps the report order stable
/// and deterministic (registries hold a handful of names; linear scan).
static REGISTRY: Mutex<Vec<(String, u128, u64)>> = Mutex::new(Vec::new());

/// An RAII span: created by [`span`], accumulates its elapsed wall time
/// into the global registry when dropped.
#[must_use = "a span measures the scope it lives in — bind it to a variable"]
pub struct SpanGuard {
    name: &'static str,
    started: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed_ns = self.started.elapsed().as_nanos();
        let mut reg = match REGISTRY.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        match reg.iter_mut().find(|(n, _, _)| n == self.name) {
            Some((_, total, count)) => {
                *total += elapsed_ns;
                *count += 1;
            }
            None => reg.push((self.name.to_string(), elapsed_ns, 1)),
        }
    }
}

/// Opens a wall-clock span over the enclosing scope.
///
/// ```
/// let _span = milback_bench::spans::span("trials");
/// // ... stage work ...
/// // drop accumulates into the registry
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        started: Instant::now(),
    }
}

/// A snapshot of every span recorded so far, in first-entry order.
pub fn snapshot() -> Vec<SpanStat> {
    let reg = match REGISTRY.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    reg.iter()
        .map(|(name, total_ns, count)| SpanStat {
            name: name.clone(),
            total_ns: *total_ns,
            count: *count,
        })
        .collect()
}

/// Clears the registry (tests and multi-phase binaries).
pub fn reset() {
    let mut reg = match REGISTRY.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    reg.clear();
}

/// Serializes a snapshot as the span-file format: one
/// `name<TAB>total_ns<TAB>count` line per span.
pub fn to_span_file(stats: &[SpanStat]) -> String {
    let mut out = String::new();
    for s in stats {
        out.push_str(&format!("{}\t{}\t{}\n", s.name, s.total_ns, s.count));
    }
    out
}

/// Parses the span-file format back (inverse of [`to_span_file`]);
/// malformed lines are skipped rather than fatal, so a partially written
/// file still yields its good rows.
pub fn parse_span_file(text: &str) -> Vec<SpanStat> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split('\t');
            let name = parts.next()?.to_string();
            let total_ns = parts.next()?.parse().ok()?;
            let count = parts.next()?.parse().ok()?;
            Some(SpanStat {
                name,
                total_ns,
                count,
            })
        })
        .collect()
}

/// If `MILBACK_SPAN_FILE` names a path, writes the current snapshot there
/// (best-effort). Experiment binaries call this once before exiting so a
/// parent (`all_experiments`) can collect their per-stage breakdown.
pub fn export_if_requested() {
    if let Ok(path) = std::env::var("MILBACK_SPAN_FILE") {
        if !path.is_empty() {
            let _ = std::fs::write(path, to_span_file(&snapshot()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is global and tests run concurrently, so each test
    // uses its own unique span names rather than asserting on the full
    // snapshot.

    #[test]
    fn spans_accumulate_totals_and_counts() {
        for _ in 0..3 {
            let _g = span("test_spans_accumulate");
            std::hint::black_box(0u64);
        }
        let stats = snapshot();
        let s = stats
            .iter()
            .find(|s| s.name == "test_spans_accumulate")
            .expect("span recorded");
        assert_eq!(s.count, 3);
    }

    #[test]
    fn span_file_round_trips() {
        let stats = vec![
            SpanStat {
                name: "setup".into(),
                total_ns: 1234,
                count: 1,
            },
            SpanStat {
                name: "trials".into(),
                total_ns: 987_654_321,
                count: 12,
            },
        ];
        assert_eq!(parse_span_file(&to_span_file(&stats)), stats);
        // Malformed lines are skipped, not fatal.
        let parsed = parse_span_file("setup\t1\t1\ngarbage line\nio\t2\t1\n");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].name, "io");
    }
}
