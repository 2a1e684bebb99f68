//! Determinism suite for the `MacPolicy` layer: every policy must produce
//! the same campaign report through the trial-parallel runner at every
//! thread count `MILBACK_THREADS` resolves to. Slotted ALOHA's reports and
//! RNG positions are pinned by `tests/campaign_digest.rs` at the workspace
//! root.

use milback_bench::experiments::{run_sweep, sector_scene, Sweep, SweepCell, MAC_POLICY_NAMES};
use milback_bench::runner::RunnerConfig;
use milback_core::SlottedRunReport;

/// Every MAC policy is schedule-invariant through the runner: the whole
/// policy × node-count sweep is bit-identical at `MILBACK_THREADS`
/// 1/2/4/8.
#[test]
fn all_policies_thread_count_invariant() {
    let node_counts = [1, 3, 5];
    let sweep = Sweep::new(4, 8, 4, 0x3AC).unwrap();
    let run = |threads: usize| {
        run_sweep::<SlottedRunReport>(
            &sweep,
            MAC_POLICY_NAMES.len() * node_counts.len(),
            &RunnerConfig::with_threads(threads),
            |i| {
                Ok(SweepCell::new(
                    sector_scene(node_counts[i % node_counts.len()]),
                    MAC_POLICY_NAMES[i / node_counts.len()],
                ))
            },
        )
    };
    let reference = run(1);
    assert_eq!(
        reference.ok_count(),
        MAC_POLICY_NAMES.len() * node_counts.len(),
        "every cell must simulate"
    );
    for threads in [2, 4, 8] {
        assert_eq!(
            reference.sinks(),
            run(threads).sinks(),
            "sweep changed at {threads} threads"
        );
    }
}
