//! Determinism suite for the `MacPolicy` layer: every policy must produce
//! the same campaign report through the trial-parallel runner at every
//! thread count `MILBACK_THREADS` resolves to. Slotted ALOHA's reports and
//! RNG positions are pinned by `tests/campaign_digest.rs` at the workspace
//! root.

use milback_bench::experiments::{extension_mac_compare, MAC_POLICY_NAMES};
use milback_bench::runner::RunnerConfig;

/// Every MAC policy is schedule-invariant through the runner: the whole
/// policy × node-count sweep is bit-identical at `MILBACK_THREADS`
/// 1/2/4/8.
#[test]
fn all_policies_thread_count_invariant() {
    let node_counts = [1, 3, 5];
    let run = |threads: usize| {
        extension_mac_compare(
            &MAC_POLICY_NAMES,
            &node_counts,
            4,
            8,
            4,
            0x3AC,
            &RunnerConfig::with_threads(threads),
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
            reference,
            run(threads),
            "sweep changed at {threads} threads"
        );
    }
}
