//! Trial-parallel Monte-Carlo experiment runner with deterministic
//! per-trial RNG streams.
//!
//! Every figure/ablation/extension experiment in this crate is an
//! embarrassingly parallel sweep: N independent trials, each consuming
//! Gaussian noise draws. The historical pattern — one shared
//! [`GaussianSource`] threaded through nested loops — had two defects:
//!
//! 1. **Serial wall-clock**: trials ran one-by-one regardless of cores.
//! 2. **Ordering fragility**: every trial's noise depended on how many
//!    draws all *earlier* trials made, so adding a placement to a sweep
//!    silently reshuffled every later trial's randomness.
//!
//! [`run_trials`] fixes both. Each trial gets its own RNG stream derived
//! from `(root_seed, trial_idx)` by a SplitMix64-style golden-ratio mix
//! feeding [`GaussianSource::new`] (itself SplitMix64-seeded xoshiro256++),
//! so trial `i`'s stream is a pure function of the root seed and its index.
//! Trials are scheduled over the chunked-thread machinery in
//! [`mmwave_sigproc::parallel`] with one result slot per trial; because the
//! streams are independent and each result lands in its own slot, the
//! output is **bit-for-bit identical at any thread count** and identical to
//! a serial `for` loop over the same closures.

use mmwave_sigproc::parallel;
use mmwave_sigproc::random::GaussianSource;

/// Scheduling configuration for [`run_trials`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Worker budget. `1` runs trials inline on the caller; results are
    /// identical either way.
    pub threads: usize,
}

impl RunnerConfig {
    /// Respects `MILBACK_THREADS` (via [`parallel::max_threads`]), else the
    /// machine's available parallelism.
    pub fn from_env() -> Self {
        Self {
            threads: parallel::max_threads(),
        }
    }

    /// Single-threaded (the timing baseline).
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// An explicit worker budget (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }
}

/// The seed for one trial's RNG stream: the root seed XOR'd with the trial
/// index spread by the SplitMix64 golden-ratio increment. The multiply
/// decorrelates neighbouring indices before [`GaussianSource::new`]'s own
/// SplitMix64 expansion; the XOR keeps trial 0 of different roots distinct.
pub fn trial_seed(root_seed: u64, trial_idx: usize) -> u64 {
    root_seed ^ (trial_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The independent RNG stream for one trial.
pub fn trial_rng(root_seed: u64, trial_idx: usize) -> GaussianSource {
    GaussianSource::new(trial_seed(root_seed, trial_idx))
}

/// Runs `n_trials` independent Monte-Carlo trials, each with its own
/// deterministic RNG stream, scheduled over `cfg.threads` workers.
///
/// The result vector is in trial order and bit-for-bit independent of the
/// thread count. The closure receives `(trial_idx, rng)`; it must derive
/// all its randomness from that RNG (and all other inputs from `trial_idx`)
/// for the determinism guarantee to hold.
pub fn run_trials<T, F>(n_trials: usize, root_seed: u64, cfg: &RunnerConfig, trial: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut GaussianSource) -> T + Sync,
{
    // Host-side wall-clock span only — never visible to the trials.
    let _span = crate::spans::span("run_trials");
    let mut slots: Vec<Option<T>> = (0..n_trials).map(|_| None).collect();
    parallel::for_each_chunk(&mut slots, 1, cfg.threads, |idx, chunk| {
        let mut rng = trial_rng(root_seed, idx);
        chunk[0] = Some(trial(idx, &mut rng));
    });
    slots
        .into_iter()
        .map(|s| s.expect("runner filled every trial slot"))
        .collect()
}

/// The outcome of a fallible trial batch: per-trial `Result`s in trial
/// order, with counting/reporting helpers so experiment reports can print
/// honest `ok/failed` statistics instead of silently shrinking the sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialBatch<T, E> {
    /// Per-trial outcomes, in trial order.
    pub results: Vec<Result<T, E>>,
}

impl<T, E> TrialBatch<T, E> {
    /// Number of trials that succeeded.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of trials that failed.
    pub fn failed_count(&self) -> usize {
        self.results.len() - self.ok_count()
    }

    /// `"38 ok / 2 failed (40 trials)"` — for report notes.
    pub fn summary(&self) -> String {
        format!(
            "{} ok / {} failed ({} trials)",
            self.ok_count(),
            self.failed_count(),
            self.results.len()
        )
    }

    /// Successful results, in trial order.
    pub fn oks(&self) -> impl Iterator<Item = &T> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Every trial's result in trial order, or — when any trial failed —
    /// one message listing each failure with its trial index.
    pub fn into_oks(self) -> Result<Vec<T>, String>
    where
        E: std::fmt::Display,
    {
        if self.failed_count() > 0 {
            let failures: Vec<String> = self
                .failures()
                .map(|(i, e)| format!("trial {i}: {e}"))
                .collect();
            return Err(failures.join("; "));
        }
        Ok(self.results.into_iter().filter_map(Result::ok).collect())
    }

    /// Failures with their trial indices, in trial order.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &E)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
    }
}

/// [`run_trials`] for fallible trials: failures are collected per trial
/// instead of being swallowed, so reports can state how many trials the
/// statistics actually cover.
pub fn run_fallible<T, E, F>(
    n_trials: usize,
    root_seed: u64,
    cfg: &RunnerConfig,
    trial: F,
) -> TrialBatch<T, E>
where
    T: Send,
    E: Send,
    F: Fn(usize, &mut GaussianSource) -> Result<T, E> + Sync,
{
    TrialBatch {
        results: run_trials(n_trials, root_seed, cfg, trial),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..64).map(|i| trial_seed(0xF00D, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "seed collision");
        assert_eq!(
            seeds,
            (0..64).map(|i| trial_seed(0xF00D, i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn results_are_in_trial_order() {
        let out = run_trials(10, 7, &RunnerConfig::with_threads(4), |i, _| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_explicit_serial_loop() {
        let trial = |i: usize, rng: &mut GaussianSource| -> (usize, f64) {
            (i, (0..50).map(|_| rng.standard()).sum())
        };
        let serial: Vec<(usize, f64)> = (0..23)
            .map(|i| {
                let mut rng = trial_rng(0xABCD, i);
                trial(i, &mut rng)
            })
            .collect();
        for threads in [1, 2, 4, 8] {
            let got = run_trials(23, 0xABCD, &RunnerConfig::with_threads(threads), trial);
            assert_eq!(got, serial, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn fallible_batch_counts_and_iterates() {
        let batch = run_fallible(10, 1, &RunnerConfig::serial(), |i, _| {
            if i % 3 == 0 {
                Err(format!("trial {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(batch.ok_count(), 6);
        assert_eq!(batch.failed_count(), 4);
        assert_eq!(batch.summary(), "6 ok / 4 failed (10 trials)");
        assert_eq!(
            batch.oks().copied().collect::<Vec<_>>(),
            vec![1, 2, 4, 5, 7, 8]
        );
        assert_eq!(
            batch.failures().map(|(i, _)| i).collect::<Vec<_>>(),
            vec![0, 3, 6, 9]
        );
    }

    #[test]
    fn zero_trials_is_fine() {
        let out: Vec<u8> = run_trials(0, 0, &RunnerConfig::from_env(), |_, _| 0u8);
        assert!(out.is_empty());
    }
}
