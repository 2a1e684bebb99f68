//! Host metadata shared by every benchmark artifact.
//!
//! Both `BENCH_*.json` files (and `METRICS_mac.json`) embed the same
//! [`HostInfo`] block, so speedup numbers can always be judged against
//! the machine that produced them — the two hand-rolled `"cores"` fields
//! the bench reports used to carry drifted independently; this is the one
//! source of truth.

use mmwave_sigproc::parallel;

/// The host facts that contextualize a benchmark number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Physical parallelism the OS reports.
    pub cores: usize,
    /// Worker threads the harness actually uses (`MILBACK_THREADS`).
    pub threads: usize,
    /// The compiler that built the binary (`rustc --version`).
    pub rustc: String,
}

impl HostInfo {
    /// Captures the current host.
    pub fn capture() -> Self {
        Self {
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            threads: parallel::max_threads(),
            // Baked in by build.rs from the toolchain that compiled us.
            rustc: env!("MILBACK_RUSTC_VERSION").to_string(),
        }
    }

    /// The shared `"host"` JSON object embedded in every bench artifact.
    pub fn to_json(&self) -> String {
        format!(
            "{{ \"cores\": {}, \"threads\": {}, \"rustc\": \"{}\" }}",
            self.cores,
            self.threads,
            self.rustc.replace('"', "'")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_sane_and_serializes() {
        let h = HostInfo::capture();
        assert!(h.cores >= 1);
        assert!(h.threads >= 1);
        assert!(h.rustc.contains("rustc"), "got {:?}", h.rustc);
        let json = h.to_json();
        assert!(json.contains("\"cores\":"));
        assert!(json.contains("\"rustc\":"));
    }
}
