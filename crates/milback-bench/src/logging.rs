//! Leveled stderr logging for the experiment binaries.
//!
//! `MILBACK_LOG={off,warn,info,debug}` selects the threshold (default
//! `warn`, so CI runs stay quiet unless something is actually
//! wrong). The binaries log through [`log_warn!`](crate::log_warn) /
//! [`log_info!`](crate::log_info) / [`log_debug!`](crate::log_debug)
//! instead of scattered `eprintln!`, so one environment variable governs
//! all diagnostic output.

use std::sync::OnceLock;

/// Log severity, ordered: nothing below the configured level prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Log nothing.
    Off,
    /// Problems a run should surface even in CI (default).
    Warn,
    /// Progress and summary diagnostics.
    Info,
    /// Everything, including per-stage chatter.
    Debug,
}

impl Level {
    /// Parses a `MILBACK_LOG` value; unknown strings fall back to `Warn`
    /// (never panic over an env var typo).
    pub fn parse(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Level::Off,
            "info" => Level::Info,
            "debug" => Level::Debug,
            _ => Level::Warn,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// The configured threshold (reads `MILBACK_LOG` once per process).
pub fn level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        std::env::var("MILBACK_LOG")
            .map(|v| Level::parse(&v))
            .unwrap_or(Level::Warn)
    })
}

/// Logs `args` to stderr when `at` passes the configured threshold.
/// Prefer the [`log_warn!`](crate::log_warn)-family macros.
pub fn log(at: Level, args: std::fmt::Arguments<'_>) {
    if at != Level::Off && at <= level() {
        eprintln!("[{}] {args}", at.label());
    }
}

/// Logs at [`Level::Warn`] (printed unless `MILBACK_LOG=off`).
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        $crate::logging::log($crate::logging::Level::Warn, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Info`] (printed at `MILBACK_LOG=info` or `debug`).
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        $crate::logging::log($crate::logging::Level::Info, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Debug`] (printed only at `MILBACK_LOG=debug`).
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        $crate::logging::log($crate::logging::Level::Debug, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_documented_value() {
        assert_eq!(Level::parse("off"), Level::Off);
        assert_eq!(Level::parse("0"), Level::Off);
        assert_eq!(Level::parse("warn"), Level::Warn);
        assert_eq!(Level::parse("INFO"), Level::Info);
        assert_eq!(Level::parse(" debug "), Level::Debug);
    }

    #[test]
    fn unknown_values_fall_back_to_warn() {
        assert_eq!(Level::parse("verbose"), Level::Warn);
        assert_eq!(Level::parse(""), Level::Warn);
    }

    #[test]
    fn levels_order_off_to_debug() {
        assert!(Level::Off < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }
}
