//! Zero-cost observability for the near-threshold server study.
//!
//! Three pieces, all opt-in twice over (compile-time feature + runtime
//! switch):
//!
//! - [`metrics`] — a process-global registry of typed counters and
//!   log₂-bucketed histograms. Recording is `&self` (relaxed
//!   atomics), registration is lazy and happens on first use, and
//!   snapshots serialize to JSONL (one metric per line) under
//!   `results/telemetry/` plus a human-readable summary table.
//! - [`trace`] — begin/end spans with thread ids, buffered per thread
//!   and exported as Chrome `trace_event` JSON that loads directly in
//!   `about:tracing` or [Perfetto](https://ui.perfetto.dev).
//! - [`env`](mod@env) — one consistent parser for the `NTC_*` environment
//!   variables (`NTC_TRACE`, `NTC_METRICS`, `NTC_CACHE`,
//!   `NTC_FIDELITY`) that warns once per variable on invalid values.
//!
//! # The zero-cost contract
//!
//! Without the `enabled` cargo feature, [`tracing_enabled`] and
//! [`metrics_enabled`] are `#[inline(always)]` constant `false`, so every
//! instrumentation site in the workspace folds away at compile time —
//! the hot loops carry no atomics, no branches, no allocation. With the
//! feature compiled in, each switch is one relaxed atomic load; the
//! default is still *off* unless `NTC_TRACE=1` / `NTC_METRICS=1` is set
//! in the environment or [`set_tracing`] / [`set_metrics`] is called
//! (which is what the `ntc-bench` `--trace` / `--metrics` flags do).

pub mod env;
pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Histogram, LazyCounter, LazyHistogram, MetricSnapshot, MetricValue, Registry,
};
pub use trace::{
    counter_args, push_events, span, span_cat, span_with, ChromeTrace, Span, TraceEvent,
};

/// Whether the telemetry runtime was compiled in (`enabled` feature).
///
/// When this is `false`, [`set_tracing`] / [`set_metrics`] are inert —
/// callers that take `--trace`-style flags should warn the user.
pub const fn compiled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
mod switches {
    use std::sync::atomic::{AtomicU8, Ordering};

    // Tri-state so the environment is consulted exactly once, lazily:
    // an explicit set_*() before first use wins over the environment.
    const UNSET: u8 = 0;
    const OFF: u8 = 1;
    const ON: u8 = 2;

    static TRACING: AtomicU8 = AtomicU8::new(UNSET);
    static METRICS: AtomicU8 = AtomicU8::new(UNSET);

    fn resolve(switch: &AtomicU8, var: &str) -> bool {
        match switch.load(Ordering::Relaxed) {
            ON => true,
            OFF => false,
            _ => {
                let on = crate::env::flag(var);
                switch.store(if on { ON } else { OFF }, Ordering::Relaxed);
                on
            }
        }
    }

    /// Is span tracing on? One relaxed load on the steady state.
    #[inline]
    pub fn tracing_enabled() -> bool {
        resolve(&TRACING, "NTC_TRACE")
    }

    /// Is metrics recording on? One relaxed load on the steady state.
    #[inline]
    pub fn metrics_enabled() -> bool {
        resolve(&METRICS, "NTC_METRICS")
    }

    /// Force span tracing on/off, overriding `NTC_TRACE`.
    pub fn set_tracing(on: bool) {
        TRACING.store(if on { ON } else { OFF }, Ordering::Relaxed);
    }

    /// Force metrics recording on/off, overriding `NTC_METRICS`.
    pub fn set_metrics(on: bool) {
        METRICS.store(if on { ON } else { OFF }, Ordering::Relaxed);
    }
}

#[cfg(not(feature = "enabled"))]
mod switches {
    /// Span tracing is compiled out: constant `false`, folds away.
    #[inline(always)]
    pub fn tracing_enabled() -> bool {
        false
    }

    /// Metrics recording is compiled out: constant `false`, folds away.
    #[inline(always)]
    pub fn metrics_enabled() -> bool {
        false
    }

    /// No-op without the `enabled` feature (see [`crate::compiled`]).
    pub fn set_tracing(_on: bool) {}

    /// No-op without the `enabled` feature (see [`crate::compiled`]).
    pub fn set_metrics(_on: bool) {}
}

pub use switches::{metrics_enabled, set_metrics, set_tracing, tracing_enabled};

/// Tests that toggle the global switches serialize on this lock so they
/// don't observe each other's state (the test harness is parallel).
#[cfg(all(test, feature = "enabled"))]
pub(crate) fn test_switch_lock() -> &'static std::sync::Mutex<()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
}

#[cfg(test)]
mod tests {
    #[test]
    fn compiled_reflects_feature() {
        assert_eq!(super::compiled(), cfg!(feature = "enabled"));
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_is_constant_false() {
        super::set_tracing(true);
        super::set_metrics(true);
        assert!(!super::tracing_enabled());
        assert!(!super::metrics_enabled());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn setters_override_environment() {
        let _guard = super::test_switch_lock().lock().unwrap();
        super::set_tracing(true);
        assert!(super::tracing_enabled());
        super::set_tracing(false);
        assert!(!super::tracing_enabled());
        super::set_metrics(true);
        assert!(super::metrics_enabled());
        super::set_metrics(false);
        assert!(!super::metrics_enabled());
    }
}
