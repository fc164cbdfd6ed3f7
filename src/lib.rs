//! **ntserver** — a reproduction of *"Towards Near-Threshold Server
//! Processors"* (Pahlevan et al., DATE 2016) as a Rust workspace.
//!
//! This facade crate re-exports every subsystem under one roof and hosts
//! the runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`). The subsystems:
//!
//! * [`tech`] — 28 nm bulk / UTBB FD-SOI device models: EKV drive current,
//!   body biasing (85 mV/V), leakage, `Fmax`/`Vdd_min`, SRAM limits,
//!   process variation.
//! * [`power`] — Cortex-A57 core power, per-MB LLC slice power, crossbar,
//!   McPAT-lite I/O, Micron DDR4/LPDDR4 memory power (paper Table I), and
//!   the power-optimal forward-body-bias search.
//! * [`sim`] — the cycle-level 4-core cluster simulator: 3-way OoO cores,
//!   L1/LLC hierarchy with coherence, crossbar, DDR4 timing with FR-FCFS.
//! * [`workloads`] — CloudSuite-calibrated scale-out profiles, banking
//!   VMs, Bitbrains population synthesis.
//! * [`sampling`] — SMARTS sampling, confidence intervals, matched pairs.
//! * [`qos`] — UIPS-ratio scaling of each profile's calibrated 2 GHz
//!   tail latency, batch degradation bounds.
//! * [`core`] — the study itself: server configuration, frequency sweeps,
//!   three-scope efficiency, QoS-constrained optima, and the body-bias /
//!   consolidation / heterogeneous-chip extensions.
//! * [`telemetry`] — zero-cost observability: metrics registry, span
//!   tracing with Chrome-trace export, sim probes (compile in with the
//!   `telemetry` feature, switch on with `NTC_TRACE`/`NTC_METRICS`).
//! * [`diffcheck`] — the differential fuzz harness: random valid configs
//!   checked through its four fast/reference oracle pairs (telemetry,
//!   parallel sweep, histogram percentiles, energy probe), with automatic
//!   shrinking and one-line repro commands.
//!
//! # Quickstart
//!
//! ```
//! use ntserver::tech::{BodyBias, CoreModel, Technology, TechnologyKind, Volts};
//!
//! let core = CoreModel::cortex_a57(Technology::preset(TechnologyKind::FdSoi28));
//! let f = core.fmax(Volts(0.5), BodyBias::ZERO).expect("functional at 0.5 V");
//! assert!(f.as_mhz() > 50.0, "near-threshold operation is on the table");
//! ```
//!
//! See `examples/quickstart.rs` for the end-to-end study in ~50 lines.

pub use ntc_core as core;
pub use ntc_diffcheck as diffcheck;
pub use ntc_power as power;
pub use ntc_qos as qos;
pub use ntc_sampling as sampling;
pub use ntc_sim as sim;
pub use ntc_tech as tech;
pub use ntc_telemetry as telemetry;
pub use ntc_workloads as workloads;
