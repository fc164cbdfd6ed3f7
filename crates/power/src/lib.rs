//! Power models for the near-threshold server study (paper Sec. II-C).
//!
//! The server's power splits into components living on **different voltage
//! and clock domains** — the central mechanism of the paper's results:
//!
//! * **Cores** ([`core`]): dynamic `C·V²·f` plus leakage, on the swept
//!   core domain. Scaling the core frequency scales this component
//!   super-linearly (V drops with f).
//! * **Uncore** ([`llc`], [`xbar`], [`io`]): LLC slices (≈500 mW/MB, mostly
//!   leakage), cluster crossbars (≈25 mW) and the chip's I/O peripherals
//!   (≈5 W, McPAT/UltraSPARC-T2 config) — on a *fixed* domain, unaffected
//!   by core DVFS.
//! * **DRAM** ([`dram`]): background power that never goes away plus
//!   bandwidth-proportional read/write energy (Micron DDR4 model,
//!   reproducing the paper's Table I).
//!
//! [`breakdown::PowerBreakdown`] aggregates the components and exposes the
//! paper's three accounting scopes (cores / SoC / server);
//! [`bias_opt`] finds the power-optimal forward body bias per frequency —
//! the "FD-SOI+FBB" curve of Figure 1.

pub mod bias_opt;
pub mod breakdown;
pub mod core;
pub mod dram;
pub mod energy;
pub mod io;
pub mod llc;
pub mod xbar;

pub use crate::core::{CoreActivity, CorePowerModel};
pub use bias_opt::{BiasOptimizer, OptimalPoint};
pub use breakdown::{PowerBreakdown, Scope};
pub use dram::{DramConfig, DramPowerModel, DramTechnology, DramTraffic};
pub use energy::{EnergyAccount, PowerWindow};
pub use io::{IoPeripheral, IoPowerModel};
pub use llc::{LlcLeakageMode, LlcPowerModel};
pub use xbar::XbarPowerModel;
