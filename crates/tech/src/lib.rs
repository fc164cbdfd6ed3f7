//! Process and device models for near-threshold server processors.
//!
//! This crate implements the technology layer of the *ntserver* study — a
//! reproduction of "Towards Near-Threshold Server Processors" (DATE 2016).
//! It models 28 nm **bulk** CMOS and 28 nm **UTBB FD-SOI** (flip-well LVT)
//! transistors across the full super-threshold → near-threshold →
//! sub-threshold operating range, including:
//!
//! * a unified EKV-style drive-current model with a smooth transition between
//!   strong inversion and sub-threshold conduction ([`ekv`]),
//! * body biasing — forward (FBB) and reverse (RBB) — with the measured
//!   85 mV/V threshold-voltage sensitivity of UTBB FD-SOI ([`bias`]),
//! * sub-threshold + gate leakage with temperature dependence ([`leakage`]),
//! * a critical-path maximum-frequency model and its inverse,
//!   `Vdd_min(f)` ([`fmax`]),
//! * SRAM functional-voltage limits that gate the core's minimum operating
//!   voltage ([`sram`]),
//! * process-variation modelling and body-bias compensation ([`variation`]),
//! * DVFS operating points ([`opp`]).
//!
//! # Quickstart
//!
//! ```
//! use ntc_tech::{CoreModel, Technology, TechnologyKind, BodyBias, Volts, MegaHertz};
//! # fn main() -> Result<(), ntc_tech::TechError> {
//! // A Cortex-A57-class core in 28nm FD-SOI.
//! let tech = Technology::preset(TechnologyKind::FdSoi28);
//! let core = CoreModel::cortex_a57(tech);
//!
//! // Maximum frequency at 0.5 V without body bias: ~100 MHz ...
//! let f_nt = core.fmax(Volts(0.5), BodyBias::ZERO)?;
//! assert!(f_nt.as_mhz() > 50.0 && f_nt.as_mhz() < 200.0);
//!
//! // ... and with +2 V forward body bias: > 500 MHz.
//! let f_fbb = core.fmax(Volts(0.5), BodyBias::forward(Volts(2.0))?)?;
//! assert!(f_fbb.as_mhz() > 500.0);
//!
//! // The voltage needed to sustain 1 GHz:
//! let vdd = core.vdd_min(MegaHertz(1000.0), BodyBias::ZERO)?;
//! assert!(vdd.0 > 0.5 && vdd.0 < 1.0);
//! # Ok(())
//! # }
//! ```

pub mod bias;
pub mod dvfs;
pub mod ekv;
pub mod error;
pub mod fmax;
pub mod leakage;
pub mod opp;
pub mod sram;
pub mod technology;
pub mod units;
pub mod variation;

pub use bias::{BiasDirection, BodyBias, SleepMode, SleepTransition};
pub use dvfs::{DvfsTransition, DvfsTransitionModel};
pub use ekv::EkvModel;
pub use error::TechError;
pub use fmax::{CoreClass, CoreModel};
pub use leakage::LeakageModel;
pub use opp::OperatingPoint;
pub use sram::SramLimits;
pub use technology::{Technology, TechnologyKind};
pub use units::{Joules, Kelvin, MegaHertz, NanoJoules, Picoseconds, Seconds, Volts, Watts};
pub use variation::{VariationModel, VthSample};

/// Boltzmann constant over elementary charge, in volts per kelvin.
///
/// `kT/q` at temperature `T` is `K_B_OVER_Q * T`; at 300 K it is the familiar
/// 25.85 mV thermal voltage.
pub const K_B_OVER_Q: f64 = 8.617_333_262e-5;

/// Thermal voltage `kT/q` at an absolute temperature.
///
/// ```
/// let vt = ntc_tech::thermal_voltage(ntc_tech::Kelvin(300.0));
/// assert!((vt.0 - 0.02585).abs() < 1e-4);
/// ```
pub fn thermal_voltage(temp: Kelvin) -> Volts {
    Volts(K_B_OVER_Q * temp.0)
}
