//! Critical-path maximum-frequency model and its inverse `Vdd_min(f)`.
//!
//! The maximum clock of a pipeline is set by its critical path:
//!
//! ```text
//! Fmax(Vdd, Vbb, T) = K · drive_scale · I_norm(Vdd, Vth_eff, T) / Vdd
//! ```
//!
//! where `I_norm` is the EKV drive factor of [`crate::EkvModel`], and `K`
//! folds logic depth, path capacitance and the absolute device current. `K`
//! is calibrated per (core, technology) pair against the paper's Figure 1
//! anchors; the Cortex-A57 : Cortex-A9 frequency ratio of **1.17×** (and
//! A53 : A9 of 1.08×) extracted from the Samsung Exynos family scales `K`
//! between core types (paper Sec. II-C1).
//!
//! The *functional* frequency additionally requires the SRAM arrays to
//! operate: below [`crate::SramLimits::vmin_operate`] the core is dead no
//! matter what the logic could do — the paper's 0.5 V FD-SOI limit.

use crate::bias::BodyBias;
use crate::technology::{Technology, TechnologyKind};
use crate::units::{Kelvin, MegaHertz, Volts};
use crate::TechError;
use serde::{Deserialize, Serialize};

/// Frequency ratio of Cortex-A57 over Cortex-A9 at equal voltage
/// (pipeline-length / critical-path ratio, Exynos-derived).
pub const A57_OVER_A9: f64 = 1.17;

/// Frequency ratio of Cortex-A53 over Cortex-A9 at equal voltage.
pub const A53_OVER_A9: f64 = 1.08;

/// Calibrated frequency constant (MHz per drive unit) for a Cortex-A57 in
/// 28 nm bulk: hits ≈1.9 GHz at 1.3 V (Exynos-class implementation).
const K_A57_BULK: f64 = 16.2;

/// Calibrated frequency constant for a Cortex-A57 in 28 nm FD-SOI: hits the
/// Figure 1 anchors — ≈100 MHz at 0.5 V unbiased, >500 MHz at 0.5 V with
/// ≥2 V FBB, ≈3.5 GHz at 1.3 V with 3 V FBB.
const K_A57_FDSOI: f64 = 12.39;

/// Minimum useful clock: below this the chip is for practical purposes off.
pub const MIN_USEFUL_CLOCK: MegaHertz = MegaHertz(1.0);

/// The core classes a heterogeneous chip mixes: each cluster picks one,
/// and with it a timing model, so per-cluster operating points (V/f and
/// body bias) resolve against the right critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CoreClass {
    /// Out-of-order server core (Cortex-A57 class).
    Big,
    /// In-order efficiency core (Cortex-A53 class).
    Little,
}

impl CoreClass {
    /// The timing model for this class in `tech`.
    pub fn timing(self, tech: Technology) -> CoreModel {
        match self {
            CoreClass::Big => CoreModel::cortex_a57(tech),
            CoreClass::Little => CoreModel::cortex_a53(tech),
        }
    }

    /// Resolves this class's operating point at `frequency` under `bias`
    /// — the per-cluster V/f selection of a heterogeneous sweep.
    ///
    /// # Errors
    ///
    /// As for [`crate::OperatingPoint::at`]: unreachable or sub-useful
    /// frequencies, or an illegal bias for the technology.
    pub fn operating_point(
        self,
        tech: Technology,
        frequency: MegaHertz,
        bias: BodyBias,
    ) -> Result<crate::OperatingPoint, TechError> {
        crate::OperatingPoint::at(&self.timing(tech), frequency, bias)
    }

    /// Short human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            CoreClass::Big => "big",
            CoreClass::Little => "little",
        }
    }
}

/// A core's timing model in a given technology.
///
/// Combines a [`Technology`] preset with the core-specific calibration
/// constant and an operating temperature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreModel {
    tech: Technology,
    /// Calibrated MHz-per-drive-unit constant for this core/tech pair.
    k_mhz: f64,
    /// Human-readable core name.
    name: String,
    /// Die temperature assumed for timing and leakage.
    temperature: Kelvin,
}

impl CoreModel {
    /// A Cortex-A57-class 3-way out-of-order core — the paper's server core.
    pub fn cortex_a57(tech: Technology) -> Self {
        let k = Self::k_for(&tech);
        CoreModel {
            tech,
            k_mhz: k,
            name: "Cortex-A57".to_owned(),
            temperature: Kelvin(300.0),
        }
    }

    /// A Cortex-A9-class core (the STM 28 nm test-chip device the paper's
    /// power model is transplanted from).
    pub fn cortex_a9(tech: Technology) -> Self {
        let k = Self::k_for(&tech) / A57_OVER_A9;
        CoreModel {
            tech,
            k_mhz: k,
            name: "Cortex-A9".to_owned(),
            temperature: Kelvin(300.0),
        }
    }

    /// A Cortex-A53-class in-order core.
    pub fn cortex_a53(tech: Technology) -> Self {
        let k = Self::k_for(&tech) * A53_OVER_A9 / A57_OVER_A9;
        CoreModel {
            tech,
            k_mhz: k,
            name: "Cortex-A53".to_owned(),
            temperature: Kelvin(300.0),
        }
    }

    fn k_for(tech: &Technology) -> f64 {
        match tech.kind() {
            TechnologyKind::Bulk28 => K_A57_BULK,
            TechnologyKind::FdSoi28 | TechnologyKind::FdSoi28ConventionalWell => K_A57_FDSOI,
        }
    }

    /// Sets the die temperature used for timing (builder style).
    pub fn with_temperature(mut self, temperature: Kelvin) -> Self {
        self.temperature = temperature;
        self
    }

    /// The underlying technology.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The core's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The assumed die temperature.
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }

    /// Logic-timing maximum frequency, ignoring SRAM functionality.
    ///
    /// # Errors
    ///
    /// Returns an error if the bias is illegal for the technology or the
    /// voltage is outside the rated range.
    pub fn fmax_logic(&self, vdd: Volts, bias: BodyBias) -> Result<MegaHertz, TechError> {
        self.tech.check_bias(bias)?;
        self.tech.check_vdd(vdd)?;
        let vth = self.tech.vth_eff(vdd, bias, self.temperature);
        let drive = self.tech.device().drive_factor(vdd, vth, self.temperature);
        Ok(MegaHertz(
            self.k_mhz * self.tech.drive_scale() * drive / vdd.0,
        ))
    }

    /// Functional maximum frequency: logic timing *and* SRAM operation.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::VddOutOfRange`] (with the SRAM Vmin as the lower
    /// bound) when the L1 arrays are non-functional at `vdd` — the paper's
    /// bulk-at-0.5 V failure — and propagates [`Self::fmax_logic`] errors.
    pub fn fmax(&self, vdd: Volts, bias: BodyBias) -> Result<MegaHertz, TechError> {
        let sram_vmin = self.tech.sram().vmin_operate();
        if vdd < sram_vmin {
            return Err(TechError::VddOutOfRange {
                requested: vdd,
                min: sram_vmin,
                max: self.tech.vdd_max(),
            });
        }
        self.fmax_logic(vdd, bias)
    }

    /// Whether the core is functional (logic + SRAM) at a supply voltage.
    pub fn functional_at(&self, vdd: Volts) -> bool {
        vdd >= self.tech.sram().vmin_operate()
            && vdd >= self.tech.vdd_min()
            && vdd <= self.tech.vdd_max()
    }

    /// The lowest functional supply voltage (SRAM-gated).
    pub fn vmin_functional(&self) -> Volts {
        self.tech.sram().vmin_operate().max(self.tech.vdd_min())
    }

    /// The highest functional frequency (at `vdd_max` with the given bias).
    ///
    /// # Errors
    ///
    /// Propagates bias-range errors.
    pub fn fmax_at_vmax(&self, bias: BodyBias) -> Result<MegaHertz, TechError> {
        self.fmax(self.tech.vdd_max(), bias)
    }

    /// The lowest functional frequency (at the SRAM-gated Vmin, no margin).
    ///
    /// # Errors
    ///
    /// Propagates bias-range errors.
    pub fn fmin_functional(&self, bias: BodyBias) -> Result<MegaHertz, TechError> {
        self.fmax(self.vmin_functional(), bias)
    }

    /// Minimum supply voltage that sustains frequency `f` under `bias` —
    /// the inverse of [`Self::fmax`], found by bisection (Fmax is strictly
    /// monotone in `Vdd`).
    ///
    /// # Errors
    ///
    /// * [`TechError::FrequencyTooLow`] if `f` is below
    ///   [`MIN_USEFUL_CLOCK`];
    /// * [`TechError::FrequencyUnreachable`] if `f` exceeds the functional
    ///   Fmax at the rated maximum voltage;
    /// * bias-range errors from the technology.
    ///
    /// The returned voltage is never below the SRAM-functional minimum even
    /// when slower-than-necessary logic timing would allow it — a core
    /// clocked at 10 MHz still needs 0.5 V to keep its L1 alive.
    pub fn vdd_min(&self, f: MegaHertz, bias: BodyBias) -> Result<Volts, TechError> {
        if f < MIN_USEFUL_CLOCK {
            return Err(TechError::FrequencyTooLow { requested: f });
        }
        let lo0 = self.vmin_functional();
        let hi0 = self.tech.vdd_max();
        let f_hi = self.fmax(hi0, bias)?;
        if f > f_hi {
            return Err(TechError::FrequencyUnreachable {
                requested: f,
                fmax_at_vmax: f_hi,
            });
        }
        let f_lo = self.fmax(lo0, bias)?;
        if f <= f_lo {
            // Even the lowest functional voltage over-delivers: SRAM Vmin
            // is the binding constraint.
            return Ok(lo0);
        }
        let (mut lo, mut hi) = (lo0.0, hi0.0);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let fm = self
                .fmax(Volts(mid), bias)
                .expect("bisection stays inside the rated range");
            if fm < f {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-7 {
                break;
            }
        }
        Ok(Volts(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::{Technology, TechnologyKind};

    fn a57(kind: TechnologyKind) -> CoreModel {
        CoreModel::cortex_a57(Technology::preset(kind))
    }

    #[test]
    fn paper_anchor_fdsoi_100mhz_at_half_volt() {
        let core = a57(TechnologyKind::FdSoi28);
        let f = core.fmax(Volts(0.5), BodyBias::ZERO).unwrap();
        assert!(
            f.0 > 70.0 && f.0 < 140.0,
            "fd-soi at 0.5V should reach almost 100 MHz, got {f}"
        );
    }

    #[test]
    fn paper_anchor_fbb_exceeds_500mhz_at_half_volt() {
        let core = a57(TechnologyKind::FdSoi28);
        let fbb = BodyBias::forward(Volts(2.0)).unwrap();
        let f = core.fmax(Volts(0.5), fbb).unwrap();
        assert!(f.0 > 500.0, "fbb at 0.5V should exceed 500 MHz, got {f}");
    }

    #[test]
    fn paper_anchor_bulk_dead_at_half_volt() {
        let core = a57(TechnologyKind::Bulk28);
        assert!(core.fmax(Volts(0.5), BodyBias::ZERO).is_err());
        assert!(!core.functional_at(Volts(0.5)));
        // ... but logic alone would still tick over slowly.
        let logic = core.fmax_logic(Volts(0.5), BodyBias::ZERO).unwrap();
        assert!(logic.0 < 150.0);
    }

    #[test]
    fn paper_anchor_fbb_reaches_three_and_a_half_ghz() {
        let core = a57(TechnologyKind::FdSoi28);
        let fbb = BodyBias::forward(Volts(3.0)).unwrap();
        let f = core.fmax(Volts(1.3), fbb).unwrap();
        assert!(
            f.as_ghz() > 3.2 && f.as_ghz() < 3.9,
            "fbb at 1.3V should reach about 3.5 GHz, got {f}"
        );
    }

    #[test]
    fn paper_anchor_bulk_reaches_1800mhz_but_not_2ghz_at_rated_voltage() {
        let core = a57(TechnologyKind::Bulk28);
        assert!(core.vdd_min(MegaHertz(1800.0), BodyBias::ZERO).is_ok());
        assert!(matches!(
            core.vdd_min(MegaHertz(2000.0), BodyBias::ZERO),
            Err(TechError::FrequencyUnreachable { .. })
        ));
    }

    #[test]
    fn fdsoi_dominates_bulk_at_every_voltage() {
        let bulk = a57(TechnologyKind::Bulk28);
        let fdsoi = a57(TechnologyKind::FdSoi28);
        for mv in (700..=1300).step_by(50) {
            let v = Volts(mv as f64 / 1000.0);
            let fb = bulk.fmax(v, BodyBias::ZERO).unwrap();
            let ff = fdsoi.fmax(v, BodyBias::ZERO).unwrap();
            assert!(ff > fb, "fd-soi must beat bulk at {v}: {ff} vs {fb}");
        }
    }

    #[test]
    fn a57_is_faster_than_a9_by_pipeline_ratio() {
        let tech = Technology::preset(TechnologyKind::FdSoi28);
        let a57 = CoreModel::cortex_a57(tech.clone());
        let a9 = CoreModel::cortex_a9(tech.clone());
        let a53 = CoreModel::cortex_a53(tech);
        let v = Volts(1.0);
        let r57 = a57.fmax(v, BodyBias::ZERO).unwrap() / a9.fmax(v, BodyBias::ZERO).unwrap();
        let r53 = a53.fmax(v, BodyBias::ZERO).unwrap() / a9.fmax(v, BodyBias::ZERO).unwrap();
        assert!((r57 - 1.17).abs() < 1e-9);
        assert!((r53 - 1.08).abs() < 1e-9);
    }

    #[test]
    fn vdd_min_inverts_fmax() {
        let core = a57(TechnologyKind::FdSoi28);
        for f in [150.0, 500.0, 1000.0, 1500.0, 2000.0] {
            let v = core.vdd_min(MegaHertz(f), BodyBias::ZERO).unwrap();
            let back = core.fmax(v, BodyBias::ZERO).unwrap();
            assert!(
                back.0 >= f * 0.999,
                "vdd_min({f} MHz) = {v} only sustains {back}"
            );
            // And a slightly lower voltage must NOT sustain it (unless we're
            // pinned at the SRAM floor).
            if v > core.vmin_functional() + Volts(1e-4) {
                let under = core.fmax(v - Volts(1e-3), BodyBias::ZERO).unwrap();
                assert!(under.0 < f * 1.01);
            }
        }
    }

    #[test]
    fn vdd_min_is_monotone_in_frequency() {
        let core = a57(TechnologyKind::FdSoi28);
        let mut prev = Volts(0.0);
        for f in (100..=2200).step_by(100) {
            let v = core.vdd_min(MegaHertz(f as f64), BodyBias::ZERO).unwrap();
            assert!(v >= prev, "vdd_min must not decrease with frequency");
            prev = v;
        }
    }

    #[test]
    fn fbb_lowers_required_voltage() {
        let core = a57(TechnologyKind::FdSoi28);
        let fbb = BodyBias::forward(Volts(1.0)).unwrap();
        for f in [300.0, 800.0, 1600.0] {
            let v0 = core.vdd_min(MegaHertz(f), BodyBias::ZERO).unwrap();
            let v1 = core.vdd_min(MegaHertz(f), fbb).unwrap();
            assert!(
                v1 <= v0,
                "fbb must not raise the required voltage at {f} MHz"
            );
        }
    }

    #[test]
    fn unreachable_and_too_low_frequencies_error() {
        let core = a57(TechnologyKind::FdSoi28);
        assert!(matches!(
            core.vdd_min(MegaHertz(9000.0), BodyBias::ZERO),
            Err(TechError::FrequencyUnreachable { .. })
        ));
        assert!(matches!(
            core.vdd_min(MegaHertz(0.1), BodyBias::ZERO),
            Err(TechError::FrequencyTooLow { .. })
        ));
    }

    #[test]
    fn sram_floor_binds_at_trivial_frequencies() {
        let core = a57(TechnologyKind::FdSoi28);
        let v = core.vdd_min(MegaHertz(2.0), BodyBias::ZERO).unwrap();
        assert_eq!(v, core.vmin_functional());
    }

    #[test]
    fn temperature_slows_the_core_down_at_high_voltage() {
        // At high voltage mobility/Vth effects make hot silicon slower in
        // this model (Vth tempco partially compensates at low voltage —
        // the well-known temperature-inversion effect).
        let tech = Technology::preset(TechnologyKind::FdSoi28);
        let cold = CoreModel::cortex_a57(tech.clone()).with_temperature(Kelvin(300.0));
        let hot = CoreModel::cortex_a57(tech).with_temperature(Kelvin(360.0));
        let f_cold = cold.fmax(Volts(0.5), BodyBias::ZERO).unwrap();
        let f_hot = hot.fmax(Volts(0.5), BodyBias::ZERO).unwrap();
        // Temperature inversion: near threshold, hot is FASTER (Vth drops).
        assert!(f_hot > f_cold, "temperature inversion near threshold");
    }

    #[test]
    fn core_classes_resolve_their_own_timing() {
        let tech = Technology::preset(TechnologyKind::FdSoi28);
        let big = CoreClass::Big.timing(tech.clone());
        let little = CoreClass::Little.timing(tech.clone());
        assert_eq!(big.name(), "Cortex-A57");
        assert_eq!(little.name(), "Cortex-A53");
        // Same voltage, shorter pipeline: the little core clocks lower.
        let fb = big.fmax(Volts(0.9), BodyBias::ZERO).unwrap();
        let fl = little.fmax(Volts(0.9), BodyBias::ZERO).unwrap();
        assert!(fl < fb, "A53 fmax must trail A57: {fl} vs {fb}");
    }

    #[test]
    fn per_class_operating_points_differ_at_equal_frequency() {
        // The same 800 MHz target costs the little core more voltage —
        // its critical path is the binding one per class.
        let tech = Technology::preset(TechnologyKind::FdSoi28);
        let f = MegaHertz(800.0);
        let big = CoreClass::Big
            .operating_point(tech.clone(), f, BodyBias::ZERO)
            .unwrap();
        let little = CoreClass::Little
            .operating_point(tech, f, BodyBias::ZERO)
            .unwrap();
        assert_eq!(big.frequency, f);
        assert!(little.vdd > big.vdd);
    }
}
