//! Cortex-A57 core power model.
//!
//! Follows the paper's Sec. II-C1 methodology: active and static energy per
//! clock cycle, transplanted from measured ARM-v8 silicon (Exynos-class
//! implementation) onto the 28 nm bulk / FD-SOI technology models, then
//! extended into the near-threshold region with the EKV-based device model.
//!
//! Dynamic power is the classic `P = C_eff · Vdd² · f · activity`; static
//! power comes from the calibrated [`ntc_tech::LeakageModel`].

use ntc_tech::{
    BodyBias, CoreModel, Joules, Kelvin, LeakageModel, MegaHertz, OperatingPoint, TechError, Volts,
    Watts,
};
use serde::{Deserialize, Serialize};

/// Effective switched capacitance of a Cortex-A57-class core (farads).
///
/// Calibrated so a 36-core chip at ≈1.9 GHz / 1.3 V dissipates on the order
/// of 100 W — the paper's chip power budget and Figure 1 power axis.
pub const A57_CEFF_FARADS: f64 = 1.3e-9;

/// Default switching-activity factor while executing server workloads.
pub const A57_DEFAULT_ACTIVITY: f64 = 0.60;

/// Core leakage as a fraction of nominal dynamic power at the calibration
/// point (1.3 V, ≈1.9 GHz). Server-class 28 nm cores with leakage-aware
/// libraries sit at a few percent.
pub const A57_LEAK_FRACTION_NOMINAL: f64 = 0.05;

/// Fraction of the core's leakage-relevant width that receives performance
/// forward body bias (selective well biasing of critical paths). Sleep
/// reverse bias is applied chip-wide and uses full exposure instead.
pub const A57_FBB_EXPOSURE: f64 = 0.30;

/// Switching-activity description of the workload running on a core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreActivity {
    /// Fraction of cycles the clock is active and pipelines toggle (0..=1).
    pub activity: f64,
    /// Fraction of wall-clock time the core is powered (vs. deep sleep).
    pub duty: f64,
}

impl CoreActivity {
    /// Fully busy core.
    pub const BUSY: CoreActivity = CoreActivity {
        activity: A57_DEFAULT_ACTIVITY,
        duty: 1.0,
    };

    /// Clock-gated idle core (leakage only).
    pub const IDLE: CoreActivity = CoreActivity {
        activity: 0.0,
        duty: 1.0,
    };

    /// Creates an activity description.
    ///
    /// # Panics
    ///
    /// Panics if either fraction is outside `[0, 1]`.
    pub fn new(activity: f64, duty: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&activity) && (0.0..=1.0).contains(&duty),
            "activity {activity} and duty {duty} must be fractions"
        );
        CoreActivity { activity, duty }
    }
}

impl Default for CoreActivity {
    fn default() -> Self {
        CoreActivity::BUSY
    }
}

/// Power model for one core: timing model + switched capacitance + leakage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorePowerModel {
    timing: CoreModel,
    ceff: f64,
    leakage: LeakageModel,
    temperature: Kelvin,
}

impl CorePowerModel {
    /// Builds the calibrated A57 power model on top of a timing model.
    ///
    /// The leakage anchor is placed at the technology's rated maximum
    /// voltage with power equal to [`A57_LEAK_FRACTION_NOMINAL`] of the
    /// dynamic power at that voltage's Fmax.
    ///
    /// # Errors
    ///
    /// Propagates technology-range errors from the calibration point.
    pub fn cortex_a57(timing: CoreModel) -> Result<Self, TechError> {
        let tech = timing.technology().clone();
        let vmax = tech.vdd_max();
        let fmax = timing.fmax(vmax, BodyBias::ZERO)?;
        let dyn_nominal = A57_CEFF_FARADS * vmax.0 * vmax.0 * fmax.as_hz() * A57_DEFAULT_ACTIVITY;
        let leakage = LeakageModel::calibrated_default(
            tech,
            vmax,
            Watts(dyn_nominal * A57_LEAK_FRACTION_NOMINAL),
        )?;
        Ok(CorePowerModel {
            temperature: timing.temperature(),
            timing,
            ceff: A57_CEFF_FARADS,
            leakage,
        })
    }

    /// Overrides the effective switched capacitance (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `ceff` is not positive and finite.
    pub fn with_ceff(mut self, ceff: f64) -> Self {
        assert!(ceff.is_finite() && ceff > 0.0, "ceff must be positive");
        self.ceff = ceff;
        self
    }

    /// Sets the die temperature used for leakage evaluation.
    pub fn with_temperature(mut self, temperature: Kelvin) -> Self {
        self.temperature = temperature;
        self
    }

    /// The underlying timing model.
    pub fn timing(&self) -> &CoreModel {
        &self.timing
    }

    /// The effective switched capacitance in farads.
    pub fn ceff(&self) -> f64 {
        self.ceff
    }

    /// Dynamic power at an operating point under the given activity.
    pub fn dynamic_power(&self, op: OperatingPoint, act: CoreActivity) -> Watts {
        Watts(self.ceff * op.vdd.0 * op.vdd.0 * op.frequency.as_hz() * act.activity * act.duty)
    }

    /// Static power at an operating point (independent of activity, but
    /// scaled by powered duty).
    ///
    /// Forward bias is assumed to reach only the critical-path wells
    /// ([`A57_FBB_EXPOSURE`] of the leakage width); reverse bias is applied
    /// chip-wide (full exposure), as in sleep states.
    pub fn static_power(&self, op: OperatingPoint, act: CoreActivity) -> Watts {
        let exposure = if op.bias.signed().0 > 0.0 {
            A57_FBB_EXPOSURE
        } else {
            1.0
        };
        self.leakage
            .power_with_exposure(op.vdd, op.bias, self.temperature, exposure)
            * act.duty
    }

    /// Total core power at an operating point.
    pub fn power(&self, op: OperatingPoint, act: CoreActivity) -> Watts {
        self.dynamic_power(op, act) + self.static_power(op, act)
    }

    /// Total power at the minimum voltage sustaining frequency `f` under
    /// bias `bias` — the common "give me power at this DVFS step" query.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreModel::vdd_min`] errors.
    pub fn power_at(
        &self,
        f: MegaHertz,
        bias: BodyBias,
        act: CoreActivity,
    ) -> Result<Watts, TechError> {
        let op = OperatingPoint::at(&self.timing, f, bias)?;
        Ok(self.power(op, act))
    }

    /// Energy per clock cycle at an operating point (dynamic + static).
    pub fn energy_per_cycle(&self, op: OperatingPoint, act: CoreActivity) -> Joules {
        let p = self.power(op, act);
        Joules(p.0 / op.frequency.as_hz())
    }

    /// Leakage power of a core parked in reverse-body-bias sleep at the
    /// SRAM retention voltage (state retained, not executing).
    pub fn sleep_power(&self, retention_vdd: Volts, sleep_bias: BodyBias) -> Watts {
        self.leakage
            .power(retention_vdd, sleep_bias, self.temperature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_tech::{Technology, TechnologyKind};

    fn model(kind: TechnologyKind) -> CorePowerModel {
        CorePowerModel::cortex_a57(CoreModel::cortex_a57(Technology::preset(kind))).unwrap()
    }

    fn op(m: &CorePowerModel, f: f64) -> OperatingPoint {
        OperatingPoint::at(m.timing(), MegaHertz(f), BodyBias::ZERO).unwrap()
    }

    #[test]
    fn chip_power_at_nominal_is_on_the_100w_scale() {
        let m = model(TechnologyKind::FdSoi28);
        let p = m.power(op(&m, 2000.0), CoreActivity::BUSY);
        let chip = p * 36.0;
        assert!(
            chip.0 > 60.0 && chip.0 < 160.0,
            "36 cores at 2 GHz should be on the ~100 W scale, got {chip}"
        );
    }

    #[test]
    fn near_threshold_power_is_two_orders_lower() {
        let m = model(TechnologyKind::FdSoi28);
        let p_nt = m.power(op(&m, 100.0), CoreActivity::BUSY);
        let p_hi = m.power(op(&m, 2000.0), CoreActivity::BUSY);
        assert!(
            p_hi / p_nt > 50.0,
            "2 GHz/100 MHz power ratio should be huge: {p_hi} vs {p_nt}"
        );
    }

    #[test]
    fn fdsoi_beats_bulk_at_iso_frequency() {
        let f = model(TechnologyKind::FdSoi28);
        let b = model(TechnologyKind::Bulk28);
        for mhz in [400.0, 800.0, 1200.0, 1600.0] {
            let pf = f
                .power_at(MegaHertz(mhz), BodyBias::ZERO, CoreActivity::BUSY)
                .unwrap();
            let pb = b
                .power_at(MegaHertz(mhz), BodyBias::ZERO, CoreActivity::BUSY)
                .unwrap();
            assert!(
                pf < pb,
                "fd-soi must dissipate less than bulk at {mhz} MHz: {pf} vs {pb}"
            );
        }
    }

    #[test]
    fn power_is_monotone_in_frequency() {
        let m = model(TechnologyKind::FdSoi28);
        let mut prev = Watts::ZERO;
        for mhz in (100..=2000).step_by(100) {
            let p = m
                .power_at(MegaHertz(mhz as f64), BodyBias::ZERO, CoreActivity::BUSY)
                .unwrap();
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn idle_core_consumes_only_leakage() {
        let m = model(TechnologyKind::FdSoi28);
        let o = op(&m, 1000.0);
        let idle = m.power(o, CoreActivity::IDLE);
        assert_eq!(idle, m.static_power(o, CoreActivity::IDLE));
        assert!(idle < m.power(o, CoreActivity::BUSY) * 0.25);
    }

    #[test]
    fn energy_per_cycle_decreases_toward_threshold_then_stabilizes() {
        // Quadratic V scaling means energy/cycle falls as f (and thus V)
        // falls — the core-level efficiency argument of Fig. 3a.
        let m = model(TechnologyKind::FdSoi28);
        let e_hi = m.energy_per_cycle(op(&m, 2000.0), CoreActivity::BUSY);
        let e_mid = m.energy_per_cycle(op(&m, 1000.0), CoreActivity::BUSY);
        let e_nt = m.energy_per_cycle(op(&m, 200.0), CoreActivity::BUSY);
        assert!(e_hi > e_mid && e_mid > e_nt);
    }

    #[test]
    fn sleep_power_is_far_below_idle_leakage() {
        let m = model(TechnologyKind::FdSoi28ConventionalWell);
        let o = op(&m, 500.0);
        let awake_leak = m.static_power(o, CoreActivity::IDLE);
        let retention = m.timing().technology().sram().vmin_retain();
        let rbb = BodyBias::reverse(Volts(3.0)).unwrap();
        let sleep = m.sleep_power(retention, rbb);
        assert!(
            sleep.0 < awake_leak.0 * 0.25,
            "rbb sleep at retention voltage must slash leakage: {sleep} vs {awake_leak}"
        );
    }

    #[test]
    fn activity_validation() {
        let a = CoreActivity::new(0.5, 1.0);
        assert!((a.activity - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be fractions")]
    fn activity_rejects_out_of_range() {
        let _ = CoreActivity::new(1.5, 1.0);
    }
}
