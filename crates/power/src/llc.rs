//! CACTI-lite last-level-cache power model.
//!
//! The paper uses CACTI(-P) to size the per-cluster 4 MB LLC and reports the
//! bottom line this model defaults to: *"a 1 MB slice of the LLC dissipates
//! power in the order of 500 mW, mostly due to leakage"*, already assuming
//! cutting-edge leakage-reduction techniques.
//!
//! The LLC sits on its own voltage/clock domain: its power does **not**
//! scale with core frequency — the first of the two constants that drag the
//! SoC-level optimum toward 1 GHz (Fig. 3b). For the energy-proportionality
//! extension (paper Sec. V-C) the model exposes drowsy and way-gated modes.

use ntc_tech::{NanoJoules, Watts};
use serde::{Deserialize, Serialize};

/// Default total power of a 1 MB LLC slice.
pub const SLICE_POWER_PER_MB: Watts = Watts(0.5);

/// Fraction of slice power that is leakage ("mostly due to leakage").
pub const SLICE_LEAKAGE_FRACTION: f64 = 0.80;

/// Dynamic energy of one 64-byte LLC access (read or write), CACTI-class
/// number for a 4 MB 16-way bank in 28 nm.
pub const ACCESS_ENERGY: NanoJoules = NanoJoules(0.45);

/// Leakage-state of the array, for the energy-proportionality ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum LlcLeakageMode {
    /// Fully powered: nominal leakage.
    #[default]
    Nominal,
    /// Drowsy: retention voltage on idle lines; leakage scaled by the given
    /// factor (typical ≈ 0.25), wake costs one extra cycle per access.
    Drowsy {
        /// Residual leakage fraction (0..1).
        residual: f64,
    },
    /// A fraction of the ways power-gated (state flushed): leakage scales
    /// with the live fraction.
    WayGated {
        /// Fraction of ways still powered (0..1].
        live_fraction: f64,
    },
}

impl LlcLeakageMode {
    fn leakage_scale(self) -> f64 {
        match self {
            LlcLeakageMode::Nominal => 1.0,
            LlcLeakageMode::Drowsy { residual } => residual.clamp(0.0, 1.0),
            LlcLeakageMode::WayGated { live_fraction } => live_fraction.clamp(0.0, 1.0),
        }
    }
}

/// Power model of one cluster's LLC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LlcPowerModel {
    capacity_mb: f64,
    slice_power_per_mb: Watts,
    leakage_fraction: f64,
    access_energy: NanoJoules,
    mode: LlcLeakageMode,
}

impl LlcPowerModel {
    /// The paper's per-cluster LLC: 4 MB, 16-way, 4 banks.
    pub fn paper_cluster() -> Self {
        Self::new(4.0)
    }

    /// A cache of the given capacity with default CACTI-lite constants.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mb` is not positive and finite.
    pub fn new(capacity_mb: f64) -> Self {
        assert!(
            capacity_mb.is_finite() && capacity_mb > 0.0,
            "llc capacity must be positive, got {capacity_mb}"
        );
        LlcPowerModel {
            capacity_mb,
            slice_power_per_mb: SLICE_POWER_PER_MB,
            leakage_fraction: SLICE_LEAKAGE_FRACTION,
            access_energy: ACCESS_ENERGY,
            mode: LlcLeakageMode::Nominal,
        }
    }

    /// Selects a leakage-reduction mode (builder style).
    pub fn with_mode(mut self, mode: LlcLeakageMode) -> Self {
        self.mode = mode;
        self
    }

    /// The modelled capacity in megabytes.
    pub fn capacity_mb(&self) -> f64 {
        self.capacity_mb
    }

    /// The active leakage-reduction mode.
    pub fn mode(&self) -> LlcLeakageMode {
        self.mode
    }

    /// Static (leakage + clock-tree) power of the array.
    pub fn static_power(&self) -> Watts {
        let total = self.slice_power_per_mb * self.capacity_mb;
        let leak = total * self.leakage_fraction * self.mode.leakage_scale();
        let non_leak = total * (1.0 - self.leakage_fraction);
        leak + non_leak
    }

    /// Dynamic power at a given access rate (64-byte accesses per second).
    pub fn dynamic_power(&self, accesses_per_sec: f64) -> Watts {
        Watts(self.access_energy.as_joules().0 * accesses_per_sec.max(0.0))
    }

    /// Total LLC power at a given access rate.
    pub fn power(&self, accesses_per_sec: f64) -> Watts {
        self.static_power() + self.dynamic_power(accesses_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_4mb_slice_dissipates_about_2w() {
        let llc = LlcPowerModel::paper_cluster();
        let p = llc.static_power();
        assert!(
            (p.0 - 2.0).abs() < 0.2,
            "4 MB at 500 mW/MB should idle near 2 W, got {p}"
        );
    }

    #[test]
    fn leakage_dominates() {
        let llc = LlcPowerModel::paper_cluster();
        let gated = llc.with_mode(LlcLeakageMode::WayGated { live_fraction: 0.0 });
        // With all leakage removed, under half the power remains.
        assert!(gated.static_power().0 < llc.static_power().0 * 0.5);
    }

    #[test]
    fn drowsy_mode_cuts_static_power() {
        let nominal = LlcPowerModel::paper_cluster();
        let drowsy = nominal.with_mode(LlcLeakageMode::Drowsy { residual: 0.25 });
        let ratio = drowsy.static_power() / nominal.static_power();
        assert!(ratio < 0.5 && ratio > 0.2, "drowsy ratio {ratio}");
    }

    #[test]
    fn dynamic_power_scales_with_traffic() {
        let llc = LlcPowerModel::paper_cluster();
        let slow = llc.power(1.0e6);
        let fast = llc.power(1.0e9);
        assert!(fast > slow);
        // 1 GA/s * 0.45 nJ = 0.45 W of dynamic power.
        assert!((fast.0 - slow.0 - 0.4495).abs() < 0.01);
    }

    #[test]
    fn static_power_is_invariant_to_core_frequency_by_construction() {
        // The model has no frequency input at all: this is the separate
        // voltage/clock domain assumption made explicit.
        let llc = LlcPowerModel::paper_cluster();
        assert_eq!(llc.power(0.0), llc.static_power());
    }

    #[test]
    fn negative_traffic_clamps_to_zero() {
        let llc = LlcPowerModel::paper_cluster();
        assert_eq!(llc.dynamic_power(-5.0), Watts::ZERO);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = LlcPowerModel::new(0.0);
    }
}
