//! Three-scope energy-efficiency analysis (Figures 3 and 4).
//!
//! Efficiency is the paper's `UIPS / Watt`, evaluated against three power
//! denominators: cores only, the SoC, and the whole server. The same
//! throughput numerator shifts its optimum rightward as ever more
//! frequency-invariant power is included — the paper's central result.

use crate::sweep::SweepPoint;
use ntc_power::Scope;
use serde::{Deserialize, Serialize};

/// Efficiency of one frequency point at every scope.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyPoint {
    /// Core frequency in MHz.
    pub mhz: f64,
    /// Chip UIPS.
    pub uips: f64,
    /// UIPS per watt of core power.
    pub cores: f64,
    /// UIPS per watt of SoC power.
    pub soc: f64,
    /// UIPS per watt of server power.
    pub server: f64,
}

impl EfficiencyPoint {
    /// Efficiency at a scope.
    pub fn at_scope(&self, scope: Scope) -> f64 {
        match scope {
            Scope::Cores => self.cores,
            Scope::Soc => self.soc,
            Scope::Server => self.server,
        }
    }
}

/// The outcome of a frequency sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Wraps sweep points (sorted by frequency).
    ///
    /// # Panics
    ///
    /// Panics on an empty point set.
    pub fn new(mut points: Vec<SweepPoint>) -> Self {
        assert!(!points.is_empty(), "a sweep needs at least one point");
        points.sort_by(|a, b| a.mhz.partial_cmp(&b.mhz).expect("finite frequencies"));
        SweepResult { points }
    }

    /// The evaluated points, ascending in frequency.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The efficiency series (one row per frequency).
    pub fn efficiency(&self) -> Vec<EfficiencyPoint> {
        self.points
            .iter()
            .map(|p| EfficiencyPoint {
                mhz: p.mhz,
                uips: p.uips,
                cores: p.uips / p.power.cores().0,
                soc: p.uips / p.power.soc().0,
                server: p.uips / p.power.server().0,
            })
            .collect()
    }

    /// The most efficient point at a scope: `(efficiency_point, sweep_point)`.
    pub fn optimum(&self, scope: Scope) -> Option<(EfficiencyPoint, &SweepPoint)> {
        self.efficiency()
            .into_iter()
            .zip(self.points.iter())
            .max_by(|(a, _), (b, _)| {
                a.at_scope(scope)
                    .partial_cmp(&b.at_scope(scope))
                    .expect("finite efficiencies")
            })
    }

    /// The `(mhz, uips)` samples, as consumed by the QoS models.
    pub fn uips_samples(&self) -> Vec<(f64, f64)> {
        self.points.iter().map(|p| (p.mhz, p.uips)).collect()
    }

    /// The point at a frequency, if evaluated.
    pub fn at(&self, mhz: f64) -> Option<&SweepPoint> {
        self.points.iter().find(|p| (p.mhz - mhz).abs() < 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::measure::TableMeasurer;
    use crate::sweep::FrequencySweep;

    fn result() -> SweepResult {
        let server = ServerConfig::paper().build().unwrap();
        let m = TableMeasurer::synthetic(3.2, 1.6);
        FrequencySweep::paper_ladder().run(&server, &m).unwrap()
    }

    #[test]
    fn efficiency_points_are_consistent() {
        let r = result();
        for (e, p) in r.efficiency().iter().zip(r.points()) {
            assert!(e.cores >= e.soc && e.soc >= e.server);
            assert!((e.cores - p.uips / p.power.cores().0).abs() < 1e-9);
        }
    }

    #[test]
    fn cores_efficiency_is_monotone_decreasing_with_frequency() {
        // Paper Fig. 3a: within the functional range, the lower the
        // frequency, the higher the cores-only efficiency.
        let r = result();
        let eff = r.efficiency();
        for w in eff.windows(2) {
            assert!(
                w[0].cores > w[1].cores,
                "cores efficiency must fall with frequency: {} vs {} at {} MHz",
                w[0].cores,
                w[1].cores,
                w[1].mhz
            );
        }
    }

    #[test]
    fn soc_efficiency_has_an_interior_peak() {
        let r = result();
        let eff = r.efficiency();
        let peak = r.optimum(ntc_power::Scope::Soc).unwrap().0;
        assert!(peak.mhz > eff.first().unwrap().mhz);
        assert!(peak.mhz < eff.last().unwrap().mhz);
    }

    #[test]
    fn uips_samples_and_lookup() {
        let r = result();
        let samples = r.uips_samples();
        assert_eq!(samples.len(), r.points().len());
        assert!(r.at(1000.0).is_some());
        assert!(r.at(1234.0).is_none());
    }
}
