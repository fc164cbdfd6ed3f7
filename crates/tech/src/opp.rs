//! DVFS operating points.
//!
//! An [`OperatingPoint`] fixes the triplet the rest of the study sweeps:
//! core frequency, the minimum supply voltage sustaining it, and the body
//! bias in effect.

use crate::bias::BodyBias;
use crate::fmax::CoreModel;
use crate::units::{MegaHertz, Volts};
use crate::TechError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One DVFS operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Core clock frequency.
    pub frequency: MegaHertz,
    /// Supply voltage sustaining that frequency.
    pub vdd: Volts,
    /// Body bias in effect.
    pub bias: BodyBias,
}

impl OperatingPoint {
    /// Builds the minimum-voltage operating point for a frequency.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreModel::vdd_min`] errors (unreachable / too-low
    /// frequency, illegal bias).
    pub fn at(core: &CoreModel, frequency: MegaHertz, bias: BodyBias) -> Result<Self, TechError> {
        let vdd = core.vdd_min(frequency, bias)?;
        Ok(OperatingPoint {
            frequency,
            vdd,
            bias,
        })
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} @ {:.3} ({})", self.frequency, self.vdd, self.bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::{Technology, TechnologyKind};

    #[test]
    fn display() {
        let core = CoreModel::cortex_a57(Technology::preset(TechnologyKind::FdSoi28));
        let p = OperatingPoint::at(&core, MegaHertz(1000.0), BodyBias::ZERO).unwrap();
        let s = p.to_string();
        assert!(s.contains("1000 MHz"), "{s}");
    }
}
