//! Typed physical quantities used throughout the workspace.
//!
//! Newtypes over `f64` keep volts, hertz, watts and joules from being mixed
//! up (C-NEWTYPE). They intentionally implement only the arithmetic that is
//! dimensionally meaningful: quantities add and subtract among themselves and
//! scale by dimensionless `f64`s; cross-unit products go through named
//! methods (e.g. [`Watts::over_time`]) so the dimensional analysis stays
//! visible at the call site.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the magnitude as a raw `f64`.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of two quantities.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the quantity to `[lo, hi]`.
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// True if the magnitude is finite (not NaN or infinite).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volts,
    "V"
);
quantity!(
    /// Frequency in megahertz.
    ///
    /// Megahertz is the working unit of the study (the paper sweeps
    /// 100 MHz – 3.5 GHz); [`MegaHertz::as_hz`] and [`MegaHertz::as_ghz`]
    /// convert when needed.
    MegaHertz,
    "MHz"
);
quantity!(
    /// Power in watts.
    Watts,
    "W"
);
quantity!(
    /// Energy in joules.
    Joules,
    "J"
);
quantity!(
    /// Energy in nanojoules — the natural scale of per-access DRAM and cache
    /// energies (cf. paper Table I).
    NanoJoules,
    "nJ"
);
quantity!(
    /// Time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Time in picoseconds — the natural scale of gate and clock periods.
    Picoseconds,
    "ps"
);
quantity!(
    /// Absolute temperature in kelvin.
    Kelvin,
    "K"
);

impl MegaHertz {
    /// Constructs a frequency from gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        MegaHertz(ghz * 1e3)
    }

    /// The frequency in hertz.
    pub fn as_hz(self) -> f64 {
        self.0 * 1e6
    }

    /// The frequency in megahertz (identity accessor, for symmetry).
    pub fn as_mhz(self) -> f64 {
        self.0
    }

    /// The frequency in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 / 1e3
    }

    /// The clock period corresponding to this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero or negative.
    pub fn period(self) -> Picoseconds {
        assert!(self.0 > 0.0, "period of non-positive frequency {self}");
        Picoseconds(1e6 / self.0)
    }
}

impl Picoseconds {
    /// Converts to seconds.
    pub fn as_seconds(self) -> Seconds {
        Seconds(self.0 * 1e-12)
    }

    /// The frequency whose period is this duration.
    ///
    /// # Panics
    ///
    /// Panics if the duration is zero or negative.
    pub fn frequency(self) -> MegaHertz {
        assert!(self.0 > 0.0, "frequency of non-positive period {self}");
        MegaHertz(1e6 / self.0)
    }
}

impl Seconds {
    /// Converts to picoseconds.
    pub fn as_picos(self) -> Picoseconds {
        Picoseconds(self.0 * 1e12)
    }
}

impl Watts {
    /// Energy dissipated at this power over a duration: `E = P · t`.
    pub fn over_time(self, t: Seconds) -> Joules {
        Joules(self.0 * t.0)
    }
}

impl Joules {
    /// Converts to nanojoules.
    pub fn as_nanojoules(self) -> NanoJoules {
        NanoJoules(self.0 * 1e9)
    }

    /// Average power when this energy is spent over a duration: `P = E / t`.
    ///
    /// # Panics
    ///
    /// Panics if the duration is zero or negative.
    pub fn over_time(self, t: Seconds) -> Watts {
        assert!(t.0 > 0.0, "power over non-positive duration {t}");
        Watts(self.0 / t.0)
    }
}

impl NanoJoules {
    /// Converts to joules.
    pub fn as_joules(self) -> Joules {
        Joules(self.0 * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_ratio() {
        let a = Volts(1.0) + Volts(0.2);
        assert!((a.0 - 1.2).abs() < 1e-12);
        let r = Watts(50.0) / Watts(100.0);
        assert!((r - 0.5).abs() < 1e-12);
        assert_eq!(-Volts(0.3), Volts(-0.3));
    }

    #[test]
    fn frequency_period_roundtrip() {
        let f = MegaHertz(2000.0);
        let p = f.period();
        assert!((p.0 - 500.0).abs() < 1e-9);
        let back = p.frequency();
        assert!((back.0 - f.0).abs() < 1e-9);
        assert!((f.as_ghz() - 2.0).abs() < 1e-12);
        assert!((MegaHertz::from_ghz(1.5).0 - 1500.0).abs() < 1e-12);
    }

    #[test]
    fn energy_power_time() {
        let e = Watts(10.0).over_time(Seconds(2.0));
        assert!((e.0 - 20.0).abs() < 1e-12);
        let p = Joules(20.0).over_time(Seconds(4.0));
        assert!((p.0 - 5.0).abs() < 1e-12);
        assert!((Joules(1e-9).as_nanojoules().0 - 1.0).abs() < 1e-12);
        assert!((NanoJoules(2.0).as_joules().0 - 2e-9).abs() < 1e-21);
    }

    #[test]
    #[should_panic(expected = "period of non-positive frequency")]
    fn zero_frequency_period_panics() {
        let _ = MegaHertz::ZERO.period();
    }

    #[test]
    fn display_with_precision() {
        assert_eq!(format!("{:.2}", Volts(0.5)), "0.50 V");
        assert_eq!(format!("{}", MegaHertz(100.0)), "100 MHz");
    }

    #[test]
    fn sum_and_clamp() {
        let total: Watts = [Watts(1.0), Watts(2.5), Watts(0.5)].into_iter().sum();
        assert!((total.0 - 4.0).abs() < 1e-12);
        assert_eq!(Volts(2.0).clamp(Volts(0.0), Volts(1.3)), Volts(1.3));
        assert_eq!(Volts(-0.2).max(Volts::ZERO), Volts::ZERO);
    }
}
