//! Newtype units for the quantities that flow through the analyzer.
//!
//! The paper mixes four clock domains (`f_eva`, `f_gen = f_eva/6`,
//! `f_wave = f_eva/96`, and the square-wave modulation at `k·f_wave`);
//! tagging frequencies, times and voltages with newtypes keeps those domains
//! from being crossed accidentally ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

macro_rules! unit_newtype {
    ($(#[$doc:meta])* $name:ident, $suffix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Raw numeric value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $suffix)
            }
        }

        impl From<f64> for $name {
            fn from(v: f64) -> Self {
                Self(v)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
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

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }
    };
}

unit_newtype!(
    /// A frequency in hertz.
    Hertz,
    "Hz"
);
unit_newtype!(
    /// A time in seconds.
    Seconds,
    "s"
);
unit_newtype!(
    /// A voltage in volts.
    Volts,
    "V"
);

impl Hertz {
    /// Frequency from a megahertz value.
    pub const fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1.0e6)
    }
}

impl Volts {
    /// Voltage from a millivolt value.
    pub const fn from_mv(mv: f64) -> Self {
        Self(mv * 1.0e-3)
    }

    /// Clamps into `[-limit, limit]` — the op-amp swing model.
    #[inline]
    pub(crate) fn clamped(self, limit: Volts) -> Volts {
        Volts(self.0.clamp(-limit.0.abs(), limit.0.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Volts(1.0) + Volts(0.5) - Volts(0.25);
        assert_eq!(a, Volts(1.25));
        assert_eq!(-a, Volts(-1.25));
        assert_eq!(a * 2.0, Volts(2.5));
        assert_eq!(Hertz(96.0) / Hertz(6.0), 16.0);
    }

    #[test]
    fn paper_clock_chain() {
        // f_eva = 6 MHz → f_gen = 1 MHz → f_wave = 62.5 kHz (paper Fig. 8).
        let feva = Hertz::from_mhz(6.0);
        let fgen = feva / 6.0;
        let fwave = fgen / 16.0;
        assert_eq!(fgen, Hertz::from_mhz(1.0));
        assert_eq!(fwave, Hertz(62_500.0));
    }

    #[test]
    fn clamping_models_swing() {
        assert_eq!(Volts(3.0).clamped(Volts(1.2)), Volts(1.2));
        assert_eq!(Volts(-3.0).clamped(Volts(1.2)), Volts(-1.2));
        assert_eq!(Volts(0.5).clamped(Volts(1.2)), Volts(0.5));
    }

    #[test]
    fn display_includes_units() {
        assert_eq!(Hertz(50.0).to_string(), "50 Hz");
        assert_eq!(Seconds(0.25).to_string(), "0.25 s");
        assert_eq!(Volts(-1.0).to_string(), "-1 V");
    }

    #[test]
    fn millivolt_constructor() {
        assert_eq!(Volts::from_mv(75.0), Volts(0.075));
    }
}
