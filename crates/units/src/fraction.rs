//! Validated fractions in `[0, 1]`.

use core::fmt;

/// A dimensionless fraction guaranteed to lie in `[0, 1]`.
///
/// Used for filling ratios, vapour qualities, utilisations and parallel
/// fractions, where values outside the unit interval are physically
/// meaningless and would silently corrupt downstream correlations.
///
/// ```
/// use tps_units::Fraction;
/// # fn main() -> Result<(), tps_units::FractionError> {
/// let filling_ratio = Fraction::new(0.55)?; // the paper's design point
/// assert_eq!(filling_ratio.value(), 0.55);
/// assert!(Fraction::new(1.2).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Fraction(f64);

/// Error returned when constructing a [`Fraction`] outside `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionError {
    value: f64,
}

impl Fraction {
    /// The fraction 0.
    pub const ZERO: Self = Self(0.0);
    /// The fraction 1.
    pub const ONE: Self = Self(1.0);

    /// Creates a fraction, validating the range.
    ///
    /// # Errors
    ///
    /// Returns [`FractionError`] if `value` is NaN or outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Self, FractionError> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(Self(value))
        } else {
            Err(FractionError { value })
        }
    }

    /// Creates a fraction by clamping `value` into `[0, 1]` (NaN becomes 0).
    pub fn saturating(value: f64) -> Self {
        if value.is_nan() {
            Self(0.0)
        } else {
            Self(value.clamp(0.0, 1.0))
        }
    }

    /// Returns the raw value in `[0, 1]`.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match f.precision() {
            Some(p) => write!(f, "{:.*}%", p, self.0 * 100.0),
            None => write!(f, "{}%", self.0 * 100.0),
        }
    }
}

impl fmt::Display for FractionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fraction {} is outside the unit interval [0, 1]",
            self.value
        )
    }
}

impl std::error::Error for FractionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accepts_unit_interval() {
        assert!(Fraction::new(0.0).is_ok());
        assert!(Fraction::new(0.55).is_ok());
        assert!(Fraction::new(1.0).is_ok());
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Fraction::new(-0.01).is_err());
        assert!(Fraction::new(1.01).is_err());
        assert!(Fraction::new(f64::NAN).is_err());
        assert!(Fraction::new(f64::INFINITY).is_err());
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Fraction::saturating(1.7), Fraction::ONE);
        assert_eq!(Fraction::saturating(-0.3), Fraction::ZERO);
        assert_eq!(Fraction::saturating(f64::NAN), Fraction::ZERO);
    }

    #[test]
    fn complement_and_percent() {
        let f = Fraction::new(0.25).unwrap();
        assert_eq!(format!("{:.0}", f), "25%");
    }

    #[test]
    fn error_displays_value() {
        let err = Fraction::new(2.0).unwrap_err();
        assert!(err.to_string().contains("2"));
    }

    proptest! {
        #[test]
        fn valid_fractions_round_trip(v in 0.0f64..=1.0) {
            let f = Fraction::new(v).unwrap();
            prop_assert_eq!(f.value(), v);
        }

        #[test]
        fn saturating_always_valid(v in proptest::num::f64::ANY) {
            let f = Fraction::saturating(v);
            prop_assert!((0.0..=1.0).contains(&f.value()));
        }
    }
}
