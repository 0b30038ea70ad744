//! Absolute temperatures and temperature differences.
//!
//! [`Celsius`] and [`Kelvin`] are *points* on a scale: adding two of them is
//! meaningless and therefore not implemented. Differences are expressed with
//! [`TempDelta`] (in kelvin, which equals degrees Celsius for deltas).

quantity! {
    /// A temperature difference in kelvin (≡ °C for differences).
    ///
    /// ```
    /// use tps_units::{Celsius, TempDelta};
    /// let superheat = Celsius::new(46.0) - Celsius::new(36.0);
    /// assert_eq!(superheat, TempDelta::new(10.0));
    /// ```
    TempDelta, "K"
}

/// An absolute temperature on the Celsius scale.
///
/// The dominant temperature unit of the paper (die/package hot spots,
/// `T_CASE`, water temperatures). Supports offsetting by [`TempDelta`] and
/// differencing into [`TempDelta`], but deliberately not `Celsius + Celsius`.
///
/// ```
/// use tps_units::{Celsius, TempDelta};
/// let t = Celsius::new(30.0) + TempDelta::new(6.0);
/// assert_eq!(t, Celsius::new(36.0));
/// assert_eq!(t.to_kelvin().value(), 36.0 + 273.15);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Celsius(f64);

/// An absolute thermodynamic temperature in kelvin.
///
/// Used by fluid-property correlations (reduced pressure, Clausius–Clapeyron).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Kelvin(f64);

impl Celsius {
    /// Creates a Celsius temperature.
    #[inline]
    pub const fn new(deg_c: f64) -> Self {
        Self(deg_c)
    }

    /// Returns the magnitude in degrees Celsius.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to the thermodynamic (kelvin) scale.
    #[inline]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin(self.0 + 273.15)
    }

    /// Returns the cooler of two temperatures (NaN-safe).
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if other.0.total_cmp(&self.0).is_lt() {
            other
        } else {
            self
        }
    }
}

impl Kelvin {
    /// Returns the magnitude in kelvin.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to the Celsius scale.
    #[inline]
    pub(crate) fn to_celsius(self) -> Celsius {
        Celsius(self.0 - 273.15)
    }
}

impl From<Celsius> for Kelvin {
    fn from(t: Celsius) -> Self {
        t.to_kelvin()
    }
}

impl From<Kelvin> for Celsius {
    fn from(t: Kelvin) -> Self {
        t.to_celsius()
    }
}

impl core::fmt::Display for Celsius {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match f.precision() {
            Some(p) => write!(f, "{:.*} °C", p, self.0),
            None => write!(f, "{} °C", self.0),
        }
    }
}

impl core::fmt::Display for Kelvin {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match f.precision() {
            Some(p) => write!(f, "{:.*} K", p, self.0),
            None => write!(f, "{} K", self.0),
        }
    }
}

impl core::ops::Add<TempDelta> for Celsius {
    type Output = Celsius;
    #[inline]
    fn add(self, rhs: TempDelta) -> Celsius {
        Celsius(self.0 + rhs.value())
    }
}

impl core::ops::AddAssign<TempDelta> for Celsius {
    #[inline]
    fn add_assign(&mut self, rhs: TempDelta) {
        self.0 += rhs.value();
    }
}

impl core::ops::Sub<TempDelta> for Celsius {
    type Output = Celsius;
    #[inline]
    fn sub(self, rhs: TempDelta) -> Celsius {
        Celsius(self.0 - rhs.value())
    }
}

impl core::ops::Sub for Celsius {
    type Output = TempDelta;
    #[inline]
    fn sub(self, rhs: Celsius) -> TempDelta {
        TempDelta::new(self.0 - rhs.0)
    }
}

impl core::ops::Add<TempDelta> for Kelvin {
    type Output = Kelvin;
    #[inline]
    fn add(self, rhs: TempDelta) -> Kelvin {
        Kelvin(self.0 + rhs.value())
    }
}

impl core::ops::Sub for Kelvin {
    type Output = TempDelta;
    #[inline]
    fn sub(self, rhs: Kelvin) -> TempDelta {
        TempDelta::new(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_kelvin_round_trip() {
        let t = Celsius::new(25.0);
        assert!((t.to_kelvin().value() - 298.15).abs() < 1e-12);
        assert_eq!(Kelvin::from(t).to_celsius(), t);
    }

    #[test]
    fn delta_arithmetic() {
        let a = Celsius::new(46.4);
        let b = Celsius::new(42.9);
        let d = a - b;
        assert!((d.value() - 3.5).abs() < 1e-12);
        assert_eq!(b + d, a);
        assert_eq!(a - d, b);
    }

    #[test]
    fn kelvin_delta() {
        let d = Kelvin(310.0) - Kelvin(300.0);
        assert_eq!(d, TempDelta::new(10.0));
        assert_eq!(Kelvin(300.0) + d, Kelvin(310.0));
    }

    #[test]
    fn ordering_matches_physical_intuition() {
        assert!(Celsius::new(85.0) > Celsius::new(30.0));
        assert_eq!(
            Celsius::new(85.0).min(Celsius::new(30.0)),
            Celsius::new(30.0)
        );
    }

    #[test]
    fn display() {
        assert_eq!(format!("{:.1}", Celsius::new(66.12)), "66.1 °C");
        assert_eq!(format!("{:.0}", Kelvin(303.15)), "303 K");
    }
}
