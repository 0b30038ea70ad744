//! Electrical/thermal power and voltage.

use crate::geometry::SquareMeters;
use crate::heat::HeatFlux;
use crate::time::Seconds;

quantity! {
    /// A power in watts.
    ///
    /// Used for per-core power, package power, heat loads and cooling power.
    ///
    /// ```
    /// use tps_units::Watts;
    /// let pkg: Watts = [Watts::new(40.5), Watts::new(38.8)].into_iter().sum();
    /// assert_eq!(pkg, Watts::new(79.3));
    /// ```
    Watts, "W"
}

quantity! {
    /// An electrical potential in volts (DVFS operating points).
    Volts, "V"
}

quantity! {
    /// An energy in joules.
    ///
    /// Integrated IT and cooling energy in the fleet simulator: a constant
    /// power held over a duration.
    ///
    /// ```
    /// use tps_units::{Joules, Seconds, Watts};
    /// let e: Joules = Watts::new(500.0) * Seconds::new(7200.0);
    /// assert_eq!(e.to_kwh(), 1.0);
    /// ```
    Joules, "J"
}

impl Joules {
    /// Returns the energy in kilowatt-hours.
    #[inline]
    pub fn to_kwh(self) -> f64 {
        self.value() / 3.6e6
    }
}

impl core::ops::Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

impl core::ops::Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

impl core::ops::Div<Seconds> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.value() / rhs.value())
    }
}

impl core::ops::Div<SquareMeters> for Watts {
    type Output = HeatFlux;
    #[inline]
    fn div(self, rhs: SquareMeters) -> HeatFlux {
        HeatFlux::new(self.value() / rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::SquareMeters;

    #[test]
    fn power_over_area_is_flux() {
        // 79.3 W over the 246 mm² die ≈ 32.2 W/cm².
        let flux = Watts::new(79.3) / SquareMeters::new(246e-6);
        assert!((flux.value() * 1e-4 - 32.24).abs() < 0.01);
    }

    #[test]
    fn energy_round_trip() {
        let e = Watts::new(100.0) * Seconds::new(36.0);
        assert_eq!(e, Joules::new(3600.0));
        assert_eq!(e, Seconds::new(36.0) * Watts::new(100.0));
        assert_eq!(e.to_kwh(), 1e-3);
        assert_eq!(e / Seconds::new(36.0), Watts::new(100.0));
    }
}
