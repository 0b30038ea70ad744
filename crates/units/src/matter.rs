//! Mass, density, pressure and viscosity.

use crate::geometry::CubicMeters;

quantity! {
    /// A mass in kilograms (refrigerant charge, coolant inventory).
    Kilograms, "kg"
}

quantity! {
    /// A mass density ρ in kg/m³.
    Density, "kg/m³"
}

quantity! {
    /// An absolute pressure in pascals.
    ///
    /// Saturation pressures of the refrigerants are a few hundred kPa;
    /// use [`Pascals::from_kpa`] at the boundary.
    Pascals, "Pa"
}

quantity! {
    /// A dynamic viscosity μ in Pa·s.
    DynamicViscosity, "Pa·s"
}

impl Pascals {
    /// Creates a pressure from kilopascals.
    #[inline]
    pub const fn from_kpa(kpa: f64) -> Self {
        Self::new(kpa * 1e3)
    }

    /// Returns the pressure in kilopascals.
    #[inline]
    pub fn to_kpa(self) -> f64 {
        self.value() * 1e-3
    }
}

impl core::ops::Mul<CubicMeters> for Density {
    type Output = Kilograms;
    #[inline]
    fn mul(self, rhs: CubicMeters) -> Kilograms {
        Kilograms::new(self.value() * rhs.value())
    }
}

impl core::ops::Div<Density> for Kilograms {
    type Output = CubicMeters;
    #[inline]
    fn div(self, rhs: Density) -> CubicMeters {
        CubicMeters::new(self.value() / rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CubicMeters;

    #[test]
    fn density_volume_mass() {
        // 20 ml of R236fa liquid at ~1350 kg/m³ is 27 g.
        let m = Density::new(1350.0) * CubicMeters::new(20e-6);
        assert!((m.value() - 0.027).abs() < 1e-12);
        let v = m / Density::new(1350.0);
        assert!((v.value() - 20e-6).abs() < 1e-15);
    }

    #[test]
    fn pressure_units() {
        assert_eq!(Pascals::from_kpa(272.0).value(), 272_000.0);
        assert_eq!(Pascals::new(320_000.0).to_kpa(), 320.0);
    }
}
