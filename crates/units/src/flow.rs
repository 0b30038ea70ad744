//! Mass and volumetric flow rates.

use crate::heat::{SpecificHeat, WattsPerKelvin};
use crate::matter::Density;

quantity! {
    /// A mass flow rate in kg/s.
    ///
    /// ```
    /// use tps_units::{KgPerHour, KgPerSecond};
    /// let paper_flow = KgPerHour::new(7.0); // the paper's design point
    /// let si: KgPerSecond = paper_flow.into();
    /// assert!((si.value() - 7.0 / 3600.0).abs() < 1e-12);
    /// ```
    KgPerSecond, "kg/s"
}

quantity! {
    /// A mass flow rate in kg/h — the unit the paper quotes (7 kg/h of water).
    KgPerHour, "kg/h"
}

quantity! {
    /// A volumetric flow rate in m³/s (the V̇ of the paper's Eq. 1).
    VolumetricFlow, "m³/s"
}

impl From<KgPerHour> for KgPerSecond {
    #[inline]
    fn from(f: KgPerHour) -> Self {
        KgPerSecond::new(f.value() / 3600.0)
    }
}

impl From<KgPerSecond> for KgPerHour {
    #[inline]
    fn from(f: KgPerSecond) -> Self {
        KgPerHour::new(f.value() * 3600.0)
    }
}

impl KgPerSecond {
    /// Capacity rate `ṁ·c_p` of this stream.
    #[inline]
    pub fn capacity_rate(self, cp: SpecificHeat) -> WattsPerKelvin {
        WattsPerKelvin::new(self.value() * cp.value())
    }

    /// Volumetric flow of this mass flow at the given density.
    #[inline]
    pub fn to_volumetric(self, density: Density) -> VolumetricFlow {
        VolumetricFlow::new(self.value() / density.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kg_per_hour_round_trip() {
        let f = KgPerHour::new(7.0);
        let si = KgPerSecond::from(f);
        assert!((KgPerHour::from(si).value() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_rate_of_paper_design_point() {
        // 7 kg/h of water (c_p = 4181 J/kgK) ⇒ ≈ 8.13 W/K.
        let c = KgPerSecond::from(KgPerHour::new(7.0)).capacity_rate(SpecificHeat::new(4181.0));
        assert!((c.value() - 8.13).abs() < 0.01);
    }

    #[test]
    fn mass_volumetric_round_trip() {
        let rho = Density::new(997.0);
        let m = KgPerSecond::new(0.002);
        let v = m.to_volumetric(rho);
        assert!((v.value() * rho.value() - 0.002).abs() < 1e-15);
    }
}
