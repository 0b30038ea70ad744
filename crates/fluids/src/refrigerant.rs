//! Refrigerant property correlations.

use tps_units::{Celsius, Density, DynamicViscosity, JoulesPerKg, Pascals};

/// Universal gas constant, J/(mol·K).
const R_GAS: f64 = 8.314_462;

/// A candidate working fluid for the thermosyphon.
///
/// R236fa is the paper's choice; R134a (higher pressure, higher latent heat)
/// and R245fa (low pressure, high latent heat) are the alternatives the
/// design optimizer explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Refrigerant {
    /// 1,1,1,3,3,3-hexafluoropropane — the paper's working fluid.
    R236fa,
    /// 1,1,1,2-tetrafluoroethane.
    R134a,
    /// 1,1,1,3,3-pentafluoropropane.
    R245fa,
}

impl Refrigerant {
    /// All supported refrigerants.
    pub const ALL: [Refrigerant; 3] =
        [Refrigerant::R236fa, Refrigerant::R134a, Refrigerant::R245fa];

    /// Molar mass in kg/kmol (= g/mol).
    pub fn molar_mass(self) -> f64 {
        match self {
            Refrigerant::R236fa => 152.04,
            Refrigerant::R134a => 102.03,
            Refrigerant::R245fa => 134.05,
        }
    }

    /// Critical pressure.
    pub(crate) fn critical_pressure(self) -> Pascals {
        match self {
            Refrigerant::R236fa => Pascals::from_kpa(3200.0),
            Refrigerant::R134a => Pascals::from_kpa(4059.0),
            Refrigerant::R245fa => Pascals::from_kpa(3651.0),
        }
    }

    /// Critical temperature (kelvin).
    pub(crate) fn critical_temperature_k(self) -> f64 {
        match self {
            Refrigerant::R236fa => 398.07,
            Refrigerant::R134a => 374.21,
            Refrigerant::R245fa => 427.16,
        }
    }

    /// Antoine constants `(A, B, C)` for `log10(P[kPa]) = A − B/(T[°C] + C)`,
    /// fitted to tabulated saturation data at 0/25/50 °C.
    fn antoine(self) -> (f64, f64, f64) {
        match self {
            Refrigerant::R236fa => (5.962, 845.6, 214.8),
            Refrigerant::R134a => (6.345, 957.1, 246.8),
            Refrigerant::R245fa => (6.217, 1020.3, 227.3),
        }
    }

    /// Saturation pressure at `t_sat`.
    ///
    /// # Panics
    ///
    /// Panics if `t_sat` is outside the fitted −20…80 °C envelope.
    pub(crate) fn saturation_pressure(self, t_sat: Celsius) -> Pascals {
        self.assert_envelope(t_sat);
        let (a, b, c) = self.antoine();
        Pascals::from_kpa(10f64.powf(a - b / (t_sat.value() + c)))
    }

    /// Saturation temperature at pressure `p` (inverse Antoine).
    ///
    /// # Panics
    ///
    /// Panics if the result leaves the fitted −20…80 °C envelope.
    pub fn saturation_temperature(self, p: Pascals) -> Celsius {
        let (a, b, c) = self.antoine();
        let t = Celsius::new(b / (a - p.to_kpa().log10()) - c);
        self.assert_envelope(t);
        t
    }

    /// Reduced pressure `p_sat / p_crit` (drives the Cooper correlation).
    pub fn reduced_pressure(self, t_sat: Celsius) -> f64 {
        self.saturation_pressure(t_sat).value() / self.critical_pressure().value()
    }

    /// Latent heat of vaporization via the Watson relation, anchored at
    /// 25 °C (R236fa: 145.4, R134a: 177.8, R245fa: 190.3 kJ/kg).
    pub fn latent_heat(self, t_sat: Celsius) -> JoulesPerKg {
        self.assert_envelope(t_sat);
        let anchor_kj = match self {
            Refrigerant::R236fa => 145.4,
            Refrigerant::R134a => 177.8,
            Refrigerant::R245fa => 190.3,
        };
        let tc = self.critical_temperature_k();
        let ratio = (1.0 - t_sat.to_kelvin().value() / tc) / (1.0 - 298.15 / tc);
        JoulesPerKg::new(anchor_kj * 1e3 * ratio.powf(0.38))
    }

    /// Saturated-liquid density (linear fit around 25 °C).
    pub fn liquid_density(self, t_sat: Celsius) -> Density {
        self.assert_envelope(t_sat);
        let (rho25, slope) = match self {
            Refrigerant::R236fa => (1360.0, -3.0),
            Refrigerant::R134a => (1206.0, -3.4),
            Refrigerant::R245fa => (1338.0, -2.6),
        };
        Density::new(rho25 + slope * (t_sat.value() - 25.0))
    }

    /// Saturated-vapour density from the real-gas law with Z = 0.9
    /// (within ~3 % of tabulated data in the 0–50 °C envelope).
    pub fn vapor_density(self, t_sat: Celsius) -> Density {
        let p = self.saturation_pressure(t_sat).value();
        let m_kg_per_mol = self.molar_mass() * 1e-3;
        Density::new(p * m_kg_per_mol / (0.9 * R_GAS * t_sat.to_kelvin().value()))
    }

    /// Saturated-liquid dynamic viscosity (exponential decline with T).
    pub fn liquid_viscosity(self, t_sat: Celsius) -> DynamicViscosity {
        self.assert_envelope(t_sat);
        let mu25 = match self {
            Refrigerant::R236fa => 292e-6,
            Refrigerant::R134a => 194e-6,
            Refrigerant::R245fa => 402e-6,
        };
        DynamicViscosity::new(mu25 * (-0.012 * (t_sat.value() - 25.0)).exp())
    }

    /// Saturated-vapour dynamic viscosity (≈ constant in the envelope).
    pub fn vapor_viscosity(self, _t_sat: Celsius) -> DynamicViscosity {
        let mu = match self {
            Refrigerant::R236fa => 10.9e-6,
            Refrigerant::R134a => 12.0e-6,
            Refrigerant::R245fa => 10.2e-6,
        };
        DynamicViscosity::new(mu)
    }

    fn assert_envelope(self, t: Celsius) {
        assert!(
            (-20.0..=80.0).contains(&t.value()),
            "{self:?}: temperature {t} outside the fitted -20..=80 °C envelope"
        );
    }
}

impl core::fmt::Display for Refrigerant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Refrigerant::R236fa => "R236fa",
            Refrigerant::R134a => "R134a",
            Refrigerant::R245fa => "R245fa",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn saturation_pressure_anchors() {
        // Tabulated: R236fa 272.7 kPa, R134a 665.8 kPa, R245fa 149.3 kPa at 25 °C.
        let t = Celsius::new(25.0);
        assert!((Refrigerant::R236fa.saturation_pressure(t).to_kpa() - 272.7).abs() < 10.0);
        assert!((Refrigerant::R134a.saturation_pressure(t).to_kpa() - 665.8).abs() < 20.0);
        assert!((Refrigerant::R245fa.saturation_pressure(t).to_kpa() - 149.3).abs() < 8.0);
    }

    #[test]
    fn saturation_round_trip() {
        for r in Refrigerant::ALL {
            for t in [0.0, 25.0, 36.0, 50.0] {
                let p = r.saturation_pressure(Celsius::new(t));
                let back = r.saturation_temperature(p);
                assert!((back.value() - t).abs() < 1e-9, "{r}: {t} -> {back}");
            }
        }
    }

    #[test]
    fn r236fa_vapor_density_near_tabulated() {
        // ≈ 18.3 kg/m³ at 25 °C.
        let rho = Refrigerant::R236fa.vapor_density(Celsius::new(25.0));
        assert!((rho.value() - 18.3).abs() < 1.5, "{rho}");
    }

    #[test]
    fn latent_heat_decreases_with_temperature() {
        for r in Refrigerant::ALL {
            let h0 = r.latent_heat(Celsius::new(0.0));
            let h25 = r.latent_heat(Celsius::new(25.0));
            let h50 = r.latent_heat(Celsius::new(50.0));
            assert!(h0 > h25 && h25 > h50, "{r}");
        }
        // Anchor value.
        let h = Refrigerant::R236fa.latent_heat(Celsius::new(25.0));
        assert!((h.value() - 145_400.0).abs() < 100.0);
    }

    #[test]
    fn liquid_much_denser_than_vapor() {
        for r in Refrigerant::ALL {
            let t = Celsius::new(36.0);
            let ratio = r.liquid_density(t).value() / r.vapor_density(t).value();
            assert!(ratio > 25.0, "{r}: density ratio {ratio}");
        }
    }

    #[test]
    #[should_panic(expected = "envelope")]
    fn envelope_is_enforced() {
        let _ = Refrigerant::R236fa.saturation_pressure(Celsius::new(120.0));
    }

    proptest! {
        #[test]
        fn pressure_monotonic_in_temperature(t in -19.0f64..79.0) {
            for r in Refrigerant::ALL {
                let p1 = r.saturation_pressure(Celsius::new(t)).value();
                let p2 = r.saturation_pressure(Celsius::new(t + 1.0)).value();
                prop_assert!(p2 > p1);
            }
        }

        #[test]
        fn properties_are_positive(t in -20.0f64..=80.0) {
            for r in Refrigerant::ALL {
                let tc = Celsius::new(t);
                prop_assert!(r.liquid_density(tc).value() > 0.0);
                prop_assert!(r.vapor_density(tc).value() > 0.0);
                prop_assert!(r.latent_heat(tc).value() > 0.0);
                prop_assert!(r.liquid_viscosity(tc).value() > 0.0);
                prop_assert!(r.reduced_pressure(tc) > 0.0 && r.reduced_pressure(tc) < 1.0);
            }
        }
    }
}
