//! Heat-transfer quantities: fluxes, coefficients, conductivities, capacities.

use crate::geometry::SquareMeters;
use crate::power::Watts;
use crate::temperature::TempDelta;

quantity! {
    /// A heat flux in watts per square metre.
    ///
    /// The evaporator's boiling correlations are driven by the local wall heat
    /// flux q″.
    HeatFlux, "W/m²"
}

quantity! {
    /// A convective heat-transfer coefficient h in W/(m²·K).
    ///
    /// ```
    /// use tps_units::{HeatFlux, HeatTransferCoeff, TempDelta};
    /// let h = HeatTransferCoeff::new(10_000.0);
    /// let q = h * TempDelta::new(5.0);
    /// assert_eq!(q, HeatFlux::new(50_000.0));
    /// ```
    HeatTransferCoeff, "W/m²K"
}

quantity! {
    /// A thermal conductivity k in W/(m·K).
    ThermalConductivity, "W/mK"
}

quantity! {
    /// A specific heat capacity c_p in J/(kg·K).
    SpecificHeat, "J/kgK"
}

quantity! {
    /// A specific energy in J/kg (latent heat of vaporisation h_fg).
    JoulesPerKg, "J/kg"
}

quantity! {
    /// A thermal conductance / capacity rate in W/K.
    ///
    /// `ṁ·c_p` of a coolant stream, or a lumped conductance `k·A/L`.
    WattsPerKelvin, "W/K"
}

impl core::ops::Mul<SquareMeters> for HeatFlux {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: SquareMeters) -> Watts {
        Watts::new(self.value() * rhs.value())
    }
}

impl core::ops::Div<HeatTransferCoeff> for HeatFlux {
    type Output = TempDelta;
    #[inline]
    fn div(self, rhs: HeatTransferCoeff) -> TempDelta {
        TempDelta::new(self.value() / rhs.value())
    }
}

impl core::ops::Mul<TempDelta> for HeatTransferCoeff {
    type Output = HeatFlux;
    #[inline]
    fn mul(self, rhs: TempDelta) -> HeatFlux {
        HeatFlux::new(self.value() * rhs.value())
    }
}

impl core::ops::Mul<SquareMeters> for HeatTransferCoeff {
    type Output = WattsPerKelvin;
    #[inline]
    fn mul(self, rhs: SquareMeters) -> WattsPerKelvin {
        WattsPerKelvin::new(self.value() * rhs.value())
    }
}

impl core::ops::Mul<TempDelta> for WattsPerKelvin {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: TempDelta) -> Watts {
        Watts::new(self.value() * rhs.value())
    }
}

impl core::ops::Div<WattsPerKelvin> for Watts {
    type Output = TempDelta;
    #[inline]
    fn div(self, rhs: WattsPerKelvin) -> TempDelta {
        TempDelta::new(self.value() / rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtons_law_of_cooling() {
        let h = HeatTransferCoeff::new(6_000.0);
        let dt = TempDelta::new(4.0);
        let q = h * dt;
        assert_eq!(q, HeatFlux::new(24_000.0));
        assert_eq!(q / h, dt);
    }

    #[test]
    fn flux_times_area_is_power() {
        let q = HeatFlux::new(30e4);
        let a = SquareMeters::new(100e-6);
        assert!(((q * a).value() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_rate_energy_balance() {
        // ṁ·c_p · ΔT = Q : 7 kg/h of water warming by 6 K carries ≈ 48.8 W.
        let c = WattsPerKelvin::new(7.0 / 3600.0 * 4181.0);
        let q = c * TempDelta::new(6.0);
        assert!((q.value() - 48.78).abs() < 0.05);
        // And back: Q / (ṁ·c_p) = ΔT.
        assert!(((q / c).value() - 6.0).abs() < 1e-12);
    }
}
