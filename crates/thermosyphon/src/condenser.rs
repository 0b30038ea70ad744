//! The water-cooled micro-condenser (ε-NTU with isothermal condensing side).

use crate::design::ThermosyphonDesign;
use crate::filling;
use crate::operating::OperatingPoint;
use tps_fluids::Water;
use tps_units::{Celsius, TempDelta, Watts, WattsPerKelvin};

/// The condenser closing the loop: condensing refrigerant at `T_sat` on one
/// side, chiller water on the other.
///
/// With an isothermal hot side the effectiveness is `ε = 1 − exp(−NTU)`,
/// `NTU = UA/(ṁ_w·c_p)`, and the loop closes through
/// `Q = ε·ṁ_w·c_p·(T_sat − T_w,in)` — solving for the saturation
/// temperature the evaporator sees.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Condenser {
    ua: WattsPerKelvin,
}

impl Condenser {
    /// The prototype's condenser: UA ≈ 13 W/K, sized so that the paper's
    /// worst case (≈ 79 W at 7 kg/h, 30 °C water) condenses around 42 °C.
    pub(crate) fn paper_prototype() -> Self {
        Self {
            ua: WattsPerKelvin::new(13.0),
        }
    }

    /// Effective UA after the filling-ratio flooding penalty.
    pub(crate) fn effective_ua(&self, design: &ThermosyphonDesign) -> WattsPerKelvin {
        self.ua * filling::condenser_flood_factor(design.filling_ratio())
    }

    /// Effectiveness at an operating point (isothermal hot side).
    pub(crate) fn effectiveness(&self, design: &ThermosyphonDesign, op: &OperatingPoint) -> f64 {
        let c_w = self.water_capacity_rate(op);
        let ntu = self.effective_ua(design).value() / c_w.value();
        1.0 - (-ntu).exp()
    }

    /// Water capacity rate `ṁ_w·c_p`.
    pub(crate) fn water_capacity_rate(&self, op: &OperatingPoint) -> WattsPerKelvin {
        op.water_flow_si()
            .capacity_rate(Water::specific_heat(op.water_inlet()))
    }

    /// The saturation temperature required to reject `q` at this operating
    /// point: `T_sat = T_w,in + Q/(ε·ṁ_w·c_p)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is negative.
    pub(crate) fn saturation_temperature(
        &self,
        design: &ThermosyphonDesign,
        op: &OperatingPoint,
        q: Watts,
    ) -> Celsius {
        assert!(q.value() >= 0.0, "heat load must be non-negative");
        let eps = self.effectiveness(design, op);
        let c_w = self.water_capacity_rate(op);
        op.water_inlet() + TempDelta::new(q.value() / (eps * c_w.value()))
    }

    /// Water outlet temperature for a heat load `q` (energy balance).
    pub(crate) fn water_outlet(&self, op: &OperatingPoint, q: Watts) -> Celsius {
        let c_w = self.water_capacity_rate(op);
        op.water_inlet() + q / c_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_floorplan::{xeon_e5_v4, PackageGeometry};
    use tps_units::{Fraction, KgPerHour};

    fn design() -> ThermosyphonDesign {
        ThermosyphonDesign::paper_design(&PackageGeometry::xeon(&xeon_e5_v4()))
    }

    #[test]
    fn paper_point_saturation_temperature() {
        // 79.3 W at 7 kg/h, 30 °C ⇒ T_sat ≈ 41 ± 2 °C.
        let c = Condenser::paper_prototype();
        let t = c.saturation_temperature(&design(), &OperatingPoint::paper(), Watts::new(79.3));
        assert!(
            (39.0..=43.0).contains(&t.value()),
            "T_sat = {t} out of the calibration band"
        );
    }

    #[test]
    fn water_outlet_energy_balance() {
        // 7 kg/h warming by ΔT carries Q = C_w·ΔT; 48.8 W ⇒ 6 K (paper
        // Sec. VIII-B uses exactly this arithmetic).
        let c = Condenser::paper_prototype();
        let out = c.water_outlet(&OperatingPoint::paper(), Watts::new(48.8));
        assert!((out.value() - 36.0).abs() < 0.05, "outlet {out}");
    }

    #[test]
    fn more_flow_lowers_saturation_temperature() {
        let c = Condenser::paper_prototype();
        let d = design();
        let q = Watts::new(70.0);
        let low = c.saturation_temperature(&d, &OperatingPoint::paper(), q);
        let high = c.saturation_temperature(
            &d,
            &OperatingPoint::paper().with_flow(KgPerHour::new(14.0)),
            q,
        );
        assert!(high < low);
    }

    #[test]
    fn overfill_raises_saturation_temperature() {
        let c = Condenser::paper_prototype();
        let d = design();
        let flooded = ThermosyphonDesign::builder(&PackageGeometry::xeon(&xeon_e5_v4()))
            .filling_ratio(Fraction::new(0.85).unwrap())
            .build();
        let q = Watts::new(70.0);
        let t_ok = c.saturation_temperature(&d, &OperatingPoint::paper(), q);
        let t_flooded = c.saturation_temperature(&flooded, &OperatingPoint::paper(), q);
        assert!(t_flooded > t_ok);
    }

    #[test]
    fn zero_load_sits_at_water_inlet() {
        let c = Condenser::paper_prototype();
        let t = c.saturation_temperature(&design(), &OperatingPoint::paper(), Watts::ZERO);
        assert_eq!(t, Celsius::new(30.0));
    }

    #[test]
    fn effectiveness_in_unit_range() {
        let c = Condenser::paper_prototype();
        let e = c.effectiveness(&design(), &OperatingPoint::paper());
        assert!((0.0..=1.0).contains(&e));
        assert!(
            e > 0.7,
            "prototype should be a reasonably effective HX: {e}"
        );
    }
}
