//! Solid materials of the chip stack.

use tps_units::ThermalConductivity;

/// A homogeneous solid material: a name and a thermal conductivity.
///
/// ```
/// use tps_floorplan::{GridSpec, Rect};
/// use tps_thermal::{LayerStack, Material, ThermalModel};
///
/// let extent = Rect::from_mm(0.0, 0.0, 10.0, 10.0);
/// let stack = LayerStack::builder(extent)
///     .layer("die", Material::silicon(), 0.7e-3)
///     .layer("spreader", Material::copper(), 2.0e-3)
///     .build()?;
/// let model = ThermalModel::new(&stack, GridSpec::new(10, 10, extent));
/// assert_eq!(model.n_layers(), 2);
/// # Ok::<(), tps_thermal::StackError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Material {
    name: &'static str,
    k: ThermalConductivity,
}

impl Material {
    /// Creates a material.
    ///
    /// # Panics
    ///
    /// Panics if the conductivity is non-positive.
    pub(crate) fn new(name: &'static str, k: ThermalConductivity) -> Self {
        assert!(
            k.value() > 0.0,
            "material `{name}` must have positive properties"
        );
        Self { name, k }
    }

    /// Bulk silicon at operating temperature (k ≈ 120 W/mK around 60 °C).
    pub fn silicon() -> Self {
        Self::new("silicon", ThermalConductivity::new(120.0))
    }

    /// Copper (heat spreader, evaporator base).
    pub fn copper() -> Self {
        Self::new("copper", ThermalConductivity::new(390.0))
    }

    /// Thermal grease at the die ↔ spreader interface (TIM1). The value is
    /// calibrated so the full-load die-to-case temperature drop matches the
    /// paper's reported hot spots (ARCHITECTURE.md §7).
    pub fn tim_grease() -> Self {
        Self::new("tim-grease", ThermalConductivity::new(3.2))
    }

    /// Grease interface between spreader and evaporator base (TIM2);
    /// slightly better than TIM1 thanks to the clamped flat surfaces.
    pub(crate) fn tim_mount() -> Self {
        Self::new("tim-mount", ThermalConductivity::new(5.0))
    }

    /// Organic package fill surrounding the die (low conductivity).
    pub(crate) fn underfill() -> Self {
        Self::new("underfill", ThermalConductivity::new(0.9))
    }

    /// The material's name.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Thermal conductivity.
    pub(crate) fn conductivity(&self) -> ThermalConductivity {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_physical() {
        for m in [
            Material::silicon(),
            Material::copper(),
            Material::tim_grease(),
            Material::tim_mount(),
            Material::underfill(),
        ] {
            assert!(m.conductivity().value() > 0.0, "{}", m.name());
        }
        assert!(Material::copper().conductivity() > Material::silicon().conductivity());
        assert!(Material::underfill().conductivity() < Material::tim_grease().conductivity());
    }

    #[test]
    #[should_panic(expected = "positive properties")]
    fn rejects_nonpositive() {
        let _ = Material::new("bad", ThermalConductivity::new(0.0));
    }
}
