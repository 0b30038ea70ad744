//! Liquid-water properties for the condenser / chiller loop.

use tps_units::{Celsius, Density, SpecificHeat};

/// Liquid water in the 5–60 °C chiller envelope.
///
/// ```
/// use tps_fluids::Water;
/// use tps_units::Celsius;
///
/// let cp = Water::specific_heat(Celsius::new(30.0));
/// assert!((cp.value() - 4180.0).abs() < 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Water;

impl Water {
    /// Density (linear fit around 25 °C; −0.25 kg/m³ per kelvin).
    pub fn density(t: Celsius) -> Density {
        Self::assert_envelope(t);
        Density::new(997.0 - 0.25 * (t.value() - 25.0))
    }

    /// Specific heat (≈ constant 4181 J/kgK in the envelope).
    pub fn specific_heat(_t: Celsius) -> SpecificHeat {
        SpecificHeat::new(4181.0)
    }

    fn assert_envelope(t: Celsius) {
        assert!(
            (0.0..=80.0).contains(&t.value()),
            "water temperature {t} outside the 0..=80 °C liquid envelope"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors() {
        assert!((Water::density(Celsius::new(25.0)).value() - 997.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "liquid envelope")]
    fn envelope_enforced() {
        let _ = Water::density(Celsius::new(120.0));
    }
}
