//! Convective boundary conditions.

use tps_floorplan::{GridSpec, ScalarField};
use tps_units::{Celsius, HeatTransferCoeff};

/// The top-surface boundary: per-cell heat-transfer coefficient and fluid
/// temperature.
///
/// For the thermosyphon this is produced by the evaporator model — the HTC
/// varies with the local boiling state (vapour quality, dryout) and the
/// fluid temperature is the local saturation temperature.
#[derive(Debug, Clone, PartialEq)]
pub struct TopBoundary {
    htc: ScalarField,
    fluid_temp: ScalarField,
}

impl TopBoundary {
    /// Builds a boundary from per-cell HTC (W/m²K) and fluid temperature
    /// (°C) fields.
    ///
    /// # Panics
    ///
    /// Panics if the two fields live on different grids or any HTC is
    /// negative.
    pub fn new(htc: ScalarField, fluid_temp: ScalarField) -> Self {
        assert_eq!(
            htc.spec(),
            fluid_temp.spec(),
            "HTC and fluid-temperature fields must share a grid"
        );
        assert!(
            htc.values().iter().all(|&h| h >= 0.0),
            "heat-transfer coefficients must be non-negative"
        );
        Self { htc, fluid_temp }
    }

    /// A spatially uniform boundary (useful for tests and bring-up).
    pub fn uniform(grid: &GridSpec, h: HeatTransferCoeff, t: Celsius) -> Self {
        Self::new(
            ScalarField::filled(grid.clone(), h.value()),
            ScalarField::filled(grid.clone(), t.value()),
        )
    }

    /// The per-cell heat-transfer coefficient (W/m²K).
    pub fn htc(&self) -> &ScalarField {
        &self.htc
    }

    /// The per-cell fluid temperature (°C).
    pub(crate) fn fluid_temp(&self) -> &ScalarField {
        &self.fluid_temp
    }
}

/// The bottom-surface boundary: a small uniform leakage towards the board
/// side. The thermosyphon removes >95 % of the heat through the top in the
/// reference prototype, so the default is a weak 10 W/m²K path to 35 °C
/// server-internal air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BottomBoundary {
    /// Heat-transfer coefficient towards the board/air (W/m²K).
    pub htc: HeatTransferCoeff,
    /// Far-side air temperature.
    pub ambient: Celsius,
}

impl Default for BottomBoundary {
    fn default() -> Self {
        Self {
            htc: HeatTransferCoeff::new(10.0),
            ambient: Celsius::new(35.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_floorplan::Rect;

    fn grid() -> GridSpec {
        GridSpec::new(4, 4, Rect::from_mm(0.0, 0.0, 4.0, 4.0))
    }

    #[test]
    fn uniform_boundary() {
        let b = TopBoundary::uniform(&grid(), HeatTransferCoeff::new(1e4), Celsius::new(36.0));
        assert_eq!(b.htc().at(2, 2), 1e4);
        assert_eq!(b.fluid_temp().at(0, 0), 36.0);
    }

    #[test]
    #[should_panic(expected = "share a grid")]
    fn mismatched_grids_rejected() {
        let other = GridSpec::new(2, 2, Rect::from_mm(0.0, 0.0, 4.0, 4.0));
        let _ = TopBoundary::new(
            ScalarField::filled(grid(), 1.0),
            ScalarField::filled(other, 30.0),
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_htc_rejected() {
        let _ = TopBoundary::new(
            ScalarField::filled(grid(), -1.0),
            ScalarField::filled(grid(), 30.0),
        );
    }

    #[test]
    fn bottom_default_is_weak() {
        let b = BottomBoundary::default();
        assert!(b.htc.value() <= 20.0);
    }
}
