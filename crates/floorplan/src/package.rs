//! Die-in-package placement: heat-spreader extent and die offset.

use crate::plan::Floorplan;
use crate::rect::Rect;

/// Placement of a die within its package / integrated heat spreader (IHS).
///
/// The thermosyphon evaporator covers the full spreader footprint, while the
/// die is a smaller centred rectangle; the spreading between the two is what
/// makes package hot spots a blurred, scaled-down image of die hot spots
/// (the paper's Fig. 2 motivation).
///
/// ```
/// use tps_floorplan::{xeon_e5_v4, PackageGeometry};
/// let pkg = PackageGeometry::xeon(&xeon_e5_v4());
/// let die = pkg.die_rect();
/// assert!(die.within(pkg.spreader_rect()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackageGeometry {
    spreader: Rect,
    die_offset: (f64, f64),
    die_size: (f64, f64),
}

impl PackageGeometry {
    /// Xeon E5 v4 default: a 36 × 32 mm copper IHS with the die centred.
    pub fn xeon(die: &Floorplan) -> Self {
        Self::centered(die, 36.0, 32.0)
    }

    /// Places `die` centred on a `spreader_w_mm × spreader_h_mm` spreader.
    ///
    /// # Panics
    ///
    /// Panics if the spreader is smaller than the die.
    pub(crate) fn centered(die: &Floorplan, spreader_w_mm: f64, spreader_h_mm: f64) -> Self {
        let dw = die.width().to_mm();
        let dh = die.height().to_mm();
        assert!(
            spreader_w_mm >= dw && spreader_h_mm >= dh,
            "spreader ({spreader_w_mm}×{spreader_h_mm} mm) smaller than die ({dw}×{dh} mm)"
        );
        Self {
            spreader: Rect::from_mm(0.0, 0.0, spreader_w_mm, spreader_h_mm),
            die_offset: (
                (spreader_w_mm - dw) / 2.0 * 1e-3,
                (spreader_h_mm - dh) / 2.0 * 1e-3,
            ),
            die_size: (dw * 1e-3, dh * 1e-3),
        }
    }

    /// The spreader (= evaporator footprint) outline, package coordinates.
    pub fn spreader_rect(&self) -> &Rect {
        &self.spreader
    }

    /// Translation from die coordinates to package coordinates, metres.
    pub fn die_offset(&self) -> (f64, f64) {
        self.die_offset
    }

    /// The die outline in package coordinates.
    pub fn die_rect(&self) -> Rect {
        Rect::from_m(
            self.die_offset.0,
            self.die_offset.1,
            self.die_size.0,
            self.die_size.1,
        )
    }

    /// The package-coordinate centre of the spreader — the `T_CASE`
    /// measurement point ("the center of the heat spreader", Sec. VI-B).
    pub fn case_probe_point(&self) -> (f64, f64) {
        self.spreader.center()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xeon::xeon_e5_v4;

    #[test]
    fn die_centred_in_spreader() {
        let pkg = PackageGeometry::xeon(&xeon_e5_v4());
        let die = pkg.die_rect();
        let sp = pkg.spreader_rect();
        let west_gap = die.x_min() - sp.x_min();
        let east_gap = sp.x_max() - die.x_max();
        assert!((west_gap - east_gap).abs() < 1e-12);
        let south_gap = die.y_min() - sp.y_min();
        let north_gap = sp.y_max() - die.y_max();
        assert!((south_gap - north_gap).abs() < 1e-12);
    }

    #[test]
    fn case_probe_is_spreader_center() {
        let pkg = PackageGeometry::xeon(&xeon_e5_v4());
        let (cx, cy) = pkg.case_probe_point();
        assert!((cx - 18e-3).abs() < 1e-12);
        assert!((cy - 16e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "smaller than die")]
    fn spreader_must_cover_die() {
        let _ = PackageGeometry::centered(&xeon_e5_v4(), 10.0, 10.0);
    }
}
