//! The thermal metrics the paper reports: θ_max, θ_avg, ∇θ_max.

use tps_floorplan::{Rect, ScalarField};
use tps_units::Celsius;

/// Summary metrics of a temperature field over a region of interest
/// (the die outline for "die" rows, the spreader for "package" rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalMetrics {
    /// Hot-spot temperature θ_max.
    pub max: Celsius,
    /// Area-average temperature θ_avg.
    pub avg: Celsius,
    /// Maximum spatial gradient ∇θ_max in °C/mm, computed between
    /// face-adjacent cells within the region.
    pub max_gradient_c_per_mm: f64,
    /// Number of distinct hot spots: local maxima at least 3 °C above the
    /// region average
    /// (the paper's mapping objective minimises "the number and magnitude
    /// of hot spots").
    pub hotspots: usize,
}

impl ThermalMetrics {
    /// Prominence above the region average for a local maximum to count as
    /// a hot spot.
    pub(crate) const HOTSPOT_PROMINENCE_C: f64 = 3.0;

    /// Computes metrics over the cells whose centres lie in `region`.
    ///
    /// # Panics
    ///
    /// Panics if no cell centre falls inside `region`.
    pub fn in_rect(field: &ScalarField, region: &Rect) -> Self {
        let max = field
            .max_in_rect(region)
            .expect("metrics region contains no grid cells");
        let avg = field.mean_in_rect(region).expect("checked above");
        Self {
            max: Celsius::new(max),
            avg: Celsius::new(avg),
            max_gradient_c_per_mm: max_gradient_in_rect(field, region),
            hotspots: hotspot_count(field, region, Self::HOTSPOT_PROMINENCE_C),
        }
    }

    /// Computes metrics over the whole field.
    pub fn of_field(field: &ScalarField) -> Self {
        Self::in_rect(field, field.spec().extent())
    }
}

impl core::fmt::Display for ThermalMetrics {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "θmax {:.1}, θavg {:.1}, ∇θmax {:.2} °C/mm, {} hot spot(s)",
            self.max.value(),
            self.avg.value(),
            self.max_gradient_c_per_mm,
            self.hotspots
        )
    }
}

/// Counts distinct hot spots in `region`: cells that are strictly-or-equal
/// maxima of their (up to 8) in-region neighbours and at least `prominence`
/// °C above the region average. Plateaus of equal-temperature cells count
/// once per connected run along x (a practical tie-break that keeps the
/// count stable under grid refinement).
pub(crate) fn hotspot_count(field: &ScalarField, region: &Rect, prominence: f64) -> usize {
    let spec = field.spec();
    let avg = match field.mean_in_rect(region) {
        Some(a) => a,
        None => return 0,
    };
    let inside = |ix: i64, iy: i64| -> bool {
        if ix < 0 || iy < 0 || ix >= spec.nx() as i64 || iy >= spec.ny() as i64 {
            return false;
        }
        let (x, y) = spec.cell_center(ix as usize, iy as usize);
        region.contains(x, y)
    };
    let (xs, ys) = spec.cell_span(region);
    let mut count = 0usize;
    for iy in ys {
        for ix in xs.clone() {
            if !inside(ix as i64, iy as i64) {
                continue;
            }
            let t = field.at(ix, iy);
            if t < avg + prominence {
                continue;
            }
            let mut is_peak = true;
            'outer: for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let (jx, jy) = (ix as i64 + dx, iy as i64 + dy);
                    if !inside(jx, jy) {
                        continue;
                    }
                    let tn = field.at(jx as usize, jy as usize);
                    // Strictly higher neighbour, or an equal neighbour
                    // earlier in scan order, owns the peak.
                    if tn > t || (tn == t && (dy < 0 || (dy == 0 && dx < 0))) {
                        is_peak = false;
                        break 'outer;
                    }
                }
            }
            if is_peak {
                count += 1;
            }
        }
    }
    count
}

/// Maximum |ΔT|/distance between face-adjacent cells whose centres both lie
/// in `region`, in °C/mm.
pub(crate) fn max_gradient_in_rect(field: &ScalarField, region: &Rect) -> f64 {
    let spec = field.spec();
    let dx_mm = spec.cell_w() * 1e3;
    let dy_mm = spec.cell_h() * 1e3;
    let inside = |ix: usize, iy: usize| {
        let (x, y) = spec.cell_center(ix, iy);
        region.contains(x, y)
    };
    let mut g: f64 = 0.0;
    let (xs, ys) = spec.cell_span(region);
    for iy in ys.clone() {
        for ix in xs.clone() {
            if !inside(ix, iy) {
                continue;
            }
            let t = field.at(ix, iy);
            if ix + 1 < spec.nx() && inside(ix + 1, iy) {
                g = g.max((field.at(ix + 1, iy) - t).abs() / dx_mm);
            }
            if iy + 1 < spec.ny() && inside(ix, iy + 1) {
                g = g.max((field.at(ix, iy + 1) - t).abs() / dy_mm);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_floorplan::GridSpec;

    fn grid() -> GridSpec {
        GridSpec::new(10, 10, Rect::from_mm(0.0, 0.0, 10.0, 10.0))
    }

    #[test]
    fn uniform_field_has_zero_gradient() {
        let f = ScalarField::filled(grid(), 55.0);
        let m = ThermalMetrics::of_field(&f);
        assert_eq!(m.max, Celsius::new(55.0));
        assert_eq!(m.avg, Celsius::new(55.0));
        assert_eq!(m.max_gradient_c_per_mm, 0.0);
    }

    #[test]
    fn linear_ramp_gradient() {
        // T = 1000·x (x in m) ⇒ 1 °C/mm everywhere.
        let f = ScalarField::from_fn(grid(), |x, _| 1000.0 * x);
        let m = ThermalMetrics::of_field(&f);
        assert!((m.max_gradient_c_per_mm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn region_restriction() {
        // A hot spot outside the region must not affect the metrics.
        let mut f = ScalarField::filled(grid(), 40.0);
        f.set(9, 9, 90.0);
        let west = Rect::from_mm(0.0, 0.0, 5.0, 10.0);
        let m = ThermalMetrics::in_rect(&f, &west);
        assert_eq!(m.max, Celsius::new(40.0));
        assert_eq!(m.max_gradient_c_per_mm, 0.0);
        let all = ThermalMetrics::of_field(&f);
        assert_eq!(all.max, Celsius::new(90.0));
        assert!(all.max_gradient_c_per_mm > 0.0);
    }

    #[test]
    fn gradient_counts_both_axes() {
        let f = ScalarField::from_fn(grid(), |_, y| 2000.0 * y);
        let m = ThermalMetrics::of_field(&f);
        assert!((m.max_gradient_c_per_mm - 2.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_compact() {
        let f = ScalarField::filled(grid(), 66.12);
        let s = ThermalMetrics::of_field(&f).to_string();
        assert!(s.contains("66.1") && s.contains("∇θmax"));
    }

    #[test]
    fn hotspot_counting() {
        let mut f = ScalarField::filled(grid(), 40.0);
        // Two separated peaks …
        f.set(2, 2, 50.0);
        f.set(7, 7, 52.0);
        // … and one bump below the prominence threshold.
        f.set(5, 1, 41.0);
        let region = *f.spec().extent();
        assert_eq!(hotspot_count(&f, &region, 3.0), 2);
        let m = ThermalMetrics::of_field(&f);
        assert_eq!(m.hotspots, 2);
        assert!(m.to_string().contains("2 hot spot"));
    }

    #[test]
    fn plateau_counts_once() {
        let mut f = ScalarField::filled(grid(), 40.0);
        // A 2×2 plateau of equal maxima.
        for (x, y) in [(4, 4), (5, 4), (4, 5), (5, 5)] {
            f.set(x, y, 55.0);
        }
        assert_eq!(hotspot_count(&f, f.spec().extent(), 3.0), 1);
    }

    #[test]
    fn uniform_field_has_no_hotspots() {
        let f = ScalarField::filled(grid(), 40.0);
        assert_eq!(hotspot_count(&f, f.spec().extent(), 3.0), 0);
        assert_eq!(ThermalMetrics::of_field(&f).hotspots, 0);
    }

    #[test]
    fn hotspot_outside_region_ignored() {
        let mut f = ScalarField::filled(grid(), 40.0);
        f.set(9, 9, 60.0);
        let west = Rect::from_mm(0.0, 0.0, 5.0, 10.0);
        assert_eq!(hotspot_count(&f, &west, 3.0), 0);
    }

    #[test]
    #[should_panic(expected = "no grid cells")]
    fn empty_region_panics() {
        let f = ScalarField::filled(grid(), 1.0);
        let _ = ThermalMetrics::in_rect(&f, &Rect::from_mm(50.0, 50.0, 1.0, 1.0));
    }
}
