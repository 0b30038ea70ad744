//! The micro-channel evaporator: per-channel quality marching.
//!
//! Each grid row (or column, depending on the orientation) is a band of
//! parallel micro-channels. Marching from the inlet, every cell adds its
//! wall heat to the band's enthalpy, increasing the vapour quality; the
//! local boiling coefficient is Cooper pool boiling scaled by a
//! quality-dependent flow-boiling factor that collapses past the dryout
//! quality. Consequences the paper builds on:
//!
//! * the **outlet end runs hotter** than the inlet end (high quality ⇒
//!   dryout risk ⇒ degraded HTC),
//! * **co-linear heat sources compound**: a second core on the same channel
//!   band sees fluid pre-loaded with vapour by the first one,
//! * orientation matters: north–south channels (Design 2) chain up to four
//!   cores per band, east–west ones (Design 1) at most two.

use crate::design::{Orientation, ThermosyphonDesign};
use crate::filling;
use tps_floorplan::{GridSpec, ScalarField};
use tps_fluids::correlations::{cooper_prefactor, cooper_with_prefactor, flow_boiling_factor};
use tps_units::{Celsius, Fraction, HeatFlux, KgPerSecond};

/// HTC of a fully dried-out (vapour-cooled) cell, before the fin factor.
const VAPOR_HTC: f64 = 300.0;

/// Surface roughness parameter for the Cooper correlation, µm.
const ROUGHNESS_UM: f64 = 1.0;

/// Strength of the parallel-channel flow maldistribution: a band whose
/// exit quality is `x` receives a flow share ∝ `1/(1 + GAIN·x)`.
///
/// Parallel boiling channels fed from a common header are Ledinegg-
/// unstable: the vapour-rich (hot) channels build a larger two-phase
/// pressure drop and are starved of liquid, driving their quality even
/// higher. This is the mechanism that punishes channel bands loaded by
/// several co-linear cores — the limitation the paper's orientation choice
/// and mapping policy are designed around.
const MALDISTRIBUTION_GAIN: f64 = 3.0;

/// The evaporator of a [`ThermosyphonDesign`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Evaporator {
    design: ThermosyphonDesign,
}

/// The evaporator-side boundary state produced by one marching pass.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaporatorSolution {
    htc: ScalarField,
    fluid_temp: ScalarField,
    quality: ScalarField,
    /// Exit quality of each channel band, in band order (south→north for
    /// east–west channels, west→east for north–south ones).
    band_exit_quality: Vec<f64>,
}

impl EvaporatorSolution {
    /// Per-cell effective heat-transfer coefficient (W/m²K, on the base
    /// area, fin enhancement included).
    pub(crate) fn htc(&self) -> &ScalarField {
        &self.htc
    }

    /// Per-cell fluid (saturation) temperature, °C.
    pub(crate) fn fluid_temp(&self) -> &ScalarField {
        &self.fluid_temp
    }

    /// Per-cell vapour quality.
    pub fn quality(&self) -> &ScalarField {
        &self.quality
    }
}

impl Evaporator {
    /// Creates the evaporator for a design.
    pub(crate) fn new(design: ThermosyphonDesign) -> Self {
        Self { design }
    }

    /// Marches all channel bands once.
    ///
    /// * `wall_heat` — watts per grid cell entering the refrigerant (from
    ///   the thermal model's top boundary, or a first-guess distribution),
    /// * `t_sat` — saturation temperature set by the condenser,
    /// * `m_dot` — loop mass flow from
    ///   [`circulation_flow`](crate::circulation::circulation_flow).
    ///
    /// # Panics
    ///
    /// Panics if the grid extent differs from the evaporator footprint or
    /// the flow is non-positive.
    pub(crate) fn solve(
        &self,
        wall_heat: &ScalarField,
        t_sat: Celsius,
        m_dot: KgPerSecond,
    ) -> EvaporatorSolution {
        let grid = wall_heat.spec();
        assert_eq!(
            grid.extent(),
            self.design.footprint(),
            "wall-heat grid must cover the evaporator footprint"
        );
        assert!(m_dot.value() > 0.0, "refrigerant flow must be positive");

        let n_bands = if self.design.orientation().is_horizontal() {
            grid.ny()
        } else {
            grid.nx()
        };
        // Start from an equal header distribution, then iterate the
        // Ledinegg feedback to its (damped) fixed point: vapour-rich bands
        // are starved, which raises their quality further.
        let mut flows = vec![m_dot.value() / n_bands as f64; n_bands];
        let mut solution = self.march(wall_heat, t_sat, &flows);
        for _ in 0..4 {
            let weights: Vec<f64> = solution
                .band_exit_quality
                .iter()
                .map(|x| 1.0 / (1.0 + MALDISTRIBUTION_GAIN * x))
                .collect();
            let w_total: f64 = weights.iter().sum();
            for (flow, w) in flows.iter_mut().zip(&weights) {
                let target = m_dot.value() * w / w_total;
                *flow = 0.5 * *flow + 0.5 * target; // damped update
            }
            solution = self.march(wall_heat, t_sat, &flows);
        }
        solution
    }

    /// One marching pass over all bands with explicit per-band flows.
    fn march(
        &self,
        wall_heat: &ScalarField,
        t_sat: Celsius,
        m_bands: &[f64],
    ) -> EvaporatorSolution {
        let grid = wall_heat.spec();
        let r = self.design.refrigerant();
        let h_fg = r.latent_heat(t_sat).value();
        // Only Cooper's flux term varies from cell to cell.
        let cooper = cooper_prefactor(r.reduced_pressure(t_sat), r.molar_mass(), ROUGHNESS_UM);
        let x_crit = filling::dryout_quality(self.design.filling_ratio());
        let fin = self.design.fin_factor();
        let cell_area = grid.cell_area();

        let mut htc = ScalarField::zeros(grid.clone());
        let mut quality = ScalarField::zeros(grid.clone());
        let fluid_temp = ScalarField::filled(grid.clone(), t_sat.value());
        let mut band_exit_quality = Vec::with_capacity(m_bands.len());

        let band_len = if self.design.orientation().is_horizontal() {
            grid.nx()
        } else {
            grid.ny()
        };

        for (band, &m_band) in m_bands.iter().enumerate() {
            let mut x = 0.0f64; // saturated-liquid inlet
            for step in 0..band_len {
                let (ix, iy) = self.cell_at(grid, band, step);
                let q_cell = wall_heat.at(ix, iy).max(0.0);
                let x_in = x;
                x = (x + q_cell / (m_band * h_fg)).clamp(0.0, 1.0);
                let x_cell = Fraction::saturating(0.5 * (x_in + x));

                let h = if x_cell.value() >= 0.999 {
                    VAPOR_HTC
                } else {
                    let q_flux = HeatFlux::new((q_cell / cell_area).max(500.0));
                    let pool = cooper_with_prefactor(cooper, q_flux);
                    pool.value() * flow_boiling_factor(x_cell, x_crit)
                };
                htc.set(ix, iy, h * fin);
                quality.set(ix, iy, x_cell.value());
            }
            band_exit_quality.push(x);
        }

        EvaporatorSolution {
            htc,
            fluid_temp,
            quality,
            band_exit_quality,
        }
    }

    /// Grid cell of a band at a marching step (step 0 = inlet).
    fn cell_at(&self, grid: &GridSpec, band: usize, step: usize) -> (usize, usize) {
        match self.design.orientation() {
            Orientation::InletEast => (grid.nx() - 1 - step, band),
            Orientation::InletWest => (step, band),
            Orientation::InletNorth => (band, grid.ny() - 1 - step),
            Orientation::InletSouth => (band, step),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_floorplan::{xeon_e5_v4, PackageGeometry, Rect};

    fn setup() -> (Evaporator, GridSpec) {
        let pkg = PackageGeometry::xeon(&xeon_e5_v4());
        let design = ThermosyphonDesign::paper_design(&pkg);
        let grid = GridSpec::new(36, 32, *design.footprint());
        (Evaporator::new(design), grid)
    }

    /// The highest channel-exit quality.
    fn exit_quality_max(sol: &EvaporatorSolution) -> f64 {
        sol.band_exit_quality.iter().copied().fold(0.0, f64::max)
    }

    /// Cells past the dryout quality of the evaporator's fill.
    fn dryout_cells(evap: &Evaporator, sol: &EvaporatorSolution) -> usize {
        let x_crit = filling::dryout_quality(evap.design.filling_ratio());
        sol.quality
            .values()
            .iter()
            .filter(|&&x| Fraction::saturating(x) > x_crit)
            .count()
    }

    /// A westside hot strip (like the core columns) on an otherwise mild map.
    fn west_loaded(grid: &GridSpec, total: f64) -> ScalarField {
        let hot = Rect::from_mm(9.0, 11.0, 9.0, 12.0);
        let n_hot = 9.0 * 12.0; // mm² — one cell per mm² on this grid
        ScalarField::from_fn(grid.clone(), |x, y| {
            if hot.contains(x, y) {
                0.8 * total / n_hot
            } else {
                0.2 * total / (36.0 * 32.0 - n_hot)
            }
        })
    }

    #[test]
    fn quality_accumulates_towards_outlet() {
        let (evap, grid) = setup();
        let heat = ScalarField::filled(grid.clone(), 70.0 / grid.n_cells() as f64);
        let m = KgPerSecond::new(3e-3);
        let sol = evap.solve(&heat, Celsius::new(41.0), m);
        // Inlet east ⇒ quality grows westwards.
        let q_east = sol.quality().at(35, 16);
        let q_west = sol.quality().at(0, 16);
        assert!(q_west > q_east, "west {q_west} <= east {q_east}");
        assert!(exit_quality_max(&sol) > 0.0);
    }

    #[test]
    fn uniform_load_outlet_runs_hotter_effectively() {
        // With uniform heat the outlet half must end up with *lower* mean
        // HTC than the peak mid-channel region once quality passes the
        // enhancement peak — the "inlet cooler than outlet" asymmetry.
        let (evap, grid) = setup();
        let heat = ScalarField::filled(grid.clone(), 75.0 / grid.n_cells() as f64);
        // Low flow to push exit quality past dryout.
        let sol = evap.solve(&heat, Celsius::new(41.0), KgPerSecond::new(8e-4));
        assert!(
            dryout_cells(&evap, &sol) > 0,
            "expected dryout at starved flow"
        );
        let west_outlet = Rect::from_mm(0.0, 0.0, 6.0, 32.0);
        let east_inlet = Rect::from_mm(30.0, 0.0, 6.0, 32.0);
        let h_out = sol.htc().mean_in_rect(&west_outlet).unwrap();
        let h_in = sol.htc().mean_in_rect(&east_inlet).unwrap();
        assert!(h_out < h_in, "outlet HTC {h_out} should trail inlet {h_in}");
    }

    #[test]
    fn moderate_quality_enhances_boiling() {
        // At healthy flow, mid-channel cells (x ≈ 0.1–0.4) must beat the
        // inlet cells (x ≈ 0) thanks to the convective enhancement.
        let (evap, grid) = setup();
        let heat = ScalarField::filled(grid.clone(), 75.0 / grid.n_cells() as f64);
        let sol = evap.solve(&heat, Celsius::new(41.0), KgPerSecond::new(3e-3));
        assert_eq!(dryout_cells(&evap, &sol), 0);
        let mid = Rect::from_mm(8.0, 0.0, 8.0, 32.0);
        let inlet = Rect::from_mm(33.0, 0.0, 3.0, 32.0);
        assert!(sol.htc().mean_in_rect(&mid).unwrap() > sol.htc().mean_in_rect(&inlet).unwrap());
    }

    #[test]
    fn north_south_chains_core_heat() {
        // Design 2 sends the west-side core heat down a single band; the
        // same total load must produce a higher peak quality than Design 1.
        let pkg = PackageGeometry::xeon(&xeon_e5_v4());
        let d1 = ThermosyphonDesign::paper_design(&pkg);
        let d2 = ThermosyphonDesign::builder(&pkg)
            .orientation(Orientation::InletNorth)
            .build();
        let grid = GridSpec::new(36, 32, *d1.footprint());
        let heat = west_loaded(&grid, 75.0);
        let m = KgPerSecond::new(3e-3);
        let s1 = Evaporator::new(d1).solve(&heat, Celsius::new(41.0), m);
        let s2 = Evaporator::new(d2).solve(&heat, Celsius::new(41.0), m);
        let (x1, x2) = (exit_quality_max(&s1), exit_quality_max(&s2));
        assert!(
            x2 > x1,
            "design 2 exit quality {x2} should exceed design 1 {x1}"
        );
    }

    #[test]
    fn fluid_temperature_is_saturation() {
        let (evap, grid) = setup();
        let heat = ScalarField::filled(grid.clone(), 0.02);
        let sol = evap.solve(&heat, Celsius::new(38.5), KgPerSecond::new(2e-3));
        assert!((sol.fluid_temp().mean() - 38.5).abs() < 1e-12);
    }

    #[test]
    fn negative_wall_heat_is_clamped() {
        let (evap, grid) = setup();
        let heat = ScalarField::filled(grid.clone(), -0.5);
        let sol = evap.solve(&heat, Celsius::new(38.0), KgPerSecond::new(2e-3));
        assert_eq!(sol.quality().max(), 0.0);
        assert!(sol.htc().min() > 0.0);
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn wrong_grid_extent_panics() {
        let (evap, _) = setup();
        let wrong = GridSpec::new(4, 4, Rect::from_mm(0.0, 0.0, 4.0, 4.0));
        let _ = evap.solve(
            &ScalarField::zeros(wrong),
            Celsius::new(40.0),
            KgPerSecond::new(1e-3),
        );
    }
}
