//! Fixed-point coupling between the thermal model and the evaporator.
//!
//! The boiling coefficient depends on the wall heat flux and local vapour
//! quality, which depend on the temperature field, which depends on the
//! boiling coefficient. [`CoupledSimulation::solve`] iterates the two models
//! (with relaxation on the boundary fields) until the die temperatures
//! settle.

use crate::circulation::{circulation_flow, CirculationError};
use crate::condenser::Condenser;
use crate::design::ThermosyphonDesign;
use crate::evaporator::{Evaporator, EvaporatorSolution};
use crate::operating::OperatingPoint;
use core::fmt;
use tps_floorplan::{xeon_e5_v4, GridSpec, PackageGeometry, ScalarField};
use tps_thermal::{LayerStack, SolverError, ThermalModel, ThermalSolution, TopBoundary};
use tps_units::{Celsius, KgPerSecond, Watts};

/// Error from a coupled solve.
#[derive(Debug)]
pub enum CouplingError {
    /// The natural-circulation loop cannot run at this load.
    Circulation(CirculationError),
    /// The linear solver failed.
    Solver(SolverError),
    /// The fixed point did not settle within the iteration cap.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final max |ΔT| between successive iterations, °C.
        delta: f64,
    },
}

impl fmt::Display for CouplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CouplingError::Circulation(e) => write!(f, "circulation failed: {e}"),
            CouplingError::Solver(e) => write!(f, "thermal solve failed: {e}"),
            CouplingError::NoConvergence { iterations, delta } => write!(
                f,
                "thermal/evaporator fixed point did not settle in {iterations} iterations \
                 (last ΔT {delta:.3} °C)"
            ),
        }
    }
}

impl std::error::Error for CouplingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CouplingError::Circulation(e) => Some(e),
            CouplingError::Solver(e) => Some(e),
            CouplingError::NoConvergence { .. } => None,
        }
    }
}

impl From<CirculationError> for CouplingError {
    fn from(e: CirculationError) -> Self {
        CouplingError::Circulation(e)
    }
}

impl From<SolverError> for CouplingError {
    fn from(e: SolverError) -> Self {
        CouplingError::Solver(e)
    }
}

/// The fixed point's iteration cap.
const MAX_ITERATIONS: usize = 40;

/// The fixed point stops once the die moves less than this between
/// iterations, °C.
const TOLERANCE_C: f64 = 0.05;

/// A ready-to-run coupled thermosyphon + chip-stack simulation.
#[derive(Debug, Clone)]
pub struct CoupledSimulation {
    design: ThermosyphonDesign,
    op: OperatingPoint,
    condenser: Condenser,
    evaporator: Evaporator,
    model: ThermalModel,
    grid: GridSpec,
    case_layer: usize,
    case_point: (f64, f64),
}

/// Builder for [`CoupledSimulation`].
#[derive(Debug, Clone)]
pub struct CoupledSimulationBuilder {
    design: ThermosyphonDesign,
    op: OperatingPoint,
    package: Option<PackageGeometry>,
    grid_pitch_mm: f64,
}

impl CoupledSimulation {
    /// Starts a builder. Defaults: the Xeon E5 v4 package/stack and a
    /// 0.5 mm grid. The loop closes through the prototype condenser, and the
    /// fixed point stops at a 0.05 °C die change.
    pub fn builder(design: ThermosyphonDesign, op: OperatingPoint) -> CoupledSimulationBuilder {
        CoupledSimulationBuilder {
            design,
            op,
            package: None,
            grid_pitch_mm: 0.5,
        }
    }

    /// The simulation grid (package coordinates).
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// The thermosyphon design in effect.
    pub fn design(&self) -> &ThermosyphonDesign {
        &self.design
    }

    /// The operating point in effect.
    pub fn operating_point(&self) -> OperatingPoint {
        self.op
    }

    /// Returns a copy with a different operating point (reusing the
    /// assembled thermal model).
    pub fn with_operating_point(&self, op: OperatingPoint) -> Self {
        Self { op, ..self.clone() }
    }

    /// Solves the coupled steady state for a power map (watts per cell on
    /// [`CoupledSimulation::grid`], die layer).
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError`] if circulation, the linear solver or the
    /// fixed point fails.
    ///
    /// # Panics
    ///
    /// Panics if `power` lives on a different grid.
    pub fn solve(&self, power: &ScalarField) -> Result<CoupledSolution, CouplingError> {
        assert_eq!(power.spec(), &self.grid, "power grid mismatch");
        let q_total = Watts::new(power.total());
        let t_sat = self
            .condenser
            .saturation_temperature(&self.design, &self.op, q_total);
        let m_dot = circulation_flow(&self.design, t_sat, q_total)?;

        // First guess: the wall sees the raw die map spread by nothing.
        let mut wall_heat = ScalarField::filled(
            self.grid.clone(),
            q_total.value() / self.grid.n_cells() as f64,
        );
        let mut prev_die: Option<ScalarField> = None;
        let mut last: Option<(ThermalSolution, TopBoundary, EvaporatorSolution)> = None;
        let mut iterations = 0;
        let mut delta = f64::INFINITY;

        for iter in 0..MAX_ITERATIONS {
            iterations = iter + 1;
            let evap = self.evaporator.solve(&wall_heat, t_sat, m_dot);
            let boundary = match &last {
                // Relax the HTC field 50/50 against the previous iterate to
                // damp the flux↔quality feedback.
                Some((_, prev_boundary, _)) => {
                    let mut htc = evap.htc().clone();
                    let prev = prev_boundary.htc();
                    for (h, p) in htc.values_mut().iter_mut().zip(prev.values()) {
                        *h = 0.5 * *h + 0.5 * p;
                    }
                    TopBoundary::new(htc, evap.fluid_temp().clone())
                }
                None => TopBoundary::new(evap.htc().clone(), evap.fluid_temp().clone()),
            };
            let thermal = self.model.steady_state(power, &boundary)?;
            let die = thermal.die_layer().clone();
            if let Some(prev) = &prev_die {
                delta = die.max_abs_diff(prev);
                if delta < TOLERANCE_C {
                    let wall_flux = self.model.heat_to_top(&thermal, &boundary);
                    return Ok(self.finish(
                        thermal, boundary, evap, t_sat, m_dot, q_total, wall_flux, iterations,
                    ));
                }
            }
            wall_heat = self.model.heat_to_top(&thermal, &boundary);
            prev_die = Some(die);
            last = Some((thermal, boundary, evap));
        }
        let _ = last;
        Err(CouplingError::NoConvergence { iterations, delta })
    }

    #[allow(clippy::too_many_arguments)] // internal assembly of the result
    fn finish(
        &self,
        thermal: ThermalSolution,
        boundary: TopBoundary,
        evaporator: EvaporatorSolution,
        t_sat: Celsius,
        refrigerant_flow: KgPerSecond,
        q_total: Watts,
        wall_flux: ScalarField,
        iterations: usize,
    ) -> CoupledSolution {
        let t_case = thermal
            .temperature_at(self.case_layer, self.case_point.0, self.case_point.1)
            .expect("case probe point lies on the grid");
        let water_outlet = self.condenser.water_outlet(&self.op, q_total);
        CoupledSolution {
            thermal,
            boundary,
            evaporator,
            t_sat,
            refrigerant_flow,
            q_total,
            t_case,
            water_outlet,
            wall_heat: wall_flux,
            iterations,
        }
    }
}

impl CoupledSimulationBuilder {
    /// Uses an explicit package geometry (default: Xeon E5 v4).
    pub fn package(mut self, pkg: PackageGeometry) -> Self {
        self.package = Some(pkg);
        self
    }

    /// Sets the lateral grid pitch in millimetres (default 0.5).
    ///
    /// # Panics
    ///
    /// Panics if non-positive.
    pub fn grid_pitch_mm(mut self, pitch: f64) -> Self {
        assert!(pitch > 0.0, "grid pitch must be positive");
        self.grid_pitch_mm = pitch;
        self
    }

    /// Assembles the simulation (builds the thermal model).
    ///
    /// # Panics
    ///
    /// Panics if the design footprint does not match the package spreader.
    pub fn build(self) -> CoupledSimulation {
        let package = self
            .package
            .unwrap_or_else(|| PackageGeometry::xeon(&xeon_e5_v4()));
        assert_eq!(
            self.design.footprint(),
            package.spreader_rect(),
            "design footprint must match the package spreader"
        );
        let stack = LayerStack::xeon_thermosyphon(&package);
        let grid = GridSpec::with_pitch(*stack.extent(), self.grid_pitch_mm * 1e-3);
        let model = ThermalModel::new(&stack, grid.clone());
        let case_layer = model
            .layer_index("spreader")
            .unwrap_or(model.n_layers() / 2);
        CoupledSimulation {
            evaporator: Evaporator::new(self.design.clone()),
            design: self.design,
            op: self.op,
            condenser: Condenser::paper_prototype(),
            model,
            grid,
            case_layer,
            case_point: package.case_probe_point(),
        }
    }
}

/// The converged coupled state.
#[derive(Debug, Clone)]
pub struct CoupledSolution {
    /// Per-layer temperature fields.
    pub thermal: ThermalSolution,
    /// The converged top boundary (HTC + fluid temperature).
    pub boundary: TopBoundary,
    /// The converged evaporator state (qualities, dryout).
    pub evaporator: EvaporatorSolution,
    /// Loop saturation temperature.
    pub t_sat: Celsius,
    /// Natural-circulation refrigerant flow.
    pub refrigerant_flow: KgPerSecond,
    /// Total heat load.
    pub q_total: Watts,
    /// Case temperature at the spreader centre (the paper's `T_CASE`).
    pub t_case: Celsius,
    /// Condenser water outlet temperature.
    pub water_outlet: Celsius,
    /// Converged wall-heat distribution into the refrigerant (W per cell).
    pub wall_heat: ScalarField,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_floorplan::Rect;

    fn coarse_sim() -> CoupledSimulation {
        let pkg = PackageGeometry::xeon(&xeon_e5_v4());
        let design = ThermosyphonDesign::paper_design(&pkg);
        CoupledSimulation::builder(design, OperatingPoint::paper())
            .grid_pitch_mm(1.0)
            .build()
    }

    /// A core-column-shaped hot zone plus background, summing to `total` W.
    fn core_loaded(grid: &GridSpec, total: f64) -> ScalarField {
        let hot = Rect::from_mm(9.0, 11.5, 9.0, 11.3); // west core columns
        let mut f = ScalarField::from_fn(
            grid.clone(),
            |x, y| {
                if hot.contains(x, y) {
                    1.0
                } else {
                    0.05
                }
            },
        );
        let scale = total / f.total();
        f.scale(scale);
        f
    }

    #[test]
    fn converges_and_conserves_energy() {
        let sim = coarse_sim();
        let power = core_loaded(sim.grid(), 75.0);
        let sol = sim.solve(&power).unwrap();
        assert!(sol.iterations >= 2);
        // The refrigerant absorbs essentially the whole load.
        let q_wall = sol.wall_heat.total();
        assert!(
            (q_wall - 75.0).abs() < 1.5,
            "wall heat {q_wall} W vs 75 W input"
        );
        // Ordering: water in < T_sat < case < die max.
        assert!(sol.t_sat.value() > 30.0);
        assert!(sol.t_case.value() > sol.t_sat.value());
        assert!(sol.thermal.die_layer().max() > sol.t_case.value());
    }

    #[test]
    fn die_hotspot_lands_in_calibration_band() {
        // Full-load Xeon on the paper design with a *flat* core-region map
        // (no within-core execution-cluster structure — that lives in
        // `tps-power::power_field`): the hot spot lands a few kelvin below
        // the full pipeline's 76–82 °C (Table II sits at 78–83 °C).
        let sim = coarse_sim();
        let power = core_loaded(sim.grid(), 79.3);
        let sol = sim.solve(&power).unwrap();
        let die_max = sol.thermal.die_layer().max();
        assert!(
            (60.0..=92.0).contains(&die_max),
            "die hot spot {die_max} °C outside the calibration band"
        );
    }

    #[test]
    fn warmer_water_means_warmer_die() {
        let sim = coarse_sim();
        let power = core_loaded(sim.grid(), 60.0);
        let cold = sim
            .with_operating_point(OperatingPoint::paper().with_inlet(Celsius::new(20.0)))
            .solve(&power)
            .unwrap();
        let warm = sim.solve(&power).unwrap();
        assert!(warm.thermal.die_layer().max() > cold.thermal.die_layer().max() + 5.0);
    }

    #[test]
    fn more_flow_cools_the_die() {
        let sim = coarse_sim();
        let power = core_loaded(sim.grid(), 75.0);
        let base = sim.solve(&power).unwrap();
        let boosted = sim
            .with_operating_point(
                OperatingPoint::paper().with_flow(tps_units::KgPerHour::new(14.0)),
            )
            .solve(&power)
            .unwrap();
        assert!(boosted.thermal.die_layer().max() < base.thermal.die_layer().max());
    }

    #[test]
    #[should_panic(expected = "power grid mismatch")]
    fn power_grid_must_match() {
        let sim = coarse_sim();
        let wrong = GridSpec::new(4, 4, Rect::from_mm(0.0, 0.0, 4.0, 4.0));
        let _ = sim.solve(&ScalarField::zeros(wrong));
    }
}
