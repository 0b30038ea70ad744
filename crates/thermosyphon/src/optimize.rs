//! Workload- and platform-aware design optimization (Sec. VI).
//!
//! The paper sizes the thermosyphon against the worst-case workload: pick
//! the orientation/refrigerant/filling ratio that minimizes hot spots under
//! the `T_CASE ≤ 85 °C` constraint, then choose the *highest* water inlet
//! temperature and *lowest* flow that still meet the constraint (Sec. VI-C —
//! both directly cut chiller power).

use crate::coupling::CoupledSimulation;
use crate::design::{Orientation, ThermosyphonDesign};
use crate::operating::OperatingPoint;
use core::fmt;
use tps_floorplan::{GridSpec, PackageGeometry, ScalarField};
use tps_fluids::Refrigerant;
use tps_units::{Celsius, Fraction, KgPerHour};

/// Figure of merit of one candidate design under the worst-case workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignObjective {
    /// `T_CASE ≤ T_CASE_MAX` and the solve succeeded.
    pub feasible: bool,
    /// Die hot-spot temperature.
    pub die_max: Celsius,
    /// Maximum spatial gradient on the die, °C/mm.
    pub die_gradient: f64,
    /// Case temperature at the spreader centre.
    pub t_case: Celsius,
}

/// A ranked candidate.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// The candidate design.
    pub design: ThermosyphonDesign,
    /// Its worst-case figures.
    pub objective: DesignObjective,
}

impl fmt::Display for DesignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → die θmax {:.1}, ∇θmax {:.2} °C/mm, T_case {:.1}{}",
            self.design,
            self.objective.die_max.value(),
            self.objective.die_gradient,
            self.objective.t_case.value(),
            if self.objective.feasible {
                ""
            } else {
                " (INFEASIBLE)"
            }
        )
    }
}

/// Grid search over orientation × refrigerant × filling ratio.
#[derive(Debug, Clone)]
pub struct DesignOptimizer {
    orientations: Vec<Orientation>,
    refrigerants: Vec<Refrigerant>,
    filling_ratios: Vec<f64>,
    t_case_max: Celsius,
    grid_pitch_mm: f64,
}

impl Default for DesignOptimizer {
    /// The paper's search space: both candidate orientations, all three
    /// refrigerants, filling ratios 35–75 %, `T_CASE_MAX` = 85 °C.
    fn default() -> Self {
        Self {
            orientations: vec![Orientation::InletEast, Orientation::InletNorth],
            refrigerants: Refrigerant::ALL.to_vec(),
            filling_ratios: vec![0.35, 0.45, 0.55, 0.65, 0.75],
            t_case_max: Celsius::new(85.0),
            grid_pitch_mm: 1.0,
        }
    }
}

impl DesignOptimizer {
    /// Restricts the candidate refrigerants.
    pub fn refrigerants(mut self, r: Vec<Refrigerant>) -> Self {
        assert!(!r.is_empty(), "need at least one refrigerant");
        self.refrigerants = r;
        self
    }

    /// Restricts the candidate filling ratios.
    ///
    /// # Panics
    ///
    /// Panics if empty or any ratio leaves `(0, 1]`.
    pub fn filling_ratios(mut self, fr: Vec<f64>) -> Self {
        assert!(
            !fr.is_empty() && fr.iter().all(|&v| v > 0.0 && v <= 1.0),
            "filling ratios must lie in (0, 1]"
        );
        self.filling_ratios = fr;
        self
    }

    /// Sets the evaluation grid pitch in millimetres.
    pub fn grid_pitch_mm(mut self, pitch: f64) -> Self {
        assert!(pitch > 0.0, "grid pitch must be positive");
        self.grid_pitch_mm = pitch;
        self
    }

    /// Sets the case-temperature constraint (default 85 °C).
    pub fn t_case_max(mut self, t: Celsius) -> Self {
        self.t_case_max = t;
        self
    }

    /// Evaluates one design against the worst-case power map.
    pub(crate) fn evaluate(
        &self,
        design: &ThermosyphonDesign,
        pkg: &PackageGeometry,
        op: OperatingPoint,
        power_for: &dyn Fn(&GridSpec) -> ScalarField,
    ) -> DesignObjective {
        let sim = CoupledSimulation::builder(design.clone(), op)
            .package(pkg.clone())
            .grid_pitch_mm(self.grid_pitch_mm)
            .build();
        let power = power_for(sim.grid());
        match sim.solve(&power) {
            Ok(sol) => {
                let die_rect = pkg.die_rect();
                let m = tps_thermal::ThermalMetrics::in_rect(sol.thermal.die_layer(), &die_rect);
                DesignObjective {
                    feasible: sol.t_case <= self.t_case_max,
                    die_max: m.max,
                    die_gradient: m.max_gradient_c_per_mm,
                    t_case: sol.t_case,
                }
            }
            Err(_) => DesignObjective {
                feasible: false,
                die_max: Celsius::new(f64::INFINITY),
                die_gradient: f64::INFINITY,
                t_case: Celsius::new(f64::INFINITY),
            },
        }
    }

    /// Explores the whole candidate grid, returning reports sorted
    /// best-first (feasible, then coolest hot spot, then flattest gradient).
    pub fn explore(
        &self,
        pkg: &PackageGeometry,
        op: OperatingPoint,
        power_for: &dyn Fn(&GridSpec) -> ScalarField,
    ) -> Vec<DesignReport> {
        let mut reports = Vec::new();
        for &orientation in &self.orientations {
            for &refrigerant in &self.refrigerants {
                for &fr in &self.filling_ratios {
                    let design = ThermosyphonDesign::builder(pkg)
                        .orientation(orientation)
                        .refrigerant(refrigerant)
                        .filling_ratio(Fraction::new(fr).expect("validated by filling_ratios"))
                        .build();
                    let objective = self.evaluate(&design, pkg, op, power_for);
                    reports.push(DesignReport { design, objective });
                }
            }
        }
        reports.sort_by(|a, b| {
            b.objective
                .feasible
                .cmp(&a.objective.feasible)
                .then(
                    a.objective
                        .die_max
                        .value()
                        .total_cmp(&b.objective.die_max.value()),
                )
                .then(
                    a.objective
                        .die_gradient
                        .total_cmp(&b.objective.die_gradient),
                )
        });
        reports
    }

    /// The best design of [`DesignOptimizer::explore`].
    ///
    /// # Panics
    ///
    /// Panics if the candidate space is empty (prevented by construction).
    pub fn best(
        &self,
        pkg: &PackageGeometry,
        op: OperatingPoint,
        power_for: &dyn Fn(&GridSpec) -> ScalarField,
    ) -> DesignReport {
        self.explore(pkg, op, power_for)
            .into_iter()
            .next()
            .expect("candidate space is non-empty by construction")
    }

    /// Sec. VI-C: the highest water inlet temperature, then the lowest flow,
    /// keeping `T_CASE` under the constraint for the worst case. Returns
    /// `None` if no candidate operating point is feasible.
    pub fn optimize_operating(
        &self,
        design: &ThermosyphonDesign,
        pkg: &PackageGeometry,
        water_temps_c: &[f64],
        flows_kg_h: &[f64],
        power_for: &dyn Fn(&GridSpec) -> ScalarField,
    ) -> Option<OperatingPoint> {
        let mut temps: Vec<f64> = water_temps_c.to_vec();
        temps.sort_by(|a, b| b.total_cmp(a)); // warmest first
        let mut flows: Vec<f64> = flows_kg_h.to_vec();
        flows.sort_by(|a, b| a.total_cmp(b)); // lowest first
        for &t in &temps {
            for &f in &flows {
                let op = OperatingPoint::new(KgPerHour::new(f), Celsius::new(t));
                let obj = self.evaluate(design, pkg, op, power_for);
                if obj.feasible {
                    return Some(op);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_floorplan::{xeon_e5_v4, Rect};

    fn pkg() -> PackageGeometry {
        PackageGeometry::xeon(&xeon_e5_v4())
    }

    /// Worst-case-ish map: 79 W concentrated on the core columns.
    fn worst_power(grid: &GridSpec) -> ScalarField {
        let hot = Rect::from_mm(9.0, 11.5, 9.0, 11.3);
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
        let s = 79.3 / f.total();
        f.scale(s);
        f
    }

    fn fast_optimizer() -> DesignOptimizer {
        DesignOptimizer::default()
            .grid_pitch_mm(2.0)
            .refrigerants(vec![Refrigerant::R236fa])
            .filling_ratios(vec![0.35, 0.55, 0.8])
    }

    #[test]
    fn design_1_beats_design_2() {
        // The paper's Fig. 5 conclusion: with the west-heavy Xeon die,
        // east–west channels (Design 1) beat north–south (Design 2).
        let o = fast_optimizer().filling_ratios(vec![0.55]);
        let reports = o.explore(&pkg(), OperatingPoint::paper(), &worst_power);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].design.orientation(), Orientation::InletEast);
        assert!(
            reports[0].objective.die_max < reports[1].objective.die_max,
            "design 1 {} should beat design 2 {}",
            reports[0].objective.die_max,
            reports[1].objective.die_max
        );
    }

    #[test]
    fn optimal_filling_ratio_is_near_55_percent() {
        let o = fast_optimizer();
        let best = o.best(&pkg(), OperatingPoint::paper(), &worst_power);
        assert!(
            (best.design.filling_ratio().value() - 0.55).abs() < 1e-9,
            "best fill {} should be the paper's 55 %",
            best.design.filling_ratio()
        );
    }

    #[test]
    fn operating_point_prefers_warm_water_low_flow() {
        let o = fast_optimizer();
        let design = ThermosyphonDesign::paper_design(&pkg());
        let op = o
            .optimize_operating(
                &design,
                &pkg(),
                &[20.0, 25.0, 30.0],
                &[7.0, 10.0, 14.0],
                &worst_power,
            )
            .expect("a feasible operating point exists");
        // The paper lands on 7 kg/h @ 30 °C; warmest feasible temperature
        // must be picked, and at that temperature the lowest feasible flow.
        assert!(op.water_inlet() >= Celsius::new(30.0) - tps_units::TempDelta::new(1e-9));
        assert_eq!(op.water_flow(), KgPerHour::new(7.0));
    }

    #[test]
    fn infeasible_everywhere_returns_none() {
        let o = fast_optimizer().t_case_max(Celsius::new(10.0));
        let design = ThermosyphonDesign::paper_design(&pkg());
        assert!(o
            .optimize_operating(&design, &pkg(), &[30.0], &[7.0], &worst_power)
            .is_none());
    }

    #[test]
    fn report_display_mentions_feasibility() {
        let o = fast_optimizer()
            .t_case_max(Celsius::new(10.0))
            .filling_ratios(vec![0.55]);
        let r = o.explore(&pkg(), OperatingPoint::paper(), &worst_power);
        assert!(r[0].to_string().contains("INFEASIBLE"));
    }
}
