//! The end-to-end server simulation driver.

use crate::heat::breakdown_for_mapping;
use crate::mapping::{MappingContext, MappingPolicy};
use crate::select::ConfigSelector;
use core::fmt;
use tps_floorplan::{xeon_e5_v4, CoreTopology, Floorplan, PackageGeometry, ScalarField};
use tps_power::{power_field, CState, DiePowerBreakdown};
use tps_thermal::ThermalMetrics;
use tps_thermosyphon::{
    CoupledSimulation, CoupledSolution, CouplingError, OperatingPoint, ThermosyphonDesign,
};
use tps_workload::{Benchmark, ConfigProfile, QosClass};

/// A thermosyphon-cooled Xeon server: floorplan + package + coupled
/// thermal/thermosyphon simulation, ready to run workloads end to end.
#[derive(Debug, Clone)]
pub struct Server {
    floorplan: Floorplan,
    topology: CoreTopology,
    package: PackageGeometry,
    sim: CoupledSimulation,
}

/// Builder for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    design: Option<ThermosyphonDesign>,
    op: OperatingPoint,
    grid_pitch_mm: f64,
}

/// Error running a workload on a server.
#[derive(Debug)]
pub enum RunError {
    /// No configuration satisfies the QoS constraint.
    NoFeasibleConfig {
        /// The application.
        bench: Benchmark,
        /// The violated constraint.
        qos: QosClass,
    },
    /// The coupled thermosyphon/thermal solve failed.
    Coupling(CouplingError),
    /// A fleet run's control-tick or telemetry-sample interval is too
    /// short to step the run to its end.
    IntervalTooShort {
        /// What re-arms at the interval (`control tick`, `telemetry sample`).
        what: &'static str,
        /// The interval, seconds.
        interval_s: f64,
        /// The last arrival plus its service time: the run lasts at least
        /// this long, seconds.
        horizon_s: f64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::NoFeasibleConfig { bench, qos } => {
                write!(
                    f,
                    "no configuration of `{bench}` meets the {qos} QoS constraint"
                )
            }
            RunError::Coupling(e) => write!(f, "coupled simulation failed: {e}"),
            RunError::IntervalTooShort {
                what,
                interval_s,
                horizon_s,
            } => write!(
                f,
                "the {what} interval of {interval_s:?} s cannot step a run that lasts at least \
                 {horizon_s:?} s: it needs more than {} {what}s or stops advancing time \
                 (raise the interval)",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Coupling(e) => Some(e),
            RunError::NoFeasibleConfig { .. } | RunError::IntervalTooShort { .. } => None,
        }
    }
}

impl From<CouplingError> for RunError {
    fn from(e: CouplingError) -> Self {
        RunError::Coupling(e)
    }
}

/// One application planned onto a [`Server`], not yet solved: the first
/// half of [`Server::run`], costing microseconds where the coupled solve
/// of the second half ([`Server::solve_plan`]) costs milliseconds.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// The selected configuration and its profiled power/QoS row.
    pub profile: ConfigProfile,
    /// The cores the threads were mapped to (1-based).
    pub mapping: Vec<u8>,
    /// The C-state idle cores were parked in.
    pub idle_cstate: CState,
    /// The per-component heat estimate fed to the thermal model.
    pub breakdown: DiePowerBreakdown,
}

/// The result of running one application on a [`Server`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The selected configuration and its profiled power/QoS row.
    pub profile: ConfigProfile,
    /// The cores the threads were mapped to (1-based).
    pub mapping: Vec<u8>,
    /// The C-state idle cores were parked in.
    pub idle_cstate: CState,
    /// The per-component heat estimate fed to the thermal model.
    pub breakdown: DiePowerBreakdown,
    /// The converged coupled solution (temperature fields, T_sat, T_case…).
    pub solution: CoupledSolution,
    /// Die metrics (die layer, die outline): the paper's "Die" rows.
    pub die: ThermalMetrics,
    /// Package metrics (spreader layer, spreader outline): "Package" rows.
    pub package: ThermalMetrics,
}

impl Server {
    /// Starts a builder with the paper defaults (paper thermosyphon design,
    /// 7 kg/h @ 30 °C water, 0.5 mm grid).
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            design: None,
            op: OperatingPoint::paper(),
            grid_pitch_mm: 0.5,
        }
    }

    /// The paper's server at a given simulation grid pitch (mm).
    pub fn xeon(grid_pitch_mm: f64) -> Self {
        Self::builder().grid_pitch_mm(grid_pitch_mm).build()
    }

    /// The core-slot topology.
    pub fn topology(&self) -> &CoreTopology {
        &self.topology
    }

    /// The coupled simulation (design, operating point, thermal model).
    pub fn simulation(&self) -> &CoupledSimulation {
        &self.sim
    }

    /// Returns a server identical to this one at a different operating
    /// point (shares the assembled thermal model).
    pub fn with_operating_point(&self, op: OperatingPoint) -> Self {
        Self {
            sim: self.sim.with_operating_point(op),
            floorplan: self.floorplan.clone(),
            topology: self.topology.clone(),
            package: self.package.clone(),
        }
    }

    /// Runs one application end to end: [`plan`](Self::plan), then
    /// [`solve_plan`](Self::solve_plan).
    ///
    /// # Errors
    ///
    /// [`RunError::NoFeasibleConfig`] if the selector finds nothing;
    /// [`RunError::Coupling`] if the physics solve fails.
    pub fn run(
        &self,
        bench: Benchmark,
        qos: QosClass,
        selector: &dyn ConfigSelector,
        policy: &dyn MappingPolicy,
    ) -> Result<RunOutcome, RunError> {
        self.solve_plan(self.plan(bench, qos, selector, policy)?)
    }

    /// Plans one application without solving it: C-state choice →
    /// configuration selection → mapping → heat estimation.
    ///
    /// # Errors
    ///
    /// [`RunError::NoFeasibleConfig`] if the selector finds nothing.
    pub fn plan(
        &self,
        bench: Benchmark,
        qos: QosClass,
        selector: &dyn ConfigSelector,
        policy: &dyn MappingPolicy,
    ) -> Result<RunPlan, RunError> {
        let idle_cstate = CState::deepest_within(qos.idle_delay_tolerance());
        // The P_i vectors come from offline profiling, where idle cores sit
        // in the default POLL state (this reproduces the paper's
        // 40.5–79.3 W configuration power band); the *runtime* then parks
        // idle cores in the deepest C-state the QoS delay tolerance allows.
        let selected = selector
            .select(bench, qos, CState::Poll)
            .ok_or(RunError::NoFeasibleConfig { bench, qos })?;
        let profile = tps_workload::profile_config(bench, selected.config, idle_cstate);
        let ctx = MappingContext::new(&self.topology, self.sim.design().orientation(), idle_cstate);
        let mapping = policy.select_cores(profile.config.n_cores() as usize, &ctx);
        let breakdown = breakdown_for_mapping(&profile, &mapping);
        Ok(RunPlan {
            profile,
            mapping,
            idle_cstate,
            breakdown,
        })
    }

    /// Solves a plan's coupled thermal problem.
    ///
    /// # Errors
    ///
    /// [`RunError::Coupling`] if the physics solve fails.
    pub fn solve_plan(&self, plan: RunPlan) -> Result<RunOutcome, RunError> {
        let (solution, die, package) = self.solve_breakdown(&plan.breakdown)?;
        let RunPlan {
            profile,
            mapping,
            idle_cstate,
            breakdown,
        } = plan;
        Ok(RunOutcome {
            profile,
            mapping,
            idle_cstate,
            breakdown,
            solution,
            die,
            package,
        })
    }

    /// Solves the coupled problem for an explicit per-component power
    /// breakdown (used by the figure binaries that bypass the scheduler).
    ///
    /// # Errors
    ///
    /// Propagates [`CouplingError`] from the physics solve.
    pub fn solve_breakdown(
        &self,
        breakdown: &DiePowerBreakdown,
    ) -> Result<(CoupledSolution, ThermalMetrics, ThermalMetrics), RunError> {
        let power = self.power_field(breakdown);
        let solution = self.sim.solve(&power)?;
        let die = self.die_metrics(&solution);
        let package = self.package_metrics(&solution);
        Ok((solution, die, package))
    }

    /// Rasterizes a breakdown onto the simulation grid (die coordinates are
    /// offset into the package).
    pub fn power_field(&self, breakdown: &DiePowerBreakdown) -> ScalarField {
        power_field(
            &self.floorplan,
            self.sim.grid(),
            self.package.die_offset(),
            breakdown,
        )
    }

    /// Die metrics: die layer restricted to the die outline.
    pub(crate) fn die_metrics(&self, solution: &CoupledSolution) -> ThermalMetrics {
        ThermalMetrics::in_rect(solution.thermal.die_layer(), &self.package.die_rect())
    }

    /// Package metrics: spreader layer over the whole spreader.
    pub(crate) fn package_metrics(&self, solution: &CoupledSolution) -> ThermalMetrics {
        let layer = solution
            .thermal
            .layer_by_name("spreader")
            .unwrap_or_else(|| solution.thermal.top_layer());
        ThermalMetrics::of_field(layer)
    }
}

impl ServerBuilder {
    /// Overrides the thermosyphon design (default: the paper design).
    pub fn design(mut self, design: ThermosyphonDesign) -> Self {
        self.design = Some(design);
        self
    }

    /// Sets the water-side operating point.
    pub fn operating_point(mut self, op: OperatingPoint) -> Self {
        self.op = op;
        self
    }

    /// Sets the simulation grid pitch in millimetres.
    ///
    /// # Panics
    ///
    /// Panics if non-positive.
    pub fn grid_pitch_mm(mut self, pitch: f64) -> Self {
        assert!(pitch > 0.0, "grid pitch must be positive");
        self.grid_pitch_mm = pitch;
        self
    }

    /// Assembles the server (builds the thermal model once).
    pub fn build(self) -> Server {
        let floorplan = xeon_e5_v4();
        let topology = CoreTopology::from_floorplan(&floorplan);
        let package = PackageGeometry::xeon(&floorplan);
        let design = self
            .design
            .unwrap_or_else(|| ThermosyphonDesign::paper_design(&package));
        let sim = CoupledSimulation::builder(design, self.op)
            .package(package.clone())
            .grid_pitch_mm(self.grid_pitch_mm)
            .build();
        Server {
            floorplan,
            topology,
            package,
            sim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{CoskunBalancing, InletFirstMapping, ProposedMapping};
    use crate::select::MinPowerSelector;

    fn coarse_server() -> Server {
        Server::xeon(2.0)
    }

    #[test]
    fn run_pipeline_end_to_end() {
        let server = coarse_server();
        let out = server
            .run(
                Benchmark::X264,
                QosClass::TwoX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        assert_eq!(out.mapping.len(), out.profile.config.n_cores() as usize);
        assert!(QosClass::TwoX.is_met_by(out.profile.normalized_time));
        // Die runs hotter than package; both above the 30 °C water.
        assert!(out.die.max > out.package.max);
        assert!(out.package.avg.value() > 30.0);
        // The breakdown total matches the profiled package power.
        assert!((out.breakdown.total().value() - out.profile.package_power.value()).abs() < 1e-9);
    }

    #[test]
    fn one_x_qos_uses_poll_and_all_cores() {
        let server = coarse_server();
        let out = server
            .run(
                Benchmark::Ferret,
                QosClass::OneX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        assert_eq!(out.idle_cstate, CState::Poll);
        assert_eq!(out.profile.config.n_cores(), 8);
    }

    #[test]
    fn three_x_qos_uses_deep_sleep_and_fewer_cores() {
        let server = coarse_server();
        let out = server
            .run(
                Benchmark::Swaptions,
                QosClass::ThreeX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        assert_eq!(out.idle_cstate, CState::C6);
        assert!(out.profile.config.n_cores() < 8);
    }

    #[test]
    fn proposed_beats_inlet_first_on_hotspots() {
        // The headline ordering of Table II, at one representative point.
        let server = coarse_server();
        let ours = server
            .run(
                Benchmark::Fluidanimate,
                QosClass::ThreeX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        let sabry = server
            .run(
                Benchmark::Fluidanimate,
                QosClass::ThreeX,
                &MinPowerSelector,
                &InletFirstMapping,
            )
            .unwrap();
        assert!(
            ours.die.max < sabry.die.max,
            "proposed {} should beat inlet-first {}",
            ours.die,
            sabry.die
        );
    }

    #[test]
    fn proposed_matches_or_beats_coskun_at_three_x() {
        let server = coarse_server();
        let ours = server
            .run(
                Benchmark::Bodytrack,
                QosClass::ThreeX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        let coskun = server
            .run(
                Benchmark::Bodytrack,
                QosClass::ThreeX,
                &MinPowerSelector,
                &CoskunBalancing,
            )
            .unwrap();
        assert!(
            ours.die.max.value() <= coskun.die.max.value() + 0.05,
            "proposed {} should not lose to coskun {}",
            ours.die,
            coskun.die
        );
    }

    #[test]
    fn core_temperatures_reflect_the_mapping() {
        let server = coarse_server();
        let out = server
            .run(
                Benchmark::Raytrace,
                QosClass::ThreeX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        // Mean temperature of each core's footprint on the die layer.
        let die = out.solution.thermal.die_layer();
        let (ox, oy) = server.package.die_offset();
        let temps: Vec<f64> = (1..=8u8)
            .map(|c| {
                let rect = server.floorplan.core(c).unwrap().rect().translated(ox, oy);
                die.mean_in_rect(&rect).unwrap()
            })
            .collect();
        let active_mean: f64 = out
            .mapping
            .iter()
            .map(|&c| temps[c as usize - 1])
            .sum::<f64>()
            / out.mapping.len() as f64;
        let idle: Vec<f64> = (1..=8u8)
            .filter(|c| !out.mapping.contains(c))
            .map(|c| temps[c as usize - 1])
            .collect();
        let idle_mean: f64 = idle.iter().sum::<f64>() / idle.len() as f64;
        assert!(
            active_mean > idle_mean + 2.0,
            "active cores {active_mean:.1} °C vs idle {idle_mean:.1} °C"
        );
    }
}
