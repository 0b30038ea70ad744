//! The scenario schema: typed extraction of a [`Scenario`] from a parsed
//! spec table, with line-numbered, actionable errors.
//!
//! `docs/SCENARIOS.md` is the reference for every key, its type, default
//! and units. Unknown keys and tables are rejected (a typo should fail
//! loudly, not silently fall back to a default).

use crate::toml::{self, Table, Value};
use std::fmt;
use tps_cluster::{
    synthesize_jobs, synthesize_request_jobs, AutoscaleControl, ControlPolicy, CoolestRackFirst,
    FleetCatalog, FleetConfig, FleetDispatcher, Job, JobMix, LoadSheddingControl, PlanSolver,
    PlannedDispatch, PlannerControl, RoundRobin, ServerClass, ServerPolicy, SetpointScheduler,
    StaticControl, TelemetryConfig, ThermalAwareDispatch,
};
use tps_cooling::Chiller;
use tps_units::{Celsius, Seconds};
use tps_workload::{BurstyDemand, ConstantDemand, DiurnalDemand, ServingDemand};

/// A schema violation: what is wrong, and on which line of the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line in the spec source, when attributable.
    pub line: Option<usize>,
    /// What went wrong and how to fix it.
    pub message: String,
}

impl SpecError {
    pub(crate) fn at(line: usize, message: impl Into<String>) -> Self {
        Self {
            line: Some(line),
            message: message.into(),
        }
    }

    pub(crate) fn global(message: impl Into<String>) -> Self {
        Self {
            line: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<toml::TomlError> for SpecError {
    fn from(e: toml::TomlError) -> Self {
        SpecError::at(e.line, e.message)
    }
}

/// Rejects a spec whose *source* parsed to nothing (a `[sweep]`-only spec
/// is fine — the base scenario is all defaults).
pub(crate) fn reject_empty(doc: &Table) -> Result<(), SpecError> {
    if doc.is_empty() {
        return Err(SpecError::global(
            "the spec is empty — a scenario needs at least one table \
             (see docs/SCENARIOS.md for the schema)",
        ));
    }
    Ok(())
}

/// The shape of the job-arrival stream (mirrors `tps-workload::demand`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DemandKind {
    /// Homogeneous Poisson arrivals at `rate` jobs/s.
    Constant {
        /// Arrival rate, jobs per second.
        rate: f64,
    },
    /// Raised-cosine day/night cycle between `rate × base_fraction` and
    /// `rate`.
    Diurnal {
        /// Peak arrival rate, jobs per second.
        rate: f64,
        /// Trough rate as a fraction of the peak.
        base_fraction: f64,
        /// Cycle period, seconds.
        period_s: f64,
    },
    /// Correlated spikes: background `rate × base_fraction`, bursts at
    /// `rate`.
    Bursty {
        /// Burst arrival rate, jobs per second.
        rate: f64,
        /// Background rate as a fraction of the burst rate.
        base_fraction: f64,
        /// Burst duration, seconds.
        burst_s: f64,
        /// Mean quiet gap between bursts, seconds.
        gap_s: f64,
    },
}

/// Which fleet dispatcher places the jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatcherKind {
    /// Thermally blind striping.
    RoundRobin,
    /// Least-committed-heat rack first.
    CoolestRackFirst,
    /// Marginal-chiller-power ranking with QoS fallback (the paper's
    /// policy lifted to racks).
    ThermalAware,
    /// Total-energy ranking (runtime × power): the greedy single-job
    /// projection of the planner's objective, and the natural fallback
    /// under `policy = "planner"`.
    Planned,
}

impl DispatcherKind {
    /// The dispatcher instance (all four are stateless or cheaply
    /// default-initialized).
    pub fn instantiate(self) -> Box<dyn FleetDispatcher> {
        match self {
            DispatcherKind::RoundRobin => Box::new(RoundRobin::default()),
            DispatcherKind::CoolestRackFirst => Box::new(CoolestRackFirst),
            DispatcherKind::ThermalAware => Box::new(ThermalAwareDispatch::default()),
            DispatcherKind::Planned => Box::new(PlannedDispatch),
        }
    }

    /// The spec-file spelling.
    pub fn spec_name(self) -> &'static str {
        match self {
            DispatcherKind::RoundRobin => "rr",
            DispatcherKind::CoolestRackFirst => "coolest",
            DispatcherKind::ThermalAware => "thermal",
            DispatcherKind::Planned => "planned",
        }
    }
}

/// Which runtime control policy steers the run (the `[control]` table).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlKind {
    /// Open loop: no ticks, no set-point moves (today's behavior).
    Static,
    /// A chiller/heat-reuse set-point program replayed as
    /// `SetpointChange` events.
    Setpoint {
        /// Change instants, seconds, strictly ascending.
        times_s: Vec<f64>,
        /// The set-point taking effect at each instant, °C.
        setpoints_c: Vec<f64>,
    },
    /// Hysteretic admission control evaluated on `ControlTick`s.
    Shed {
        /// Tick cadence, seconds.
        tick_s: f64,
        /// Queued backlog that engages shedding.
        high_watermark: usize,
        /// Backlog at (or below) which shedding releases.
        low_watermark: usize,
    },
    /// Serving-mode capacity scaling: grow/shrink the active-server set
    /// against per-server queue depth and the p99 latency SLO, with
    /// hysteresis (requires `[workload] mode = "serving"`).
    Autoscale {
        /// Tick cadence, seconds.
        tick_s: f64,
        /// Active-server floor the policy never shrinks below.
        min_servers: usize,
        /// Servers added or removed per scaling move (rounded up to
        /// whole racks by the kernel).
        step_servers: usize,
        /// Queued-jobs-per-active-server backlog that triggers scale-up.
        queue_high: f64,
        /// Backlog at (or below) which scale-down is considered.
        queue_low: f64,
        /// The p99 request-latency objective, seconds.
        p99_slo_s: f64,
    },
    /// Joint placement + set-point co-optimization over a horizon of
    /// pending jobs, re-planned on `ControlTick`s.
    Planner {
        /// Tick cadence, seconds.
        tick_s: f64,
        /// Look-ahead window: jobs arriving within this many seconds of
        /// the tick enter the plan.
        horizon_s: f64,
        /// Re-plan every this many ticks (1 = every tick).
        replan_ticks: usize,
        /// Candidate chiller set-points, °C.
        setpoint_grid: Vec<f64>,
        /// Simulated-annealing iteration budget (`solver = "anneal"`).
        anneal_iters: usize,
        /// The solver core: linearized LP or simulated annealing.
        solver: PlanSolver,
    },
}

impl ControlKind {
    /// A fresh policy instance for one simulation run (policies can be
    /// stateful, so every grid point gets its own).
    pub fn instantiate(&self) -> Box<dyn ControlPolicy> {
        match self {
            ControlKind::Static => Box::new(StaticControl),
            ControlKind::Setpoint {
                times_s,
                setpoints_c,
            } => Box::new(SetpointScheduler::new(
                times_s
                    .iter()
                    .zip(setpoints_c)
                    .map(|(&t, &c)| (Seconds::new(t), Celsius::new(c)))
                    .collect(),
            )),
            ControlKind::Shed {
                tick_s,
                high_watermark,
                low_watermark,
            } => Box::new(LoadSheddingControl::new(
                Seconds::new(*tick_s),
                *high_watermark,
                *low_watermark,
            )),
            ControlKind::Autoscale {
                tick_s,
                min_servers,
                step_servers,
                queue_high,
                queue_low,
                p99_slo_s,
            } => Box::new(AutoscaleControl::new(
                Seconds::new(*tick_s),
                *min_servers,
                *step_servers,
                *queue_high,
                *queue_low,
                Seconds::new(*p99_slo_s),
            )),
            ControlKind::Planner {
                tick_s,
                horizon_s,
                replan_ticks,
                setpoint_grid,
                anneal_iters,
                solver,
            } => Box::new(PlannerControl::new(
                Seconds::new(*tick_s),
                Seconds::new(*horizon_s),
                *replan_ticks,
                setpoint_grid.clone(),
                *anneal_iters,
                *solver,
            )),
        }
    }

    /// The spec-file spelling.
    pub fn spec_name(&self) -> &'static str {
        match self {
            ControlKind::Static => "static",
            ControlKind::Setpoint { .. } => "setpoint",
            ControlKind::Shed { .. } => "shed",
            ControlKind::Autoscale { .. } => "autoscale",
            ControlKind::Planner { .. } => "planner",
        }
    }
}

/// Telemetry sampling options (the `[telemetry]` table). Present in a
/// scenario only when the spec carries the table; traces are actually
/// collected when the caller asks for them (`tps … --trace-out`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySpec {
    /// Sample cadence, seconds.
    pub sample_s: f64,
    /// Trace ring capacity (oldest samples drop beyond this).
    pub capacity: usize,
}

impl Default for TelemetrySpec {
    /// The `tps-cluster` defaults: 30 s cadence, 16 384-sample ring.
    fn default() -> Self {
        let defaults = TelemetryConfig::default();
        Self {
            sample_s: defaults.sample_interval.value(),
            capacity: defaults.capacity,
        }
    }
}

impl TelemetrySpec {
    /// The kernel-level sampling configuration.
    pub fn to_config(self) -> TelemetryConfig {
        TelemetryConfig {
            sample_interval: Seconds::new(self.sample_s),
            capacity: self.capacity,
        }
    }
}

/// Serving-mode parameters of the `[workload]` table: the open-loop
/// request stream rides the diurnal cycle and multiplies it by `surge`
/// inside seeded flash-crowd windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingSpec {
    /// Rate multiplier inside a surge window (≥ 1).
    pub surge: f64,
    /// Surge-window duration, seconds.
    pub surge_s: f64,
    /// Mean quiet gap between surge windows, seconds.
    pub surge_gap_s: f64,
}

/// One `[[server_class]]` declaration: a named hardware class whose
/// `None` fields inherit the fleet-wide defaults (`fleet.grid_pitch_mm`,
/// `cooling.water_inlet_c`, `fleet.policy`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Class name (referenced from `fleet.classes`).
    pub name: String,
    /// Thermal-grid pitch override, mm.
    pub grid_pitch_mm: Option<f64>,
    /// Water-inlet override, °C.
    pub water_inlet_c: Option<f64>,
    /// Mapping-policy override.
    pub policy: Option<ServerPolicy>,
}

/// The axis values a sweep makes reachable beyond the base spec's own
/// selections — relaxes per-model key applicability checks (a `period_s`
/// is fine under constant demand if `workload.demand` is swept to
/// diurnal, and a `times_s` is fine under static control if
/// `control.policy` is swept to setpoint).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SweptAxes {
    /// Demand models a `workload.demand` axis can switch to.
    pub demands: Vec<String>,
    /// Control policies a `control.policy` axis can switch to.
    pub controls: Vec<String>,
    /// Workload modes a `workload.mode` axis can switch to.
    pub modes: Vec<String>,
}

/// One fully validated scenario: everything needed to synthesize its job
/// stream and simulate its fleet.
///
/// ```
/// use tps_scenario::Scenario;
///
/// let spec = "
///     [fleet]
///     racks = 2
///     servers_per_rack = 2
///     grid_pitch_mm = 3.0
///     [workload]
///     jobs = 8
/// ";
/// let s = Scenario::parse(spec, "demo").unwrap();
/// assert_eq!(s.name, "demo");
/// assert_eq!(s.racks * s.servers_per_rack, 4);
/// assert_eq!(s.synthesize_jobs().len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (the `name` key, else the caller-provided hint).
    pub name: String,
    /// Rack count (one chiller water loop per rack).
    pub racks: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// Per-server thermal-grid pitch, millimetres.
    pub grid_pitch_mm: f64,
    /// Per-server mapping policy.
    pub policy: ServerPolicy,
    /// OS threads for the physics-cache warm-up.
    pub threads: usize,
    /// Chiller heat-rejection / heat-reuse loop temperature, °C.
    pub heat_reuse_c: f64,
    /// Water inlet of the server thermosyphon loops, °C (5–60).
    pub water_inlet_c: f64,
    /// Number of jobs in the stream.
    pub jobs: usize,
    /// Reproducibility seed for arrivals and job attributes.
    pub seed: u64,
    /// Arrival-stream shape.
    pub demand: DemandKind,
    /// Serving-mode parameters (`[workload] mode = "serving"`); `None`
    /// in batch mode. Serving streams are open-loop interactive requests
    /// over the diurnal envelope with flash-crowd surges.
    pub serving: Option<ServingSpec>,
    /// Mean native-configuration service time, seconds.
    pub mean_service_s: f64,
    /// Relative weights of the 1×/2×/3× QoS classes.
    pub qos_weights: [f64; 3],
    /// The fleet dispatcher.
    pub dispatcher: DispatcherKind,
    /// The runtime control policy.
    pub control: ControlKind,
    /// Telemetry options, when the spec carries a `[telemetry]` table.
    pub telemetry: Option<TelemetrySpec>,
    /// Declared server classes (`[[server_class]]`), empty on a
    /// homogeneous spec.
    pub classes: Vec<ClassSpec>,
    /// Per-rack class patterns (class ids, cycled across each rack's
    /// slots), one entry per rack; empty on a homogeneous spec.
    pub rack_classes: Vec<Vec<usize>>,
}

impl Scenario {
    /// Parses and validates a scenario spec. `[sweep]` and `[report]`
    /// tables are ignored here (the sweep engine owns them); everything
    /// else must conform to the schema in `docs/SCENARIOS.md`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending line for syntax
    /// errors, unknown keys or tables, type mismatches, and out-of-range
    /// values.
    pub fn parse(src: &str, name_hint: &str) -> Result<Self, SpecError> {
        let mut doc = toml::parse(src)?;
        reject_empty(&doc)?;
        doc.remove("sweep");
        doc.remove("report");
        Self::from_table(&doc, name_hint, &SweptAxes::default())
    }

    /// Builds a scenario from an already-parsed root table (with `sweep`
    /// and `report` removed; an empty table means "all defaults").
    ///
    /// `swept` lists the demand models and control policies sweep axes
    /// can switch to: model/policy-specific keys are accepted if *any*
    /// reachable selection uses them.
    pub(crate) fn from_table(
        doc: &Table,
        name_hint: &str,
        swept: &SweptAxes,
    ) -> Result<Self, SpecError> {
        let root = Ctx::new(doc, None);
        root.allow(&[
            "name",
            "fleet",
            "cooling",
            "workload",
            "dispatch",
            "control",
            "telemetry",
            "server_class",
        ])?;
        let name = root.string("name", name_hint)?;

        let fleet = root.table("fleet")?;
        fleet.allow(&[
            "racks",
            "servers_per_rack",
            "grid_pitch_mm",
            "policy",
            "threads",
            "classes",
        ])?;
        let racks = fleet.count("racks", 2)?;
        let servers_per_rack = fleet.count("servers_per_rack", 8)?;
        let grid_pitch_mm = fleet.positive_f64("grid_pitch_mm", 2.0)?;
        let policy = match policy_from_name(&fleet.string("policy", "proposed")?) {
            Some(p) => p,
            None => {
                let other = fleet.string("policy", "proposed")?;
                return Err(fleet.value_error(
                    "policy",
                    format!("unknown policy `{other}` (use proposed, coskun, inlet or packed)"),
                ));
            }
        };
        let threads = match fleet.count_opt("threads")? {
            Some(n) => n,
            None => FleetConfig::default_threads(),
        };

        let classes = parse_server_classes(doc)?;
        let rack_classes = parse_rack_classes(&fleet, doc, racks, &classes)?;

        let cooling = root.table("cooling")?;
        cooling.allow(&["heat_reuse_c", "water_inlet_c"])?;
        let heat_reuse_c = cooling.f64("heat_reuse_c", 70.0)?;
        let water_inlet_c = cooling.f64("water_inlet_c", 30.0)?;
        if !(5.0..=60.0).contains(&water_inlet_c) {
            return Err(cooling.value_error(
                "water_inlet_c",
                format!("water inlet {water_inlet_c} °C outside the 5..=60 °C chiller envelope"),
            ));
        }

        let workload = root.table("workload")?;
        workload.allow(&[
            "jobs",
            "seed",
            "mode",
            "demand",
            "rate",
            "base_fraction",
            "period_s",
            "burst_s",
            "gap_s",
            "surge",
            "surge_s",
            "surge_gap_s",
            "mean_service_s",
            "qos_weights",
        ])?;
        let jobs = workload.count("jobs", 200)?;
        let seed = workload.u64("seed", 42)?;
        let mode = workload.string("mode", "batch")?;
        if mode != "batch" && mode != "serving" {
            return Err(workload.value_error(
                "mode",
                format!("unknown workload mode `{mode}` (use batch or serving)"),
            ));
        }
        // Mode-specific keys must apply to some *reachable* mode — the
        // selected one, or one a `workload.mode` axis can switch to. The
        // serving stream is diurnal-with-surges by construction, so the
        // batch demand-model selector (and its burst/QoS keys) doesn't
        // apply; the surge keys don't apply to batch.
        let mode_reachable = |m: &str| mode == m || swept.modes.iter().any(|x| x == m);
        let per_mode_keys: [(&str, &str); 7] = [
            ("demand", "batch"),
            ("burst_s", "batch"),
            ("gap_s", "batch"),
            ("qos_weights", "batch"),
            ("surge", "serving"),
            ("surge_s", "serving"),
            ("surge_gap_s", "serving"),
        ];
        for (key, m) in per_mode_keys {
            if workload.has(key) && !mode_reachable(m) {
                return Err(workload.value_error(
                    key,
                    format!(
                        "`{key}` only applies to the {m} workload mode but mode = \
                         `{mode}` — remove it or sweep workload.mode"
                    ),
                ));
            }
        }
        let rate = workload.positive_f64("rate", 0.7)?;
        let base_fraction = workload.f64("base_fraction", 0.2)?;
        if !(0.0..=1.0).contains(&base_fraction) {
            return Err(workload.value_error(
                "base_fraction",
                format!("base_fraction {base_fraction} must lie in [0, 1]"),
            ));
        }
        let demand_name = workload.string("demand", "diurnal")?;
        // Demand-specific keys must apply to some *reachable* model —
        // the selected one, or one a `workload.demand` sweep axis can
        // switch to — so a swept `period_s` under constant demand fails
        // loudly instead of silently measuring nothing.
        let reachable = |kind: &str| demand_name == kind || swept.demands.iter().any(|d| d == kind);
        let per_model_keys: [(&str, &[&str]); 4] = [
            ("base_fraction", &["diurnal", "bursty"]),
            ("period_s", &["diurnal"]),
            ("burst_s", &["bursty"]),
            ("gap_s", &["bursty"]),
        ];
        for (key, models) in per_model_keys {
            if workload.has(key) && !models.iter().any(|m| reachable(m)) {
                return Err(workload.value_error(
                    key,
                    format!(
                        "`{key}` only applies to the {} demand model{} but demand = \
                         `{demand_name}` — remove it or sweep workload.demand",
                        models.join("/"),
                        if models.len() == 1 { "" } else { "s" },
                    ),
                ));
            }
        }
        let demand = match demand_name.as_str() {
            "constant" => DemandKind::Constant { rate },
            "diurnal" => DemandKind::Diurnal {
                rate,
                base_fraction,
                period_s: workload.positive_f64("period_s", 600.0)?,
            },
            "bursty" => DemandKind::Bursty {
                rate,
                base_fraction,
                burst_s: workload.positive_f64("burst_s", 60.0)?,
                gap_s: workload.positive_f64("gap_s", 240.0)?,
            },
            other => {
                return Err(workload.value_error(
                    "demand",
                    format!("unknown demand model `{other}` (use constant, diurnal or bursty)"),
                ))
            }
        };
        let serving = if mode == "serving" {
            let surge = workload.f64("surge", 2.5)?;
            if !(surge >= 1.0 && surge.is_finite()) {
                return Err(workload.value_error(
                    "surge",
                    format!("`surge` must be a finite multiplier of at least 1, got {surge}"),
                ));
            }
            Some(ServingSpec {
                surge,
                surge_s: workload.positive_f64("surge_s", 60.0)?,
                surge_gap_s: workload.positive_f64("surge_gap_s", 420.0)?,
            })
        } else {
            None
        };
        let mean_service_s = workload.positive_f64("mean_service_s", 40.0)?;
        let qos_weights = workload.weights3("qos_weights", [0.2, 0.4, 0.4])?;

        let dispatch = root.table("dispatch")?;
        dispatch.allow(&["dispatcher"])?;
        let dispatcher = match dispatch.string("dispatcher", "thermal")?.as_str() {
            "rr" => DispatcherKind::RoundRobin,
            "coolest" => DispatcherKind::CoolestRackFirst,
            "thermal" => DispatcherKind::ThermalAware,
            "planned" => DispatcherKind::Planned,
            other => {
                return Err(dispatch.value_error(
                    "dispatcher",
                    format!("unknown dispatcher `{other}` (use rr, coolest, thermal or planned)"),
                ))
            }
        };

        let control_tbl = root.table("control")?;
        control_tbl.allow(&[
            "policy",
            "times_s",
            "setpoints_c",
            "tick_s",
            "high_watermark",
            "low_watermark",
            "min_servers",
            "step_servers",
            "queue_high",
            "queue_low",
            "p99_slo_s",
            "horizon_s",
            "replan_ticks",
            "setpoint_grid",
            "anneal_iters",
            "solver",
        ])?;
        let control_name = control_tbl.string("policy", "static")?;
        // Policy-specific keys must apply to some *reachable* policy —
        // the selected one, or one a `control.policy` sweep axis can
        // switch to (mirrors the demand-model key check above).
        let ctrl_reachable =
            |kind: &str| control_name == kind || swept.controls.iter().any(|c| c == kind);
        let per_policy_keys: [(&str, &[&str]); 15] = [
            ("times_s", &["setpoint"]),
            ("setpoints_c", &["setpoint"]),
            ("tick_s", &["shed", "autoscale", "planner"]),
            ("high_watermark", &["shed"]),
            ("low_watermark", &["shed"]),
            ("min_servers", &["autoscale"]),
            ("step_servers", &["autoscale"]),
            ("queue_high", &["autoscale"]),
            ("queue_low", &["autoscale"]),
            ("p99_slo_s", &["autoscale"]),
            ("horizon_s", &["planner"]),
            ("replan_ticks", &["planner"]),
            ("setpoint_grid", &["planner"]),
            ("anneal_iters", &["planner"]),
            ("solver", &["planner"]),
        ];
        for (key, policies) in per_policy_keys {
            if control_tbl.has(key) && !policies.iter().any(|p| ctrl_reachable(p)) {
                return Err(control_tbl.value_error(
                    key,
                    format!(
                        "`{key}` only applies to the {} control polic{} but policy = \
                         `{control_name}` — remove it or sweep control.policy",
                        policies.join("/"),
                        if policies.len() == 1 { "y" } else { "ies" },
                    ),
                ));
            }
        }
        let control = match control_name.as_str() {
            "static" => ControlKind::Static,
            "setpoint" => {
                let times_s = control_tbl.f64_array("times_s")?.ok_or_else(|| {
                    control_tbl.value_error(
                        "policy",
                        "the setpoint policy needs a `times_s` array of change instants".to_owned(),
                    )
                })?;
                let setpoints_c = control_tbl.f64_array("setpoints_c")?.ok_or_else(|| {
                    control_tbl.value_error(
                        "policy",
                        "the setpoint policy needs a `setpoints_c` array of temperatures"
                            .to_owned(),
                    )
                })?;
                if times_s.is_empty() || times_s.len() != setpoints_c.len() {
                    return Err(control_tbl.value_error(
                        "times_s",
                        format!(
                            "`times_s` ({}) and `setpoints_c` ({}) must be non-empty arrays of \
                             equal length",
                            times_s.len(),
                            setpoints_c.len()
                        ),
                    ));
                }
                for (i, &t) in times_s.iter().enumerate() {
                    if !(t >= 0.0 && t.is_finite()) {
                        return Err(control_tbl.value_error(
                            "times_s",
                            format!("set-point time {t} must be non-negative and finite"),
                        ));
                    }
                    if i > 0 && times_s[i - 1] >= t {
                        return Err(control_tbl.value_error(
                            "times_s",
                            format!(
                                "`times_s` must be strictly ascending ({} then {t})",
                                times_s[i - 1]
                            ),
                        ));
                    }
                }
                if let Some(&bad) = setpoints_c.iter().find(|c| !c.is_finite()) {
                    return Err(control_tbl
                        .value_error("setpoints_c", format!("set-point {bad} °C must be finite")));
                }
                ControlKind::Setpoint {
                    times_s,
                    setpoints_c,
                }
            }
            "shed" => {
                let tick_s = control_tbl.positive_f64("tick_s", 60.0)?;
                let high_watermark = control_tbl.count("high_watermark", 8)?;
                let low_watermark = match control_tbl.u64("low_watermark", 2)? {
                    n if n <= usize::MAX as u64 => n as usize,
                    n => {
                        return Err(control_tbl.value_error(
                            "low_watermark",
                            format!("`low_watermark` {n} overflows"),
                        ))
                    }
                };
                if low_watermark >= high_watermark {
                    return Err(control_tbl.value_error(
                        "low_watermark",
                        format!(
                            "need low_watermark < high_watermark for hysteresis \
                             (got {low_watermark} ≥ {high_watermark})"
                        ),
                    ));
                }
                ControlKind::Shed {
                    tick_s,
                    high_watermark,
                    low_watermark,
                }
            }
            "autoscale" => {
                if serving.is_none() && !swept.modes.iter().any(|m| m == "serving") {
                    return Err(control_tbl.value_error(
                        "policy",
                        "the autoscale policy needs `mode = \"serving\"` in `[workload]` \
                         (it scales the active-server set against request latency)"
                            .to_owned(),
                    ));
                }
                let tick_s = control_tbl.positive_f64("tick_s", 30.0)?;
                let min_servers = control_tbl.count("min_servers", 1)?;
                let step_servers = control_tbl.count("step_servers", 1)?;
                let queue_high = control_tbl.positive_f64("queue_high", 2.0)?;
                let queue_low = control_tbl.f64("queue_low", 0.25)?;
                if !(queue_low >= 0.0 && queue_low < queue_high) {
                    return Err(control_tbl.value_error(
                        "queue_low",
                        format!(
                            "need 0 <= queue_low < queue_high for hysteresis \
                             (got {queue_low} vs {queue_high})"
                        ),
                    ));
                }
                let p99_slo_s = control_tbl.positive_f64("p99_slo_s", 10.0)?;
                ControlKind::Autoscale {
                    tick_s,
                    min_servers,
                    step_servers,
                    queue_high,
                    queue_low,
                    p99_slo_s,
                }
            }
            "planner" => {
                let tick_s = control_tbl.positive_f64("tick_s", 30.0)?;
                let horizon_s = control_tbl.positive_f64("horizon_s", 120.0)?;
                let replan_ticks = control_tbl.count("replan_ticks", 1)?;
                let setpoint_grid = control_tbl.f64_array("setpoint_grid")?.ok_or_else(|| {
                    control_tbl.value_error(
                        "policy",
                        "the planner policy needs a `setpoint_grid` array of candidate \
                         set-points (°C)"
                            .to_owned(),
                    )
                })?;
                if setpoint_grid.is_empty() {
                    return Err(control_tbl.value_error(
                        "setpoint_grid",
                        "`setpoint_grid` must list at least one candidate set-point".to_owned(),
                    ));
                }
                if let Some(&bad) = setpoint_grid.iter().find(|c| !c.is_finite()) {
                    return Err(control_tbl.value_error(
                        "setpoint_grid",
                        format!("set-point {bad} °C must be finite"),
                    ));
                }
                let anneal_iters = control_tbl.count("anneal_iters", 2_000)?;
                let solver = match control_tbl.string("solver", "lp")?.as_str() {
                    "lp" => PlanSolver::Lp,
                    "anneal" => PlanSolver::Anneal,
                    other => {
                        return Err(control_tbl.value_error(
                            "solver",
                            format!("unknown planner solver `{other}` (use lp or anneal)"),
                        ))
                    }
                };
                ControlKind::Planner {
                    tick_s,
                    horizon_s,
                    replan_ticks,
                    setpoint_grid,
                    anneal_iters,
                    solver,
                }
            }
            other => {
                return Err(control_tbl.value_error(
                    "policy",
                    format!(
                        "unknown control policy `{other}` \
                         (use static, setpoint, shed, autoscale or planner)"
                    ),
                ))
            }
        };

        let telemetry = if root.has("telemetry") {
            let tel = root.table("telemetry")?;
            tel.allow(&["sample_s", "capacity"])?;
            Some(TelemetrySpec {
                sample_s: tel.positive_f64("sample_s", 30.0)?,
                capacity: tel.count("capacity", 16_384)?,
            })
        } else {
            None
        };

        Ok(Self {
            name,
            racks,
            servers_per_rack,
            grid_pitch_mm,
            policy,
            threads,
            heat_reuse_c,
            water_inlet_c,
            jobs,
            seed,
            demand,
            serving,
            mean_service_s,
            qos_weights,
            dispatcher,
            control,
            telemetry,
            classes,
            rack_classes,
        })
    }

    /// The fleet configuration this scenario describes.
    pub fn fleet_config(&self) -> FleetConfig {
        let mut config = FleetConfig::new(self.racks, self.servers_per_rack);
        config.grid_pitch_mm = self.grid_pitch_mm;
        config.op = config.op.with_inlet(Celsius::new(self.water_inlet_c));
        config.chiller = Chiller::new(Celsius::new(self.heat_reuse_c));
        config.policy = self.policy;
        config.threads = self.threads;
        if !self.classes.is_empty() {
            config.catalog = FleetCatalog::new(
                self.classes
                    .iter()
                    .map(|c| {
                        let mut class = ServerClass::new(c.name.clone());
                        class.grid_pitch_mm = c.grid_pitch_mm;
                        class.water_inlet_c = c.water_inlet_c;
                        class.policy = c.policy;
                        class
                    })
                    .collect(),
            )
            .assign(self.rack_classes.clone());
        }
        config.serving = self.serving.is_some();
        config
    }

    /// Synthesizes the scenario's reproducible job stream.
    pub fn synthesize_jobs(&self) -> Vec<Job> {
        if let Some(sv) = self.serving {
            let DemandKind::Diurnal {
                rate,
                base_fraction,
                period_s,
            } = self.demand
            else {
                unreachable!("serving mode always parses a diurnal envelope")
            };
            let demand = ServingDemand::new(
                rate * base_fraction,
                rate,
                Seconds::new(period_s),
                sv.surge,
                Seconds::new(sv.surge_s),
                Seconds::new(sv.surge_gap_s),
                self.seed,
            );
            return synthesize_request_jobs(
                self.jobs,
                &demand,
                Seconds::new(self.mean_service_s),
                self.seed,
            );
        }
        let mix = JobMix {
            qos_weights: self.qos_weights,
            mean_service: Seconds::new(self.mean_service_s),
        };
        match self.demand {
            DemandKind::Constant { rate } => {
                synthesize_jobs(self.jobs, &ConstantDemand::new(rate), mix, self.seed)
            }
            DemandKind::Diurnal {
                rate,
                base_fraction,
                period_s,
            } => synthesize_jobs(
                self.jobs,
                &DiurnalDemand::new(rate * base_fraction, rate, Seconds::new(period_s)),
                mix,
                self.seed,
            ),
            DemandKind::Bursty {
                rate,
                base_fraction,
                burst_s,
                gap_s,
            } => synthesize_jobs(
                self.jobs,
                &BurstyDemand::new(
                    rate * base_fraction,
                    rate,
                    Seconds::new(burst_s),
                    Seconds::new(gap_s),
                    self.seed,
                ),
                mix,
                self.seed,
            ),
        }
    }
}

/// Maps a spec/CLI policy spelling to its [`ServerPolicy`].
fn policy_from_name(name: &str) -> Option<ServerPolicy> {
    match name {
        "proposed" => Some(ServerPolicy::Proposed),
        "coskun" => Some(ServerPolicy::Coskun),
        "inlet" => Some(ServerPolicy::InletFirst),
        "packed" => Some(ServerPolicy::Packed),
        _ => None,
    }
}

/// Parses the `[[server_class]]` declarations, in file order.
fn parse_server_classes(doc: &Table) -> Result<Vec<ClassSpec>, SpecError> {
    let Some(spanned) = doc.get("server_class") else {
        return Ok(Vec::new());
    };
    let Value::Array(items) = &spanned.value else {
        return Err(SpecError::at(
            spanned.line,
            format!(
                "`server_class` must be declared as `[[server_class]]` array-of-tables \
                 headers, found a {}",
                spanned.value.type_name()
            ),
        ));
    };
    let mut classes: Vec<ClassSpec> = Vec::with_capacity(items.len());
    for item in items {
        let Value::Table(table) = &item.value else {
            return Err(SpecError::at(
                item.line,
                "`server_class` entries must be `[[server_class]]` tables".to_owned(),
            ));
        };
        let ctx = Ctx::new(table, Some("server_class"));
        ctx.allow(&["name", "grid_pitch_mm", "water_inlet_c", "policy"])?;
        let name = ctx.string("name", "")?;
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(SpecError::at(
                table.get("name").map_or(item.line, |v| v.line),
                format!(
                    "every `[[server_class]]` needs a `name` of letters, digits and `_` \
                     (got `{name}`)"
                ),
            ));
        }
        if classes.iter().any(|c| c.name == name) {
            return Err(SpecError::at(
                table.get("name").map_or(item.line, |v| v.line),
                format!("duplicate server class `{name}`"),
            ));
        }
        let grid_pitch_mm = ctx.positive_f64_opt("grid_pitch_mm")?;
        let water_inlet_c = ctx.f64_opt("water_inlet_c")?;
        if let Some(t) = water_inlet_c {
            if !(5.0..=60.0).contains(&t) {
                return Err(ctx.value_error(
                    "water_inlet_c",
                    format!("water inlet {t} °C outside the 5..=60 °C chiller envelope"),
                ));
            }
        }
        let policy = match ctx.string_opt("policy")? {
            None => None,
            Some(s) => match policy_from_name(&s) {
                Some(p) => Some(p),
                None => {
                    return Err(ctx.value_error(
                        "policy",
                        format!("unknown policy `{s}` (use proposed, coskun, inlet or packed)"),
                    ))
                }
            },
        };
        classes.push(ClassSpec {
            name,
            grid_pitch_mm,
            water_inlet_c,
            policy,
        });
    }
    Ok(classes)
}

/// Parses the per-rack `classes` assignment of `[fleet]`.
///
/// Accepted forms (each entry names one rack; a lone entry broadcasts to
/// every rack): an array `classes = ["dense", "dense+sparse"]`, or a
/// whitespace-separated string `classes = "dense dense+sparse"` (the
/// sweepable form). A `+`-joined entry cycles those classes across the
/// rack's slots.
fn parse_rack_classes(
    fleet: &Ctx<'_>,
    doc: &Table,
    racks: usize,
    classes: &[ClassSpec],
) -> Result<Vec<Vec<usize>>, SpecError> {
    let Some(spanned) = fleet.table.get("classes") else {
        if !classes.is_empty() {
            return Err(SpecError::at(
                doc.get("server_class").map_or(0, |v| v.line).max(1),
                "`[[server_class]]` declarations need a per-rack `classes = [...]` \
                 assignment in `[fleet]`"
                    .to_owned(),
            ));
        }
        return Ok(Vec::new());
    };
    if classes.is_empty() {
        return Err(SpecError::at(
            spanned.line,
            "`classes` assigns `[[server_class]]` declarations, but the spec declares none"
                .to_owned(),
        ));
    }
    let entries: Vec<String> = match &spanned.value {
        Value::String(s) => s.split_whitespace().map(str::to_owned).collect(),
        Value::Array(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match &item.value {
                    Value::String(s) => out.push(s.clone()),
                    other => {
                        return Err(SpecError::at(
                            item.line,
                            format!(
                                "`classes` entries must be class-name strings, found {}",
                                other.display_compact()
                            ),
                        ))
                    }
                }
            }
            out
        }
        other => {
            return Err(SpecError::at(
                spanned.line,
                format!(
                    "`classes` must be an array of class names (or a whitespace-separated \
                     string), found a {}",
                    other.type_name()
                ),
            ))
        }
    };
    if entries.is_empty() {
        return Err(SpecError::at(
            spanned.line,
            "`classes` is empty — name one entry per rack (or one to broadcast)".to_owned(),
        ));
    }
    if entries.len() != racks && entries.len() != 1 {
        return Err(SpecError::at(
            spanned.line,
            format!(
                "`classes` names {} rack(s) but the fleet has {racks} \
                 (give one entry per rack, or one to broadcast)",
                entries.len()
            ),
        ));
    }
    let resolve = |entry: &str| -> Result<Vec<usize>, SpecError> {
        entry
            .split('+')
            .map(|part| {
                let part = part.trim();
                classes.iter().position(|c| c.name == part).ok_or_else(|| {
                    SpecError::at(
                        spanned.line,
                        format!(
                            "`classes` references undeclared class `{part}` (declared: {})",
                            classes
                                .iter()
                                .map(|c| c.name.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )
                })
            })
            .collect()
    };
    let mut patterns = Vec::with_capacity(racks);
    if entries.len() == 1 {
        let pattern = resolve(&entries[0])?;
        patterns = vec![pattern; racks];
    } else {
        for entry in &entries {
            patterns.push(resolve(entry)?);
        }
    }
    Ok(patterns)
}

/// A typed view over one spec table: getters that turn type mismatches
/// and range violations into line-numbered [`SpecError`]s.
struct Ctx<'a> {
    table: &'a Table,
    /// `None` for the root scope, `Some("[fleet]")`-style otherwise.
    scope: Option<&'a str>,
}

impl<'a> Ctx<'a> {
    fn new(table: &'a Table, scope: Option<&'a str>) -> Self {
        Self { table, scope }
    }

    fn where_am_i(&self) -> String {
        match self.scope {
            Some(s) => format!(" in `[{s}]`"),
            None => " at the top level".to_owned(),
        }
    }

    /// Rejects keys outside `allowed`, naming the line and the options.
    fn allow(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (key, v) in self.table.entries() {
            if !allowed.contains(&key.as_str()) {
                return Err(SpecError::at(
                    v.line,
                    format!(
                        "unknown key `{key}`{} (expected one of: {})",
                        self.where_am_i(),
                        allowed.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }

    /// A sub-table (empty defaults allowed: a missing table means "all
    /// defaults").
    fn table(&self, key: &'a str) -> Result<Ctx<'a>, SpecError> {
        static EMPTY: Table = Table::empty();
        match self.table.get(key) {
            None => Ok(Ctx::new(&EMPTY, Some(key))),
            Some(v) => match &v.value {
                Value::Table(t) => Ok(Ctx::new(t, Some(key))),
                other => Err(SpecError::at(
                    v.line,
                    format!(
                        "`{key}` must be a table header `[{key}]`, found a {}",
                        other.type_name()
                    ),
                )),
            },
        }
    }

    /// Whether the key is present.
    fn has(&self, key: &str) -> bool {
        self.table.get(key).is_some()
    }

    fn value_error(&self, key: &str, message: String) -> SpecError {
        match self.table.get(key) {
            Some(v) => SpecError::at(v.line, message),
            None => SpecError::global(message),
        }
    }

    fn type_error(&self, key: &str, want: &str, found: &Value, line: usize) -> SpecError {
        SpecError::at(
            line,
            format!(
                "`{key}`{} must be a {want}, found a {}",
                self.where_am_i(),
                found.type_name()
            ),
        )
    }

    fn string(&self, key: &str, default: &str) -> Result<String, SpecError> {
        match self.table.get(key) {
            None => Ok(default.to_owned()),
            Some(v) => match &v.value {
                Value::String(s) => Ok(s.clone()),
                other => Err(self.type_error(key, "string", other, v.line)),
            },
        }
    }

    fn string_opt(&self, key: &str) -> Result<Option<String>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => match &v.value {
                Value::String(s) => Ok(Some(s.clone())),
                other => Err(self.type_error(key, "string", other, v.line)),
            },
        }
    }

    fn f64(&self, key: &str, default: f64) -> Result<f64, SpecError> {
        match self.f64_opt(key)? {
            Some(x) => Ok(x),
            None => Ok(default),
        }
    }

    fn f64_opt(&self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => match v.value {
                Value::Float(x) => Ok(Some(x)),
                Value::Integer(i) => Ok(Some(i as f64)),
                ref other => Err(self.type_error(key, "number", other, v.line)),
            },
        }
    }

    fn positive_f64_opt(&self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.f64_opt(key)? {
            None => Ok(None),
            Some(x) if x > 0.0 && x.is_finite() => Ok(Some(x)),
            Some(x) => {
                Err(self.value_error(key, format!("`{key}` must be positive and finite, got {x}")))
            }
        }
    }

    fn positive_f64(&self, key: &str, default: f64) -> Result<f64, SpecError> {
        let x = self.f64(key, default)?;
        if x > 0.0 && x.is_finite() {
            Ok(x)
        } else {
            Err(self.value_error(key, format!("`{key}` must be positive and finite, got {x}")))
        }
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, SpecError> {
        match self.table.get(key) {
            None => Ok(default),
            Some(v) => match v.value {
                Value::Integer(i) if i >= 0 => Ok(i as u64),
                Value::Integer(i) => {
                    Err(self.value_error(key, format!("`{key}` must be non-negative, got {i}")))
                }
                ref other => Err(self.type_error(key, "non-negative integer", other, v.line)),
            },
        }
    }

    /// A positive count (`usize ≥ 1`).
    fn count(&self, key: &str, default: usize) -> Result<usize, SpecError> {
        match self.count_opt(key)? {
            Some(n) => Ok(n),
            None => Ok(default),
        }
    }

    fn count_opt(&self, key: &str) -> Result<Option<usize>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => match v.value {
                Value::Integer(i) if i >= 1 => Ok(Some(i as usize)),
                Value::Integer(i) => {
                    Err(self.value_error(key, format!("`{key}` must be at least 1, got {i}")))
                }
                ref other => Err(self.type_error(key, "positive integer", other, v.line)),
            },
        }
    }

    /// An array of numbers, `None` when the key is absent.
    fn f64_array(&self, key: &str) -> Result<Option<Vec<f64>>, SpecError> {
        let Some(v) = self.table.get(key) else {
            return Ok(None);
        };
        let Value::Array(items) = &v.value else {
            return Err(self.type_error(key, "array of numbers", &v.value, v.line));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(match item.value {
                Value::Float(x) => x,
                Value::Integer(i) => i as f64,
                ref other => {
                    return Err(SpecError::at(
                        item.line,
                        format!(
                            "`{key}` entries must be numbers, found {}",
                            other.display_compact()
                        ),
                    ))
                }
            });
        }
        Ok(Some(out))
    }

    /// A `[w1, w2, w3]` weight vector with a positive sum.
    fn weights3(&self, key: &str, default: [f64; 3]) -> Result<[f64; 3], SpecError> {
        let Some(v) = self.table.get(key) else {
            return Ok(default);
        };
        let Value::Array(items) = &v.value else {
            return Err(self.type_error(key, "3-element array", &v.value, v.line));
        };
        if items.len() != 3 {
            return Err(SpecError::at(
                v.line,
                format!(
                    "`{key}` needs exactly 3 weights (1×, 2×, 3× QoS), found {}",
                    items.len()
                ),
            ));
        }
        let mut out = [0.0; 3];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = match item.value {
                Value::Float(x) if x >= 0.0 => x,
                Value::Integer(i) if i >= 0 => i as f64,
                ref other => {
                    return Err(SpecError::at(
                        item.line,
                        format!(
                            "`{key}` weights must be non-negative numbers, found {}",
                            other.display_compact()
                        ),
                    ))
                }
            };
        }
        if out.iter().sum::<f64>() <= 0.0 {
            return Err(SpecError::at(
                v.line,
                format!("`{key}` weights must sum to a positive value"),
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_everything_but_require_some_content() {
        let s = Scenario::parse("[fleet]\n", "x").unwrap();
        assert_eq!(s.racks, 2);
        assert_eq!(s.servers_per_rack, 8);
        assert_eq!(s.heat_reuse_c, 70.0);
        assert_eq!(s.water_inlet_c, 30.0);
        assert_eq!(s.jobs, 200);
        assert_eq!(s.dispatcher, DispatcherKind::ThermalAware);
        assert!(matches!(s.demand, DemandKind::Diurnal { rate, .. } if rate == 0.7));
    }

    #[test]
    fn full_spec_round_trips() {
        let s = Scenario::parse(
            "name = \"full\"\n\
             [fleet]\n\
             racks = 4\n\
             servers_per_rack = 4\n\
             grid_pitch_mm = 3.0\n\
             policy = \"coskun\"\n\
             threads = 2\n\
             [cooling]\n\
             heat_reuse_c = 55\n\
             water_inlet_c = 25.0\n\
             [workload]\n\
             jobs = 64\n\
             seed = 7\n\
             demand = \"bursty\"\n\
             rate = 1.5\n\
             base_fraction = 0.1\n\
             burst_s = 30.0\n\
             gap_s = 120.0\n\
             mean_service_s = 20.0\n\
             qos_weights = [1, 1, 2]\n\
             [dispatch]\n\
             dispatcher = \"rr\"\n",
            "hint",
        )
        .unwrap();
        assert_eq!(s.name, "full");
        assert_eq!(s.policy, ServerPolicy::Coskun);
        assert_eq!(s.heat_reuse_c, 55.0);
        assert_eq!(s.qos_weights, [1.0, 1.0, 2.0]);
        assert_eq!(s.dispatcher, DispatcherKind::RoundRobin);
        assert!(matches!(s.demand, DemandKind::Bursty { gap_s, .. } if gap_s == 120.0));
        let jobs = s.synthesize_jobs();
        assert_eq!(jobs.len(), 64);
        assert_eq!(jobs, s.synthesize_jobs());
    }

    #[test]
    fn fleet_config_reflects_the_spec() {
        let s = Scenario::parse(
            "[fleet]\nracks = 3\nservers_per_rack = 2\n[cooling]\nwater_inlet_c = 20.0\n",
            "x",
        )
        .unwrap();
        let cfg = s.fleet_config();
        assert_eq!(cfg.total_servers(), 6);
        assert_eq!(cfg.op.water_inlet(), Celsius::new(20.0));
        assert_eq!(cfg.chiller.ambient(), Celsius::new(70.0));
    }

    #[test]
    fn unknown_table_and_key_are_rejected_with_lines() {
        let e = Scenario::parse("[flett]\nracks = 2\n", "x").unwrap_err();
        assert_eq!(e.line, Some(1));
        assert!(e.message.contains("unknown key `flett`"), "{e}");
        assert!(e.message.contains("fleet"), "{e}");

        let e = Scenario::parse("[fleet]\nrack = 2\n", "x").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.message.contains("unknown key `rack`"), "{e}");
        assert!(e.message.contains("racks"), "{e}");
    }

    #[test]
    fn wrong_types_are_named() {
        let e = Scenario::parse("[fleet]\nracks = \"two\"\n", "x").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.message.contains("positive integer"), "{e}");
        assert!(e.message.contains("found a string"), "{e}");
    }

    #[test]
    fn out_of_envelope_inlet_is_rejected() {
        let e = Scenario::parse("[cooling]\nwater_inlet_c = 80.0\n", "x").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.message.contains("5..=60"), "{e}");
    }

    #[test]
    fn control_defaults_to_static_and_parses_all_policies() {
        let s = Scenario::parse("[fleet]\n", "x").unwrap();
        assert_eq!(s.control, ControlKind::Static);
        assert_eq!(s.telemetry, None);

        let s = Scenario::parse(
            "[control]\n\
             policy = \"setpoint\"\n\
             times_s = [0, 150.0, 450]\n\
             setpoints_c = [70, 45.0, 70]\n\
             [telemetry]\n\
             sample_s = 15.0\n\
             capacity = 512\n",
            "x",
        )
        .unwrap();
        assert_eq!(s.control.spec_name(), "setpoint");
        assert!(matches!(
            &s.control,
            ControlKind::Setpoint { times_s, setpoints_c }
                if times_s == &[0.0, 150.0, 450.0] && setpoints_c[1] == 45.0
        ));
        let tel = s.telemetry.expect("telemetry table present");
        assert_eq!(tel.sample_s, 15.0);
        assert_eq!(tel.capacity, 512);
        // The parsed kind instantiates without panicking.
        assert_eq!(s.control.instantiate().name(), "setpoint");

        let s = Scenario::parse(
            "[control]\n\
             policy = \"shed\"\n\
             tick_s = 30.0\n\
             high_watermark = 12\n\
             low_watermark = 3\n",
            "x",
        )
        .unwrap();
        assert_eq!(
            s.control,
            ControlKind::Shed {
                tick_s: 30.0,
                high_watermark: 12,
                low_watermark: 3,
            }
        );
        assert_eq!(s.control.instantiate().name(), "shed");
    }

    #[test]
    fn control_schema_violations_are_line_numbered() {
        // Unknown policy.
        let e = Scenario::parse("[control]\npolicy = \"pid\"\n", "x").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.message.contains("unknown control policy `pid`"), "{e}");

        // Setpoint without its program arrays.
        let e = Scenario::parse("[control]\npolicy = \"setpoint\"\n", "x").unwrap_err();
        assert!(e.message.contains("`times_s`"), "{e}");

        // Mismatched program lengths.
        let e = Scenario::parse(
            "[control]\npolicy = \"setpoint\"\ntimes_s = [0, 10]\nsetpoints_c = [70]\n",
            "x",
        )
        .unwrap_err();
        assert!(e.message.contains("equal length"), "{e}");

        // Non-ascending times.
        let e = Scenario::parse(
            "[control]\npolicy = \"setpoint\"\ntimes_s = [10, 10]\nsetpoints_c = [70, 45]\n",
            "x",
        )
        .unwrap_err();
        assert!(e.message.contains("strictly ascending"), "{e}");

        // Inverted shedding watermarks.
        let e = Scenario::parse(
            "[control]\npolicy = \"shed\"\nhigh_watermark = 2\nlow_watermark = 5\n",
            "x",
        )
        .unwrap_err();
        assert!(e.message.contains("hysteresis"), "{e}");

        // Policy-specific keys under the wrong policy fail loudly…
        let e = Scenario::parse("[control]\ntimes_s = [0]\n", "x").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.message.contains("`times_s` only applies"), "{e}");
        assert!(e.message.contains("sweep control.policy"), "{e}");

        // …and unknown telemetry keys too.
        let e = Scenario::parse("[telemetry]\nsample_ms = 5\n", "x").unwrap_err();
        assert!(e.message.contains("unknown key `sample_ms`"), "{e}");
    }

    #[test]
    fn serving_mode_parses_with_surge_defaults_and_autoscale() {
        let s = Scenario::parse(
            "[workload]\n\
             mode = \"serving\"\n\
             jobs = 40\n\
             rate = 4.0\n\
             surge = 2.0\n\
             mean_service_s = 2.0\n\
             [control]\n\
             policy = \"autoscale\"\n\
             tick_s = 15.0\n\
             min_servers = 4\n\
             step_servers = 4\n\
             queue_high = 1.5\n\
             queue_low = 0.25\n\
             p99_slo_s = 6.0\n",
            "x",
        )
        .unwrap();
        let sv = s.serving.expect("serving mode");
        assert_eq!(sv.surge, 2.0);
        assert_eq!(sv.surge_s, 60.0);
        assert_eq!(sv.surge_gap_s, 420.0);
        assert!(s.fleet_config().serving);
        assert_eq!(s.control.spec_name(), "autoscale");
        assert_eq!(s.control.instantiate().name(), "autoscale");
        let jobs = s.synthesize_jobs();
        assert_eq!(jobs.len(), 40);
        assert_eq!(jobs, s.synthesize_jobs());
    }

    #[test]
    fn serving_and_autoscale_keys_are_guarded() {
        // Surge keys under batch mode.
        let e = Scenario::parse("[workload]\nsurge = 2.0\n", "x").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.message.contains("`surge` only applies"), "{e}");
        assert!(e.message.contains("sweep workload.mode"), "{e}");

        // The batch demand selector under serving mode.
        let e = Scenario::parse("[workload]\nmode = \"serving\"\ndemand = \"bursty\"\n", "x")
            .unwrap_err();
        assert_eq!(e.line, Some(3));
        assert!(e.message.contains("`demand` only applies"), "{e}");

        // Autoscale outside serving mode.
        let e = Scenario::parse("[control]\npolicy = \"autoscale\"\n", "x").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.message.contains("mode = \"serving\""), "{e}");

        // Autoscale keys under another policy.
        let e = Scenario::parse("[control]\nqueue_high = 2.0\n", "x").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.message.contains("`queue_high` only applies"), "{e}");

        // Inverted hysteresis watermarks.
        let e = Scenario::parse(
            "[workload]\nmode = \"serving\"\n[control]\npolicy = \"autoscale\"\n\
             queue_high = 1.0\nqueue_low = 2.0\n",
            "x",
        )
        .unwrap_err();
        assert!(e.message.contains("hysteresis"), "{e}");
    }

    #[test]
    fn empty_spec_is_an_error() {
        let e = Scenario::parse("", "x").unwrap_err();
        assert!(e.message.contains("empty"), "{e}");
        assert!(e.message.contains("docs/SCENARIOS.md"), "{e}");
    }

    #[test]
    fn server_classes_parse_and_build_the_catalog() {
        let s = Scenario::parse(
            "[fleet]\n\
             racks = 3\n\
             servers_per_rack = 4\n\
             classes = [\"dense\", \"sparse\", \"dense+sparse\"]\n\
             [[server_class]]\n\
             name = \"dense\"\n\
             grid_pitch_mm = 2.5\n\
             [[server_class]]\n\
             name = \"sparse\"\n\
             water_inlet_c = 35\n\
             policy = \"coskun\"\n",
            "x",
        )
        .unwrap();
        assert_eq!(s.classes.len(), 2);
        assert_eq!(s.classes[0].name, "dense");
        assert_eq!(s.classes[0].grid_pitch_mm, Some(2.5));
        assert_eq!(s.classes[1].water_inlet_c, Some(35.0));
        assert_eq!(s.classes[1].policy, Some(ServerPolicy::Coskun));
        assert_eq!(s.rack_classes, vec![vec![0], vec![1], vec![0, 1]]);
        let cfg = s.fleet_config();
        assert_eq!(cfg.catalog.len(), 2);
        // Rack 2 alternates dense/sparse across its 4 slots.
        assert_eq!(cfg.catalog.class_of(2, 0), 0);
        assert_eq!(cfg.catalog.class_of(2, 1), 1);
        assert_eq!(cfg.catalog.class_of(2, 3), 1);
    }

    #[test]
    fn classes_broadcast_from_a_single_entry_or_string() {
        // One array entry broadcasts the mix to every rack.
        let s = Scenario::parse(
            "[fleet]\nracks = 4\nclasses = [\"a+b\"]\n\
             [[server_class]]\nname = \"a\"\n\
             [[server_class]]\nname = \"b\"\n",
            "x",
        )
        .unwrap();
        assert_eq!(s.rack_classes, vec![vec![0, 1]; 4]);
        // The sweepable string form: whitespace-separated per-rack list.
        let s = Scenario::parse(
            "[fleet]\nracks = 2\nclasses = \"a b\"\n\
             [[server_class]]\nname = \"a\"\n\
             [[server_class]]\nname = \"b\"\n",
            "x",
        )
        .unwrap();
        assert_eq!(s.rack_classes, vec![vec![0], vec![1]]);
    }

    #[test]
    fn class_schema_violations_are_line_numbered() {
        // A class without a name.
        let e = Scenario::parse(
            "[fleet]\nclasses = [\"x\"]\n[[server_class]]\npitch = 1\n",
            "x",
        )
        .unwrap_err();
        assert!(e.message.contains("unknown key `pitch`"), "{e}");
        let e = Scenario::parse("[fleet]\nclasses = [\"x\"]\n[[server_class]]\n", "x").unwrap_err();
        assert_eq!(e.line, Some(3));
        assert!(e.message.contains("needs a `name`"), "{e}");

        // Duplicate class names.
        let e = Scenario::parse(
            "[fleet]\nclasses = [\"a\"]\n\
             [[server_class]]\nname = \"a\"\n\
             [[server_class]]\nname = \"a\"\n",
            "x",
        )
        .unwrap_err();
        assert_eq!(e.line, Some(6));
        assert!(e.message.contains("duplicate server class `a`"), "{e}");

        // Classes declared but never assigned.
        let e = Scenario::parse("[fleet]\nracks = 2\n[[server_class]]\nname = \"a\"\n", "x")
            .unwrap_err();
        assert!(e.message.contains("per-rack `classes"), "{e}");

        // Assignment without declarations.
        let e = Scenario::parse("[fleet]\nclasses = [\"a\"]\n", "x").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.message.contains("declares none"), "{e}");

        // Wrong entry count.
        let e = Scenario::parse(
            "[fleet]\nracks = 3\nclasses = [\"a\", \"a\"]\n[[server_class]]\nname = \"a\"\n",
            "x",
        )
        .unwrap_err();
        assert_eq!(e.line, Some(3));
        assert!(e.message.contains("names 2 rack(s)"), "{e}");

        // Undeclared class reference.
        let e = Scenario::parse(
            "[fleet]\nracks = 1\nclasses = [\"b\"]\n[[server_class]]\nname = \"a\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.message.contains("undeclared class `b`"), "{e}");
        assert!(e.message.contains("declared: a"), "{e}");

        // Out-of-envelope class inlet.
        let e = Scenario::parse(
            "[fleet]\nclasses = [\"a\"]\n[[server_class]]\nname = \"a\"\nwater_inlet_c = 80\n",
            "x",
        )
        .unwrap_err();
        assert_eq!(e.line, Some(5));
        assert!(e.message.contains("5..=60"), "{e}");
    }
}
