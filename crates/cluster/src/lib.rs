//! Fleet-scale simulation: a stream of jobs dispatched across racks of
//! two-phase-cooled servers, driven by a discrete-event kernel with
//! runtime control and time-series telemetry.
//!
//! The paper optimizes one server; its Sec. V rack constraint — every
//! thermosyphon on a rack shares one chiller water temperature — is what
//! makes *placement* a fleet-wide energy decision. This crate drives
//! `N racks × M servers` of the existing per-server pipeline
//! (`MinPowerSelector` → mapping policy → coupled thermal/thermosyphon
//! solve) through a job-arrival trace and accounts IT plus cooling energy
//! through `tps-cooling`:
//!
//! * [`synthesize_jobs`] — reproducible job streams from the
//!   diurnal/bursty demand generators of `tps-workload`,
//! * [`ServerClass`]/[`FleetCatalog`] — the server catalog: named
//!   hardware classes (pitch/inlet/policy overrides) assigned per rack
//!   slot; the default uniform catalog is the homogeneous fleet, bit for
//!   bit,
//! * [`OutcomeCache`] — per-server physics memoized by
//!   `(class, benchmark, qos, policy, water inlet, pitch, flow, case
//!   limit)` in one locked map,
//!   warmed across OS threads and frozen into a read-only [`SolveTable`]
//!   snapshot that runs resolve their demand states through,
//! * [`FleetDispatcher`] — [`RoundRobin`], [`CoolestRackFirst`] and the
//!   paper-style [`ThermalAwareDispatch`] that ranks `(rack, class)`
//!   slots by marginal chiller power,
//! * [`EventQueue`]/[`Event`] — the deterministic kernel: typed events
//!   in a binary heap ordered by a stable `(time, class, seq)` key, so
//!   results are byte-identical across runs and thread counts,
//! * [`ControlPolicy`] — runtime control evaluated on
//!   [`ControlTick`](Event::ControlTick): [`StaticControl`] (open loop),
//!   [`SetpointScheduler`] (chiller set-point program),
//!   [`LoadSheddingControl`] (hysteretic admission control),
//!   [`AutoscaleControl`] (serving-mode capacity scaling against queue
//!   depth and the p99 latency SLO) and [`PlannerControl`] (joint
//!   placement + set-point co-optimization over a job horizon),
//! * [`plan`] — the planner subsystem: piecewise-linear chiller
//!   linearization, dense-simplex lower bounds, branch-and-bound and
//!   simulated annealing, all hand-rolled with no external deps,
//! * [`FleetTrace`]/[`FleetSample`] — sampled time-series telemetry with
//!   deterministic fixed-precision CSV emission,
//! * [`Fleet::simulate`]/[`Fleet::simulate_with`] — thin drivers over the
//!   kernel, producing a [`FleetOutcome`] (and a trace).
//!
//! ```
//! use tps_cluster::{
//!     synthesize_jobs, Fleet, FleetConfig, JobMix, OutcomeCache, ThermalAwareDispatch,
//! };
//! use tps_workload::ConstantDemand;
//!
//! // A small fleet on a coarse grid so the doctest stays quick.
//! let mut config = FleetConfig::new(2, 2);
//! config.grid_pitch_mm = 3.0;
//! let fleet = Fleet::new(config);
//! let jobs = synthesize_jobs(8, &ConstantDemand::new(0.5), JobMix::default(), 42);
//! let cache = OutcomeCache::new();
//! let outcome = fleet
//!     .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
//!     .expect("paper workloads are feasible");
//! assert_eq!(outcome.class_placements.iter().sum::<usize>(), 8);
//! assert!(outcome.total_energy() > outcome.it_energy);
//! println!("fleet PUE {:.3}", outcome.pue().expect("the jobs ran"));
//! ```
//!
//! Closing the loop — a set-point schedule plus telemetry:
//!
//! ```
//! use tps_cluster::{
//!     synthesize_jobs, Fleet, FleetConfig, JobMix, OutcomeCache, RoundRobin,
//!     SetpointScheduler, TelemetryConfig,
//! };
//! use tps_units::{Celsius, Seconds};
//! use tps_workload::ConstantDemand;
//!
//! let mut config = FleetConfig::new(1, 2);
//! config.grid_pitch_mm = 3.0;
//! let fleet = Fleet::new(config);
//! let jobs = synthesize_jobs(6, &ConstantDemand::new(0.5), JobMix::default(), 42);
//! let cache = OutcomeCache::new();
//! let mut control = SetpointScheduler::new(vec![(Seconds::new(20.0), Celsius::new(45.0))]);
//! let result = fleet
//!     .simulate_with(
//!         &jobs,
//!         &mut RoundRobin::default(),
//!         &mut control,
//!         Some(&TelemetryConfig::default()),
//!         &cache,
//!     )
//!     .expect("paper workloads are feasible");
//! let trace = result.trace.expect("telemetry was on");
//! assert!(trace.to_csv().starts_with("t_s,setpoint_c"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod catalog;
mod control;
mod dispatch;
mod engine;
mod fleet;
mod job;
mod load;
mod metrics;
pub mod plan;
mod queue;

pub use cache::{CacheKey, ClassSolve, OutcomeCache, SolveTable, SteadyState};
pub use catalog::{ClassId, FleetCatalog, ServerClass};
pub use control::{
    AutoscaleControl, ControlAction, ControlPolicy, ControlStatus, LoadSheddingControl,
    PlacementHint, RunContext, SetpointScheduler, StaticControl,
};
pub use dispatch::{
    ClassDemand, CoolestRackFirst, FleetDispatcher, FleetIndex, FleetView, JobDemand,
    PlannedDispatch, RackView, RoundRobin, ServerTable, ThermalAwareDispatch,
};
pub use engine::{Event, OccupiedRack, RackLoads, ARRIVAL_LOOKAHEAD};
pub use fleet::{Fleet, FleetConfig, PolicyId, ServerPolicy};
pub use job::{demand_pairs, synthesize_jobs, synthesize_request_jobs, Job, JobMix};
pub use metrics::{
    FleetOutcome, FleetSample, FleetTrace, KernelStats, LatencyHistogram, ServingOutcome,
    ServingSample, SimResult, TelemetryConfig,
};
pub use plan::{PlanSolver, PlannerControl};
pub use queue::{EventQueue, QueueStats};
