//! The fleet: topology, server catalog, scenario parameters and the
//! simulation driver.
//!
//! [`Fleet::simulate`] and [`Fleet::simulate_with`] are thin drivers over
//! the discrete-event kernel in [`crate::engine`]: they warm the physics
//! cache in parallel — one solve per distinct cache key —
//! read the run's demand states off the published table, then hand the
//! job stream, those states, dispatcher, control policy and telemetry
//! settings to the sequential event loop.

use crate::cache::{ClassSolve, OutcomeCache, SteadyState};
use crate::catalog::{ClassId, FleetCatalog};
use crate::control::{ControlPolicy, StaticControl};
use crate::dispatch::FleetDispatcher;
use crate::engine;
use crate::job::{demand_pairs, Job};
use crate::metrics::{FleetOutcome, SimResult, TelemetryConfig};
use std::sync::OnceLock;
use tps_cooling::Chiller;
use tps_core::{
    CoskunBalancing, InletFirstMapping, MappingPolicy, PackedMapping, ProposedMapping, RunError,
    Server, T_CASE_MAX,
};
use tps_power::{CState, CoreFrequency, IdlePowerModel};
use tps_thermosyphon::OperatingPoint;
use tps_units::{Celsius, Watts};
use tps_workload::{Benchmark, QosClass};

/// The per-server mapping policy a fleet (or one of its server classes)
/// runs: the paper's proposed policy or one of its baselines.
///
/// A typed identity — two policies can never alias the way name strings
/// could, and a match over it is checked for exhaustiveness. The
/// [`CacheKey`](crate::CacheKey) does not store it: it stores the cores
/// the policy maps a job onto, so policies that agree share one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PolicyId {
    /// The paper's C-state-aware thermal mapping.
    #[default]
    Proposed,
    /// Temperature balancing \[9\].
    Coskun,
    /// Inlet-first \[7\].
    InletFirst,
    /// Naive packing.
    Packed,
}

static PROPOSED: ProposedMapping = ProposedMapping;
static COSKUN: CoskunBalancing = CoskunBalancing;
static INLET: InletFirstMapping = InletFirstMapping;
static PACKED: PackedMapping = PackedMapping;

impl PolicyId {
    /// The shared policy instance (policies are stateless).
    pub fn as_policy(self) -> &'static (dyn MappingPolicy + Sync) {
        match self {
            PolicyId::Proposed => &PROPOSED,
            PolicyId::Coskun => &COSKUN,
            PolicyId::InletFirst => &INLET,
            PolicyId::Packed => &PACKED,
        }
    }

    /// The spec-file/CLI spelling (`proposed`/`coskun`/`inlet`/`packed`).
    pub fn spec_name(self) -> &'static str {
        match self {
            PolicyId::Proposed => "proposed",
            PolicyId::Coskun => "coskun",
            PolicyId::InletFirst => "inlet",
            PolicyId::Packed => "packed",
        }
    }
}

/// Scenario parameters of a fleet simulation.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of racks.
    pub racks: usize,
    /// Servers per rack (one chiller loop per rack, Sec. V).
    pub servers_per_rack: usize,
    /// Thermal-grid pitch of the per-server simulation, in millimetres
    /// (coarser ⇒ faster cache warm-up). Classes may override it.
    pub grid_pitch_mm: f64,
    /// The servers' water-side design point. Classes may override its
    /// inlet.
    pub op: OperatingPoint,
    /// The per-rack chiller. The default rejects into a 70 °C
    /// heat-recovery loop (district-heating supply): racks whose shared
    /// water stays above `70 °C + approach` exchange heat directly
    /// (bypass), anything colder pays heat-pump lift to reach the reuse
    /// temperature. Control policies may re-program the set-point
    /// mid-run; this field is the initial (and static) value.
    pub chiller: Chiller,
    /// The case-temperature constraint (`T_CASE_MAX` of the paper).
    pub t_case_max: Celsius,
    /// Draw of an idle server (all cores parked, uncore floor).
    pub idle_server_power: Watts,
    /// Fleet-wide default mapping policy. Classes may override it.
    pub policy: PolicyId,
    /// OS threads for the cache warm-up phase. Thread count never changes
    /// simulation results, only wall time; the event loop itself is
    /// sequential.
    pub threads: usize,
    /// The server catalog: which hardware class sits in each rack slot.
    /// The default [`FleetCatalog::uniform`] is one fully inheriting
    /// class everywhere — the homogeneous fleet, bit for bit.
    pub catalog: FleetCatalog,
    /// Serving mode: the kernel records per-request latency (dispatch
    /// wait + runtime) into percentile sketches, telemetry samples and
    /// the outcome gain latency/active-server fields, and
    /// [`AutoscaleControl`](crate::AutoscaleControl) may resize the
    /// active-server set. `false` (batch mode) leaves every output
    /// bit-identical to a build without the serving machinery.
    pub serving: bool,
}

impl FleetConfig {
    /// A fleet of `racks × servers_per_rack` paper servers with the
    /// heat-reuse scenario defaults (2 mm grid, paper operating point,
    /// 70 °C recovery loop, C6 idle floor, uniform catalog,
    /// [`default_threads`](Self::default_threads) warm-up threads).
    ///
    /// # Panics
    ///
    /// Panics if `racks` or `servers_per_rack` is zero.
    pub fn new(racks: usize, servers_per_rack: usize) -> Self {
        assert!(racks > 0, "a fleet needs at least one rack");
        assert!(servers_per_rack > 0, "a rack needs at least one server");
        let idle = IdlePowerModel::xeon_e5_v4().package_idle_power(CState::C6, CoreFrequency::F2_6);
        Self {
            racks,
            servers_per_rack,
            grid_pitch_mm: 2.0,
            op: OperatingPoint::paper(),
            chiller: Chiller::new(Celsius::new(70.0)),
            t_case_max: T_CASE_MAX,
            idle_server_power: idle,
            policy: PolicyId::default(),
            threads: Self::default_threads(),
            catalog: FleetCatalog::uniform(),
            serving: false,
        }
    }

    /// The default warm-up thread count — the machine's available
    /// parallelism, capped at 8 (the distinct solves saturate quickly).
    /// Thread count never changes simulation results, only wall time.
    /// Resolved once per process, because asking the OS reads cgroup
    /// files (tens of microseconds a call); a later change of CPU
    /// affinity therefore goes unseen.
    pub fn default_threads() -> usize {
        static THREADS: OnceLock<usize> = OnceLock::new();
        *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get().min(8)))
    }

    /// Total server count.
    pub fn total_servers(&self) -> usize {
        self.racks * self.servers_per_rack
    }
}

/// One catalog class, resolved against the fleet defaults and assembled:
/// the server template shared read-only by every slot of that class.
#[derive(Debug)]
pub(crate) struct ClassRuntime {
    pub(crate) name: String,
    pub(crate) policy: PolicyId,
    pub(crate) pitch_mm: f64,
    pub(crate) server: Server,
}

/// A fleet of two-phase-cooled servers — homogeneous or a catalog mix —
/// ready to simulate job streams under different dispatchers and control
/// policies.
///
/// The per-class thermal models are assembled once (`Server` construction
/// is expensive) and shared read-only by the warm-up threads.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    classes: Vec<ClassRuntime>,
    /// Global server index → class id (`index = rack · servers_per_rack
    /// + slot`).
    class_of: Vec<ClassId>,
}

impl Fleet {
    /// Assembles one server template per catalog class (fields a class
    /// leaves at `None` inherit the fleet defaults).
    pub fn new(config: FleetConfig) -> Self {
        let classes: Vec<ClassRuntime> = config
            .catalog
            .classes()
            .iter()
            .map(|c| {
                let pitch = c.grid_pitch_mm.unwrap_or(config.grid_pitch_mm);
                let op = match c.water_inlet_c {
                    Some(t) => config.op.with_inlet(Celsius::new(t)),
                    None => config.op,
                };
                ClassRuntime {
                    name: c.name.clone(),
                    policy: c.policy.unwrap_or(config.policy),
                    pitch_mm: pitch,
                    server: Server::builder()
                        .grid_pitch_mm(pitch)
                        .operating_point(op)
                        .build(),
                }
            })
            .collect();
        // `FleetCatalog::assign` already validated every pattern id, so
        // the lookup cannot go out of range.
        let class_of: Vec<ClassId> = (0..config.total_servers())
            .map(|i| {
                config
                    .catalog
                    .class_of(i / config.servers_per_rack, i % config.servers_per_rack)
            })
            .collect();
        Self {
            config,
            classes,
            class_of,
        }
    }

    /// The scenario parameters.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The default class's server template (class 0 — the whole fleet on
    /// a uniform catalog).
    pub fn server(&self) -> &Server {
        &self.classes[0].server
    }

    /// The catalog class names, in class-id order.
    pub fn class_names(&self) -> Vec<String> {
        self.classes.iter().map(|c| c.name.clone()).collect()
    }

    /// The class occupying each global server index.
    pub fn server_classes(&self) -> &[ClassId] {
        &self.class_of
    }

    /// The per-class solve contexts, in class-id order.
    pub(crate) fn class_solvers(&self) -> Vec<ClassSolve<'_>> {
        self.classes
            .iter()
            .enumerate()
            .map(|(id, c)| ClassSolve {
                id,
                server: &c.server,
                policy: c.policy,
                pitch_mm: c.pitch_mm,
                t_case_max: self.config.t_case_max,
            })
            .collect()
    }

    /// Pre-solves every `(class, bench, qos)` triple — `pairs` crossed
    /// with the whole catalog — into `cache` across up to `threads` OS
    /// threads. [`simulate_with`](Self::simulate_with) does not need it:
    /// it solves only the keys the published table lacks, through
    /// [`OutcomeCache::ensure_published`]. The sweep engine calls this
    /// directly to share one warm cache across a whole scenario grid.
    ///
    /// # Errors
    ///
    /// Propagates the first per-server [`RunError`].
    pub fn warm(
        &self,
        pairs: &[(Benchmark, QosClass)],
        cache: &OutcomeCache,
        threads: usize,
    ) -> Result<(), RunError> {
        cache.warm(&self.class_solvers(), pairs, threads)
    }

    /// Runs `jobs` through the fleet under `dispatcher`, reusing (and
    /// extending) `cache` for the per-server physics — the open-loop
    /// simulation: [`StaticControl`], no telemetry.
    ///
    /// Placement happens at arrival time against the committed fleet state
    /// (running *and* queued jobs); each server executes its queue FIFO.
    /// The result is byte-deterministic for a fixed job stream — thread
    /// count only parallelizes the cache warm-up, whose values are pure
    /// functions of their key.
    ///
    /// # Errors
    ///
    /// Propagates the first per-server [`RunError`].
    pub fn simulate(
        &self,
        jobs: &[Job],
        dispatcher: &mut dyn FleetDispatcher,
        cache: &OutcomeCache,
    ) -> Result<FleetOutcome, RunError> {
        self.simulate_with(jobs, dispatcher, &mut StaticControl, None, cache)
            .map(|r| r.outcome)
    }

    /// Runs `jobs` through the event kernel under `dispatcher` and
    /// `control`, optionally sampling telemetry.
    ///
    /// The control policy's set-point program and tick cadence become
    /// [`SetpointChange`](crate::Event::SetpointChange) and
    /// [`ControlTick`](crate::Event::ControlTick) events; with
    /// [`StaticControl`] and `telemetry: None` this is exactly
    /// [`simulate`](Self::simulate). Results — including the trace CSV —
    /// are byte-deterministic across runs and thread counts.
    ///
    /// # Errors
    ///
    /// Propagates the first per-server [`RunError`].
    pub fn simulate_with(
        &self,
        jobs: &[Job],
        dispatcher: &mut dyn FleetDispatcher,
        control: &mut dyn ControlPolicy,
        telemetry: Option<&TelemetryConfig>,
        cache: &OutcomeCache,
    ) -> Result<SimResult, RunError> {
        // Synchronization point: make sure a covering table epoch is
        // published, solving only the missing keys — one solve per
        // distinct key, in parallel.
        let pairs = demand_pairs(jobs);
        let solvers = self.class_solvers();
        let (states, miss_solves) =
            cache.ensure_published(&solvers, &pairs, self.config.threads)?;
        let locks = cache.lock_acquisitions();
        // The run's demand states, read once off the frozen epoch:
        // `pair_states[p][class]` is pair `p` on each catalog class.
        let pair_states: Vec<Vec<SteadyState>> = (0..pairs.len())
            .map(|p| {
                (0..solvers.len())
                    .map(|ci| states[ci * pairs.len() + p])
                    .collect()
            })
            .collect();
        let table_hits = pairs.len() * solvers.len();
        cache.record_table_hits(table_hits);

        // Sequential phase: the deterministic event loop.
        let mut result = engine::run(
            self,
            jobs,
            &pairs,
            &pair_states,
            dispatcher,
            control,
            telemetry,
        )?;
        result.stats.table_hits = table_hits;
        result.stats.miss_solves = miss_solves;
        // Cache locks taken after publication: a run on a covering table
        // reads 0 — the zero-lock test pins it.
        result.stats.lock_acquisitions = cache.lock_acquisitions() - locks;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ServerClass;
    use crate::control::{LoadSheddingControl, SetpointScheduler};
    use crate::dispatch::{FleetView, JobDemand, RoundRobin};
    use crate::job::{synthesize_jobs, JobMix};
    use tps_units::Seconds;
    use tps_workload::ConstantDemand;

    /// Wraps a dispatcher and logs each placement as `(job, server,
    /// start, end)`, deriving the execution window from the view with the
    /// kernel's own expressions.
    struct Recording<D> {
        inner: D,
        log: Vec<(usize, usize, Seconds, Seconds)>,
    }

    impl<D> Recording<D> {
        fn new(inner: D) -> Self {
            Self {
                inner,
                log: Vec::new(),
            }
        }
    }

    impl<D: FleetDispatcher> FleetDispatcher for Recording<D> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn place(&mut self, demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
            let server = self.inner.place(demand, view);
            let start = Seconds::new(view.now.value().max(view.servers.free_at(server).value()));
            let end = start + demand.class(view.servers.class_of(server)).runtime;
            self.log.push((demand.job.id, server, start, end));
            server
        }

        fn begin_run(&mut self) {
            self.inner.begin_run();
        }
    }

    #[test]
    fn fleet_simulation_is_deterministic() {
        let jobs = synthesize_jobs(24, &ConstantDemand::new(1.0), JobMix::default(), 42);
        let mut cfg = FleetConfig::new(2, 2);
        cfg.grid_pitch_mm = 3.0;
        let fleet = Fleet::new(cfg);
        let cache = OutcomeCache::new();
        let a = fleet
            .simulate(&jobs, &mut RoundRobin::default(), &cache)
            .unwrap();
        let b = fleet
            .simulate(&jobs, &mut RoundRobin::default(), &cache)
            .unwrap();
        assert_eq!(a.it_energy, b.it_energy);
        assert_eq!(a.cooling_energy, b.cooling_energy);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn every_job_is_placed_exactly_once_fifo_per_server() {
        let jobs = synthesize_jobs(30, &ConstantDemand::new(0.8), JobMix::default(), 7);
        let mut cfg = FleetConfig::new(2, 3);
        cfg.grid_pitch_mm = 3.0;
        let fleet = Fleet::new(cfg);
        let cache = OutcomeCache::new();
        let mut rec = Recording::new(RoundRobin::default());
        let out = fleet.simulate(&jobs, &mut rec, &cache).unwrap();
        assert_eq!(out.class_placements, vec![30]);
        let mut ids: Vec<usize> = rec.log.iter().map(|&(job, ..)| job).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..30).collect::<Vec<_>>());
        // Per server: non-overlapping, ordered executions.
        for s in 0..6 {
            let mut on_server: Vec<_> = rec.log.iter().filter(|r| r.1 == s).collect();
            on_server.sort_by(|a, b| a.2.value().total_cmp(&b.2.value()));
            for w in on_server.windows(2) {
                assert!(w[0].3.value() <= w[1].2.value() + 1e-9);
            }
        }
        // Jobs never start before they arrive.
        for &(id, _, start, _) in &rec.log {
            let job = jobs.iter().find(|j| j.id == id).unwrap();
            assert!(start.value() >= job.arrival.value() - 1e-9);
        }
    }

    #[test]
    fn zero_jobs_zero_energy() {
        let mut cfg = FleetConfig::new(1, 2);
        cfg.grid_pitch_mm = 3.0;
        let fleet = Fleet::new(cfg);
        let cache = OutcomeCache::new();
        let out = fleet
            .simulate(&[], &mut RoundRobin::default(), &cache)
            .unwrap();
        assert_eq!(out.class_placements, vec![0]);
        assert_eq!(out.it_energy.value(), 0.0);
        assert_eq!(out.cooling_energy.value(), 0.0);
    }

    #[test]
    fn uniform_catalog_resolves_to_the_fleet_defaults() {
        let mut cfg = FleetConfig::new(2, 2);
        cfg.grid_pitch_mm = 3.0;
        cfg.policy = PolicyId::Coskun;
        let fleet = Fleet::new(cfg);
        assert_eq!(fleet.class_names(), vec!["default".to_owned()]);
        assert_eq!(fleet.server_classes(), &[0, 0, 0, 0]);
        assert_eq!(fleet.class_solvers()[0].policy, PolicyId::Coskun);
    }

    #[test]
    fn catalog_classes_get_their_own_servers_and_policies() {
        let mut cfg = FleetConfig::new(2, 2);
        cfg.grid_pitch_mm = 3.0;
        cfg.catalog = FleetCatalog::new(vec![
            ServerClass::new("dense"),
            ServerClass::new("sparse").pitch(4.0).inlet(35.0),
            ServerClass::new("derated").policy(PolicyId::Packed),
        ])
        .assign(vec![vec![0, 1], vec![2]]);
        let fleet = Fleet::new(cfg);
        assert_eq!(fleet.server_classes(), &[0, 1, 2, 2]);
        let solvers = fleet.class_solvers();
        assert_eq!(
            solvers[1]
                .server
                .simulation()
                .operating_point()
                .water_inlet(),
            Celsius::new(35.0)
        );
        assert_eq!(solvers[2].policy, PolicyId::Packed);
        assert_eq!(solvers[0].policy, PolicyId::Proposed);
    }

    #[test]
    fn mixed_catalog_runs_deterministically_end_to_end() {
        let jobs = synthesize_jobs(20, &ConstantDemand::new(0.8), JobMix::default(), 13);
        let mut cfg = FleetConfig::new(2, 2);
        cfg.grid_pitch_mm = 3.0;
        cfg.catalog = FleetCatalog::new(vec![
            ServerClass::new("dense"),
            ServerClass::new("sparse").pitch(3.5),
        ])
        .assign(vec![vec![0], vec![0, 1]]);
        let fleet = Fleet::new(cfg.clone());
        let cache = OutcomeCache::new();
        let a = fleet
            .simulate(&jobs, &mut RoundRobin::default(), &cache)
            .unwrap();
        let again = Fleet::new(cfg);
        let fresh = OutcomeCache::new();
        let b = again
            .simulate(&jobs, &mut RoundRobin::default(), &fresh)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.class_names, vec!["dense", "sparse"]);
        assert_eq!(a.class_placements.iter().sum::<usize>(), 20);
        // Round-robin strides rack 1's second slot every 4th job: the
        // sparse class really executed part of the stream.
        assert!(a.class_placements[1] > 0);
    }

    #[test]
    fn control_ticks_terminate_on_an_empty_job_stream() {
        // A tick cadence with no arrivals: the kernel must detect the
        // drained fleet and stop re-arming ticks instead of spinning.
        let mut cfg = FleetConfig::new(1, 2);
        cfg.grid_pitch_mm = 3.0;
        let fleet = Fleet::new(cfg);
        let cache = OutcomeCache::new();
        let mut control = LoadSheddingControl::new(Seconds::new(10.0), 4, 1);
        let result = fleet
            .simulate_with(
                &[],
                &mut RoundRobin::default(),
                &mut control,
                Some(&TelemetryConfig::default()),
                &cache,
            )
            .unwrap();
        assert_eq!(result.outcome.class_placements, vec![0]);
        assert_eq!(result.outcome.shed, 0);
        assert!(result.trace.expect("telemetry was on").is_empty());
    }

    #[test]
    fn static_control_matches_simulate_exactly() {
        let jobs = synthesize_jobs(16, &ConstantDemand::new(0.8), JobMix::default(), 3);
        let mut cfg = FleetConfig::new(2, 2);
        cfg.grid_pitch_mm = 3.0;
        let fleet = Fleet::new(cfg);
        let cache = OutcomeCache::new();
        let plain = fleet
            .simulate(&jobs, &mut RoundRobin::default(), &cache)
            .unwrap();
        let kernel = fleet
            .simulate_with(
                &jobs,
                &mut RoundRobin::default(),
                &mut StaticControl,
                Some(&TelemetryConfig::default()),
                &cache,
            )
            .unwrap();
        // Telemetry sampling must not perturb the simulation itself.
        assert_eq!(plain, kernel.outcome);
        assert!(!kernel.trace.expect("telemetry was on").is_empty());
    }

    #[test]
    fn setpoint_change_mid_job_shifts_cooling_energy() {
        let jobs = synthesize_jobs(12, &ConstantDemand::new(1.0), JobMix::default(), 11);
        let mut cfg = FleetConfig::new(1, 4);
        cfg.grid_pitch_mm = 3.0;
        let fleet = Fleet::new(cfg);
        let cache = OutcomeCache::new();
        let mut stat_log = Recording::new(RoundRobin::default());
        let stat = fleet.simulate(&jobs, &mut stat_log, &cache).unwrap();
        // Drop the 70 °C heat-reuse loop to 40 °C mid-stream: supplies
        // above 45 °C free-cool from then on, so cooling energy falls
        // while IT energy and placements stay identical (round-robin
        // ignores the chiller).
        let mid = stat.makespan * 0.4;
        let mut sched =
            SetpointScheduler::new(vec![(Seconds::new(mid.value()), Celsius::new(40.0))]);
        let mut ctrl_log = Recording::new(RoundRobin::default());
        let ctrl = fleet
            .simulate_with(&jobs, &mut ctrl_log, &mut sched, None, &cache)
            .unwrap()
            .outcome;
        assert_eq!(ctrl_log.log, stat_log.log);
        assert_eq!(ctrl.it_energy, stat.it_energy);
        assert!(
            ctrl.cooling_energy.value() < stat.cooling_energy.value(),
            "scheduled {} vs static {}",
            ctrl.cooling_energy,
            stat.cooling_energy
        );
        assert_eq!(ctrl.control, "setpoint");
    }

    #[test]
    fn load_shedding_caps_the_backlog() {
        // A deliberately overloaded single server: without control the
        // queue grows without bound; with shedding, arrivals are dropped
        // once the backlog passes the watermark.
        let jobs = synthesize_jobs(40, &ConstantDemand::new(2.0), JobMix::default(), 5);
        let mut cfg = FleetConfig::new(1, 1);
        cfg.grid_pitch_mm = 3.0;
        let fleet = Fleet::new(cfg);
        let cache = OutcomeCache::new();
        let open = fleet
            .simulate(&jobs, &mut RoundRobin::default(), &cache)
            .unwrap();
        let mut control = LoadSheddingControl::new(Seconds::new(5.0), 6, 2);
        let shed = fleet
            .simulate_with(
                &jobs,
                &mut RoundRobin::default(),
                &mut control,
                None,
                &cache,
            )
            .unwrap()
            .outcome;
        assert!(shed.shed > 0, "overload never triggered shedding");
        assert_eq!(
            shed.class_placements.iter().sum::<usize>() + shed.shed,
            jobs.len()
        );
        assert!(shed.makespan <= open.makespan);
        assert!(shed.max_wait <= open.max_wait);
        assert_eq!(shed.control, "shed");
    }

    #[test]
    fn final_trace_sample_carries_the_final_shed_count() {
        // Same overload, with telemetry: whether the run ends on a
        // completion or on a trailing shed arrival, the last trace row
        // must reconcile with the outcome's totals.
        let jobs = synthesize_jobs(40, &ConstantDemand::new(2.0), JobMix::default(), 5);
        let mut cfg = FleetConfig::new(1, 1);
        cfg.grid_pitch_mm = 3.0;
        let fleet = Fleet::new(cfg);
        let cache = OutcomeCache::new();
        let mut control = LoadSheddingControl::new(Seconds::new(5.0), 6, 2);
        let result = fleet
            .simulate_with(
                &jobs,
                &mut RoundRobin::default(),
                &mut control,
                Some(&TelemetryConfig::default()),
                &cache,
            )
            .unwrap();
        assert!(result.outcome.shed > 0, "overload never triggered shedding");
        let trace = result.trace.expect("telemetry was on");
        let last = trace.samples().last().expect("trace not empty");
        assert_eq!(last.shed, result.outcome.shed);
        assert_eq!(last.running, 0);
        assert_eq!(last.queued, 0);
    }
}
