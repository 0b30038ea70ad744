//! The sweep engine: cartesian expansion of `[sweep]` axes and threaded
//! execution of the resulting scenario grid.
//!
//! A spec file may carry a `[sweep]` table whose keys are dotted paths
//! into the scenario schema and whose values are arrays:
//!
//! ```toml
//! [sweep]
//! cooling.water_inlet_c = [20, 30, 40]
//! dispatch.dispatcher = ["rr", "thermal"]
//! ```
//!
//! expands into the 3 × 2 cartesian grid, each point a full [`Scenario`]
//! named after its axis values (`cooling.water_inlet_c=20,dispatch.dispatcher=rr`,
//! …). [`Sweep::run`] executes the grid across OS threads, sharing one
//! `tps-cluster` [`OutcomeCache`](tps_cluster::OutcomeCache) across the
//! whole grid, so the per-server physics is solved once per cache key
//! ([`CacheKey`](tps_cluster::CacheKey): server class, benchmark, QoS,
//! the cores the class's policy maps the job onto, water inlet, grid
//! pitch, water flow and case-temperature limit) no matter how many grid
//! points replay it. Policies that map a job onto the same cores share
//! its solve: a four-policy sweep over all 39 (benchmark, QoS) pairs
//! solves 109 times, not 156.
//!
//! Results are byte-deterministic: cache values are pure functions of
//! their key and the report rows come back in grid order.

use crate::report::{SweepReport, SweepRow};
use crate::spec::{reject_empty, set_path, Scenario, SpecError, SweptAxes};
use crate::toml::{self, Spanned, Table, Value};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tps_cluster::{FleetTrace, OutcomeCache, SimResult};
use tps_core::RunError;

/// Axis paths the sweep engine accepts, mirroring the scalar keys of the
/// scenario schema (arrays such as `workload.qos_weights` cannot be swept).
const SWEEPABLE: &[&str] = &[
    "fleet.racks",
    "fleet.servers_per_rack",
    "fleet.grid_pitch_mm",
    "fleet.policy",
    "fleet.threads",
    "fleet.classes",
    "cooling.heat_reuse_c",
    "cooling.water_inlet_c",
    "workload.jobs",
    "workload.seed",
    "workload.mode",
    "workload.demand",
    "workload.rate",
    "workload.base_fraction",
    "workload.period_s",
    "workload.burst_s",
    "workload.gap_s",
    "workload.surge",
    "workload.surge_s",
    "workload.surge_gap_s",
    "workload.mean_service_s",
    "dispatch.dispatcher",
    "control.policy",
    "control.tick_s",
    "control.high_watermark",
    "control.low_watermark",
    "control.min_servers",
    "control.step_servers",
    "control.queue_high",
    "control.queue_low",
    "control.p99_slo_s",
    "control.horizon_s",
    "control.replan_ticks",
    "control.anneal_iters",
    "control.solver",
];

/// One sweep axis: a dotted schema path and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Dotted path into the scenario schema (`table.key`).
    pub path: String,
    /// The values this axis ranges over, in file order.
    pub values: Vec<Value>,
    /// 1-based spec line of the axis entry (carried into grid-point
    /// diagnostics when a substituted value fails validation).
    pub line: usize,
}

/// A parsed spec file: the base scenario table, the sweep axes and the
/// report options.
///
/// A spec without a `[sweep]` table is a valid sweep of exactly one grid
/// point (the base scenario).
///
/// ```
/// use tps_scenario::Sweep;
///
/// let sweep = Sweep::parse(
///     "
///     [workload]
///     jobs = 8
///     [sweep]
///     cooling.heat_reuse_c = [45.0, 70.0]
///     dispatch.dispatcher = [\"rr\", \"thermal\"]
///     ",
///     "demo",
/// )
/// .unwrap();
/// let grid = sweep.expand().unwrap();
/// assert_eq!(grid.len(), 4);
/// assert_eq!(grid[0].name, "cooling.heat_reuse_c=45,dispatch.dispatcher=rr");
/// assert_eq!(grid[3].heat_reuse_c, 70.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Spec name (`name` key, else the caller-provided hint).
    pub name: String,
    /// The sweep axes, in file order (empty ⇒ single-point grid).
    pub axes: Vec<Axis>,
    /// `[report] baseline = "…"`: grid-point name deltas are taken
    /// against. Defaults to the first grid point.
    pub baseline: Option<String>,
    base: Table,
    /// Demand models and control policies the axes can switch to
    /// (relaxes the per-model/per-policy key applicability checks across
    /// the whole grid).
    swept: SweptAxes,
}

impl Sweep {
    /// Parses a spec file into its base scenario, axes and report options.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for syntax errors, schema violations of the
    /// base scenario, axes that do not name a sweepable scalar key, empty
    /// or non-array axes, and malformed `[report]` tables.
    pub fn parse(src: &str, name_hint: &str) -> Result<Self, SpecError> {
        let mut doc = toml::parse(src)?;
        reject_empty(&doc)?;
        let sweep_table = doc.remove("sweep");
        let report_table = doc.remove("report");

        let axes = match &sweep_table {
            None => Vec::new(),
            Some(spanned) => match &spanned.value {
                Value::Table(t) => parse_axes(t)?,
                other => {
                    return Err(SpecError::at(
                        spanned.line,
                        format!(
                            "`sweep` must be a `[sweep]` table, found a {}",
                            other.type_name()
                        ),
                    ))
                }
            },
        };

        let baseline = match &report_table {
            None => None,
            Some(spanned) => match &spanned.value {
                Value::Table(t) => {
                    for (key, v) in t.entries() {
                        if key != "baseline" {
                            return Err(SpecError::at(
                                v.line,
                                format!("unknown key `{key}` in `[report]` (expected: baseline)"),
                            ));
                        }
                    }
                    match t.get("baseline") {
                        None => None,
                        Some(v) => match &v.value {
                            Value::String(s) => Some(s.clone()),
                            other => {
                                return Err(SpecError::at(
                                    v.line,
                                    format!(
                                        "`baseline` must be a grid-point name string, found a {}",
                                        other.type_name()
                                    ),
                                ))
                            }
                        },
                    }
                }
                other => {
                    return Err(SpecError::at(
                        spanned.line,
                        format!(
                            "`report` must be a `[report]` table, found a {}",
                            other.type_name()
                        ),
                    ))
                }
            },
        };

        let axis_strings = |path: &str| -> Vec<String> {
            axes.iter()
                .filter(|a| a.path == path)
                .flat_map(|a| &a.values)
                .filter_map(|v| match v {
                    Value::String(s) => Some(s.clone()),
                    _ => None,
                })
                .collect()
        };
        let swept = SweptAxes {
            demands: axis_strings("workload.demand"),
            controls: axis_strings("control.policy"),
            modes: axis_strings("workload.mode"),
        };

        // Validate the base scenario once up front so a broken spec fails
        // before any expansion work.
        let base_scenario = Scenario::from_table(&doc, name_hint, &swept)?;
        Ok(Self {
            name: base_scenario.name,
            axes,
            baseline,
            base: doc,
            swept,
        })
    }

    /// Number of grid points the axes expand to.
    pub fn grid_len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product::<usize>()
    }

    /// Expands the axes into the full cartesian grid of validated
    /// scenarios, in row-major file order (last axis fastest). Each point
    /// is named `path=value,…` over all axes; a sweep without axes yields
    /// the base scenario under the spec name.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] any substituted grid point fails
    /// validation with (e.g. an axis value of the wrong type).
    pub fn expand(&self) -> Result<Vec<Scenario>, SpecError> {
        if self.axes.is_empty() {
            return Ok(vec![Scenario::from_table(
                &self.base,
                &self.name,
                &self.swept,
            )?]);
        }
        let mut grid = Vec::with_capacity(self.grid_len());
        let mut indices = vec![0usize; self.axes.len()];
        loop {
            let mut doc = self.base.clone();
            let mut name_parts = Vec::with_capacity(self.axes.len());
            for (axis, &i) in self.axes.iter().zip(&indices) {
                let value = &axis.values[i];
                set_path(
                    &mut doc,
                    &axis.path,
                    Spanned {
                        value: value.clone(),
                        line: axis.line,
                    },
                );
                name_parts.push(format!("{}={}", axis.path, value.display_compact()));
            }
            let name = name_parts.join(",");
            let scenario =
                Scenario::from_table(&doc, &name, &self.swept).map_err(|e| SpecError {
                    line: e.line,
                    message: format!("grid point `{name}`: {}", e.message),
                })?;
            // Grid points are named by their axis values even when the base
            // spec carries a `name` key.
            let scenario = Scenario { name, ..scenario };
            grid.push(scenario);

            // Odometer increment, last axis fastest.
            let mut k = self.axes.len();
            loop {
                if k == 0 {
                    return Ok(grid);
                }
                k -= 1;
                indices[k] += 1;
                if indices[k] < self.axes[k].values.len() {
                    break;
                }
                indices[k] = 0;
            }
        }
    }

    /// Expands and executes the whole grid across up to `threads` OS
    /// threads, returning the report in grid order.
    ///
    /// Grid points share one [`OutcomeCache`], whose key holds every
    /// input a solve depends on (pitch, water flow and case limit
    /// included), so e.g. a five-point heat-reuse sweep performs the
    /// per-server solves exactly once. Byte-deterministic: thread count
    /// only changes wall time.
    ///
    /// # Errors
    ///
    /// Returns the first [`SweepError`] — a schema violation during
    /// expansion, a per-server physics failure, a grid point that
    /// consumed no IT energy, or a `[report] baseline` naming no grid
    /// point.
    pub fn run(&self, threads: usize) -> Result<SweepReport, SweepError> {
        self.execute(threads, false).map(|(report, _)| report)
    }

    /// Like [`run`](Self::run), but additionally collects each grid
    /// point's telemetry trace (per the spec's `[telemetry]` table, or
    /// the default 30 s cadence when absent), in grid order. Traces are
    /// byte-deterministic across runs and thread counts, like the report.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`run`](Self::run).
    pub fn run_traced(&self, threads: usize) -> Result<(SweepReport, Vec<FleetTrace>), SweepError> {
        self.execute(threads, true)
            .map(|(report, traces)| (report, traces.into_iter().flatten().collect()))
    }

    fn execute(
        &self,
        threads: usize,
        collect_traces: bool,
    ) -> Result<(SweepReport, Vec<Option<FleetTrace>>), SweepError> {
        let scenarios = self.expand()?;
        // Resolve the baseline *before* the grid executes: a typo'd name
        // must not cost a full sweep's worth of solver time.
        let baseline = match &self.baseline {
            None => 0,
            Some(name) => scenarios
                .iter()
                .position(|s| &s.name == name)
                .ok_or_else(|| {
                    SweepError::Spec(SpecError::global(format!(
                        "[report] baseline `{name}` does not name a grid point (have: {})",
                        scenarios
                            .iter()
                            .map(|s| s.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )))
                })?,
        };
        let (results, counters) = run_grid(&scenarios, threads, collect_traces)?;
        let mut rows = Vec::with_capacity(results.len());
        let mut traces = Vec::with_capacity(results.len());
        let mut peak_queue_depth = 0;
        let mut arena_high_water = 0;
        for (s, result) in scenarios.iter().zip(results) {
            peak_queue_depth = peak_queue_depth.max(result.stats.peak_queue_depth);
            arena_high_water = arena_high_water.max(result.stats.arena_high_water);
            if result.outcome.pue().is_none() {
                return Err(SweepError::NoItEnergy {
                    scenario: s.name.clone(),
                });
            }
            rows.push(SweepRow::new(s, &result.outcome));
            traces.push(result.trace);
        }
        Ok((
            SweepReport {
                spec_name: self.name.clone(),
                axes: self.axes.iter().map(|a| a.path.clone()).collect(),
                rows,
                baseline,
                cache_solves: counters.solves,
                cache_hits: counters.hits,
                table_hits: counters.table_hits,
                miss_solves: counters.miss_solves,
                lock_acquisitions: counters.lock_acquisitions,
                peak_queue_depth,
                arena_high_water,
            },
            traces,
        ))
    }
}

/// Cache activity summed over every shared cache a grid used.
struct GridCounters {
    solves: usize,
    hits: usize,
    table_hits: usize,
    miss_solves: usize,
    lock_acquisitions: usize,
}

/// Executes already-expanded scenarios across up to `threads` OS threads,
/// collecting outcomes back into grid order, plus the total cache
/// counters across the whole grid.
///
/// Two phases. First, the distinct per-server solves: grid points are
/// grouped by their catalog's *resolved per-class* thermal pitch, water
/// inlet and mapping policy, and each group's union of `(benchmark,
/// qos)` pairs is warmed *once*, in parallel across the group's classes,
/// into the one cache the whole grid shares. Its key holds every input a
/// solve depends on, so groups never alias, and a later group finds the
/// keys an earlier one shares with it (same cores, another policy)
/// already solved. Second, the grid points themselves run across worker
/// threads as pure cache replays.
fn run_grid(
    scenarios: &[Scenario],
    threads: usize,
    collect_traces: bool,
) -> Result<(Vec<SimResult>, GridCounters), SweepError> {
    let threads = threads.max(1);
    // Job streams are needed for both phases; synthesis is cheap and
    // deterministic, so do it once up front.
    let jobs: Vec<Vec<tps_cluster::Job>> =
        scenarios.iter().map(Scenario::synthesize_jobs).collect();

    // Group key: the resolved (pitch, inlet, policy) of every catalog
    // class, in class-id order (one entry on a homogeneous spec).
    type ClassSig = (u64, u64, tps_cluster::ServerPolicy);
    let sig_of = |s: &Scenario| -> Vec<ClassSig> {
        if s.classes.is_empty() {
            vec![(
                s.grid_pitch_mm.to_bits(),
                s.water_inlet_c.to_bits(),
                s.policy,
            )]
        } else {
            s.classes
                .iter()
                .map(|c| {
                    (
                        c.grid_pitch_mm.unwrap_or(s.grid_pitch_mm).to_bits(),
                        c.water_inlet_c.unwrap_or(s.water_inlet_c).to_bits(),
                        c.policy.unwrap_or(s.policy),
                    )
                })
                .collect()
        }
    };
    let mut groups: Vec<(Vec<ClassSig>, Vec<usize>)> = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        let key = sig_of(s);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }

    // Phase 1: one warm-up per physics group.
    let cache = OutcomeCache::new();
    for (_, members) in &groups {
        let representative = &scenarios[members[0]];
        let fleet = tps_cluster::Fleet::new(representative.fleet_config());
        let mut pairs: Vec<(tps_workload::Benchmark, tps_workload::QosClass)> = members
            .iter()
            .flat_map(|&i| jobs[i].iter().map(|j| (j.bench, j.qos)))
            .collect();
        pairs.sort();
        pairs.dedup();
        fleet
            .warm(&pairs, &cache, threads)
            .map_err(|e| SweepError::Run {
                scenario: representative.name.clone(),
                source: e,
            })?;
    }
    // Phase boundary: freeze the warmed cache into a published
    // `SolveTable` epoch now, so every phase-2 replay finds a covering
    // table up front and resolves its demand states lock-free — no
    // first-run-in racing to publish, no per-point map traffic.
    cache.publish();

    // Phase 2: replay the grid across workers. Each point gets fresh
    // dispatcher *and* control instances (both can be stateful); phase 1
    // warmed every pair a point needs, so a replay never solves and its
    // spec's warm-up `threads` go unused. Outcomes and traces are
    // bit-identical at any worker count, so the split is pure scheduling.
    let workers = threads.clamp(1, scenarios.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<SimResult, RunError>>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= scenarios.len() {
                    break;
                }
                let scenario = &scenarios[i];
                let fleet = tps_cluster::Fleet::new(scenario.fleet_config());
                let mut dispatcher = scenario.dispatcher.instantiate();
                let mut control = scenario.control.instantiate();
                let telemetry =
                    collect_traces.then(|| scenario.telemetry.unwrap_or_default().to_config());
                let result = fleet.simulate_with(
                    &jobs[i],
                    dispatcher.as_mut(),
                    control.as_mut(),
                    telemetry.as_ref(),
                    &cache,
                );
                *results[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    let counters = GridCounters {
        solves: cache.solves(),
        hits: cache.hits(),
        table_hits: cache.table_hits(),
        miss_solves: cache.miss_solves(),
        lock_acquisitions: cache.lock_acquisitions(),
    };
    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every grid point was executed")
                .map_err(|e| SweepError::Run {
                    scenario: scenarios[i].name.clone(),
                    source: e,
                })
        })
        .collect::<Result<Vec<_>, _>>()
        .map(|results| (results, counters))
}

fn parse_axes(table: &Table) -> Result<Vec<Axis>, SpecError> {
    let mut axes = Vec::with_capacity(table.len());
    for (path, v) in table.entries() {
        if !SWEEPABLE.contains(&path.as_str()) {
            return Err(SpecError::at(
                v.line,
                format!(
                    "sweep axis `{path}` does not name a sweepable scenario key \
                     (sweepable: {})",
                    SWEEPABLE.join(", ")
                ),
            ));
        }
        let Value::Array(items) = &v.value else {
            return Err(SpecError::at(
                v.line,
                format!(
                    "sweep axis `{path}` must be an array of values, found a {}",
                    v.value.type_name()
                ),
            ));
        };
        if items.is_empty() {
            return Err(SpecError::at(
                v.line,
                format!("sweep axis `{path}` is empty — list at least one value"),
            ));
        }
        axes.push(Axis {
            path: path.clone(),
            values: items.iter().map(|i| i.value.clone()).collect(),
            line: v.line,
        });
    }
    Ok(axes)
}

/// Why a sweep failed: the spec, or the physics of one grid point.
#[derive(Debug)]
pub enum SweepError {
    /// A schema/axis violation.
    Spec(SpecError),
    /// The per-server pipeline failed for one grid point.
    Run {
        /// The grid point's name.
        scenario: String,
        /// The underlying per-server error.
        source: RunError,
    },
    /// A grid point ran no job for a nonzero time, so its PUE is
    /// undefined.
    NoItEnergy {
        /// The grid point's name.
        scenario: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Spec(e) => write!(f, "{e}"),
            SweepError::Run { scenario, source } => {
                write!(f, "grid point `{scenario}`: {source}")
            }
            SweepError::NoItEnergy { scenario } => write!(
                f,
                "grid point `{scenario}` consumed no IT energy: no job ran for a nonzero \
                 time, so its PUE is undefined (arrivals this sparse round every runtime \
                 away; raise `workload.rate`)"
            ),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Spec(e) => Some(e),
            SweepError::Run { source, .. } => Some(source),
            SweepError::NoItEnergy { .. } => None,
        }
    }
}

impl From<SpecError> for SweepError {
    fn from(e: SpecError) -> Self {
        SweepError::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "
        [fleet]
        racks = 2
        servers_per_rack = 2
        grid_pitch_mm = 3.0
        threads = 2
        [workload]
        jobs = 16
        rate = 1.0
        demand = \"constant\"
    ";

    fn with_sweep(extra: &str) -> String {
        format!("{SMALL}\n{extra}\n")
    }

    #[test]
    fn no_sweep_table_is_a_single_point() {
        let sweep = Sweep::parse(SMALL, "single").unwrap();
        assert_eq!(sweep.grid_len(), 1);
        let grid = sweep.expand().unwrap();
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].name, "single");
    }

    #[test]
    fn cartesian_expansion_is_row_major_and_named() {
        let src = with_sweep(
            "[sweep]\n\
             cooling.heat_reuse_c = [45.0, 70.0]\n\
             dispatch.dispatcher = [\"rr\", \"coolest\", \"thermal\"]",
        );
        let sweep = Sweep::parse(&src, "grid").unwrap();
        assert_eq!(sweep.grid_len(), 6);
        let grid = sweep.expand().unwrap();
        assert_eq!(grid.len(), 6);
        // Last axis fastest.
        assert_eq!(
            grid[0].name,
            "cooling.heat_reuse_c=45,dispatch.dispatcher=rr"
        );
        assert_eq!(
            grid[1].name,
            "cooling.heat_reuse_c=45,dispatch.dispatcher=coolest"
        );
        assert_eq!(
            grid[5].name,
            "cooling.heat_reuse_c=70,dispatch.dispatcher=thermal"
        );
        assert_eq!(grid[5].heat_reuse_c, 70.0);
        // Non-swept keys stay at the base values everywhere.
        assert!(grid.iter().all(|s| s.jobs == 16 && s.racks == 2));
    }

    #[test]
    fn unknown_axis_is_rejected_with_line() {
        let src = with_sweep("[sweep]\ncooling.heat_reuse = [45.0]");
        let e = Sweep::parse(&src, "x").unwrap_err();
        assert!(e.line.is_some());
        assert!(e.message.contains("sweep axis `cooling.heat_reuse`"), "{e}");
        assert!(e.message.contains("cooling.heat_reuse_c"), "{e}");
    }

    #[test]
    fn non_array_and_empty_axes_are_rejected() {
        let e = Sweep::parse(&with_sweep("[sweep]\nworkload.rate = 0.5"), "x").unwrap_err();
        assert!(e.message.contains("must be an array"), "{e}");
        let e = Sweep::parse(&with_sweep("[sweep]\nworkload.rate = []"), "x").unwrap_err();
        assert!(e.message.contains("is empty"), "{e}");
    }

    #[test]
    fn bad_axis_value_names_the_grid_point_and_axis_line() {
        let src = with_sweep("[sweep]\nfleet.policy = [\"proposed\", \"nope\"]");
        let sweep = Sweep::parse(&src, "x").unwrap();
        let e = sweep.expand().unwrap_err();
        assert!(e.message.contains("grid point `fleet.policy=nope`"), "{e}");
        assert!(e.message.contains("unknown policy"), "{e}");
        // The diagnostic points at the axis entry in the spec, not at a
        // synthetic location.
        let axis_line = src
            .lines()
            .position(|l| l.contains("fleet.policy"))
            .map(|i| i + 1);
        assert_eq!(e.line, axis_line, "{e}");
    }

    #[test]
    fn sweep_only_spec_defaults_the_base_scenario() {
        let sweep = Sweep::parse("[sweep]\nworkload.jobs = [4, 8]\n", "bare").unwrap();
        let grid = sweep.expand().unwrap();
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].jobs, 4);
        assert_eq!(grid[1].jobs, 8);
        assert_eq!(grid[0].racks, 2); // schema default
    }

    #[test]
    fn inapplicable_demand_keys_fail_unless_demand_is_swept() {
        // period_s under constant demand: rejected when the axis value is
        // substituted into a grid point (the base spec itself has no
        // period_s key).
        let src = with_sweep("[sweep]\nworkload.period_s = [300.0, 600.0]");
        let e = Sweep::parse(&src, "x").unwrap().expand().unwrap_err();
        assert!(e.message.contains("`period_s` only applies"), "{e}");
        assert!(e.message.contains("sweep workload.demand"), "{e}");

        // A base-spec key that contradicts the demand model fails at
        // Sweep::parse already.
        let e = Sweep::parse(&format!("{SMALL}\nburst_s = 30.0\n"), "x").unwrap_err();
        assert!(e.message.contains("`burst_s` only applies"), "{e}");

        // …but sweeping the demand model itself legitimizes the key.
        let src = with_sweep(
            "[sweep]\nworkload.demand = [\"constant\", \"diurnal\"]\n\
             workload.period_s = [300.0, 600.0]",
        );
        let sweep = Sweep::parse(&src, "x").unwrap();
        assert_eq!(sweep.expand().unwrap().len(), 4);
    }

    #[test]
    fn baseline_typo_fails_before_any_execution() {
        let src = with_sweep("[report]\nbaseline = \"oops\"\n[sweep]\nworkload.seed = [1, 2]");
        let sweep = Sweep::parse(&src, "x").unwrap();
        // A 1 ms budget is far below one coupled solve: the error must
        // surface from name resolution alone, not after running the grid.
        let t = std::time::Instant::now();
        let e = sweep.run(1).unwrap_err();
        assert!(
            t.elapsed() < std::time::Duration::from_millis(50),
            "ran the grid first"
        );
        assert!(e.to_string().contains("baseline `oops`"), "{e}");
    }

    #[test]
    fn control_policy_axis_compares_static_and_setpoint() {
        // The base spec carries the set-point program; the axis switches
        // the policy, so `times_s`/`setpoints_c` must stay legal at the
        // static grid point.
        let src = with_sweep(
            "[control]\n\
             times_s = [0.0, 30.0]\n\
             setpoints_c = [70.0, 45.0]\n\
             [telemetry]\n\
             sample_s = 10.0\n\
             [sweep]\n\
             control.policy = [\"static\", \"setpoint\"]\n\
             [report]\n\
             baseline = \"control.policy=static\"",
        );
        let sweep = Sweep::parse(&src, "ctrl").unwrap();
        let (report, traces) = sweep.run_traced(2).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].control, "static");
        assert_eq!(report.rows[1].control, "setpoint");
        // Dropping the heat-reuse loop to 45 °C mid-run can only help the
        // chiller: the scheduled point undercuts the static baseline.
        assert!(report.rows[1].cooling_kwh < report.rows[0].cooling_kwh);
        assert_eq!(report.rows[0].it_kwh, report.rows[1].it_kwh);
        // One trace per grid point, reflecting the spec cadence, and the
        // control column lands in both emitters.
        assert_eq!(traces.len(), 2);
        assert!(traces.iter().all(|t| !t.is_empty()));
        assert!(
            report.to_csv().contains(",setpoint,"),
            "{}",
            report.to_csv()
        );
        assert!(report.to_markdown().contains("| setpoint |"));

        // Traces are byte-deterministic across worker counts.
        let (_, again) = sweep.run_traced(1).unwrap();
        for (a, b) in traces.iter().zip(&again) {
            assert_eq!(a.to_csv(), b.to_csv());
        }
    }

    #[test]
    fn shed_control_spec_runs_and_reports_shed_jobs() {
        // One overloaded server with an aggressive watermark: the report
        // must surface the shed arrivals.
        let src = "
            [fleet]
            racks = 1
            servers_per_rack = 1
            grid_pitch_mm = 3.0
            threads = 2
            [workload]
            jobs = 30
            rate = 2.0
            demand = \"constant\"
            [control]
            policy = \"shed\"
            tick_s = 5.0
            high_watermark = 4
            low_watermark = 1
        ";
        let sweep = Sweep::parse(src, "shed").unwrap();
        let report = sweep.run(2).unwrap();
        assert_eq!(report.rows[0].control, "shed");
        assert!(report.rows[0].shed > 0, "overload never shed");
        let csv = report.to_csv();
        assert!(csv.lines().next().unwrap().contains(",shed,"), "{csv}");
    }

    #[test]
    fn serving_mode_sweeps_autoscale_against_static() {
        // Light load on a 2×2 fleet: autoscale should park most of the
        // fleet while static keeps every server burning idle power.
        let src = "
            [fleet]
            racks = 2
            servers_per_rack = 2
            grid_pitch_mm = 3.0
            threads = 2
            [workload]
            mode = \"serving\"
            jobs = 60
            rate = 0.5
            mean_service_s = 2.0
            [control]
            tick_s = 10.0
            min_servers = 2
            step_servers = 2
            queue_high = 1.5
            queue_low = 0.25
            p99_slo_s = 8.0
            [sweep]
            control.policy = [\"autoscale\", \"static\"]
            [report]
            baseline = \"control.policy=static\"
        ";
        let sweep = Sweep::parse(src, "serve").unwrap();
        let a = sweep.run(2).unwrap();
        let b = sweep.run(1).unwrap();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.rows.len(), 2);
        assert_eq!(a.rows[0].control, "autoscale");
        let auto = a.rows[0].serving.as_ref().expect("serving row");
        let stat = a.rows[1].serving.as_ref().expect("serving row");
        // Static control never touches the activation set.
        assert_eq!(stat.mean_active_servers, 4.0);
        assert!(auto.mean_active_servers < stat.mean_active_servers);
        // Shedding idle capacity is the energy win the policy exists for.
        assert!(a.rows[0].total_kwh < a.rows[1].total_kwh);
        let header = a.to_csv().lines().next().unwrap().to_owned();
        assert!(
            header.contains("lat_p50_s,lat_p99_s,mean_active_servers"),
            "{header}"
        );
        assert!(a.to_markdown().contains("## Serving latency"));
    }

    #[test]
    fn planner_policy_axis_sweeps_against_static() {
        // The base spec carries the planner keys; the axis switches the
        // policy, so they must stay legal at the static grid point.
        let src = with_sweep(
            "[control]\n\
             tick_s = 20.0\n\
             horizon_s = 120.0\n\
             setpoint_grid = [35.0, 45.0, 70.0]\n\
             [sweep]\n\
             control.policy = [\"static\", \"planner\"]\n\
             [report]\n\
             baseline = \"control.policy=static\"",
        );
        let sweep = Sweep::parse(&src, "plan").unwrap();
        let a = sweep.run(2).unwrap();
        let b = sweep.run(1).unwrap();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.rows.len(), 2);
        assert_eq!(a.rows[0].control, "static");
        assert_eq!(a.rows[1].control, "planner");
        // The planner may move the set-point off the 70 °C base; it must
        // never burn more cooling energy than the open-loop baseline here
        // (the grid includes the base set-point, so staying put is free).
        assert!(a.rows[1].cooling_kwh <= a.rows[0].cooling_kwh);
    }

    #[test]
    fn planner_solver_and_horizon_are_sweepable() {
        let src = with_sweep(
            "[control]\n\
             policy = \"planner\"\n\
             setpoint_grid = [45.0, 70.0]\n\
             anneal_iters = 200\n\
             [sweep]\n\
             control.solver = [\"lp\", \"anneal\"]\n\
             control.horizon_s = [60.0, 240.0]",
        );
        let sweep = Sweep::parse(&src, "solvers").unwrap();
        let grid = sweep.expand().unwrap();
        assert_eq!(grid.len(), 4);
        let report = sweep.run(2).unwrap();
        assert_eq!(report.rows.len(), 4);
        assert!(report.rows.iter().all(|r| r.control == "planner"));
        // Same seed, same spec ⇒ deterministic across worker counts.
        assert_eq!(report.to_csv(), sweep.run(1).unwrap().to_csv());
    }

    #[test]
    fn run_is_deterministic_across_thread_counts() {
        let src = with_sweep("[sweep]\ncooling.heat_reuse_c = [45.0, 60.0, 70.0]");
        let sweep = Sweep::parse(&src, "det").unwrap();
        let a = sweep.run(1).unwrap();
        let b = sweep.run(4).unwrap();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_markdown(), b.to_markdown());
        assert_eq!(a.rows.len(), 3);
        // A hotter heat-reuse loop raises the rejection temperature, so
        // more of the fleet's heat pays compressor lift: chiller energy is
        // monotone in the set-point for a fixed placement stream.
        assert!(a.rows[0].cooling_kwh <= a.rows[2].cooling_kwh);
    }

    /// The paper's Table II comparison as a grid: four mapping policies
    /// over every (benchmark, QoS) pair the stream draws — all 39 of them.
    /// The policies ask for 156 (policy, pair) solves, but a policy
    /// reaches the physics only through the cores it maps, and a 1× job
    /// runs on all eight under every policy: 109 distinct core sets, so
    /// the shared cache solves 109 times and replays the other 47, at any
    /// thread count.
    #[test]
    fn a_policy_sweep_solves_each_core_set_once() {
        let src = "
            [fleet]
            racks = 2
            servers_per_rack = 4
            grid_pitch_mm = 4.5
            [workload]
            jobs = 400
            seed = 42
            demand = \"constant\"
            rate = 0.1
            [sweep]
            fleet.policy = [\"proposed\", \"coskun\", \"inlet\", \"packed\"]
        ";
        let sweep = Sweep::parse(src, "policies").unwrap();
        let pairs: std::collections::BTreeSet<_> = sweep.expand().unwrap()[0]
            .synthesize_jobs()
            .iter()
            .map(|j| (j.bench, j.qos))
            .collect();
        assert_eq!(pairs.len(), 39);
        for threads in [1, 4] {
            let report = sweep.run(threads).unwrap();
            assert_eq!(report.cache_solves, 109, "{threads} threads");
            assert_eq!(report.cache_hits, 156 - 109, "{threads} threads");
        }
    }

    const MIXED: &str = "
        [fleet]
        racks = 2
        servers_per_rack = 2
        grid_pitch_mm = 3.0
        threads = 2
        classes = [\"dense\", \"sparse\"]
        [[server_class]]
        name = \"dense\"
        [[server_class]]
        name = \"sparse\"
        grid_pitch_mm = 3.5
        water_inlet_c = 35
        [workload]
        jobs = 16
        rate = 1.0
        demand = \"constant\"
    ";

    #[test]
    fn heterogeneous_grid_runs_deterministically_with_class_columns() {
        let src = format!("{MIXED}\n[sweep]\ndispatch.dispatcher = [\"rr\", \"thermal\"]\n");
        let sweep = Sweep::parse(&src, "mixed").unwrap();
        let a = sweep.run(4).unwrap();
        let b = sweep.run(1).unwrap();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_markdown(), b.to_markdown());
        // Per-class columns surface in both emitters.
        let header = a.to_csv().lines().next().unwrap().to_owned();
        assert!(header.contains("class_dense_it_kwh"), "{header}");
        assert!(header.contains("class_sparse_viol"), "{header}");
        assert!(a.to_markdown().contains("Per-class breakdown"));
        // Every job landed on some class.
        for row in &a.rows {
            assert_eq!(row.classes.iter().map(|c| c.placements).sum::<usize>(), 16);
        }
        // The shared cache warmed each (class, bench, qos, …) key once,
        // and the phase-boundary publication froze those solves into a
        // covering `SolveTable`: every grid point's demand states resolve
        // lock-free from the table (zero map traffic, zero miss solves in
        // phase 2).
        assert!(a.cache_solves > 0);
        assert!(a.table_hits > 0);
        assert_eq!(a.cache_hits, 0);
        assert_eq!(a.miss_solves, 0);
        // The kernel's queue counters aggregate across the grid (every
        // point pushes at least its arrivals through the queue).
        assert!(a.peak_queue_depth > 0);
        assert!(a.arena_high_water > 0);
    }

    #[test]
    fn class_mix_is_sweepable_as_an_axis() {
        let src = format!(
            "{MIXED}\n[sweep]\nfleet.classes = [\"dense\", \"sparse\", \"dense+sparse\"]\n"
        );
        let sweep = Sweep::parse(&src, "mixes").unwrap();
        let grid = sweep.expand().unwrap();
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[0].rack_classes, vec![vec![0]; 2]);
        assert_eq!(grid[1].rack_classes, vec![vec![1]; 2]);
        assert_eq!(grid[2].rack_classes, vec![vec![0, 1]; 2]);
        let report = sweep.run(2).unwrap();
        assert_eq!(report.rows.len(), 3);
        // The all-sparse point runs entirely on the sparse class.
        assert_eq!(report.rows[1].classes[0].placements, 0);
        assert_eq!(report.rows[1].classes[1].placements, 16);
    }

    #[test]
    fn baseline_must_name_a_grid_point() {
        let src = with_sweep("[report]\nbaseline = \"nope\"\n[sweep]\nworkload.seed = [1, 2]");
        let sweep = Sweep::parse(&src, "x").unwrap();
        let e = sweep.run(2).unwrap_err();
        let SweepError::Spec(e) = e else {
            panic!("expected a spec error")
        };
        assert!(e.message.contains("baseline `nope`"), "{e}");
        assert!(e.message.contains("workload.seed=1"), "{e}");
    }
}
