//! Global optimizing planner: joint placement + set-point co-optimization.
//!
//! The greedy dispatchers place each arrival in isolation and the
//! set-point scheduler is open-loop. This module closes the loop: it
//! looks at a *horizon* of pending jobs at once and co-optimizes which
//! `(rack, class)` slot each job lands on **and** which chiller set-point
//! the fleet should run, minimizing total energy
//!
//! ```text
//!   Σ_jobs  power(job, class) × runtime(job, class)          (IT energy)
//! + Σ_racks heat(rack) × (1/COP)(supply(rack)) × horizon     (cooling)
//! ```
//!
//! where `supply(rack)` is the minimum tolerable water temperature over
//! the jobs committed to the rack (colder water → better COP for nobody,
//! worse COP for everybody on the chiller).
//!
//! Two solver cores ship, both hand-rolled (no crates.io deps, like the
//! vendored TOML parser), and both price cooling through a
//! piecewise-linear upper envelope of the chiller curve ([`PwlCop`])
//! sampled from the real [`Chiller`]:
//!
//! * **`lp`** — the PWL-linearized solve: per candidate set-point, a
//!   greedy construction plus steepest-descent moves builds an
//!   incumbent, and on windows of at most 12 jobs a bounded
//!   branch-and-bound searches for a cheaper plan.
//! * **`anneal`** — simulated annealing over joint
//!   `(assignment, set-point)` moves, seeded from the vendored SplitMix64
//!   `StdRng`: deterministic per seed, never worse than greedy.
//!
//! [`PlannerControl`] packages the solver as a [`ControlPolicy`]: it
//! re-plans on `ControlTick`, emits set-point actions, and publishes a
//! placement-hint table the kernel consults on each arrival before
//! falling back to the configured dispatcher.

mod anneal;
pub mod pwl;

pub use pwl::PwlCop;

use crate::cache::SteadyState;
use crate::catalog::ClassId;
use crate::control::{ControlAction, ControlPolicy, ControlStatus, PlacementHint, RunContext};
use crate::job::Job;
use std::collections::BTreeMap;
use tps_cooling::Chiller;
use tps_units::{Celsius, Seconds};

/// Jobs per planning window; arrivals beyond the cap wait for a later
/// re-plan (the greedy fallback still places them if they arrive first).
const PLAN_JOB_CAP: usize = 32;
/// Branch-and-bound only runs on instances this small.
const BNB_JOB_CAP: usize = 12;
/// Node budget for one branch-and-bound search.
const BNB_NODE_CAP: usize = 50_000;
/// Bounded steepest-descent passes after the greedy construction.
const DESCENT_PASSES: usize = 50;
/// Base seed for the in-control annealer; XOR'd with the tick index so
/// consecutive re-plans explore differently while staying reproducible.
const ANNEAL_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// One placement option for a job: what running it on a given server
/// class costs and demands.
#[derive(Debug, Clone, Copy)]
pub struct PlanOption {
    /// Steady-state package power on this class, watts.
    pub power_w: f64,
    /// Heat rejected to the water loop, watts.
    pub heat_w: f64,
    /// Warmest tolerable supply water, °C.
    pub water_c: f64,
    /// Wall-clock runtime on this class, seconds.
    pub runtime_s: f64,
}

/// A job in the planning window with one [`PlanOption`] per server class.
#[derive(Debug, Clone)]
pub struct PlanJob {
    /// Kernel job id — the key the placement-hint table is published
    /// under.
    pub id: usize,
    /// Options indexed by class id; every class must be present.
    pub options: Vec<PlanOption>,
}

/// A rack in the planning window: its already-committed load plus free
/// capacity.
#[derive(Debug, Clone)]
pub struct PlanRack {
    /// Heat already committed to the rack, watts.
    pub base_heat_w: f64,
    /// Supply ceiling imposed by the committed jobs, °C (`None` when the
    /// rack is idle).
    pub base_supply_c: Option<f64>,
    /// Free server slots per class id.
    pub free: Vec<usize>,
}

/// A self-contained planning instance: jobs × racks × candidate
/// set-points under one chiller.
#[derive(Debug, Clone)]
pub struct PlanInstance {
    /// Jobs to place, in arrival order.
    pub jobs: Vec<PlanJob>,
    /// Racks with capacity and committed load.
    pub racks: Vec<PlanRack>,
    /// Candidate chiller set-points (ambient re-targets), °C.
    pub setpoints_c: Vec<f64>,
    /// The chiller whose curve is being optimized against; each candidate
    /// set-point evaluates `chiller.with_ambient(setpoint)`.
    pub chiller: Chiller,
    /// Cooling-energy horizon, seconds.
    pub horizon_s: f64,
}

/// A solved plan: joint placement + set-point choice.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Per-job `(rack, class)` slot, aligned with the instance's jobs.
    pub assign: Vec<(u32, u32)>,
    /// Index into the instance's set-point grid.
    pub setpoint: usize,
    /// PWL objective of the plan, joules.
    pub objective_j: f64,
}

impl PlanInstance {
    /// Number of server classes (options per job, free counts per rack).
    pub fn classes(&self) -> usize {
        self.racks.first().map_or(0, |r| r.free.len())
    }

    /// Clone of the per-rack per-class free-slot counts.
    pub(crate) fn free_counts(&self) -> Vec<Vec<usize>> {
        self.racks.iter().map(|r| r.free.clone()).collect()
    }

    /// Panics unless the instance is well-formed: consistent class
    /// counts, finite demands, and enough free capacity for every job.
    pub fn validate(&self) {
        assert!(!self.racks.is_empty(), "plan instance needs racks");
        assert!(
            !self.setpoints_c.is_empty(),
            "plan instance needs at least one candidate set-point"
        );
        assert!(
            self.setpoints_c.iter().all(|s| s.is_finite()),
            "candidate set-points must be finite"
        );
        assert!(
            self.horizon_s.is_finite() && self.horizon_s > 0.0,
            "plan horizon must be positive and finite"
        );
        let classes = self.classes();
        for rack in &self.racks {
            assert_eq!(rack.free.len(), classes, "rack class counts disagree");
            assert!(
                rack.base_heat_w.is_finite() && rack.base_heat_w >= 0.0,
                "rack base heat must be finite and non-negative"
            );
        }
        let capacity: usize = self
            .racks
            .iter()
            .map(|r| r.free.iter().sum::<usize>())
            .sum();
        assert!(
            capacity >= self.jobs.len(),
            "plan instance overcommitted: {} jobs, {capacity} free slots",
            self.jobs.len()
        );
        for job in &self.jobs {
            assert_eq!(job.options.len(), classes, "job option counts disagree");
            for opt in &job.options {
                assert!(
                    opt.power_w.is_finite()
                        && opt.heat_w.is_finite()
                        && opt.water_c.is_finite()
                        && opt.runtime_s.is_finite(),
                    "job options must be finite"
                );
                assert!(
                    opt.heat_w >= 0.0 && opt.power_w >= 0.0 && opt.runtime_s >= 0.0,
                    "job options must be non-negative"
                );
            }
        }
    }

    /// The supply-temperature range any rack can end up at: every rack
    /// supply is a min over job waters and committed ceilings.
    fn supply_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for job in &self.jobs {
            for opt in &job.options {
                lo = lo.min(opt.water_c);
                hi = hi.max(opt.water_c);
            }
        }
        for rack in &self.racks {
            if let Some(s) = rack.base_supply_c {
                lo = lo.min(s);
                hi = hi.max(s);
            }
        }
        if lo > hi {
            // No water constraints at all — the model is never evaluated,
            // any degenerate range will do.
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Per-rack committed heat (W) and supply ceiling (°C, `∞` on an idle
    /// rack): the load every assignment is priced on top of.
    fn base_load(&self) -> (Vec<f64>, Vec<f64>) {
        self.racks
            .iter()
            .map(|r| (r.base_heat_w, r.base_supply_c.unwrap_or(f64::INFINITY)))
            .unzip()
    }

    /// One PWL inverse-COP model per candidate set-point, sampled from
    /// `chiller.with_ambient(setpoint)` over the instance's supply range.
    pub fn pwl_models(&self) -> Vec<PwlCop> {
        let (lo, hi) = self.supply_range();
        self.setpoints_c
            .iter()
            .map(|&sp| PwlCop::build(&self.chiller.with_ambient(Celsius::new(sp)), lo, hi))
            .collect()
    }
}

/// Total-energy objective of `assign` under an arbitrary inverse-COP
/// curve. Racks with no heat (or no water-constrained load) cost nothing
/// to cool, matching the kernel's accounting.
fn objective_with(inst: &PlanInstance, assign: &[(u32, u32)], inv: impl Fn(f64) -> f64) -> f64 {
    let mut it = 0.0;
    let (mut heat, mut supply) = inst.base_load();
    for (job, &(r, c)) in inst.jobs.iter().zip(assign) {
        let opt = &job.options[c as usize];
        it += opt.power_w * opt.runtime_s;
        heat[r as usize] += opt.heat_w;
        supply[r as usize] = supply[r as usize].min(opt.water_c);
    }
    it + cooling_j(&heat, &supply, inst.horizon_s, inv)
}

/// Cooling energy in joules of racks at `heat` watts and `supply` °C
/// over `horizon_s`. Racks with no heat (or no water-constrained load)
/// cost nothing to cool.
fn cooling_j(heat: &[f64], supply: &[f64], horizon_s: f64, inv: impl Fn(f64) -> f64) -> f64 {
    let mut cool = 0.0;
    for (&h, &s) in heat.iter().zip(supply) {
        if h > 0.0 && s.is_finite() {
            cool += h * inv(s) * horizon_s;
        }
    }
    cool
}

/// Energy in joules that `opt` adds on a rack at `heat` watts and supply
/// ceiling `supply`: its IT energy plus the rack's cooling increase.
fn marginal_j(pwl: &PwlCop, horizon_s: f64, heat: f64, supply: f64, opt: &PlanOption) -> f64 {
    let before = if heat > 0.0 && supply.is_finite() {
        heat * pwl.eval(supply)
    } else {
        0.0
    };
    let after = (heat + opt.heat_w) * pwl.eval(supply.min(opt.water_c));
    opt.power_w * opt.runtime_s + (after - before) * horizon_s
}

/// The plan objective in joules under the PWL chiller model for
/// set-point `pwl`.
pub fn objective_pwl(inst: &PlanInstance, assign: &[(u32, u32)], pwl: &PwlCop) -> f64 {
    objective_with(inst, assign, |s| pwl.eval(s))
}

/// Greedy construction: jobs in order, each to the `(rack, class)` slot
/// with the smallest incremental PWL energy; ties break on the lowest
/// `(rack, class)` for determinism.
fn greedy_assign(inst: &PlanInstance, pwl: &PwlCop) -> Vec<(u32, u32)> {
    let classes = inst.classes();
    let mut free = inst.free_counts();
    let (mut heat, mut supply) = inst.base_load();
    let mut assign = Vec::with_capacity(inst.jobs.len());
    for job in &inst.jobs {
        let mut best: Option<(f64, usize, usize)> = None;
        for r in 0..inst.racks.len() {
            for (c, &slots) in free[r].iter().enumerate().take(classes) {
                if slots == 0 {
                    continue;
                }
                let delta = marginal_j(pwl, inst.horizon_s, heat[r], supply[r], &job.options[c]);
                let cand = (delta, r, c);
                if best.map_or(true, |b| {
                    cand.0
                        .total_cmp(&b.0)
                        .then_with(|| (cand.1, cand.2).cmp(&(b.1, b.2)))
                        == std::cmp::Ordering::Less
                }) {
                    best = Some(cand);
                }
            }
        }
        let (_, r, c) = best.expect("validated instance has capacity for every job");
        let opt = &job.options[c];
        free[r][c] -= 1;
        heat[r] += opt.heat_w;
        supply[r] = supply[r].min(opt.water_c);
        assign.push((r as u32, c as u32));
    }
    assign
}

/// Bounded first-improvement descent over single-job moves and pairwise
/// swaps; returns the (non-increasing) final PWL objective.
fn descent(inst: &PlanInstance, pwl: &PwlCop, assign: &mut [(u32, u32)]) -> f64 {
    let classes = inst.classes();
    let mut free = inst.free_counts();
    for &(r, c) in assign.iter() {
        free[r as usize][c as usize] -= 1;
    }
    let mut obj = objective_pwl(inst, assign, pwl);
    for _ in 0..DESCENT_PASSES {
        let mut improved = false;
        for j in 0..assign.len() {
            let mut cur = assign[j];
            for r in 0..inst.racks.len() as u32 {
                for c in 0..classes as u32 {
                    if (r, c) == cur || free[r as usize][c as usize] == 0 {
                        continue;
                    }
                    assign[j] = (r, c);
                    let cand = objective_pwl(inst, assign, pwl);
                    if cand < obj - 1e-12 {
                        obj = cand;
                        free[cur.0 as usize][cur.1 as usize] += 1;
                        free[r as usize][c as usize] -= 1;
                        cur = (r, c);
                        improved = true;
                    } else {
                        assign[j] = cur;
                    }
                }
            }
        }
        for i in 0..assign.len() {
            for j in i + 1..assign.len() {
                if assign[i] == assign[j] {
                    continue;
                }
                assign.swap(i, j);
                let cand = objective_pwl(inst, assign, pwl);
                if cand < obj - 1e-12 {
                    obj = cand;
                    improved = true;
                } else {
                    assign.swap(i, j);
                }
            }
        }
        if !improved {
            break;
        }
    }
    obj
}

/// Depth-first branch-and-bound over job-by-job slot choices for a fixed
/// set-point; exact when it finishes within its node budget.
struct BranchAndBound<'a> {
    inst: &'a PlanInstance,
    pwl: &'a PwlCop,
    free: Vec<Vec<usize>>,
    heat: Vec<f64>,
    supply: Vec<f64>,
    it: f64,
    partial: Vec<(u32, u32)>,
    best_obj: f64,
    best_assign: Vec<(u32, u32)>,
    nodes: usize,
}

impl<'a> BranchAndBound<'a> {
    fn new(inst: &'a PlanInstance, pwl: &'a PwlCop, incumbent: Vec<(u32, u32)>, obj: f64) -> Self {
        let (heat, supply) = inst.base_load();
        BranchAndBound {
            inst,
            pwl,
            free: inst.free_counts(),
            heat,
            supply,
            it: 0.0,
            partial: Vec::with_capacity(inst.jobs.len()),
            best_obj: obj,
            best_assign: incumbent,
            nodes: 0,
        }
    }

    /// Per-job admissible bound for every job not yet placed: the best
    /// open slot priced at the rack's *current* supply (a lower bound on
    /// its final cost because supplies only get colder down the tree).
    fn future_bound(&self, depth: usize) -> f64 {
        let mut sum = 0.0;
        for job in &self.inst.jobs[depth..] {
            let mut best = f64::INFINITY;
            for (r, frees) in self.free.iter().enumerate() {
                for (c, &n) in frees.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    let opt = &job.options[c];
                    let u = self.supply[r].min(opt.water_c);
                    let cost = opt.power_w * opt.runtime_s
                        + opt.heat_w * self.pwl.eval(u) * self.inst.horizon_s;
                    best = best.min(cost);
                }
            }
            sum += best;
        }
        sum
    }

    fn search(&mut self, depth: usize) {
        self.nodes += 1;
        if self.nodes > BNB_NODE_CAP {
            return;
        }
        // Exact PWL cost of the partial assignment priced as if complete.
        let node_cost = self.it
            + cooling_j(&self.heat, &self.supply, self.inst.horizon_s, |s| {
                self.pwl.eval(s)
            });
        if depth == self.inst.jobs.len() {
            if node_cost < self.best_obj - 1e-12 {
                self.best_obj = node_cost;
                self.best_assign = self.partial.clone();
            }
            return;
        }
        if node_cost + self.future_bound(depth) >= self.best_obj - 1e-12 {
            return;
        }
        let job = &self.inst.jobs[depth];
        let mut children: Vec<(f64, usize, usize)> = Vec::new();
        for (r, frees) in self.free.iter().enumerate() {
            for (c, &n) in frees.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let delta = marginal_j(
                    self.pwl,
                    self.inst.horizon_s,
                    self.heat[r],
                    self.supply[r],
                    &job.options[c],
                );
                children.push((delta, r, c));
            }
        }
        children.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
        });
        for (_, r, c) in children {
            let opt = &job.options[c];
            let (old_heat, old_supply) = (self.heat[r], self.supply[r]);
            self.free[r][c] -= 1;
            self.heat[r] += opt.heat_w;
            self.supply[r] = self.supply[r].min(opt.water_c);
            self.it += opt.power_w * opt.runtime_s;
            self.partial.push((r as u32, c as u32));
            self.search(depth + 1);
            self.partial.pop();
            self.it -= opt.power_w * opt.runtime_s;
            self.supply[r] = old_supply;
            self.heat[r] = old_heat;
            self.free[r][c] += 1;
            if self.nodes > BNB_NODE_CAP {
                return;
            }
        }
    }
}

/// The least-objective plan among per-set-point `(objective, assign)`
/// candidates in grid order; the first set-point wins a tie.
fn best_setpoint(cands: impl Iterator<Item = (f64, Vec<(u32, u32)>)>) -> Plan {
    cands
        .enumerate()
        .map(|(setpoint, (objective_j, assign))| Plan {
            assign,
            setpoint,
            objective_j,
        })
        .reduce(|best, cand| {
            if cand.objective_j.total_cmp(&best.objective_j).is_lt() {
                cand
            } else {
                best
            }
        })
        .expect("at least one set-point")
}

/// Solve with the linearized pipeline: per set-point, greedy
/// construction and descent, then branch-and-bound on windows of at most
/// 12 jobs; the best candidate over every set-point wins.
pub fn solve_lp(inst: &PlanInstance) -> Plan {
    inst.validate();
    best_setpoint(inst.pwl_models().iter().map(|pwl| {
        let mut assign = greedy_assign(inst, pwl);
        let mut objective = descent(inst, pwl, &mut assign);
        if inst.jobs.len() <= BNB_JOB_CAP {
            let mut bnb = BranchAndBound::new(inst, pwl, assign.clone(), objective);
            bnb.search(0);
            if bnb.best_obj < objective {
                objective = bnb.best_obj;
                assign = bnb.best_assign;
            }
        }
        (objective, assign)
    }))
}

/// The greedy construction alone under each set-point's model.
fn greedy_plan(inst: &PlanInstance, pwls: &[PwlCop]) -> Plan {
    best_setpoint(pwls.iter().map(|pwl| {
        let assign = greedy_assign(inst, pwl);
        (objective_pwl(inst, &assign, pwl), assign)
    }))
}

/// Solve with the greedy construction alone (no descent, no search) —
/// the annealer's starting point and the baseline the solver tests hold
/// `lp` and `anneal` against.
pub fn solve_greedy(inst: &PlanInstance) -> Plan {
    inst.validate();
    greedy_plan(inst, &inst.pwl_models())
}

/// Solve with simulated annealing from the best greedy start; `iters`
/// proposals, deterministic per `seed`, never worse than greedy.
pub fn solve_anneal(inst: &PlanInstance, iters: usize, seed: u64) -> Plan {
    inst.validate();
    let pwls = inst.pwl_models();
    let greedy = greedy_plan(inst, &pwls);
    let init = anneal::AnnealState {
        assign: greedy.assign,
        setpoint: greedy.setpoint,
        objective: greedy.objective_j,
    };
    let out = anneal::run(inst, &pwls, init, iters, seed);
    Plan {
        assign: out.assign,
        setpoint: out.setpoint,
        objective_j: out.objective,
    }
}

/// Which solver core a [`PlannerControl`] runs on each re-plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSolver {
    /// Linearized pipeline: greedy + descent (+ branch-and-bound on
    /// small windows).
    Lp,
    /// Simulated annealing over joint `(assignment, set-point)` moves.
    Anneal,
}

/// What [`PlannerControl::begin_run`] captures from the kernel.
#[derive(Debug)]
struct CapturedRun {
    /// The full job stream, sorted by `(arrival, id)`.
    jobs: Vec<Job>,
    /// Per sorted job, its index into `pair_states`.
    pair_of: Vec<usize>,
    /// Steady states per `(bench, qos)` pair × class.
    pair_states: Vec<Vec<SteadyState>>,
    /// The run's configured chiller (base for set-point re-targets).
    chiller: Chiller,
    /// Static per-rack per-class server counts.
    slots: Vec<Vec<usize>>,
    /// First job not yet behind the planning window.
    next: usize,
}

/// A [`ControlPolicy`] that re-plans joint placements and the chiller
/// set-point on a fixed tick cadence.
///
/// On each re-plan it windows the pending job stream over `horizon_s`,
/// solves a [`PlanInstance`] against the fleet's current committed load,
/// publishes the result as a placement-hint table (consulted by the
/// kernel per arrival, validated against capacity and wait budgets, with
/// the configured dispatcher as fallback), and emits a `SetSetpoint`
/// action when the optimal set-point moved.
#[derive(Debug)]
pub struct PlannerControl {
    tick: Seconds,
    horizon: Seconds,
    replan_ticks: usize,
    setpoints: Vec<f64>,
    anneal_iters: usize,
    solver: PlanSolver,
    run: Option<CapturedRun>,
    ticks: usize,
    hints: BTreeMap<usize, PlacementHint>,
}

impl PlannerControl {
    /// A planner re-planning every `replan_ticks` ticks of `tick` seconds
    /// over a `horizon`-second job window, choosing among `setpoints`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive tick/horizon, an empty or non-finite
    /// set-point grid, `replan_ticks == 0`, or `anneal_iters == 0`.
    pub fn new(
        tick: Seconds,
        horizon: Seconds,
        replan_ticks: usize,
        setpoints: Vec<f64>,
        anneal_iters: usize,
        solver: PlanSolver,
    ) -> Self {
        assert!(
            tick.value().is_finite() && tick.value() > 0.0,
            "planner tick must be positive"
        );
        assert!(
            horizon.value().is_finite() && horizon.value() > 0.0,
            "planner horizon must be positive"
        );
        assert!(replan_ticks >= 1, "replan_ticks must be at least 1");
        assert!(
            !setpoints.is_empty() && setpoints.iter().all(|s| s.is_finite()),
            "set-point grid must be non-empty and finite"
        );
        assert!(anneal_iters >= 1, "anneal_iters must be at least 1");
        PlannerControl {
            tick,
            horizon,
            replan_ticks,
            setpoints,
            anneal_iters,
            solver,
            run: None,
            ticks: 0,
            hints: BTreeMap::new(),
        }
    }

    /// Builds and solves the window instance for the current tick;
    /// returns the chosen set-point in °C.
    fn replan(&mut self, status: &ControlStatus<'_>, tick_idx: usize) -> Option<f64> {
        let run = self.run.as_mut()?;
        let now = status.now.value();
        while run.next < run.jobs.len() && run.jobs[run.next].arrival.value() < now {
            run.next += 1;
        }
        // Free capacity: static slots minus the rack's committed servers,
        // drained in ascending class order. The split across classes is a
        // heuristic — the kernel re-validates every hint against the real
        // table, so optimism here costs a fallback, never a violation.
        let racks = status.racks.len().min(run.slots.len());
        let mut free: Vec<Vec<usize>> = run.slots[..racks].to_vec();
        for (frees, view) in free.iter_mut().zip(status.racks) {
            let mut committed = view.committed;
            for slot in frees.iter_mut() {
                let take = (*slot).min(committed);
                *slot -= take;
                committed -= take;
            }
        }
        let capacity: usize = free.iter().map(|f| f.iter().sum::<usize>()).sum();

        let deadline = now + self.horizon.value();
        let mut jobs = Vec::new();
        let mut pair_of = Vec::new();
        for i in run.next..run.jobs.len() {
            if run.jobs[i].arrival.value() > deadline || jobs.len() >= PLAN_JOB_CAP.min(capacity) {
                break;
            }
            jobs.push(run.jobs[i]);
            pair_of.push(run.pair_of[i]);
        }

        let inst = PlanInstance {
            jobs: jobs
                .iter()
                .zip(&pair_of)
                .map(|(job, &pair)| PlanJob {
                    id: job.id,
                    options: run.pair_states[pair]
                        .iter()
                        .map(|state| PlanOption {
                            power_w: state.package_power.value(),
                            heat_w: state.heat.value(),
                            water_c: state.max_water_temp.value(),
                            runtime_s: job.service.value() * state.normalized_time,
                        })
                        .collect(),
                })
                .collect(),
            racks: status.racks[..racks]
                .iter()
                .zip(free)
                .map(|(view, free)| PlanRack {
                    base_heat_w: view.heat.value(),
                    base_supply_c: view.supply.map(|s| s.value()),
                    free,
                })
                .collect(),
            setpoints_c: self.setpoints.clone(),
            chiller: run.chiller.clone(),
            horizon_s: self.horizon.value(),
        };
        if inst.racks.is_empty() {
            return None;
        }
        let plan = match self.solver {
            PlanSolver::Lp => solve_lp(&inst),
            PlanSolver::Anneal => {
                solve_anneal(&inst, self.anneal_iters, ANNEAL_SEED ^ tick_idx as u64)
            }
        };
        self.hints.clear();
        for (job, &(rack, class)) in inst.jobs.iter().zip(&plan.assign) {
            self.hints.insert(
                job.id,
                PlacementHint {
                    rack: rack as usize,
                    class: class as ClassId,
                },
            );
        }
        Some(inst.setpoints_c[plan.setpoint])
    }
}

impl ControlPolicy for PlannerControl {
    fn name(&self) -> &'static str {
        "planner"
    }

    fn tick_interval(&self) -> Option<Seconds> {
        Some(self.tick)
    }

    fn begin_run(&mut self, ctx: &RunContext<'_>) {
        let mut jobs = ctx.jobs.to_vec();
        jobs.sort_by(|a, b| {
            a.arrival
                .value()
                .total_cmp(&b.arrival.value())
                .then_with(|| a.id.cmp(&b.id))
        });
        let pair_of = jobs
            .iter()
            .map(|job| {
                ctx.pairs
                    .binary_search(&(job.bench, job.qos))
                    .expect("every job's (bench, qos) pair is solved")
            })
            .collect();
        let per_rack = ctx.servers.servers_per_rack();
        let slots = (0..ctx.servers.racks())
            .map(|r| {
                let mut counts = vec![0usize; ctx.classes];
                for s in r * per_rack..(r + 1) * per_rack {
                    counts[ctx.servers.class_of(s)] += 1;
                }
                counts
            })
            .collect();
        self.run = Some(CapturedRun {
            jobs,
            pair_of,
            pair_states: ctx.pair_states.to_vec(),
            chiller: ctx.chiller.clone(),
            slots,
            next: 0,
        });
        self.ticks = 0;
        self.hints.clear();
    }

    fn on_tick(&mut self, status: &ControlStatus<'_>) -> Vec<ControlAction> {
        let tick_idx = self.ticks;
        self.ticks += 1;
        if tick_idx % self.replan_ticks != 0 {
            return Vec::new();
        }
        match self.replan(status, tick_idx) {
            Some(sp) if sp != status.setpoint.value() => {
                vec![ControlAction::SetSetpoint(Celsius::new(sp))]
            }
            _ => Vec::new(),
        }
    }

    fn placement_hint(&mut self, job: &Job) -> Option<PlacementHint> {
        self.hints.remove(&job.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A hand-sized instance: two racks × two classes, cold-water class 0
    /// vs warm-water class 1, base ambient 35 °C.
    fn instance(jobs: usize) -> PlanInstance {
        let mk = |heat: f64, water: f64, runtime: f64| PlanOption {
            power_w: heat,
            heat_w: heat,
            water_c: water,
            runtime_s: runtime,
        };
        PlanInstance {
            jobs: (0..jobs)
                .map(|i| PlanJob {
                    id: i,
                    options: vec![
                        mk(180.0 + 10.0 * i as f64, 25.0, 300.0),
                        mk(220.0 + 10.0 * i as f64, 48.0, 240.0),
                    ],
                })
                .collect(),
            racks: vec![
                PlanRack {
                    base_heat_w: 0.0,
                    base_supply_c: None,
                    free: vec![2, 2],
                },
                PlanRack {
                    base_heat_w: 400.0,
                    base_supply_c: Some(45.0),
                    free: vec![2, 2],
                },
            ],
            setpoints_c: vec![35.0, 45.0, 55.0],
            chiller: Chiller::new(Celsius::new(35.0)),
            horizon_s: 600.0,
        }
    }

    /// A randomized tiny instance driven by a seeded `StdRng`.
    fn random_instance(seed: u64) -> PlanInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let racks = rng.gen_range(1..=3usize);
        let classes = rng.gen_range(1..=2usize);
        let jobs = rng.gen_range(0..=5usize);
        let mut inst = PlanInstance {
            jobs: (0..jobs)
                .map(|id| PlanJob {
                    id,
                    options: (0..classes)
                        .map(|_| PlanOption {
                            power_w: rng.gen_range(50.0..400.0),
                            heat_w: rng.gen_range(50.0..400.0),
                            water_c: rng.gen_range(20.0..60.0),
                            runtime_s: rng.gen_range(60.0..900.0),
                        })
                        .collect(),
                })
                .collect(),
            racks: (0..racks)
                .map(|_| PlanRack {
                    base_heat_w: if rng.next_f64() < 0.5 {
                        0.0
                    } else {
                        rng.gen_range(100.0..800.0)
                    },
                    base_supply_c: None,
                    free: (0..classes).map(|_| rng.gen_range(0..=2usize)).collect(),
                })
                .collect(),
            setpoints_c: (0..rng.gen_range(1..=3usize))
                .map(|_| rng.gen_range(25.0..65.0))
                .collect(),
            chiller: Chiller::new(Celsius::new(rng.gen_range(25.0..50.0))),
            horizon_s: rng.gen_range(120.0..1200.0),
        };
        for rack in &mut inst.racks {
            if rack.base_heat_w > 0.0 {
                rack.base_supply_c = Some(rng.gen_range(25.0..55.0));
            }
        }
        // Guarantee feasibility: top up capacity until it covers the jobs.
        let mut capacity: usize = inst
            .racks
            .iter()
            .map(|r| r.free.iter().sum::<usize>())
            .sum();
        let mut r = 0;
        while capacity < inst.jobs.len() {
            inst.racks[r % racks].free[r % classes] += 1;
            capacity += 1;
            r += 1;
        }
        inst
    }

    /// The plan objective on the real chiller curve at set-point index
    /// `setpoint`.
    fn objective_real(inst: &PlanInstance, assign: &[(u32, u32)], setpoint: usize) -> f64 {
        let chiller = inst
            .chiller
            .with_ambient(Celsius::new(inst.setpoints_c[setpoint]));
        objective_with(inst, assign, |s| 1.0 / chiller.cop(Celsius::new(s)))
    }

    /// The least PWL objective over every capacity-respecting assignment
    /// and every set-point, by exhaustive enumeration.
    fn pwl_optimum(inst: &PlanInstance) -> f64 {
        fn walk(
            inst: &PlanInstance,
            pwls: &[PwlCop],
            free: &mut Vec<Vec<usize>>,
            assign: &mut Vec<(u32, u32)>,
        ) -> f64 {
            if assign.len() == inst.jobs.len() {
                return pwls
                    .iter()
                    .map(|pwl| objective_pwl(inst, assign, pwl))
                    .fold(f64::INFINITY, f64::min);
            }
            let mut best = f64::INFINITY;
            for r in 0..inst.racks.len() {
                for c in 0..inst.classes() {
                    if free[r][c] > 0 {
                        free[r][c] -= 1;
                        assign.push((r as u32, c as u32));
                        best = best.min(walk(inst, pwls, free, assign));
                        assign.pop();
                        free[r][c] += 1;
                    }
                }
            }
            best
        }
        walk(
            inst,
            &inst.pwl_models(),
            &mut inst.free_counts(),
            &mut Vec::new(),
        )
    }

    #[test]
    fn greedy_respects_capacity() {
        let inst = instance(6);
        let plan = solve_greedy(&inst);
        let mut used = inst.free_counts();
        for &(r, c) in &plan.assign {
            assert!(
                used[r as usize][c as usize] > 0,
                "slot ({r}, {c}) oversubscribed"
            );
            used[r as usize][c as usize] -= 1;
        }
    }

    #[test]
    fn lp_certifies_and_never_trails_greedy() {
        let inst = instance(5);
        let greedy = solve_greedy(&inst);
        let lp = solve_lp(&inst);
        assert!(lp.objective_j <= greedy.objective_j + 1e-9);
        // Branch-and-bound finishes on 5 jobs: the plan is the PWL optimum.
        let optimum = pwl_optimum(&inst);
        assert!(
            (lp.objective_j - optimum).abs() <= 1e-9 * optimum,
            "{} vs {optimum}",
            lp.objective_j
        );
    }

    #[test]
    fn anneal_is_deterministic_per_seed_and_never_trails_greedy() {
        let inst = instance(6);
        let greedy = solve_greedy(&inst);
        let a = solve_anneal(&inst, 500, 42);
        let b = solve_anneal(&inst, 500, 42);
        assert_eq!(a.assign, b.assign);
        assert_eq!(a.setpoint, b.setpoint);
        assert_eq!(a.objective_j.to_bits(), b.objective_j.to_bits());
        assert!(a.objective_j <= greedy.objective_j + 1e-9);
    }

    #[test]
    fn empty_window_still_picks_a_setpoint() {
        let mut inst = instance(0);
        inst.jobs.clear();
        let plan = solve_lp(&inst);
        assert!(plan.assign.is_empty());
        // Base heat on rack 1 at a 45 °C ceiling: the coldest set-point
        // has the lowest rejection temperature (45 ≥ 35 + approach puts
        // the chiller in free cooling) and must win.
        assert_eq!(inst.setpoints_c[plan.setpoint], 35.0);
    }

    #[test]
    fn pwl_objective_upper_bounds_the_real_curve() {
        let inst = instance(4);
        let pwls = inst.pwl_models();
        let plan = solve_lp(&inst);
        let pwl = &pwls[plan.setpoint];
        let pwl_obj = objective_pwl(&inst, &plan.assign, pwl);
        let real_obj = objective_real(&inst, &plan.assign, plan.setpoint);
        // The gap is at most the model's error on every watt the plan
        // puts on the racks, over the horizon.
        let heat: f64 = inst.racks.iter().map(|r| r.base_heat_w).sum::<f64>()
            + inst
                .jobs
                .iter()
                .zip(&plan.assign)
                .map(|(job, &(_, c))| job.options[c as usize].heat_w)
                .sum::<f64>();
        let chiller = inst
            .chiller
            .with_ambient(Celsius::new(inst.setpoints_c[plan.setpoint]));
        let tolerance = pwl.max_error(&chiller) * heat * inst.horizon_s;
        assert!(pwl_obj >= real_obj - 1e-9);
        assert!(pwl_obj <= real_obj + tolerance + 1e-9);
    }

    proptest! {
        #[test]
        fn solver_chain_orders_hold_on_random_instances(seed in 0u64..10_000) {
            let inst = random_instance(seed);
            let greedy = solve_greedy(&inst);
            let lp = solve_lp(&inst);
            let sa = solve_anneal(&inst, 200, seed);
            // Descent + B&B never trail greedy; annealing never trails
            // greedy; on ≤ 5 jobs B&B finishes, so annealing never beats
            // the LP plan.
            prop_assert!(lp.objective_j <= greedy.objective_j + 1e-9);
            prop_assert!(sa.objective_j <= greedy.objective_j + 1e-9);
            prop_assert!(lp.objective_j <= sa.objective_j + 1e-9 * sa.objective_j.max(1.0));
            // Same-seed annealing replays bit-identically.
            let sb = solve_anneal(&inst, 200, seed);
            prop_assert_eq!(sa.assign, sb.assign);
            prop_assert_eq!(sa.objective_j.to_bits(), sb.objective_j.to_bits());
        }
    }
}
