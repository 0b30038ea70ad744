//! Brute-force oracles for the planner's solver chain.
//!
//! Instances stay tiny (≤ 3 racks × ≤ 2 classes × ≤ 3 set-points ×
//! ≤ 5 jobs) so *every* joint assignment × set-point can be enumerated
//! against the real chiller curve, priced by this file's own
//! [`real_objective`], which shares no code with the solver. The solvers
//! are then pinned:
//!
//! * the LP/branch-and-bound plan's PWL objective sits between the true
//!   optimum and the true optimum plus the linearization error — the
//!   bound the PWL upper envelope guarantees by construction,
//! * the simulated annealer never comes back worse than greedy (it
//!   starts from the greedy plan and keeps the best state seen),
//! * both respect rack capacity on every instance.
//!
//! Instances are proptest-randomized; `PROPTEST_CASES` scales the case
//! count (CI runs a reduced fast pass).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tps_cluster::plan::{
    solve_anneal, solve_greedy, solve_lp, PlanInstance, PlanJob, PlanOption, PlanRack,
};
use tps_cooling::Chiller;
use tps_units::Celsius;

/// A randomized oracle-sized instance: small enough to enumerate, varied
/// enough to hit empty windows, idle racks, heterogeneous classes and
/// free-cooling set-points.
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

/// Total energy in joules of `assign` with cooling priced on the real
/// chiller curve at set-point index `setpoint`: every job's IT energy,
/// plus each rack's heat over the horizon at the COP of its supply, the
/// coldest water any of its jobs (or its committed load) tolerates. A
/// rack with no heat or no water-constrained load costs nothing to cool.
fn real_objective(inst: &PlanInstance, assign: &[(u32, u32)], setpoint: usize) -> f64 {
    let chiller = inst
        .chiller
        .with_ambient(Celsius::new(inst.setpoints_c[setpoint]));
    let mut it = 0.0;
    let mut racks: Vec<(f64, f64)> = inst
        .racks
        .iter()
        .map(|r| (r.base_heat_w, r.base_supply_c.unwrap_or(f64::INFINITY)))
        .collect();
    for (job, &(r, c)) in inst.jobs.iter().zip(assign) {
        let opt = &job.options[c as usize];
        it += opt.power_w * opt.runtime_s;
        let (heat, supply) = &mut racks[r as usize];
        *heat += opt.heat_w;
        *supply = supply.min(opt.water_c);
    }
    let mut cooling = 0.0;
    for (heat, supply) in racks {
        if heat > 0.0 && supply.is_finite() {
            cooling += heat / chiller.cop(Celsius::new(supply)) * inst.horizon_s;
        }
    }
    it + cooling
}

/// The true optimum by exhaustive enumeration: every capacity-respecting
/// assignment of every job to every `(rack, class)` slot, under every
/// candidate set-point, priced on the *real* chiller curve.
fn brute_force_optimum(inst: &PlanInstance) -> f64 {
    let mut free: Vec<Vec<usize>> = inst.racks.iter().map(|r| r.free.clone()).collect();
    let mut assign: Vec<(u32, u32)> = Vec::with_capacity(inst.jobs.len());
    let mut best = f64::INFINITY;
    fn recurse(
        inst: &PlanInstance,
        job: usize,
        free: &mut Vec<Vec<usize>>,
        assign: &mut Vec<(u32, u32)>,
        best: &mut f64,
    ) {
        if job == inst.jobs.len() {
            for sp in 0..inst.setpoints_c.len() {
                *best = best.min(real_objective(inst, assign, sp));
            }
            return;
        }
        for r in 0..inst.racks.len() {
            for c in 0..inst.classes() {
                if free[r][c] == 0 {
                    continue;
                }
                free[r][c] -= 1;
                assign.push((r as u32, c as u32));
                recurse(inst, job + 1, free, assign, best);
                assign.pop();
                free[r][c] += 1;
            }
        }
    }
    recurse(inst, 0, &mut free, &mut assign, &mut best);
    best
}

/// How far above the true optimum the PWL objective is allowed to land:
/// the worst chord error of any candidate set-point's model, times the
/// largest heat any assignment can put on the racks, over the horizon.
fn linearization_tolerance(inst: &PlanInstance) -> f64 {
    let max_err = inst
        .pwl_models()
        .iter()
        .zip(&inst.setpoints_c)
        .map(|(m, &sp)| m.max_error(&inst.chiller.with_ambient(Celsius::new(sp))))
        .fold(0.0, f64::max);
    let base: f64 = inst.racks.iter().map(|r| r.base_heat_w).sum();
    let jobs: f64 = inst
        .jobs
        .iter()
        .map(|j| j.options.iter().map(|o| o.heat_w).fold(0.0, f64::max))
        .sum();
    max_err * (base + jobs) * inst.horizon_s
}

fn assert_respects_capacity(inst: &PlanInstance, assign: &[(u32, u32)]) {
    let mut free: Vec<Vec<usize>> = inst.racks.iter().map(|r| r.free.clone()).collect();
    for &(r, c) in assign {
        assert!(
            free[r as usize][c as usize] > 0,
            "slot ({r}, {c}) oversubscribed"
        );
        free[r as usize][c as usize] -= 1;
    }
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The tentpole oracle: the LP plan's PWL objective brackets the
    /// enumerated true optimum to within the linearization error.
    #[test]
    fn lp_matches_the_brute_force_oracle(seed in 0u64..1_000_000) {
        let inst = random_instance(seed);
        inst.validate();
        let opt_real = brute_force_optimum(&inst);
        let plan = solve_lp(&inst);
        assert_respects_capacity(&inst, &plan.assign);
        let tol = linearization_tolerance(&inst);
        // Upper envelope: the PWL price of any plan is ≥ its real price,
        // so the PWL optimum cannot dip below the real optimum…
        prop_assert!(
            plan.objective_j >= opt_real - 1e-9 * opt_real.abs().max(1.0),
            "PWL optimum {} undercuts the real optimum {} (seed {seed})",
            plan.objective_j,
            opt_real
        );
        // …and knot-exactness keeps it within the chord error of it.
        prop_assert!(
            plan.objective_j <= opt_real + tol + 1e-9 * opt_real.abs().max(1.0),
            "PWL optimum {} exceeds real optimum {} + tolerance {} (seed {seed})",
            plan.objective_j,
            opt_real,
            tol
        );
        // The plan the solver hands back is itself near-optimal when
        // priced on the real curve.
        let real = real_objective(&inst, &plan.assign, plan.setpoint);
        prop_assert!(
            real <= opt_real + tol + 1e-9 * opt_real.abs().max(1.0),
            "chosen plan's real cost {} is further than {} from the optimum {} (seed {seed})",
            real,
            tol,
            opt_real
        );
    }

    /// The annealer starts from greedy and keeps the best state seen, so
    /// it can never come back worse — and its plan stays feasible.
    #[test]
    fn annealer_never_trails_greedy(seed in 0u64..1_000_000) {
        let inst = random_instance(seed);
        let greedy = solve_greedy(&inst);
        assert_respects_capacity(&inst, &greedy.assign);
        let annealed = solve_anneal(&inst, 300, seed);
        assert_respects_capacity(&inst, &annealed.assign);
        prop_assert!(
            annealed.objective_j <= greedy.objective_j + 1e-9 * greedy.objective_j.abs().max(1.0),
            "annealed {} worse than greedy {} (seed {seed})",
            annealed.objective_j,
            greedy.objective_j
        );
    }
}

/// A fixed instance where the answer is computable by hand: one rack, one
/// class, one job, two set-points of which the colder free-cools the
/// job's 45 °C water tolerance. The planner must pick the free-cooling
/// set-point and match the closed-form objective exactly (the PWL model
/// is exact in the free-cooling regime).
#[test]
fn hand_computed_instance_is_reproduced_exactly() {
    let inst = PlanInstance {
        jobs: vec![PlanJob {
            id: 0,
            options: vec![PlanOption {
                power_w: 200.0,
                heat_w: 180.0,
                water_c: 45.0,
                runtime_s: 300.0,
            }],
        }],
        racks: vec![PlanRack {
            base_heat_w: 0.0,
            base_supply_c: None,
            free: vec![1],
        }],
        setpoints_c: vec![35.0, 70.0],
        chiller: Chiller::new(Celsius::new(70.0)),
        horizon_s: 600.0,
    };
    let plan = solve_lp(&inst);
    assert_eq!(plan.setpoint, 0, "35 °C free-cools the 45 °C supply");
    // IT energy + heat / max COP over the horizon.
    let chiller = inst.chiller.with_ambient(Celsius::new(35.0));
    let expected = 200.0 * 300.0 + 180.0 / chiller.cop(Celsius::new(45.0)) * 600.0;
    assert!(
        (plan.objective_j - expected).abs() < 1e-6,
        "{} vs {}",
        plan.objective_j,
        expected
    );
    assert_eq!(plan.objective_j, brute_force_optimum(&inst));
}
