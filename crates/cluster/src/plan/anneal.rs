//! Simulated annealing over joint `(assignment, set-point)` plans — the
//! planner's search mode for the nonconvex cases the linearization
//! misses.
//!
//! The walk starts from the greedy incumbent and keeps the best plan ever
//! visited, so by construction it never returns worse than greedy. All
//! randomness comes from the vendored SplitMix64
//! [`StdRng`](rand::rngs::StdRng): the same seed replays the identical
//! move sequence bit for bit.

use super::{objective_pwl, Plan, PlanInstance, PwlCop};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One annealing run of `iters` proposals from `init`, deterministic per
/// `seed`. `pwls` holds one PWL chiller model per candidate set-point.
pub(crate) fn run(
    inst: &PlanInstance,
    pwls: &[PwlCop],
    init: Plan,
    iters: usize,
    seed: u64,
) -> Plan {
    let n = inst.jobs.len();
    let classes = inst.classes();
    let mut free = inst.free_counts();
    for &(r, c) in &init.assign {
        free[r as usize][c as usize] -= 1;
    }
    // Slots a reassignment can target (including currently-full ones —
    // occupancy is re-checked per proposal as jobs move around).
    let slots: Vec<(u32, u32)> = (0..inst.racks.len() as u32)
        .flat_map(|r| (0..classes as u32).map(move |c| (r, c)))
        .filter(|&(r, c)| inst.racks[r as usize].free[c as usize] > 0)
        .collect();

    // Which move kinds the instance supports at all.
    let can_reassign = n >= 1 && slots.len() > 1;
    let can_swap = n >= 2;
    let can_retarget = pwls.len() > 1;
    let kinds: Vec<u8> = [
        can_reassign.then_some(0u8),
        can_swap.then_some(1),
        can_retarget.then_some(2),
    ]
    .into_iter()
    .flatten()
    .collect();
    if kinds.is_empty() || iters == 0 {
        return init;
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = init.clone();
    let mut best = init;
    // Geometric cooling from a scale-aware start down to effectively
    // greedy acceptance.
    let t0 = 0.05 * (cur.objective_j.abs() + 1.0);
    let decay = (1e-6f64).powf(1.0 / iters as f64);
    let mut temp = t0;

    for _ in 0..iters {
        match kinds[rng.gen_range(0..kinds.len())] {
            0 => {
                // Reassign one job to another slot with free capacity.
                let j = rng.gen_range(0..n);
                let old = cur.assign[j];
                let open: Vec<(u32, u32)> = slots
                    .iter()
                    .copied()
                    .filter(|&s| s != old && free[s.0 as usize][s.1 as usize] > 0)
                    .collect();
                if open.is_empty() {
                    temp *= decay;
                    continue;
                }
                let new = open[rng.gen_range(0..open.len())];
                cur.assign[j] = new;
                let obj = objective_pwl(inst, &cur.assign, &pwls[cur.setpoint]);
                if accept(obj - cur.objective_j, temp, &mut rng) {
                    cur.objective_j = obj;
                    free[old.0 as usize][old.1 as usize] += 1;
                    free[new.0 as usize][new.1 as usize] -= 1;
                } else {
                    cur.assign[j] = old;
                }
            }
            1 => {
                // Swap two jobs' slots (capacity is conserved).
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                if i == j || cur.assign[i] == cur.assign[j] {
                    temp *= decay;
                    continue;
                }
                cur.assign.swap(i, j);
                let obj = objective_pwl(inst, &cur.assign, &pwls[cur.setpoint]);
                if accept(obj - cur.objective_j, temp, &mut rng) {
                    cur.objective_j = obj;
                } else {
                    cur.assign.swap(i, j);
                }
            }
            _ => {
                // Move the chiller set-point.
                let sp = rng.gen_range(0..pwls.len());
                if sp == cur.setpoint {
                    temp *= decay;
                    continue;
                }
                let obj = objective_pwl(inst, &cur.assign, &pwls[sp]);
                if accept(obj - cur.objective_j, temp, &mut rng) {
                    cur.objective_j = obj;
                    cur.setpoint = sp;
                }
            }
        }
        if cur.objective_j < best.objective_j {
            best = cur.clone();
        }
        temp *= decay;
    }
    best
}

/// Metropolis acceptance: downhill always, uphill with probability
/// `exp(−Δ/T)`.
fn accept(delta: f64, temp: f64, rng: &mut StdRng) -> bool {
    delta <= 0.0 || rng.next_f64() < (-delta / temp.max(1e-300)).exp()
}
