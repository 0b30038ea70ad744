//! A small dense two-phase primal simplex over equality-standard-form
//! problems, plus the transportation wrapper the planner uses for its
//! assignment-relaxation lower bound.
//!
//! Minimizes `c·x` subject to `A·x = b`, `x ≥ 0`. Sized for the planner's
//! horizon problems (tens of rows, hundreds of columns), not for general
//! LP work: the tableau is dense, pivoting follows Bland's rule (lowest
//! eligible index), which rules out cycling and gives a finite — and
//! enforced — pivot bound, and the phase-2 objective is recorded after
//! every pivot so the property tests can pin its monotone descent.

/// Comparison tolerance for reduced costs, ratios and feasibility.
const EPS: f64 = 1e-9;

/// Why the solver gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// Phase 1 ended with artificial residue: no feasible point exists.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// The pivot budget ran out (with Bland's rule this means the budget
    /// was simply too small for the problem size, not a cycle).
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible constraint system"),
            LpError::Unbounded => write!(f, "objective unbounded below"),
            LpError::IterationLimit => write!(f, "pivot budget exhausted"),
        }
    }
}

/// An optimal basic solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Primal values of the structural variables.
    pub x: Vec<f64>,
    /// The optimal objective `c·x`.
    pub objective: f64,
    /// Pivots performed across both phases.
    pub pivots: usize,
    /// Objective value after each phase-2 pivot (monotone non-increasing;
    /// equal consecutive entries are degenerate pivots).
    pub trace: Vec<f64>,
}

/// Dense two-phase simplex tableau: `rows × (structural + artificial + 1)`
/// with the right-hand side in the last column.
struct Tableau {
    rows: usize,
    n: usize,
    cols: usize,
    t: Vec<f64>,
    basis: Vec<usize>,
    pivots: usize,
    max_pivots: usize,
}

impl Tableau {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.t[r * self.cols + c]
    }

    fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.cols - 1)
    }

    /// One Bland pivot against the given reduced-cost row. Returns the
    /// entering column, or `None` at optimality.
    fn pivot(&mut self, reduced: &mut [f64], allow: usize) -> Result<Option<usize>, LpError> {
        let Some(enter) = (0..allow).find(|&j| reduced[j] < -EPS) else {
            return Ok(None);
        };
        // Minimum-ratio leaving row; Bland ties break on the lowest basic
        // variable index.
        let mut leave: Option<(usize, f64)> = None;
        for r in 0..self.rows {
            let a = self.at(r, enter);
            if a > EPS {
                let ratio = self.rhs(r) / a;
                let better = match leave {
                    None => true,
                    Some((lr, lratio)) => {
                        ratio < lratio - EPS
                            || (ratio <= lratio + EPS && self.basis[r] < self.basis[lr])
                    }
                };
                if better {
                    leave = Some((r, ratio));
                }
            }
        }
        let Some((leave, _)) = leave else {
            return Err(LpError::Unbounded);
        };
        self.pivots += 1;
        if self.pivots > self.max_pivots {
            return Err(LpError::IterationLimit);
        }
        // Normalize the pivot row, eliminate the column everywhere else
        // (including the reduced-cost row).
        let piv = self.at(leave, enter);
        for c in 0..self.cols {
            self.t[leave * self.cols + c] /= piv;
        }
        for r in 0..self.rows {
            if r == leave {
                continue;
            }
            let f = self.at(r, enter);
            if f != 0.0 {
                for c in 0..self.cols {
                    let v = self.at(leave, c);
                    self.t[r * self.cols + c] -= f * v;
                }
            }
        }
        let f = reduced[enter];
        if f != 0.0 {
            for (c, red) in reduced.iter_mut().enumerate().take(self.cols - 1) {
                *red -= f * self.at(leave, c);
            }
        }
        self.basis[leave] = enter;
        Ok(Some(enter))
    }

    /// Current objective of the basic solution under cost vector `c`
    /// (zero cost for artificials).
    fn objective(&self, c: &[f64]) -> f64 {
        (0..self.rows)
            .map(|r| {
                let b = self.basis[r];
                if b < self.n {
                    c[b] * self.rhs(r)
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Reduced costs `c_j − c_B·B⁻¹·A_j` for every column under `c`.
    /// Columns past the end of `c` (phase-2 artificials) cost zero.
    fn reduced_costs(&self, c: &[f64]) -> Vec<f64> {
        let cost = |j: usize| c.get(j).copied().unwrap_or(0.0);
        (0..self.cols - 1)
            .map(|j| {
                let mut r = cost(j);
                for row in 0..self.rows {
                    r -= cost(self.basis[row]) * self.at(row, j);
                }
                r
            })
            .chain(std::iter::once(0.0))
            .collect()
    }

    /// Every basic value must be (numerically) non-negative — the
    /// invariant each pivot preserves.
    fn assert_feasible(&self) {
        for r in 0..self.rows {
            debug_assert!(
                self.rhs(r) >= -1e-7,
                "pivot broke primal feasibility: row {r} at {}",
                self.rhs(r)
            );
        }
    }
}

/// Solves `min c·x  s.t.  A·x = b, x ≥ 0` with at most `max_pivots`
/// pivots across both phases.
///
/// # Panics
///
/// Panics if the shapes of `c`, `a` and `b` disagree.
pub fn solve(
    c: &[f64],
    a: &[Vec<f64>],
    b: &[f64],
    max_pivots: usize,
) -> Result<LpSolution, LpError> {
    let rows = a.len();
    let n = c.len();
    assert_eq!(rows, b.len(), "one rhs entry per constraint row");
    for row in a {
        assert_eq!(row.len(), n, "constraint rows must match the cost length");
    }
    let cols = n + rows + 1;
    let mut t = vec![0.0; rows * cols];
    for (r, row) in a.iter().enumerate() {
        // Flip rows with negative rhs so the artificial start is feasible.
        let flip = if b[r] < 0.0 { -1.0 } else { 1.0 };
        for (j, &v) in row.iter().enumerate() {
            t[r * cols + j] = flip * v;
        }
        t[r * cols + n + r] = 1.0;
        t[r * cols + cols - 1] = flip * b[r];
    }
    let mut tab = Tableau {
        rows,
        n,
        cols,
        t,
        basis: (n..n + rows).collect(),
        pivots: 0,
        max_pivots,
    };

    // Phase 1: minimize the artificial sum down to zero.
    let phase1: Vec<f64> = (0..cols - 1)
        .map(|j| if j >= n { 1.0 } else { 0.0 })
        .chain(std::iter::once(0.0))
        .collect();
    let mut reduced = tab.reduced_costs(&phase1);
    while tab.pivot(&mut reduced, cols - 1)?.is_some() {
        tab.assert_feasible();
    }
    let residue: f64 = (0..rows)
        .filter(|&r| tab.basis[r] >= n)
        .map(|r| tab.rhs(r))
        .sum();
    if residue > 1e-7 {
        return Err(LpError::Infeasible);
    }

    // Phase 2 over the structural columns only (artificials left basic at
    // zero by redundant rows may stay — they can never re-enter).
    let mut reduced = tab.reduced_costs(c);
    let mut trace = Vec::new();
    while tab.pivot(&mut reduced, n)?.is_some() {
        tab.assert_feasible();
        trace.push(tab.objective(c));
    }

    let mut x = vec![0.0; n];
    for r in 0..rows {
        if tab.basis[r] < n {
            x[tab.basis[r]] = tab.rhs(r).max(0.0);
        }
    }
    Ok(LpSolution {
        objective: tab.objective(c),
        x,
        pivots: tab.pivots,
        trace,
    })
}

/// The planner's assignment relaxation: `jobs` unit demands over `slots`
/// capacitated supply points, fractional flow allowed. `cost` is the
/// row-major `jobs × slots` matrix; `cap[s]` bounds the flow into slot
/// `s`. Returns the LP optimum — a valid lower bound on any integral
/// assignment with the same costs.
///
/// # Panics
///
/// Panics if the cost matrix shape disagrees with `jobs × slots` or
/// `cap` with `slots`.
pub fn transportation_lower_bound(
    cost: &[f64],
    jobs: usize,
    slots: usize,
    cap: &[f64],
    max_pivots: usize,
) -> Result<LpSolution, LpError> {
    assert_eq!(cost.len(), jobs * slots, "cost matrix must be jobs × slots");
    assert_eq!(cap.len(), slots, "one capacity per slot");
    let n = jobs * slots + slots;
    let mut c = vec![0.0; n];
    c[..jobs * slots].copy_from_slice(cost);
    let mut a = vec![vec![0.0; n]; jobs + slots];
    let mut b = vec![0.0; jobs + slots];
    for j in 0..jobs {
        for s in 0..slots {
            a[j][j * slots + s] = 1.0;
        }
        b[j] = 1.0;
    }
    for s in 0..slots {
        for j in 0..jobs {
            a[jobs + s][j * slots + s] = 1.0;
        }
        a[jobs + s][jobs * slots + s] = 1.0;
        b[jobs + s] = cap[s];
    }
    solve(&c, &a, &b, max_pivots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_a_textbook_lp() {
        // min −x − 2y  s.t.  x + y + s1 = 4, y + s2 = 3, all ≥ 0.
        // Optimum at (1, 3): objective −7.
        let c = [-1.0, -2.0, 0.0, 0.0];
        let a = vec![vec![1.0, 1.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 1.0]];
        let b = [4.0, 3.0];
        let sol = solve(&c, &a, &b, 100).unwrap();
        assert!((sol.objective + 7.0).abs() < 1e-9, "{}", sol.objective);
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
        assert!((sol.x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn phase2_objective_descends_monotonically() {
        // Bland's phase 1 drives x0 into the basis first (it costs
        // nothing in phase 1 but blocks both rows), so phase 2 starts at
        // the suboptimal (x0 = 3, x1 = 1) and must pivot its way down to
        // the true optimum x1 = 4, x2 = 3 (objective −67).
        let c = [0.0, -10.0, -9.0, 0.0, 0.0];
        let a = vec![vec![1.0, 1.0, 0.0, 1.0, 0.0], vec![1.0, 0.0, 1.0, 0.0, 1.0]];
        let b = [4.0, 3.0];
        let sol = solve(&c, &a, &b, 200).unwrap();
        assert!((sol.objective + 67.0).abs() < 1e-9, "{}", sol.objective);
        assert!(!sol.trace.is_empty());
        for w in sol.trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "objective rose: {} -> {}", w[0], w[1]);
        }
        assert_eq!(*sol.trace.last().unwrap(), sol.objective);
    }

    #[test]
    fn detects_infeasibility() {
        // x = 2 and x = 3 cannot both hold.
        let c = [1.0];
        let a = vec![vec![1.0], vec![1.0]];
        let b = [2.0, 3.0];
        assert!(matches!(solve(&c, &a, &b, 100), Err(LpError::Infeasible)));
    }

    #[test]
    fn detects_unboundedness() {
        // min −x  s.t.  x − y = 0: both can grow forever.
        let c = [-1.0, 0.0];
        let a = vec![vec![1.0, -1.0]];
        let b = [0.0];
        assert!(matches!(solve(&c, &a, &b, 100), Err(LpError::Unbounded)));
    }

    #[test]
    fn enforces_the_pivot_budget() {
        let c = [-1.0, -2.0, 0.0, 0.0];
        let a = vec![vec![1.0, 1.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 1.0]];
        let b = [4.0, 3.0];
        assert!(matches!(solve(&c, &a, &b, 1), Err(LpError::IterationLimit)));
    }

    #[test]
    fn transportation_matches_hand_optimum() {
        // Two jobs, two slots of capacity one each: forced to split, so
        // the optimum is the best perfect matching 1 + 2 = 3 (not 1 + 4).
        let cost = [1.0, 4.0, 1.0, 2.0];
        let sol = transportation_lower_bound(&cost, 2, 2, &[1.0, 1.0], 200).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-9, "{}", sol.objective);
    }

    #[test]
    fn transportation_relaxation_never_exceeds_integral_cost() {
        // Fractional splitting can only help: with capacity 2 on the
        // cheap slot both jobs pile on it.
        let cost = [1.0, 4.0, 1.0, 2.0];
        let sol = transportation_lower_bound(&cost, 2, 2, &[2.0, 2.0], 200).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn transportation_with_too_little_capacity_is_infeasible() {
        let cost = [1.0, 1.0];
        assert!(matches!(
            transportation_lower_bound(&cost, 2, 1, &[1.0], 200),
            Err(LpError::Infeasible)
        ));
    }

    proptest::proptest! {
        /// Simplex invariants on random feasible transportation LPs: the
        /// solver terminates within its pivot budget (phase-1 pivots drive
        /// artificial residue to zero in debug builds via per-pivot
        /// feasibility asserts), the phase-2 objective trace is monotone
        /// non-increasing, the primal stays in bounds, and the fractional
        /// optimum never exceeds the cheapest *integral* row-by-row greedy
        /// assignment (the relaxation can only help).
        #[test]
        fn random_transportation_lps_hold_the_invariants(seed in 0u64..100_000) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let jobs = rng.gen_range(1..=4usize);
            let slots = rng.gen_range(1..=4usize);
            let cost: Vec<f64> = (0..jobs * slots).map(|_| rng.gen_range(0.0..100.0)).collect();
            // Capacities that always cover the jobs: the LP is feasible.
            let mut cap: Vec<f64> = (0..slots).map(|_| rng.gen_range(0.0..3.0).floor()).collect();
            while cap.iter().sum::<f64>() < jobs as f64 {
                let s = rng.gen_range(0..slots);
                cap[s] += 1.0;
            }
            let budget = 64 * (jobs + slots + 4);
            let sol = transportation_lower_bound(&cost, jobs, slots, &cap, budget).unwrap();
            proptest::prop_assert!(sol.pivots <= budget);
            for w in sol.trace.windows(2) {
                proptest::prop_assert!(
                    w[1] <= w[0] + 1e-7 * w[0].abs().max(1.0),
                    "phase-2 objective rose: {} -> {}",
                    w[0],
                    w[1]
                );
            }
            for &x in &sol.x {
                proptest::prop_assert!(x >= -1e-9, "negative primal {x}");
            }
            // Greedy integral assignment: each job takes its cheapest slot
            // with remaining capacity, in job order.
            let mut left = cap.clone();
            let mut integral = 0.0;
            for j in 0..jobs {
                let s = (0..slots)
                    .filter(|&s| left[s] >= 1.0)
                    .min_by(|&a, &b| cost[j * slots + a].total_cmp(&cost[j * slots + b]))
                    .expect("capacity was topped up");
                left[s] -= 1.0;
                integral += cost[j * slots + s];
            }
            proptest::prop_assert!(
                sol.objective <= integral + 1e-7 * integral.abs().max(1.0),
                "LP relaxation {} above integral assignment {}",
                sol.objective,
                integral
            );
        }
    }
}
