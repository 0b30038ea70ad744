//! Jacobi-preconditioned conjugate gradient for the conduction system.

use core::fmt;

/// Error returned when the iterative solver fails.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The residual did not drop below tolerance within the iteration cap.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// The operator produced a non-finite value (ill-posed system).
    NumericalBreakdown,
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "conjugate gradient did not converge in {iterations} iterations \
                 (relative residual {residual:.3e})"
            ),
            SolverError::NumericalBreakdown => {
                write!(f, "conjugate gradient hit a non-finite value")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// Convergence report of a linear solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual ‖r‖/‖b‖.
    pub residual: f64,
}

/// A matrix-free preconditioned conjugate-gradient solver.
///
/// The operator is supplied as a closure `y ← A·x`, which lets the thermal
/// model apply its 7-point stencil without ever materializing the matrix.
/// The system must be symmetric positive definite — which the conduction
/// network is, as long as every cell has a positive coupling to a boundary
/// or to another cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CgSolver {
    tolerance: f64,
    max_iterations: usize,
}

impl Default for CgSolver {
    fn default() -> Self {
        Self {
            tolerance: 1e-8,
            max_iterations: 8000,
        }
    }
}

impl CgSolver {
    /// Creates a solver with the given relative tolerance and iteration cap.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not in `(0, 1)` or the cap is zero.
    #[cfg(test)]
    pub(crate) fn new(tolerance: f64, max_iterations: usize) -> Self {
        assert!(
            tolerance > 0.0 && tolerance < 1.0,
            "tolerance {tolerance} outside (0, 1)"
        );
        assert!(max_iterations > 0, "iteration cap must be positive");
        Self {
            tolerance,
            max_iterations,
        }
    }

    /// Solves `A·x = b` in place (`x` holds the initial guess on entry and
    /// the solution on success), with Jacobi preconditioner `diag`.
    ///
    /// An iteration makes one `apply` call and three passes over the
    /// vectors: the `p·Ap` dot; one pass that updates `x` and `r`, sets
    /// `z = r/diag` and sums `r·z` and `r·r`; and the `p` update. The next
    /// residual check reuses that `r·r`. Every sum adds its products in
    /// ascending index order from `-0.0`, as `Iterator::sum` does, and `z`
    /// divides by the diagonal, so the iterates are bit for bit those of the
    /// loop with one pass per vector operation.
    ///
    /// # Errors
    ///
    /// [`SolverError::NoConvergence`] if the iteration cap is hit;
    /// [`SolverError::NumericalBreakdown`] on non-finite intermediate values.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ or `diag` has non-positive entries.
    pub(crate) fn solve(
        &self,
        apply: impl Fn(&[f64], &mut [f64]),
        diag: &[f64],
        b: &[f64],
        x: &mut [f64],
    ) -> Result<SolveStats, SolverError> {
        let n = b.len();
        assert_eq!(x.len(), n, "x and b lengths differ");
        assert_eq!(diag.len(), n, "diag and b lengths differ");
        assert!(
            diag.iter().all(|&d| d > 0.0),
            "Jacobi preconditioner needs a strictly positive diagonal"
        );

        let norm_b = dot(b, b).sqrt();
        if norm_b == 0.0 {
            x.fill(0.0);
            return Ok(SolveStats {
                iterations: 0,
                residual: 0.0,
            });
        }

        let mut r = vec![0.0; n]; // residual b − A·x
        let mut z = vec![0.0; n]; // preconditioned residual
        let mut p = vec![0.0; n]; // search direction
        let mut ap = vec![0.0; n];

        apply(x, &mut ap);
        for i in 0..n {
            r[i] = b[i] - ap[i];
        }
        for i in 0..n {
            z[i] = r[i] / diag[i];
        }
        p.copy_from_slice(&z);
        let mut rz = dot(&r, &z);
        let mut rr = dot(&r, &r);

        for iter in 0..self.max_iterations {
            let res = rr.sqrt() / norm_b;
            if !res.is_finite() {
                return Err(SolverError::NumericalBreakdown);
            }
            if res < self.tolerance {
                return Ok(SolveStats {
                    iterations: iter,
                    residual: res,
                });
            }
            apply(&p, &mut ap);
            let pap = dot(&p, &ap);
            if !(pap.is_finite() && pap > 0.0) {
                return Err(SolverError::NumericalBreakdown);
            }
            let alpha = rz / pap;
            let (mut rz_next, mut rr_next) = (-0.0, -0.0);
            for ((((xi, ri), zi), (&pi, &api)), &di) in x
                .iter_mut()
                .zip(r.iter_mut())
                .zip(z.iter_mut())
                .zip(p.iter().zip(&ap))
                .zip(diag)
            {
                *xi += alpha * pi;
                *ri -= alpha * api;
                *zi = *ri / di;
                rz_next += *ri * *zi;
                rr_next += *ri * *ri;
            }
            let beta = rz_next / rz;
            rz = rz_next;
            rr = rr_next;
            for (pi, &zi) in p.iter_mut().zip(&z) {
                *pi = zi + beta * *pi;
            }
        }
        Err(SolverError::NoConvergence {
            iterations: self.max_iterations,
            residual: rr.sqrt() / norm_b,
        })
    }
}

/// Conjugate gradient with one pass per vector operation and a fresh `r·r`
/// dot for every residual check: the oracle [`CgSolver::solve`] must match
/// bit for bit.
#[cfg(test)]
impl CgSolver {
    pub(crate) fn solve_unfused(
        &self,
        apply: impl Fn(&[f64], &mut [f64]),
        diag: &[f64],
        b: &[f64],
        x: &mut [f64],
    ) -> Result<SolveStats, SolverError> {
        let n = b.len();
        assert_eq!(x.len(), n, "x and b lengths differ");
        assert_eq!(diag.len(), n, "diag and b lengths differ");
        assert!(
            diag.iter().all(|&d| d > 0.0),
            "Jacobi preconditioner needs a strictly positive diagonal"
        );

        let norm_b = dot(b, b).sqrt();
        if norm_b == 0.0 {
            x.fill(0.0);
            return Ok(SolveStats {
                iterations: 0,
                residual: 0.0,
            });
        }

        let mut r = vec![0.0; n]; // residual b − A·x
        let mut z = vec![0.0; n]; // preconditioned residual
        let mut p = vec![0.0; n]; // search direction
        let mut ap = vec![0.0; n];

        apply(x, &mut ap);
        for i in 0..n {
            r[i] = b[i] - ap[i];
        }
        for i in 0..n {
            z[i] = r[i] / diag[i];
        }
        p.copy_from_slice(&z);
        let mut rz = dot(&r, &z);

        for iter in 0..self.max_iterations {
            let res = dot(&r, &r).sqrt() / norm_b;
            if !res.is_finite() {
                return Err(SolverError::NumericalBreakdown);
            }
            if res < self.tolerance {
                return Ok(SolveStats {
                    iterations: iter,
                    residual: res,
                });
            }
            apply(&p, &mut ap);
            let pap = dot(&p, &ap);
            if !(pap.is_finite() && pap > 0.0) {
                return Err(SolverError::NumericalBreakdown);
            }
            let alpha = rz / pap;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            for i in 0..n {
                z[i] = r[i] / diag[i];
            }
            let rz_next = dot(&r, &z);
            let beta = rz_next / rz;
            rz = rz_next;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        Err(SolverError::NoConvergence {
            iterations: self.max_iterations,
            residual: dot(&r, &r).sqrt() / norm_b,
        })
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Dense SPD apply for testing: A = Lᵀ·L + I.
    fn dense_apply(a: &[Vec<f64>]) -> impl Fn(&[f64], &mut [f64]) + '_ {
        move |x, y| {
            for (i, row) in a.iter().enumerate() {
                y[i] = row.iter().zip(x).map(|(aij, xj)| aij * xj).sum();
            }
        }
    }

    fn spd_from_seed(n: usize, seed: u64) -> Vec<Vec<f64>> {
        // Deterministic pseudo-random lower-triangular L, A = L·Lᵀ + n·I.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0 - 0.5
        };
        let l: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| if j <= i { next() } else { 0.0 }).collect())
            .collect();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                for (lik, ljk) in l[i].iter().zip(&l[j]) {
                    a[i][j] += lik * ljk;
                }
            }
            a[i][i] += n as f64;
        }
        a
    }

    #[test]
    fn solves_identity() {
        let solver = CgSolver::default();
        let b = [1.0, 2.0, 3.0];
        let mut x = [0.0; 3];
        let stats = solver
            .solve(|v, y| y.copy_from_slice(v), &[1.0; 3], &b, &mut x)
            .unwrap();
        assert!(stats.residual < 1e-8);
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn solves_small_spd_system() {
        let a = spd_from_seed(20, 42);
        let diag: Vec<f64> = (0..20).map(|i| a[i][i]).collect();
        let b: Vec<f64> = (0..20).map(|i| (i as f64).sin() + 2.0).collect();
        let mut x = vec![0.0; 20];
        let stats = CgSolver::default()
            .solve(dense_apply(&a), &diag, &b, &mut x)
            .unwrap();
        assert!(stats.residual < 1e-8);
        // Verify A·x ≈ b directly.
        let mut ax = vec![0.0; 20];
        dense_apply(&a)(&x, &mut ax);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_rhs_gives_zero() {
        let mut x = [5.0; 4];
        let stats = CgSolver::default()
            .solve(|v, y| y.copy_from_slice(v), &[1.0; 4], &[0.0; 4], &mut x)
            .unwrap();
        assert_eq!(stats.iterations, 0);
        assert_eq!(x, [0.0; 4]);
    }

    #[test]
    fn iteration_cap_reported() {
        let a = spd_from_seed(30, 7);
        let diag: Vec<f64> = (0..30).map(|i| a[i][i]).collect();
        let b = vec![1.0; 30];
        let mut x = vec![0.0; 30];
        let err = CgSolver::new(1e-12, 1).solve(dense_apply(&a), &diag, &b, &mut x);
        assert!(matches!(
            err,
            Err(SolverError::NoConvergence { iterations: 1, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "positive diagonal")]
    fn zero_diag_rejected() {
        let mut x = [0.0; 2];
        let _ = CgSolver::default().solve(
            |v, y| y.copy_from_slice(v),
            &[1.0, 0.0],
            &[1.0, 1.0],
            &mut x,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn converges_on_random_spd(seed in 0u64..1000, n in 2usize..25) {
            let a = spd_from_seed(n, seed);
            let diag: Vec<f64> = (0..n).map(|i| a[i][i]).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64) * 0.37 + 1.0).collect();
            let mut x = vec![0.0; n];
            let stats = CgSolver::default()
                .solve(dense_apply(&a), &diag, &b, &mut x)
                .unwrap();
            prop_assert!(stats.residual < 1e-8);
            let mut x_oracle = vec![0.0; n];
            let oracle = CgSolver::default()
                .solve_unfused(dense_apply(&a), &diag, &b, &mut x_oracle)
                .unwrap();
            prop_assert_eq!(stats.iterations, oracle.iterations);
            prop_assert_eq!(stats.residual.to_bits(), oracle.residual.to_bits());
            let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&x), bits(&x_oracle));
        }
    }
}
