//! The assembled 3-D conduction network and its steady-state solver.

use crate::boundary::{BottomBoundary, TopBoundary};
use crate::solver::{CgSolver, SolveStats, SolverError};
use crate::stack::LayerStack;
use tps_floorplan::{GridSpec, ScalarField};
use tps_units::{Celsius, Watts};

/// A finite-volume conduction model: one cell per (layer, grid cell), with
/// harmonic-mean conductances between face-sharing neighbours, a convective
/// top surface and a weak convective bottom leak. Side walls are adiabatic.
///
/// Power (watts per grid cell) is injected into the *bottom* layer — the
/// device layer of the flip-chip die.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    grid: GridSpec,
    layer_names: Vec<String>,
    dz: Vec<f64>,
    /// Conductance to the eastern neighbour (0 on the east wall), per layer.
    gx: Vec<Vec<f64>>,
    /// Conductance to the northern neighbour (0 on the north wall), per layer.
    gy: Vec<Vec<f64>>,
    /// Conductance to the layer above (empty row for the top layer).
    gz: Vec<Vec<f64>>,
    /// Sum of all inter-cell conductances per cell (diagonal base).
    diag_base: Vec<f64>,
    /// Conductivity of the bottom-layer cells (for the half-cell series
    /// resistance of the bottom boundary).
    k_bottom: Vec<f64>,
    /// Conductivity of the top-layer cells (for the top boundary).
    k_top: Vec<f64>,
    bottom: BottomBoundary,
    solver: CgSolver,
}

impl ThermalModel {
    /// Assembles the network for `stack` discretized on `grid` with the
    /// default bottom boundary (a weak 10 W/m²K path to 35 °C
    /// server-internal air) and solver.
    ///
    /// # Panics
    ///
    /// Panics if the grid extent differs from the stack extent.
    pub fn new(stack: &LayerStack, grid: GridSpec) -> Self {
        Self::with_options(stack, grid, BottomBoundary::default(), CgSolver::default())
    }

    /// Assembles the network with explicit boundary/solver options.
    ///
    /// # Panics
    ///
    /// Panics if the grid extent differs from the stack extent.
    pub(crate) fn with_options(
        stack: &LayerStack,
        grid: GridSpec,
        bottom: BottomBoundary,
        solver: CgSolver,
    ) -> Self {
        assert_eq!(
            grid.extent(),
            stack.extent(),
            "grid extent must match the stack extent"
        );
        let (nx, ny) = (grid.nx(), grid.ny());
        let nc = grid.n_cells();
        let nl = stack.layers().len();
        let (dx, dy) = (grid.cell_w(), grid.cell_h());
        let area = grid.cell_area();

        // Per-layer per-cell conductivity.
        let mut k = vec![vec![0.0; nc]; nl];
        let mut dz = Vec::with_capacity(nl);
        for (l, layer) in stack.layers().iter().enumerate() {
            dz.push(layer.thickness_m());
            for iy in 0..ny {
                for ix in 0..nx {
                    let (x, y) = grid.cell_center(ix, iy);
                    let m = layer.material_at(x, y);
                    let i = grid.idx(ix, iy);
                    k[l][i] = m.conductivity().value();
                }
            }
        }

        // Harmonic-mean face conductances.
        let series =
            |k1: f64, k2: f64, half1: f64, half2: f64, face: f64| face / (half1 / k1 + half2 / k2);
        let mut gx = vec![vec![0.0; nc]; nl];
        let mut gy = vec![vec![0.0; nc]; nl];
        let mut gz = vec![vec![0.0; nc]; nl.saturating_sub(1)];
        for l in 0..nl {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = grid.idx(ix, iy);
                    if ix + 1 < nx {
                        let j = grid.idx(ix + 1, iy);
                        gx[l][i] = series(k[l][i], k[l][j], dx / 2.0, dx / 2.0, dz[l] * dy);
                    }
                    if iy + 1 < ny {
                        let j = grid.idx(ix, iy + 1);
                        gy[l][i] = series(k[l][i], k[l][j], dy / 2.0, dy / 2.0, dz[l] * dx);
                    }
                    if l + 1 < nl {
                        gz[l][i] = series(k[l][i], k[l + 1][i], dz[l] / 2.0, dz[l + 1] / 2.0, area);
                    }
                }
            }
        }

        // Diagonal base: sum of conductances incident to each cell.
        let mut diag_base = vec![0.0; nl * nc];
        for l in 0..nl {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = grid.idx(ix, iy);
                    let gi = l * nc + i;
                    if ix + 1 < nx {
                        let j = grid.idx(ix + 1, iy);
                        diag_base[gi] += gx[l][i];
                        diag_base[l * nc + j] += gx[l][i];
                    }
                    if iy + 1 < ny {
                        let j = grid.idx(ix, iy + 1);
                        diag_base[gi] += gy[l][i];
                        diag_base[l * nc + j] += gy[l][i];
                    }
                    if l + 1 < nl {
                        diag_base[gi] += gz[l][i];
                        diag_base[(l + 1) * nc + i] += gz[l][i];
                    }
                }
            }
        }

        let k_bottom = k[0].clone();
        let k_top = k[nl - 1].clone();
        Self {
            grid,
            layer_names: stack.layers().iter().map(|l| l.name().to_owned()).collect(),
            dz,
            gx,
            gy,
            gz,
            diag_base,
            k_bottom,
            k_top,
            bottom,
            solver,
        }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layer_names.len()
    }

    /// Index of a layer by name.
    pub fn layer_index(&self, name: &str) -> Option<usize> {
        self.layer_names.iter().position(|n| n == name)
    }

    /// Total number of unknowns.
    pub(crate) fn n_cells(&self) -> usize {
        self.n_layers() * self.grid.n_cells()
    }

    /// `y ← A·x` for the conduction operator with the given full diagonal.
    ///
    /// Walks layer by layer in one pass per stencil term. The in-row pass
    /// sets `diag·x − west − east` row by row, with the first and last
    /// column peeled. Whole-layer passes then subtract the south, north,
    /// below and above terms from exactly the cells that have those
    /// neighbours. So every cell subtracts only the terms it has, in the
    /// order west, east, south, north, below, above, which makes the result
    /// bit-identical to a cell-by-cell stencil, and no pass has a modulo or
    /// a per-cell branch.
    fn apply(&self, diag: &[f64], x: &[f64], y: &mut [f64]) {
        let nc = self.grid.n_cells();
        let nx = self.grid.nx();
        for (l, y) in y.chunks_exact_mut(nc).enumerate() {
            let at = l * nc;
            let (d, xl) = (&diag[at..at + nc], &x[at..at + nc]);
            let gx = &self.gx[l];
            for (((y, d), x), gx) in y
                .chunks_exact_mut(nx)
                .zip(d.chunks_exact(nx))
                .zip(xl.chunks_exact(nx))
                .zip(gx.chunks_exact(nx))
            {
                lateral(y, d, x, gx);
            }
            let gy = &self.gy[l][..nc - nx];
            subtract(&mut y[nx..], gy, &xl[..nc - nx]);
            subtract(&mut y[..nc - nx], gy, &xl[nx..]);
            if l > 0 {
                subtract(y, &self.gz[l - 1], &x[at - nc..at]);
            }
            if let Some(gz) = self.gz.get(l) {
                subtract(y, gz, &x[at + nc..at + 2 * nc]);
            }
        }
    }

    /// Builds the full diagonal and right-hand side for a solve.
    fn assemble(&self, power: &ScalarField, top: &TopBoundary) -> (Vec<f64>, Vec<f64>) {
        let nc = self.grid.n_cells();
        let nl = self.n_layers();
        let area = self.grid.cell_area();
        let mut diag = self.diag_base.clone();
        let mut b = vec![0.0; nl * nc];

        // Power into the bottom (device) layer.
        for (i, p) in power.values().iter().enumerate() {
            b[i] += p;
        }
        // Convective boundaries carry the half-cell conduction resistance in
        // series: G = A / (1/h + dz/(2k)) — without it a one-cell-thick layer
        // would see the fluid at its centre instead of its face.
        let dz0 = self.dz[0];
        let dzt = self.dz[nl - 1];
        // Bottom leak on layer 0.
        let hb = self.bottom.htc.value();
        if hb > 0.0 {
            for i in 0..nc {
                let g = area / (1.0 / hb + dz0 / (2.0 * self.k_bottom[i]));
                diag[i] += g;
                b[i] += g * self.bottom.ambient.value();
            }
        }
        // Convective top on the last layer.
        let top_base = (nl - 1) * nc;
        for i in 0..nc {
            let h = top.htc().values()[i];
            if h > 0.0 {
                let g = area / (1.0 / h + dzt / (2.0 * self.k_top[i]));
                diag[top_base + i] += g;
                b[top_base + i] += g * top.fluid_temp().values()[i];
            }
        }
        (diag, b)
    }

    /// Solves the steady-state temperature field.
    ///
    /// `power` holds watts per grid cell, injected into the bottom layer;
    /// `top` is the evaporator-side boundary.
    ///
    /// # Errors
    ///
    /// Propagates [`SolverError`] if the conjugate gradient fails.
    ///
    /// # Panics
    ///
    /// Panics if `power` or `top` live on a different grid.
    pub fn steady_state(
        &self,
        power: &ScalarField,
        top: &TopBoundary,
    ) -> Result<ThermalSolution, SolverError> {
        self.check_grids(power, top);
        let (diag, b) = self.assemble(power, top);
        // Start from the mean fluid temperature — a good guess that keeps
        // iteration counts low across coupling iterations.
        let mut x = vec![top.fluid_temp().mean() + 10.0; self.n_cells()];
        let stats =
            self.solver
                .solve(|v, y| self.apply(&diag, v, y), &diag, b.as_slice(), &mut x)?;
        Ok(self.split_solution(x, stats))
    }

    fn check_grids(&self, power: &ScalarField, top: &TopBoundary) {
        assert_eq!(power.spec(), &self.grid, "power field grid mismatch");
        assert_eq!(top.htc().spec(), &self.grid, "top boundary grid mismatch");
    }

    fn split_solution(&self, x: Vec<f64>, stats: SolveStats) -> ThermalSolution {
        let nc = self.grid.n_cells();
        let layers = (0..self.n_layers())
            .map(|l| {
                let mut f = ScalarField::zeros(self.grid.clone());
                f.values_mut().copy_from_slice(&x[l * nc..(l + 1) * nc]);
                f
            })
            .collect();
        ThermalSolution {
            names: self.layer_names.clone(),
            layers,
            stats,
        }
    }

    /// Heat flow from the top layer into the fluid (per-cell watts), through
    /// the same effective conductance the solver uses
    /// (`G = A / (1/h + dz/2k)`); this is the wall flux the evaporator
    /// marching model consumes during coupling.
    pub fn heat_to_top(&self, solution: &ThermalSolution, top: &TopBoundary) -> ScalarField {
        let wall = solution.top_layer();
        let area = self.grid.cell_area();
        let dzt = self.dz[self.n_layers() - 1];
        let mut out = ScalarField::zeros(self.grid.clone());
        for i in 0..self.grid.n_cells() {
            let h = top.htc().values()[i];
            if h > 0.0 {
                let g = area / (1.0 / h + dzt / (2.0 * self.k_top[i]));
                out.values_mut()[i] = g * (wall.values()[i] - top.fluid_temp().values()[i]);
            }
        }
        out
    }

    /// Total heat removed through the top surface.
    pub fn total_heat_to_top(&self, solution: &ThermalSolution, top: &TopBoundary) -> Watts {
        Watts::new(self.heat_to_top(solution, top).total())
    }

    /// Heat leaking through the bottom boundary, total watts.
    pub fn total_heat_to_bottom(&self, solution: &ThermalSolution) -> Watts {
        let area = self.grid.cell_area();
        let hb = self.bottom.htc.value();
        if hb <= 0.0 {
            return Watts::ZERO;
        }
        let dz0 = self.dz[0];
        let t_amb = self.bottom.ambient.value();
        let total = solution
            .die_layer()
            .values()
            .iter()
            .zip(&self.k_bottom)
            .map(|(&t, &k)| area / (1.0 / hb + dz0 / (2.0 * k)) * (t - t_amb))
            .sum();
        Watts::new(total)
    }
}

/// `y ← diag·x − west − east` along one grid row; `gx` holds the
/// conductance to each cell's eastern neighbour.
fn lateral(y: &mut [f64], d: &[f64], x: &[f64], gx: &[f64]) {
    let n = y.len();
    if n == 1 {
        y[0] = d[0] * x[0];
        return;
    }
    y[0] = d[0] * x[0] - gx[0] * x[1];
    let m = n - 2;
    let (dc, xw, xc, xe) = (&d[1..=m], &x[..m], &x[1..=m], &x[2..]);
    let (gw, ge) = (&gx[..m], &gx[1..=m]);
    for (i, y) in y[1..=m].iter_mut().enumerate() {
        *y = dc[i] * xc[i] - gw[i] * xw[i] - ge[i] * xe[i];
    }
    y[n - 1] = d[n - 1] * x[n - 1] - gx[n - 2] * x[n - 2];
}

/// `y −= g·x`, cell by cell: one out-of-row neighbour term for a run of
/// cells that all have that neighbour.
fn subtract(y: &mut [f64], g: &[f64], x: &[f64]) {
    for ((y, g), x) in y.iter_mut().zip(g).zip(x) {
        *y -= g * x;
    }
}

/// A solved temperature field: one layer of temperatures (°C) per stack
/// layer, bottom (die) first.
#[derive(Debug, Clone)]
pub struct ThermalSolution {
    names: Vec<String>,
    layers: Vec<ScalarField>,
    stats: SolveStats,
}

impl ThermalSolution {
    /// Temperatures of layer `l` (°C per cell).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer(&self, l: usize) -> &ScalarField {
        &self.layers[l]
    }

    /// Temperatures of the named layer.
    pub fn layer_by_name(&self, name: &str) -> Option<&ScalarField> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.layers[i])
    }

    /// The bottom (device/die) layer.
    pub fn die_layer(&self) -> &ScalarField {
        &self.layers[0]
    }

    /// The top layer (evaporator base).
    pub fn top_layer(&self) -> &ScalarField {
        self.layers
            .last()
            .expect("solutions have at least one layer")
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Solver convergence stats for this solution.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Temperature at a lateral point of a layer, if inside the grid.
    pub fn temperature_at(&self, layer: usize, x: f64, y: f64) -> Option<Celsius> {
        let f = &self.layers[layer];
        f.spec()
            .cell_at(x, y)
            .map(|c| Celsius::new(f.at(c.ix, c.iy)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::Material;
    use crate::stack::LayerStack;
    use proptest::prelude::*;
    use tps_floorplan::{xeon_e5_v4, PackageGeometry, Rect};
    use tps_units::HeatTransferCoeff;

    /// The cell-by-cell stencil, with a modulo and six wall tests per cell:
    /// the oracle [`ThermalModel::apply`] must match bit for bit.
    fn apply_cellwise(model: &ThermalModel, diag: &[f64], x: &[f64], y: &mut [f64]) {
        let nc = model.grid.n_cells();
        let nx = model.grid.nx();
        let nl = model.n_layers();
        for l in 0..nl {
            let base = l * nc;
            let gx = &model.gx[l];
            let gy = &model.gy[l];
            for i in 0..nc {
                let gi = base + i;
                let mut acc = diag[gi] * x[gi];
                let ix = i % nx;
                if ix > 0 {
                    acc -= gx[i - 1] * x[gi - 1];
                }
                if ix + 1 < nx {
                    acc -= gx[i] * x[gi + 1];
                }
                if i >= nx {
                    acc -= gy[i - nx] * x[gi - nx];
                }
                if i + nx < nc {
                    acc -= gy[i] * x[gi + nx];
                }
                if l > 0 {
                    acc -= model.gz[l - 1][i] * x[gi - nc];
                }
                if l + 1 < nl {
                    acc -= model.gz[l][i] * x[gi + nc];
                }
                y[gi] = acc;
            }
        }
    }

    /// [`ThermalModel::steady_state`] on the oracle stencil and CG loop.
    fn steady_state_oracle(
        model: &ThermalModel,
        power: &ScalarField,
        top: &TopBoundary,
    ) -> Result<ThermalSolution, SolverError> {
        let (diag, b) = model.assemble(power, top);
        let mut x = vec![top.fluid_temp().mean() + 10.0; model.n_cells()];
        let stats = model.solver.solve_unfused(
            |v, y| apply_cellwise(model, &diag, v, y),
            &diag,
            &b,
            &mut x,
        )?;
        Ok(model.split_solution(x, stats))
    }

    /// A solve's outcome with its floats as bits, so that NaN residuals
    /// compare too.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Solved { iterations: usize, residual: u64 },
        NoConvergence { iterations: usize, residual: u64 },
        Breakdown,
    }

    fn outcome(result: Result<SolveStats, &SolverError>) -> Outcome {
        match result {
            Ok(s) => Outcome::Solved {
                iterations: s.iterations,
                residual: s.residual.to_bits(),
            },
            Err(SolverError::NoConvergence {
                iterations,
                residual,
            }) => Outcome::NoConvergence {
                iterations: *iterations,
                residual: residual.to_bits(),
            },
            Err(SolverError::NumericalBreakdown) => Outcome::Breakdown,
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Every layer's field bits and the outcome of a steady solve.
    fn steady_bits(result: &Result<ThermalSolution, SolverError>) -> (Vec<Vec<u64>>, Outcome) {
        match result {
            Ok(sol) => (
                (0..sol.n_layers())
                    .map(|l| bits(sol.layer(l).values()))
                    .collect(),
                outcome(Ok(sol.stats())),
            ),
            Err(e) => (Vec::new(), outcome(Err(e))),
        }
    }

    /// Runs `steady_state` on the shipped kernels and on their oracles,
    /// asserts that every field bit, the iteration count and the residual
    /// bits agree, and returns the outcome.
    fn assert_matches_oracle(
        model: &ThermalModel,
        power: &ScalarField,
        top: &TopBoundary,
    ) -> Outcome {
        let steady = steady_bits(&model.steady_state(power, top));
        assert_eq!(
            steady,
            steady_bits(&steady_state_oracle(model, power, top)),
            "steady state differs from the oracle"
        );
        steady.1
    }

    /// A deterministic stream of uniform numbers in `[0, 1)` (xorshift).
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The Xeon thermosyphon stack at `pitch_mm`, with the die drawing
    /// 120 W and a lumpy boiling boundary.
    fn xeon_case(pitch_mm: f64, solver: CgSolver) -> (ThermalModel, ScalarField, TopBoundary) {
        let pkg = PackageGeometry::xeon(&xeon_e5_v4());
        let stack = LayerStack::xeon_thermosyphon(&pkg);
        let grid = GridSpec::with_pitch(*stack.extent(), pitch_mm * 1e-3);
        let model =
            ThermalModel::with_options(&stack, grid.clone(), BottomBoundary::default(), solver);
        let die = pkg.die_rect();
        let mut power = ScalarField::from_fn(grid.clone(), |x, y| {
            if die.contains(x, y) {
                1.0 + (x * 4e3).sin().abs()
            } else {
                0.0
            }
        });
        power.scale(120.0 / power.total());
        let htc = ScalarField::from_fn(grid.clone(), |x, y| 9e3 + 4e3 * ((x - y) * 7e2).cos());
        let top = TopBoundary::new(htc, ScalarField::filled(grid, 38.0));
        (model, power, top)
    }

    #[test]
    fn xeon_stack_matches_oracle_at_sweep_pitches() {
        for pitch in [1.5, 3.0] {
            let (model, power, top) = xeon_case(pitch, CgSolver::default());
            let steady = assert_matches_oracle(&model, &power, &top);
            assert!(
                matches!(steady, Outcome::Solved { .. }),
                "{pitch} mm: {steady:?}"
            );
        }
    }

    #[test]
    fn iteration_cap_matches_oracle() {
        let (model, power, top) = xeon_case(3.0, CgSolver::new(1e-12, 1));
        let steady = assert_matches_oracle(&model, &power, &top);
        assert!(
            matches!(steady, Outcome::NoConvergence { iterations: 1, .. }),
            "{steady:?}"
        );
    }

    #[test]
    fn nan_power_breaks_down_like_oracle() {
        let (model, mut power, top) = xeon_case(3.0, CgSolver::default());
        power.values_mut()[7] = f64::NAN;
        let steady = assert_matches_oracle(&model, &power, &top);
        assert_eq!(steady, Outcome::Breakdown);
    }

    proptest! {
        /// The shipped stencil and CG loop are bit for bit their oracles on
        /// random stacks, grids (single cells, rows and columns included),
        /// power maps and boundaries with zero-HTC cells.
        #[test]
        fn kernels_match_oracles(
            nx in 1usize..=32,
            ny in 1usize..=32,
            layers in 1usize..=5,
            die_frac in 0.2f64..=1.0,
            total_w in 0.0f64..150.0,
            zero_htc_share in 0.0f64..0.5,
            seed in 0u64..u64::MAX,
        ) {
            let extent = Rect::from_mm(0.0, 0.0, 20.0, 16.0);
            let die = Rect::from_m(
                extent.x_min() + extent.width().value() * (1.0 - die_frac) / 2.0,
                extent.y_min() + extent.height().value() * (1.0 - die_frac) / 2.0,
                extent.width().value() * die_frac,
                extent.height().value() * die_frac,
            );
            let upper = [
                ("tim1", Material::tim_grease(), 0.08e-3),
                ("spreader", Material::copper(), 2.0e-3),
                ("tim2", Material::tim_mount(), 0.1e-3),
                ("evap-base", Material::copper(), 1.0e-3),
            ];
            let stack = upper[..layers - 1]
                .iter()
                .fold(
                    LayerStack::builder(extent).windowed_layer("die", Material::silicon(), 0.7e-3, die),
                    |b, (name, m, dz)| b.layer(*name, m.clone(), *dz),
                )
                .build()
                .expect("generated stacks are valid");
            let grid = GridSpec::new(nx, ny, extent);
            let model = ThermalModel::new(&stack, grid.clone());
            let mut u = uniform(seed);
            let mut power = ScalarField::from_fn(grid.clone(), |_, _| u());
            if power.total() > 0.0 {
                power.scale(total_w / power.total());
            }
            let htc = ScalarField::from_fn(grid.clone(), |_, _| {
                if u() < zero_htc_share {
                    0.0
                } else {
                    500.0 + 4e4 * u()
                }
            });
            let fluid = ScalarField::from_fn(grid.clone(), |_, _| 20.0 + 30.0 * u());
            let top = TopBoundary::new(htc, fluid);
            assert_matches_oracle(&model, &power, &top);
        }
    }

    fn slab_model(nx: usize, ny: usize) -> (ThermalModel, GridSpec) {
        let extent = Rect::from_mm(0.0, 0.0, 10.0, 10.0);
        let stack = LayerStack::builder(extent)
            .layer("die", Material::silicon(), 0.7e-3)
            .build()
            .unwrap();
        let grid = GridSpec::new(nx, ny, extent);
        (ThermalModel::new(&stack, grid.clone()), grid)
    }

    #[test]
    fn uniform_slab_matches_1d_analytic() {
        // Uniform q″ through a slab into uniform h: the cell-centre
        // temperature is T_f + q″/h + q″·(dz/2)/k (bottom leak negligible).
        let (model, grid) = slab_model(10, 10);
        let total = 50.0;
        let q_flux = total / 1e-4; // W/m² over the 10×10 mm slab
        let power = ScalarField::filled(grid.clone(), total / 100.0);
        let h = 10_000.0;
        let top = TopBoundary::uniform(&grid, HeatTransferCoeff::new(h), Celsius::new(30.0));
        let sol = model.steady_state(&power, &top).unwrap();
        let expected = 30.0 + q_flux / h + q_flux * (0.7e-3 / 2.0) / 120.0;
        let got = sol.die_layer().mean();
        assert!(
            (got - expected).abs() < 0.25,
            "expected ≈{expected:.2} °C, got {got:.2} °C"
        );
    }

    #[test]
    fn energy_is_conserved_at_steady_state() {
        let (model, grid) = slab_model(16, 16);
        // Non-uniform power: hot west half.
        let power = ScalarField::from_fn(grid.clone(), |x, _| if x < 5e-3 { 0.6 } else { 0.1 });
        let top = TopBoundary::uniform(&grid, HeatTransferCoeff::new(8000.0), Celsius::new(32.0));
        let sol = model.steady_state(&power, &top).unwrap();
        let q_top = model.total_heat_to_top(&sol, &top).value();
        let q_bot = model.total_heat_to_bottom(&sol).value();
        let total_in = power.total();
        assert!(
            (q_top + q_bot - total_in).abs() < 1e-3 * total_in,
            "in {total_in} W, out {} W",
            q_top + q_bot
        );
    }

    #[test]
    fn hotter_under_higher_power() {
        let (model, grid) = slab_model(12, 12);
        let power = ScalarField::from_fn(grid.clone(), |x, _| if x < 5e-3 { 1.0 } else { 0.0 });
        let top = TopBoundary::uniform(&grid, HeatTransferCoeff::new(6000.0), Celsius::new(30.0));
        let sol = model.steady_state(&power, &top).unwrap();
        let west = sol
            .die_layer()
            .mean_in_rect(&Rect::from_mm(0.0, 0.0, 5.0, 10.0))
            .unwrap();
        let east = sol
            .die_layer()
            .mean_in_rect(&Rect::from_mm(5.0, 0.0, 5.0, 10.0))
            .unwrap();
        assert!(west > east + 1.0);
    }

    #[test]
    fn multilayer_gradient_descends_towards_sink() {
        let extent = Rect::from_mm(0.0, 0.0, 10.0, 10.0);
        let stack = LayerStack::builder(extent)
            .layer("die", Material::silicon(), 0.7e-3)
            .layer("tim", Material::tim_grease(), 0.1e-3)
            .layer("spreader", Material::copper(), 3e-3)
            .build()
            .unwrap();
        let grid = GridSpec::new(10, 10, extent);
        let model = ThermalModel::new(&stack, grid.clone());
        let power = ScalarField::filled(grid.clone(), 0.5);
        let top = TopBoundary::uniform(&grid, HeatTransferCoeff::new(1e4), Celsius::new(30.0));
        let sol = model.steady_state(&power, &top).unwrap();
        // Heat flows bottom → top, so mean layer temperature must decrease.
        assert!(sol.layer(0).mean() > sol.layer(1).mean());
        assert!(sol.layer(1).mean() > sol.layer(2).mean());
        assert!(sol.layer(2).mean() > 30.0);
    }

    #[test]
    fn solution_probing() {
        let (model, grid) = slab_model(10, 10);
        let power = ScalarField::filled(grid.clone(), 0.1);
        let top = TopBoundary::uniform(&grid, HeatTransferCoeff::new(5000.0), Celsius::new(30.0));
        let sol = model.steady_state(&power, &top).unwrap();
        let t = sol.temperature_at(0, 5e-3, 5e-3).unwrap();
        assert!(t > Celsius::new(30.0));
        assert!(sol.temperature_at(0, 1.0, 1.0).is_none());
        assert!(sol.layer_by_name("die").is_some());
        assert!(sol.layer_by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "grid mismatch")]
    fn grid_mismatch_panics() {
        let (model, _) = slab_model(8, 8);
        let other = GridSpec::new(4, 4, Rect::from_mm(0.0, 0.0, 10.0, 10.0));
        let power = ScalarField::zeros(other.clone());
        let top = TopBoundary::uniform(&other, HeatTransferCoeff::new(1e4), Celsius::new(30.0));
        let _ = model.steady_state(&power, &top);
    }
}
