//! Property tests on the thermal solver's physical invariants: energy
//! conservation and the discrete maximum principle must hold for *any*
//! stack, grid and power map, not just the calibrated Xeon case.

use proptest::prelude::*;
use tps_floorplan::{GridSpec, Rect, ScalarField};
use tps_thermal::{LayerStack, Material, ThermalModel, TopBoundary};
use tps_units::{Celsius, HeatTransferCoeff};

fn arbitrary_stack(extent: Rect, layers: usize, die_frac: f64) -> LayerStack {
    let mut b = LayerStack::builder(extent);
    let window = Rect::from_m(
        extent.x_min() + extent.width().value() * (1.0 - die_frac) / 2.0,
        extent.y_min() + extent.height().value() * (1.0 - die_frac) / 2.0,
        extent.width().value() * die_frac,
        extent.height().value() * die_frac,
    );
    b = b.windowed_layer("die", Material::silicon(), 0.7e-3, window);
    if layers >= 2 {
        b = b.layer("tim", Material::tim_grease(), 0.1e-3);
    }
    if layers >= 3 {
        b = b.layer("spreader", Material::copper(), 2e-3);
    }
    b.build().expect("generated stacks are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Heat in == heat out (top + bottom leak), for random power maps,
    /// grids, stacks and boundary strengths.
    #[test]
    fn energy_conservation(
        nx in 4usize..14,
        ny in 4usize..14,
        layers in 1usize..=3,
        die_frac in 0.4f64..1.0,
        total_w in 5.0f64..120.0,
        htc in 2_000.0f64..40_000.0,
        t_fluid in 20.0f64..50.0,
        west_bias in 0.1f64..0.9,
    ) {
        let extent = Rect::from_mm(0.0, 0.0, 20.0, 16.0);
        let stack = arbitrary_stack(extent, layers, die_frac);
        let grid = GridSpec::new(nx, ny, extent);
        let model = ThermalModel::new(&stack, grid.clone());
        let mut power = ScalarField::from_fn(grid.clone(), |x, _| {
            if x < extent.x_min() + extent.width().value() * 0.5 {
                west_bias
            } else {
                1.0 - west_bias
            }
        });
        let scale = total_w / power.total();
        power.scale(scale);
        let top = TopBoundary::uniform(
            &grid,
            HeatTransferCoeff::new(htc),
            Celsius::new(t_fluid),
        );
        let sol = model.steady_state(&power, &top).expect("solver converges");
        let out = model.total_heat_to_top(&sol, &top).value()
            + model.total_heat_to_bottom(&sol).value();
        prop_assert!(
            (out - total_w).abs() < 2e-3 * total_w,
            "in {total_w} W, out {out} W"
        );
    }

    /// Discrete maximum principle: with non-negative sources, no cell runs
    /// cooler than the coldest boundary reservoir; and the die (source)
    /// layer holds the global maximum.
    #[test]
    fn maximum_principle(
        nx in 4usize..12,
        ny in 4usize..12,
        total_w in 1.0f64..100.0,
        htc in 2_000.0f64..30_000.0,
        t_fluid in 15.0f64..55.0,
    ) {
        let extent = Rect::from_mm(0.0, 0.0, 18.0, 18.0);
        let stack = arbitrary_stack(extent, 3, 0.8);
        let grid = GridSpec::new(nx, ny, extent);
        let model = ThermalModel::new(&stack, grid.clone());
        let power = ScalarField::filled(grid.clone(), total_w / grid.n_cells() as f64);
        let top = TopBoundary::uniform(
            &grid,
            HeatTransferCoeff::new(htc),
            Celsius::new(t_fluid),
        );
        let sol = model.steady_state(&power, &top).expect("solver converges");
        // `ThermalModel::new`'s bottom boundary leaks to 35 °C air.
        let coldest_reservoir = t_fluid.min(35.0);
        let mut global_max = f64::NEG_INFINITY;
        for l in 0..sol.n_layers() {
            prop_assert!(
                sol.layer(l).min() >= coldest_reservoir - 1e-6,
                "layer {l} dips below the coldest reservoir"
            );
            global_max = global_max.max(sol.layer(l).max());
        }
        prop_assert!(
            (sol.die_layer().max() - global_max).abs() < 1e-9,
            "the heated die layer must hold the global maximum"
        );
    }

    /// Superposition: doubling the power doubles every temperature rise
    /// (the conduction system is linear).
    #[test]
    fn linearity_in_power(
        total_w in 5.0f64..60.0,
        htc in 3_000.0f64..25_000.0,
    ) {
        let extent = Rect::from_mm(0.0, 0.0, 16.0, 12.0);
        let stack = arbitrary_stack(extent, 2, 0.7);
        let grid = GridSpec::new(8, 6, extent);
        let model = ThermalModel::new(&stack, grid.clone());
        let t_fluid = 30.0;
        let top = TopBoundary::uniform(
            &grid,
            HeatTransferCoeff::new(htc),
            Celsius::new(t_fluid),
        );
        // Use a zero-ambient-leak comparison by measuring rises above the
        // single-power solution rather than absolute linearity (the bottom
        // leak references a different temperature).
        let p1 = ScalarField::filled(grid.clone(), total_w / grid.n_cells() as f64);
        let mut p2 = p1.clone();
        p2.scale(2.0);
        let s1 = model.steady_state(&p1, &top).expect("converges");
        let s2 = model.steady_state(&p2, &top).expect("converges");
        // Compare rise above the zero-power solution.
        let p0 = ScalarField::filled(grid.clone(), 0.0);
        let s0 = model.steady_state(&p0, &top).expect("converges");
        let rise1 = s1.die_layer().max() - s0.die_layer().max();
        let rise2 = s2.die_layer().max() - s0.die_layer().max();
        prop_assert!(
            (rise2 - 2.0 * rise1).abs() < 1e-3 * rise2.abs().max(1.0),
            "rise1 {rise1}, rise2 {rise2}"
        );
    }
}
