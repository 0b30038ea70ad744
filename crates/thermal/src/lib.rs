//! A 3-D compact steady-state thermal simulator in the spirit of 3D-ICE.
//!
//! The paper obtains die temperatures with the 3D-ICE compact transient
//! thermal simulator \[20\]\[21\]; this crate is our from-scratch substitute,
//! and, like the paper's evaluation, it solves the steady state only.
//! The chip stack (silicon die → TIM → copper heat spreader → TIM → evaporator
//! base) is discretized into a regular 3-D grid of finite-volume cells
//! connected by thermal conductances. The top surface exchanges heat with the
//! thermosyphon refrigerant through a per-cell heat-transfer-coefficient
//! field; power enters at the die's device layer.
//!
//! * [`Material`], [`LayerStack`] — stack description,
//! * [`ThermalModel`] — assembled conductance network,
//! * [`ThermalModel::steady_state`] — Jacobi-preconditioned conjugate
//!   gradient on the (symmetric positive definite) conduction system,
//! * [`ThermalMetrics`] — θ_max, θ_avg and the maximum spatial gradient
//!   ∇θ_max (°C/mm) the paper reports in Figs. 2/5/6 and Table II,
//! * [`render_ascii`] — terminal heat maps for the figure binaries.
//!
//! ```
//! use tps_floorplan::{GridSpec, Rect, ScalarField};
//! use tps_thermal::{LayerStack, Material, ThermalModel, TopBoundary};
//! use tps_units::{Celsius, HeatTransferCoeff};
//!
//! // A bare 10×10 mm silicon slab, uniformly heated, water-cooled on top.
//! let extent = Rect::from_mm(0.0, 0.0, 10.0, 10.0);
//! let stack = LayerStack::builder(extent)
//!     .layer("die", Material::silicon(), 0.7e-3)
//!     .build()?;
//! let grid = GridSpec::new(20, 20, extent);
//! let model = ThermalModel::new(&stack, grid.clone());
//! let power = ScalarField::filled(grid.clone(), 50.0 / 400.0); // 50 W total
//! let top = TopBoundary::uniform(&grid, HeatTransferCoeff::new(10_000.0), Celsius::new(30.0));
//! let solution = model.steady_state(&power, &top)?;
//! assert!(solution.layer(0).max() > 30.0); // hotter than the coolant
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boundary;
mod material;
mod metrics;
mod model;
mod render;
mod solver;
mod stack;

pub use boundary::{BottomBoundary, TopBoundary};
pub use material::Material;
pub use metrics::ThermalMetrics;
pub use model::{ThermalModel, ThermalSolution};
pub use render::{render_ascii, write_csv};
pub use solver::{CgSolver, SolveStats, SolverError};
pub use stack::{LayerStack, StackBuilder, StackError};
