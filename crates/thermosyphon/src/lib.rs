//! Gravity-driven two-phase thermosyphon model (Seuret et al. \[8\] substitute).
//!
//! The thermosyphon sits on the CPU package: a micro-channel **evaporator**
//! boils the refrigerant; the vapour–liquid mixture rises to a water-cooled
//! **condenser** and returns by gravity — no pump. This crate models every
//! lever the paper tunes:
//!
//! * [`Orientation`] — micro-channel flow axis (Design 1: east↔west,
//!   Design 2: north↔south; Sec. VI-A),
//! * [`Refrigerant`](tps_fluids::Refrigerant) choice and filling ratio
//!   ([`ThermosyphonDesign`], Sec. VI-B; R236fa at 55 %),
//! * water inlet temperature and flow rate ([`OperatingPoint`], Sec. VI-C),
//! * fixed-point thermal coupling ([`CoupledSimulation`]) against the
//!   `tps-thermal` steady-state conduction model. Each solve closes three
//!   crate-private models: per-channel quality marching with Cooper boiling
//!   and dryout in the evaporator ([`EvaporatorSolution`]), which produces
//!   the inlet-cooler-than-outlet asymmetry and the penalty for co-linear
//!   hot spots that the mapping policy exploits; the natural-circulation
//!   mass flow; and the ε-NTU condenser closing the loop,
//! * a workload-aware design optimizer ([`DesignOptimizer`], Sec. VI).
//!
//! ```no_run
//! use tps_floorplan::{xeon_e5_v4, PackageGeometry};
//! use tps_thermosyphon::{CoupledSimulation, ThermosyphonDesign, OperatingPoint};
//!
//! let fp = xeon_e5_v4();
//! let pkg = PackageGeometry::xeon(&fp);
//! let design = ThermosyphonDesign::paper_design(&pkg);
//! let sim = CoupledSimulation::builder(design, OperatingPoint::paper())
//!     .grid_pitch_mm(1.0)
//!     .build();
//! # let _ = sim;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circulation;
mod condenser;
mod coupling;
mod design;
mod evaporator;
mod filling;
mod operating;
mod optimize;

pub use circulation::CirculationError;
pub use coupling::{CoupledSimulation, CoupledSimulationBuilder, CoupledSolution, CouplingError};
pub use design::{Orientation, ThermosyphonDesign, ThermosyphonDesignBuilder};
pub use evaporator::EvaporatorSolution;

pub use operating::{FlowValve, OperatingPoint};
pub use optimize::{DesignObjective, DesignOptimizer, DesignReport};
