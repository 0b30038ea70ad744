//! Die and package floorplans, simulation grids and scalar fields.
//!
//! This crate provides the geometric substrate of the simulator:
//!
//! * [`Rect`]/[`Block`]/[`Floorplan`] — rectangular component layouts with
//!   overlap/bounds validation,
//! * [`xeon_e5_v4`] — the Intel Xeon E5 v4 (Broadwell-EP) die of the paper's
//!   Fig. 2c: two columns of four cores plus a reserved slot each, a large
//!   last-level cache on the east side, and memory-controller / uncore strips
//!   along the south edge (246 mm² die),
//! * [`CoreTopology`] — the row/column lattice of core slots that the mapping
//!   policies in `tps-core` reason about,
//! * [`PackageGeometry`] — die-in-package placement (heat spreader extent),
//! * [`GridSpec`]/[`ScalarField`] — regular simulation grids and the fields
//!   (power, temperature, heat-transfer coefficient) exchanged between the
//!   power, thermal and thermosyphon crates,
//! * conservative rasterization of rectangles onto grids
//!   ([`rasterize_rect`]).
//!
//! ```
//! use tps_floorplan::xeon_e5_v4;
//!
//! let fp = xeon_e5_v4();
//! assert_eq!(fp.cores().count(), 8);
//! let die = fp.outline();
//! assert!((die.width().to_mm() * die.height().to_mm() - 246.0).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod error;
mod grid;
mod package;
mod plan;
mod rect;
mod xeon;

pub use block::{Block, BlockId, ComponentKind};
pub use grid::{rasterize_rect, CellIndex, GridSpec, ScalarField};
pub use package::PackageGeometry;
pub use plan::Floorplan;
pub use rect::Rect;
pub use xeon::{xeon_e5_v4, CoreSlot, CoreTopology};
