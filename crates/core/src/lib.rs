//! The paper's contribution: QoS-aware configuration selection and
//! thermal-aware workload mapping for two-phase-cooled servers.
//!
//! Pipeline (the paper's Algorithm 1 plus Sec. VII):
//!
//! 1. the tolerable idle-core delay `d_i` (from the QoS class) picks the
//!    deepest usable C-state,
//! 2. [`MinPowerSelector`] sorts the profiled `(Nc, Nt, f)` space by power
//!    and picks the first configuration meeting the QoS constraint,
//! 3. [`heat::breakdown_for_mapping`] estimates per-component heat,
//! 4. a [`MappingPolicy`] places the threads of the one application a
//!    server runs (Algorithm 1 assigns `A_i` to `CPU_i`, so the
//!    [`MappingContext`] describes an otherwise idle die): the paper's
//!    C-state-aware [`ProposedMapping`], or the baselines —
//!    [`CoskunBalancing`] \[9\], [`InletFirstMapping`] \[7\],
//!    [`PackedMapping`] (the naive scenario 3),
//! 5. [`Server::run`] closes the loop through the coupled
//!    thermosyphon/thermal simulation and reports the die/package metrics
//!    of Table II,
//! 6. at runtime, [`RuntimeController`] reacts to `T_CASE` emergencies:
//!    lower the frequency if QoS allows, otherwise open the water valve
//!    (Fig. 4).
//!
//! Above the single server, [`plan_rack`] and [`RunOutcome::cooling_load`]
//! feed rack-level accounting (`tps-cooling`), and the `tps-cluster` crate
//! drives whole fleets of these servers through job-arrival traces.
//!
//! ```no_run
//! use tps_core::{MinPowerSelector, ProposedMapping, Server};
//! use tps_workload::{Benchmark, QosClass};
//!
//! let server = Server::xeon(1.0); // 1 mm simulation grid
//! let outcome = server.run(
//!     Benchmark::X264,
//!     QosClass::TwoX,
//!     &MinPowerSelector,
//!     &ProposedMapping,
//! )?;
//! println!("die: {}", outcome.die);
//! # Ok::<(), tps_core::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
pub mod heat;
mod mapping;
mod rack;
mod select;
mod server;

pub use controller::{ControlAction, RuntimeController};
pub use mapping::{
    CoskunBalancing, InletFirstMapping, MappingContext, MappingPolicy, PackedMapping,
    ProposedMapping,
};
pub use rack::{plan_rack, rack_cooling_loads};
pub use select::{ConfigSelector, MinPowerSelector, PackAndCapSelector};
pub use server::{RunError, RunOutcome, RunPlan, Server, ServerBuilder};

/// The paper's case-temperature constraint `T_CASE_MAX` (Sec. VI-B).
pub const T_CASE_MAX: tps_units::Celsius = tps_units::Celsius::new(85.0);
