//! Declarative scenario specs and the sweep engine.
//!
//! The paper's headline result is a comparison across *scenarios* — inlet
//! temperatures, QoS targets, heat-reuse set-points, workload mixes. This
//! crate makes those scenarios data instead of code:
//!
//! * [`toml`] — a hand-rolled parser for the TOML subset spec files use
//!   (single-level tables, scalars, single-line arrays; vendored-dep
//!   style, no crates.io),
//! * [`Scenario`] — one validated scenario: fleet shape, chiller /
//!   heat-reuse set-points, demand generator, QoS mix and dispatcher
//!   (`docs/SCENARIOS.md` is the schema reference and cookbook),
//! * [`Sweep`] — `sweep.<path> = [a, b, c]` axes expanded into a
//!   cartesian grid and executed across OS threads, reusing
//!   `tps-cluster`'s physics cache so a 50-point sweep over a 64-server
//!   fleet stays in the seconds range and is byte-deterministic,
//! * [`SweepReport`] — per-grid-point CSV plus a rendered Markdown
//!   summary with deltas against a named baseline grid point.
//!
//! The `tps sweep <spec.toml>` CLI subcommand and the shipped specs under
//! `scenarios/` drive everything here end to end.
//!
//! ```
//! use tps_scenario::Sweep;
//!
//! // A tiny inline spec: 2 racks × 2 servers on a coarse thermal grid,
//! // sweeping the heat-reuse set-point across two values.
//! let sweep = Sweep::parse(
//!     "
//!     [fleet]
//!     racks = 2
//!     servers_per_rack = 2
//!     grid_pitch_mm = 3.0
//!     [workload]
//!     jobs = 12
//!     demand = \"constant\"
//!     rate = 1.0
//!     [sweep]
//!     cooling.heat_reuse_c = [45.0, 70.0]
//!     ",
//!     "doctest",
//! )
//! .unwrap();
//! let report = sweep.run(2).unwrap();
//! assert_eq!(report.rows.len(), 2);
//! // Rejecting heat into a hotter reuse loop costs more compressor lift.
//! assert!(report.rows[0].cooling_kwh <= report.rows[1].cooling_kwh);
//! assert!(report.to_csv().lines().count() == 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod spec;
mod sweep;
pub mod toml;

pub use report::{ClassRow, ServingRow, SweepReport, SweepRow};
pub use spec::{
    policy_from_name, ClassSpec, ControlKind, DemandKind, DispatcherKind, Scenario, ServingSpec,
    SpecError, TelemetrySpec, GRID_PITCH_MM, KERNEL_INDEX_MAX,
};
pub use sweep::{Axis, Sweep, SweepError};
