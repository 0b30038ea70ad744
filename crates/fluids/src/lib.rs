//! Thermophysical properties and heat-transfer correlations for the
//! thermosyphon's working fluids.
//!
//! The paper charges its thermosyphon with **R236fa at a 55 % filling ratio**
//! (Sec. VI-B) and condenses against a water loop. This crate provides:
//!
//! * [`Refrigerant`] — saturation curve (Antoine), latent heat (Watson),
//!   phase densities, liquid transport properties for R236fa and the two
//!   alternatives explored by the design optimizer (R134a, R245fa),
//! * [`Water`] — liquid-water properties for the condenser/chiller loop,
//! * [`correlations`] — Cooper pool boiling, flow-boiling enhancement with
//!   dryout, Lockhart–Martinelli two-phase friction and the homogeneous void
//!   fraction.
//!
//! Property fits are anchored to tabulated data at 0–50 °C (the operating
//! envelope of a 20–35 °C water loop) and documented per method; they are
//! deliberately low-order — the goal is faithful *shape*, not REFPROP
//! accuracy (ARCHITECTURE.md §4).
//!
//! ```
//! use tps_fluids::Refrigerant;
//! use tps_units::Pascals;
//!
//! let r = Refrigerant::R236fa;
//! let t = r.saturation_temperature(Pascals::from_kpa(272.0));
//! assert!((t.value() - 25.0).abs() < 1.5); // ≈ 2.7 bar at 25 °C
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlations;
mod refrigerant;
mod water;

pub use refrigerant::Refrigerant;
pub use water::Water;
