//! Typed physical quantities for the TPS (two-phase-cooling scheduling) simulator.
//!
//! Every quantity is a thin `f64` newtype ([C-NEWTYPE]) so that a heat flux can
//! never be confused with a heat-transfer coefficient and a Celsius temperature
//! can never be added to another temperature. Quantities implement the common
//! traits ([C-COMMON-TRAITS]) and only the physically meaningful arithmetic:
//!
//! ```
//! use tps_units::{Celsius, HeatFlux, HeatTransferCoeff, SquareMeters, Watts};
//!
//! let power = Watts::new(79.3);
//! let area = SquareMeters::new(246.0e-6);
//! let flux: HeatFlux = power / area;
//! let htc = HeatTransferCoeff::new(12_000.0);
//! let superheat = flux / htc; // a temperature *delta*, not a temperature
//! let wall = Celsius::new(36.0) + superheat;
//! assert!(wall > Celsius::new(36.0));
//! ```
//!
//! The crate is `#![forbid(unsafe_code)]` and has no dependencies.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html
//! [C-COMMON-TRAITS]: https://rust-lang.github.io/api-guidelines/interoperability.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
mod quantity;

mod flow;
mod fraction;
mod frequency;
mod geometry;
mod heat;
mod matter;
mod power;
mod temperature;
mod time;

pub use flow::{KgPerHour, KgPerSecond, VolumetricFlow};
pub use fraction::{Fraction, FractionError};
pub use frequency::GigaHertz;
pub use geometry::{CubicMeters, Meters, SquareMeters};
pub use heat::{
    HeatFlux, HeatTransferCoeff, JoulesPerKg, SpecificHeat, ThermalConductivity, WattsPerKelvin,
};
pub use matter::{Density, DynamicViscosity, Kilograms, Pascals};
pub use power::{Joules, Volts, Watts};
pub use temperature::{Celsius, Kelvin, TempDelta};
pub use time::Seconds;
