//! Rack-level cooling power accounting (Sec. VIII-B of the paper).
//!
//! * [`eq1_cooling_power`] — the paper's Eq. 1, `P = V̇·ρ·C_w·ΔT`: the power
//!   carried by the water stream that the chiller must remove,
//! * [`Chiller`] — a Carnot-fraction chiller model turning that heat plus
//!   the supply temperature into *electrical* power (colder supply water ⇒
//!   lower COP ⇒ more electricity, the effect that penalizes the state of
//!   the art's 20 °C water),
//! * [`Rack`] — per-rack aggregation with the paper's constraint that all
//!   thermosyphons share one chiller water temperature (Sec. V),
//! * [`pue`] — power-usage-effectiveness accounting (the paper motivates
//!   thermosyphons with PUE 1.05 vs 1.48 air-cooled).
//!
//! The same building blocks scale up: `tps-cluster` instantiates one
//! [`Rack`] per fleet rack and one [`Chiller`] per scenario, and integrates
//! [`Rack::chiller_power`] over an event timeline to get fleet cooling
//! energy.
//!
//! ```
//! use tps_cooling::{pue, Chiller, Rack, ServerCoolingLoad};
//! use tps_units::{Celsius, KgPerHour, Watts};
//!
//! let mut rack = Rack::new();
//! rack.add_server(ServerCoolingLoad {
//!     heat: Watts::new(79.0),
//!     max_water_temp: Celsius::new(64.0),
//!     flow: KgPerHour::new(7.0),
//! });
//! // A heat-recovery condenser loop at 60 °C: the chiller must lift the
//! // rack heat up to the reuse temperature unless the rack tolerates
//! // warmer water than the loop provides.
//! let reuse = Chiller::new(Celsius::new(60.0));
//! let electrical = rack.chiller_power(&reuse);
//! assert!(electrical > Watts::ZERO);
//! assert!(pue(Watts::new(79.0), electrical) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chiller;
mod pue;
mod rack;

pub use chiller::{eq1_cooling_power, water_loop_heat, Chiller};
pub use pue::pue;
pub use rack::{Rack, ServerCoolingLoad};
