//! Rack-level aggregation: one chiller, many thermosyphons.
//!
//! ```
//! use tps_cooling::{Chiller, Rack, ServerCoolingLoad};
//! use tps_units::{Celsius, KgPerHour, Watts};
//!
//! // Two well-mapped servers and one whose mapping demands colder water.
//! let mut rack = Rack::new();
//! for max_water in [64.0, 75.0, 77.0] {
//!     rack.add_server(ServerCoolingLoad {
//!         heat: Watts::new(70.0),
//!         max_water_temp: Celsius::new(max_water),
//!         flow: KgPerHour::new(7.0),
//!     });
//! }
//! // The shared loop must satisfy the worst server…
//! assert_eq!(rack.shared_water_temperature(), Some(Celsius::new(64.0)));
//! // …and every watt of the rack is chilled at that supply temperature.
//! let chiller = Chiller::new(Celsius::new(60.0));
//! assert!(rack.chiller_power(&chiller) > Watts::ZERO);
//! ```

use crate::chiller::Chiller;
use tps_units::{Celsius, KgPerHour, TempDelta, Watts};

/// The cooling demand of one server in the rack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCoolingLoad {
    /// Heat the server's thermosyphon rejects into the water loop.
    pub heat: Watts,
    /// The warmest water this server can tolerate while meeting its
    /// `T_CASE` constraint.
    pub max_water_temp: Celsius,
    /// The server's water flow (valve position).
    pub flow: KgPerHour,
}

/// A rack: several thermosyphon-cooled servers sharing one chiller loop.
///
/// Sec. V: "one water cooling system (chiller) per rack is used. Therefore,
/// all thermosyphons should work with the same water temperature" — the
/// rack must run at the *coldest* per-server requirement, so one badly
/// mapped server drags the whole rack's chiller efficiency down.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rack {
    servers: Vec<ServerCoolingLoad>,
}

impl Rack {
    /// An empty rack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a server's cooling demand.
    pub fn add_server(&mut self, load: ServerCoolingLoad) -> &mut Self {
        self.servers.push(load);
        self
    }

    /// Total heat into the rack's water loop.
    pub fn total_heat(&self) -> Watts {
        self.servers.iter().map(|s| s.heat).sum()
    }

    /// The shared supply temperature: the minimum of the per-server maxima.
    ///
    /// Returns `None` for an empty rack.
    pub fn shared_water_temperature(&self) -> Option<Celsius> {
        self.servers
            .iter()
            .map(|s| s.max_water_temp)
            .reduce(Celsius::min)
    }

    /// Total water flow through the rack manifold.
    pub(crate) fn total_flow(&self) -> KgPerHour {
        self.servers.iter().map(|s| s.flow).sum()
    }

    /// Mean water temperature rise across the rack, from the energy balance
    /// `ΔT = Q / (ṁ·c_p)`.
    pub fn water_delta_t(&self) -> TempDelta {
        let c = tps_units::KgPerSecond::from(self.total_flow()).capacity_rate(
            tps_fluids::Water::specific_heat(
                self.shared_water_temperature()
                    .unwrap_or(Celsius::new(25.0)),
            ),
        );
        if c.value() <= 0.0 {
            return TempDelta::ZERO;
        }
        self.total_heat() / c
    }

    /// Chiller electrical power for this rack.
    ///
    /// Returns zero for an empty rack.
    pub fn chiller_power(&self, chiller: &Chiller) -> Watts {
        match self.shared_water_temperature() {
            Some(t) => chiller.electrical_power(self.total_heat(), t),
            None => Watts::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(heat: f64, t: f64) -> ServerCoolingLoad {
        ServerCoolingLoad {
            heat: Watts::new(heat),
            max_water_temp: Celsius::new(t),
            flow: KgPerHour::new(7.0),
        }
    }

    #[test]
    fn empty_rack() {
        let r = Rack::new();
        assert_eq!(r.total_heat(), Watts::ZERO);
        assert!(r.shared_water_temperature().is_none());
        assert_eq!(r.chiller_power(&Chiller::default()), Watts::ZERO);
    }

    #[test]
    fn worst_server_sets_the_water_temperature() {
        let mut r = Rack::new();
        r.add_server(load(60.0, 30.0))
            .add_server(load(70.0, 22.0))
            .add_server(load(50.0, 30.0));
        assert_eq!(r.shared_water_temperature(), Some(Celsius::new(22.0)));
        assert_eq!(r.total_heat(), Watts::new(180.0));
        assert_eq!(r.total_flow(), KgPerHour::new(21.0));
    }

    #[test]
    fn one_bad_server_raises_rack_chiller_power() {
        let chiller = Chiller::default();
        let mut good = Rack::new();
        for _ in 0..4 {
            good.add_server(load(60.0, 30.0));
        }
        let mut mixed = Rack::new();
        for _ in 0..3 {
            mixed.add_server(load(60.0, 30.0));
        }
        mixed.add_server(load(60.0, 20.0)); // badly mapped server
        assert!(mixed.chiller_power(&chiller) > good.chiller_power(&chiller) * 2.0);
    }

    #[test]
    fn delta_t_energy_balance() {
        let mut r = Rack::new();
        r.add_server(load(48.8, 30.0));
        // 7 kg/h, 48.8 W ⇒ ≈ 6 K (the paper's proposed-approach numbers).
        assert!((r.water_delta_t().value() - 6.0).abs() < 0.05);
    }
}
