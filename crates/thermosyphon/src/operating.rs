//! Runtime-adjustable operating parameters (Sec. VI-C).

use core::fmt;
use tps_units::{Celsius, KgPerHour, KgPerSecond};

/// The water-side operating point: inlet temperature (slow to change, set
/// per rack by the chiller) and flow rate (fast, set per thermosyphon by
/// the valve of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    water_flow: KgPerHour,
    water_inlet: Celsius,
}

impl OperatingPoint {
    /// Creates an operating point.
    ///
    /// # Panics
    ///
    /// Panics if the flow is non-positive or the inlet temperature is
    /// outside the 5–60 °C chiller envelope.
    pub fn new(water_flow: KgPerHour, water_inlet: Celsius) -> Self {
        assert!(water_flow.value() > 0.0, "water flow must be positive");
        assert!(
            (5.0..=60.0).contains(&water_inlet.value()),
            "water inlet {water_inlet} outside the 5..=60 °C envelope"
        );
        Self {
            water_flow,
            water_inlet,
        }
    }

    /// The paper's design point: 7 kg/h at 30 °C (Sec. VI-C).
    pub fn paper() -> Self {
        Self::new(KgPerHour::new(7.0), Celsius::new(30.0))
    }

    /// Water mass flow.
    pub fn water_flow(&self) -> KgPerHour {
        self.water_flow
    }

    /// Water mass flow in SI units.
    pub(crate) fn water_flow_si(&self) -> KgPerSecond {
        self.water_flow.into()
    }

    /// Water inlet temperature.
    pub fn water_inlet(&self) -> Celsius {
        self.water_inlet
    }

    /// This point with a different flow (same water temperature).
    pub fn with_flow(&self, water_flow: KgPerHour) -> Self {
        Self::new(water_flow, self.water_inlet)
    }

    /// This point with a different inlet temperature.
    pub fn with_inlet(&self, water_inlet: Celsius) -> Self {
        Self::new(self.water_flow, water_inlet)
    }
}

impl Default for OperatingPoint {
    fn default() -> Self {
        Self::paper()
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} kg/h water @ {:.1}",
            self.water_flow.value(),
            self.water_inlet
        )
    }
}

/// The flow-adjustment valve of the runtime controller (Fig. 4): discrete
/// flow levels, raised only on thermal emergencies.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowValve {
    levels: Vec<KgPerHour>,
    current: usize,
}

impl FlowValve {
    /// A valve over the given ascending flow levels, starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty, not strictly ascending, or `start` is
    /// out of range.
    pub(crate) fn new(levels: Vec<KgPerHour>, start: usize) -> Self {
        assert!(!levels.is_empty(), "valve needs at least one level");
        assert!(
            levels.windows(2).all(|w| w[0] < w[1]),
            "flow levels must be strictly ascending"
        );
        assert!(start < levels.len(), "start level out of range");
        Self {
            levels,
            current: start,
        }
    }

    /// The paper-calibrated valve: 7 → 14 kg/h in 5 steps, starting at the
    /// design point.
    pub fn paper() -> Self {
        Self::new(
            [7.0, 8.5, 10.0, 11.5, 13.0, 14.0]
                .into_iter()
                .map(KgPerHour::new)
                .collect(),
            0,
        )
    }

    /// The current flow level.
    pub fn flow(&self) -> KgPerHour {
        self.levels[self.current]
    }

    /// Opens the valve one step. Returns `false` if already fully open.
    pub fn increase(&mut self) -> bool {
        if self.current + 1 < self.levels.len() {
            self.current += 1;
            true
        } else {
            false
        }
    }

    /// Closes the valve one step. Returns `false` if already at minimum.
    pub fn decrease(&mut self) -> bool {
        if self.current > 0 {
            self.current -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point() {
        let op = OperatingPoint::paper();
        assert_eq!(op.water_flow(), KgPerHour::new(7.0));
        assert_eq!(op.water_inlet(), Celsius::new(30.0));
        assert!((op.water_flow_si().value() - 7.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "envelope")]
    fn inlet_validated() {
        let _ = OperatingPoint::new(KgPerHour::new(7.0), Celsius::new(90.0));
    }

    #[test]
    fn valve_walk() {
        let mut v = FlowValve::paper();
        assert_eq!(v.flow(), KgPerHour::new(7.0));
        assert!(v.increase());
        assert_eq!(v.flow(), KgPerHour::new(8.5));
        while v.increase() {}
        assert_eq!(v.current + 1, v.levels.len(), "valve fully open");
        assert_eq!(v.flow(), KgPerHour::new(14.0));
        assert!(!v.increase());
        assert!(v.decrease());
        assert_eq!(v.flow(), KgPerHour::new(13.0));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn valve_levels_must_ascend() {
        let _ = FlowValve::new(vec![KgPerHour::new(7.0), KgPerHour::new(7.0)], 0);
    }
}
