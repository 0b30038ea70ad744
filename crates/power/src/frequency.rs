//! DVFS operating points of the target Xeon E5 v4.

use tps_units::{GigaHertz, Volts};

/// The three core-domain frequency levels the paper evaluates
/// (Sec. IV-C1: "we consider three frequency levels: 2.6, 2.9, and 3.2 GHz").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoreFrequency {
    /// 2.6 GHz — the lowest level meeting any paper QoS target.
    F2_6,
    /// 2.9 GHz.
    F2_9,
    /// 3.2 GHz — `f_max` of the target CPU.
    F3_2,
}

impl CoreFrequency {
    /// All levels, ascending.
    pub const ALL: [CoreFrequency; 3] = [
        CoreFrequency::F2_6,
        CoreFrequency::F2_9,
        CoreFrequency::F3_2,
    ];

    /// The maximum frequency (`f_max`).
    pub const MAX: CoreFrequency = CoreFrequency::F3_2;

    /// The clock frequency.
    pub fn ghz(self) -> GigaHertz {
        match self {
            CoreFrequency::F2_6 => GigaHertz::new(2.6),
            CoreFrequency::F2_9 => GigaHertz::new(2.9),
            CoreFrequency::F3_2 => GigaHertz::new(3.2),
        }
    }

    /// The core supply voltage at this operating point (approximate
    /// Broadwell-EP V/f curve; used only through the relative
    /// [`CoreFrequency::dvfs_scale`]).
    pub(crate) fn voltage(self) -> Volts {
        match self {
            CoreFrequency::F2_6 => Volts::new(0.95),
            CoreFrequency::F2_9 => Volts::new(1.05),
            CoreFrequency::F3_2 => Volts::new(1.15),
        }
    }

    /// Dynamic-power scale relative to `f_max`: `(f·V²) / (f_max·V_max²)`.
    pub(crate) fn dvfs_scale(self) -> f64 {
        let fv2 = |f: CoreFrequency| f.ghz().value() * f.voltage().value().powi(2);
        fv2(self) / fv2(CoreFrequency::MAX)
    }

    /// The next lower level, if any (used by the runtime DVFS controller).
    pub fn lower(self) -> Option<CoreFrequency> {
        match self {
            CoreFrequency::F2_6 => None,
            CoreFrequency::F2_9 => Some(CoreFrequency::F2_6),
            CoreFrequency::F3_2 => Some(CoreFrequency::F2_9),
        }
    }

    /// The next higher level, if any.
    pub fn higher(self) -> Option<CoreFrequency> {
        match self {
            CoreFrequency::F2_6 => Some(CoreFrequency::F2_9),
            CoreFrequency::F2_9 => Some(CoreFrequency::F3_2),
            CoreFrequency::F3_2 => None,
        }
    }
}

impl core::fmt::Display for CoreFrequency {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.1} GHz", self.ghz().value())
    }
}

/// An uncore-domain frequency, clamped to the paper's 1.2–2.8 GHz range.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct UncoreFrequency(GigaHertz);

impl UncoreFrequency {
    /// Lowest uncore frequency (1.2 GHz).
    pub const MIN_GHZ: f64 = 1.2;
    /// Highest uncore frequency (2.8 GHz).
    pub const MAX_GHZ: f64 = 2.8;

    /// Creates an uncore frequency, clamping into `[1.2, 2.8]` GHz.
    pub fn new(ghz: GigaHertz) -> Self {
        Self(GigaHertz::new(
            ghz.value().clamp(Self::MIN_GHZ, Self::MAX_GHZ),
        ))
    }

    /// The lowest operating point.
    pub(crate) fn min() -> Self {
        Self(GigaHertz::new(Self::MIN_GHZ))
    }

    /// The highest operating point.
    pub(crate) fn max() -> Self {
        Self(GigaHertz::new(Self::MAX_GHZ))
    }

    /// Position of this frequency within the range, in `[0, 1]`.
    pub(crate) fn range_fraction(self) -> f64 {
        (self.0.value() - Self::MIN_GHZ) / (Self::MAX_GHZ - Self::MIN_GHZ)
    }
}

impl Default for UncoreFrequency {
    fn default() -> Self {
        Self::max()
    }
}

impl core::fmt::Display for UncoreFrequency {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "uncore {:.1} GHz", self.0.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvfs_scale_is_monotonic_and_normalised() {
        let s: Vec<f64> = CoreFrequency::ALL.iter().map(|f| f.dvfs_scale()).collect();
        assert!(s[0] < s[1] && s[1] < s[2]);
        assert_eq!(s[2], 1.0);
        // f·V² at 2.6 GHz/0.95 V is ≈ 55 % of the 3.2 GHz/1.15 V point.
        assert!((s[0] - 0.554).abs() < 0.01);
    }

    #[test]
    fn lower_higher_walk() {
        assert_eq!(CoreFrequency::F3_2.lower(), Some(CoreFrequency::F2_9));
        assert_eq!(CoreFrequency::F2_6.lower(), None);
        assert_eq!(CoreFrequency::F2_6.higher(), Some(CoreFrequency::F2_9));
        assert_eq!(CoreFrequency::F3_2.higher(), None);
    }

    #[test]
    fn uncore_clamps() {
        assert_eq!(UncoreFrequency::new(GigaHertz::new(5.0)).0.value(), 2.8);
        assert_eq!(UncoreFrequency::new(GigaHertz::new(0.5)).0.value(), 1.2);
        assert_eq!(UncoreFrequency::min().range_fraction(), 0.0);
        assert_eq!(UncoreFrequency::max().range_fraction(), 1.0);
    }

    #[test]
    fn display() {
        assert_eq!(CoreFrequency::F2_9.to_string(), "2.9 GHz");
        assert_eq!(UncoreFrequency::min().to_string(), "uncore 1.2 GHz");
    }
}
