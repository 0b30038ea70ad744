//! A simulated RAPL (running average power limit) energy-counter interface.
//!
//! The paper measures power through RAPL (Sec. IV-C). Our substitute exposes
//! the same *shape* of interface — monotonically increasing energy counters
//! per domain, sampled over time — so that control code written against it
//! would port to a real `/sys/class/powercap` backend unchanged.

use tps_units::{Seconds, Watts};

/// A RAPL energy domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaplDomain {
    /// Whole package (cores + uncore).
    Package,
    /// Core region only (PP0).
    Cores,
    /// Uncore region (derived: package − cores).
    Uncore,
}

/// Accumulating energy counters fed by the simulation loop.
///
/// ```
/// use tps_power::{RaplCounter, RaplDomain};
/// use tps_units::{Seconds, Watts};
///
/// let mut rapl = RaplCounter::new();
/// rapl.advance(Seconds::new(2.0), Watts::new(50.0), Watts::new(35.0));
/// assert_eq!(rapl.average_power(RaplDomain::Package), Watts::new(50.0));
/// assert_eq!(rapl.average_power(RaplDomain::Uncore), Watts::new(15.0));
/// assert_eq!(rapl.average_power(RaplDomain::Cores), Watts::new(35.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RaplCounter {
    elapsed_s: f64,
    pkg_j: f64,
    cores_j: f64,
}

impl RaplCounter {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the counters by `dt` at the given package and core powers.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or core power exceeds package power.
    pub fn advance(&mut self, dt: Seconds, package: Watts, cores: Watts) {
        assert!(dt.value() >= 0.0, "time must not run backwards");
        assert!(
            cores.value() <= package.value() + 1e-9,
            "core power {cores} exceeds package power {package}"
        );
        self.elapsed_s += dt.value();
        self.pkg_j += package.value() * dt.value();
        self.cores_j += cores.value() * dt.value();
    }

    /// Accumulated energy of a domain, in joules.
    pub(crate) fn energy_joules(&self, domain: RaplDomain) -> f64 {
        match domain {
            RaplDomain::Package => self.pkg_j,
            RaplDomain::Cores => self.cores_j,
            RaplDomain::Uncore => self.pkg_j - self.cores_j,
        }
    }

    /// Lifetime average power of a domain (zero if no time has elapsed).
    pub fn average_power(&self, domain: RaplDomain) -> Watts {
        if self.elapsed_s == 0.0 {
            Watts::ZERO
        } else {
            Watts::new(self.energy_joules(domain) / self.elapsed_s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let mut r = RaplCounter::new();
        r.advance(Seconds::new(1.0), Watts::new(40.0), Watts::new(30.0));
        let e1 = r.energy_joules(RaplDomain::Package);
        r.advance(Seconds::new(1.0), Watts::new(40.0), Watts::new(30.0));
        assert!(r.energy_joules(RaplDomain::Package) > e1);
        assert_eq!(r.elapsed_s, 2.0);
    }

    #[test]
    #[should_panic(expected = "exceeds package power")]
    fn cores_cannot_exceed_package() {
        RaplCounter::new().advance(Seconds::new(1.0), Watts::new(10.0), Watts::new(20.0));
    }

    #[test]
    fn zero_time_average_is_zero() {
        assert_eq!(
            RaplCounter::new().average_power(RaplDomain::Package),
            Watts::ZERO
        );
    }
}
