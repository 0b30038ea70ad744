//! Durations.

quantity! {
    /// A duration in seconds.
    ///
    /// Execution times and C-state wake latencies.
    Seconds, "s"
}

impl Seconds {
    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_us(us: f64) -> Self {
        Self::new(us * 1e-6)
    }

    /// Returns the duration in microseconds.
    #[inline]
    pub fn to_us(self) -> f64 {
        self.value() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microseconds() {
        assert!((Seconds::from_us(10.0).value() - 1e-5).abs() < 1e-18);
        assert!((Seconds::new(2e-6).to_us() - 2.0).abs() < 1e-12);
    }
}
