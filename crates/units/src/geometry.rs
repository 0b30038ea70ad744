//! Lengths, areas and volumes.

quantity! {
    /// A length in metres.
    ///
    /// Die and package dimensions are naturally millimetres; use
    /// [`Meters::from_mm`] at the boundary and stay in SI internally.
    ///
    /// ```
    /// use tps_units::Meters;
    /// let die_width = Meters::from_mm(18.0);
    /// assert!((die_width.to_mm() - 18.0).abs() < 1e-12);
    /// ```
    Meters, "m"
}

quantity! {
    /// An area in square metres.
    SquareMeters, "m²"
}

quantity! {
    /// A volume in cubic metres.
    CubicMeters, "m³"
}

impl Meters {
    /// Creates a length from millimetres.
    #[inline]
    pub const fn from_mm(mm: f64) -> Self {
        Self::new(mm * 1e-3)
    }

    /// Returns the length in millimetres.
    #[inline]
    pub fn to_mm(self) -> f64 {
        self.value() * 1e3
    }
}

impl SquareMeters {
    /// Returns the area in square millimetres.
    #[inline]
    pub fn to_mm2(self) -> f64 {
        self.value() * 1e6
    }
}

impl core::ops::Mul for Meters {
    type Output = SquareMeters;
    #[inline]
    fn mul(self, rhs: Meters) -> SquareMeters {
        SquareMeters::new(self.value() * rhs.value())
    }
}

impl core::ops::Mul<Meters> for SquareMeters {
    type Output = CubicMeters;
    #[inline]
    fn mul(self, rhs: Meters) -> CubicMeters {
        CubicMeters::new(self.value() * rhs.value())
    }
}

impl core::ops::Div<Meters> for SquareMeters {
    type Output = Meters;
    #[inline]
    fn div(self, rhs: Meters) -> Meters {
        Meters::new(self.value() / rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm_round_trip() {
        let l = Meters::from_mm(13.67);
        assert!((l.to_mm() - 13.67).abs() < 1e-12);
        assert!((l.value() - 0.01367).abs() < 1e-15);
    }

    #[test]
    fn die_area_is_246_mm2() {
        // The paper's Broadwell-EP die: 246 mm².
        let area = Meters::from_mm(18.0) * Meters::from_mm(13.67);
        assert!((area.to_mm2() - 246.06).abs() < 0.01);
    }

    #[test]
    fn area_length_algebra() {
        let a = SquareMeters::new(100e-6);
        let l = Meters::from_mm(10.0);
        assert!(((a / l).to_mm() - 10.0).abs() < 1e-9);
        assert!(((a * l).value() - 1e-6).abs() < 1e-15);
    }
}
