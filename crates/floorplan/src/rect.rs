//! Axis-aligned rectangles in package coordinates.

use tps_units::{Meters, SquareMeters};

/// An axis-aligned rectangle, anchored at its south-west (lower-left) corner.
///
/// Coordinates follow the paper's compass convention: `+x` points east
/// (towards the LLC side of the Xeon die), `+y` points north. All dimensions
/// are stored in metres.
///
/// ```
/// use tps_floorplan::Rect;
/// let r = Rect::from_mm(0.0, 0.0, 18.0, 13.67); // the Broadwell-EP die
/// assert!((r.width().to_mm() * r.height().to_mm() - 246.06).abs() < 0.01);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Rect {
    x: f64,
    y: f64,
    w: f64,
    h: f64,
}

impl Rect {
    /// Creates a rectangle from raw metre coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the width or height is negative or non-finite.
    pub fn from_m(x: f64, y: f64, w: f64, h: f64) -> Self {
        assert!(
            w >= 0.0 && h >= 0.0 && [x, y, w, h].iter().all(|v| v.is_finite()),
            "rectangle dimensions must be finite and non-negative: ({x}, {y}, {w}, {h})"
        );
        Self { x, y, w, h }
    }

    /// Creates a rectangle from millimetre coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the width or height is negative or non-finite.
    pub fn from_mm(x: f64, y: f64, w: f64, h: f64) -> Self {
        Self::from_m(x * 1e-3, y * 1e-3, w * 1e-3, h * 1e-3)
    }

    /// West (minimum-x) edge in metres.
    #[inline]
    pub fn x_min(&self) -> f64 {
        self.x
    }

    /// East (maximum-x) edge in metres.
    #[inline]
    pub(crate) fn x_max(&self) -> f64 {
        self.x + self.w
    }

    /// South (minimum-y) edge in metres.
    #[inline]
    pub fn y_min(&self) -> f64 {
        self.y
    }

    /// North (maximum-y) edge in metres.
    #[inline]
    pub(crate) fn y_max(&self) -> f64 {
        self.y + self.h
    }

    /// Width as a typed length.
    #[inline]
    pub fn width(&self) -> Meters {
        Meters::new(self.w)
    }

    /// Height as a typed length.
    #[inline]
    pub fn height(&self) -> Meters {
        Meters::new(self.h)
    }

    /// Area of the rectangle.
    #[inline]
    pub(crate) fn area(&self) -> SquareMeters {
        SquareMeters::new(self.w * self.h)
    }

    /// Geometric centre `(x, y)` in metres.
    #[inline]
    pub fn center(&self) -> (f64, f64) {
        (self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Returns `true` if the point `(px, py)` (metres) lies inside the
    /// rectangle (closed on the south/west edges, open on the north/east
    /// edges, so that a tiling of rectangles partitions the plane).
    pub fn contains(&self, px: f64, py: f64) -> bool {
        px >= self.x_min() && px < self.x_max() && py >= self.y_min() && py < self.y_max()
    }

    /// Returns `true` if the two rectangles overlap with positive area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.intersection_area(other).value() > 0.0
    }

    /// Area of the intersection of two rectangles (zero if disjoint).
    pub(crate) fn intersection_area(&self, other: &Rect) -> SquareMeters {
        let dx = self.x_max().min(other.x_max()) - self.x_min().max(other.x_min());
        let dy = self.y_max().min(other.y_max()) - self.y_min().max(other.y_min());
        if dx > 0.0 && dy > 0.0 {
            SquareMeters::new(dx * dy)
        } else {
            SquareMeters::ZERO
        }
    }

    /// Returns this rectangle translated by `(dx, dy)` metres.
    pub fn translated(&self, dx: f64, dy: f64) -> Rect {
        Rect {
            x: self.x + dx,
            y: self.y + dy,
            ..*self
        }
    }

    /// Returns `true` if `self` lies entirely within `outer`
    /// (with a small tolerance for floating-point tiling).
    pub fn within(&self, outer: &Rect) -> bool {
        const EPS: f64 = 1e-9;
        self.x_min() >= outer.x_min() - EPS
            && self.y_min() >= outer.y_min() - EPS
            && self.x_max() <= outer.x_max() + EPS
            && self.y_max() <= outer.y_max() + EPS
    }
}

impl core::fmt::Display for Rect {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[{:.2}..{:.2}] × [{:.2}..{:.2}] mm",
            self.x_min() * 1e3,
            self.x_max() * 1e3,
            self.y_min() * 1e3,
            self.y_max() * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_geometry() {
        let r = Rect::from_mm(1.0, 2.0, 3.0, 4.0);
        assert!((r.x_min() - 0.001).abs() < 1e-12);
        assert!((r.x_max() - 0.004).abs() < 1e-12);
        assert!((r.area().to_mm2() - 12.0).abs() < 1e-9);
        let (cx, cy) = r.center();
        assert!((cx - 0.0025).abs() < 1e-12);
        assert!((cy - 0.004).abs() < 1e-12);
    }

    #[test]
    fn containment_is_half_open() {
        let r = Rect::from_mm(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(0.0, 0.0));
        assert!(!r.contains(0.001, 0.0005));
        assert!(!r.contains(0.0005, 0.001));
    }

    #[test]
    fn intersection() {
        let a = Rect::from_mm(0.0, 0.0, 2.0, 2.0);
        let b = Rect::from_mm(1.0, 1.0, 2.0, 2.0);
        let c = Rect::from_mm(5.0, 5.0, 1.0, 1.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!((a.intersection_area(&b).to_mm2() - 1.0).abs() < 1e-9);
        assert_eq!(a.intersection_area(&c), SquareMeters::ZERO);
    }

    #[test]
    fn touching_rectangles_do_not_intersect() {
        let a = Rect::from_mm(0.0, 0.0, 1.0, 1.0);
        let b = Rect::from_mm(1.0, 0.0, 1.0, 1.0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn within_and_translate() {
        let outer = Rect::from_mm(0.0, 0.0, 10.0, 10.0);
        let inner = Rect::from_mm(1.0, 1.0, 2.0, 2.0);
        assert!(inner.within(&outer));
        assert!(!inner.translated(0.009, 0.0).within(&outer));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_width_panics() {
        let _ = Rect::from_mm(0.0, 0.0, -1.0, 1.0);
    }

    proptest! {
        #[test]
        fn intersection_is_commutative(
            ax in 0.0f64..10.0, ay in 0.0f64..10.0, aw in 0.0f64..10.0, ah in 0.0f64..10.0,
            bx in 0.0f64..10.0, by in 0.0f64..10.0, bw in 0.0f64..10.0, bh in 0.0f64..10.0,
        ) {
            let a = Rect::from_mm(ax, ay, aw, ah);
            let b = Rect::from_mm(bx, by, bw, bh);
            prop_assert!(
                (a.intersection_area(&b).value() - b.intersection_area(&a).value()).abs() < 1e-18
            );
        }

        #[test]
        fn intersection_bounded_by_min_area(
            ax in 0.0f64..10.0, ay in 0.0f64..10.0, aw in 0.1f64..10.0, ah in 0.1f64..10.0,
            bx in 0.0f64..10.0, by in 0.0f64..10.0, bw in 0.1f64..10.0, bh in 0.1f64..10.0,
        ) {
            let a = Rect::from_mm(ax, ay, aw, ah);
            let b = Rect::from_mm(bx, by, bw, bh);
            let i = a.intersection_area(&b).value();
            prop_assert!(i <= a.area().value().min(b.area().value()) + 1e-18);
            prop_assert!(i >= 0.0);
        }
    }
}
