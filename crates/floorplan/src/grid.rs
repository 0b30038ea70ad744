//! Regular simulation grids and scalar fields defined on them.

use crate::rect::Rect;

/// A regular `nx × ny` grid of rectangular cells tiling a [`Rect`].
///
/// Grids are the common currency between the power model (power per cell),
/// the thermal solver (temperature per cell per layer) and the thermosyphon
/// evaporator (heat-transfer coefficient per cell).
///
/// ```
/// use tps_floorplan::{GridSpec, Rect};
/// let grid = GridSpec::new(36, 32, Rect::from_mm(0.0, 0.0, 36.0, 32.0));
/// assert_eq!(grid.n_cells(), 36 * 32);
/// assert!((grid.cell_w() - 0.001).abs() < 1e-12); // 1 mm cells
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    nx: usize,
    ny: usize,
    extent: Rect,
}

/// A cell coordinate on a [`GridSpec`]: `ix` counts east, `iy` counts north.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellIndex {
    /// Column (x / east) index, `0..nx`.
    pub ix: usize,
    /// Row (y / north) index, `0..ny`.
    pub iy: usize,
}

impl GridSpec {
    /// Creates a grid of `nx × ny` cells over `extent`.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero or the extent is degenerate.
    pub fn new(nx: usize, ny: usize, extent: Rect) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have at least one cell");
        assert!(
            extent.area().value() > 0.0,
            "grid extent must have positive area"
        );
        Self { nx, ny, extent }
    }

    /// Creates a grid over `extent` with approximately square cells of the
    /// given pitch (in metres). Cell counts are rounded up so that the pitch
    /// is an upper bound.
    pub fn with_pitch(extent: Rect, pitch_m: f64) -> Self {
        assert!(pitch_m > 0.0, "pitch must be positive");
        let nx = (extent.width().value() / pitch_m).ceil().max(1.0) as usize;
        let ny = (extent.height().value() / pitch_m).ceil().max(1.0) as usize;
        Self::new(nx, ny, extent)
    }

    /// Number of columns.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of rows.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of cells.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// The rectangle tiled by this grid.
    #[inline]
    pub fn extent(&self) -> &Rect {
        &self.extent
    }

    /// Cell width (east–west) in metres.
    #[inline]
    pub fn cell_w(&self) -> f64 {
        self.extent.width().value() / self.nx as f64
    }

    /// Cell height (north–south) in metres.
    #[inline]
    pub fn cell_h(&self) -> f64 {
        self.extent.height().value() / self.ny as f64
    }

    /// Cell area in m².
    #[inline]
    pub fn cell_area(&self) -> f64 {
        self.cell_w() * self.cell_h()
    }

    /// Flat index of a cell (row-major, `iy * nx + ix`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinate is out of range.
    #[inline]
    pub fn idx(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(
            ix < self.nx && iy < self.ny,
            "cell ({ix},{iy}) out of range"
        );
        iy * self.nx + ix
    }

    /// The cell's covering rectangle.
    pub fn cell_rect(&self, ix: usize, iy: usize) -> Rect {
        let w = self.cell_w();
        let h = self.cell_h();
        Rect::from_m(
            self.extent.x_min() + ix as f64 * w,
            self.extent.y_min() + iy as f64 * h,
            w,
            h,
        )
    }

    /// The cell's centre `(x, y)` in metres.
    pub fn cell_center(&self, ix: usize, iy: usize) -> (f64, f64) {
        let w = self.cell_w();
        let h = self.cell_h();
        (
            self.extent.x_min() + (ix as f64 + 0.5) * w,
            self.extent.y_min() + (iy as f64 + 0.5) * h,
        )
    }

    /// The cell containing the point `(x, y)` in metres, if inside the extent.
    pub fn cell_at(&self, x: f64, y: f64) -> Option<CellIndex> {
        if !self.extent.contains(x, y) {
            return None;
        }
        let ix = ((x - self.extent.x_min()) / self.cell_w()) as usize;
        let iy = ((y - self.extent.y_min()) / self.cell_h()) as usize;
        Some(CellIndex {
            ix: ix.min(self.nx - 1),
            iy: iy.min(self.ny - 1),
        })
    }

    /// The inclusive-exclusive range of cell columns/rows overlapping `rect`.
    ///
    /// Returns `(ix_range, iy_range)`; empty ranges if disjoint.
    pub fn cell_span(&self, rect: &Rect) -> (core::ops::Range<usize>, core::ops::Range<usize>) {
        let w = self.cell_w();
        let h = self.cell_h();
        let x0 = ((rect.x_min() - self.extent.x_min()) / w).floor().max(0.0) as usize;
        let y0 = ((rect.y_min() - self.extent.y_min()) / h).floor().max(0.0) as usize;
        let x1 = (((rect.x_max() - self.extent.x_min()) / w).ceil() as usize).min(self.nx);
        let y1 = (((rect.y_max() - self.extent.y_min()) / h).ceil() as usize).min(self.ny);
        (x0..x1.max(x0), y0..y1.max(y0))
    }
}

/// An `f64` value per cell of a [`GridSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarField {
    spec: GridSpec,
    data: Vec<f64>,
}

impl ScalarField {
    /// Creates a field filled with a constant value.
    pub fn filled(spec: GridSpec, value: f64) -> Self {
        let n = spec.n_cells();
        Self {
            spec,
            data: vec![value; n],
        }
    }

    /// Creates an all-zero field.
    pub fn zeros(spec: GridSpec) -> Self {
        Self::filled(spec, 0.0)
    }

    /// Creates a field by evaluating `f` at each cell centre.
    pub fn from_fn(spec: GridSpec, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        let mut data = Vec::with_capacity(spec.n_cells());
        for iy in 0..spec.ny() {
            for ix in 0..spec.nx() {
                let (x, y) = spec.cell_center(ix, iy);
                data.push(f(x, y));
            }
        }
        Self { spec, data }
    }

    /// The field's grid.
    #[inline]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Value at cell `(ix, iy)`.
    #[inline]
    pub fn at(&self, ix: usize, iy: usize) -> f64 {
        self.data[self.spec.idx(ix, iy)]
    }

    /// Sets the value at cell `(ix, iy)`.
    #[inline]
    pub fn set(&mut self, ix: usize, iy: usize, value: f64) {
        let i = self.spec.idx(ix, iy);
        self.data[i] = value;
    }

    /// Adds `value` to cell `(ix, iy)`.
    #[inline]
    pub(crate) fn add(&mut self, ix: usize, iy: usize, value: f64) {
        let i = self.spec.idx(ix, iy);
        self.data[i] += value;
    }

    /// Raw values in flat-index order.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw values in flat-index order.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Maximum value (NaN-safe; `-inf` for an empty field is impossible since
    /// grids are non-empty).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum value.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Mean value over all cells (cells are uniform, so this is the
    /// area-weighted mean).
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Sum of all cell values.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum over the cells whose centres lie within `rect`.
    ///
    /// Returns `None` if no cell centre falls inside.
    pub fn max_in_rect(&self, rect: &Rect) -> Option<f64> {
        self.reduce_in_rect(rect, f64::NEG_INFINITY, f64::max)
    }

    /// Mean over the cells whose centres lie within `rect`.
    pub fn mean_in_rect(&self, rect: &Rect) -> Option<f64> {
        let mut n = 0usize;
        let mut sum = 0.0;
        self.for_each_in_rect(rect, |v| {
            n += 1;
            sum += v;
        });
        (n > 0).then(|| sum / n as f64)
    }

    fn reduce_in_rect(&self, rect: &Rect, init: f64, f: impl Fn(f64, f64) -> f64) -> Option<f64> {
        let mut any = false;
        let mut acc = init;
        self.for_each_in_rect(rect, |v| {
            any = true;
            acc = f(acc, v);
        });
        any.then_some(acc)
    }

    fn for_each_in_rect(&self, rect: &Rect, mut f: impl FnMut(f64)) {
        let (xs, ys) = self.spec.cell_span(rect);
        for iy in ys {
            for ix in xs.clone() {
                let (cx, cy) = self.spec.cell_center(ix, iy);
                if rect.contains(cx, cy) {
                    f(self.at(ix, iy));
                }
            }
        }
    }

    /// Multiplies every value by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Largest absolute element-wise difference to another field.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ.
    pub fn max_abs_diff(&self, other: &ScalarField) -> f64 {
        assert_eq!(
            self.spec, other.spec,
            "cannot compare fields on different grids"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Spreads `total` over the cells of `field` proportionally to their overlap
/// with `rect` (conservative: the field gains exactly `total` as long as the
/// rectangle lies within the grid).
///
/// Places each floorplan block's power on the grid, and sub-block
/// structures such as a core's execution-cluster hot spot.
pub fn rasterize_rect(field: &mut ScalarField, rect: &Rect, total: f64) {
    let grid = field.spec().clone();
    let area = rect.area().value();
    if area <= 0.0 || total == 0.0 {
        return;
    }
    let (xs, ys) = grid.cell_span(rect);
    for iy in ys {
        for ix in xs.clone() {
            let overlap = grid.cell_rect(ix, iy).intersection_area(rect).value();
            if overlap > 0.0 {
                field.add(ix, iy, total * overlap / area);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_10x10_mm() -> GridSpec {
        GridSpec::new(10, 10, Rect::from_mm(0.0, 0.0, 10.0, 10.0))
    }

    #[test]
    fn index_round_trip() {
        let g = grid_10x10_mm();
        assert_eq!(g.idx(3, 4), 43);
        let c = g.cell_at(0.0035, 0.0045).unwrap();
        assert_eq!((c.ix, c.iy), (3, 4));
        assert!(g.cell_at(0.0105, 0.0).is_none());
    }

    #[test]
    fn cell_geometry() {
        let g = grid_10x10_mm();
        let r = g.cell_rect(2, 3);
        assert!((r.x_min() - 0.002).abs() < 1e-12);
        assert!((r.y_min() - 0.003).abs() < 1e-12);
        let (cx, cy) = g.cell_center(2, 3);
        assert!((cx - 0.0025).abs() < 1e-12);
        assert!((cy - 0.0035).abs() < 1e-12);
        assert!((g.cell_area() - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn with_pitch_rounds_up() {
        let g = GridSpec::with_pitch(Rect::from_mm(0.0, 0.0, 10.0, 5.0), 0.0011);
        assert!(g.nx() >= 10 / 2 && g.cell_w() <= 0.0011 + 1e-12);
        assert!(g.cell_h() <= 0.0011 + 1e-12);
    }

    #[test]
    fn field_statistics() {
        let g = grid_10x10_mm();
        let f = ScalarField::from_fn(g, |x, _| x * 1000.0);
        assert!((f.min() - 0.5).abs() < 1e-9);
        assert!((f.max() - 9.5).abs() < 1e-9);
        assert!((f.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rect_statistics() {
        let g = grid_10x10_mm();
        let f = ScalarField::from_fn(g, |x, y| x * 1000.0 + y * 1000.0);
        let west = Rect::from_mm(0.0, 0.0, 5.0, 10.0);
        let east = Rect::from_mm(5.0, 0.0, 5.0, 10.0);
        assert!(f.mean_in_rect(&west).unwrap() < f.mean_in_rect(&east).unwrap());
        assert!(f.max_in_rect(&east).unwrap() > f.max_in_rect(&west).unwrap());
        assert!(f
            .mean_in_rect(&Rect::from_mm(20.0, 20.0, 1.0, 1.0))
            .is_none());
    }

    #[test]
    fn scale_and_max_abs_diff() {
        let g = grid_10x10_mm();
        let mut a = ScalarField::filled(g.clone(), 3.0);
        let b = ScalarField::filled(g, 2.0);
        a.scale(2.0);
        assert_eq!(a.at(0, 0), 6.0);
        assert_eq!(a.max_abs_diff(&b), 4.0);
    }

    #[test]
    #[should_panic(expected = "different grids")]
    fn max_abs_diff_rejects_mismatched_grids() {
        let a = ScalarField::zeros(grid_10x10_mm());
        let b = ScalarField::zeros(GridSpec::new(5, 5, Rect::from_mm(0.0, 0.0, 10.0, 10.0)));
        a.max_abs_diff(&b);
    }

    #[test]
    fn rasterize_conserves_total() {
        let grid = GridSpec::new(7, 9, Rect::from_mm(0.0, 0.0, 10.0, 10.0));
        let mut f = ScalarField::zeros(grid);
        rasterize_rect(&mut f, &Rect::from_mm(0.5, 0.5, 4.0, 4.0), 10.0);
        rasterize_rect(&mut f, &Rect::from_mm(5.0, 5.0, 4.5, 4.5), 5.0);
        assert!((f.total() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn rasterize_respects_offset() {
        let grid = GridSpec::new(10, 10, Rect::from_mm(0.0, 0.0, 10.0, 10.0));
        let mut f = ScalarField::zeros(grid);
        // Shift a 2×2 mm block to the middle of the 10×10 mm grid.
        let block = Rect::from_mm(0.0, 0.0, 2.0, 2.0).translated(4e-3, 4e-3);
        rasterize_rect(&mut f, &block, 1.0);
        assert!((f.total() - 1.0).abs() < 1e-9);
        assert_eq!(f.at(0, 0), 0.0);
        assert!(f.at(4, 4) > 0.0);
    }

    proptest! {
        #[test]
        fn rasterize_is_conservative(
            bx in 0.0f64..6.0, by in 0.0f64..6.0,
            bw in 0.5f64..4.0, bh in 0.5f64..4.0,
            nx in 3usize..20, ny in 3usize..20,
            value in 0.1f64..100.0,
        ) {
            let grid = GridSpec::new(nx, ny, Rect::from_mm(0.0, 0.0, 10.0, 10.0));
            let mut f = ScalarField::zeros(grid);
            rasterize_rect(&mut f, &Rect::from_mm(bx, by, bw, bh), value);
            prop_assert!((f.total() - value).abs() < 1e-9 * value.max(1.0));
            prop_assert!(f.min() >= 0.0);
        }
    }
}
