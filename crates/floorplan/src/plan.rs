//! The validated floorplan container and its builder.

use crate::block::{Block, BlockId, ComponentKind};
use crate::error::FloorplanError;
use crate::rect::Rect;
use tps_units::Meters;

/// A validated die floorplan: an outline plus non-overlapping [`Block`]s.
///
/// [`xeon_e5_v4`](crate::xeon_e5_v4) builds the paper's die; validation
/// guarantees that every block lies within the outline, no two blocks
/// overlap, and core indices are unique.
///
/// ```
/// use tps_floorplan::{xeon_e5_v4, ComponentKind};
/// let fp = xeon_e5_v4();
/// assert_eq!(fp.core(1).map(|b| b.kind()), Some(ComponentKind::Core(1)));
/// assert!(fp.blocks().iter().all(|b| b.rect().within(fp.outline())));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    name: String,
    outline: Rect,
    blocks: Vec<Block>,
}

impl Floorplan {
    /// The die outline (origin at the south-west corner).
    pub fn outline(&self) -> &Rect {
        &self.outline
    }

    /// Die width (east–west extent).
    pub(crate) fn width(&self) -> Meters {
        self.outline.width()
    }

    /// Die height (north–south extent).
    pub(crate) fn height(&self) -> Meters {
        self.outline.height()
    }

    /// All blocks, in insertion order (the position a [`BlockId`] names).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Looks up a block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this floorplan.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0]
    }

    /// Iterates over the core blocks in ascending core-index order.
    pub fn cores(&self) -> impl Iterator<Item = &Block> {
        let mut cores: Vec<&Block> = self
            .blocks
            .iter()
            .filter(|b| matches!(b.kind(), ComponentKind::Core(_)))
            .collect();
        cores.sort_by_key(|b| b.kind().core_index());
        cores.into_iter()
    }

    /// Returns the core block with the given 1-based index, if present.
    pub fn core(&self, index: u8) -> Option<&Block> {
        self.blocks
            .iter()
            .find(|b| b.kind().core_index() == Some(index))
    }

    /// Fraction of the die outline covered by blocks (1.0 = fully tiled).
    pub fn coverage(&self) -> f64 {
        let covered: f64 = self.blocks.iter().map(|b| b.rect().area().value()).sum();
        covered / self.outline.area().value()
    }
}

impl core::fmt::Display for Floorplan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "floorplan `{}`: {:.1} × {:.1} mm, {} blocks",
            self.name,
            self.width().to_mm(),
            self.height().to_mm(),
            self.blocks.len()
        )?;
        for b in &self.blocks {
            writeln!(f, "  {b}")?;
        }
        Ok(())
    }
}

/// Incremental builder for [`Floorplan`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
#[derive(Debug, Clone)]
pub(crate) struct FloorplanBuilder {
    name: String,
    outline: Rect,
    blocks: Vec<Block>,
}

impl FloorplanBuilder {
    /// Starts a floorplan with the given name and outline size in
    /// millimetres.
    pub(crate) fn new(name: impl Into<String>, width_mm: f64, height_mm: f64) -> Self {
        Self {
            name: name.into(),
            outline: Rect::from_mm(0.0, 0.0, width_mm, height_mm),
            blocks: Vec::new(),
        }
    }

    /// Adds a block. Validation happens in [`FloorplanBuilder::build`].
    pub(crate) fn block(
        mut self,
        name: impl Into<String>,
        kind: ComponentKind,
        rect: Rect,
    ) -> Self {
        let id = BlockId(self.blocks.len());
        self.blocks.push(Block {
            id,
            name: name.into(),
            kind,
            rect,
        });
        self
    }

    /// Validates and finalises the floorplan.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError`] if the floorplan is empty, a block leaves
    /// the outline, two blocks overlap, or a core index repeats.
    pub(crate) fn build(self) -> Result<Floorplan, FloorplanError> {
        if self.blocks.is_empty() {
            return Err(FloorplanError::Empty);
        }
        for b in &self.blocks {
            if !b.rect().within(&self.outline) {
                return Err(FloorplanError::OutOfBounds {
                    block: b.name.clone(),
                });
            }
        }
        // Overlap tolerance: sub-µm² slivers from mm-level arithmetic are fine.
        const OVERLAP_TOL_M2: f64 = 1e-12;
        for (i, a) in self.blocks.iter().enumerate() {
            for b in &self.blocks[i + 1..] {
                let area = a.rect().intersection_area(b.rect()).value();
                if area > OVERLAP_TOL_M2 {
                    return Err(FloorplanError::Overlap {
                        first: a.name.clone(),
                        second: b.name.clone(),
                        area_mm2: area * 1e6,
                    });
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        for b in &self.blocks {
            if let Some(i) = b.kind().core_index() {
                if !seen.insert(i) {
                    return Err(FloorplanError::DuplicateCoreIndex { index: i });
                }
            }
        }
        Ok(Floorplan {
            name: self.name,
            outline: self.outline,
            blocks: self.blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_block_plan() -> Floorplan {
        FloorplanBuilder::new("t", 10.0, 10.0)
            .block(
                "c1",
                ComponentKind::Core(1),
                Rect::from_mm(0.0, 0.0, 5.0, 10.0),
            )
            .block(
                "llc",
                ComponentKind::LastLevelCache,
                Rect::from_mm(5.0, 0.0, 5.0, 10.0),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_query() {
        let fp = two_block_plan();
        assert_eq!(fp.name, "t");
        assert_eq!(fp.blocks().len(), 2);
        assert_eq!(fp.core(1).unwrap().name, "c1");
        assert!(fp.core(2).is_none());
        assert!((fp.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            FloorplanBuilder::new("e", 1.0, 1.0).build().unwrap_err(),
            FloorplanError::Empty
        );
    }

    #[test]
    fn rejects_out_of_bounds() {
        let err = FloorplanBuilder::new("t", 10.0, 10.0)
            .block(
                "c1",
                ComponentKind::Core(1),
                Rect::from_mm(6.0, 0.0, 5.0, 5.0),
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, FloorplanError::OutOfBounds { .. }));
    }

    #[test]
    fn rejects_overlap() {
        let err = FloorplanBuilder::new("t", 10.0, 10.0)
            .block(
                "a",
                ComponentKind::Core(1),
                Rect::from_mm(0.0, 0.0, 5.0, 5.0),
            )
            .block(
                "b",
                ComponentKind::Core(2),
                Rect::from_mm(4.0, 0.0, 5.0, 5.0),
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, FloorplanError::Overlap { .. }));
    }

    #[test]
    fn rejects_duplicate_core_index() {
        let err = FloorplanBuilder::new("t", 10.0, 10.0)
            .block(
                "a",
                ComponentKind::Core(1),
                Rect::from_mm(0.0, 0.0, 4.0, 4.0),
            )
            .block(
                "b",
                ComponentKind::Core(1),
                Rect::from_mm(5.0, 5.0, 4.0, 4.0),
            )
            .build()
            .unwrap_err();
        assert_eq!(err, FloorplanError::DuplicateCoreIndex { index: 1 });
    }

    #[test]
    fn cores_iterate_in_index_order() {
        let fp = FloorplanBuilder::new("t", 10.0, 10.0)
            .block(
                "b",
                ComponentKind::Core(2),
                Rect::from_mm(5.0, 0.0, 4.0, 4.0),
            )
            .block(
                "a",
                ComponentKind::Core(1),
                Rect::from_mm(0.0, 0.0, 4.0, 4.0),
            )
            .build()
            .unwrap();
        let order: Vec<u8> = fp.cores().map(|b| b.kind().core_index().unwrap()).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn touching_blocks_are_valid() {
        // A proper tiling has blocks sharing edges — must not be an overlap.
        let fp = two_block_plan();
        assert_eq!(fp.blocks().len(), 2);
    }
}
