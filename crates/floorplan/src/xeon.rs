//! The Intel Xeon E5 v4 (Broadwell-EP) die floorplan of the paper's Fig. 2c.
//!
//! The 246 mm² deca-core die carries two columns of five core slots on the
//! west side (the 8-core SKU leaves the southern slot of each column dark),
//! the large last-level cache on the east side, and the memory-controller and
//! queue/uncore/IO strips along the southern edge. This asymmetry — no power
//! dissipated in the eastern LLC expanse — is what makes the thermosyphon
//! orientation matter (Sec. VI-A of the paper).

use crate::block::ComponentKind;
use crate::plan::{Floorplan, FloorplanBuilder};
use crate::rect::Rect;

/// Die width (east–west), millimetres.
const DIE_W_MM: f64 = 18.0;
/// Die height (north–south), millimetres.
const DIE_H_MM: f64 = 13.67;
/// Height of each of the two southern strips (uncore/IO and memory ctl).
const STRIP_H_MM: f64 = 1.2;
/// Width of each core column.
const CORE_COL_W_MM: f64 = 4.5;

/// Number of core-slot rows (row 4 holds the two reserved slots).
pub(crate) const XEON_CORE_ROWS: usize = 5;
/// Number of core-slot columns.
pub(crate) const XEON_CORE_COLS: usize = 2;

/// A core-slot position on the die: `col` 0 is the western column, `row` 0 is
/// the northern row. Rows 0–3 hold Core1–Core8; row 4 holds the two reserved
/// (dark) slots of the deca-core design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreSlot {
    /// Column index (0 = west, 1 = centre).
    pub col: usize,
    /// Row index (0 = north … 4 = south/reserved).
    pub row: usize,
}

impl core::fmt::Display for CoreSlot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "slot(c{}, r{})", self.col, self.row)
    }
}

fn core_slot_rect(col: usize, row: usize) -> Rect {
    let region_h = DIE_H_MM - 2.0 * STRIP_H_MM;
    let slot_h = region_h / XEON_CORE_ROWS as f64;
    let y_min = 2.0 * STRIP_H_MM + (XEON_CORE_ROWS - 1 - row) as f64 * slot_h;
    Rect::from_mm(col as f64 * CORE_COL_W_MM, y_min, CORE_COL_W_MM, slot_h)
}

/// Mapping between the paper's core numbering and slot positions:
/// column 0 (west) holds Core5–Core8 top-to-bottom, column 1 holds
/// Core1–Core4, and row 4 of both columns is reserved.
fn slot_of_core(index: u8) -> CoreSlot {
    match index {
        1..=4 => CoreSlot {
            col: 1,
            row: (index - 1) as usize,
        },
        5..=8 => CoreSlot {
            col: 0,
            row: (index - 5) as usize,
        },
        _ => panic!("core index {index} out of range 1..=8"),
    }
}

/// Builds the Xeon E5 v4 die floorplan (8 active cores, 2 reserved slots,
/// LLC, memory controller, uncore/IO).
///
/// ```
/// use tps_floorplan::{xeon_e5_v4, ComponentKind};
/// let fp = xeon_e5_v4();
/// assert!((fp.coverage() - 1.0).abs() < 1e-9); // fully tiled
/// assert!(fp.blocks().iter().any(|b| b.kind() == ComponentKind::LastLevelCache));
/// ```
pub fn xeon_e5_v4() -> Floorplan {
    let mut b = FloorplanBuilder::new("xeon-e5-v4-broadwell-ep", DIE_W_MM, DIE_H_MM);
    // Southern strips spanning the full die width.
    b = b.block(
        "uncore-io",
        ComponentKind::UncoreIo,
        Rect::from_mm(0.0, 0.0, DIE_W_MM, STRIP_H_MM),
    );
    b = b.block(
        "mem-ctl",
        ComponentKind::MemoryController,
        Rect::from_mm(0.0, STRIP_H_MM, DIE_W_MM, STRIP_H_MM),
    );
    // Core columns.
    for core in 1..=8u8 {
        let slot = slot_of_core(core);
        b = b.block(
            format!("core{core}"),
            ComponentKind::Core(core),
            core_slot_rect(slot.col, slot.row),
        );
    }
    for (name, col) in [("reserved-w", 0usize), ("reserved-c", 1usize)] {
        b = b.block(name, ComponentKind::ReservedCore, core_slot_rect(col, 4));
    }
    // LLC fills the eastern side.
    let llc_x = XEON_CORE_COLS as f64 * CORE_COL_W_MM;
    b = b.block(
        "llc",
        ComponentKind::LastLevelCache,
        Rect::from_mm(
            llc_x,
            2.0 * STRIP_H_MM,
            DIE_W_MM - llc_x,
            DIE_H_MM - 2.0 * STRIP_H_MM,
        ),
    );
    b.build()
        .expect("the built-in Xeon floorplan must always validate")
}

/// The row/column lattice of core slots, as used by mapping policies.
///
/// Provides the geometric queries the paper's mapping discussion relies on:
/// which cores share a horizontal line (micro-channel row), which slots are
/// corners, and where each core sits on the die.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreTopology {
    /// Geometric centre of each core (1-based index → die coordinates, m).
    centers: [(f64, f64); 8],
}

impl CoreTopology {
    /// Derives the topology from a Xeon-shaped floorplan.
    ///
    /// # Panics
    ///
    /// Panics if the floorplan does not contain cores 1–8.
    pub fn from_floorplan(fp: &Floorplan) -> Self {
        let mut centers = [(0.0, 0.0); 8];
        for (i, c) in centers.iter_mut().enumerate() {
            let block = fp
                .core(i as u8 + 1)
                .unwrap_or_else(|| panic!("floorplan is missing core {}", i + 1));
            *c = block.rect().center();
        }
        Self { centers }
    }

    /// The canonical Xeon E5 v4 topology.
    pub fn xeon() -> Self {
        Self::from_floorplan(&xeon_e5_v4())
    }

    /// All 1-based core indices.
    pub fn cores(&self) -> impl Iterator<Item = u8> {
        1..=8u8
    }

    /// The slot of a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not in `1..=8`.
    pub fn slot_of(&self, core: u8) -> CoreSlot {
        slot_of_core(core)
    }

    /// Geometric centre of a core in die coordinates (metres).
    ///
    /// # Panics
    ///
    /// Panics if `core` is not in `1..=8`.
    pub fn center_of(&self, core: u8) -> (f64, f64) {
        assert!((1..=8).contains(&core), "core index {core} out of range");
        self.centers[core as usize - 1]
    }

    /// Returns `true` if the slot sits at a corner of the 4×2 active-core
    /// array (rows 0 and 3).
    pub fn is_corner(&self, slot: CoreSlot) -> bool {
        (slot.row == 0 || slot.row == 3) && slot.col < XEON_CORE_COLS
    }

    /// Number of active cores per row for a given active set.
    pub fn row_occupancy(&self, active: &[u8]) -> [usize; 4] {
        let mut occ = [0usize; 4];
        for &c in active {
            let slot = self.slot_of(c);
            if slot.row < 4 {
                occ[slot.row] += 1;
            }
        }
        occ
    }

    /// Euclidean centre distance between two cores, metres.
    pub fn distance(&self, a: u8, b: u8) -> f64 {
        let (ax, ay) = self.center_of(a);
        let (bx, by) = self.center_of(b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn die_area_matches_paper() {
        let fp = xeon_e5_v4();
        assert!((fp.outline().area().to_mm2() - 246.06).abs() < 0.1);
    }

    #[test]
    fn fully_tiled_no_gaps() {
        let fp = xeon_e5_v4();
        assert!((fp.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eight_cores_two_reserved() {
        let fp = xeon_e5_v4();
        assert_eq!(fp.cores().count(), 8);
        let reserved = fp
            .blocks()
            .iter()
            .filter(|b| b.kind() == ComponentKind::ReservedCore)
            .count();
        assert_eq!(reserved, 2);
    }

    #[test]
    fn llc_occupies_east_half() {
        let fp = xeon_e5_v4();
        let llc = fp
            .blocks()
            .iter()
            .find(|b| b.kind() == ComponentKind::LastLevelCache)
            .unwrap();
        assert!(llc.rect().x_min() >= 8.9e-3);
        assert!((llc.rect().x_max() - 18.0e-3).abs() < 1e-9);
        // The LLC is half the die: the "dead" low-power east side.
        assert!(llc.rect().area().to_mm2() > 100.0);
    }

    #[test]
    fn core_numbering_matches_fig_2c() {
        let topo = CoreTopology::xeon();
        // Column 1 (centre) holds cores 1–4 top to bottom.
        assert_eq!(topo.slot_of(1), CoreSlot { col: 1, row: 0 });
        assert_eq!(topo.slot_of(4), CoreSlot { col: 1, row: 3 });
        // Column 0 (west) holds cores 5–8 top to bottom.
        assert_eq!(topo.slot_of(5), CoreSlot { col: 0, row: 0 });
        assert_eq!(topo.slot_of(8), CoreSlot { col: 0, row: 3 });
    }

    #[test]
    fn corners_are_rows_0_and_3() {
        let topo = CoreTopology::xeon();
        let corners: Vec<u8> = topo
            .cores()
            .filter(|&c| topo.is_corner(topo.slot_of(c)))
            .collect();
        assert_eq!(corners, vec![1, 4, 5, 8]);
    }

    #[test]
    fn row_occupancy_counts() {
        let topo = CoreTopology::xeon();
        // Cores 1 and 5 share the north row.
        assert_eq!(topo.row_occupancy(&[1, 5]), [2, 0, 0, 0]);
        assert_eq!(topo.row_occupancy(&[1, 2, 3, 4]), [1, 1, 1, 1]);
    }

    #[test]
    fn geometry_is_sane() {
        let topo = CoreTopology::xeon();
        // Core 5 (west, north) must be west of core 1 (centre, north).
        assert!(topo.center_of(5).0 < topo.center_of(1).0);
        // Same row ⇒ same y.
        assert!((topo.center_of(5).1 - topo.center_of(1).1).abs() < 1e-12);
        // Core 1 is north of core 4.
        assert!(topo.center_of(1).1 > topo.center_of(4).1);
        // Distance between vertically adjacent cores ≈ slot height (2.254 mm).
        assert!((topo.distance(1, 2) - 2.254e-3).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_index_panics() {
        let _ = CoreTopology::xeon().center_of(9);
    }
}
