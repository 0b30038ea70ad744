//! The inlet-first mapping baseline of Sabry et al. (TCAD'11, the paper's
//! reference [7]), designed for inter-layer liquid-cooled 3-D stacks.

use super::{check_core_count, MappingContext, MappingPolicy};
use tps_thermosyphon::Orientation;

/// Map threads to the cores closest to the coolant inlet first.
///
/// For inter-layer liquid cooling this is sound: the coolant heats up along
/// its path, so inlet-side cores see the coldest fluid. For a gravity-driven
/// two-phase thermosyphon it backfires (Sec. VIII-A): boiling heat removal
/// *improves* with moderate vapour quality, the package/spreader blur the
/// inlet advantage, and packing all threads against one edge creates a
/// dense cluster of hot spots — the paper's worst baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InletFirstMapping;

impl MappingPolicy for InletFirstMapping {
    fn name(&self) -> &'static str {
        "inlet-first [7]"
    }

    fn select_cores(&self, n: usize, ctx: &MappingContext<'_>) -> Vec<u8> {
        check_core_count(n);
        let topo = ctx.topology;
        let mut cores: Vec<u8> = (1..=8).collect();
        // Distance from the inlet along the flow axis, ascending; ties by
        // the perpendicular coordinate then index for determinism.
        cores.sort_by(|&a, &b| {
            let key = |c: u8| {
                let (x, y) = topo.center_of(c);
                match ctx.orientation {
                    Orientation::InletEast => -x,
                    Orientation::InletWest => x,
                    Orientation::InletNorth => -y,
                    Orientation::InletSouth => y,
                }
            };
            key(a).total_cmp(&key(b)).then(a.cmp(&b))
        });
        cores.truncate(n);
        cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::test_util::exhaustive_contract;
    use tps_floorplan::CoreTopology;
    use tps_power::CState;

    #[test]
    fn contract() {
        exhaustive_contract(&InletFirstMapping);
    }

    #[test]
    fn inlet_east_packs_the_center_column() {
        // Cores 1–4 (column 1) sit closest to the east inlet.
        let topo = CoreTopology::xeon();
        let ctx = MappingContext::new(&topo, Orientation::InletEast, CState::Poll);
        let mut four = InletFirstMapping.select_cores(4, &ctx);
        four.sort_unstable();
        assert_eq!(four, vec![1, 2, 3, 4], "a packed column: scenario-3-like");
        // All four share a single column — maximally co-channel under
        // Design 2 and maximally clustered under Design 1.
        let cols: std::collections::HashSet<usize> =
            four.iter().map(|&c| topo.slot_of(c).col).collect();
        assert_eq!(cols.len(), 1);
    }

    #[test]
    fn inlet_north_packs_the_top_rows() {
        let topo = CoreTopology::xeon();
        let ctx = MappingContext::new(&topo, Orientation::InletNorth, CState::Poll);
        let four = InletFirstMapping.select_cores(4, &ctx);
        // Rows 0 and 1 (cores 1, 5, 2, 6) are closest to the north inlet.
        let rows: Vec<usize> = four.iter().map(|&c| topo.slot_of(c).row).collect();
        assert!(rows.iter().all(|&r| r <= 1), "rows {rows:?}");
    }

    #[test]
    fn order_is_deterministic() {
        let topo = CoreTopology::xeon();
        let ctx = MappingContext::new(&topo, Orientation::InletEast, CState::C1);
        assert_eq!(
            InletFirstMapping.select_cores(8, &ctx),
            InletFirstMapping.select_cores(8, &ctx)
        );
    }
}
