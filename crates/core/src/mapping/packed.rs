//! The naive consecutive-core mapping (Fig. 6 scenario 3).

use super::{check_core_count, MappingContext, MappingPolicy};

/// Fill physical core slots consecutively down the west column, then the
/// centre column — what an OS scheduler does with a linear core list and
/// no thermal awareness. Produces the dense hot cluster of Fig. 6
/// scenario 3 and serves as the "no policy" control in the ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedMapping;

/// West column top-to-bottom (5, 6, 7, 8), then centre column (1, 2, 3, 4).
const PACK_ORDER: [u8; 8] = [5, 6, 7, 8, 1, 2, 3, 4];

impl MappingPolicy for PackedMapping {
    fn name(&self) -> &'static str {
        "packed (scenario 3)"
    }

    fn select_cores(&self, n: usize, _ctx: &MappingContext<'_>) -> Vec<u8> {
        check_core_count(n);
        PACK_ORDER[..n].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::test_util::exhaustive_contract;
    use tps_floorplan::CoreTopology;
    use tps_power::CState;
    use tps_thermosyphon::Orientation;

    #[test]
    fn contract() {
        exhaustive_contract(&PackedMapping);
    }

    #[test]
    fn packs_adjacent_rows_of_one_column() {
        let topo = CoreTopology::xeon();
        let ctx = MappingContext::new(&topo, Orientation::InletEast, CState::Poll);
        let four = PackedMapping.select_cores(4, &ctx);
        assert_eq!(four, vec![5, 6, 7, 8]);
        // Worst case for heat exchange: every pair of consecutive picks is
        // a direct vertical neighbour.
        for w in four.windows(2) {
            assert!((topo.distance(w[0], w[1]) - 2.254e-3).abs() < 1e-5);
        }
    }
}
