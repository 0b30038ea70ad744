//! The temperature-aware MPSoC scheduling baseline of Coskun et al.
//! (DATE'07, the paper's reference [9]).

use super::{greedy_spread, MappingContext, MappingPolicy};

/// Conventional thermal-aware balancing: spread load from the corners,
/// *independent of the idle C-state and of the cooling technology*. This is
/// Fig. 6 scenario 2 applied always — optimal when idle cores poll, but
/// blind to the micro-channel bands that matter once idle cores are
/// clock-gated. Coskun et al. also rank cores by temperature history; one
/// application on an idle die has none, so the spread alone decides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoskunBalancing;

impl MappingPolicy for CoskunBalancing {
    fn name(&self) -> &'static str {
        "coskun balancing [9]"
    }

    fn select_cores(&self, n: usize, ctx: &MappingContext<'_>) -> Vec<u8> {
        greedy_spread(n, ctx, false)
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
        exhaustive_contract(&CoskunBalancing);
    }

    #[test]
    fn cstate_blind() {
        // The baseline ignores the idle C-state: same mapping under POLL
        // and C1 — this is exactly what the proposed policy improves on.
        let topo = CoreTopology::xeon();
        for n in 1..=8 {
            let poll = CoskunBalancing.select_cores(
                n,
                &MappingContext::new(&topo, Orientation::InletEast, CState::Poll),
            );
            let c1 = CoskunBalancing.select_cores(
                n,
                &MappingContext::new(&topo, Orientation::InletEast, CState::C1),
            );
            assert_eq!(poll, c1, "n={n}");
        }
    }

    #[test]
    fn four_cores_take_the_corners() {
        let topo = CoreTopology::xeon();
        let ctx = MappingContext::new(&topo, Orientation::InletEast, CState::C1);
        let mut four = CoskunBalancing.select_cores(4, &ctx);
        four.sort_unstable();
        assert_eq!(four, vec![1, 4, 5, 8]);
    }
}
