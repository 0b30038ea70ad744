//! Thread-to-core mapping policies (Sec. VII and the Fig. 6 scenarios).

mod coskun;
mod inlet_first;
mod packed;
mod proposed;

pub use coskun::CoskunBalancing;
pub use inlet_first::InletFirstMapping;
pub use packed::PackedMapping;
pub use proposed::ProposedMapping;

use tps_floorplan::CoreTopology;
use tps_power::CState;
use tps_thermosyphon::Orientation;

/// Everything a mapping policy may consult when placing threads.
#[derive(Debug, Clone)]
pub struct MappingContext<'a> {
    /// The core-slot lattice of the die.
    pub topology: &'a CoreTopology,
    /// The thermosyphon's channel orientation (which cores share channels).
    pub orientation: Orientation,
    /// The C-state idle cores will sit in (drives the paper's policy).
    pub idle_cstate: CState,
}

impl<'a> MappingContext<'a> {
    /// The context for one application on an otherwise idle die.
    pub fn new(topology: &'a CoreTopology, orientation: Orientation, idle_cstate: CState) -> Self {
        Self {
            topology,
            orientation,
            idle_cstate,
        }
    }

    /// The channel band a core belongs to: its row for east–west channels,
    /// its column for north–south channels.
    pub(crate) fn band_of(&self, core: u8) -> usize {
        let slot = self.topology.slot_of(core);
        if self.orientation.is_horizontal() {
            slot.row
        } else {
            slot.col
        }
    }
}

/// A strategy placing `n` threads' worth of active cores on the die.
pub trait MappingPolicy {
    /// Human-readable policy name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Picks `n` distinct cores (1-based indices).
    ///
    /// # Panics
    ///
    /// Implementations panic if `n` is outside `1..=8`.
    fn select_cores(&self, n: usize, ctx: &MappingContext<'_>) -> Vec<u8>;
}

/// Shared helper: asserts `n` is mappable.
pub(crate) fn check_core_count(n: usize) {
    assert!((1..=8).contains(&n), "cannot map {n} cores onto 8 slots");
}

/// Shared helper: greedy spreading. Repeatedly picks, among the unmapped
/// cores, the one minimising the key tuple
/// `(band-occupancy-after [if banded], non-corner,
/// −min-distance-to-active, index)` — corners outrank raw distance, which
/// matches the paper's "starting from the corners" and avoids µm-scale
/// distance ties deciding the placement.
///
/// With `banded = false` this is the classic corner-first balanced spread
/// (Fig. 6 scenario 2); with `banded = true` it first exhausts empty
/// channel bands (scenario 1: "fewer active cores on the same horizontal
/// line").
pub(crate) fn greedy_spread(n: usize, ctx: &MappingContext<'_>, banded: bool) -> Vec<u8> {
    check_core_count(n);
    let topo = ctx.topology;
    let mut active: Vec<u8> = Vec::with_capacity(n);
    let mut band_occupancy = [0usize; 5];
    while active.len() < n {
        let best = topo
            .cores()
            .filter(|c| !active.contains(c))
            .min_by(|&a, &b| {
                let key = |c: u8| {
                    let occ = if banded {
                        band_occupancy[ctx.band_of(c)]
                    } else {
                        0
                    };
                    let min_dist = active
                        .iter()
                        .map(|&o| topo.distance(c, o))
                        .fold(f64::INFINITY, f64::min);
                    let corner_penalty = usize::from(!topo.is_corner(topo.slot_of(c)));
                    (occ, corner_penalty, -min_dist, c)
                };
                let (ao, ac, ad, ai) = key(a);
                let (bo, bc, bd, bi) = key(b);
                ao.cmp(&bo)
                    .then(ac.cmp(&bc))
                    .then(ad.total_cmp(&bd))
                    .then(ai.cmp(&bi))
            })
            .expect("fewer than 8 cores mapped, so a candidate exists");
        band_occupancy[ctx.band_of(best)] += 1;
        active.push(best);
    }
    active
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// Validates the fundamental mapping contract.
    pub fn assert_valid_mapping(cores: &[u8], n: usize) {
        assert_eq!(cores.len(), n, "mapping must return exactly n cores");
        let mut seen = std::collections::HashSet::new();
        for &c in cores {
            assert!((1..=8).contains(&c), "core {c} out of range");
            assert!(seen.insert(c), "core {c} duplicated");
        }
    }

    /// Exercises a policy across all n, orientations and C-states.
    pub fn exhaustive_contract(policy: &dyn MappingPolicy) {
        let topo = CoreTopology::xeon();
        for orientation in Orientation::ALL {
            for cstate in [CState::Poll, CState::C1, CState::C6] {
                let ctx = MappingContext::new(&topo, orientation, cstate);
                for n in 1..=8 {
                    let cores = policy.select_cores(n, &ctx);
                    assert_valid_mapping(&cores, n);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_follows_orientation() {
        let topo = CoreTopology::xeon();
        let horizontal = MappingContext::new(&topo, Orientation::InletEast, CState::Poll);
        let vertical = MappingContext::new(&topo, Orientation::InletNorth, CState::Poll);
        // Core 1 sits at (col 1, row 0).
        assert_eq!(horizontal.band_of(1), 0);
        assert_eq!(vertical.band_of(1), 1);
        // Core 8 sits at (col 0, row 3).
        assert_eq!(horizontal.band_of(8), 3);
        assert_eq!(vertical.band_of(8), 0);
    }

    #[test]
    fn greedy_banded_fills_distinct_rows_first() {
        let topo = CoreTopology::xeon();
        let ctx = MappingContext::new(&topo, Orientation::InletEast, CState::C1);
        let four = greedy_spread(4, &ctx, true);
        assert_eq!(topo.row_occupancy(&four), [1, 1, 1, 1]);
    }

    #[test]
    fn greedy_unbanded_takes_the_corners() {
        let topo = CoreTopology::xeon();
        let ctx = MappingContext::new(&topo, Orientation::InletEast, CState::Poll);
        let mut four = greedy_spread(4, &ctx, false);
        four.sort_unstable();
        assert_eq!(four, vec![1, 4, 5, 8]);
    }

    /// Every selection the shipped policies make through
    /// [`MappingContext::new`]: four policies × `n` in 1..=8 × every
    /// orientation × every C-state, 640 selections in order, hashed with
    /// FNV-1a.
    #[test]
    fn every_shipped_selection_matches_its_pinned_digest() {
        let topo = CoreTopology::xeon();
        let policies: [&dyn MappingPolicy; 4] = [
            &crate::ProposedMapping,
            &crate::CoskunBalancing,
            &crate::InletFirstMapping,
            &crate::PackedMapping,
        ];
        let mut bytes = Vec::new();
        let mut selections = 0;
        for policy in policies {
            for orientation in Orientation::ALL {
                for cstate in CState::ALL {
                    let ctx = MappingContext::new(&topo, orientation, cstate);
                    for n in 1..=8 {
                        bytes.extend(policy.select_cores(n, &ctx));
                        bytes.push(0);
                        selections += 1;
                    }
                }
            }
        }
        assert_eq!(selections, 640);
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            digest, 0x8376_6632_ad87_bf1d,
            "mapping selections moved: {digest:#018x}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot map")]
    fn zero_cores_rejected() {
        check_core_count(0);
    }
}
