//! The rack-state accumulation rules, shared by every layer that folds
//! placements into rack state.
//!
//! Under the Sec. V constraint a rack's chiller draw depends on the heat
//! of the jobs on it and on the coldest water any of them tolerates. The
//! kernel tracks that state in three layers: the committed layer dispatch
//! ranks against ([`RackLoads`](crate::RackLoads)), the running layer
//! control ticks and telemetry read, and the energy integrator. Each layer
//! keeps its own fold order, because the order of the float additions
//! fixes the output bits; what they share is the rule one fold applies,
//! and that rule lives here.
//!
//! The orders share one source for ends. The committed layer's heap,
//! keyed `(end, rack, commit order)`, is the only time order of placement
//! ends: it keeps each rack's expiry order, which is all its per-rack sums
//! depend on, and it is the integrator's own removal order, so each pop
//! folds the end out of both. The running layer folds at its own queued
//! events, on closed-loop runs only.

use crate::cache::SteadyState;
use crate::catalog::ClassId;
use tps_units::Celsius;

/// One placement's contribution to rack state, built once per placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Load {
    /// The rack it runs on.
    pub(crate) rack: usize,
    /// The catalog class of its server.
    pub(crate) class: ClassId,
    /// Heat rejected into the rack's water loop.
    pub(crate) heat: f64,
    /// Package (IT) power.
    pub(crate) power: f64,
    /// `to_bits` of the warmest water it tolerates: monotone for the
    /// non-negative temperatures in play, and it round-trips the value.
    pub(crate) water: u64,
}

impl Load {
    /// The load of `state` on a `class` server of `rack`.
    pub(crate) fn new(rack: usize, class: ClassId, state: &SteadyState) -> Self {
        Self {
            rack,
            class,
            heat: state.heat.value(),
            power: state.package_power.value(),
            water: state.max_water_temp.value().to_bits(),
        }
    }
}

/// A count and a float sum over the same members. The sum is pinned to
/// exact `0.0` when the count drains, so float residue never outlives the
/// members that left it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Tally {
    count: usize,
    sum: f64,
}

impl Tally {
    /// Adds one member worth `x`.
    pub(crate) fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
    }

    /// Removes one member worth `x`.
    pub(crate) fn remove(&mut self, x: f64) {
        self.count -= 1;
        self.sum -= x;
        if self.count == 0 {
            self.sum = 0.0;
        }
    }

    /// Members.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Their sum.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }
}

/// One rack's load: a heat tally plus the multiset of tolerable-water
/// keys, as an ascending sorted `(key, count)` vector. A vector, not a
/// `BTreeMap`: a rack sees a handful of distinct keys, and the capacity
/// survives the rack draining, so a fold never allocates tree nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RackLoad {
    heat: Tally,
    water: Vec<(u64, u32)>,
}

impl RackLoad {
    /// Adds a placement's `heat` and water key.
    pub(crate) fn add(&mut self, heat: f64, water: u64) {
        self.heat.add(heat);
        match self.water.binary_search_by_key(&water, |w| w.0) {
            Ok(at) => self.water[at].1 += 1,
            Err(at) => self.water.insert(at, (water, 1)),
        }
    }

    /// Removes a placement's `heat` and water key.
    pub(crate) fn remove(&mut self, heat: f64, water: u64) {
        self.heat.remove(heat);
        if let Ok(at) = self.water.binary_search_by_key(&water, |w| w.0) {
            self.water[at].1 -= 1;
            if self.water[at].1 == 0 {
                self.water.remove(at);
            }
        }
    }

    /// Placements on the rack.
    pub(crate) fn count(&self) -> usize {
        self.heat.count()
    }

    /// The raw heat sum, float residue included.
    pub(crate) fn heat_sum(&self) -> f64 {
        self.heat.sum()
    }

    /// The rack's heat, clamped non-negative.
    pub(crate) fn heat(&self) -> f64 {
        self.heat.sum().max(0.0)
    }

    /// The shared supply: the coldest water any placement tolerates,
    /// `None` while the rack is empty.
    pub(crate) fn supply(&self) -> Option<Celsius> {
        self.water
            .first()
            .map(|&(bits, _)| Celsius::new(f64::from_bits(bits)))
    }
}

/// A fleet's worth of folded placements: per-rack loads, a fleet-wide
/// package-power tally and one power tally per catalog class.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Running {
    racks: Vec<RackLoad>,
    power: Tally,
    classes: Vec<Tally>,
}

impl Running {
    /// Nothing folded, over `racks` racks and `classes` catalog classes.
    pub(crate) fn new(racks: usize, classes: usize) -> Self {
        Self {
            racks: vec![RackLoad::default(); racks],
            power: Tally::default(),
            classes: vec![Tally::default(); classes],
        }
    }

    /// Folds `load` in.
    pub(crate) fn start(&mut self, load: &Load) {
        self.power.add(load.power);
        self.racks[load.rack].add(load.heat, load.water);
        self.classes[load.class].add(load.power);
    }

    /// Folds `load` out.
    pub(crate) fn end(&mut self, load: &Load) {
        self.power.remove(load.power);
        self.racks[load.rack].remove(load.heat, load.water);
        self.classes[load.class].remove(load.power);
    }

    /// Placements folded in and not out.
    pub(crate) fn count(&self) -> usize {
        self.power.count()
    }

    /// The per-rack loads, in rack order.
    pub(crate) fn racks(&self) -> &[RackLoad] {
        &self.racks
    }

    /// The fleet's package power.
    pub(crate) fn power(&self) -> f64 {
        self.power.sum()
    }

    /// The per-class tallies of package power, in class-id order.
    pub(crate) fn classes(&self) -> &[Tally] {
        &self.classes
    }
}

#[cfg(test)]
impl RackLoad {
    /// The water multiset, ascending by key.
    pub(crate) fn water(&self) -> &[(u64, u32)] {
        &self.water
    }
}
