//! Fleet dispatchers: which server gets the next arriving job.
//!
//! The rack constraint of Sec. V — all thermosyphons on a rack share one
//! chiller water temperature — makes placement a fleet-wide energy
//! decision: one thermally demanding job drags its whole rack's chiller
//! efficiency down. On a heterogeneous fleet the decision is
//! two-dimensional: the same job runs hotter (or needs colder water) on
//! one server class than another, so [`ThermalAwareDispatch`] ranks
//! `(rack, class)` slots — extending the paper's
//! minimum-incremental-power idea (Algorithm 1) from configurations to
//! racks *and* hardware bins — while [`RoundRobin`] stays class-blind as
//! the baseline and [`CoolestRackFirst`] balances heat across racks
//! before picking the cheapest class within the winner.
//!
//! # Scaling: the indexed ranking
//!
//! Enumerating every `(rack, class)` slot per arrival would be the
//! simulator's whole runtime at 100 k servers, so every [`FleetView`]
//! carries a [`FleetIndex`]: one entry per distinct committed rack state
//! `(heat, supply, class pattern)`, ordered by heat, with the state's
//! member racks beside it, and the idle racks grouped by class pattern.
//! The full enumeration survives only as the oracle in this module's
//! tests and in `tests/properties.rs`, and as [`PlannedDispatch`]'s slow
//! path. Two facts make the indexed walk *bit-identical* to it:
//!
//! * every rack of one state has the exact same [`RackView`] heat and
//!   supply and the same classes — idle racks of one class pattern
//!   included, since drained racks are pinned to exact zero heat and no
//!   supply — hence the exact same marginal-power score per class
//!   (`marginal_power` reads nothing else). So the state's lowest rack
//!   wins every score tie and one representative stands in for all of
//!   them. It is in the active prefix exactly when any member is, since
//!   the members ascend and the prefix is `0..active_racks`;
//! * the ranking's sort key `(power, heat, rack, class)` is a total
//!   order, so scoring racks from the index instead of in rack order
//!   cannot change the sorted result.
//!
//! Only the fold's winner is checked against its wait budget. An idle
//! rack's servers are all free (`wait = 0`), so either an idle group's
//! lowest rack is accepted or every member would have been rejected.
//! The members of a committed state wait on their own servers, so when
//! the winner fails its budget, the sorted slow path expands every member
//! of every state, scores each afresh and walks them in order.
//!
//! Each state entry carries its COP and chiller draw inline (kept by
//! [`RackLoads`](crate::RackLoads), the owner of the chiller), so an
//! arrival scores an occupied state with one division.
//! [`PlannedDispatch`] folds the same representatives under its energy
//! score.
//!
//! # Activation: the serving-mode capacity mask
//!
//! [`AutoscaleControl`](crate::AutoscaleControl) shrinks and grows the
//! placeable fleet at rack granularity: [`ServerTable`] tracks an
//! *active prefix* — racks `0..active_racks` accept placements, the rest
//! are powered down (no idle floor, no placements) but still drain any
//! running jobs. Every dispatcher filters its candidates to the active
//! prefix; at full activation the filter accepts everything, so batch
//! runs are bit-identical to the pre-activation code.

use crate::cache::SteadyState;
use crate::catalog::ClassId;
use crate::engine::OccupiedRack;
use crate::job::Job;
use tps_cooling::Chiller;
use tps_units::{Celsius, Seconds, Watts};

/// One job's demand on one server class, after per-server configuration
/// selection: the class's cached steady state plus the runtime and
/// queueing slack that follow from it.
#[derive(Debug, Clone, Copy)]
pub struct ClassDemand {
    /// The job's cached steady-state outcome on this class.
    pub state: SteadyState,
    /// Its runtime under the class's selected configuration.
    pub runtime: Seconds,
    /// The queueing slack the class's slowdown leaves within the job's
    /// QoS budget.
    pub wait_budget: Seconds,
}

/// The demand an arriving job places on the fleet: one [`ClassDemand`]
/// per catalog class (a homogeneous fleet has exactly one).
#[derive(Debug, Clone, Copy)]
pub struct JobDemand<'a> {
    /// The arriving job.
    pub job: &'a Job,
    /// Per-class demand, indexed by [`ClassId`].
    pub classes: &'a [ClassDemand],
}

impl JobDemand<'_> {
    /// The demand on one class.
    pub fn class(&self, id: ClassId) -> &ClassDemand {
        &self.classes[id]
    }
}

/// The committed load of one rack at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackView {
    /// Heat of all committed (running or queued) jobs on the rack.
    pub heat: Watts,
    /// The warmest supply satisfying every committed job, `None` if idle.
    pub supply: Option<Celsius>,
    /// Committed jobs on the rack.
    pub committed: usize,
}

/// Structure-of-arrays server state: availability and class ids as flat
/// vectors indexed by global server id, plus the per-rack distinct-class
/// lists derived from them.
///
/// This is the kernel's mutable per-server state *and* the dispatchers'
/// read-only lookup table — one contiguous layout instead of a
/// per-server struct walk.
#[derive(Debug, Clone)]
pub struct ServerTable {
    /// Earliest availability per server.
    free_at: Vec<Seconds>,
    /// Catalog class per server.
    class_of: Vec<ClassId>,
    servers_per_rack: usize,
    /// Distinct classes hosted by each rack, ascending by class id —
    /// immutable for a run, so precomputed once (the dispatch hot path
    /// must not allocate per placement).
    rack_classes: Vec<Vec<ClassId>>,
    /// Servers eligible for placement: always a whole-rack prefix
    /// (`active / servers_per_rack` leading racks). Starts at the full
    /// fleet; only the autoscaler moves it.
    active: usize,
}

impl ServerTable {
    /// Builds the table from a per-server class map; every server starts
    /// free at `t = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `servers_per_rack` is zero or does not divide the server
    /// count.
    pub fn new(class_of: Vec<ClassId>, servers_per_rack: usize) -> Self {
        assert!(servers_per_rack > 0, "a rack needs at least one server");
        assert_eq!(
            class_of.len() % servers_per_rack,
            0,
            "server count must be a whole number of racks"
        );
        let rack_classes = class_of
            .chunks(servers_per_rack)
            .map(|rack| {
                let mut out: Vec<ClassId> = Vec::new();
                for &c in rack {
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
                out.sort_unstable();
                out
            })
            .collect();
        let active = class_of.len();
        Self {
            free_at: vec![Seconds::ZERO; class_of.len()],
            class_of,
            servers_per_rack,
            rack_classes,
            active,
        }
    }

    /// Servers currently eligible for placement (a whole-rack prefix).
    pub fn active_servers(&self) -> usize {
        self.active
    }

    /// Racks currently eligible for placement (the leading
    /// `active_servers / servers_per_rack`).
    pub fn active_racks(&self) -> usize {
        self.active / self.servers_per_rack
    }

    /// Resizes the active prefix to hold at least `n` servers, rounded up
    /// to whole racks and clamped to `[1 rack, all racks]`; returns the
    /// resulting active-server count. Deactivated servers keep their
    /// `free_at` state and drain any running job, they just stop
    /// receiving placements.
    pub fn set_active_servers(&mut self, n: usize) -> usize {
        let racks = n.div_ceil(self.servers_per_rack).clamp(1, self.racks());
        self.active = racks * self.servers_per_rack;
        self.active
    }

    /// Total server count.
    pub fn len(&self) -> usize {
        self.free_at.len()
    }

    /// Whether the fleet has no servers.
    pub fn is_empty(&self) -> bool {
        self.free_at.is_empty()
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.rack_classes.len()
    }

    /// Servers per rack (global index = `rack · servers_per_rack + slot`).
    pub fn servers_per_rack(&self) -> usize {
        self.servers_per_rack
    }

    /// The catalog class of `server`.
    pub fn class_of(&self, server: usize) -> ClassId {
        self.class_of[server]
    }

    /// The rack hosting `server`.
    pub fn rack_of(&self, server: usize) -> usize {
        server / self.servers_per_rack
    }

    /// Earliest availability of `server`.
    pub fn free_at(&self, server: usize) -> Seconds {
        self.free_at[server]
    }

    /// Marks `server` busy until `t`.
    pub fn set_free_at(&mut self, server: usize, t: Seconds) {
        self.free_at[server] = t;
    }

    /// The flat per-server availability column.
    pub fn free_slice(&self) -> &[Seconds] {
        &self.free_at
    }

    /// The distinct classes hosted by `rack`, ascending by class id.
    pub fn classes_in_rack(&self, rack: usize) -> &[ClassId] {
        &self.rack_classes[rack]
    }

    /// The `class` server of `rack` that frees up first (lowest index on
    /// ties), `None` if the rack hosts no server of that class.
    pub fn earliest_free_of_class(&self, rack: usize, class: ClassId) -> Option<(usize, Seconds)> {
        let base = rack * self.servers_per_rack;
        (base..base + self.servers_per_rack)
            .filter(|&s| self.class_of[s] == class)
            .map(|s| (s, self.free_at[s]))
            .min_by(|a, b| a.1.value().total_cmp(&b.1.value()))
    }
}

/// The kernel's incremental dispatch index over the rack state: the
/// distinct committed states (ordered by heat) with their member racks,
/// and the idle racks (grouped by class pattern).
///
/// Maintained by [`RackLoads`](crate::RackLoads) as placements commit and
/// expire; see the module docs for why walking this index is
/// bit-identical to enumerating every rack.
#[derive(Debug)]
pub struct FleetIndex<'a> {
    /// One entry per distinct committed rack state `(heat bits, supply
    /// bits, group)`, an ascending sorted slice keyed `(heat bits,
    /// representative)`, where the representative is the state's lowest
    /// member rack. The heat key is the members' *view* heat (clamped
    /// non-negative), so `f64::to_bits` is monotone and the first element
    /// represents exactly the coolest-then-lowest rack. Each entry carries
    /// the fold inputs its members share inline
    /// ([`OccupiedRack`](crate::OccupiedRack)), its COP and chiller draw
    /// under [`FleetView::chiller`] included, so the candidate scan is one
    /// contiguous read.
    pub occupied: &'a [OccupiedRack],
    /// Per rack: the racks of the state it represents, ascending (the
    /// representative first), or an empty list when it represents none.
    pub members: &'a [Vec<u32>],
    /// Per-group lowest idle rack (`None` while the group has no idle
    /// racks). The sets themselves stay inside
    /// [`RackLoads`](crate::RackLoads): every dispatch decision only ever
    /// needs each group's representative — its minimum — and the cached
    /// minimum is read in O(1).
    pub idle_min: &'a [Option<u32>],
    /// Rack-group → distinct classes hosted, ascending by class id.
    pub group_classes: &'a [Vec<ClassId>],
}

/// A read-only snapshot of the fleet as one job arrives.
#[derive(Debug)]
pub struct FleetView<'a> {
    /// The arrival instant.
    pub now: Seconds,
    /// Per-rack committed load.
    pub racks: &'a [RackView],
    /// Per-server state: availability and class columns.
    pub servers: &'a ServerTable,
    /// The per-rack chiller model in force: the kernel passes
    /// [`RackLoads::chiller`](crate::RackLoads::chiller).
    pub chiller: &'a Chiller,
    /// The kernel's incremental occupancy index over
    /// [`racks`](FleetView::racks), which the ranking dispatchers walk
    /// instead of enumerating every rack. A hand-assembled view must keep
    /// it consistent with the rack views (idle racks have nothing
    /// committed and every server free, and racks that share a committed
    /// state share one entry) and the state entries' COP terms
    /// consistent with [`chiller`](FleetView::chiller).
    pub index: FleetIndex<'a>,
}

impl FleetView<'_> {
    /// The `class` server of `rack` that frees up first (lowest index on
    /// ties), `None` if the rack hosts no server of that class.
    pub fn earliest_free_of_class(&self, rack: usize, class: ClassId) -> Option<(usize, Seconds)> {
        self.servers.earliest_free_of_class(rack, class)
    }

    /// The distinct classes hosted by `rack`, ascending by class id.
    pub fn classes_in_rack(&self, rack: usize) -> &[ClassId] {
        self.servers.classes_in_rack(rack)
    }

    /// The wait a job dispatched to `server` right now would incur.
    pub fn wait_on(&self, server: usize) -> Seconds {
        Seconds::new((self.servers.free_at(server).value() - self.now.value()).max(0.0))
    }
}

/// A placement strategy for arriving jobs.
pub trait FleetDispatcher {
    /// Human-readable dispatcher name (used in report tables).
    fn name(&self) -> &'static str;

    /// Picks the global server index for `demand` given the fleet state.
    fn place(&mut self, demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize;

    /// Called once by the kernel at the start of each run; stateful
    /// dispatchers drop per-run caches here. State that intentionally
    /// carries across runs (e.g. [`RoundRobin`]'s stride counter) stays
    /// untouched by this default no-op.
    fn begin_run(&mut self) {}
}

/// Thermally blind striping: job `k` goes to server `k mod N`. Also
/// class-blind — the heterogeneity baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl FleetDispatcher for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn place(&mut self, _demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
        let server = self.next % view.servers.active_servers();
        self.next += 1;
        server
    }
}

/// Chiller electricity the rack pays per unit time if the job joins it on
/// the given class.
fn marginal_power(chiller: &Chiller, rack: &RackView, state: &SteadyState) -> f64 {
    let current = match rack.supply {
        Some(supply) => chiller.electrical_power(rack.heat, supply),
        None => Watts::ZERO,
    };
    let joint_supply = rack
        .supply
        .map_or(state.max_water_temp, |s| s.min(state.max_water_temp));
    let joint = chiller.electrical_power(rack.heat + state.heat, joint_supply);
    (joint - current).value()
}

/// The view every idle rack presents: drained racks are pinned to exact
/// zero heat, no supply, nothing committed — bit-identical across racks,
/// which is what lets one group representative stand in for all of them.
fn idle_rack_view() -> RackView {
    RackView {
        heat: Watts::new(0.0),
        supply: None,
        committed: 0,
    }
}

/// Load balancing by rack heat: the job goes to the rack currently
/// carrying the least committed heat. This is the fleet analogue of
/// temperature-balancing policies like \[9\]: it equalizes load but, like
/// round-robin, ends up mixing thermally demanding jobs into every rack.
/// Within the chosen rack it is class-*aware*: among the rack's classes
/// it takes the one with the cheapest marginal chiller power (earliest
/// free server of that class).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoolestRackFirst;

impl FleetDispatcher for CoolestRackFirst {
    fn name(&self) -> &'static str {
        "coolest-rack-first"
    }

    fn place(&mut self, demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
        let active_racks = view.servers.active_racks();
        let ix = &view.index;
        // The coolest rack in O(log racks): the lowest-index idle rack
        // (exact 0.0 heat) versus the state set's first element,
        // compared on the (heat bits, rack) key a linear scan would
        // minimize — `0.0f64.to_bits() == 0`, so an idle rack wins any tie
        // an occupied zero-heat rack doesn't win by index. Candidates past
        // the active prefix are skipped (each idle set and the state set
        // ascend by their key, and a state's key carries its lowest member,
        // so the first in-prefix element is the set's in-prefix minimum).
        let idle_min = ix
            .idle_min
            .iter()
            .filter_map(|&m| m.filter(|&r| (r as usize) < active_racks))
            .min()
            .map(|r| (0u64, r));
        let occ_min = ix
            .occupied
            .iter()
            .map(|e| e.key())
            .find(|&(_, r)| (r as usize) < active_racks);
        let rack = [idle_min, occ_min]
            .into_iter()
            .flatten()
            .min()
            .expect("at least one rack is active")
            .1 as usize;
        // One marginal-power evaluation per class (not per comparison);
        // ties break toward the lower class id.
        let class = view
            .classes_in_rack(rack)
            .iter()
            .map(|&c| {
                (
                    marginal_power(view.chiller, &view.racks[rack], &demand.class(c).state),
                    c,
                )
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .expect("racks have at least one class")
            .1;
        view.earliest_free_of_class(rack, class)
            .expect("classes_in_rack only returns hosted classes")
            .0
    }
}

/// One ranked `(rack, class)` candidate of an indexed walk, `p` its
/// score. The fold's candidates represent *every* rack of their idle
/// group or state by its lowest member; the slow path expands a state's
/// members, which wait on their own servers, but not an idle group's,
/// which all wait 0.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    p: f64,
    h: f64,
    rack: u32,
    class: u32,
}

/// The fold's initial accumulator: loses to every real candidate (`p`
/// compares by `total_cmp`, and a real fold never produces a non-finite
/// score), and its `rack` doubles as the "no candidates at all" marker.
const SENTINEL: Candidate = Candidate {
    p: f64::INFINITY,
    h: f64::INFINITY,
    rack: u32::MAX,
    class: u32::MAX,
};

/// Folds one candidate into the running minimum under the exact total
/// key the ranked walk sorts by — `(score, heat, rack, class)`. The
/// score comparison almost always decides, so the tie keys are only
/// evaluated on an exact tie.
#[inline]
fn consider(cand: Candidate, best: &mut Candidate) {
    use std::cmp::Ordering;
    let replace = match best.p.total_cmp(&cand.p) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => best
            .h
            .total_cmp(&cand.h)
            .then(best.rack.cmp(&cand.rack))
            .then(best.class.cmp(&cand.class))
            .is_gt(),
    };
    if replace {
        *best = cand;
    }
}

/// One class's fold inputs for the arriving job under the chiller in
/// force: the class's added heat, its water ceiling, `cop(max_water_temp)`,
/// and the (rack-independent) idle-rack marginal power.
#[derive(Debug, Clone, Copy)]
struct ClassInputs {
    heat: f64,
    mwt: f64,
    cop_mwt: f64,
    idle_p: f64,
}

/// The arriving job's [`ClassInputs`] on every catalog class, in class
/// order.
fn class_inputs<'a>(
    demand: &'a JobDemand<'_>,
    chiller: &'a Chiller,
) -> impl Iterator<Item = ClassInputs> + 'a {
    let idle_view = idle_rack_view();
    demand.classes.iter().map(move |cd| ClassInputs {
        heat: cd.state.heat.value(),
        mwt: cd.state.max_water_temp.value(),
        cop_mwt: chiller.cop(cd.state.max_water_temp),
        idle_p: marginal_power(chiller, &idle_view, &cd.state),
    })
}

/// The least representative `(rack, class)` candidate in the active
/// prefix under the `(score, heat, rack, class)` total key, where
/// `score(c, p)` maps class `c`'s marginal chiller power `p` to the
/// ranking score; [`SENTINEL`] when no rack is active.
///
/// The candidates are one representative per idle group and per
/// committed state. Every member of one of them has the same view heat
/// and supply and the same classes, so the same score per class, and
/// loses the `rack` tie to the representative: the fold's minimum is
/// exactly the full `(rack, class)` enumeration's first element. A
/// representative is in the active prefix exactly when any member is,
/// because it is the lowest.
///
/// The fold reads only the contiguous entries — heat, group, supply and
/// the state's COP terms travel with the representative — so scoring an
/// occupied state costs one division and no rack-indexed load.
fn fold_representatives(
    ix: &FleetIndex<'_>,
    active_racks: usize,
    lab: &[ClassInputs],
    score: impl Fn(usize, f64) -> f64,
) -> Candidate {
    let mut best = SENTINEL;
    // Idle representatives first — their scores are rack-independent
    // input reads. The fold's minimum under the strict `(p, h, rack,
    // class)` total order is the same whatever the visit order, since
    // every candidate's `(rack, class)` is unique.
    for (g, &m) in ix.idle_min.iter().enumerate() {
        let Some(first) = m.filter(|&r| (r as usize) < active_racks) else {
            continue;
        };
        for &c in &ix.group_classes[g] {
            let cand = Candidate {
                p: score(c, lab[c].idle_p),
                h: 0.0,
                rack: first,
                class: c as u32,
            };
            consider(cand, &mut best);
        }
    }
    // `heat()`/`supply()` replay the members' view fields bit-for-bit
    // (the entry caches their raw bits), and `group_classes[e.group]` is
    // `classes_in_rack(r)` of every member by construction (groups are
    // keyed on exact slice equality). Bit-identical unrolling of
    // `marginal_power`: the entry's `draw` is `electrical_power(heat,
    // supply)`, and both branches of `min(supply, max_water_temp)` replay
    // the same pure COP on the same input (a tie gives equal COP bits
    // either way). A missing supply reads as the NaN `NO_SUPPLY` bits,
    // fails the comparison and selects `cop_mwt` against a `0.0` draw,
    // like the `None` arms of `marginal_power`.
    //
    // The entries ascend by `(heat bits, representative)` and each rack's
    // classes by id, so the walk visits them in exactly the `(h, rack,
    // class)` tie order (view heats are non-negative, where `total_cmp`
    // orders like the bits): the first candidate reaching the least score
    // is their total-key minimum, and a strict less-than on the score
    // alone finds it without evaluating the tie keys. The uniform
    // catalog's single `(group, class)` is hoisted so the class constants
    // live in registers across the whole walk.
    let mut occ = SENTINEL;
    match ix.group_classes {
        [single] if single.len() == 1 => {
            let c = single[0];
            let sc = lab[c];
            for e in ix.occupied.iter() {
                if e.rack as usize >= active_racks {
                    continue;
                }
                let h = e.heat();
                let joint_cop = if f64::from_bits(e.supply_bits) <= sc.mwt {
                    e.cop
                } else {
                    sc.cop_mwt
                };
                let p = score(c, (h + sc.heat) / joint_cop - e.draw);
                if p.total_cmp(&occ.p).is_lt() {
                    occ = Candidate {
                        p,
                        h,
                        rack: e.rack,
                        class: c as u32,
                    };
                }
            }
        }
        _ => {
            for e in ix.occupied.iter() {
                if e.rack as usize >= active_racks {
                    continue;
                }
                let h = e.heat();
                let supply = f64::from_bits(e.supply_bits);
                for &c in &ix.group_classes[e.group as usize] {
                    let sc = &lab[c];
                    let joint_cop = if supply <= sc.mwt { e.cop } else { sc.cop_mwt };
                    let p = score(c, (h + sc.heat) / joint_cop - e.draw);
                    if p.total_cmp(&occ.p).is_lt() {
                        occ = Candidate {
                            p,
                            h,
                            rack: e.rack,
                            class: c as u32,
                        };
                    }
                }
            }
        }
    }
    consider(occ, &mut best);
    best
}

/// The fold winner's earliest free server, if there is a winner and that
/// server meets its class's wait budget.
fn accept(best: Candidate, demand: &JobDemand<'_>, view: &FleetView<'_>) -> Option<usize> {
    if best.rack == u32::MAX {
        return None;
    }
    let (server, _) = view
        .earliest_free_of_class(best.rack as usize, best.class as usize)
        .expect("the index only lists hosted classes");
    (view.wait_on(server) <= demand.class(best.class as usize).wait_budget).then_some(server)
}

/// The paper's policy, lifted to the fleet: rank `(rack, class)` slots by
/// the *marginal chiller electrical power* of accepting the job there —
/// accounting for the class-specific heat, the supply-temperature drop
/// the job forces on every co-hosted watt, and the class's QoS slack —
/// and take the cheapest slot whose queue still meets the job's wait
/// budget.
///
/// The effect is thermal segregation in two dimensions: jobs that
/// tolerate warm water gather on racks (and hardware bins) that free-cool
/// or run at high COP, while the few jobs that need cold supply are
/// concentrated instead of contaminating every rack.
///
/// The ranking is built from the [`FleetIndex`]'s committed states, each
/// carrying its COP terms inline, plus one representative per idle rack
/// group — bit-identical to the full `(rack, class)` enumeration (see the
/// module docs).
#[derive(Debug, Default)]
pub struct ThermalAwareDispatch {
    ranked: Vec<Candidate>,
    /// The arriving job's per-class fold inputs, refilled on every
    /// arrival. Flattening them into one contiguous record keeps the hot
    /// loop off the scattered `ClassDemand`/`SteadyState` structs.
    inputs: Vec<ClassInputs>,
}

impl ThermalAwareDispatch {
    /// Scores candidates from the incremental index and picks the
    /// cheapest slot meeting its wait budget.
    ///
    /// Fast path first: [`fold_representatives`] under the marginal
    /// power itself. The key is a total order, so the fold's minimum is
    /// exactly the sorted ranking's first element. When that winner meets
    /// its wait budget (the overwhelmingly common case) no ranking is
    /// materialized at all; otherwise [`walk_indexed`](Self::walk_indexed)
    /// rebuilds and walks the full sorted ranking, bit-identical to the
    /// fold's order.
    fn place_indexed(&mut self, demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
        self.inputs.clear();
        self.inputs.extend(class_inputs(demand, view.chiller));
        let active_racks = view.servers.active_racks();
        let best = fold_representatives(&view.index, active_racks, &self.inputs, |_, p| p);
        accept(best, demand, view).unwrap_or_else(|| self.walk_indexed(demand, view))
    }

    /// The indexed slow path, taken only when the fold's winner blows its
    /// wait budget: materialize the full candidate list (every active
    /// member of every state, plus the idle representatives), score each
    /// with [`marginal_power`], sort it under the fold's key, and walk it
    /// in order. The members of one state score alike but wait on their
    /// own servers, so each is a candidate of its own.
    fn walk_indexed(&mut self, demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
        let ix = &view.index;
        let active_racks = view.servers.active_racks();
        self.ranked.clear();
        for e in ix.occupied.iter() {
            let members = ix.members[e.rack as usize].iter();
            for &m in members.take_while(|&&m| (m as usize) < active_racks) {
                let rack = &view.racks[m as usize];
                for &c in view.servers.classes_in_rack(m as usize) {
                    self.ranked.push(Candidate {
                        p: marginal_power(view.chiller, rack, &demand.class(c).state),
                        h: rack.heat.value(),
                        rack: m,
                        class: c as u32,
                    });
                }
            }
        }
        let idle_view = idle_rack_view();
        for (g, &m) in ix.idle_min.iter().enumerate() {
            // The group representative is its lowest *active* rack: the
            // representative argument (bit-identical views, identical
            // wait checks) holds within the active prefix just as well
            // (the sets ascend, so a cached minimum past the prefix means
            // no member is inside it).
            let Some(first) = m.filter(|&r| (r as usize) < active_racks) else {
                continue;
            };
            for &c in &ix.group_classes[g] {
                self.ranked.push(Candidate {
                    p: marginal_power(view.chiller, &idle_view, &demand.class(c).state),
                    h: 0.0,
                    rack: first,
                    class: c as u32,
                });
            }
        }
        // The same total order the full enumeration sorts by — within an
        // equal (power, heat) run, a group entry stands at its lowest
        // rack's position, and skipping the rest of a failed group is
        // sound because its members fail the wait check identically.
        self.ranked.sort_unstable_by(|a, b| {
            a.p.total_cmp(&b.p)
                .then(a.h.total_cmp(&b.h))
                .then(a.rack.cmp(&b.rack))
                .then(a.class.cmp(&b.class))
        });
        for c in &self.ranked {
            let (server, _) = view
                .earliest_free_of_class(c.rack as usize, c.class as usize)
                .expect("the index only lists hosted classes");
            if view.wait_on(server) <= demand.class(c.class as usize).wait_budget {
                return server;
            }
        }
        fallback_min_free(view)
    }
}

/// Every queue blows the deadline anyway: the active server that frees
/// up soonest (minimize the violation).
fn fallback_min_free(view: &FleetView<'_>) -> usize {
    let free = view.servers.free_slice();
    (0..view.servers.active_servers())
        .min_by(|&a, &b| free[a].value().total_cmp(&free[b].value()))
        .expect("at least one server is active")
}

impl FleetDispatcher for ThermalAwareDispatch {
    fn name(&self) -> &'static str {
        "thermal-aware"
    }

    fn place(&mut self, demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
        self.place_indexed(demand, view)
    }
}

/// Per-arrival total-energy dispatch: the greedy single-job projection of
/// the planner's objective. Where [`ThermalAwareDispatch`] ranks slots by
/// marginal chiller *power*, this ranks them by the job's total *energy*
/// — `runtime × (package power + marginal chiller power)` — so a faster
/// class can win even at a worse instantaneous COP. It is what the
/// planner degrades to on a one-job horizon, and the natural companion
/// dispatcher when `PlannerControl` hints miss (`dispatcher = "planned"`).
///
/// It ranks on the same index as [`ThermalAwareDispatch`]: the energy
/// reads a slot's rack only through its marginal power, so one
/// representative stands for every member of an idle group or committed
/// state here too.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannedDispatch;

impl FleetDispatcher for PlannedDispatch {
    fn name(&self) -> &'static str {
        "planned"
    }

    fn place(&mut self, demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
        // Fast path: the representatives' least energy under the full
        // `(energy, heat, rack, class)` key, which is the enumeration's
        // first element below.
        let inputs: Vec<ClassInputs> = class_inputs(demand, view.chiller).collect();
        let energy = |c: usize, p: f64| {
            let d = demand.class(c);
            d.runtime.value() * (d.state.package_power.value() + p)
        };
        let best = fold_representatives(&view.index, view.servers.active_racks(), &inputs, energy);
        if let Some(server) = accept(best, demand, view) {
            return server;
        }
        let mut ranked: Vec<(f64, f64, usize, ClassId)> = Vec::new();
        for i in 0..view.servers.active_racks() {
            let rack = &view.racks[i];
            for &class in view.classes_in_rack(i) {
                let d = demand.class(class);
                let energy = d.runtime.value()
                    * (d.state.package_power.value()
                        + marginal_power(view.chiller, rack, &d.state));
                ranked.push((energy, rack.heat.value(), i, class));
            }
        }
        // Cheapest total energy first; lighter rack, then rack index, then
        // class id, on ties — the same deterministic total order the
        // thermal-aware ranking uses.
        ranked.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        for &(_, _, rack, class) in &ranked {
            let (server, _) = view
                .earliest_free_of_class(rack, class)
                .expect("classes_in_rack only returns hosted classes");
            if view.wait_on(server) <= demand.class(class).wait_budget {
                return server;
            }
        }
        fallback_min_free(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_workload::{Benchmark, QosClass};

    fn steady(heat: f64, max_water: f64) -> SteadyState {
        SteadyState {
            package_power: Watts::new(heat),
            heat: Watts::new(heat),
            max_water_temp: Celsius::new(max_water),
            normalized_time: 1.0,
            n_cores: 8,
            die_max: Celsius::new(70.0),
        }
    }

    fn demand(heat: f64, max_water: f64, budget: f64) -> Vec<ClassDemand> {
        vec![ClassDemand {
            state: steady(heat, max_water),
            runtime: Seconds::new(30.0),
            wait_budget: Seconds::new(budget),
        }]
    }

    fn job() -> Job {
        Job {
            id: 0,
            bench: Benchmark::X264,
            qos: QosClass::TwoX,
            arrival: Seconds::ZERO,
            service: Seconds::new(30.0),
        }
    }

    fn table(class_of: Vec<ClassId>, per_rack: usize, free: &[f64]) -> ServerTable {
        let mut t = ServerTable::new(class_of, per_rack);
        for (s, &f) in free.iter().enumerate() {
            t.set_free_at(s, Seconds::new(f));
        }
        t
    }

    /// Owns the [`FleetIndex`] the kernel would maintain for hand-built
    /// rack views: one entry per distinct committed `(heat bits, supply
    /// bits, group)` state ordered by `(heat bits, representative)`, each
    /// state's members, and the lowest idle rack of each class pattern.
    struct Index {
        occupied: Vec<OccupiedRack>,
        members: Vec<Vec<u32>>,
        idle_min: Vec<Option<u32>>,
        group_classes: Vec<Vec<ClassId>>,
    }

    impl Index {
        fn of(racks: &[RackView], servers: &ServerTable, chiller: &Chiller) -> Self {
            let mut group_classes: Vec<Vec<ClassId>> = Vec::new();
            let mut group_of = Vec::new();
            for r in 0..racks.len() {
                let classes = servers.classes_in_rack(r);
                let g = match group_classes.iter().position(|g| g.as_slice() == classes) {
                    Some(g) => g,
                    None => {
                        group_classes.push(classes.to_vec());
                        group_classes.len() - 1
                    }
                };
                group_of.push(g as u32);
            }
            let mut idle_min = vec![None; group_classes.len()];
            let mut occupied: Vec<OccupiedRack> = Vec::new();
            let mut members = vec![Vec::new(); racks.len()];
            for (r, v) in racks.iter().enumerate() {
                let group = group_of[r];
                if v.committed == 0 {
                    idle_min[group as usize].get_or_insert(r as u32);
                    continue;
                }
                let entry = OccupiedRack::new(r as u32, group, v, chiller);
                let same = |e: &&OccupiedRack| {
                    (e.heat_bits, e.supply_bits, e.group)
                        == (entry.heat_bits, entry.supply_bits, group)
                };
                match occupied.iter().find(same) {
                    Some(e) => members[e.rack as usize].push(r as u32),
                    None => {
                        occupied.push(entry);
                        members[r].push(r as u32);
                    }
                }
            }
            occupied.sort_by_key(OccupiedRack::key);
            Self {
                occupied,
                members,
                idle_min,
                group_classes,
            }
        }

        fn view<'a>(
            &'a self,
            racks: &'a [RackView],
            servers: &'a ServerTable,
            chiller: &'a Chiller,
        ) -> FleetView<'a> {
            FleetView {
                now: Seconds::ZERO,
                racks,
                servers,
                chiller,
                index: FleetIndex {
                    occupied: &self.occupied,
                    members: &self.members,
                    idle_min: &self.idle_min,
                    group_classes: &self.group_classes,
                },
            }
        }
    }

    /// The full `(rack, class)` enumeration the indexed thermal-aware
    /// walk must reproduce: every active slot ranked by marginal chiller
    /// power (lighter rack, then rack index, then class id on ties), the
    /// cheapest one that honours its class's wait budget taken.
    fn scan_thermal(demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
        let mut ranked: Vec<(f64, f64, usize, ClassId)> = Vec::new();
        for i in 0..view.servers.active_racks() {
            let rack = &view.racks[i];
            for &class in view.classes_in_rack(i) {
                ranked.push((
                    marginal_power(view.chiller, rack, &demand.class(class).state),
                    rack.heat.value(),
                    i,
                    class,
                ));
            }
        }
        ranked.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        for &(_, _, rack, class) in &ranked {
            let (server, _) = view.earliest_free_of_class(rack, class).unwrap();
            if view.wait_on(server) <= demand.class(class).wait_budget {
                return server;
            }
        }
        fallback_min_free(view)
    }

    /// The linear scan [`CoolestRackFirst`]'s index lookup must
    /// reproduce: the active rack with the least committed heat (lowest
    /// index on ties), then its cheapest class.
    fn scan_coolest(demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
        let rack = (0..view.servers.active_racks())
            .min_by(|&a, &b| {
                let heat = |r: usize| view.racks[r].heat.value();
                heat(a).total_cmp(&heat(b))
            })
            .unwrap();
        let class = view
            .classes_in_rack(rack)
            .iter()
            .map(|&c| {
                let p = marginal_power(view.chiller, &view.racks[rack], &demand.class(c).state);
                (p, c)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .unwrap()
            .1;
        view.earliest_free_of_class(rack, class).unwrap().0
    }

    #[test]
    fn round_robin_cycles() {
        let j = job();
        let racks = vec![idle_rack_view(); 2];
        let servers = table(vec![0; 4], 2, &[0.0; 4]);
        let chiller = Chiller::default();
        let ix = Index::of(&racks, &servers, &chiller);
        let view = ix.view(&racks, &servers, &chiller);
        let mut rr = RoundRobin::default();
        let classes = demand(70.0, 64.0, 30.0);
        let d = JobDemand {
            job: &j,
            classes: &classes,
        };
        let picks: Vec<usize> = (0..5).map(|_| rr.place(&d, &view)).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn planned_dispatch_minimizes_total_energy_not_marginal_power() {
        let j = job();
        // Rack 0 hosts class 0 (cool but slow), rack 1 hosts class 1
        // (hotter but finishes in half the time).
        let racks = vec![idle_rack_view(); 2];
        let servers = table(vec![0, 1], 1, &[0.0; 2]);
        let chiller = Chiller::default();
        let ix = Index::of(&racks, &servers, &chiller);
        let view = ix.view(&racks, &servers, &chiller);
        let classes = vec![
            ClassDemand {
                state: steady(100.0, 60.0),
                runtime: Seconds::new(30.0),
                wait_budget: Seconds::new(30.0),
            },
            ClassDemand {
                state: steady(150.0, 60.0),
                runtime: Seconds::new(15.0),
                wait_budget: Seconds::new(30.0),
            },
        ];
        let d = JobDemand {
            job: &j,
            classes: &classes,
        };
        // Marginal chiller power favors the cooler class 0…
        assert_eq!(scan_thermal(&d, &view), 0);
        assert_eq!(ThermalAwareDispatch::default().place(&d, &view), 0);
        // …but total energy (runtime × power) favors the faster class 1.
        let mut planned = PlannedDispatch;
        assert_eq!(planned.place(&d, &view), 1);
    }

    #[test]
    fn coolest_rack_first_picks_the_lightest_rack() {
        let j = job();
        let racks = vec![
            RackView {
                heat: Watts::new(150.0),
                supply: Some(Celsius::new(70.0)),
                committed: 2,
            },
            RackView {
                heat: Watts::new(20.0),
                supply: Some(Celsius::new(75.0)),
                committed: 1,
            },
        ];
        let servers = table(vec![0; 4], 2, &[0.0, 0.0, 5.0, 0.0]);
        let chiller = Chiller::default();
        let ix = Index::of(&racks, &servers, &chiller);
        let view = ix.view(&racks, &servers, &chiller);
        let classes = demand(70.0, 70.0, 30.0);
        let d = JobDemand {
            job: &j,
            classes: &classes,
        };
        assert_eq!(CoolestRackFirst.place(&d, &view), 3);
    }

    /// Rack 0 already runs cold water; rack 1 free-cools at 75 °C.
    fn cold_and_warm_racks() -> Vec<RackView> {
        vec![
            RackView {
                heat: Watts::new(70.0),
                supply: Some(Celsius::new(60.0)),
                committed: 1,
            },
            RackView {
                heat: Watts::new(70.0),
                supply: Some(Celsius::new(75.0)),
                committed: 1,
            },
        ]
    }

    #[test]
    fn thermal_aware_segregates_a_cold_demanding_job() {
        let j = job();
        let racks = cold_and_warm_racks();
        let servers = table(vec![0; 4], 2, &[0.0; 4]);
        // Heat-reuse loop at 60 °C: supplies below 65 °C pay compressor lift.
        let chiller = Chiller::new(Celsius::new(60.0));
        let ix = Index::of(&racks, &servers, &chiller);
        let view = ix.view(&racks, &servers, &chiller);
        let mut ta = ThermalAwareDispatch::default();
        // A job needing 60 °C water joins the already-cold rack 0…
        let cold = demand(70.0, 60.0, 30.0);
        let d = JobDemand {
            job: &j,
            classes: &cold,
        };
        let pick = ta.place(&d, &view);
        assert!(pick < 2, "cold job went to rack {}", pick / 2);
        // …while a warm-tolerant job joins the free-cooling rack 1.
        let warm = demand(70.0, 76.0, 30.0);
        let d = JobDemand {
            job: &j,
            classes: &warm,
        };
        let pick = ta.place(&d, &view);
        assert!(pick >= 2, "warm job went to rack {}", pick / 2);
    }

    #[test]
    fn thermal_aware_respects_the_wait_budget() {
        let j = job();
        // The cold job's thermally ideal rack 0 is saturated for 100 s;
        // rack 1 has a free server.
        let racks = cold_and_warm_racks();
        let servers = table(vec![0; 4], 2, &[100.0, 100.0, 0.0, 20.0]);
        let chiller = Chiller::new(Celsius::new(60.0));
        let ix = Index::of(&racks, &servers, &chiller);
        let view = ix.view(&racks, &servers, &chiller);
        let classes = demand(70.0, 60.0, 10.0);
        let d = JobDemand {
            job: &j,
            classes: &classes,
        };
        let pick = ThermalAwareDispatch::default().place(&d, &view);
        assert_eq!(pick, 2, "budget-violating rack chosen");
        assert_eq!(pick, scan_thermal(&d, &view));
    }

    #[test]
    fn thermal_aware_picks_the_cheaper_class_within_one_rack() {
        let j = job();
        // One rack, two classes side by side. On class 0 the job needs
        // 60 °C water (compressor lift against the 60 °C reuse loop); on
        // class 1 it tolerates 76 °C (free cooling).
        let racks = vec![idle_rack_view()];
        let servers = table(vec![0, 1], 2, &[0.0; 2]);
        let chiller = Chiller::new(Celsius::new(60.0));
        let ix = Index::of(&racks, &servers, &chiller);
        let view = ix.view(&racks, &servers, &chiller);
        let classes = vec![
            ClassDemand {
                state: steady(70.0, 60.0),
                runtime: Seconds::new(30.0),
                wait_budget: Seconds::new(30.0),
            },
            ClassDemand {
                state: steady(70.0, 76.0),
                runtime: Seconds::new(30.0),
                wait_budget: Seconds::new(30.0),
            },
        ];
        let d = JobDemand {
            job: &j,
            classes: &classes,
        };
        assert_eq!(ThermalAwareDispatch::default().place(&d, &view), 1);
        // CoolestRackFirst agrees once the (single) rack is fixed.
        assert_eq!(CoolestRackFirst.place(&d, &view), 1);
    }

    #[test]
    fn class_helpers_report_rack_composition() {
        let racks = vec![idle_rack_view(); 2];
        let servers = table(vec![1, 1, 0, 1], 2, &[4.0, 2.0, 0.0, 0.0]);
        let chiller = Chiller::default();
        let ix = Index::of(&racks, &servers, &chiller);
        let view = ix.view(&racks, &servers, &chiller);
        assert_eq!(view.classes_in_rack(0), vec![1]);
        assert_eq!(view.classes_in_rack(1), vec![0, 1]);
        assert_eq!(
            view.earliest_free_of_class(0, 1),
            Some((1, Seconds::new(2.0)))
        );
        assert_eq!(view.earliest_free_of_class(0, 0), None);
        assert_eq!(view.earliest_free_of_class(1, 0), Some((2, Seconds::ZERO)));
        assert_eq!(servers.rack_of(3), 1);
        assert_eq!(servers.class_of(2), 0);
        assert_eq!(servers.racks(), 2);
    }

    #[test]
    fn activation_rounds_to_racks_and_masks_every_dispatcher() {
        let mut t = table(vec![0; 8], 2, &[0.0; 8]);
        assert_eq!(t.active_servers(), 8);
        assert_eq!(t.active_racks(), 4);
        // Requests round up to whole racks and clamp to [1 rack, all].
        assert_eq!(t.set_active_servers(3), 4);
        assert_eq!(t.active_racks(), 2);
        assert_eq!(t.set_active_servers(0), 2);
        assert_eq!(t.set_active_servers(100), 8);
        t.set_active_servers(4);

        let j = job();
        // Rack 1 (active) is hot; racks 2–3 (inactive) are idle and would
        // win every heat comparison if the mask leaked.
        let racks = vec![
            RackView {
                heat: Watts::new(90.0),
                supply: Some(Celsius::new(70.0)),
                committed: 1,
            },
            RackView {
                heat: Watts::new(40.0),
                supply: Some(Celsius::new(70.0)),
                committed: 1,
            },
            idle_rack_view(),
            idle_rack_view(),
        ];
        let chiller = Chiller::default();
        let ix = Index::of(&racks, &t, &chiller);
        let view = ix.view(&racks, &t, &chiller);
        let classes = demand(70.0, 76.0, 0.0);
        let d = JobDemand {
            job: &j,
            classes: &classes,
        };
        let mut rr = RoundRobin::default();
        for i in 0..8 {
            assert_eq!(rr.place(&d, &view), i % 4, "round-robin leaked");
        }
        assert!(CoolestRackFirst.place(&d, &view) < 4, "coolest leaked");
        assert!(
            ThermalAwareDispatch::default().place(&d, &view) < 4,
            "thermal-aware leaked"
        );
        assert!(fallback_min_free(&view) < 4, "fallback leaked");
    }

    #[test]
    fn indexed_dispatch_matches_the_full_scan() {
        // Two rack groups — racks {0,1} host class 0, racks {2,3} host
        // both — with rack 1 committed and the rest idle. The indexed
        // walk (group representatives + occupied racks) must pick
        // exactly what the full enumeration picks, for
        // cold and warm demands alike, across repeated calls.
        let j = job();
        let racks = vec![
            idle_rack_view(),
            RackView {
                heat: Watts::new(140.0),
                supply: Some(Celsius::new(60.0)),
                committed: 2,
            },
            idle_rack_view(),
            idle_rack_view(),
        ];
        let servers = table(vec![0, 0, 0, 0, 0, 1, 0, 1], 2, &[0.0; 8]);
        let chiller = Chiller::new(Celsius::new(60.0));
        let ix = Index::of(&racks, &servers, &chiller);
        assert_eq!(ix.group_classes, vec![vec![0usize], vec![0, 1]]);
        assert_eq!(ix.idle_min, vec![Some(0), Some(2)]);
        let view = ix.view(&racks, &servers, &chiller);
        let mut ta = ThermalAwareDispatch::default();
        for (case, (heat, water)) in [(70.0, 60.0), (70.0, 76.0), (120.0, 55.0)]
            .into_iter()
            .enumerate()
        {
            let classes = vec![
                ClassDemand {
                    state: steady(heat, water),
                    runtime: Seconds::new(30.0),
                    wait_budget: Seconds::new(30.0),
                },
                ClassDemand {
                    state: steady(heat * 0.9, water + 8.0),
                    runtime: Seconds::new(33.0),
                    wait_budget: Seconds::new(27.0),
                },
            ];
            let d = JobDemand {
                job: &j,
                classes: &classes,
            };
            for _ in 0..3 {
                assert_eq!(ta.place(&d, &view), scan_thermal(&d, &view), "case {case}");
                assert_eq!(
                    CoolestRackFirst.place(&d, &view),
                    scan_coolest(&d, &view),
                    "case {case}"
                );
            }
        }

        // Under an active-prefix mask (racks 0–1 only) the indexed walk
        // must keep matching the scan: group {2,3} loses its
        // representative entirely, occupied rack 1 stays.
        let mut masked = table(vec![0, 0, 0, 0, 0, 1, 0, 1], 2, &[0.0; 8]);
        masked.set_active_servers(4);
        let view = ix.view(&racks, &masked, &chiller);
        let classes = vec![
            ClassDemand {
                state: steady(70.0, 60.0),
                runtime: Seconds::new(30.0),
                wait_budget: Seconds::new(30.0),
            },
            ClassDemand {
                state: steady(63.0, 68.0),
                runtime: Seconds::new(33.0),
                wait_budget: Seconds::new(27.0),
            },
        ];
        let d = JobDemand {
            job: &j,
            classes: &classes,
        };
        let pick = ThermalAwareDispatch::default().place(&d, &view);
        assert_eq!(pick, scan_thermal(&d, &view));
        assert!(pick < 4, "mask leaked through the index");
        assert_eq!(CoolestRackFirst.place(&d, &view), scan_coolest(&d, &view));
    }
}
