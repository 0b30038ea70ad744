//! The discrete-event simulation kernel: a deterministic event queue, the
//! mutable `FleetState` it drives, and the main loop that turns a job
//! stream plus a [`ControlPolicy`](crate::ControlPolicy) into placements
//! — whose energy is integrated as they happen — and (optionally) a
//! telemetry trace.
//!
//! Everything in here is sequential and byte-deterministic: events are
//! handled in a stable `(time, class, seq)` order, so two runs of the
//! same inputs — at any thread count — replay the identical event
//! sequence and produce bit-identical floats. The six event kinds and
//! their same-instant ordering:
//!
//! 1. [`Event::JobStart`] — a placement starts executing; the running
//!    layer folds it in before anything else sees that instant.
//! 2. [`Event::JobCompletion`] — a server finishes a job; committed rack
//!    load expires and the running layer folds the placement out before
//!    set-points, ticks, samples or arrivals see that instant (a
//!    placement covers `[start, end)`).
//! 3. [`Event::SetpointChange`] — the chiller/heat-reuse set-point moves;
//!    later dispatch decisions and energy windows see the new chiller.
//! 4. [`Event::ControlTick`] — the control policy observes the fleet and
//!    may emit actions.
//! 5. [`Event::TelemetrySample`] — a [`FleetSample`] is recorded.
//! 6. [`Event::JobArrival`] — the dispatcher places the job against the
//!    committed fleet state.
//!
//! Each placement boundary has exactly one time-ordered home:
//!
//! - **Arrivals** come from the stream sorted once by `(arrival, id)`,
//!   through a cursor merged with the [`EventQueue`](crate::EventQueue):
//!   an arrival is handled only when it is strictly earlier than the
//!   queue's head, which is where the arrival class, last at every
//!   instant, would pop it.
//! - **Ends** live in the committed layer's heap ([`RackLoads`]), keyed
//!   `(end, rack, seq)`. Each pop expires the committed load and hands
//!   the end to the energy integrator, whose own heap holds only starts
//!   and set-point/activation changes. That key keeps each rack's expiry
//!   order (the committed sums are per rack) and is the integrator's own
//!   removal order.
//! - **Closed-loop starts and completions** are queue events for the
//!   running layer, except that a start at its own dispatch instant folds
//!   in place: nothing else at that instant is still queued, so it would
//!   have been the next pop. Open-loop runs (no ticks, no telemetry) have
//!   no running layer to fold and push neither.

use crate::cache::SteadyState;
use crate::catalog::ClassId;
use crate::control::{ControlAction, ControlPolicy, ControlStatus, PlacementHint, RunContext};
use crate::dispatch::{
    ClassDemand, FleetDispatcher, FleetIndex, FleetView, JobDemand, RackView, ServerTable,
};
use crate::fleet::{Fleet, FleetConfig};
use crate::job::{pair_index, Job};
use crate::load::{Load, RackLoad, Running, Tally};
use crate::metrics::{
    EnergyIntegrator, FleetSample, FleetTrace, KernelStats, LatencyHistogram, Placement,
    ServingOutcome, ServingSample, SimResult, TelemetryConfig,
};
use crate::queue::EventQueue;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tps_cooling::Chiller;
use tps_core::RunError;
use tps_units::{Celsius, Seconds, Watts};
use tps_workload::{Benchmark, QosClass};

/// A typed simulation event.
///
/// Events carry only identities; the payloads they act on (committed rack
/// load, the running layer, the chiller) live in the kernel's
/// `FleetState`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A placement starts executing on a server (the running layer folds
    /// its load in). The kernel queues only starts later than their
    /// dispatch instant; the rest fold in place.
    JobStart {
        /// The job's index into the simulated stream.
        job: usize,
        /// The global server index it runs on.
        server: usize,
    },
    /// A job finishes executing on a server (its committed rack load
    /// expires at this instant and the running layer folds it out).
    JobCompletion {
        /// The job's index into the simulated stream.
        job: usize,
        /// The global server index it ran on.
        server: usize,
    },
    /// The chiller/heat-reuse set-point changes to the given temperature.
    SetpointChange(Celsius),
    /// The control policy is evaluated against a fleet snapshot.
    ControlTick,
    /// A telemetry sample is recorded into the trace ring.
    TelemetrySample,
    /// A job (index into the simulated stream) arrives at the front-end.
    /// The kernel reads arrivals off its sorted stream instead of queueing
    /// them.
    JobArrival(usize),
}

impl Event {
    /// Same-instant ordering class (lower runs first); see the module
    /// docs for the rationale of the order.
    pub(crate) fn class(&self) -> u8 {
        match self {
            Event::JobStart { .. } => 0,
            Event::JobCompletion { .. } => 1,
            Event::SetpointChange(_) => 2,
            Event::ControlTick => 3,
            Event::TelemetrySample => 4,
            Event::JobArrival(_) => 5,
        }
    }
}

/// A committed placement waiting in the [`RackLoads`] end heap, ordered
/// by `(end bits, rack, seq)`. The unique commit seq makes the key total.
/// It carries the placement's [`Load`] for both layers its end reaches,
/// and whether the energy integrator sees it (a placement with
/// `end > start`).
#[derive(Debug, Clone, Copy)]
struct Ending {
    end: u64,
    seq: u64,
    load: Load,
    integrates: bool,
}

impl Ending {
    fn key(&self) -> (u64, usize, u64) {
        (self.end, self.load.rack, self.seq)
    }
}

impl Ord for Ending {
    /// Reversed, so the std max-heap pops the least key first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Ending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ending {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Ending {}

/// Incremental per-rack committed load: every placement that has not
/// finished (running or still queued) counts against its rack until its
/// end time expires. Keeps dispatch O(states + log jobs) per arrival
/// instead of rescanning all placements.
///
/// Its end heap, keyed `(end, rack, commit order)`, is the kernel's only
/// time order of placement ends: [`expire_until`](Self::expire_until)
/// drops every end that is due, and the kernel's own expiry also hands
/// each end on to the energy integrator.
///
/// Beyond the per-rack sums, the structure maintains the kernel's
/// *dispatch index* incrementally: the current [`RackView`] per rack, one
/// entry per distinct committed rack state `(view-heat bits, supply bits,
/// rack group)` ordered by `(heat bits, representative)`, each state's
/// member racks, and the idle racks per rack group. Each placement or
/// expiry touches exactly one rack, so the index updates in O(log racks)
/// plus a shift of the entries and members in between — this is what
/// lets dispatchers skip the per-arrival full-fleet rescan.
///
/// It also owns the run's chiller: every state entry carries its COP and
/// chiller draw under that chiller ([`OccupiedRack::cop`],
/// [`OccupiedRack::draw`]), computed when the state is created and, for
/// every entry, on [`set_chiller`](Self::set_chiller).
#[derive(Debug)]
pub struct RackLoads {
    /// Each rack's committed load.
    racks: Vec<RackLoad>,
    ends: BinaryHeap<Ending>,
    seq: u64,
    total: usize,
    /// The current dispatch view per rack, kept exactly equal to what a
    /// from-scratch rebuild would produce (heat clamped non-negative,
    /// coldest committed water, committed count).
    views: Vec<RackView>,
    /// One entry per distinct committed state, an ascending sorted vector
    /// keyed `(view-heat bits, representative)` — the clamped heat is
    /// non-negative, so `to_bits` sorts like the float, and the
    /// representative is the state's lowest member. A vector, not a tree:
    /// dispatchers scan it on every arrival, and a mutation shifts only
    /// the few states between a key's old and new slots.
    occupied: Vec<OccupiedRack>,
    /// `members[r]` lists the racks of the state `r` represents,
    /// ascending, and is empty for every other rack. A list moves with
    /// its representative by a swap of slots, so its buffer is reused.
    members: Vec<Vec<u32>>,
    /// Idle racks per rack group.
    idle: Vec<IdleRacks>,
    /// Each group's lowest idle rack, read in O(1) on every arrival.
    idle_min: Vec<Option<u32>>,
    /// Rack → rack-group id.
    group_of: Vec<u32>,
    /// Rack → its position in its group's [`IdleRacks::racks`].
    slot_of: Vec<u32>,
    chiller: Chiller,
}

/// One rack group's idle racks: a bitset over the group's racks, whose
/// ascending order makes bit order rack order.
#[derive(Debug, Default)]
struct IdleRacks {
    /// The group's racks, ascending.
    racks: Vec<u32>,
    /// Bit `i` is set while `racks[i]` is idle.
    bits: Vec<u64>,
}

/// One entry of the dispatch index: a distinct committed rack state, its
/// sort key `(heat bits, representative)` plus the fold inputs every
/// member shares, denormalized inline so a per-arrival candidate scan is
/// a single contiguous read. The fields replay each member's
/// [`RackView`] bit-for-bit: `heat_bits` is the view heat's `to_bits`
/// (clamped non-negative, so the sort order matches the float) and
/// `supply_bits` the view supply's, with [`Self::NO_SUPPLY`] standing in
/// for `None`. `cop` and `draw` are the chiller terms of that view under
/// the [`RackLoads`]' chiller (see [`Self::new`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupiedRack {
    /// `to_bits` of the members' clamped committed heat (key, major).
    pub heat_bits: u64,
    /// The state's representative: its lowest member rack (key, minor —
    /// makes the key total).
    pub rack: u32,
    /// The members' group id (their class pattern).
    pub group: u32,
    /// `to_bits` of the members' coldest committed water demand, or
    /// [`Self::NO_SUPPLY`] when they have none.
    pub supply_bits: u64,
    /// `chiller.cop(supply)`, `NaN` without a supply.
    pub cop: f64,
    /// A member's current chiller draw `heat / cop` — bit-for-bit
    /// `chiller.electrical_power(heat, supply)` — or `0.0` without a
    /// supply.
    pub draw: f64,
}

impl OccupiedRack {
    /// Sentinel for "no supply" — an all-ones NaN pattern no real
    /// temperature produces.
    pub const NO_SUPPLY: u64 = u64::MAX;

    /// The entry of the state represented by `rack` (in `group`) whose
    /// members' view is `view`, its chiller terms evaluated under
    /// `chiller`.
    pub fn new(rack: u32, group: u32, view: &RackView, chiller: &Chiller) -> Self {
        let mut entry = Self {
            heat_bits: view.heat.value().to_bits(),
            rack,
            group,
            supply_bits: view.supply.map_or(Self::NO_SUPPLY, |s| s.value().to_bits()),
            cop: f64::NAN,
            draw: 0.0,
        };
        entry.refresh(chiller);
        entry
    }

    /// Re-evaluates `cop` and `draw` under `chiller`.
    #[inline]
    pub fn refresh(&mut self, chiller: &Chiller) {
        if let Some(supply) = self.supply() {
            self.cop = chiller.cop(supply);
            self.draw = self.heat() / self.cop;
        } else {
            self.cop = f64::NAN;
            self.draw = 0.0;
        }
    }

    /// The sort key.
    #[inline]
    pub fn key(&self) -> (u64, u32) {
        (self.heat_bits, self.rack)
    }

    /// The members' committed heat, exactly their [`RackView`]'s.
    #[inline]
    pub fn heat(&self) -> f64 {
        f64::from_bits(self.heat_bits)
    }

    /// The members' supply, exactly their [`RackView`]'s.
    #[inline]
    pub fn supply(&self) -> Option<Celsius> {
        (self.supply_bits != Self::NO_SUPPLY)
            .then(|| Celsius::new(f64::from_bits(self.supply_bits)))
    }
}

impl RackLoads {
    /// Empty loads over `racks` racks, all in one rack group, cooled by
    /// `chiller`.
    pub fn new(racks: usize, chiller: Chiller) -> Self {
        Self::with_groups(racks, vec![0; racks], 1, chiller)
    }

    /// Empty loads over `racks` racks partitioned into `groups` rack
    /// groups (`group_of[rack]` names each rack's group), cooled by
    /// `chiller`. Racks in one group must host the same class pattern —
    /// the dispatch fast path treats racks of a group that share a
    /// committed state (idle included) as interchangeable.
    ///
    /// # Panics
    ///
    /// Panics if `group_of` has the wrong length or names a group out of
    /// range.
    pub fn with_groups(racks: usize, group_of: Vec<u32>, groups: usize, chiller: Chiller) -> Self {
        assert_eq!(group_of.len(), racks, "one group id per rack");
        assert!(
            group_of.iter().all(|&g| (g as usize) < groups.max(1)),
            "rack group out of range"
        );
        let mut idle: Vec<IdleRacks> = (0..groups.max(1)).map(|_| IdleRacks::default()).collect();
        let mut slot_of = Vec::with_capacity(racks);
        for (r, &g) in group_of.iter().enumerate() {
            let set = &mut idle[g as usize];
            slot_of.push(set.racks.len() as u32);
            set.racks.push(r as u32);
            set.bits.resize(set.racks.len().div_ceil(64), 0);
        }
        let mut loads = Self {
            racks: vec![RackLoad::default(); racks],
            ends: BinaryHeap::new(),
            seq: 0,
            total: 0,
            views: vec![
                RackView {
                    heat: Watts::new(0.0),
                    supply: None,
                    committed: 0,
                };
                racks
            ],
            occupied: Vec::new(),
            members: vec![Vec::new(); racks],
            idle_min: vec![None; idle.len()],
            idle,
            group_of,
            slot_of,
            chiller,
        };
        for r in 0..racks as u32 {
            loads.set_idle(r);
        }
        loads
    }

    /// The chiller the state entries' COP terms are evaluated under.
    pub fn chiller(&self) -> &Chiller {
        &self.chiller
    }

    /// Swaps the chiller (a set-point change) and re-evaluates every
    /// state entry's COP terms under it.
    pub fn set_chiller(&mut self, chiller: Chiller) {
        self.chiller = chiller;
        for e in &mut self.occupied {
            e.refresh(&self.chiller);
        }
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks.len()
    }

    /// Committed placements across all racks.
    pub fn total_committed(&self) -> usize {
        self.total
    }

    /// Re-derives `rack`'s view and index membership after a mutation.
    /// The view expressions are exactly those of a from-scratch rebuild,
    /// so the maintained views stay bit-identical to it.
    fn sync_rack(&mut self, rack: usize) {
        let load = &self.racks[rack];
        let view = RackView {
            heat: Watts::new(load.heat()),
            supply: load.supply(),
            committed: load.count(),
        };
        let old = std::mem::replace(&mut self.views[rack], view);
        let (old_key, new_key) = (state_key(&old), state_key(&view));
        if old_key == new_key {
            return;
        }
        let (r, g) = (rack as u32, self.group_of[rack]);
        // Leave the old state. The entry of a state the rack held alone is
        // vacated: re-keyed in place if the rack moves to a state nobody
        // holds, dropped otherwise.
        let mut vacated = None;
        match old_key {
            None => self.set_busy(r),
            Some((bits, supply)) => {
                let at = self
                    .find_state(bits, supply, g)
                    .expect("occupied racks have a state");
                let rep = self.occupied[at].rack;
                let list = &mut self.members[rep as usize];
                if list.len() == 1 {
                    vacated = Some(at);
                } else {
                    let i = list.binary_search(&r).expect("a state lists its members");
                    list.remove(i);
                    if i == 0 {
                        let next = list[0];
                        self.members.swap(rep as usize, next as usize);
                        let entry = OccupiedRack {
                            rack: next,
                            ..self.occupied[at]
                        };
                        self.slide(at, entry);
                    }
                }
            }
        }
        let Some((bits, supply)) = new_key else {
            if let Some(at) = vacated {
                self.occupied.remove(at);
                self.members[rack].clear();
            }
            self.set_idle(r);
            return;
        };
        match (self.find_state(bits, supply, g), vacated) {
            (None, Some(at)) => self.slide(at, OccupiedRack::new(r, g, &view, &self.chiller)),
            (None, None) => {
                let entry = OccupiedRack::new(r, g, &view, &self.chiller);
                let at = self.occupied.partition_point(|e| e.key() < entry.key());
                self.occupied.insert(at, entry);
                self.members[rack].push(r);
            }
            (Some(mut at), vacated) => {
                if let Some(v) = vacated {
                    self.occupied.remove(v);
                    self.members[rack].clear();
                    at -= usize::from(v < at);
                }
                let rep = self.occupied[at].rack;
                let list = &mut self.members[rep as usize];
                let i = list.binary_search(&r).expect_err("a rack is in one state");
                list.insert(i, r);
                if i == 0 {
                    self.members.swap(rep as usize, rack);
                    let entry = OccupiedRack {
                        rack: r,
                        ..self.occupied[at]
                    };
                    self.slide(at, entry);
                }
            }
        }
    }

    /// The entry of the state `(heat bits, supply bits, group)`, if any
    /// rack holds it.
    fn find_state(&self, bits: u64, supply: u64, group: u32) -> Option<usize> {
        let from = self.occupied.partition_point(|e| e.heat_bits < bits);
        self.occupied[from..]
            .iter()
            .take_while(|e| e.heat_bits == bits)
            .position(|e| e.supply_bits == supply && e.group == group)
            .map(|i| from + i)
    }

    /// Moves the entry at `from`, whose stored key still sorts there, to
    /// `entry`'s key and stores `entry` in its new slot, shifting only the
    /// entries between the two slots.
    fn slide(&mut self, from: usize, entry: OccupiedRack) {
        let to = match self
            .occupied
            .binary_search_by_key(&entry.key(), OccupiedRack::key)
        {
            Ok(at) => at,
            Err(at) if at > from => {
                self.occupied[from..at].rotate_left(1);
                at - 1
            }
            Err(at) => {
                self.occupied[at..=from].rotate_right(1);
                at
            }
        };
        self.occupied[to] = entry;
    }

    /// Marks `rack` idle in its group.
    fn set_idle(&mut self, rack: u32) {
        let g = self.group_of[rack as usize] as usize;
        let i = self.slot_of[rack as usize] as usize;
        self.idle[g].bits[i / 64] |= 1 << (i % 64);
        if self.idle_min[g].map_or(true, |m| rack < m) {
            self.idle_min[g] = Some(rack);
        }
    }

    /// Marks `rack` busy in its group. When it was the group's minimum,
    /// every lower bit is clear, so the next minimum is the first set bit
    /// from its word on.
    fn set_busy(&mut self, rack: u32) {
        let g = self.group_of[rack as usize] as usize;
        let i = self.slot_of[rack as usize] as usize;
        let set = &mut self.idle[g];
        set.bits[i / 64] &= !(1 << (i % 64));
        if self.idle_min[g] == Some(rack) {
            self.idle_min[g] = set.bits[i / 64..].iter().position(|&w| w != 0).map(|w| {
                let w = i / 64 + w;
                set.racks[64 * w + set.bits[w].trailing_zeros() as usize]
            });
        }
    }

    /// Commits `state`'s load to `rack` until `end`.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is out of range.
    pub fn add(&mut self, rack: usize, state: &SteadyState, end: Seconds) {
        self.commit(Load::new(rack, 0, state), false, end);
    }

    /// Commits `load` until `end`; [`expire`](Self::expire) hands the end
    /// of an `integrates` placement on to the energy integrator.
    pub(crate) fn commit(&mut self, load: Load, integrates: bool, end: Seconds) {
        let rack = load.rack;
        self.racks[rack].add(load.heat, load.water);
        self.total += 1;
        self.ends.push(Ending {
            end: end.value().to_bits(),
            seq: self.seq,
            load,
            integrates,
        });
        self.seq += 1;
        self.sync_rack(rack);
    }

    /// Drops every placement with `end ≤ now` (it covered `[start, end)`),
    /// in `(end, rack, seq)` order, so each rack's float accumulation is
    /// deterministic.
    pub fn expire_until(&mut self, now: Seconds) {
        self.expire(now, |_, _| {});
    }

    /// [`expire_until`](Self::expire_until), handing each dropped
    /// integrating placement's end time and load to `ended` as it goes.
    pub(crate) fn expire(&mut self, now: Seconds, mut ended: impl FnMut(f64, &Load)) {
        while let Some(e) = self.ends.peek() {
            let end = f64::from_bits(e.end);
            if end > now.value() {
                break;
            }
            let Ending {
                load, integrates, ..
            } = self.ends.pop().expect("peeked above");
            let rack = load.rack;
            self.racks[rack].remove(load.heat, load.water);
            self.total -= 1;
            self.sync_rack(rack);
            if integrates {
                ended(end, &load);
            }
        }
    }

    /// The maintained per-rack dispatch views — always equal to what a
    /// from-scratch rebuild would compute.
    pub fn view_slice(&self) -> &[RackView] {
        &self.views
    }

    /// One entry per distinct committed rack state `(view-heat bits,
    /// supply bits, group)`, ordered `(view-heat bits, representative)`,
    /// each carrying the fold inputs its members share (see
    /// [`OccupiedRack`]); [`state_members`](Self::state_members) lists
    /// each state's racks.
    pub fn occupied_racks(&self) -> &[OccupiedRack] {
        &self.occupied
    }

    /// Per rack: the racks of the state it represents, ascending, or an
    /// empty list when it represents none.
    pub fn state_members(&self) -> &[Vec<u32>] {
        &self.members
    }

    /// Each rack group's lowest-indexed idle rack (`None` while the group
    /// has no idle racks).
    pub fn idle_group_mins(&self) -> &[Option<u32>] {
        &self.idle_min
    }
}

/// A view's dispatch-index state `(heat bits, supply bits)` within its
/// group, `None` while the rack is idle.
fn state_key(view: &RackView) -> Option<(u64, u64)> {
    (view.committed > 0).then(|| {
        let supply = view
            .supply
            .map_or(OccupiedRack::NO_SUPPLY, |s| s.value().to_bits());
        (view.heat.value().to_bits(), supply)
    })
}

/// The kernel's mutable fleet state: per-rack committed load (which owns
/// the current chiller, and with it the set-point), the
/// structure-of-arrays server table, the running layer behind control
/// ticks and telemetry, and the control surface (shedding flag).
#[derive(Debug)]
pub(crate) struct FleetState {
    loads: RackLoads,
    /// The *running* (started, not finished) placements: folded in at
    /// their [`Event::JobStart`] and out at their [`Event::JobCompletion`].
    /// Distinct from [`RackLoads`], which tracks *committed* (running or
    /// queued) load, the quantity dispatch ranks against.
    running: Running,
    servers: ServerTable,
    shedding: bool,
    shed: usize,
    violations: usize,
    pending_arrivals: usize,
}

impl FleetState {
    /// All arrivals processed and nothing committed: the simulation can
    /// stop re-arming periodic events.
    fn done(&self) -> bool {
        self.pending_arrivals == 0 && self.loads.total_committed() == 0
    }

    /// Placed but not yet started.
    fn queued(&self) -> usize {
        self.loads.total_committed() - self.running.count()
    }
}

/// Runs the event loop: arrivals dispatched against committed state,
/// completions expiring committed load, control ticks and set-point
/// changes steering the chiller, telemetry sampled on its own cadence.
///
/// `pairs` are the stream's sorted distinct `(bench, qos)` pairs (see
/// `job::demand_pairs`), and `pair_states[p][class]` is pair `p`'s
/// solved demand state on each catalog class;
/// [`Fleet::simulate_with`](crate::Fleet::simulate_with) reads them off
/// a covering [`SolveTable`](crate::SolveTable) before the loop starts.
/// The returned [`KernelStats`] carry the event and queue counters; the
/// caller fills in the cache counters.
pub(crate) fn run(
    fleet: &Fleet,
    jobs: &[Job],
    pairs: &[(Benchmark, QosClass)],
    pair_states: &[Vec<SteadyState>],
    dispatcher: &mut dyn FleetDispatcher,
    control: &mut dyn ControlPolicy,
    telemetry: Option<&TelemetryConfig>,
) -> Result<SimResult, RunError> {
    let config = fleet.config();
    let class_of = fleet.server_classes();
    let class_names = fleet.class_names();
    let n_servers = config.total_servers();
    let per_rack = config.servers_per_rack;

    // Structure-of-arrays server state: availability and class ids as
    // flat columns indexed by server id.
    let servers = ServerTable::new(class_of.to_vec(), per_rack);
    // Rack groups: racks hosting the same class pattern are
    // interchangeable while they share a committed state (idle
    // included), which is what collapses the dispatch ranking from
    // O(racks) to O(states + groups) per arrival.
    let mut group_classes: Vec<Vec<ClassId>> = Vec::new();
    let group_of: Vec<u32> = (0..config.racks)
        .map(|r| {
            let classes = servers.classes_in_rack(r);
            match group_classes.iter().position(|g| g.as_slice() == classes) {
                Some(i) => i as u32,
                None => {
                    group_classes.push(classes.to_vec());
                    (group_classes.len() - 1) as u32
                }
            }
        })
        .collect();
    let loads = RackLoads::with_groups(
        config.racks,
        group_of,
        group_classes.len(),
        config.chiller.clone(),
    );

    // Each arrival finds its pair's demand states by direct index into a
    // dense |Benchmark|×|QosClass| table of pair positions — a million
    // arrivals share a handful of distinct pairs. The per-job fields
    // (runtime, wait budget) are derived per arrival from the shared
    // steady state.
    let mut pair_of = [u32::MAX; Benchmark::ALL.len() * QosClass::ALL.len()];
    for (p, &(bench, qos)) in pairs.iter().enumerate() {
        pair_of[pair_index(bench, qos)] = p as u32;
    }
    let states_of = |job: &Job| &pair_states[pair_of[pair_index(job.bench, job.qos)] as usize];
    // The load a closed-loop placement folds into the running layer at
    // its start and out at its completion, rebuilt from the job's stream
    // index and its server.
    let load_of = |ji: usize, server: usize| {
        let class = class_of[server];
        Load::new(server / per_rack, class, &states_of(&jobs[ji])[class])
    };

    let mut queue = EventQueue::new();
    // Arrivals in time order (id on ties), read through a cursor instead
    // of the queue (see the module docs).
    let n_jobs = u32::try_from(jobs.len()).expect("a job stream holds at most u32::MAX jobs");
    let mut order: Vec<u32> = (0..n_jobs).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&jobs[a as usize], &jobs[b as usize]);
        a.arrival
            .value()
            .total_cmp(&b.arrival.value())
            .then(a.id.cmp(&b.id))
    });
    let mut next_arrival = 0;
    // Ticks and samples re-arm at `now + dt` until the run drains, which
    // (unless the last arrival is shed) is no earlier than that arrival
    // plus its service time. An interval that cannot step there in
    // `u32::MAX` re-arms (or at all: `now + dt == now`) would spin on.
    let horizon = order.last().map_or(0.0, |&ji| {
        let job = &jobs[ji as usize];
        job.arrival.value() + job.service.value()
    });
    let tick = control.tick_interval();
    let intervals = [
        ("control tick", tick),
        ("telemetry sample", telemetry.map(|t| t.sample_interval)),
    ];
    for (what, dt) in intervals {
        if let Some(dt) = dt.map(Seconds::value) {
            if !(horizon + dt > horizon && horizon / dt <= f64::from(u32::MAX)) {
                return Err(RunError::IntervalTooShort {
                    what,
                    interval_s: dt,
                    horizon_s: horizon,
                });
            }
        }
    }
    // The control policy's pre-scheduled set-point program…
    for (t, c) in control.setpoint_program() {
        queue.push(t, Event::SetpointChange(c));
    }
    // …its tick cadence, and the telemetry cadence (both re-armed from
    // their own handlers while work remains).
    if let Some(dt) = tick {
        queue.push(dt, Event::ControlTick);
    }
    if telemetry.is_some() {
        queue.push(Seconds::ZERO, Event::TelemetrySample);
    }

    // Planning policies capture the job stream, the solved physics and
    // the rack layout before the first event; reactive policies no-op.
    control.begin_run(&RunContext {
        jobs,
        pairs,
        pair_states,
        chiller: &config.chiller,
        servers: &servers,
        classes: class_names.len(),
    });
    let mut state = FleetState {
        loads,
        running: Running::new(config.racks, class_names.len()),
        servers,
        shedding: false,
        shed: 0,
        violations: 0,
        pending_arrivals: jobs.len(),
    };
    dispatcher.begin_run();
    // Closed-loop machinery — the running layer (what ticks and
    // telemetry see of started-not-finished jobs) and the JobStart and
    // JobCompletion events that fold it, keeping the tick/sample
    // re-arming honest — costs up to two queue pushes per placement.
    // When nothing reads it (open loop: no ticks, no telemetry) the
    // kernel elides it: the committed layer already expires lazily at
    // each arrival, so the event stream degenerates to arrivals only.
    let closed_loop = telemetry.is_some() || tick.is_some();
    // Energy integrates online: each placement's start and each
    // set-point or activation change is fed as it happens, and each end
    // as the committed layer expires it.
    let mut energy = EnergyIntegrator::new(config, &class_names);
    // Serving mode: per-request latency (dispatch wait + runtime, known
    // at placement time) feeds two integer-bucket sketches — the whole
    // run for reported percentiles, plus a per-tick window the
    // autoscaler reads and clears. The active-server timeline also
    // yields the run's mean active-server count.
    let serving = config.serving;
    let mut latency_all = LatencyHistogram::default();
    let mut latency_window = LatencyHistogram::default();
    let mut activations: Vec<(Seconds, usize)> = Vec::new();
    let mut trace = telemetry.map(|t| {
        let mut trace = FleetTrace::with_classes(config.racks, class_names.clone(), t.capacity);
        if serving {
            trace.enable_serving();
        }
        trace
    });
    // Scratch for the per-class demands (hot path: one buffer for the
    // whole run instead of one allocation per arrival).
    let mut class_scratch: Vec<ClassDemand> = Vec::with_capacity(class_names.len());
    // Every event handled: queued ones, arrivals off the stream and
    // starts folded in place.
    let mut events = 0u64;

    loop {
        let arrival = order.get(next_arrival).map(|&ji| ji as usize);
        let (now, event) = match arrival {
            Some(ji) if queue.peek_time().map_or(true, |t| jobs[ji].arrival < t) => {
                next_arrival += 1;
                let t = jobs[ji].arrival;
                assert!(
                    t.value() >= 0.0 && t.value().is_finite(),
                    "event time must be non-negative and finite, got {t}"
                );
                (t, Event::JobArrival(ji))
            }
            _ => match queue.pop() {
                Some(next) => next,
                None => break,
            },
        };
        events += 1;
        match event {
            Event::JobStart { job, server } => state.running.start(&load_of(job, server)),
            Event::JobCompletion { job, server } => {
                state.loads.expire(now, |end, load| energy.end(end, load));
                state.running.end(&load_of(job, server));
                // The trace ends exactly at the makespan: record the
                // drained fleet once, at the completion that drains it.
                if state.done() && state.running.count() == 0 {
                    if let Some(trace) = trace.as_mut() {
                        trace.push(sample(&state, now, config, serving.then_some(&latency_all)));
                    }
                }
            }
            Event::SetpointChange(c) => {
                state.loads.set_chiller(config.chiller.with_ambient(c));
                energy.setpoint(now, c);
            }
            Event::ControlTick => {
                if !state.done() {
                    state.loads.expire(now, |end, load| energy.end(end, load));
                    let status = ControlStatus {
                        now,
                        committed: state.loads.total_committed(),
                        running: state.running.count(),
                        queued: state.queued(),
                        shed: state.shed,
                        violations: state.violations,
                        setpoint: state.loads.chiller().ambient(),
                        shedding: state.shedding,
                        racks: state.loads.view_slice(),
                        active_servers: state.servers.active_servers(),
                        total_servers: n_servers,
                        recent_p99: if serving {
                            latency_window.quantile(0.99)
                        } else {
                            None
                        },
                    };
                    for action in control.on_tick(&status) {
                        match action {
                            ControlAction::SetSetpoint(c) => {
                                state.loads.set_chiller(config.chiller.with_ambient(c));
                                energy.setpoint(now, c);
                            }
                            ControlAction::SetShedding(on) => state.shedding = on,
                            ControlAction::SetActiveServers(n) => {
                                let prev = state.servers.active_servers();
                                let actual = state.servers.set_active_servers(n);
                                if actual != prev {
                                    activations.push((now, actual));
                                    energy.activation(now, actual);
                                }
                            }
                        }
                    }
                    // Each tick reads a fresh latency window.
                    if serving {
                        latency_window.clear();
                    }
                    let dt = tick.expect("ticks only fire when an interval is set");
                    queue.push(now + dt, Event::ControlTick);
                }
            }
            Event::TelemetrySample => {
                if !state.done() {
                    let t = telemetry.expect("samples only fire when telemetry is on");
                    if let Some(trace) = trace.as_mut() {
                        trace.push(sample(&state, now, config, serving.then_some(&latency_all)));
                    }
                    queue.push(now + t.sample_interval, Event::TelemetrySample);
                }
            }
            Event::JobArrival(ji) => {
                let job = &jobs[ji];
                state.pending_arrivals -= 1;
                state.loads.expire(now, |end, load| energy.end(end, load));
                if state.shedding {
                    state.shed += 1;
                    // A run can end on a shed arrival (everything placed
                    // has finished, the rest of the stream is dropped):
                    // the final trace row must still carry the final shed
                    // count, so the drained-fleet sample records here too.
                    if state.done() {
                        if let Some(trace) = trace.as_mut() {
                            trace.push(sample(
                                &state,
                                now,
                                config,
                                serving.then_some(&latency_all),
                            ));
                        }
                    }
                    continue;
                }
                // The job's demand on every catalog class: the same
                // workload runs hotter (or slower) on one hardware bin
                // than another, and the dispatcher ranks those options.
                class_scratch.clear();
                for steady in states_of(job) {
                    class_scratch.push(ClassDemand {
                        state: *steady,
                        runtime: job.service * steady.normalized_time,
                        wait_budget: job.wait_budget(steady.normalized_time),
                    });
                }
                let demand = JobDemand {
                    job,
                    classes: &class_scratch,
                };
                let loads = &state.loads;
                let view = FleetView {
                    now,
                    racks: loads.view_slice(),
                    servers: &state.servers,
                    chiller: loads.chiller(),
                    index: FleetIndex {
                        occupied: loads.occupied_racks(),
                        members: loads.state_members(),
                        idle_min: loads.idle_group_mins(),
                        group_classes: &group_classes,
                    },
                };
                // A planning control policy may have a placement hint for
                // this job; the kernel validates it against the live
                // fleet and falls back to the dispatcher when it's stale,
                // so hints can redirect placements but never add QoS
                // violations the dispatcher would have avoided.
                let placed = hinted_server(control.placement_hint(job), &demand, &view)
                    .unwrap_or_else(|| dispatcher.place(&demand, &view));
                assert!(
                    placed < state.servers.active_servers(),
                    "dispatcher placed outside the active fleet"
                );
                let class = state.servers.class_of(placed);
                let chosen = demand.classes[class];
                let steady = chosen.state;
                let start = Seconds::new(now.value().max(state.servers.free_at(placed).value()));
                let wait = start - now;
                if serving {
                    // Request latency is fully determined at placement:
                    // dispatch wait plus the chosen configuration's runtime.
                    let latency = wait + chosen.runtime;
                    latency_all.record(latency);
                    latency_window.record(latency);
                }
                let rack = state.servers.rack_of(placed);
                let end = start + chosen.runtime;
                let violated = wait.value() > chosen.wait_budget.value() + 1e-9;
                if violated {
                    state.violations += 1;
                }
                let placement = Placement {
                    load: Load::new(rack, class, &steady),
                    start,
                    end,
                    wait,
                    violated,
                };
                energy.place(&placement);
                state
                    .loads
                    .commit(placement.load, placement.integrates(), end);
                state.servers.set_free_at(placed, end);
                if closed_loop {
                    let (job, server) = (ji, placed);
                    // Every other event at `now` has popped already, so a
                    // start at `now` would be the very next pop.
                    if start == now {
                        state.running.start(&placement.load);
                        events += 1;
                    } else {
                        queue.push(start, Event::JobStart { job, server });
                    }
                    queue.push(end, Event::JobCompletion { job, server });
                }
            }
        }
    }

    // The ends still committed, in the same order, before the outcome.
    state
        .loads
        .expire(Seconds::new(f64::INFINITY), |end, load| {
            energy.end(end, load)
        });
    let peak_depth = queue.peak_depth();
    let mut outcome = energy.finish(dispatcher.name(), control.name(), state.shed);
    if serving {
        // Time-weighted mean of the active-server timeline over the run,
        // plus the envelope the autoscaler actually explored.
        let makespan = outcome.makespan.value();
        let mut mean = 0.0;
        let mut t_prev = 0.0;
        let mut cur = n_servers;
        let mut min_a = n_servers;
        let mut max_a = n_servers;
        for &(t, n) in &activations {
            let t = t.value().clamp(0.0, makespan);
            mean += cur as f64 * (t - t_prev);
            t_prev = t;
            cur = n;
            min_a = min_a.min(n);
            max_a = max_a.max(n);
        }
        mean += cur as f64 * (makespan - t_prev);
        let mean = if makespan > 0.0 {
            mean / makespan
        } else {
            cur as f64
        };
        outcome.serving = Some(ServingOutcome {
            requests: outcome.class_placements.iter().sum(),
            latency_p50: latency_all.quantile(0.5).unwrap_or(Seconds::ZERO),
            latency_p95: latency_all.quantile(0.95).unwrap_or(Seconds::ZERO),
            latency_p99: latency_all.quantile(0.99).unwrap_or(Seconds::ZERO),
            mean_active_servers: mean,
            min_active_servers: min_a,
            max_active_servers: max_a,
        });
    }
    Ok(SimResult {
        outcome,
        trace,
        stats: KernelStats {
            events,
            peak_queue_depth: peak_depth,
            arena_high_water: peak_depth,
            ..KernelStats::default()
        },
    })
}

/// Resolves a control-policy placement hint to a concrete server, or
/// `None` when the hint no longer holds: the rack left the active
/// prefix, the class id is unknown, the rack hosts no such class, or the
/// earliest free server of that class would blow the job's wait budget.
/// Falling back to the dispatcher in all of those cases means hints can
/// only redirect placements the fleet can absorb.
fn hinted_server(
    hint: Option<PlacementHint>,
    demand: &JobDemand<'_>,
    view: &FleetView<'_>,
) -> Option<usize> {
    let hint = hint?;
    if hint.rack >= view.servers.active_racks() || hint.class >= demand.classes.len() {
        return None;
    }
    let (server, _) = view.servers.earliest_free_of_class(hint.rack, hint.class)?;
    let wait = view.wait_on(server);
    (wait.value() <= demand.class(hint.class).wait_budget.value() + 1e-9).then_some(server)
}

/// Captures one telemetry sample from the running layer. In serving mode
/// `latency` carries the whole-run percentile sketch and the sample gains
/// the active-server count and latency quantiles.
fn sample(
    state: &FleetState,
    now: Seconds,
    config: &FleetConfig,
    latency: Option<&LatencyHistogram>,
) -> FleetSample {
    let running = &state.running;
    let idle = state
        .servers
        .active_servers()
        .saturating_sub(running.count()) as f64
        * config.idle_server_power.value();
    // One rack-order pass fills the per-rack columns and sums the
    // chiller power of every rack with a supply.
    let chiller = state.loads.chiller();
    let mut rack_heat = Vec::with_capacity(config.racks);
    let mut rack_water = Vec::with_capacity(config.racks);
    let mut cooling = 0.0;
    for rack in running.racks() {
        let (heat, supply) = (Watts::new(rack.heat()), rack.supply());
        if let Some(supply) = supply {
            cooling += chiller.electrical_power(heat, supply).value();
        }
        rack_heat.push(heat);
        rack_water.push(supply);
    }
    FleetSample {
        t: now,
        setpoint: chiller.ambient(),
        queued: state.queued(),
        running: running.count(),
        shed: state.shed,
        violations: state.violations,
        it_power: Watts::new(running.power() + idle),
        cooling_power: Watts::new(cooling),
        rack_heat,
        rack_water,
        class_running: running.classes().iter().map(Tally::count).collect(),
        class_it_power: running
            .classes()
            .iter()
            .map(|c| Watts::new(c.sum()))
            .collect(),
        serving: latency.map(|h| ServingSample {
            active_servers: state.servers.active_servers(),
            p50: h.quantile(0.5).unwrap_or(Seconds::ZERO),
            p95: h.quantile(0.95).unwrap_or(Seconds::ZERO),
            p99: h.quantile(0.99).unwrap_or(Seconds::ZERO),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::OutcomeCache;
    use crate::control::StaticControl;
    use crate::dispatch::RoundRobin;
    use crate::fleet::Fleet;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    fn state(heat: f64) -> SteadyState {
        SteadyState {
            package_power: Watts::new(heat),
            heat: Watts::new(heat),
            max_water_temp: Celsius::new(70.0),
            normalized_time: 1.0,
            n_cores: 8,
            die_max: Celsius::new(70.0),
        }
    }

    #[test]
    fn rack_loads_track_supply_and_drain_to_exact_zero() {
        let mut loads = RackLoads::new(2, Chiller::default());
        let state = |heat: f64, water: f64| SteadyState {
            package_power: Watts::new(heat),
            heat: Watts::new(heat),
            max_water_temp: Celsius::new(water),
            normalized_time: 1.0,
            n_cores: 8,
            die_max: Celsius::new(70.0),
        };
        loads.add(0, &state(50.0, 80.0), Seconds::new(10.0));
        loads.add(0, &state(70.0, 60.0), Seconds::new(20.0));
        assert_eq!(loads.total_committed(), 2);
        let views = loads.view_slice();
        assert_eq!(views[0].heat, Watts::new(120.0));
        // The coldest committed demand caps the shared supply.
        assert_eq!(views[0].supply, Some(Celsius::new(60.0)));
        assert_eq!(views[1].supply, None);

        loads.expire_until(Seconds::new(10.0));
        let views = loads.view_slice();
        assert_eq!(views[0].heat, Watts::new(70.0));
        assert_eq!(views[0].supply, Some(Celsius::new(60.0)));

        loads.expire_until(Seconds::new(25.0));
        let views = loads.view_slice();
        assert_eq!(views[0].heat.value(), 0.0);
        assert_eq!(views[0].supply, None);
        assert_eq!(loads.total_committed(), 0);
    }

    /// The idle racks of group `g`, ascending, read off its bitset.
    fn idle_racks(loads: &RackLoads, g: usize) -> Vec<u32> {
        let set = &loads.idle[g];
        let idle = |&(i, _): &(usize, &u32)| set.bits[i / 64] >> (i % 64) & 1 == 1;
        set.racks
            .iter()
            .enumerate()
            .filter(idle)
            .map(|(_, &r)| r)
            .collect()
    }

    #[test]
    fn rack_loads_maintain_the_occupancy_index() {
        let mut loads = RackLoads::with_groups(4, vec![0, 0, 1, 1], 2, Chiller::default());
        assert_eq!(loads.occupied_racks().len(), 0);
        assert_eq!(idle_racks(&loads, 0), vec![0, 1]);
        assert_eq!(idle_racks(&loads, 1), vec![2, 3]);

        loads.add(2, &state(50.0), Seconds::new(10.0));
        loads.add(0, &state(30.0), Seconds::new(20.0));
        // Occupied orders by heat (bits), not rack index.
        let occ: Vec<u32> = loads.occupied_racks().iter().map(|e| e.rack).collect();
        assert_eq!(occ, vec![0, 2]);
        assert_eq!(idle_racks(&loads, 0), vec![1]);
        assert_eq!(idle_racks(&loads, 1), vec![3]);
        assert_eq!(loads.idle_group_mins(), &[Some(1), Some(3)]);

        loads.expire_until(Seconds::new(15.0));
        // Rack 2 drained: back to its group's idle set.
        assert_eq!(loads.occupied_racks().len(), 1);
        assert_eq!(idle_racks(&loads, 1), vec![2, 3]);
        assert_eq!(loads.idle_group_mins(), &[Some(1), Some(2)]);
        // Maintained views match a naive read of the drained state.
        assert_eq!(loads.view_slice()[2].heat.value(), 0.0);
        assert_eq!(loads.view_slice()[2].committed, 0);
        assert_eq!(loads.view_slice()[0].heat, Watts::new(30.0));
    }

    #[test]
    fn racks_that_share_a_state_share_one_entry() {
        // 70 racks in one group, so the idle bitset spans two words.
        let mut loads = RackLoads::new(70, Chiller::default());
        let states = |loads: &RackLoads| -> Vec<(f64, Vec<u32>)> {
            let members = loads.state_members();
            let of = |e: &OccupiedRack| (e.heat(), members[e.rack as usize].clone());
            loads.occupied_racks().iter().map(of).collect()
        };
        for rack in [3, 1, 2] {
            loads.add(rack, &state(30.0), Seconds::new(10.0));
        }
        assert_eq!(states(&loads), vec![(30.0, vec![1, 2, 3])]);
        // A lower rack joining takes over as representative.
        loads.add(0, &state(30.0), Seconds::new(5.0));
        assert_eq!(states(&loads), vec![(30.0, vec![0, 1, 2, 3])]);
        // A second placement moves rack 2 to a state of its own.
        loads.add(2, &state(30.0), Seconds::new(20.0));
        assert_eq!(states(&loads), vec![(30.0, vec![0, 1, 3]), (60.0, vec![2])]);
        // The representative leaves: the next member takes over.
        loads.expire_until(Seconds::new(5.0));
        assert_eq!(states(&loads), vec![(30.0, vec![1, 3]), (60.0, vec![2])]);
        assert_eq!(loads.idle_group_mins(), &[Some(0)]);
        // Fill the first word's idle racks, then drain one past it.
        for rack in (0..64).filter(|r| ![1, 2, 3].contains(r)) {
            loads.add(rack, &state(30.0), Seconds::new(30.0));
        }
        assert_eq!(loads.idle_group_mins(), &[Some(64)]);
        // Racks 1 and 3 drain, and rack 2 drops back to the shared state.
        loads.expire_until(Seconds::new(10.0));
        assert_eq!(loads.idle_group_mins(), &[Some(1)]);
        let idle: Vec<u32> = [1, 3].into_iter().chain(64..70).collect();
        assert_eq!(idle_racks(&loads, 0), idle);
        let shared: Vec<u32> = (0..64).filter(|r| ![1, 3].contains(r)).collect();
        assert_eq!(states(&loads), vec![(30.0, shared)]);
        // Every placement ends: the state empties.
        loads.expire_until(Seconds::new(30.0));
        assert!(states(&loads).is_empty());
        assert!(loads.state_members().iter().all(Vec::is_empty));
        assert_eq!(idle_racks(&loads, 0), (0..70).collect::<Vec<_>>());
    }

    #[test]
    fn running_set_settles_starts_before_ends_and_pins_zero() {
        let mut run = Running::new(1, 2);
        let a = Load::new(0, 0, &state(40.0));
        let b = Load::new(0, 1, &state(60.0));
        // t = 0: the first job starts.
        run.start(&a);
        assert_eq!(run.count(), 1);
        assert_eq!(run.power(), 40.0);
        let counts = |run: &Running| run.classes().iter().map(Tally::count).collect::<Vec<_>>();
        let sums = |run: &Running| run.classes().iter().map(Tally::sum).collect::<Vec<_>>();
        assert_eq!(counts(&run), vec![1, 0]);
        // At t = 10 the first job's end and the second's start coincide:
        // the start folds first (`JobStart` pops ahead of
        // `JobCompletion`), leaving exactly the second running.
        run.start(&b);
        run.end(&a);
        assert_eq!(run.count(), 1);
        assert_eq!(run.power(), 60.0);
        assert_eq!(counts(&run), vec![0, 1]);
        assert_eq!(sums(&run), vec![0.0, 60.0]);
        run.end(&b);
        assert_eq!(run.count(), 0);
        assert_eq!(run.power(), 0.0);
        assert_eq!(run.racks()[0].heat_sum(), 0.0);
        assert_eq!(sums(&run), vec![0.0, 0.0]);
    }

    /// A placement boundary waiting in a [`RunningSet`] heap: `(time
    /// bits, commit seq, rack, class, heat bits, package-power bits,
    /// water bits)`.
    type RunningEdge = Reverse<(u64, u64, u32, u32, u64, u64, u64)>;

    /// Pops the earliest boundary at or before `now`, decoded as `(rack,
    /// class, heat, power, water bits)`.
    fn pop_due(
        heap: &mut BinaryHeap<RunningEdge>,
        now: Seconds,
    ) -> Option<(usize, usize, f64, f64, u64)> {
        let &Reverse((bits, _, rack, class, heat, power, water)) = heap.peek()?;
        if f64::from_bits(bits) > now.value() {
            return None;
        }
        heap.pop();
        let (heat, power) = (f64::from_bits(heat), f64::from_bits(power));
        Some((rack as usize, class as usize, heat, power, water))
    }

    /// The running layer the kernel kept before it folded at its own
    /// events: every placement's start and end waited in two private
    /// heaps, and `settle(now)` folded every start at or before `now`,
    /// then every end at or before `now`, each in placement order. The
    /// kernel settled at every completion, tick, sample and shed arrival.
    /// Kept as the oracle the event-driven fold is tested against, bit
    /// for bit, with its own arithmetic.
    #[derive(Debug)]
    struct RunningSet {
        starts: BinaryHeap<RunningEdge>,
        ends: BinaryHeap<RunningEdge>,
        seq: u64,
        active_power: f64,
        heat: Vec<f64>,
        water: Vec<Vec<(u64, u32)>>,
        count: Vec<usize>,
        running: usize,
        class_running: Vec<usize>,
        class_power: Vec<f64>,
    }

    impl RunningSet {
        fn new(racks: usize, classes: usize) -> Self {
            Self {
                starts: BinaryHeap::new(),
                ends: BinaryHeap::new(),
                seq: 0,
                active_power: 0.0,
                heat: vec![0.0; racks],
                water: vec![Vec::new(); racks],
                count: vec![0; racks],
                running: 0,
                class_running: vec![0; classes],
                class_power: vec![0.0; classes],
            }
        }

        fn commit(&mut self, load: &Load, start: Seconds, end: Seconds) {
            let edge = |t: Seconds| {
                Reverse((
                    t.value().to_bits(),
                    self.seq,
                    load.rack as u32,
                    load.class as u32,
                    load.heat.to_bits(),
                    load.power.to_bits(),
                    load.water,
                ))
            };
            self.starts.push(edge(start));
            self.ends.push(edge(end));
            self.seq += 1;
        }

        fn settle(&mut self, now: Seconds) {
            while let Some((rack, class, heat, power, water_bits)) = pop_due(&mut self.starts, now)
            {
                self.active_power += power;
                self.heat[rack] += heat;
                self.count[rack] += 1;
                self.running += 1;
                self.class_running[class] += 1;
                self.class_power[class] += power;
                let water = &mut self.water[rack];
                match water.binary_search_by_key(&water_bits, |w| w.0) {
                    Ok(at) => water[at].1 += 1,
                    Err(at) => water.insert(at, (water_bits, 1)),
                }
            }
            while let Some((rack, class, heat, power, water_bits)) = pop_due(&mut self.ends, now) {
                self.active_power -= power;
                self.heat[rack] -= heat;
                self.count[rack] -= 1;
                self.running -= 1;
                self.class_running[class] -= 1;
                self.class_power[class] -= power;
                let water = &mut self.water[rack];
                if let Ok(at) = water.binary_search_by_key(&water_bits, |w| w.0) {
                    water[at].1 -= 1;
                    if water[at].1 == 0 {
                        water.remove(at);
                    }
                }
                if self.count[rack] == 0 {
                    self.heat[rack] = 0.0;
                }
                if self.class_running[class] == 0 {
                    self.class_power[class] = 0.0;
                }
                if self.running == 0 {
                    self.active_power = 0.0;
                }
            }
        }

        /// Every field of the settled layer, floats as raw bits, in the
        /// layout [`running_bits`] reads a [`Running`] into.
        fn bits(&self) -> Vec<u64> {
            let mut out = vec![self.running as u64, self.active_power.to_bits()];
            for (c, p) in self.class_running.iter().zip(&self.class_power) {
                out.extend([*c as u64, p.to_bits()]);
            }
            for ((n, h), w) in self.count.iter().zip(&self.heat).zip(&self.water) {
                out.extend([*n as u64, h.to_bits(), w.len() as u64]);
                out.extend(w.iter().flat_map(|&(k, n)| [k, u64::from(n)]));
            }
            out
        }
    }

    /// Every field of `running`, floats as raw bits (see
    /// [`RunningSet::bits`]).
    fn running_bits(running: &Running) -> Vec<u64> {
        let mut out = vec![running.count() as u64, running.power().to_bits()];
        for c in running.classes() {
            out.extend([c.count() as u64, c.sum().to_bits()]);
        }
        for r in running.racks() {
            out.extend([
                r.count() as u64,
                r.heat_sum().to_bits(),
                r.water().len() as u64,
            ]);
            out.extend(r.water().iter().flat_map(|&(k, n)| [k, u64::from(n)]));
        }
        out
    }

    /// SplitMix64 over `(seed, i)`.
    fn mix(seed: u64, i: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One random placement of a kernel-shaped run: dispatched at
    /// `arrival` (non-decreasing along the run), its load, and its
    /// execution window.
    #[derive(Debug, Clone, Copy)]
    struct Placed {
        arrival: Seconds,
        load: Load,
        start: Seconds,
        end: Seconds,
    }

    /// A random run on a half-second grid, so instants tie across
    /// starts, ends, arrivals and observations: arrivals in time order,
    /// starts queued past their arrival, zero-length windows, every
    /// class, and non-dyadic watts so a changed fold order shows in the
    /// low bits.
    fn random_run(
        seed: u64,
        jobs: usize,
        racks: usize,
        classes: usize,
    ) -> (Vec<Placed>, Vec<Seconds>) {
        let mut i = 0u64;
        let mut draw = |n: usize| {
            i += 1;
            (mix(seed, i) % n as u64) as usize
        };
        let mut now = 0.0f64;
        let mut placed = Vec::with_capacity(jobs);
        let mut observe = Vec::new();
        for _ in 0..jobs {
            now += 0.5 * [0, 0, 0, 1, 1, 2, 3, 8][draw(8)] as f64;
            let start = now + 0.5 * [0, 0, 1, 3][draw(4)] as f64;
            let end = start + 0.5 * draw(7) as f64;
            let heat = [0.0, 35.1, 70.37, 120.53][draw(4)];
            let mut s = state(heat);
            s.package_power = Watts::new(heat + 12.29 * draw(3) as f64);
            s.max_water_temp = Celsius::new([55.0, 60.0, 66.5, 80.0][draw(4)]);
            placed.push(Placed {
                arrival: Seconds::new(now),
                load: Load::new(draw(racks), draw(classes), &s),
                start: Seconds::new(start),
                end: Seconds::new(end),
            });
            if draw(2) == 0 {
                observe.push(Seconds::new(now + 0.5 * draw(6) as f64));
            }
        }
        (placed, observe)
    }

    /// Replays `placed` through the kernel's event queue and running
    /// layer — each placement pushes its `JobStart` and `JobCompletion`
    /// when its arrival pops, observations are control ticks — beside
    /// the [`RunningSet`] oracle settled where the kernel used to settle
    /// it. Returns every observation as `(fold bits, oracle bits)`.
    fn replay(
        placed: &[Placed],
        observe: &[Seconds],
        racks: usize,
        classes: usize,
    ) -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut queue = EventQueue::new();
        for (ji, p) in placed.iter().enumerate() {
            queue.push(p.arrival, Event::JobArrival(ji));
        }
        for &t in observe {
            queue.push(t, Event::ControlTick);
        }
        let mut running = Running::new(racks, classes);
        let mut oracle = RunningSet::new(racks, classes);
        let mut seen = Vec::new();
        let mut observed = |running: &Running, oracle: &mut RunningSet, now| {
            oracle.settle(now);
            seen.push((running_bits(running), oracle.bits()));
        };
        let mut last = Seconds::ZERO;
        while let Some((now, event)) = queue.pop() {
            last = now;
            match event {
                Event::JobArrival(ji) => {
                    let p = &placed[ji];
                    oracle.commit(&p.load, p.start, p.end);
                    let (job, server) = (ji, 0);
                    queue.push(p.start, Event::JobStart { job, server });
                    queue.push(p.end, Event::JobCompletion { job, server });
                }
                Event::JobStart { job, .. } => running.start(&placed[job].load),
                Event::JobCompletion { job, .. } => {
                    running.end(&placed[job].load);
                    oracle.settle(now);
                }
                Event::ControlTick => observed(&running, &mut oracle, now),
                Event::SetpointChange(_) | Event::TelemetrySample => unreachable!(),
            }
        }
        observed(&running, &mut oracle, last);
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The running layer folded at its own `JobStart` and
        /// `JobCompletion` events matches the two-heap `settle` oracle
        /// bit for bit at every observation: per-rack heat, water and
        /// count, and the fleet and per-class tallies.
        #[test]
        fn running_layer_fold_matches_the_settle_oracle_bit_for_bit(
            seed in 0u64..1_000_000,
            jobs in 0usize..40,
            racks in 1usize..4,
            classes in 1usize..3,
        ) {
            let (placed, observe) = random_run(seed, jobs, racks, classes);
            for (at, (fold, oracle)) in replay(&placed, &observe, racks, classes)
                .into_iter()
                .enumerate()
            {
                prop_assert_eq!(fold, oracle, "observation {} of {:?}", at, placed);
            }
        }
    }

    /// The random runs really reach the ties the fold-order property is
    /// meant to cover.
    #[test]
    fn random_runs_cover_every_tie() {
        let mut hit = [false; 5];
        for seed in 0..200u64 {
            let (placed, observe) = random_run(seed, 30, 2, 2);
            let same_rack = |a: &Placed, b: &Placed| a.load.rack == b.load.rack;
            hit[0] |= placed.iter().any(|p| p.start == p.end);
            hit[1] |= placed.iter().any(|p| p.start > p.arrival);
            // One placement ends as another starts on the same rack.
            hit[2] |= placed.iter().any(|a| {
                placed
                    .iter()
                    .any(|b| same_rack(a, b) && a.end == b.start && a.start < a.end)
            });
            // Two placements end at one instant.
            hit[3] |= placed
                .iter()
                .enumerate()
                .any(|(i, a)| placed[i + 1..].iter().any(|b| a.end == b.end));
            // An observation at an instant where something starts or ends.
            hit[4] |= observe
                .iter()
                .any(|&t| placed.iter().any(|p| p.start == t || p.end == t));
        }
        assert_eq!(hit, [true; 5]);
    }

    /// The drained-fleet row is the last row of a closed-loop trace, and
    /// it is recorded once the completion that empties the running layer
    /// has folded — here the last two jobs end at one instant, on two
    /// servers.
    #[test]
    fn the_drained_row_follows_the_last_completion_at_the_makespan() {
        let mut config = FleetConfig::new(1, 2);
        config.grid_pitch_mm = 3.0;
        let idle = config.idle_server_power.value();
        let fleet = Fleet::new(config);
        let job = |id| Job {
            id,
            bench: Benchmark::X264,
            qos: QosClass::TwoX,
            arrival: Seconds::new(5.0),
            service: Seconds::new(40.0),
        };
        let telemetry = TelemetryConfig::default();
        let result = fleet
            .simulate_with(
                &[job(0), job(1)],
                &mut RoundRobin::default(),
                &mut StaticControl,
                Some(&telemetry),
                &OutcomeCache::new(),
            )
            .unwrap();
        let trace = result.trace.expect("telemetry was on");
        let last = trace.samples().last().expect("the trace has rows");
        assert_eq!(last.t, result.outcome.makespan);
        assert_eq!((last.running, last.queued), (0, 0));
        assert_eq!(last.it_power.value(), 2.0 * idle);
        assert_eq!(last.cooling_power.value(), 0.0);
        assert_eq!(last.rack_heat, vec![Watts::new(0.0)]);
        assert_eq!(last.rack_water, vec![None]);
        // The row before it still saw both jobs running.
        let rows: Vec<&FleetSample> = trace.samples().collect();
        assert_eq!(rows[rows.len() - 2].running, 2);
    }
}
