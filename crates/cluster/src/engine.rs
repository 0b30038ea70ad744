//! The discrete-event simulation kernel: a deterministic event queue, the
//! mutable `FleetState` it drives, and the main loop that turns a job
//! stream plus a [`ControlPolicy`](crate::ControlPolicy) into placements
//! — whose energy is integrated as they happen — and (optionally) a
//! telemetry trace.
//!
//! Everything in here is sequential and byte-deterministic: the
//! [`EventQueue`](crate::EventQueue) orders events by a stable
//! `(time, class, seq)` key, so two runs of the same inputs — at any
//! thread count — replay the identical event sequence and produce
//! bit-identical floats. The five event kinds and their same-instant
//! ordering:
//!
//! 1. [`Event::JobCompletion`] — a server finishes a job; committed rack
//!    load expires *before* anything else sees that instant (a placement
//!    covers `[start, end)`).
//! 2. [`Event::SetpointChange`] — the chiller/heat-reuse set-point moves;
//!    later dispatch decisions and energy windows see the new chiller.
//! 3. [`Event::ControlTick`] — the control policy observes the fleet and
//!    may emit actions.
//! 4. [`Event::TelemetrySample`] — a [`FleetSample`] is recorded.
//! 5. [`Event::JobArrival`] — the dispatcher places the job against the
//!    settled fleet state.

use crate::cache::{OutcomeCache, SolveTable, SteadyState};
use crate::catalog::ClassId;
use crate::control::{ControlAction, ControlPolicy, ControlStatus, PlacementHint, RunContext};
use crate::dispatch::{
    ClassDemand, FleetDispatcher, FleetIndex, FleetView, JobDemand, RackView, ServerTable,
};
use crate::fleet::{Fleet, FleetConfig};
use crate::job::{pair_index, Job};
use crate::metrics::{
    EnergyIntegrator, FleetSample, FleetTrace, KernelStats, LatencyHistogram, Placement,
    ServingOutcome, ServingSample, SimResult, TelemetryConfig,
};
use crate::queue::EventQueue;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use tps_cooling::Chiller;
use tps_core::{MinPowerSelector, RunError};
use tps_units::{Celsius, Seconds, Watts};
use tps_workload::{Benchmark, QosClass};

/// How many future arrivals the kernel keeps enqueued ahead of the event
/// horizon. Arrivals are streamed from the time-sorted order, one pushed
/// per arrival processed, so the queue holds O(`ARRIVAL_LOOKAHEAD` +
/// in-flight completions) events instead of the whole job stream. Any
/// positive window preserves pop order (see `run`); the window bounds
/// the heap's depth, and with it the cost of every push and pop.
pub const ARRIVAL_LOOKAHEAD: usize = 1024;

/// A typed simulation event.
///
/// Events carry only identities; the payloads they act on (committed rack
/// load, running power, set-point) live in the kernel's `FleetState`, which settles
/// lazily to the event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A job finishes executing on a server (its committed rack load
    /// expires at this instant).
    JobCompletion {
        /// The completing job's id.
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
    JobArrival(usize),
}

impl Event {
    /// Same-instant ordering class (lower runs first); see the module
    /// docs for the rationale of completion-before-arrival.
    pub(crate) fn class(&self) -> u8 {
        match self {
            Event::JobCompletion { .. } => 0,
            Event::SetpointChange(_) => 1,
            Event::ControlTick => 2,
            Event::TelemetrySample => 3,
            Event::JobArrival(_) => 4,
        }
    }
}

/// Incremental per-rack committed load: every placement that has not
/// finished (running or still queued) counts against its rack until its
/// end time expires. Keeps dispatch O(racks + log jobs) per arrival
/// instead of rescanning all placements.
///
/// Beyond the per-rack sums, the structure maintains the kernel's
/// *dispatch index* incrementally: the current [`RackView`] per rack, the
/// occupied racks ordered by `(heat bits, rack)` and the idle racks per
/// rack group. Each placement or expiry touches exactly one rack, so the
/// index updates in O(log racks) — this is what lets dispatchers skip the
/// per-arrival full-fleet rescan.
///
/// It also owns the run's chiller and its epoch: every occupied entry
/// carries its rack's COP and chiller draw under that chiller
/// ([`OccupiedRack::cop`], [`OccupiedRack::draw`]), refreshed when the
/// rack mutates and, for every entry, on [`set_chiller`](Self::set_chiller).
///
/// Invariant note: the heat-sum / water-multiset / pin-drained-to-zero
/// bookkeeping here is mirrored (over different windows and orderings)
/// by the kernel's `RunningSet` and by the streaming `EnergyIntegrator`
/// (`metrics.rs`), all three keeping the water multiset as sorted
/// `(key, count)` vectors. The chiller terms cached here (each occupied
/// entry's `cop`/`draw`) and the integrator's dense draw array refresh
/// at the same two points: a mutation of the rack and a chiller change.
/// A change to these rules must land in all three; the property tests
/// (including the integrator's post-pass oracle) plus the golden
/// bit-for-bit fleet and serving tests pin the behavior.
#[derive(Debug)]
pub struct RackLoads {
    heat: Vec<f64>,
    /// Multiset of tolerable-water keys per rack, as an ascending sorted
    /// `(key, count)` vector; `f64::to_bits` is monotone for the
    /// non-negative temperatures in play and round-trips the exact value.
    /// A vector, not a `BTreeMap`: the handful of distinct keys per rack
    /// makes the binary search trivial, and the capacity survives the
    /// rack draining — no node allocation per placement on the hot path.
    water: Vec<Vec<(u64, u32)>>,
    count: Vec<usize>,
    /// Min-heap of `(end_bits, insertion seq, rack, heat_bits,
    /// water_bits)`. The unique seq makes the key total, so pops replay
    /// the exact `(end, insertion)` order a sorted map would — on a flat
    /// array instead of B-tree nodes (this is a per-placement hot path).
    expiry: BinaryHeap<Reverse<(u64, usize, u32, u64, u64)>>,
    seq: usize,
    total: usize,
    /// The current dispatch view per rack, kept exactly equal to what a
    /// from-scratch rebuild would produce (heat clamped non-negative,
    /// coldest committed water, committed count).
    views: Vec<RackView>,
    /// Racks with committed load, an ascending sorted vector keyed
    /// `(view-heat bits, rack)` — the clamped heat is non-negative, so
    /// `to_bits` sorts like the float. A vector, not a tree: dispatchers
    /// scan it on every arrival, and membership churn moves only a few
    /// dozen in-flight entries per mutation. Each entry carries the
    /// rack's fold inputs (heat, supply, group) inline, so the dispatch
    /// hot loop reads one contiguous array instead of chasing four
    /// rack-indexed arrays across the cache.
    occupied: Vec<OccupiedRack>,
    /// Idle racks per rack group, ascending by rack index.
    idle: Vec<BTreeSet<u32>>,
    /// Cached per-group minimum idle rack — always exactly
    /// `idle[g].first()`, so the dispatch hot path reads each group's
    /// representative in O(1) instead of chasing B-tree nodes per
    /// arrival.
    idle_min: Vec<Option<u32>>,
    /// Rack → rack-group id.
    group_of: Vec<u32>,
    chiller: Chiller,
    /// Bumped on every chiller change; dispatch score caches key on it.
    chiller_epoch: u64,
}

/// One entry of the occupied-rack index: the sort key `(heat bits,
/// rack)` plus the rack's dispatch-fold inputs, denormalized inline so a
/// per-arrival candidate scan is a single contiguous read. The fields
/// replay the rack's [`RackView`] bit-for-bit: `heat_bits` is the view
/// heat's `to_bits` (clamped non-negative, so the sort order matches the
/// float) and `supply_bits` the view supply's, with [`Self::NO_SUPPLY`]
/// standing in for `None`. `cop` and `draw` are the chiller terms of
/// that view under the [`RackLoads`]' chiller (see [`Self::new`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupiedRack {
    /// `to_bits` of the rack's clamped committed heat (key, major).
    pub heat_bits: u64,
    /// The rack id (key, minor — makes the key total).
    pub rack: u32,
    /// The rack's group id (its class pattern).
    pub group: u32,
    /// `to_bits` of the coldest committed water demand, or
    /// [`Self::NO_SUPPLY`] when the rack has none.
    pub supply_bits: u64,
    /// `chiller.cop(supply)`, `NaN` without a supply.
    pub cop: f64,
    /// The rack's current chiller draw `heat / cop` — bit-for-bit
    /// `chiller.electrical_power(heat, supply)` — or `0.0` without a
    /// supply.
    pub draw: f64,
}

impl OccupiedRack {
    /// Sentinel for "no settled supply" — an all-ones NaN pattern no real
    /// temperature produces.
    pub const NO_SUPPLY: u64 = u64::MAX;

    /// The entry for `rack` (in `group`) with view `view`, its chiller
    /// terms evaluated under `chiller`.
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

    /// The rack's committed heat, exactly the [`RackView`]'s.
    #[inline]
    pub fn heat(&self) -> f64 {
        f64::from_bits(self.heat_bits)
    }

    /// The rack's settled supply, exactly the [`RackView`]'s.
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
    /// the dispatch fast path treats any idle rack of a group as
    /// interchangeable with the rest.
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
        let mut idle = vec![BTreeSet::new(); groups.max(1)];
        for (r, &g) in group_of.iter().enumerate() {
            idle[g as usize].insert(r as u32);
        }
        let idle_min = idle.iter().map(|s| s.first().copied()).collect();
        Self {
            heat: vec![0.0; racks],
            water: vec![Vec::new(); racks],
            count: vec![0; racks],
            expiry: BinaryHeap::new(),
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
            idle,
            idle_min,
            group_of,
            chiller,
            chiller_epoch: 0,
        }
    }

    /// The chiller the occupied entries' COP terms are evaluated under.
    pub fn chiller(&self) -> &Chiller {
        &self.chiller
    }

    /// How many times [`set_chiller`](Self::set_chiller) has run: scores
    /// cached under an older epoch are stale.
    pub fn chiller_epoch(&self) -> u64 {
        self.chiller_epoch
    }

    /// Swaps the chiller (a set-point change), bumps the epoch and
    /// re-evaluates every occupied entry's COP terms under it.
    pub fn set_chiller(&mut self, chiller: Chiller) {
        self.chiller = chiller;
        self.chiller_epoch += 1;
        for e in &mut self.occupied {
            e.refresh(&self.chiller);
        }
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.heat.len()
    }

    /// Committed placements across all racks.
    pub fn total_committed(&self) -> usize {
        self.total
    }

    /// Re-derives `rack`'s view and index membership after a mutation.
    /// The view expressions are exactly the from-scratch rebuild's, so
    /// the maintained views stay bit-identical to [`views`](Self::views).
    fn sync_rack(&mut self, rack: usize, was_occupied: bool, old_bits: u64) {
        let view = RackView {
            heat: Watts::new(self.heat[rack].max(0.0)),
            supply: self.water[rack]
                .first()
                .map(|&(bits, _)| Celsius::new(f64::from_bits(bits))),
            committed: self.count[rack],
        };
        let now_occupied = view.committed > 0;
        let r = rack as u32;
        let g = self.group_of[rack] as usize;
        let entry = OccupiedRack::new(r, self.group_of[rack], &view, &self.chiller);
        self.views[rack] = view;
        let find = |occupied: &[OccupiedRack], bits| {
            occupied.binary_search_by_key(&(bits, r), OccupiedRack::key)
        };
        match (was_occupied, now_occupied) {
            (false, true) => {
                self.idle[g].remove(&r);
                if self.idle_min[g] == Some(r) {
                    self.idle_min[g] = self.idle[g].first().copied();
                }
                let at =
                    find(&self.occupied, entry.heat_bits).expect_err("idle racks have no entry");
                self.occupied.insert(at, entry);
            }
            (true, false) => {
                let at = find(&self.occupied, old_bits).expect("occupied racks have an entry");
                self.occupied.remove(at);
                self.idle[g].insert(r);
                if self.idle_min[g].map_or(true, |m| r < m) {
                    self.idle_min[g] = Some(r);
                }
            }
            (true, true) => {
                // Slide the entry to its new key, shifting only the
                // entries between its old and new slots. An unchanged key
                // still takes the new entry: a zero-heat placement can move
                // the supply (and with it the COP terms) alone.
                let from = find(&self.occupied, old_bits).expect("occupied racks have an entry");
                let to = match find(&self.occupied, entry.heat_bits) {
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
            (false, false) => {}
        }
    }

    /// Commits `state`'s load to `rack` until `end`.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is out of range.
    pub fn add(&mut self, rack: usize, state: &SteadyState, end: Seconds) {
        let was_occupied = self.count[rack] > 0;
        let old_bits = self.views[rack].heat.value().to_bits();
        let water_bits = state.max_water_temp.value().to_bits();
        self.heat[rack] += state.heat.value();
        self.count[rack] += 1;
        self.total += 1;
        match self.water[rack].binary_search_by_key(&water_bits, |e| e.0) {
            Ok(i) => self.water[rack][i].1 += 1,
            Err(i) => self.water[rack].insert(i, (water_bits, 1)),
        }
        self.expiry.push(Reverse((
            end.value().to_bits(),
            self.seq,
            rack as u32,
            state.heat.value().to_bits(),
            water_bits,
        )));
        self.seq += 1;
        self.sync_rack(rack, was_occupied, old_bits);
    }

    /// Drops every placement with `end ≤ now` (it covered `[start, end)`),
    /// in `(end, insertion)` order so float accumulation is deterministic.
    pub fn expire_until(&mut self, now: Seconds) {
        while let Some(&Reverse((end_bits, _, rack, heat_bits, water_bits))) = self.expiry.peek() {
            if f64::from_bits(end_bits) > now.value() {
                break;
            }
            let (rack, heat) = (rack as usize, f64::from_bits(heat_bits));
            self.expiry.pop();
            let was_occupied = self.count[rack] > 0;
            let old_bits = self.views[rack].heat.value().to_bits();
            self.heat[rack] -= heat;
            self.count[rack] -= 1;
            self.total -= 1;
            if let Ok(i) = self.water[rack].binary_search_by_key(&water_bits, |e| e.0) {
                self.water[rack][i].1 -= 1;
                if self.water[rack][i].1 == 0 {
                    self.water[rack].remove(i);
                }
            }
            // Pin drained racks back to exact zero: float residue must not
            // perturb later dispatch comparisons.
            if self.count[rack] == 0 {
                self.heat[rack] = 0.0;
            }
            self.sync_rack(rack, was_occupied, old_bits);
        }
    }

    /// The maintained per-rack dispatch views — always equal to what a
    /// from-scratch rebuild would compute.
    pub fn view_slice(&self) -> &[RackView] {
        &self.views
    }

    /// Racks with committed load, ordered `(view-heat bits, rack)`, each
    /// entry carrying its fold inputs inline (see [`OccupiedRack`]).
    pub fn occupied_racks(&self) -> &[OccupiedRack] {
        &self.occupied
    }

    /// Idle racks per rack group, each ascending by rack index.
    pub fn idle_groups(&self) -> &[BTreeSet<u32>] {
        &self.idle
    }

    /// Per-group cached minimum idle rack, always equal to
    /// `idle_groups()[g].first()` (`None` while the group has no idle
    /// racks).
    pub fn idle_group_mins(&self) -> &[Option<u32>] {
        &self.idle_min
    }

    /// The per-rack dispatch views as a fresh vector (allocating
    /// convenience over [`view_slice`](Self::view_slice)).
    pub fn views(&self) -> Vec<RackView> {
        self.views.clone()
    }
}

/// A placement boundary waiting in a [`RunningSet`] heap: `(time bits,
/// commit seq, rack, class, heat bits, package-power bits, water bits)`.
/// `to_bits` is monotone for the non-negative times in play and the seq
/// is unique, so the min-heap pops in exactly the `(time, insertion)`
/// order a sorted map would and never compares past the seq.
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

/// The *running* (started, not finished) layer of the fleet, maintained
/// lazily for telemetry and control snapshots. Distinct from
/// [`RackLoads`], which tracks *committed* (running or queued) load —
/// the quantity dispatch decisions are made against. Shares its
/// accumulation rules with [`RackLoads`] and the `EnergyIntegrator` (see
/// the invariant note on [`RackLoads`]), but not its state: it settles
/// every start at an instant before the ends, where the integrator folds
/// ends first, so its float sums — and the trace bytes they print —
/// differ from the integrator's.
#[derive(Debug)]
struct RunningSet {
    /// Placements not yet started, keyed by start.
    starts: BinaryHeap<RunningEdge>,
    /// Placements started, not yet folded out, keyed by end.
    ends: BinaryHeap<RunningEdge>,
    seq: u64,
    active_power: f64,
    heat: Vec<f64>,
    /// Running water keys per rack, as ascending sorted `(key, count)`
    /// vectors like [`RackLoads`]'.
    water: Vec<Vec<(u64, u32)>>,
    count: Vec<usize>,
    running: usize,
    /// Per-class running counts and active package power (telemetry's
    /// per-class columns on heterogeneous fleets).
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

    fn commit(
        &mut self,
        rack: usize,
        class: ClassId,
        state: &SteadyState,
        start: Seconds,
        end: Seconds,
    ) {
        let edge = |t: Seconds| {
            Reverse((
                t.value().to_bits(),
                self.seq,
                rack as u32,
                class as u32,
                state.heat.value().to_bits(),
                state.package_power.value().to_bits(),
                state.max_water_temp.value().to_bits(),
            ))
        };
        self.starts.push(edge(start));
        self.ends.push(edge(end));
        self.seq += 1;
    }

    /// Folds all starts, then all ends, with time ≤ `now` into the
    /// aggregates, in `(time, insertion)` order.
    fn settle(&mut self, now: Seconds) {
        while let Some((rack, class, heat, power, water_bits)) = pop_due(&mut self.starts, now) {
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
            // Pin drained sums to exact zero (fleet-wide and per class)
            // so float residue never leaks into later samples.
            if self.class_running[class] == 0 {
                self.class_power[class] = 0.0;
            }
            if self.running == 0 {
                self.active_power = 0.0;
            }
        }
    }
}

/// The kernel's mutable fleet state: per-rack committed load (which owns
/// the current chiller), the structure-of-arrays server table, the
/// running layer behind telemetry, and the control surface (set-point,
/// shedding flag).
#[derive(Debug)]
pub(crate) struct FleetState {
    loads: RackLoads,
    running: RunningSet,
    servers: ServerTable,
    setpoint: Celsius,
    shedding: bool,
    shed: usize,
    violations: usize,
    pending_arrivals: usize,
}

impl FleetState {
    fn new(
        config: &FleetConfig,
        classes: usize,
        pending_arrivals: usize,
        servers: ServerTable,
        loads: RackLoads,
    ) -> Self {
        Self {
            loads,
            running: RunningSet::new(config.racks, classes),
            servers,
            setpoint: config.chiller.ambient(),
            shedding: false,
            shed: 0,
            violations: 0,
            pending_arrivals,
        }
    }

    /// All arrivals processed and nothing committed: the simulation can
    /// stop re-arming periodic events.
    fn done(&self) -> bool {
        self.pending_arrivals == 0 && self.loads.total_committed() == 0
    }

    /// Placed but not yet started.
    fn queued(&self) -> usize {
        self.loads.total_committed() - self.running.running
    }
}

/// Runs the event loop: arrivals dispatched against settled state,
/// completions expiring committed load, control ticks and set-point
/// changes steering the chiller, telemetry sampled on its own cadence.
///
/// The run's demand states resolve lock-free off the published
/// [`SolveTable`] epoch ([`Fleet::simulate_with`](crate::Fleet::simulate_with)
/// publishes a covering table first); keys the table lacks fall back to
/// [`OutcomeCache::get_or_solve`], still correct, just locked. `pairs`
/// are the stream's sorted distinct `(bench, qos)` pairs (see
/// `job::demand_pairs`); a pair's position is its demand signature.
#[allow(clippy::too_many_arguments)] // the run's inputs, passed straight through
pub(crate) fn run(
    fleet: &Fleet,
    jobs: &[Job],
    pairs: &[(Benchmark, QosClass)],
    dispatcher: &mut dyn FleetDispatcher,
    control: &mut dyn ControlPolicy,
    telemetry: Option<&TelemetryConfig>,
    cache: &OutcomeCache,
    table: &SolveTable,
) -> Result<SimResult, RunError> {
    let config = fleet.config();
    let locks_at_entry = cache.lock_acquisitions();
    let selector = MinPowerSelector;
    let solvers = fleet.class_solvers();
    let class_of = fleet.server_classes();
    let n_servers = config.total_servers();

    // Structure-of-arrays server state: availability, class and rack ids
    // as flat columns indexed by server id.
    let servers = ServerTable::new(class_of.to_vec(), config.servers_per_rack);
    // Rack groups: racks hosting the same class pattern are
    // interchangeable while idle, which is what collapses the dispatch
    // ranking from O(racks) to O(occupied + groups) per arrival.
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

    // The per-(benchmark, QoS) demand states, solved once up front — a
    // million arrivals share a handful of distinct demand signatures, so
    // the per-arrival cache round-trip collapses to a slice index. The
    // per-job fields (runtime, wait budget) are derived per arrival from
    // the shared steady state with the exact same expressions as before.
    // Each arrival finds its signature by direct index into a dense
    // |Benchmark|×|QosClass| table of pair positions.
    let mut sig_of = [u32::MAX; Benchmark::ALL.len() * QosClass::ALL.len()];
    for (sig, &(bench, qos)) in pairs.iter().enumerate() {
        sig_of[pair_index(bench, qos)] = sig as u32;
    }
    // Each lookup reads the shared frozen epoch — zero lock acquisitions.
    // Keys the table predates fall back to the locked solve path.
    let mut table_hits = 0usize;
    let mut miss_solves = 0usize;
    let mut pair_states: Vec<Vec<SteadyState>> = Vec::with_capacity(pairs.len());
    for &(bench, qos) in pairs {
        let mut per_class = Vec::with_capacity(solvers.len());
        for solver in &solvers {
            per_class.push(match table.lookup(solver, bench, qos) {
                Some(state) => {
                    table_hits += 1;
                    state
                }
                None => {
                    miss_solves += 1;
                    cache.get_or_solve(solver, bench, qos, &selector, config.t_case_max)?
                }
            });
        }
        pair_states.push(per_class);
    }
    if table_hits > 0 {
        cache.record_table_hits(table_hits);
    }
    if miss_solves > 0 {
        cache.record_miss_solves(miss_solves);
    }

    let mut queue = EventQueue::new();
    // Arrivals in time order (id on ties), pushed in that order so the
    // queue's seq tie-break preserves it. Only a bounded lookahead window
    // is in the queue at once: each processed arrival streams the next
    // one in, so peak queue depth stays O(window + in-flight) instead of
    // O(total jobs). Order is unaffected — every unpushed arrival is no
    // earlier than the latest pending one, and on exact time ties the
    // arrival class pops last anyway, so nothing can pop before the
    // window catches up to it.
    let n_jobs = u32::try_from(jobs.len()).expect("a job stream holds at most u32::MAX jobs");
    let mut order: Vec<u32> = (0..n_jobs).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&jobs[a as usize], &jobs[b as usize]);
        a.arrival
            .value()
            .total_cmp(&b.arrival.value())
            .then(a.id.cmp(&b.id))
    });
    for &ji in order.iter().take(ARRIVAL_LOOKAHEAD) {
        let ji = ji as usize;
        queue.push(jobs[ji].arrival, Event::JobArrival(ji));
    }
    let mut next_arrival = order.len().min(ARRIVAL_LOOKAHEAD);
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
        pair_states: &pair_states,
        chiller: &config.chiller,
        servers: &servers,
        classes: solvers.len(),
    });
    let mut state = FleetState::new(config, solvers.len(), jobs.len(), servers, loads);
    dispatcher.begin_run();
    // Closed-loop machinery — the running layer (telemetry's view of
    // started-not-finished jobs) and the JobCompletion events that keep
    // it and the tick/sample re-arming honest — costs two queue pushes
    // and two ordered-map insertions per placement. When nothing reads
    // it (open loop: no ticks, no telemetry) the kernel elides it: the
    // committed layer already expires lazily at each arrival, so the
    // event stream degenerates to arrivals only and the replay runs at
    // the pre-kernel simulator's speed.
    let closed_loop = telemetry.is_some() || tick.is_some();
    // Energy integrates online: each placement's window and each
    // set-point or activation change is fed as it happens, and folded
    // once no later event can precede it.
    let mut energy = EnergyIntegrator::new(config, &fleet.class_names());
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
        let mut trace = FleetTrace::with_classes(config.racks, fleet.class_names(), t.capacity);
        if serving {
            trace.enable_serving();
        }
        trace
    });
    let mut final_sampled = false;
    // Scratch for the per-class demands (hot path: one buffer for the
    // whole run instead of one allocation per arrival).
    let mut class_scratch: Vec<ClassDemand> = Vec::with_capacity(solvers.len());

    while let Some((now, event)) = queue.pop() {
        match event {
            Event::JobCompletion { .. } => {
                state.loads.expire_until(now);
                state.running.settle(now);
                // The trace ends exactly at the makespan: record the
                // drained fleet once, at the event that drains it.
                if state.done() && !final_sampled {
                    if let Some(trace) = trace.as_mut() {
                        trace.push(sample(&state, now, config, serving.then_some(&latency_all)));
                        final_sampled = true;
                    }
                }
            }
            Event::SetpointChange(c) => {
                state.loads.set_chiller(config.chiller.with_ambient(c));
                state.setpoint = c;
                energy.setpoint(now, c);
            }
            Event::ControlTick => {
                if !state.done() {
                    state.loads.expire_until(now);
                    state.running.settle(now);
                    let status = ControlStatus {
                        now,
                        committed: state.loads.total_committed(),
                        running: state.running.running,
                        queued: state.queued(),
                        shed: state.shed,
                        violations: state.violations,
                        setpoint: state.setpoint,
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
                                state.setpoint = c;
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
                    state.running.settle(now);
                    let t = telemetry.expect("samples only fire when telemetry is on");
                    if let Some(trace) = trace.as_mut() {
                        trace.push(sample(&state, now, config, serving.then_some(&latency_all)));
                    }
                    queue.push(now + t.sample_interval, Event::TelemetrySample);
                }
            }
            Event::JobArrival(ji) => {
                // Stream the next arrival in to replace this one, keeping
                // the lookahead window full until the stream runs dry.
                if next_arrival < order.len() {
                    let nj = order[next_arrival] as usize;
                    queue.push(jobs[nj].arrival, Event::JobArrival(nj));
                    next_arrival += 1;
                }
                let job = &jobs[ji];
                state.pending_arrivals -= 1;
                state.loads.expire_until(now);
                if state.shedding {
                    state.shed += 1;
                    // A run can end on a shed arrival (everything placed
                    // has finished, the rest of the stream is dropped):
                    // the final trace row must still carry the final shed
                    // count, so the drained-fleet sample records here too.
                    if state.done() && !final_sampled {
                        if let Some(trace) = trace.as_mut() {
                            state.running.settle(now);
                            trace.push(sample(
                                &state,
                                now,
                                config,
                                serving.then_some(&latency_all),
                            ));
                            final_sampled = true;
                        }
                    }
                    continue;
                }
                // The job's demand on every catalog class: the same
                // workload runs hotter (or slower) on one hardware bin
                // than another, and the dispatcher ranks those options.
                let pair = sig_of[pair_index(job.bench, job.qos)];
                class_scratch.clear();
                for steady in &pair_states[pair as usize] {
                    class_scratch.push(ClassDemand {
                        state: *steady,
                        runtime: job.service * steady.normalized_time,
                        wait_budget: job.wait_budget(steady.normalized_time),
                    });
                }
                let demand = JobDemand {
                    job,
                    classes: &class_scratch,
                    sig: pair,
                };
                let loads = &state.loads;
                let view = FleetView {
                    now,
                    racks: loads.view_slice(),
                    servers: &state.servers,
                    chiller: loads.chiller(),
                    chiller_epoch: loads.chiller_epoch(),
                    index: FleetIndex {
                        occupied: loads.occupied_racks(),
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
                energy.place(
                    now,
                    &Placement {
                        rack,
                        class,
                        start,
                        end,
                        wait,
                        violated,
                        state: steady,
                    },
                );
                state.loads.add(rack, &steady, end);
                state.servers.set_free_at(placed, end);
                if closed_loop {
                    state.running.commit(rack, class, &steady, start, end);
                    queue.push(
                        end,
                        Event::JobCompletion {
                            job: job.id,
                            server: placed,
                        },
                    );
                }
            }
        }
    }

    let qstats = queue.stats();
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
            events: qstats.pushed,
            peak_queue_depth: qstats.peak_depth,
            arena_high_water: qstats.arena_high_water,
            table_hits,
            miss_solves,
            // Cache locks observed over this run. A steady-state replay
            // on a covering table reads 0 — the zero-lock smoke pins it.
            lock_acquisitions: cache.lock_acquisitions() - locks_at_entry,
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

/// Captures one telemetry sample from the settled running layer. In
/// serving mode `latency` carries the whole-run percentile sketch and the
/// sample gains the active-server count and latency quantiles.
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
        .saturating_sub(running.running) as f64
        * config.idle_server_power.value();
    // One rack-order pass fills the per-rack columns and sums the
    // chiller power of every rack with a supply.
    let chiller = state.loads.chiller();
    let mut rack_heat = Vec::with_capacity(config.racks);
    let mut rack_water = Vec::with_capacity(config.racks);
    let mut cooling = 0.0;
    for (&heat, water) in running.heat.iter().zip(&running.water) {
        let heat = heat.max(0.0);
        let supply = water
            .first()
            .map(|&(bits, _)| Celsius::new(f64::from_bits(bits)));
        if let Some(supply) = supply {
            cooling += chiller.electrical_power(Watts::new(heat), supply).value();
        }
        rack_heat.push(Watts::new(heat));
        rack_water.push(supply);
    }
    FleetSample {
        t: now,
        setpoint: state.setpoint,
        queued: state.queued(),
        running: running.running,
        shed: state.shed,
        violations: state.violations,
        it_power: Watts::new(running.active_power + idle),
        cooling_power: Watts::new(cooling),
        rack_heat,
        rack_water,
        class_running: running.class_running.clone(),
        class_it_power: running.class_power.iter().map(|&p| Watts::new(p)).collect(),
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
        let views = loads.views();
        assert_eq!(views[0].heat, Watts::new(120.0));
        // The coldest committed demand caps the shared supply.
        assert_eq!(views[0].supply, Some(Celsius::new(60.0)));
        assert_eq!(views[1].supply, None);

        loads.expire_until(Seconds::new(10.0));
        let views = loads.views();
        assert_eq!(views[0].heat, Watts::new(70.0));
        assert_eq!(views[0].supply, Some(Celsius::new(60.0)));

        loads.expire_until(Seconds::new(25.0));
        let views = loads.views();
        assert_eq!(views[0].heat.value(), 0.0);
        assert_eq!(views[0].supply, None);
        assert_eq!(loads.total_committed(), 0);
    }

    #[test]
    fn rack_loads_maintain_the_occupancy_index() {
        let mut loads = RackLoads::with_groups(4, vec![0, 0, 1, 1], 2, Chiller::default());
        assert_eq!(loads.occupied_racks().len(), 0);
        assert_eq!(loads.idle_groups()[0].len(), 2);
        assert_eq!(loads.idle_groups()[1].len(), 2);

        let state = |heat: f64| SteadyState {
            package_power: Watts::new(heat),
            heat: Watts::new(heat),
            max_water_temp: Celsius::new(70.0),
            normalized_time: 1.0,
            n_cores: 8,
            die_max: Celsius::new(70.0),
        };
        loads.add(2, &state(50.0), Seconds::new(10.0));
        loads.add(0, &state(30.0), Seconds::new(20.0));
        // Occupied orders by heat (bits), not rack index.
        let occ: Vec<u32> = loads.occupied_racks().iter().map(|e| e.rack).collect();
        assert_eq!(occ, vec![0, 2]);
        assert_eq!(
            loads.idle_groups()[0].iter().copied().collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(
            loads.idle_groups()[1].iter().copied().collect::<Vec<_>>(),
            vec![3]
        );

        loads.expire_until(Seconds::new(15.0));
        // Rack 2 drained: back to its group's idle set.
        assert_eq!(loads.occupied_racks().len(), 1);
        assert_eq!(
            loads.idle_groups()[1].iter().copied().collect::<Vec<_>>(),
            vec![2, 3]
        );
        // Maintained views match a naive read of the drained state.
        assert_eq!(loads.view_slice()[2].heat.value(), 0.0);
        assert_eq!(loads.view_slice()[2].committed, 0);
        assert_eq!(loads.view_slice()[0].heat, Watts::new(30.0));
    }

    #[test]
    fn running_set_settles_starts_before_ends_and_pins_zero() {
        let mut run = RunningSet::new(1, 2);
        let state = |heat: f64| SteadyState {
            package_power: Watts::new(heat),
            heat: Watts::new(heat),
            max_water_temp: Celsius::new(70.0),
            normalized_time: 1.0,
            n_cores: 8,
            die_max: Celsius::new(70.0),
        };
        run.commit(0, 0, &state(40.0), Seconds::new(0.0), Seconds::new(10.0));
        run.commit(0, 1, &state(60.0), Seconds::new(10.0), Seconds::new(20.0));
        run.settle(Seconds::new(5.0));
        assert_eq!(run.running, 1);
        assert_eq!(run.active_power, 40.0);
        assert_eq!(run.class_running, vec![1, 0]);
        // At t = 10 the first job's end and the second's start coincide:
        // both fold, leaving exactly the second running.
        run.settle(Seconds::new(10.0));
        assert_eq!(run.running, 1);
        assert_eq!(run.active_power, 60.0);
        assert_eq!(run.class_running, vec![0, 1]);
        assert_eq!(run.class_power, vec![0.0, 60.0]);
        run.settle(Seconds::new(30.0));
        assert_eq!(run.running, 0);
        assert_eq!(run.active_power, 0.0);
        assert_eq!(run.heat[0], 0.0);
        assert_eq!(run.class_power, vec![0.0, 0.0]);
    }
}
