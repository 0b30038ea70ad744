//! Aggregate fleet metrics: energy integration over the event timeline,
//! and the time-series telemetry the kernel samples along the way.

use crate::fleet::FleetConfig;
use crate::load::{Load, Running};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use tps_cooling::{pue, Chiller};
use tps_units::{Celsius, Joules, Seconds, Watts};

/// One job's placement and execution window, as the kernel hands it to
/// the [`EnergyIntegrator`] at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Placement {
    /// Its contribution to rack state.
    pub(crate) load: Load,
    /// Execution start (arrival + queueing).
    pub(crate) start: Seconds,
    /// Execution end.
    pub(crate) end: Seconds,
    /// Queueing delay.
    pub(crate) wait: Seconds,
    /// Whether the wait blew the job's QoS budget.
    pub(crate) violated: bool,
}

impl Placement {
    /// Whether the placement runs for a nonzero time: only such a
    /// placement opens energy windows, so only its start and end reach
    /// the [`EnergyIntegrator`].
    pub(crate) fn integrates(&self) -> bool {
        self.end.value() > self.start.value()
    }
}

/// A fixed-bucket latency histogram: the streaming percentile sketch for
/// serving mode. Integer bucket counts make every quantile a pure function
/// of the recorded multiset — no floating accumulation, so the answer is
/// byte-identical regardless of recording order, thread count or queue
/// backend.
///
/// Each recorded latency lands in the bucket `⌊latency / width⌋`; values
/// past the last bucket saturate into an overflow bucket. A quantile is
/// reported as the *upper edge* of the bucket holding the rank-`⌈q·n⌉`
/// sample (overflow saturates to the top edge), so reported percentiles
/// are conservative to within one bucket width.
///
/// ```
/// use tps_cluster::LatencyHistogram;
/// use tps_units::Seconds;
///
/// let mut h = LatencyHistogram::default(); // 10 ms × 6000 buckets
/// for ms in [5.0, 15.0, 15.0, 47.0] {
///     h.record(Seconds::new(ms / 1000.0));
/// }
/// assert_eq!(h.len(), 4);
/// assert_eq!(h.quantile(0.5), Some(Seconds::new(0.02))); // 15 ms bucket edge
/// assert_eq!(h.quantile(1.0), Some(Seconds::new(0.05)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    width_ms: u32,
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    /// 10 ms buckets covering 60 s, plus the overflow bucket.
    fn default() -> Self {
        Self::new(10, 6_000)
    }
}

impl LatencyHistogram {
    /// A histogram of `buckets` regular buckets of `width_ms` milliseconds
    /// each, plus one overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `width_ms` or `buckets` is zero.
    pub fn new(width_ms: u32, buckets: usize) -> Self {
        assert!(width_ms > 0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Self {
            width_ms,
            counts: vec![0; buckets + 1],
            total: 0,
        }
    }

    /// The regular-bucket width in seconds.
    pub fn width(&self) -> Seconds {
        Seconds::new(f64::from(self.width_ms) / 1000.0)
    }

    /// Records one latency (negative values clamp to the first bucket,
    /// values past the range saturate into the overflow bucket).
    pub fn record(&mut self, latency: Seconds) {
        let width = f64::from(self.width_ms) / 1000.0;
        let regular = self.counts.len() - 1;
        let idx = ((latency.value() / width).max(0.0) as usize).min(regular);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Recorded latency count.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Resets all counts (the bucket layout is kept).
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q`-quantile as the upper edge of the bucket holding the
    /// rank-`max(1, ⌈q·n⌉)` recorded latency, or `None` while empty.
    /// Overflowed samples report the top regular edge (the sketch's
    /// saturation point).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q ≤ 1`.
    pub fn quantile(&self, q: f64) -> Option<Seconds> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let width = f64::from(self.width_ms) / 1000.0;
        let regular = self.counts.len() - 1;
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(Seconds::new((idx.min(regular - 1) + 1) as f64 * width));
            }
        }
        unreachable!("rank ≤ total is always reached")
    }
}

/// The serving-mode slice of a [`FleetOutcome`]: whole-run latency
/// percentiles from the [`LatencyHistogram`] sketch and the active-server
/// trajectory the autoscaler drove.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingOutcome {
    /// Requests placed (same as the placement count).
    pub requests: usize,
    /// Median request latency (dispatch wait + service).
    pub latency_p50: Seconds,
    /// 95th-percentile request latency.
    pub latency_p95: Seconds,
    /// 99th-percentile request latency.
    pub latency_p99: Seconds,
    /// Time-weighted mean of the active-server count over the run.
    pub mean_active_servers: f64,
    /// Smallest active-server count the controller reached.
    pub min_active_servers: usize,
    /// Largest active-server count the controller reached.
    pub max_active_servers: usize,
}

/// The aggregate result of one fleet simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The dispatcher that produced this outcome.
    pub dispatcher: &'static str,
    /// The control policy that steered the run (`"static"` for the
    /// open-loop simulator).
    pub control: &'static str,
    /// End of the last execution.
    pub makespan: Seconds,
    /// IT energy: active packages plus the idle floor of empty servers.
    pub it_energy: Joules,
    /// Chiller electrical energy across all racks.
    pub cooling_energy: Joules,
    /// Jobs whose queueing delay blew their QoS budget.
    pub violations: usize,
    /// Arrivals rejected by admission control (never placed).
    pub shed: usize,
    /// Mean queueing delay.
    pub mean_wait: Seconds,
    /// Worst queueing delay.
    pub max_wait: Seconds,
    /// Highest instantaneous heat any rack carried.
    pub peak_rack_heat: Watts,
    /// Catalog class names, in class-id order (one entry on a
    /// homogeneous fleet).
    pub class_names: Vec<String>,
    /// Active package energy per class (the idle floor is fleet-wide and
    /// stays in [`it_energy`](Self::it_energy) only).
    pub class_it_energy: Vec<Joules>,
    /// QoS violations per class.
    pub class_violations: Vec<usize>,
    /// Placements per class.
    pub class_placements: Vec<usize>,
    /// Latency percentiles and active-server trajectory, filled only by
    /// serving-mode runs (`None` keeps batch outcomes bit-identical).
    pub serving: Option<ServingOutcome>,
}

impl FleetOutcome {
    /// IT plus cooling energy.
    pub fn total_energy(&self) -> Joules {
        self.it_energy + self.cooling_energy
    }

    /// Energy-based power usage effectiveness over the whole run, `None`
    /// when the run consumed no IT energy (no job ran for a nonzero time).
    pub fn pue(&self) -> Option<f64> {
        let (it, cooling) = (self.it_energy.value(), self.cooling_energy.value());
        (it > 0.0).then(|| pue(Watts::new(it), Watts::new(cooling)))
    }
}

/// Event-kernel execution counters for one run: how much event traffic
/// the simulation generated and how deep the queue ran. Diagnostic only —
/// never part of the byte-determinism surface ([`FleetOutcome`] and the
/// trace CSV exclude it), so perf-motivated queue changes can move these
/// numbers without breaking golden outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events handled: every arrival, every start and completion of a
    /// closed-loop run, every set-point change, tick and sample. Arrivals
    /// read off the sorted stream and starts folded at their own dispatch
    /// instant count too, though they never enter the event queue.
    pub events: u64,
    /// Most events pending at once in the event queue alone. Arrivals and
    /// in-place starts never enter it, so an open-loop run without a
    /// set-point program reads 0.
    pub peak_queue_depth: usize,
    /// Most entries the event queue's storage held: its peak length, so
    /// always equal to `peak_queue_depth`.
    pub arena_high_water: usize,
    /// Demand-state lookups served lock-free off the frozen
    /// [`SolveTable`](crate::SolveTable) epoch.
    pub table_hits: usize,
    /// `(class, bench, qos)` keys the run's published table lacked, which
    /// [`OutcomeCache::ensure_published`](crate::OutcomeCache::ensure_published)
    /// solved for it (0 on a warm cache).
    pub miss_solves: usize,
    /// Cache lock acquisitions observed after the run's table was
    /// published — map and publication locks. A run reads **zero**; a
    /// test asserts it.
    pub lock_acquisitions: usize,
}

/// One result of [`Fleet::simulate_with`](crate::Fleet::simulate_with):
/// the aggregate outcome plus the telemetry trace when sampling was on.
#[derive(Debug)]
pub struct SimResult {
    /// The aggregate outcome (energy, QoS, per-class placement counts).
    pub outcome: FleetOutcome,
    /// The sampled time series (`None` when telemetry was off).
    pub trace: Option<FleetTrace>,
    /// Kernel execution counters (event count, queue depth, arena size).
    pub stats: KernelStats,
}

/// Telemetry sampling parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Interval between [`FleetSample`]s.
    pub sample_interval: Seconds,
    /// Ring capacity: the trace keeps the most recent `capacity` samples
    /// and counts the rest as dropped (never silently).
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    /// A 30 s cadence with a 16 384-sample ring (≈ 5.7 simulated days).
    fn default() -> Self {
        Self {
            sample_interval: Seconds::new(30.0),
            capacity: 16_384,
        }
    }
}

/// One telemetry sample: the fleet as the kernel saw it at `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSample {
    /// Sample instant.
    pub t: Seconds,
    /// Chiller/heat-reuse set-point in force.
    pub setpoint: Celsius,
    /// Placements queued behind busy servers.
    pub queued: usize,
    /// Placements executing.
    pub running: usize,
    /// Arrivals shed so far.
    pub shed: usize,
    /// QoS violations so far.
    pub violations: usize,
    /// Instantaneous IT power (active packages + idle floor).
    pub it_power: Watts,
    /// Instantaneous chiller electrical power across all racks.
    pub cooling_power: Watts,
    /// Per-rack heat carried by *running* jobs.
    pub rack_heat: Vec<Watts>,
    /// Per-rack shared water temperature (coldest running demand), `None`
    /// while a rack is idle.
    pub rack_water: Vec<Option<Celsius>>,
    /// Running placements per catalog class.
    pub class_running: Vec<usize>,
    /// Active package power per catalog class.
    pub class_it_power: Vec<Watts>,
    /// Serving-mode columns (`None` in batch mode, keeping batch traces
    /// byte-identical to their pre-serving form).
    pub serving: Option<ServingSample>,
}

/// The serving-mode slice of one [`FleetSample`]: the active-server count
/// and cumulative latency percentiles as of the sample instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingSample {
    /// Servers currently active (eligible for placement).
    pub active_servers: usize,
    /// Cumulative median request latency so far.
    pub p50: Seconds,
    /// Cumulative 95th-percentile request latency so far.
    pub p95: Seconds,
    /// Cumulative 99th-percentile request latency so far.
    pub p99: Seconds,
}

/// A bounded ring of [`FleetSample`]s with deterministic fixed-precision
/// CSV emission (two runs of the same scenario — at any thread count —
/// emit byte-identical files; the CI smoke diffs them).
///
/// ```
/// use tps_cluster::{FleetSample, FleetTrace};
/// use tps_units::{Celsius, Seconds, Watts};
///
/// let mut trace = FleetTrace::new(1, 8);
/// trace.push(FleetSample {
///     t: Seconds::ZERO,
///     setpoint: Celsius::new(70.0),
///     queued: 0,
///     running: 1,
///     shed: 0,
///     violations: 0,
///     it_power: Watts::new(120.0),
///     cooling_power: Watts::new(8.5),
///     rack_heat: vec![Watts::new(95.0)],
///     rack_water: vec![Some(Celsius::new(61.5))],
///     class_running: vec![1],
///     class_it_power: vec![Watts::new(120.0)],
///     serving: None,
/// });
/// let csv = trace.to_csv();
/// assert!(csv.starts_with("t_s,setpoint_c,queued,running,shed,violations"));
/// assert!(csv.contains("0.000,70.00,0,1,0,0,120.000,8.500,95.000,61.50"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTrace {
    samples: VecDeque<FleetSample>,
    racks: usize,
    /// Catalog class names; per-class columns are emitted only when the
    /// fleet declares more than one class, so homogeneous traces keep
    /// the exact pre-catalog column set.
    class_names: Vec<String>,
    capacity: usize,
    dropped: usize,
    /// Serving-mode columns on; batch traces never set this, keeping
    /// their column set byte-identical to the pre-serving format.
    serving: bool,
}

impl FleetTrace {
    /// An empty trace over `racks` racks keeping at most `capacity`
    /// samples (single-class fleet: no per-class columns).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(racks: usize, capacity: usize) -> Self {
        Self::with_classes(racks, vec!["default".to_owned()], capacity)
    }

    /// An empty trace over `racks` racks and the given catalog classes.
    /// Per-class `<name>_running`/`<name>_it_w` columns are emitted when
    /// more than one class is named.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `class_names` is empty.
    pub fn with_classes(racks: usize, class_names: Vec<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        assert!(!class_names.is_empty(), "a fleet has at least one class");
        Self {
            samples: VecDeque::with_capacity(capacity.min(1024)),
            racks,
            class_names,
            capacity,
            dropped: 0,
            serving: false,
        }
    }

    /// Turns on the serving-mode columns
    /// (`active_servers,lat_p50_s,lat_p95_s,lat_p99_s`). The serving
    /// kernel calls this; batch traces never do, so their CSV stays
    /// byte-identical to the pre-serving format.
    pub fn enable_serving(&mut self) {
        self.serving = true;
    }

    /// Appends a sample, dropping (and counting) the oldest when full.
    pub fn push(&mut self, sample: FleetSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &FleetSample> {
        self.samples.iter()
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Number of racks each sample covers.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// The full trace as CSV: header plus one line per retained sample,
    /// floats at fixed precision, idle racks' water column empty.
    /// Heterogeneous fleets (more than one class) append per-class
    /// `<name>_running,<name>_it_w` columns; single-class traces keep the
    /// exact homogeneous column set.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_s,setpoint_c,queued,running,shed,violations,it_w,cool_w");
        for r in 0..self.racks {
            out.push_str(&format!(",rack{r}_heat_w,rack{r}_water_c"));
        }
        let classes = if self.class_names.len() > 1 {
            self.class_names.len()
        } else {
            0
        };
        for name in self.class_names.iter().take(classes) {
            let name: String = name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            out.push_str(&format!(",{name}_running,{name}_it_w"));
        }
        if self.serving {
            out.push_str(",active_servers,lat_p50_s,lat_p95_s,lat_p99_s");
        }
        out.push('\n');
        for s in &self.samples {
            out.push_str(&format!(
                "{:.3},{:.2},{},{},{},{},{:.3},{:.3}",
                s.t.value(),
                s.setpoint.value(),
                s.queued,
                s.running,
                s.shed,
                s.violations,
                s.it_power.value(),
                s.cooling_power.value(),
            ));
            for r in 0..self.racks {
                match s.rack_water.get(r).copied().flatten() {
                    Some(w) => {
                        out.push_str(&format!(",{:.3},{:.2}", s.rack_heat[r].value(), w.value()))
                    }
                    None => out.push_str(&format!(",{:.3},", s.rack_heat[r].value())),
                }
            }
            for c in 0..classes {
                out.push_str(&format!(
                    ",{},{:.3}",
                    s.class_running.get(c).copied().unwrap_or(0),
                    s.class_it_power.get(c).map_or(0.0, |p| p.value()),
                ));
            }
            if self.serving {
                match s.serving {
                    Some(sv) => out.push_str(&format!(
                        ",{},{:.3},{:.3},{:.3}",
                        sv.active_servers,
                        sv.p50.value(),
                        sv.p95.value(),
                        sv.p99.value(),
                    )),
                    None => out.push_str(",0,0.000,0.000,0.000"),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Same-instant fold order of the [`EnergyIntegrator`]'s pending
/// boundaries: set-point changes before activation changes, and those
/// before additions. Removals (ends) fold before all three: a placement
/// covers `[start, end)`.
const SETPOINT: u8 = 1;
const ACTIVATION: u8 = 2;
const ADD: u8 = 3;

/// One pending boundary of the piecewise-constant power timeline — a
/// start or a change — waiting in the integrator until an end at or after
/// it arrives. Ordered *descending* by the total key `(time, kind, rack,
/// seq)`, so the std max-heap pops the earliest boundary first.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    time: f64,
    kind: u8,
    /// Feed order: the last tie-break, which makes the key total.
    seq: u64,
    /// A placement's load. A set-point change carries the bits of its
    /// new temperature in `water`, an activation change its new
    /// active-server count in `rack`, and both zeros elsewhere.
    load: Load,
}

impl Ord for Boundary {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then(other.kind.cmp(&self.kind))
            .then(other.load.rack.cmp(&self.load.rack))
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Boundary {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Boundary {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Boundary {}

/// Integrates fleet power into energy over the piecewise-constant event
/// timeline *while the kernel runs*.
///
/// Between consecutive placement starts/ends nothing changes, so each
/// window contributes `power × dt`: per rack, the chiller electricity of
/// the window's heat at the window's shared water temperature (minimum
/// of the co-hosted jobs' tolerable maxima); fleet-wide, the active
/// packages plus the idle floor of the *active* unoccupied servers.
/// Set-point changes swap the chiller between windows, activation changes
/// move the idle-floor base; servers still draining a placement after a
/// scale-down keep their package power regardless.
///
/// The kernel feeds each placement's start at dispatch time and each
/// set-point or activation change as it happens; they wait in a min-heap
/// under the total order `(time, kind, rack, feed order)`. It feeds each
/// end as the committed layer ([`RackLoads`](crate::RackLoads)) expires
/// it, in that layer's `(end, rack, commit order)` order, and drains the
/// rest before [`finish`](Self::finish). An end at `t` first folds every
/// pending boundary earlier than `t`, then itself. That is the total
/// order with removals first at an instant: no placement starts before
/// its own arrival, and an end is expired no earlier than it falls, so
/// every start or change earlier than an end has been fed by the time the
/// end arrives, and every end later fed lies later. Folding in that order
/// replays the whole-run sort it replaces, so every float accumulates in
/// the same order, bit for bit. A change only opens a window once a later
/// end exists: changes at or before the first start set the initial
/// chiller and activation, and changes at or after the last end never
/// fold (neither may stretch the idle-floor integration past the
/// makespan).
///
/// The folded fleet state is a [`Running`], the kernel's running-layer
/// type, folded here in the integrator's own order (ends before starts
/// at an instant). The per-class tallies ride along in separate sums:
/// they never feed the fleet-wide `it`/`cooling` totals, so the
/// homogeneous integration stays bit-identical.
#[derive(Debug)]
pub(crate) struct EnergyIntegrator {
    /// The configured chiller, re-based by every set-point change.
    base_chiller: Chiller,
    idle_server_power: f64,
    class_names: Vec<String>,
    /// Starts and changes not yet folded.
    pending: BinaryHeap<Boundary>,
    seq: u64,
    /// Earliest fed start (`∞` until one is fed).
    first_start: f64,
    /// Latest folded end (`0` until one is): the makespan once every end
    /// is in.
    last_end: f64,
    /// Instant of the last folded boundary: the open window's left edge.
    window_start: Option<f64>,
    chiller: Chiller,
    active: usize,
    running: Running,
    /// Only racks with committed water contribute cooling (and drained
    /// racks are pinned to exactly 0.0 heat, so they can't move the peak
    /// either): each window walks the occupied set, ascending by rack so
    /// the float accumulation order matches a full `0..racks` scan. A
    /// sorted vector, not a `BTreeSet`: the per-window walk dominates,
    /// and a contiguous ascending scan is both faster and exactly the
    /// same visit order.
    occupied: Vec<u32>,
    /// Each occupied rack's chiller draw, aligned with `occupied`:
    /// refreshed when a fold touches the rack and, for every entry, when
    /// a set-point folds — the same pure expression of the rack's heat,
    /// coldest water and the chiller either way, so a window reads the
    /// exact bits a fresh evaluation would give.
    draw: Vec<f64>,
    it: f64,
    cooling: f64,
    class_it: Vec<f64>,
    peak_rack_heat: f64,
    wait_sum: f64,
    max_wait: Seconds,
    violations: usize,
    class_violations: Vec<usize>,
    class_placements: Vec<usize>,
}

impl EnergyIntegrator {
    /// An integrator over `config`'s racks and chiller, with one energy,
    /// violation and placement tally per catalog class.
    pub(crate) fn new(config: &FleetConfig, class_names: &[String]) -> Self {
        let n_classes = class_names.len();
        Self {
            base_chiller: config.chiller.clone(),
            idle_server_power: config.idle_server_power.value(),
            class_names: class_names.to_vec(),
            pending: BinaryHeap::new(),
            seq: 0,
            first_start: f64::INFINITY,
            last_end: 0.0,
            window_start: None,
            chiller: config.chiller.clone(),
            active: config.total_servers(),
            running: Running::new(config.racks, n_classes),
            occupied: Vec::new(),
            draw: Vec::new(),
            it: 0.0,
            cooling: 0.0,
            class_it: vec![0.0; n_classes],
            peak_rack_heat: 0.0,
            wait_sum: 0.0,
            max_wait: Seconds::ZERO,
            violations: 0,
            class_violations: vec![0; n_classes],
            class_placements: vec![0; n_classes],
        }
    }

    fn push(&mut self, time: f64, kind: u8, load: Load) {
        self.pending.push(Boundary {
            time,
            kind,
            seq: self.seq,
            load,
        });
        self.seq += 1;
    }

    /// Queues a set-point or activation change (see [`Boundary::load`]).
    fn push_change(&mut self, time: f64, kind: u8, rack: usize, water: u64) {
        let load = Load {
            rack,
            class: 0,
            heat: 0.0,
            power: 0.0,
            water,
        };
        self.push(time, kind, load);
    }

    /// Records a placement at dispatch time and queues its start. Its end
    /// comes later, through [`end`](Self::end). Zero-length placements
    /// count toward the wait and violation tallies but never open a
    /// window.
    pub(crate) fn place(&mut self, p: &Placement) {
        self.wait_sum += p.wait.value();
        self.max_wait = self.max_wait.max(p.wait);
        self.class_placements[p.load.class] += 1;
        if p.violated {
            self.violations += 1;
            self.class_violations[p.load.class] += 1;
        }
        if p.integrates() {
            self.push(p.start.value(), ADD, p.load);
            self.first_start = self.first_start.min(p.start.value());
        }
    }

    /// Folds the end at `time` of an integrating placement with load
    /// `load`, after every pending boundary earlier than it. Ends must
    /// come in `(time, rack, commit order)` order, each only once every
    /// start and change earlier than it has been fed.
    pub(crate) fn end(&mut self, time: f64, load: &Load) {
        while let Some(b) = self.pending.peek().filter(|b| b.time < time).copied() {
            self.pending.pop();
            self.fold(&b);
        }
        self.advance(time);
        self.last_end = time;
        self.running.end(load);
        let rack = load.rack as u32;
        let at = self.occupied.binary_search(&rack);
        if self.running.racks()[load.rack].count() == 0 {
            if let Ok(at) = at {
                self.occupied.remove(at);
                self.draw.remove(at);
            }
        } else if let Ok(at) = at {
            self.draw[at] = self.rack_draw(load.rack);
        }
    }

    /// Records a chiller set-point change at `now`. At or before the first
    /// start it only sets the chiller the first window sees.
    pub(crate) fn setpoint(&mut self, now: Seconds, setpoint: Celsius) {
        if self.first_start < now.value() {
            self.push_change(now.value(), SETPOINT, 0, setpoint.value().to_bits());
        } else {
            self.set_chiller(setpoint);
        }
    }

    /// Records an active-server count change at `now`. At or before the
    /// first start it only sets the count the first window sees.
    pub(crate) fn activation(&mut self, now: Seconds, active: usize) {
        if self.first_start < now.value() {
            self.push_change(now.value(), ACTIVATION, active, 0);
        } else {
            self.active = active;
        }
    }

    /// Re-bases the chiller on `setpoint` and refreshes every occupied
    /// rack's draw under it.
    fn set_chiller(&mut self, setpoint: Celsius) {
        self.chiller = self.base_chiller.with_ambient(setpoint);
        for at in 0..self.occupied.len() {
            self.draw[at] = self.rack_draw(self.occupied[at] as usize);
        }
    }

    /// The chiller electricity of an occupied rack's heat at its coldest
    /// committed water.
    fn rack_draw(&self, rack: usize) -> f64 {
        let rack = &self.running.racks()[rack];
        let supply = rack.supply().expect("occupied racks have committed water");
        self.chiller
            .electrical_power(Watts::new(rack.heat()), supply)
            .value()
    }

    /// Closes the open window if `time` starts a new instant.
    fn advance(&mut self, time: f64) {
        if let Some(t) = self.window_start.filter(|&t| t != time) {
            self.close_window(time - t);
        }
        self.window_start = Some(time);
    }

    /// Applies a pending boundary `b` to the fleet state.
    fn fold(&mut self, b: &Boundary) {
        self.advance(b.time);
        let rack = b.load.rack as u32;
        match b.kind {
            SETPOINT => self.set_chiller(Celsius::new(f64::from_bits(b.load.water))),
            ACTIVATION => self.active = b.load.rack,
            _ => {
                self.running.start(&b.load);
                // The running max only ever grows at additions (heat is
                // non-negative and drains pin back to zero), so observing
                // it here sees every candidate a per-window pass would.
                let heat = self.running.racks()[b.load.rack].heat_sum();
                self.peak_rack_heat = self.peak_rack_heat.max(heat);
                let draw = self.rack_draw(b.load.rack);
                match self.occupied.binary_search(&rack) {
                    Ok(at) => self.draw[at] = draw,
                    Err(at) => {
                        self.occupied.insert(at, rack);
                        self.draw.insert(at, draw);
                    }
                }
            }
        }
    }

    /// Adds one window of length `dt` at the current fleet state.
    fn close_window(&mut self, dt: f64) {
        // Draining servers past a scale-down outnumbering `active` is
        // fine: their package power is in the running power and no idle
        // floor remains.
        let idle = self.active.saturating_sub(self.running.count()) as f64 * self.idle_server_power;
        self.it += (self.running.power() + idle) * dt;
        for (sum, class) in self.class_it.iter_mut().zip(self.running.classes()) {
            *sum += class.sum() * dt;
        }
        // One dependent multiply-add per occupied rack, in ascending rack
        // order: the pinned bits fix this summation order.
        let mut cooling = self.cooling;
        for &draw in &self.draw {
            cooling += draw * dt;
        }
        self.cooling = cooling;
    }

    /// Assembles the outcome, once every end is in. Changes still
    /// pending lie at or past the last end and open no window; no start
    /// is left, since each folded before its own end.
    pub(crate) fn finish(
        self,
        dispatcher: &'static str,
        control: &'static str,
        shed: usize,
    ) -> FleetOutcome {
        debug_assert!(
            self.pending.iter().all(|b| b.kind != ADD),
            "every start folds before its own end"
        );
        let n: usize = self.class_placements.iter().sum();
        FleetOutcome {
            dispatcher,
            control,
            makespan: Seconds::new(self.last_end),
            it_energy: Joules::new(self.it),
            cooling_energy: Joules::new(self.cooling),
            violations: self.violations,
            shed,
            mean_wait: if n == 0 {
                Seconds::ZERO
            } else {
                Seconds::new(self.wait_sum) / n as f64
            },
            max_wait: self.max_wait,
            peak_rack_heat: Watts::new(self.peak_rack_heat),
            class_names: self.class_names,
            class_it_energy: self.class_it.into_iter().map(Joules::new).collect(),
            class_violations: self.class_violations,
            class_placements: self.class_placements,
            serving: None,
        }
    }
}

/// The post-run integration the [`EnergyIntegrator`] replaced: every
/// placement boundary of a finished run sorted into one timeline and swept
/// window by window. Kept as the oracle the streaming fold is tested
/// against, bit for bit.
#[cfg(test)]
#[allow(clippy::too_many_arguments)] // a whole finished run, as one call
pub(crate) fn integrate_energy(
    dispatcher: &'static str,
    control: &'static str,
    placements: Vec<Placement>,
    shed: usize,
    config: &FleetConfig,
    class_names: &[String],
    setpoints: &[(Seconds, Celsius)],
    activations: &[(Seconds, usize)],
) -> FleetOutcome {
    // One +/− event per placement boundary, swept in time order so each
    // window is O(racks) instead of O(placements): removals before
    // set-point changes before additions at equal times (a placement
    // covers `[start, end)`), then a fixed (rack, kind) order so float
    // accumulation is deterministic. The heat/water/pin-to-zero rules
    // are spelled out here rather than taken from `load.rs`, so the
    // oracle checks the shared rules instead of reusing them. The
    // per-class accumulators ride along in separate sums: they never
    // feed the fleet-wide `it`/`cooling` totals, so the homogeneous
    // integration stays bit-identical.
    const REMOVE: u8 = 0;
    const SETPOINT: u8 = 1;
    const ACTIVATION: u8 = 2;
    const ADD: u8 = 3;
    struct Event {
        time: f64,
        kind: u8,
        rack: usize,
        class: crate::catalog::ClassId,
        heat: f64,
        // Tolerable-water key: `to_bits` is monotone for the non-negative
        // temperatures in play, and round-trips the exact f64.
        water_bits: u64,
        power: f64,
        // Position in the pre-sort event vector: makes the sort key total,
        // so an in-place unstable sort reproduces the stable order (same
        // float accumulation, bit for bit) without the stable sort's
        // half-array scratch allocation.
        seq: u32,
    }
    // Two streams instead of one flat vector: removals (always arriving
    // out of order — ends are starts plus varying runtimes) and everything
    // else (starts usually arrive already in time order, plus the rare
    // set-point/activation changes). The kinds never overlap across the
    // streams, so a two-pointer merge under the same `(time, kind, rack,
    // seq)` key replays the single-vector sort exactly — while only the
    // 1M-element removal stream ever pays for a full sort.
    let mut others: Vec<Event> = Vec::with_capacity(placements.len() + setpoints.len());
    let mut removes: Vec<Event> = Vec::with_capacity(placements.len());
    for p in &placements {
        if p.end.value() > p.start.value() {
            let make = |time: f64, kind: u8, seq: u32| Event {
                time,
                kind,
                rack: p.load.rack,
                class: p.load.class,
                heat: p.load.heat,
                water_bits: p.load.water,
                power: p.load.power,
                seq,
            };
            others.push(make(p.start.value(), ADD, others.len() as u32));
            removes.push(make(p.end.value(), REMOVE, removes.len() as u32));
        }
    }
    let first_start = others.iter().map(|e| e.time).fold(f64::INFINITY, f64::min);
    let last_end = removes.iter().map(|e| e.time).fold(0.0f64, f64::max);
    // The chiller in force when integration starts is the last set-point
    // at or before the first placement start; changes strictly inside
    // the timeline become events. Changes at/after the last end are
    // irrelevant (and must not stretch the idle-floor integration).
    let mut chiller = config.chiller.clone();
    for &(t, c) in setpoints {
        if t.value() <= first_start {
            chiller = config.chiller.with_ambient(c);
        } else if t.value() < last_end {
            others.push(Event {
                time: t.value(),
                kind: SETPOINT,
                rack: 0,
                class: 0,
                heat: 0.0,
                water_bits: c.value().to_bits(),
                power: 0.0,
                seq: others.len() as u32,
            });
        }
    }
    // The active-server count in force at integration start; changes
    // strictly inside the timeline carry the new count in `rack`.
    let mut active = config.total_servers();
    for &(t, n) in activations {
        if t.value() <= first_start {
            active = n;
        } else if t.value() < last_end {
            others.push(Event {
                time: t.value(),
                kind: ACTIVATION,
                rack: n,
                class: 0,
                heat: 0.0,
                water_bits: 0,
                power: 0.0,
                seq: others.len() as u32,
            });
        }
    }
    // Per-stream seq indices replay the flat-vector tie-break: seq only
    // ever compares events of equal `(time, kind, rack)`, which always
    // live in the same stream, and each stream preserves build order.
    let by_key = |a: &Event, b: &Event| {
        a.time
            .total_cmp(&b.time)
            .then(a.kind.cmp(&b.kind))
            .then(a.rack.cmp(&b.rack))
            .then(a.seq.cmp(&b.seq))
    };
    if !others
        .windows(2)
        .all(|w| by_key(&w[0], &w[1]) != std::cmp::Ordering::Greater)
    {
        others.sort_unstable_by(by_key);
    }
    removes.sort_unstable_by(by_key);
    let makespan = last_end;

    let n_classes = class_names.len().max(1);
    let mut it = 0.0;
    let mut cooling = 0.0;
    let mut peak_rack_heat = 0.0f64;
    let mut busy = 0usize;
    let mut active_power = 0.0;
    // Per-rack window state packed into one struct: the window walk below
    // reads heat, the cached chiller draw and its validity per occupied
    // rack, and one cache line beats four scattered arrays.
    #[derive(Clone)]
    struct RackAcc {
        heat: f64,
        power: f64,
        era: u64,
        dirty: bool,
    }
    let mut acc = vec![
        RackAcc {
            heat: 0.0,
            power: 0.0,
            era: 0,
            dirty: true,
        };
        config.racks
    ];
    // Ascending sorted `(key, count)` vectors, not `BTreeMap`s: few
    // distinct keys per rack, and the capacity survives rack drains, so
    // the 2M-event sweep never allocates tree nodes.
    let mut rack_water: Vec<Vec<(u64, u32)>> = vec![Vec::new(); config.racks];
    let mut class_busy = vec![0usize; n_classes];
    let mut class_power = vec![0.0f64; n_classes];
    let mut class_it = vec![0.0f64; n_classes];
    // Only racks with committed water contribute cooling (and drained
    // racks are pinned to exactly 0.0 heat, so they can't move the peak
    // either): the window body walks the occupied set, ascending by rack
    // so the float accumulation order matches the full 0..racks scan it
    // replaces. Each rack's chiller draw is cached and recomputed only
    // when its load (dirty flag) or the chiller (era) moved — the same
    // pure expression either way, so the cached value is bit-identical.
    // A sorted vector, not a BTreeSet: the per-window walk dominates this
    // sweep, and a contiguous ascending scan is both faster and exactly
    // the same visit order (so the same float accumulation).
    let mut occupied: Vec<u32> = Vec::new();
    let mut era = 0u64;
    let (mut ri, mut oi) = (0usize, 0usize);
    // The head of the merged stream. Removals sort before every other
    // kind at equal times (REMOVE is the smallest kind), so the min of
    // the two stream heads is always the global head.
    let next_time = |ri: usize, oi: usize| match (removes.get(ri), others.get(oi)) {
        (Some(r), Some(o)) => Some(r.time.min(o.time)),
        (Some(r), None) => Some(r.time),
        (None, Some(o)) => Some(o.time),
        (None, None) => None,
    };
    while let Some(t) = next_time(ri, oi) {
        while ri < removes.len() && removes[ri].time == t {
            let e = &removes[ri];
            busy -= 1;
            active_power -= e.power;
            acc[e.rack].heat -= e.heat;
            class_busy[e.class] -= 1;
            class_power[e.class] -= e.power;
            if let Ok(at) = rack_water[e.rack].binary_search_by_key(&e.water_bits, |w| w.0) {
                rack_water[e.rack][at].1 -= 1;
                if rack_water[e.rack][at].1 == 0 {
                    rack_water[e.rack].remove(at);
                }
            }
            // Pin drained sums back to exact zero so float residue
            // never leaks into later windows.
            if rack_water[e.rack].is_empty() {
                acc[e.rack].heat = 0.0;
                if let Ok(at) = occupied.binary_search(&(e.rack as u32)) {
                    occupied.remove(at);
                }
            }
            acc[e.rack].dirty = true;
            if class_busy[e.class] == 0 {
                class_power[e.class] = 0.0;
            }
            if busy == 0 {
                active_power = 0.0;
            }
            ri += 1;
        }
        while oi < others.len() && others[oi].time == t {
            let e = &others[oi];
            match e.kind {
                SETPOINT => {
                    chiller = config
                        .chiller
                        .with_ambient(Celsius::new(f64::from_bits(e.water_bits)));
                    era += 1;
                }
                ACTIVATION => {
                    active = e.rack;
                }
                _ => {
                    busy += 1;
                    active_power += e.power;
                    acc[e.rack].heat += e.heat;
                    // The running max only ever grows at additions (heat
                    // is non-negative and drains pin back to zero), so
                    // observing it here instead of once per window sees
                    // every candidate the window walk saw — same max,
                    // without the per-window pass.
                    peak_rack_heat = peak_rack_heat.max(acc[e.rack].heat);
                    class_busy[e.class] += 1;
                    class_power[e.class] += e.power;
                    if rack_water[e.rack].is_empty() {
                        if let Err(at) = occupied.binary_search(&(e.rack as u32)) {
                            occupied.insert(at, e.rack as u32);
                        }
                    }
                    match rack_water[e.rack].binary_search_by_key(&e.water_bits, |w| w.0) {
                        Ok(at) => rack_water[e.rack][at].1 += 1,
                        Err(at) => rack_water[e.rack].insert(at, (e.water_bits, 1)),
                    }
                    acc[e.rack].dirty = true;
                }
            }
            oi += 1;
        }
        let Some(next) = next_time(ri, oi) else { break };
        let dt = next - t;
        if dt <= 0.0 {
            continue;
        }
        // Draining servers past a scale-down outnumbering `active` is
        // fine: their package power is in `active_power` and no idle
        // floor remains.
        let idle = active.saturating_sub(busy) as f64 * config.idle_server_power.value();
        it += (active_power + idle) * dt;
        for (sum, power) in class_it.iter_mut().zip(&class_power) {
            *sum += power * dt;
        }
        for &r in &occupied {
            let a = &mut acc[r as usize];
            if a.dirty || a.era != era {
                let &(bits, _) = rack_water[r as usize]
                    .first()
                    .expect("occupied racks have committed water");
                a.power = chiller
                    .electrical_power(
                        Watts::new(a.heat.max(0.0)),
                        tps_units::Celsius::new(f64::from_bits(bits)),
                    )
                    .value();
                a.dirty = false;
                a.era = era;
            }
            cooling += a.power * dt;
        }
    }

    let makespan = Seconds::new(makespan);
    let n = placements.len();
    let mean_wait = if n == 0 {
        Seconds::ZERO
    } else {
        placements.iter().map(|p| p.wait).sum::<Seconds>() / n as f64
    };
    let max_wait = placements
        .iter()
        .map(|p| p.wait)
        .fold(Seconds::ZERO, Seconds::max);
    let violations = placements.iter().filter(|p| p.violated).count();
    let mut class_violations = vec![0usize; n_classes];
    let mut class_placements = vec![0usize; n_classes];
    for p in &placements {
        class_placements[p.load.class] += 1;
        if p.violated {
            class_violations[p.load.class] += 1;
        }
    }
    FleetOutcome {
        dispatcher,
        control,
        makespan,
        it_energy: Joules::new(it),
        cooling_energy: Joules::new(cooling),
        violations,
        shed,
        mean_wait,
        max_wait,
        peak_rack_heat: Watts::new(peak_rack_heat),
        class_names: if class_names.is_empty() {
            vec!["default".to_owned()]
        } else {
            class_names.to_vec()
        },
        class_it_energy: class_it.into_iter().map(Joules::new).collect(),
        class_violations,
        class_placements,
        serving: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SteadyState;
    use crate::engine::RackLoads;
    use crate::fleet::FleetConfig;
    use proptest::prelude::*;
    use tps_units::Celsius;

    fn state(heat: f64, max_water: f64) -> SteadyState {
        SteadyState {
            package_power: Watts::new(heat),
            heat: Watts::new(heat),
            max_water_temp: Celsius::new(max_water),
            normalized_time: 1.0,
            n_cores: 8,
            die_max: Celsius::new(70.0),
        }
    }

    fn placement(rack: usize, start: f64, end: f64, s: SteadyState) -> Placement {
        Placement {
            load: Load::new(rack, 0, &s),
            start: Seconds::new(start),
            end: Seconds::new(end),
            wait: Seconds::ZERO,
            violated: false,
        }
    }

    fn tiny_config() -> FleetConfig {
        let mut cfg = FleetConfig::new(2, 1);
        cfg.idle_server_power = Watts::ZERO;
        cfg
    }

    fn names() -> Vec<String> {
        vec!["default".to_owned()]
    }

    /// The kernel's feed of one placement dispatched at `now`: the ends
    /// due by then leave the committed layer's heap into `energy`, then
    /// the placement is recorded and committed.
    fn dispatch(energy: &mut EnergyIntegrator, loads: &mut RackLoads, now: Seconds, p: &Placement) {
        loads.expire(now, |end, load| energy.end(end, load));
        energy.place(p);
        loads.commit(p.load, p.integrates(), p.end);
    }

    /// The kernel's close of a run: the ends still committed, in heap
    /// order, then the outcome.
    fn drain(
        mut energy: EnergyIntegrator,
        mut loads: RackLoads,
        dispatcher: &'static str,
        control: &'static str,
        shed: usize,
    ) -> FleetOutcome {
        loads.expire(Seconds::new(f64::INFINITY), |end, load| {
            energy.end(end, load)
        });
        energy.finish(dispatcher, control, shed)
    }

    /// Feeds a finished run to the streaming [`EnergyIntegrator`] the way
    /// the kernel does, under the post-pass oracle's signature: each
    /// placement at its arrival (`start − wait`, non-decreasing in
    /// `placements` order), each change at its instant, ahead of the
    /// arrivals sharing it, and each end through the committed layer.
    #[allow(clippy::too_many_arguments)] // mirrors `integrate_energy`
    fn stream(
        dispatcher: &'static str,
        control: &'static str,
        placements: Vec<Placement>,
        shed: usize,
        config: &FleetConfig,
        class_names: &[String],
        setpoints: &[(Seconds, Celsius)],
        activations: &[(Seconds, usize)],
    ) -> FleetOutcome {
        let mut energy = EnergyIntegrator::new(config, class_names);
        let mut loads = RackLoads::new(config.racks, config.chiller.clone());
        let mut setpoints = setpoints.iter().peekable();
        let mut activations = activations.iter().peekable();
        for p in &placements {
            let now = p.start - p.wait;
            while let Some(&(t, c)) = setpoints.next_if(|s| s.0.value() <= now.value()) {
                energy.setpoint(t, c);
            }
            while let Some(&(t, n)) = activations.next_if(|a| a.0.value() <= now.value()) {
                energy.activation(t, n);
            }
            dispatch(&mut energy, &mut loads, now, p);
        }
        setpoints.for_each(|&(t, c)| energy.setpoint(t, c));
        activations.for_each(|&(t, n)| energy.activation(t, n));
        drain(energy, loads, dispatcher, control, shed)
    }

    fn integrate(placements: Vec<Placement>, cfg: &FleetConfig) -> FleetOutcome {
        stream("test", "static", placements, 0, cfg, &names(), &[], &[])
    }

    #[test]
    fn it_energy_is_power_times_time() {
        let cfg = tiny_config();
        let out = integrate(vec![placement(0, 0.0, 10.0, state(50.0, 80.0))], &cfg);
        assert!((out.it_energy.value() - 500.0).abs() < 1e-9);
        assert_eq!(out.makespan, Seconds::new(10.0));
        assert_eq!(out.peak_rack_heat, Watts::new(50.0));
        assert_eq!(out.control, "static");
        assert_eq!(out.shed, 0);
    }

    #[test]
    fn cold_job_contaminates_cohosted_heat() {
        // Same two jobs; on one rack the cold job forces *all* heat through
        // the compressor, on separate racks only its own.
        let cfg = tiny_config(); // chiller: 60 °C heat-reuse loop
        let cold = state(70.0, 60.0); // below the 65 °C bypass threshold
        let warm = state(70.0, 80.0); // free-cools
        let together = integrate(
            vec![placement(0, 0.0, 10.0, cold), placement(0, 0.0, 10.0, warm)],
            &cfg,
        );
        let apart = integrate(
            vec![placement(0, 0.0, 10.0, cold), placement(1, 0.0, 10.0, warm)],
            &cfg,
        );
        assert!(
            together.cooling_energy.value() > apart.cooling_energy.value() * 1.3,
            "together {} vs apart {}",
            together.cooling_energy,
            apart.cooling_energy
        );
        assert_eq!(together.it_energy, apart.it_energy);
    }

    #[test]
    fn idle_floor_counts_toward_it_energy() {
        let mut cfg = tiny_config();
        cfg.idle_server_power = Watts::new(10.0);
        let out = integrate(vec![placement(0, 0.0, 10.0, state(50.0, 80.0))], &cfg);
        // One busy server at 50 W + one idle at 10 W over 10 s.
        assert!((out.it_energy.value() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn waits_and_violations_aggregate() {
        let cfg = tiny_config();
        let mut a = placement(0, 5.0, 10.0, state(50.0, 80.0));
        a.wait = Seconds::new(5.0);
        a.violated = true;
        let b = placement(1, 0.0, 10.0, state(50.0, 80.0));
        let out = integrate(vec![a, b], &cfg);
        assert_eq!(out.violations, 1);
        assert_eq!(out.max_wait, Seconds::new(5.0));
        assert!((out.mean_wait.value() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn setpoint_changes_swap_the_chiller_between_windows() {
        // One 70 W / 60 °C-tolerant job for 10 s. Under the default 70 °C
        // heat-reuse loop it pays compressor lift the whole time; a
        // mid-run set-point drop to 40 °C puts the second half in free
        // cooling (supply ≥ ambient + approach).
        let cfg = tiny_config();
        let job = state(70.0, 60.0);
        let fixed = integrate(vec![placement(0, 0.0, 10.0, job)], &cfg);
        let stepped = stream(
            "test",
            "setpoint",
            vec![placement(0, 0.0, 10.0, job)],
            0,
            &cfg,
            &names(),
            &[(Seconds::new(5.0), Celsius::new(40.0))],
            &[],
        );
        assert!(
            stepped.cooling_energy.value() < fixed.cooling_energy.value() * 0.7,
            "stepped {} vs fixed {}",
            stepped.cooling_energy,
            fixed.cooling_energy
        );
        // IT energy never depends on the chiller.
        assert_eq!(stepped.it_energy, fixed.it_energy);
        assert_eq!(stepped.control, "setpoint");

        // A half-COP check: the first 5 s match the fixed run's first
        // half; the second 5 s run at the free-cooling COP cap.
        let half_fixed = fixed.cooling_energy.value() / 2.0;
        let free_half = 70.0 / 20.0 * 5.0; // heat / max_cop × dt
        assert!(
            (stepped.cooling_energy.value() - (half_fixed + free_half)).abs() < 1e-9,
            "stepped {} vs expected {}",
            stepped.cooling_energy,
            half_fixed + free_half
        );
    }

    #[test]
    fn setpoints_before_the_first_start_set_the_initial_chiller() {
        let cfg = tiny_config();
        let job = state(70.0, 60.0);
        let programmed = stream(
            "test",
            "setpoint",
            vec![placement(0, 10.0, 20.0, job)],
            0,
            &cfg,
            &names(),
            &[(Seconds::ZERO, Celsius::new(40.0))],
            &[],
        );
        // The whole run free-cools, and the pre-start change neither adds
        // an integration window nor any idle-floor energy before t = 10.
        let expected_cool = 70.0 / 20.0 * 10.0;
        assert!((programmed.cooling_energy.value() - expected_cool).abs() < 1e-9);
        assert!((programmed.it_energy.value() - 700.0).abs() < 1e-9);
    }

    #[test]
    fn setpoints_past_the_makespan_are_ignored() {
        let cfg = tiny_config();
        let job = state(50.0, 80.0);
        let out = stream(
            "test",
            "setpoint",
            vec![placement(0, 0.0, 10.0, job)],
            0,
            &cfg,
            &names(),
            &[(Seconds::new(10.0), Celsius::new(40.0))],
            &[],
        );
        let plain = integrate(vec![placement(0, 0.0, 10.0, job)], &cfg);
        assert_eq!(out.makespan, Seconds::new(10.0));
        assert_eq!(out.it_energy, plain.it_energy);
        assert_eq!(out.cooling_energy, plain.cooling_energy);
    }

    #[test]
    fn trace_ring_drops_oldest_and_counts() {
        let mut trace = FleetTrace::new(1, 2);
        for i in 0..4 {
            trace.push(FleetSample {
                t: Seconds::new(f64::from(i)),
                setpoint: Celsius::new(70.0),
                queued: 0,
                running: 0,
                shed: 0,
                violations: 0,
                it_power: Watts::ZERO,
                cooling_power: Watts::ZERO,
                rack_heat: vec![Watts::ZERO],
                rack_water: vec![None],
                class_running: vec![0],
                class_it_power: vec![Watts::ZERO],
                serving: None,
            });
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 2);
        let times: Vec<f64> = trace.samples().map(|s| s.t.value()).collect();
        assert_eq!(times, vec![2.0, 3.0]);
        // Idle rack: empty water field, trailing comma preserved.
        assert!(trace.to_csv().lines().nth(1).unwrap().ends_with("0.000,"));
    }

    #[test]
    fn serving_columns_appear_only_when_enabled() {
        let sample = |serving| FleetSample {
            t: Seconds::ZERO,
            setpoint: Celsius::new(70.0),
            queued: 0,
            running: 0,
            shed: 0,
            violations: 0,
            it_power: Watts::ZERO,
            cooling_power: Watts::ZERO,
            rack_heat: vec![Watts::ZERO],
            rack_water: vec![None],
            class_running: vec![0],
            class_it_power: vec![Watts::ZERO],
            serving,
        };
        let mut batch = FleetTrace::new(1, 4);
        batch.push(sample(None));
        assert!(!batch.to_csv().contains("active_servers"));

        let mut serving = FleetTrace::new(1, 4);
        serving.enable_serving();
        serving.push(sample(Some(ServingSample {
            active_servers: 12,
            p50: Seconds::new(0.25),
            p95: Seconds::new(1.5),
            p99: Seconds::new(3.0),
        })));
        let csv = serving.to_csv();
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with(",active_servers,lat_p50_s,lat_p95_s,lat_p99_s"));
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .ends_with(",12,0.250,1.500,3.000"));
    }

    #[test]
    fn latency_histogram_quantiles_hit_bucket_edges() {
        let mut h = LatencyHistogram::new(100, 50); // 0.1 s × 50
        for v in [0.05, 0.15, 0.15, 0.32, 0.99, 7.0] {
            h.record(Seconds::new(v));
        }
        assert_eq!(h.len(), 6);
        // Rank math: ceil(0.5 × 6) = 3 → the second 0.15 s sample,
        // bucket [0.1, 0.2) → edge 0.2.
        assert_eq!(h.quantile(0.5), Some(Seconds::new(0.2)));
        assert_eq!(h.quantile(1.0 / 6.0), Some(Seconds::new(0.1)));
        // The 7 s outlier saturates into overflow: top edge 5 s.
        assert_eq!(h.quantile(1.0), Some(Seconds::new(5.0)));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), None);
    }

    #[test]
    fn latency_histogram_saturates_past_the_range() {
        let mut h = LatencyHistogram::new(10, 100); // covers 1 s
        h.record(Seconds::new(250.0));
        h.record(Seconds::new(f64::INFINITY));
        // Both land in overflow and report the 1 s saturation edge.
        assert_eq!(h.quantile(0.5), Some(Seconds::new(1.0)));
        // Negative clamps into the first bucket.
        h.record(Seconds::new(-3.0));
        assert_eq!(h.quantile(0.1), Some(Seconds::new(0.01)));
    }

    #[test]
    fn activation_timeline_shrinks_the_idle_floor() {
        let mut cfg = FleetConfig::new(2, 1);
        cfg.idle_server_power = Watts::new(10.0);
        let run = vec![placement(0, 0.0, 10.0, state(50.0, 80.0))];
        let full = integrate(run.clone(), &cfg);
        // Deactivate the second server from t = 5: its idle power stops.
        let scaled = stream(
            "test",
            "autoscale",
            run.clone(),
            0,
            &cfg,
            &names(),
            &[],
            &[(Seconds::new(5.0), 1)],
        );
        // Full fleet: 50 W busy + 10 W idle over 10 s.
        assert!((full.it_energy.value() - 600.0).abs() < 1e-9);
        // Scaled: the idle floor only runs until the deactivation.
        assert!((scaled.it_energy.value() - 550.0).abs() < 1e-9);
        // Cooling never depends on the activation timeline.
        assert_eq!(scaled.cooling_energy, full.cooling_energy);

        // A pre-start activation sets the initial count; draining jobs on
        // deactivated servers never produce a negative idle floor.
        let drained = stream(
            "test",
            "autoscale",
            run,
            0,
            &cfg,
            &names(),
            &[],
            &[(Seconds::ZERO, 0)],
        );
        assert!((drained.it_energy.value() - 500.0).abs() < 1e-9);
    }

    /// One step of a kernel-shaped feed: a placement dispatched at its
    /// arrival instant, or a change at its own instant.
    #[derive(Debug, Clone, Copy)]
    enum Feed {
        Place(Seconds, Placement),
        Setpoint(Seconds, Celsius),
        Activation(Seconds, usize),
    }

    /// SplitMix64 over `(seed, i)`, the random source of [`random_feed`].
    fn mix(seed: u64, i: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random kernel-shaped run on a half-second grid, so instants tie
    /// across racks and kinds: arrivals in time order, starts queued past
    /// arrivals, zero-length placements, every class, and set-point and
    /// activation changes before the first start, inside idle gaps, at
    /// the last end and after it — fed before or after the arrivals
    /// sharing their instant.
    fn random_feed(
        seed: u64,
        steps: usize,
        racks: usize,
        servers: usize,
        classes: usize,
    ) -> Vec<Feed> {
        let mut i = 0u64;
        let mut draw = |n: usize| {
            i += 1;
            (mix(seed, i) % n as u64) as usize
        };
        let (mut now, mut last_end) = (0.0f64, 0.0f64);
        let mut feed = Vec::with_capacity(steps + 3);
        for _ in 0..steps {
            // Mostly short steps or none (same-instant ties); now and then
            // a jump past every running job (an idle gap).
            now += match draw(8) {
                0..=2 => 0.0,
                7 => 20.0,
                k => 0.5 * k as f64,
            };
            let at = Seconds::new(now);
            match draw(10) {
                0 | 1 => feed.push(Feed::Setpoint(
                    at,
                    Celsius::new([40.0, 55.0, 70.0][draw(3)]),
                )),
                2 => feed.push(Feed::Activation(at, draw(racks * servers + 1))),
                _ => {
                    let start = now + 0.5 * [0.0, 0.0, 1.0, 3.0][draw(4)];
                    // A zero draw makes a zero-length placement.
                    let end = start + 0.5 * draw(9) as f64;
                    last_end = last_end.max(end);
                    // Non-dyadic watts, so a changed summation order
                    // shows in the low bits.
                    let heat = [0.0, 35.1, 70.37, 120.53][draw(4)];
                    let mut s = state(heat, [55.0, 60.0, 66.5, 80.0][draw(4)]);
                    s.package_power = Watts::new(heat + 12.29 * draw(3) as f64);
                    let load = Load::new(draw(racks), draw(classes), &s);
                    feed.push(Feed::Place(
                        at,
                        Placement {
                            load,
                            start: Seconds::new(start),
                            end: Seconds::new(end),
                            wait: Seconds::new(start - now),
                            violated: draw(3) == 0,
                        },
                    ));
                }
            }
        }
        // Changes exactly at the last end and past it, when the clock has
        // not moved beyond it already.
        if last_end >= now {
            feed.push(Feed::Setpoint(Seconds::new(last_end), Celsius::new(45.0)));
            feed.push(Feed::Activation(Seconds::new(last_end), 1));
            feed.push(Feed::Setpoint(
                Seconds::new(last_end + 1.0),
                Celsius::new(40.0),
            ));
        }
        feed
    }

    /// Runs `feed` through the streaming integrator, its ends through the
    /// committed layer, and through the post-pass oracle; returns both
    /// outcomes.
    fn both(feed: &[Feed], config: &FleetConfig, names: &[String]) -> (FleetOutcome, FleetOutcome) {
        let mut energy = EnergyIntegrator::new(config, names);
        let mut loads = RackLoads::new(config.racks, config.chiller.clone());
        let (mut placements, mut setpoints, mut activations) = (Vec::new(), Vec::new(), Vec::new());
        for step in feed {
            match *step {
                Feed::Place(now, p) => {
                    dispatch(&mut energy, &mut loads, now, &p);
                    placements.push(p);
                }
                Feed::Setpoint(t, c) => {
                    energy.setpoint(t, c);
                    setpoints.push((t, c));
                }
                Feed::Activation(t, n) => {
                    energy.activation(t, n);
                    activations.push((t, n));
                }
            }
        }
        let oracle = integrate_energy(
            "d",
            "c",
            placements,
            7,
            config,
            names,
            &setpoints,
            &activations,
        );
        (drain(energy, loads, "d", "c", 7), oracle)
    }

    /// Every float field of an outcome as raw bits.
    fn bits(o: &FleetOutcome) -> Vec<u64> {
        [
            o.makespan.value(),
            o.it_energy.value(),
            o.cooling_energy.value(),
            o.mean_wait.value(),
            o.max_wait.value(),
            o.peak_rack_heat.value(),
        ]
        .into_iter()
        .chain(o.class_it_energy.iter().map(|e| e.value()))
        .map(f64::to_bits)
        .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The streaming fold reproduces the post-pass oracle bit for bit
        /// on random kernel-shaped runs (see [`random_feed`]).
        #[test]
        fn streaming_integration_matches_the_post_pass_bit_for_bit(
            seed in 0u64..1_000_000,
            steps in 0usize..48,
            racks in 1usize..4,
            servers in 1usize..3,
            classes in 1usize..3,
        ) {
            let config = FleetConfig::new(racks, servers);
            let names: Vec<String> = (0..classes).map(|c| format!("c{c}")).collect();
            let feed = random_feed(seed, steps, racks, servers, classes);
            let (streamed, oracle) = both(&feed, &config, &names);
            prop_assert_eq!(bits(&streamed), bits(&oracle), "feed {:?}", feed);
            prop_assert_eq!(streamed, oracle);
        }
    }

    /// The random feeds really reach every case the oracle property is
    /// meant to cover.
    #[test]
    fn random_feeds_cover_every_boundary_case() {
        let mut hit = [false; 11];
        for seed in 0..400u64 {
            let feed = random_feed(seed, 40, 3, 2, 2);
            let places: Vec<(Seconds, Placement)> = feed
                .iter()
                .filter_map(|f| match *f {
                    Feed::Place(now, p) => Some((now, p)),
                    _ => None,
                })
                .collect();
            let live: Vec<&Placement> = places
                .iter()
                .map(|(_, p)| p)
                .filter(|p| p.end.value() > p.start.value())
                .collect();
            let first = live
                .iter()
                .map(|p| p.start.value())
                .fold(f64::INFINITY, f64::min);
            let last = live.iter().map(|p| p.end.value()).fold(0.0, f64::max);
            let idle_at = |t: f64| {
                first < t
                    && t < last
                    && live
                        .iter()
                        .all(|p| !(p.start.value() <= t && t < p.end.value()))
            };
            hit[0] |= live.iter().any(|a| {
                live.iter().any(|b| {
                    a.load.rack != b.load.rack
                        && (a.start == b.start || a.end == b.end || a.end == b.start)
                })
            });
            hit[1] |= places.iter().any(|(_, p)| p.end == p.start);
            hit[2] |= places.iter().any(|(now, p)| p.start.value() > now.value());
            hit[3] |= live.iter().any(|p| p.load.class == 1);
            // Racks whose draw a fold at `t` finds occupied: placements
            // ending at `t` fold out before it, those starting at `t` in
            // after it.
            let running = |t: f64| {
                let mut racks: Vec<usize> = live
                    .iter()
                    .filter(|p| p.start.value() < t && t < p.end.value())
                    .map(|p| p.load.rack)
                    .collect();
                racks.sort_unstable();
                racks.dedup();
                racks
            };
            // A rack drained and refilled at one instant: its draw entry
            // leaves and re-enters the dense array between two windows.
            hit[10] |= live.iter().any(|a| {
                let t = a.end.value();
                !running(t).contains(&a.load.rack)
                    && live
                        .iter()
                        .any(|b| b.load.rack == a.load.rack && b.start.value() == t)
            });
            for f in &feed {
                match *f {
                    Feed::Setpoint(t, _) => {
                        let t = t.value();
                        hit[4] |= t <= first && first.is_finite();
                        hit[5] |= idle_at(t);
                        hit[6] |= t == last && last > 0.0;
                        hit[7] |= t > last && last > 0.0;
                        hit[9] |= first < t && t < last && running(t).len() >= 2;
                    }
                    Feed::Activation(t, _) => hit[8] |= first < t.value() && t.value() < last,
                    Feed::Place(..) => {}
                }
            }
        }
        // Ties across racks, zero-length, queued starts, two classes,
        // set-points before the first start / in an idle gap / at and
        // past the last end, activations inside the timeline, a set-point
        // refreshing two or more occupied racks' draws, a rack drained
        // and refilled at one instant.
        assert_eq!(hit, [true; 11]);
    }
}
