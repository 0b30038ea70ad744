//! Memoized per-server steady-state outcomes, two-tiered.
//!
//! A fleet run dispatches hundreds to thousands of jobs, but the
//! per-server physics depends only on `(server class, benchmark, qos,
//! mapping policy, water inlet)` — the coupled thermosyphon/thermal solve
//! is steady-state and every server of one class is identical.
//! [`OutcomeCache`] therefore computes each distinct key once (in
//! parallel across OS threads) and the event-driven simulator replays the
//! cached [`SteadyState`] summaries, which is what lets a million-job
//! scenario finish in seconds even on a heterogeneous fleet.
//!
//! The cache has two tiers:
//!
//! * a **frozen dense [`SolveTable`]** — a flat `Vec` indexed by a dense
//!   `(solve slot, class, bench, qos)` key computed arithmetically (no
//!   hashing, no tree walk, no lock), published as an immutable epoch and
//!   shared read-only (`Arc`) across runs and sweep workers. Every run
//!   reads its demand states through it: once a run's keys are published,
//!   resolving them acquires **zero** locks.
//! * a **striped on-demand miss path** — the mutable `BTreeMap`, split
//!   across [`STRIPES`] locks by key hash, that absorbs keys the table
//!   does not cover yet (a new `inlet_milli` from a swept set-point, a
//!   planner grid, lazily-solved pairs). Misses are folded into a *new*
//!   table epoch at the next global synchronization point — a run start,
//!   the same place the kernel's chiller epoch advances — so readers
//!   never observe a torn table: they hold the epoch they started with.
//!
//! Counter taxonomy: `hits`/`solves` account the striped map (the miss
//! tier), `table_hits`/`miss_solves` account the dense tier, and
//! `lock_acquisitions` counts every stripe or publication lock taken —
//! the determinism smoke asserts it stays flat across a steady-state run.

use crate::catalog::ClassId;
use crate::fleet::PolicyId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tps_core::{ConfigSelector, RunError, Server};
use tps_units::{Celsius, Watts};
use tps_workload::{Benchmark, QosClass};

/// The steady-state summary of running one `(benchmark, qos)` job on a
/// server: everything the fleet layer needs, with the temperature fields
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// Package (IT) power of the selected configuration.
    pub package_power: Watts,
    /// Heat rejected into the rack water loop.
    pub heat: Watts,
    /// Warmest tolerable water supply (case-margin model, see
    /// `RunOutcome::cooling_load`).
    pub max_water_temp: Celsius,
    /// Execution-time slowdown of the selected configuration.
    pub normalized_time: f64,
    /// Active cores of the selected configuration.
    pub n_cores: u8,
    /// Peak die temperature at the design operating point.
    pub die_max: Celsius,
}

/// Cache key: the five coordinates the steady-state outcome depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// The server class the solve ran on (catalog index).
    pub class: ClassId,
    /// The application.
    pub bench: Benchmark,
    /// The QoS class.
    pub qos: QosClass,
    /// The mapping policy (typed, not a name string — two policies can
    /// never alias, and the compiler checks exhaustiveness).
    pub policy: PolicyId,
    /// Water inlet (ambient of the server loop) in milli-°C, quantized so
    /// the key is hashable/orderable.
    pub inlet_milli: i64,
}

impl CacheKey {
    fn new(
        class: ClassId,
        bench: Benchmark,
        qos: QosClass,
        policy: PolicyId,
        inlet: Celsius,
    ) -> Self {
        Self {
            class,
            bench,
            qos,
            policy,
            inlet_milli: quantize_inlet(inlet),
        }
    }

    /// The stripe this key hashes to — a SplitMix64-style mix over every
    /// coordinate, so sweeps that vary only the inlet (or only the class)
    /// still spread across stripes.
    fn stripe(&self) -> usize {
        let mut x = (self.class as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.bench as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(self.qos as u64)
            .wrapping_mul(0x94d0_49bb_1331_11eb)
            .wrapping_add(self.policy as u64)
            .wrapping_add(self.inlet_milli as u64);
        x ^= x >> 31;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 29;
        (x as usize) % STRIPES
    }
}

/// The milli-°C quantization shared by the map key and the table's
/// solve-slot axis.
fn quantize_inlet(inlet: Celsius) -> i64 {
    (inlet.value() * 1000.0).round() as i64
}

/// One server class's solve context: what [`OutcomeCache::warm`] and the
/// event kernel need to run jobs on that class.
#[derive(Debug, Clone, Copy)]
pub struct ClassSolve<'a> {
    /// The class's catalog index (part of the cache key).
    pub id: ClassId,
    /// The class's assembled server template.
    pub server: &'a Server,
    /// The class's (possibly overridden) mapping policy.
    pub policy: PolicyId,
}

impl ClassSolve<'_> {
    /// The class's water inlet, quantized exactly like the cache key.
    fn inlet_milli(&self) -> i64 {
        quantize_inlet(self.server.simulation().operating_point().water_inlet())
    }
}

/// Stripe count of the miss path. A power of two comfortably above the
/// warm-up thread counts seen in practice; the hash spreads keys evenly,
/// so two workers only collide on a stripe 1/16th of the time.
const STRIPES: usize = 16;

/// A frozen, dense, read-only snapshot of the cache: every key the cache
/// held at publication, laid out flat so a lookup is pure arithmetic.
///
/// The dense key has four axes. `(policy, inlet_milli)` pairs — the two
/// coordinates that are *per-run constants* for a given class — collapse
/// into a **solve slot** (an index into a small sorted list, resolved
/// once per class per run via [`class_slot`](Self::class_slot)); the
/// remaining axes are the class id and the fixed `Benchmark`/`QosClass`
/// cardinalities. The value index is then
///
/// ```text
/// ((slot · classes + class) · |Benchmark| + bench) · |QosClass| + qos
/// ```
///
/// — no hash, no tree, no lock, shared read-only via `Arc` across runs
/// and sweep workers. Absent keys hold `None` and fall through to the
/// striped miss path.
///
/// Epoch-publication invariant: a `SolveTable` is immutable after
/// construction. New keys are solved into the striped map and appear
/// only in the *next* published table (a higher [`epoch`](Self::epoch)),
/// swapped in at a global synchronization point (a run start — the same
/// cadence the kernel's chiller epoch advances on). Readers therefore
/// never race a mutation: they keep using the epoch they fetched until
/// the next sync point.
#[derive(Debug)]
pub struct SolveTable {
    epoch: u64,
    classes: usize,
    /// Sorted distinct `(policy, inlet_milli)` solve slots.
    slots: Vec<(PolicyId, i64)>,
    /// Dense values; `None` where the cache held no entry.
    values: Vec<Option<SteadyState>>,
    entries: usize,
}

impl SolveTable {
    /// The benchmark axis length of the dense layout.
    pub const BENCH_AXIS: usize = Benchmark::ALL.len();
    /// The QoS axis length of the dense layout.
    pub const QOS_AXIS: usize = QosClass::ALL.len();

    /// The publication epoch (1-based; each publication bumps it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Distinct outcomes frozen into this table.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the table holds no outcomes.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The class-axis length.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The solve slot for a `(policy, inlet)` pair, or `None` when the
    /// table predates that pair. The slot list is a handful of entries
    /// (one per distinct policy × inlet in the run or sweep), so this
    /// resolves in a few comparisons — and callers resolve it **once per
    /// class per run**, after which every lookup is pure arithmetic.
    pub fn slot(&self, policy: PolicyId, inlet: Celsius) -> Option<usize> {
        self.slots
            .binary_search(&(policy, quantize_inlet(inlet)))
            .ok()
    }

    /// The solve slot for a class's own `(policy, inlet)`.
    pub fn class_slot(&self, class: &ClassSolve<'_>) -> Option<usize> {
        self.slots
            .binary_search(&(class.policy, class.inlet_milli()))
            .ok()
    }

    /// The frozen outcome at `(slot, class, bench, qos)` — the arithmetic
    /// hot-path lookup. `None` when the key was absent at publication.
    #[inline]
    pub fn get(
        &self,
        slot: usize,
        class: ClassId,
        bench: Benchmark,
        qos: QosClass,
    ) -> Option<SteadyState> {
        if slot >= self.slots.len() || class >= self.classes {
            return None;
        }
        let i = ((slot * self.classes + class) * Self::BENCH_AXIS + bench as usize)
            * Self::QOS_AXIS
            + qos as usize;
        self.values[i]
    }

    /// Convenience lookup resolving the class's slot first (tests and
    /// one-off callers; hot paths resolve the slot once instead).
    pub fn lookup(
        &self,
        class: &ClassSolve<'_>,
        bench: Benchmark,
        qos: QosClass,
    ) -> Option<SteadyState> {
        self.class_slot(class)
            .and_then(|s| self.get(s, class.id, bench, qos))
    }
}

/// A concurrent memo table of [`SteadyState`] outcomes: the striped
/// mutable miss path plus the latest published [`SolveTable`] epoch.
///
/// Deterministic by construction: values are pure functions of their key,
/// so neither thread count nor insertion order affects what a lookup
/// returns — and the dense table replays the exact map bits.
#[derive(Debug)]
pub struct OutcomeCache {
    /// The miss path: key-hash-striped so concurrent warm-up workers and
    /// sweep threads don't serialize on one lock.
    stripes: Vec<Mutex<BTreeMap<CacheKey, SteadyState>>>,
    /// The latest published epoch (`None` until the first publication).
    published: Mutex<Option<Arc<SolveTable>>>,
    epoch: AtomicU64,
    hits: AtomicUsize,
    solves: AtomicUsize,
    table_hits: AtomicUsize,
    miss_solves: AtomicUsize,
    lock_acquisitions: AtomicUsize,
}

impl Default for OutcomeCache {
    fn default() -> Self {
        Self {
            stripes: (0..STRIPES).map(|_| Mutex::new(BTreeMap::new())).collect(),
            published: Mutex::new(None),
            epoch: AtomicU64::new(0),
            hits: AtomicUsize::new(0),
            solves: AtomicUsize::new(0),
            table_hits: AtomicUsize::new(0),
            miss_solves: AtomicUsize::new(0),
            lock_acquisitions: AtomicUsize::new(0),
        }
    }
}

impl OutcomeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct outcomes computed so far.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                self.note_lock();
                s.lock().expect("cache poisoned").len()
            })
            .sum()
    }

    /// Whether nothing has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the striped map.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Full coupled solves performed.
    pub fn solves(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Lookups served lock-free from a published [`SolveTable`].
    pub fn table_hits(&self) -> usize {
        self.table_hits.load(Ordering::Relaxed)
    }

    /// Solves taken through the miss path because the published table
    /// lacked the key (a subset of [`solves`](Self::solves); prefetch
    /// solves are not misses).
    pub fn miss_solves(&self) -> usize {
        self.miss_solves.load(Ordering::Relaxed)
    }

    /// Stripe and publication locks acquired so far. Steady-state replays
    /// on a published table add **zero** — the determinism smoke pins
    /// that. The count is a deterministic function of the operation
    /// sequence (each miss costs exactly one lookup lock and one insert
    /// lock), not of thread interleaving.
    pub fn lock_acquisitions(&self) -> usize {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Publication epochs so far (0 until the first [`publish`](Self::publish)).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Credits `n` dense-table lookups to this cache's counters — the
    /// kernel resolves its demand states straight off the `Arc` and
    /// reports in bulk, so the hot path touches no shared atomics.
    pub fn record_table_hits(&self, n: usize) {
        self.table_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Credits `n` table misses that went through the solve path.
    pub fn record_miss_solves(&self, n: usize) {
        self.miss_solves.fetch_add(n, Ordering::Relaxed);
    }

    fn note_lock(&self) {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    /// The latest published table, if any. One publication-lock fetch —
    /// callers clone the `Arc` once per run at a synchronization point,
    /// never per lookup.
    pub fn table(&self) -> Option<Arc<SolveTable>> {
        self.note_lock();
        self.published.lock().expect("cache poisoned").clone()
    }

    /// The cached outcome for `(class, bench, qos)` without solving —
    /// the striped-map read (micro-bench and test hook).
    pub fn peek(
        &self,
        class: &ClassSolve<'_>,
        bench: Benchmark,
        qos: QosClass,
    ) -> Option<SteadyState> {
        let op = class.server.simulation().operating_point();
        let key = CacheKey::new(class.id, bench, qos, class.policy, op.water_inlet());
        self.note_lock();
        self.stripes[key.stripe()]
            .lock()
            .expect("cache poisoned")
            .get(&key)
            .copied()
    }

    /// Returns the cached outcome for `(bench, qos)` on the given server
    /// class, solving the coupled problem on a miss. This is the striped
    /// miss path; steady-state readers go through a published
    /// [`SolveTable`] instead.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from the per-server pipeline.
    pub fn get_or_solve(
        &self,
        class: &ClassSolve<'_>,
        bench: Benchmark,
        qos: QosClass,
        selector: &dyn ConfigSelector,
        t_case_max: Celsius,
    ) -> Result<SteadyState, RunError> {
        let op = class.server.simulation().operating_point();
        let key = CacheKey::new(class.id, bench, qos, class.policy, op.water_inlet());
        let stripe = &self.stripes[key.stripe()];
        self.note_lock();
        if let Some(state) = stripe.lock().expect("cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(*state);
        }
        // Solve outside the lock: a rare duplicate solve beats serializing
        // every worker behind one coupled simulation.
        let outcome = class
            .server
            .run(bench, qos, selector, class.policy.as_policy())?;
        let load = outcome.cooling_load(op, t_case_max);
        let state = SteadyState {
            package_power: outcome.profile.package_power,
            heat: load.heat,
            max_water_temp: load.max_water_temp,
            normalized_time: outcome.profile.normalized_time,
            n_cores: outcome.profile.config.n_cores(),
            die_max: outcome.die.max,
        };
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.note_lock();
        stripe.lock().expect("cache poisoned").insert(key, state);
        Ok(state)
    }

    /// Freezes the striped map into a new immutable [`SolveTable`] epoch
    /// and publishes it. Call only at global synchronization points (run
    /// starts, sweep phase boundaries): readers that fetched an earlier
    /// epoch keep it — `Arc` keeps every epoch alive while referenced, so
    /// publication can never tear a table out from under a run in progress.
    pub fn publish(&self) -> Arc<SolveTable> {
        let mut entries: Vec<(CacheKey, SteadyState)> = Vec::new();
        for stripe in &self.stripes {
            self.note_lock();
            let map = stripe.lock().expect("cache poisoned");
            entries.extend(map.iter().map(|(k, v)| (*k, *v)));
        }
        let mut slots: Vec<(PolicyId, i64)> = entries
            .iter()
            .map(|(k, _)| (k.policy, k.inlet_milli))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        let classes = entries.iter().map(|(k, _)| k.class + 1).max().unwrap_or(0);
        let mut values =
            vec![None; slots.len() * classes * SolveTable::BENCH_AXIS * SolveTable::QOS_AXIS];
        for (k, v) in &entries {
            let slot = slots
                .binary_search(&(k.policy, k.inlet_milli))
                .expect("slot list was built from these keys");
            let i = ((slot * classes + k.class) * SolveTable::BENCH_AXIS + k.bench as usize)
                * SolveTable::QOS_AXIS
                + k.qos as usize;
            values[i] = Some(*v);
        }
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let table = Arc::new(SolveTable {
            epoch,
            classes,
            slots,
            values,
            entries: entries.len(),
        });
        self.note_lock();
        *self.published.lock().expect("cache poisoned") = Some(Arc::clone(&table));
        table
    }

    /// Returns a published table covering every `(class, bench, qos)`
    /// triple of `classes × pairs`, warming only the **missing** triples
    /// (in parallel) and publishing a fresh epoch when needed. On a fully
    /// covered cache this is one publication-lock fetch — the steady-state
    /// replay path; on a cold cache it is the old eager warm-up, now as
    /// an on-demand prefetch.
    ///
    /// # Errors
    ///
    /// Propagates the first per-server [`RunError`] a worker hit.
    pub fn ensure_published(
        &self,
        classes: &[ClassSolve<'_>],
        pairs: &[(Benchmark, QosClass)],
        selector: &(dyn ConfigSelector + Sync),
        t_case_max: Celsius,
        threads: usize,
    ) -> Result<Arc<SolveTable>, RunError> {
        let published = self.table();
        let missing: Vec<(usize, Benchmark, QosClass)> = match &published {
            Some(table) => {
                let slots: Vec<Option<usize>> =
                    classes.iter().map(|c| table.class_slot(c)).collect();
                classes
                    .iter()
                    .enumerate()
                    .flat_map(|(ci, _)| pairs.iter().map(move |&(b, q)| (ci, b, q)))
                    .filter(|&(ci, b, q)| match slots[ci] {
                        Some(slot) => table.get(slot, classes[ci].id, b, q).is_none(),
                        None => true,
                    })
                    .collect()
            }
            None => classes
                .iter()
                .enumerate()
                .flat_map(|(ci, _)| pairs.iter().map(move |&(b, q)| (ci, b, q)))
                .collect(),
        };
        if missing.is_empty() {
            if let Some(table) = published {
                return Ok(table);
            }
        } else {
            self.record_miss_solves(missing.len());
            self.warm_triples(&missing, classes, selector, t_case_max, threads)?;
        }
        Ok(self.publish())
    }

    /// Pre-computes the outcomes for every `(class, bench, qos)` triple —
    /// the cartesian product of `classes` and `pairs` — across up to
    /// `threads` OS threads (scoped, no new dependencies). The per-server
    /// solves are independent, so this is the simulator's parallel
    /// section; everything after it is cache replay, and since every
    /// value is a pure function of its key the results are byte-identical
    /// at any thread count.
    ///
    /// This is an **optional prefetch**: runs resolve their own missing
    /// keys on demand through [`ensure_published`](Self::ensure_published),
    /// so warming is only worth it to front-load the parallel section
    /// (the sweep engine warms each physics group's union of pairs once).
    ///
    /// # Errors
    ///
    /// Returns the first [`RunError`] any worker hit (remaining workers
    /// finish their current solve and stop).
    pub fn warm(
        &self,
        classes: &[ClassSolve<'_>],
        pairs: &[(Benchmark, QosClass)],
        selector: &(dyn ConfigSelector + Sync),
        t_case_max: Celsius,
        threads: usize,
    ) -> Result<(), RunError> {
        let triples: Vec<(usize, Benchmark, QosClass)> = classes
            .iter()
            .enumerate()
            .flat_map(|(ci, _)| pairs.iter().map(move |&(b, q)| (ci, b, q)))
            .collect();
        self.warm_triples(&triples, classes, selector, t_case_max, threads)
    }

    /// The shared warm-up worker loop over an explicit triple list.
    /// Workers poll a lock-free `AtomicBool` failure flag each iteration
    /// and take the failure mutex only to record the first actual error.
    fn warm_triples(
        &self,
        triples: &[(usize, Benchmark, QosClass)],
        classes: &[ClassSolve<'_>],
        selector: &(dyn ConfigSelector + Sync),
        t_case_max: Celsius,
        threads: usize,
    ) -> Result<(), RunError> {
        let jobs = triples.len();
        let workers = threads.clamp(1, jobs.max(1));
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let failure: Mutex<Option<RunError>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs || failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let (ci, bench, qos) = triples[i];
                    let class = &classes[ci];
                    if let Err(e) = self.get_or_solve(class, bench, qos, selector, t_case_max) {
                        failed.store(true, Ordering::Relaxed);
                        let mut slot = failure.lock().expect("poisoned");
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                    }
                });
            }
        });
        match failure.into_inner().expect("poisoned") {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::{MinPowerSelector, T_CASE_MAX};

    fn server() -> Server {
        Server::xeon(3.0)
    }

    fn class(server: &Server) -> ClassSolve<'_> {
        ClassSolve {
            id: 0,
            server,
            policy: PolicyId::Proposed,
        }
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = OutcomeCache::new();
        let s = server();
        let c = class(&s);
        let a = cache
            .get_or_solve(
                &c,
                Benchmark::X264,
                QosClass::TwoX,
                &MinPowerSelector,
                T_CASE_MAX,
            )
            .unwrap();
        let b = cache
            .get_or_solve(
                &c,
                Benchmark::X264,
                QosClass::TwoX,
                &MinPowerSelector,
                T_CASE_MAX,
            )
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.solves(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_class_ids_never_alias() {
        // Same physics, different catalog index: the key keeps them
        // apart (class ids map to distinct hardware in a real catalog).
        let cache = OutcomeCache::new();
        let s = server();
        let a = ClassSolve {
            id: 0,
            server: &s,
            policy: PolicyId::Proposed,
        };
        let b = ClassSolve {
            id: 1,
            server: &s,
            policy: PolicyId::Proposed,
        };
        for c in [&a, &b] {
            cache
                .get_or_solve(
                    c,
                    Benchmark::X264,
                    QosClass::TwoX,
                    &MinPowerSelector,
                    T_CASE_MAX,
                )
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.solves(), 2);
    }

    #[test]
    fn inlet_quantization_collides_within_half_a_millidegree() {
        // The key quantizes the inlet to milli-°C: two inlets within
        // 0.5 m°C are *deliberately* the same key (they are the same
        // physics to far beyond solver tolerance)…
        let close_a = CacheKey::new(
            0,
            Benchmark::X264,
            QosClass::TwoX,
            PolicyId::Proposed,
            Celsius::new(30.0001),
        );
        let close_b = CacheKey::new(
            0,
            Benchmark::X264,
            QosClass::TwoX,
            PolicyId::Proposed,
            Celsius::new(30.0004),
        );
        assert_eq!(close_a, close_b, "inlets within 0.5 m°C must collide");
        // …while inlets a full millidegree apart stay distinct.
        let apart = CacheKey::new(
            0,
            Benchmark::X264,
            QosClass::TwoX,
            PolicyId::Proposed,
            Celsius::new(30.001),
        );
        assert_ne!(close_a, apart, "distinct milli-°C bins must not collide");
        // And the policy is a typed component: changing it alone changes
        // the key.
        let other_policy = CacheKey::new(
            0,
            Benchmark::X264,
            QosClass::TwoX,
            PolicyId::Coskun,
            Celsius::new(30.0001),
        );
        assert_ne!(close_a, other_policy);
    }

    #[test]
    fn warm_is_parallel_and_complete_across_classes() {
        let cache = OutcomeCache::new();
        let s = server();
        let classes = [
            ClassSolve {
                id: 0,
                server: &s,
                policy: PolicyId::Proposed,
            },
            ClassSolve {
                id: 1,
                server: &s,
                policy: PolicyId::Coskun,
            },
        ];
        let pairs: Vec<(Benchmark, QosClass)> = [
            (Benchmark::X264, QosClass::OneX),
            (Benchmark::Canneal, QosClass::ThreeX),
        ]
        .to_vec();
        cache
            .warm(&classes, &pairs, &MinPowerSelector, T_CASE_MAX, 4)
            .unwrap();
        assert_eq!(cache.len(), 4);
        // Replay after warm never solves again.
        let before = cache.solves();
        for c in &classes {
            for &(b, q) in &pairs {
                cache
                    .get_or_solve(c, b, q, &MinPowerSelector, T_CASE_MAX)
                    .unwrap();
            }
        }
        assert_eq!(cache.solves(), before);
    }

    #[test]
    fn hot_jobs_demand_colder_water_than_cool_jobs() {
        // The fleet-level differentiator: a 1× job leaves less case margin
        // than a 3× job, so it caps the rack water lower.
        let cache = OutcomeCache::new();
        let s = server();
        let c = class(&s);
        let hot = cache
            .get_or_solve(
                &c,
                Benchmark::X264,
                QosClass::OneX,
                &MinPowerSelector,
                T_CASE_MAX,
            )
            .unwrap();
        let cool = cache
            .get_or_solve(
                &c,
                Benchmark::Canneal,
                QosClass::ThreeX,
                &MinPowerSelector,
                T_CASE_MAX,
            )
            .unwrap();
        assert!(hot.max_water_temp < cool.max_water_temp);
        assert!(hot.package_power > cool.package_power);
    }

    #[test]
    fn published_table_replays_the_map_bit_for_bit() {
        let cache = OutcomeCache::new();
        let s = server();
        let classes = [
            ClassSolve {
                id: 0,
                server: &s,
                policy: PolicyId::Proposed,
            },
            ClassSolve {
                id: 1,
                server: &s,
                policy: PolicyId::Coskun,
            },
        ];
        let pairs = [
            (Benchmark::X264, QosClass::OneX),
            (Benchmark::Canneal, QosClass::ThreeX),
        ];
        cache
            .warm(&classes, &pairs, &MinPowerSelector, T_CASE_MAX, 2)
            .unwrap();
        let table = cache.publish();
        assert_eq!(table.len(), 4);
        assert_eq!(table.epoch(), 1);
        for c in &classes {
            for &(b, q) in &pairs {
                let dense = table.lookup(c, b, q).expect("warmed key is in the table");
                let oracle = cache
                    .get_or_solve(c, b, q, &MinPowerSelector, T_CASE_MAX)
                    .unwrap();
                assert_eq!(dense, oracle);
            }
        }
        // Absent keys fall through, never alias.
        assert!(table
            .lookup(&classes[0], Benchmark::Dedup, QosClass::TwoX)
            .is_none());
    }

    #[test]
    fn ensure_published_is_lock_flat_once_covered() {
        let cache = OutcomeCache::new();
        let s = server();
        let classes = [class(&s)];
        let pairs = [(Benchmark::X264, QosClass::TwoX)];
        let first = cache
            .ensure_published(&classes, &pairs, &MinPowerSelector, T_CASE_MAX, 2)
            .unwrap();
        assert_eq!(first.epoch(), 1);
        assert_eq!(cache.miss_solves(), 1);
        // Covered: the second call fetches the same epoch with exactly
        // one publication-lock acquisition and no new solves.
        let locks = cache.lock_acquisitions();
        let second = cache
            .ensure_published(&classes, &pairs, &MinPowerSelector, T_CASE_MAX, 2)
            .unwrap();
        assert_eq!(second.epoch(), 1);
        assert_eq!(cache.lock_acquisitions(), locks + 1);
        assert_eq!(cache.miss_solves(), 1);
        // A new pair republishes a richer epoch.
        let wider = [
            (Benchmark::X264, QosClass::TwoX),
            (Benchmark::X264, QosClass::OneX),
        ];
        let third = cache
            .ensure_published(&classes, &wider, &MinPowerSelector, T_CASE_MAX, 2)
            .unwrap();
        assert_eq!(third.epoch(), 2);
        assert_eq!(third.len(), 2);
        // The earlier epoch is still alive and unchanged for its holders.
        assert_eq!(first.len(), 1);
    }
}
