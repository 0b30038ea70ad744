//! Memoized per-server steady-state outcomes: one locked map plus a
//! frozen snapshot.
//!
//! A fleet run dispatches hundreds to thousands of jobs, but the
//! per-server physics depends only on `(server class, benchmark, qos,
//! active cores, water inlet, grid pitch, water flow, case limit)` —
//! the coupled thermosyphon/thermal solve is steady-state and every
//! server of one class is identical. A mapping policy reaches the
//! physics only through the set of cores it maps a job onto, so two
//! policies that pick the same cores share one key and one solve.
//! [`OutcomeCache`] therefore computes each distinct key once (in
//! parallel across OS threads) and the event-driven simulator replays the
//! cached [`SteadyState`] summaries, which is what lets a million-job
//! scenario finish in seconds even on a heterogeneous fleet.
//!
//! The cache is one `Mutex<BTreeMap>` that warm-up workers fill — each
//! miss holds the lock twice, briefly, to look up and to insert, around
//! a coupled solve of milliseconds that runs outside it — plus the latest
//! **frozen [`SolveTable`]**: a clone of the map, published as an
//! immutable epoch and shared read-only (`Arc`) across runs and sweep
//! workers. A run resolves its demand states through the snapshot once,
//! before its event loop: once a run's keys are published, resolving
//! them acquires **zero** locks. Keys the snapshot lacks (a new
//! `inlet_milli` from a swept set-point, a planner grid) are solved into
//! the map and appear in the *next* epoch, frozen at a global
//! synchronization point — a run start — so readers never observe a torn
//! table: they hold the epoch they started with.
//!
//! Counter taxonomy: `hits`/`solves` account the locked map,
//! `table_hits`/`miss_solves` account the snapshot, and
//! `lock_acquisitions` counts every map or publication lock taken — the
//! zero-lock test asserts it stays flat across a steady-state run.

use crate::catalog::ClassId;
use crate::fleet::PolicyId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tps_core::{MinPowerSelector, RunError, RunPlan, Server};
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

/// Cache key: every coordinate the steady-state outcome depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// The server class the solve ran on (catalog index).
    pub class: ClassId,
    /// The application.
    pub bench: Benchmark,
    /// The QoS class.
    pub qos: QosClass,
    /// The active cores the class's mapping policy placed the job on, as
    /// a bit set (bit `c − 1` for core `c`): the only way a policy
    /// reaches the physics.
    pub cores: u8,
    /// Water inlet (ambient of the server loop) in milli-°C, quantized so
    /// the key is hashable/orderable.
    pub inlet_milli: i64,
    /// `to_bits` of the thermal-grid pitch in millimetres.
    pub pitch_bits: u64,
    /// `to_bits` of the server loop's water flow in kg/h.
    pub flow_bits: u64,
    /// `to_bits` of the case-temperature limit in °C.
    pub t_case_max_bits: u64,
}

/// One server class's solve context: everything a solve of a job on that
/// class depends on, and so everything its [`CacheKey`] holds.
#[derive(Debug, Clone, Copy)]
pub struct ClassSolve<'a> {
    /// The class's catalog index (part of the cache key).
    pub id: ClassId,
    /// The class's assembled server template.
    pub server: &'a Server,
    /// The class's (possibly overridden) mapping policy.
    pub policy: PolicyId,
    /// The thermal-grid pitch the server template was built at, in
    /// millimetres.
    pub pitch_mm: f64,
    /// The fleet's case-temperature constraint.
    pub t_case_max: Celsius,
}

impl ClassSolve<'_> {
    /// Plans `(bench, qos)` on this class — minimum-power selection, then
    /// the class's mapping policy — and returns the plan with its cache
    /// key: the one place a key is built.
    fn plan(&self, bench: Benchmark, qos: QosClass) -> Result<(CacheKey, RunPlan), RunError> {
        let plan = self
            .server
            .plan(bench, qos, &MinPowerSelector, self.policy.as_policy())?;
        let op = self.server.simulation().operating_point();
        let key = CacheKey {
            class: self.id,
            bench,
            qos,
            cores: plan
                .mapping
                .iter()
                .fold(0, |set, &core| set | 1 << (core - 1)),
            inlet_milli: (op.water_inlet().value() * 1000.0).round() as i64,
            pitch_bits: self.pitch_mm.to_bits(),
            flow_bits: op.water_flow().value().to_bits(),
            t_case_max_bits: self.t_case_max.value().to_bits(),
        };
        Ok((key, plan))
    }

    /// Runs the coupled solve of a plan and keeps what the fleet reads.
    fn solve(&self, plan: RunPlan) -> Result<SteadyState, RunError> {
        let outcome = self.server.solve_plan(plan)?;
        let load =
            outcome.cooling_load(self.server.simulation().operating_point(), self.t_case_max);
        Ok(SteadyState {
            package_power: outcome.profile.package_power,
            heat: load.heat,
            max_water_temp: load.max_water_temp,
            normalized_time: outcome.profile.normalized_time,
            n_cores: outcome.profile.config.n_cores(),
            die_max: outcome.die.max,
        })
    }
}

/// A frozen, read-only snapshot of the cache: every key the cache held at
/// publication.
///
/// Epoch-publication invariant: a `SolveTable` is immutable after
/// construction. New keys are solved into the locked map and appear only
/// in the *next* published table (a higher [`epoch`](Self::epoch)),
/// swapped in at a global synchronization point (a run start). Readers
/// therefore never race a mutation: they keep using the epoch they
/// fetched until the next sync point.
#[derive(Debug)]
pub struct SolveTable {
    epoch: u64,
    entries: BTreeMap<CacheKey, SteadyState>,
}

impl SolveTable {
    /// The publication epoch (1-based; each publication bumps it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Distinct outcomes frozen into this table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no outcomes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The frozen outcome of `(bench, qos)` on `class`, or `None` when
    /// the key was absent at publication (or the pair has no feasible
    /// configuration). Plans the pair to find its key.
    pub fn lookup(
        &self,
        class: &ClassSolve<'_>,
        bench: Benchmark,
        qos: QosClass,
    ) -> Option<SteadyState> {
        let (key, _) = class.plan(bench, qos).ok()?;
        self.entries.get(&key).copied()
    }
}

/// A concurrent memo table of [`SteadyState`] outcomes: the locked
/// mutable map plus the latest published [`SolveTable`] epoch.
///
/// Deterministic by construction: values are pure functions of their key,
/// so neither thread count nor insertion order affects what a lookup
/// returns — and the frozen table replays the exact map bits.
#[derive(Debug, Default)]
pub struct OutcomeCache {
    map: Mutex<BTreeMap<CacheKey, SteadyState>>,
    /// The latest published epoch (`None` until the first publication).
    published: Mutex<Option<Arc<SolveTable>>>,
    epoch: AtomicU64,
    hits: AtomicUsize,
    solves: AtomicUsize,
    table_hits: AtomicUsize,
    miss_solves: AtomicUsize,
    lock_acquisitions: AtomicUsize,
}

/// Every `(class index, bench, qos)` triple of `classes × pairs`.
fn triples<'a>(
    classes: &'a [ClassSolve<'_>],
    pairs: &'a [(Benchmark, QosClass)],
) -> impl Iterator<Item = (usize, Benchmark, QosClass)> + 'a {
    (0..classes.len()).flat_map(move |ci| pairs.iter().map(move |&(b, q)| (ci, b, q)))
}

impl OutcomeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the map, counting the acquisition.
    fn lock_map(&self) -> std::sync::MutexGuard<'_, BTreeMap<CacheKey, SteadyState>> {
        self.note_lock();
        self.map.lock().expect("cache poisoned")
    }

    /// Distinct outcomes computed so far.
    pub fn len(&self) -> usize {
        self.lock_map().len()
    }

    /// Whether nothing has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the locked map.
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

    /// Map and publication locks acquired so far. Steady-state replays on
    /// a published table add **zero** — the zero-lock test pins that. The
    /// count is a deterministic function of the operation sequence (each
    /// miss costs exactly one lookup lock and one insert lock), not of
    /// thread interleaving.
    pub fn lock_acquisitions(&self) -> usize {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Credits `n` table lookups to this cache's counters — the kernel
    /// resolves its demand states straight off the `Arc` and reports in
    /// bulk, so the hot path touches no shared atomics.
    pub(crate) fn record_table_hits(&self, n: usize) {
        self.table_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Credits `n` table misses that went through the solve path.
    fn record_miss_solves(&self, n: usize) {
        self.miss_solves.fetch_add(n, Ordering::Relaxed);
    }

    fn note_lock(&self) {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    /// The latest published table, if any. One publication-lock fetch —
    /// callers clone the `Arc` once per run at a synchronization point,
    /// never per lookup.
    fn table(&self) -> Option<Arc<SolveTable>> {
        self.note_lock();
        self.published.lock().expect("cache poisoned").clone()
    }

    /// Returns the cached outcome for `(bench, qos)` on the given server
    /// class, solving the coupled problem on a miss. This is the locked
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
    ) -> Result<SteadyState, RunError> {
        let (key, plan) = class.plan(bench, qos)?;
        if let Some(state) = self.lock_map().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(*state);
        }
        // Solve outside the lock: a rare duplicate solve beats serializing
        // every worker behind one coupled simulation.
        let state = class.solve(plan)?;
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.lock_map().insert(key, state);
        Ok(state)
    }

    /// Freezes a clone of the map into a new immutable [`SolveTable`]
    /// epoch and publishes it. Call only at global synchronization points
    /// (run starts, sweep phase boundaries): readers that fetched an
    /// earlier epoch keep it — `Arc` keeps every epoch alive while
    /// referenced, so publication can never tear a table out from under a
    /// run in progress.
    pub fn publish(&self) -> Arc<SolveTable> {
        let entries = self.lock_map().clone();
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let table = Arc::new(SolveTable { epoch, entries });
        self.note_lock();
        *self.published.lock().expect("cache poisoned") = Some(Arc::clone(&table));
        table
    }

    /// Makes sure a published table covers every `(class, bench, qos)`
    /// triple of `classes × pairs`, and returns the triples' outcomes off
    /// it in class-major order (`states[class * pairs.len() + pair]`),
    /// plus how many triples it had to solve for that: only the
    /// **missing** triples are warmed (in parallel), and a fresh epoch is
    /// published when needed. Every triple is planned to find its key (a
    /// missing one again by the solve that fills it). On a fully covered
    /// cache this is one publication-lock fetch — the steady-state replay
    /// path; on a cold cache it is the old eager warm-up, now as an
    /// on-demand prefetch.
    ///
    /// # Errors
    ///
    /// Propagates the first per-server [`RunError`] planning or a worker
    /// hit.
    pub fn ensure_published(
        &self,
        classes: &[ClassSolve<'_>],
        pairs: &[(Benchmark, QosClass)],
        threads: usize,
    ) -> Result<(Vec<SteadyState>, usize), RunError> {
        let keys = triples(classes, pairs)
            .map(|(ci, b, q)| Ok(classes[ci].plan(b, q)?.0))
            .collect::<Result<Vec<CacheKey>, RunError>>()?;
        let published = self.table();
        let missing: Vec<(usize, Benchmark, QosClass)> = triples(classes, pairs)
            .zip(&keys)
            .filter(|(_, key)| {
                published
                    .as_ref()
                    .map_or(true, |t| !t.entries.contains_key(key))
            })
            .map(|(triple, _)| triple)
            .collect();
        let table = match published {
            Some(table) if missing.is_empty() => table,
            _ => {
                self.record_miss_solves(missing.len());
                self.warm_triples(&missing, classes, threads)?;
                self.publish()
            }
        };
        let states = keys.iter().map(|key| table.entries[key]).collect();
        Ok((states, missing.len()))
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
        threads: usize,
    ) -> Result<(), RunError> {
        let all: Vec<(usize, Benchmark, QosClass)> = triples(classes, pairs).collect();
        self.warm_triples(&all, classes, threads)
    }

    /// The shared warm-up worker loop over an explicit triple list.
    /// Workers poll a lock-free `AtomicBool` failure flag each iteration
    /// and take the failure mutex only to record the first actual error.
    fn warm_triples(
        &self,
        triples: &[(usize, Benchmark, QosClass)],
        classes: &[ClassSolve<'_>],
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
                    if let Err(e) = self.get_or_solve(&classes[ci], bench, qos) {
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
    use tps_core::T_CASE_MAX;
    use tps_thermosyphon::OperatingPoint;

    fn server() -> Server {
        Server::xeon(3.0)
    }

    fn class(server: &Server) -> ClassSolve<'_> {
        ClassSolve {
            id: 0,
            server,
            policy: PolicyId::Proposed,
            pitch_mm: 3.0,
            t_case_max: T_CASE_MAX,
        }
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = OutcomeCache::new();
        let s = server();
        let c = class(&s);
        let a = cache
            .get_or_solve(&c, Benchmark::X264, QosClass::TwoX)
            .unwrap();
        let b = cache
            .get_or_solve(&c, Benchmark::X264, QosClass::TwoX)
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
            policy: PolicyId::Proposed,
            ..class(&s)
        };
        let b = ClassSolve {
            id: 1,
            policy: PolicyId::Proposed,
            ..class(&s)
        };
        for c in [&a, &b] {
            cache
                .get_or_solve(c, Benchmark::X264, QosClass::TwoX)
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
        let s = server();
        let at = |inlet: f64| {
            s.with_operating_point(OperatingPoint::paper().with_inlet(Celsius::new(inlet)))
        };
        let key = |server: &Server, policy| {
            ClassSolve {
                policy,
                ..class(server)
            }
            .plan(Benchmark::X264, QosClass::TwoX)
            .unwrap()
            .0
        };
        let (close_a, close_b, apart) = (at(30.0001), at(30.0004), at(30.001));
        let proposed = PolicyId::Proposed;
        assert_eq!(
            key(&close_a, proposed),
            key(&close_b, proposed),
            "inlets within 0.5 m°C must collide"
        );
        // …while inlets a full millidegree apart stay distinct.
        assert_ne!(
            key(&close_a, proposed),
            key(&apart, proposed),
            "distinct milli-°C bins must not collide"
        );
        // A policy enters the key only through the cores it maps: two
        // policies share a key exactly when their core sets agree.
        let policies = [
            PolicyId::Proposed,
            PolicyId::Coskun,
            PolicyId::InletFirst,
            PolicyId::Packed,
        ];
        for a in policies {
            for b in policies {
                let (ka, kb) = (key(&close_a, a), key(&close_a, b));
                assert_eq!(ka == kb, ka.cores == kb.cores, "{a:?} vs {b:?}");
            }
        }
        assert_ne!(
            key(&close_a, PolicyId::Proposed),
            key(&close_a, PolicyId::Packed),
            "proposed and packed map 2× x264 onto different cores"
        );
    }

    #[test]
    fn warm_is_parallel_and_complete_across_classes() {
        let cache = OutcomeCache::new();
        let s = server();
        let classes = [
            ClassSolve {
                id: 0,
                policy: PolicyId::Proposed,
                ..class(&s)
            },
            ClassSolve {
                id: 1,
                policy: PolicyId::Coskun,
                ..class(&s)
            },
        ];
        let pairs: Vec<(Benchmark, QosClass)> = [
            (Benchmark::X264, QosClass::OneX),
            (Benchmark::Canneal, QosClass::ThreeX),
        ]
        .to_vec();
        cache.warm(&classes, &pairs, 4).unwrap();
        assert_eq!(cache.len(), 4);
        // Replay after warm never solves again.
        let before = cache.solves();
        for c in &classes {
            for &(b, q) in &pairs {
                cache.get_or_solve(c, b, q).unwrap();
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
            .get_or_solve(&c, Benchmark::X264, QosClass::OneX)
            .unwrap();
        let cool = cache
            .get_or_solve(&c, Benchmark::Canneal, QosClass::ThreeX)
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
                policy: PolicyId::Proposed,
                ..class(&s)
            },
            ClassSolve {
                id: 1,
                policy: PolicyId::Coskun,
                ..class(&s)
            },
        ];
        let pairs = [
            (Benchmark::X264, QosClass::OneX),
            (Benchmark::Canneal, QosClass::ThreeX),
        ];
        cache.warm(&classes, &pairs, 2).unwrap();
        let table = cache.publish();
        assert_eq!(table.len(), 4);
        assert_eq!(table.epoch(), 1);
        for c in &classes {
            for &(b, q) in &pairs {
                let dense = table.lookup(c, b, q).expect("warmed key is in the table");
                let oracle = cache.get_or_solve(c, b, q).unwrap();
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
        let (first, solved) = cache.ensure_published(&classes, &pairs, 2).unwrap();
        assert_eq!(solved, 1);
        assert_eq!(cache.miss_solves(), 1);
        let held = cache.table().expect("published");
        assert_eq!(held.epoch(), 1);
        // Covered: the second call reuses the same epoch with exactly one
        // publication-lock acquisition and no new solves.
        let locks = cache.lock_acquisitions();
        let (second, solved) = cache.ensure_published(&classes, &pairs, 2).unwrap();
        assert_eq!(second, first);
        assert_eq!(solved, 0);
        assert_eq!(cache.lock_acquisitions(), locks + 1);
        assert_eq!(cache.miss_solves(), 1);
        assert!(Arc::ptr_eq(&cache.table().expect("published"), &held));
        // A new pair republishes a richer epoch; the states come back in
        // pair order.
        let wider = [
            (Benchmark::X264, QosClass::TwoX),
            (Benchmark::X264, QosClass::OneX),
        ];
        let (third, solved) = cache.ensure_published(&classes, &wider, 2).unwrap();
        assert_eq!(solved, 1);
        assert_eq!(third[0], first[0]);
        let one_x = cache.get_or_solve(&classes[0], Benchmark::X264, QosClass::OneX);
        assert_eq!(third[1], one_x.unwrap());
        let latest = cache.table().expect("published");
        assert_eq!((latest.epoch(), latest.len()), (2, 2));
        // The earlier epoch is still alive and unchanged for its holders.
        assert_eq!(held.len(), 1);
    }
}
