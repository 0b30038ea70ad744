//! The two-tier cache's contract, end to end: the frozen dense
//! [`SolveTable`] must replay a plain `BTreeMap` oracle bit for bit under
//! any solve/publish interleaving, a steady-state replay on a covering
//! table must acquire **zero** cache locks, fleets that differ in any
//! solve input never alias through a shared cache, and policies that map
//! a job onto the same cores share one solve.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tps_cluster::{
    synthesize_jobs, ClassSolve, Fleet, FleetConfig, JobMix, OutcomeCache, PolicyId, RoundRobin,
    StaticControl, SteadyState, ThermalAwareDispatch,
};
use tps_core::{MinPowerSelector, Server, T_CASE_MAX};
use tps_thermosyphon::OperatingPoint;
use tps_units::{Celsius, KgPerHour, Seconds};
use tps_workload::{Benchmark, ConstantDemand, DiurnalDemand, QosClass};

/// Collapses a [`SteadyState`] to raw bits so "equal" means *bit*-equal —
/// a table that perturbs even the last mantissa bit of any field fails.
fn bits(s: &SteadyState) -> [u64; 6] {
    [
        s.package_power.value().to_bits(),
        s.heat.value().to_bits(),
        s.max_water_temp.value().to_bits(),
        s.normalized_time.to_bits(),
        u64::from(s.n_cores),
        s.die_max.value().to_bits(),
    ]
}

/// SplitMix64, the same mix the workload layer uses — drives the
/// interleaving deterministically from a proptest-drawn seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Drive one cache through a random interleaving of on-demand solves
    /// and mid-run republications, mirroring every solved value into a
    /// plain `BTreeMap` oracle. After every publication, each oracle key
    /// must read back from the dense table bit for bit, absent keys must
    /// fall through to `None`, and earlier epochs — still held by their
    /// `Arc`s — must not have moved.
    #[test]
    fn table_replays_the_oracle_bit_for_bit_across_republication(
        seed in 0u64..1000,
        ops in 4usize..24,
        inlet_step in 1u32..4,
    ) {
        // Two classes with *distinct* inlets (one off the paper design
        // point), crossed with distinct policies: exercises the
        // (policy, inlet_milli) solve-slot axis, not just class/bench/qos.
        let hot = Server::xeon(3.0).with_operating_point(
            OperatingPoint::paper().with_inlet(Celsius::new(30.0 + 2.5 * f64::from(inlet_step))),
        );
        let base = Server::xeon(3.0);
        let classes = [
            ClassSolve {
                id: 0,
                server: &base,
                policy: PolicyId::Proposed,
                pitch_mm: 3.0,
                t_case_max: T_CASE_MAX,
            },
            ClassSolve {
                id: 1,
                server: &hot,
                policy: PolicyId::Coskun,
                pitch_mm: 3.0,
                t_case_max: T_CASE_MAX,
            },
        ];
        let benches = [Benchmark::X264, Benchmark::Canneal, Benchmark::Dedup];
        let qoses = [QosClass::OneX, QosClass::TwoX, QosClass::ThreeX];

        let cache = OutcomeCache::new();
        let mut oracle: BTreeMap<(usize, Benchmark, QosClass), SteadyState> = BTreeMap::new();
        let mut epochs = Vec::new();
        for i in 0..ops as u64 {
            let r = mix(seed, i);
            if r % 4 == 0 {
                // Republish mid-run: freeze whatever the stripes hold now.
                epochs.push(cache.publish());
            } else {
                let ci = (r as usize / 4) % classes.len();
                let b = benches[(r as usize / 8) % benches.len()];
                let q = qoses[(r as usize / 32) % qoses.len()];
                let solved = cache.get_or_solve(&classes[ci], b, q).unwrap();
                if let Some(prev) = oracle.insert((ci, b, q), solved) {
                    // Replays of one key are themselves bit-stable.
                    prop_assert_eq!(bits(&prev), bits(&solved));
                }
            }

            // The latest publication replays the oracle exactly — for the
            // keys it existed to see; later solves stay invisible to it.
            if let Some(table) = epochs.last() {
                for (&(ci, b, q), want) in &oracle {
                    if let Some(got) = table.lookup(&classes[ci], b, q) {
                        prop_assert_eq!(bits(&got), bits(want));
                    }
                }
            }
        }

        // A final publication covers everything ever solved, bit for bit…
        let last = cache.publish();
        prop_assert_eq!(last.len(), oracle.len());
        for (&(ci, b, q), want) in &oracle {
            let got = last
                .lookup(&classes[ci], b, q)
                .expect("every solved key is frozen into the final epoch");
            prop_assert_eq!(bits(&got), bits(want));
        }
        // …never-solved keys fall through instead of aliasing…
        for (ci, class) in classes.iter().enumerate() {
            for &b in &benches {
                for &q in &qoses {
                    if !oracle.contains_key(&(ci, b, q)) {
                        prop_assert!(last.lookup(class, b, q).is_none());
                    }
                }
            }
        }
        // …and every earlier epoch is immutable: still the bits the
        // oracle held at *its* publication (a subset of the final state).
        for table in &epochs {
            prop_assert!(table.epoch() < last.epoch() || table.len() == last.len());
            for (&(ci, b, q), want) in &oracle {
                if let Some(got) = table.lookup(&classes[ci], b, q) {
                    prop_assert_eq!(bits(&got), bits(want));
                }
            }
        }
    }
}

const POLICIES: [PolicyId; 4] = [
    PolicyId::Proposed,
    PolicyId::Coskun,
    PolicyId::InletFirst,
    PolicyId::Packed,
];

/// The steady state of `(bench, qos)` on `server` under `policy`, and the
/// sorted cores it ran on, from an independent end-to-end
/// [`Server::run`].
fn oracle(
    server: &Server,
    bench: Benchmark,
    qos: QosClass,
    policy: PolicyId,
) -> (SteadyState, Vec<u8>) {
    let mut out = server
        .run(bench, qos, &MinPowerSelector, policy.as_policy())
        .unwrap();
    let load = out.cooling_load(server.simulation().operating_point(), T_CASE_MAX);
    let state = SteadyState {
        package_power: out.profile.package_power,
        heat: load.heat,
        max_water_temp: load.max_water_temp,
        normalized_time: out.profile.normalized_time,
        n_cores: out.profile.config.n_cores(),
        die_max: out.die.max,
    };
    out.mapping.sort_unstable();
    (state, out.mapping)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One class warmed under two policies, one after the other, into one
    /// cache: every table entry equals an independent `Server::run` under
    /// the policy that asked for it, bit for bit, and the two share an
    /// entry and a solve exactly where they map the same cores. A 1× job
    /// runs on all eight cores under every policy, so each case has a
    /// shared pair; the drawn pair may or may not be shared.
    #[test]
    fn policies_that_map_the_same_cores_share_one_solve(
        pitch_step in 0u32..3,
        inlet_step in 0u32..4,
        first in 0usize..4,
        second in 0usize..4,
        bench in 0usize..13,
        qos in 0usize..3,
    ) {
        let pitch = 3.0 + 0.5 * f64::from(pitch_step);
        let server = Server::builder()
            .grid_pitch_mm(pitch)
            .operating_point(
                OperatingPoint::paper().with_inlet(Celsius::new(25.0 + 2.5 * f64::from(inlet_step))),
            )
            .build();
        let class = |policy| ClassSolve {
            id: 0,
            server: &server,
            policy,
            pitch_mm: pitch,
            t_case_max: T_CASE_MAX,
        };
        let classes = [class(POLICIES[first]), class(POLICIES[second])];
        let bench = Benchmark::ALL[bench];
        let mut pairs = vec![(bench, QosClass::ALL[qos]), (bench, QosClass::OneX)];
        pairs.dedup();

        let cache = OutcomeCache::new();
        for c in &classes {
            cache.warm(std::slice::from_ref(c), &pairs, 2).unwrap();
        }
        let table = cache.publish();
        prop_assert_eq!(cache.solves() + cache.hits(), classes.len() * pairs.len());

        let mut distinct = BTreeSet::new();
        for c in &classes {
            for &(b, q) in &pairs {
                let (want, cores) = oracle(&server, b, q, c.policy);
                let got = table.lookup(c, b, q).expect("a warmed key is in the table");
                prop_assert_eq!(bits(&got), bits(&want));
                distinct.insert((b, q, cores));
            }
        }
        prop_assert!(distinct.len() < classes.len() * pairs.len(), "the 1× pair is shared");
        prop_assert_eq!(cache.solves(), distinct.len());
        prop_assert_eq!(table.len(), distinct.len());
    }
}

fn fleet() -> Fleet {
    let mut config = FleetConfig::new(8, 4);
    config.grid_pitch_mm = 3.0;
    Fleet::new(config)
}

fn jobs() -> Vec<tps_cluster::Job> {
    let demand = DiurnalDemand::new(0.18 * 0.2, 0.18, Seconds::new(600.0));
    synthesize_jobs(160, &demand, JobMix::default(), 42)
}

/// A steady-state replay — second run, same cache, covering table — must
/// resolve every demand state lock-free: zero lock acquisitions, zero
/// miss solves, all table hits, identical outcome.
#[test]
fn steady_state_replay_acquires_zero_cache_locks() {
    let fleet = fleet();
    let cache = OutcomeCache::new();
    let jobs = jobs();
    let mut dispatcher = ThermalAwareDispatch::default();
    let first = fleet
        .simulate_with(&jobs, &mut dispatcher, &mut StaticControl, None, &cache)
        .unwrap();
    let second = fleet
        .simulate_with(&jobs, &mut dispatcher, &mut StaticControl, None, &cache)
        .unwrap();
    assert_eq!(second.outcome, first.outcome);
    assert!(second.stats.table_hits > 0);
    assert_eq!(
        second.stats.miss_solves, 0,
        "covering table must absorb every lookup"
    );
    assert_eq!(
        second.stats.lock_acquisitions, 0,
        "steady-state replay must touch no stripe or publication lock"
    );
}

/// Pitch, water flow and the case-temperature limit each decide a solve,
/// so a fleet differing from another in one of them alone must not
/// replay the other's physics through a shared cache: its outcome
/// through the shared cache equals its outcome through a cache of its
/// own.
#[test]
fn a_shared_cache_never_aliases_pitch_flow_or_case_limit() {
    let jobs = synthesize_jobs(12, &ConstantDemand::new(0.5), JobMix::default(), 42);
    let base = || {
        let mut config = FleetConfig::new(2, 2);
        config.grid_pitch_mm = 3.0;
        config
    };
    let mut pitch = base();
    pitch.grid_pitch_mm = 4.0;
    let mut flow = base();
    flow.op = flow.op.with_flow(KgPerHour::new(5.0));
    let mut case_limit = base();
    case_limit.t_case_max = Celsius::new(T_CASE_MAX.value() - 5.0);

    let shared = OutcomeCache::new();
    let run = |config: FleetConfig, cache: &OutcomeCache| {
        Fleet::new(config)
            .simulate(&jobs, &mut RoundRobin::default(), cache)
            .unwrap()
    };
    run(base(), &shared);
    for (what, config) in [("pitch", pitch), ("flow", flow), ("t_case_max", case_limit)] {
        let own = run(config.clone(), &OutcomeCache::new());
        let through_shared = run(config, &shared);
        assert_eq!(through_shared, own, "{what}");
    }
}
