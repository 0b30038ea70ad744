//! Property tests on the kernel's committed-load bookkeeping:
//! interleaved `add`/`expire_until` must never leave negative rack heat,
//! stale occupancy or a wrong shared-supply cap, no matter the order of
//! magnitudes or expiry times — the invariants every dispatch decision
//! and energy window depends on. Every committed rack must sit in exactly
//! one state entry of the dispatch index, whose inline chiller terms
//! match a fresh evaluation after every add, expiry and chiller change.
//! The indexed dispatchers are checked against full-enumeration oracles
//! over the same bookkeeping, on fleets whose racks share states.

use proptest::prelude::*;
use tps_cluster::{
    ClassDemand, CoolestRackFirst, FleetDispatcher, FleetIndex, FleetView, Job, JobDemand,
    PlannedDispatch, RackLoads, RackView, ServerTable, SteadyState, ThermalAwareDispatch,
};
use tps_cooling::Chiller;
use tps_units::{Celsius, Seconds, Watts};
use tps_workload::{Benchmark, QosClass};

fn state(heat: f64, water: f64) -> SteadyState {
    SteadyState {
        package_power: Watts::new(heat),
        heat: Watts::new(heat),
        max_water_temp: Celsius::new(water),
        normalized_time: 1.0,
        n_cores: 8,
        die_max: Celsius::new(70.0),
    }
}

/// A tiny deterministic generator for the interleaving: SplitMix64, the
/// same mix the workload layer uses.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed, i) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

proptest! {
    /// Drive `RackLoads` through a random interleaving of commits and
    /// expiries (including ties, out-of-order expiry times and heats
    /// spanning five orders of magnitude) and check it against a naive
    /// model that rescans the full placement list every step.
    #[test]
    fn interleaved_add_expire_matches_a_naive_rescan(
        racks in 1usize..5,
        ops in 1usize..60,
        seed in 0u64..500,
        magnitude in 0u32..3,
    ) {
        let mut loads = RackLoads::new(racks, Chiller::default());
        // Naive model: (rack, heat, water, end) of every commit, kept
        // forever, filtered on demand.
        let mut naive: Vec<(usize, f64, f64, f64)> = Vec::new();
        let mut now = 0.0f64;
        for i in 0..ops as u64 {
            let r = unit(seed, 4 * i);
            if r < 0.6 || naive.is_empty() {
                // Commit to a random rack until a random end ≥ now.
                let rack = (unit(seed, 4 * i + 1) * racks as f64) as usize % racks;
                // Heats from milliwatts to hundreds of watts stress the
                // float accumulation.
                let heat = (0.001 + unit(seed, 4 * i + 2) * 200.0)
                    * 10f64.powi(-(magnitude as i32));
                let water = 40.0 + unit(seed, 4 * i + 3) * 45.0;
                let end = now + unit(seed, 4 * i + 2) * 50.0;
                loads.add(rack, &state(heat, water), Seconds::new(end));
                naive.push((rack, heat, water, end));
            } else {
                // Advance time (sometimes replaying an already-passed
                // instant: expire_until must be idempotent).
                let dt = unit(seed, 4 * i + 1) * 40.0 - 5.0;
                now = (now + dt).max(0.0);
                loads.expire_until(Seconds::new(now));
                naive.retain(|&(_, _, _, end)| end > now);
            }

            // Invariants after every step.
            loads.expire_until(Seconds::new(now));
            naive.retain(|&(_, _, _, end)| end > now);
            let views = loads.view_slice();
            prop_assert_eq!(views.len(), racks);
            prop_assert_eq!(
                loads.total_committed(),
                naive.len(),
                "stale occupancy at step {}", i
            );
            for (rk, view) in views.iter().enumerate() {
                let live: Vec<&(usize, f64, f64, f64)> =
                    naive.iter().filter(|p| p.0 == rk).collect();
                // Occupancy matches exactly.
                prop_assert_eq!(view.committed, live.len());
                // Heat is never negative, and matches the naive sum far
                // beyond float-residue scale.
                prop_assert!(view.heat.value() >= 0.0, "negative rack heat");
                let expected: f64 = live.iter().map(|p| p.1).sum();
                prop_assert!(
                    (view.heat.value() - expected).abs() <= 1e-9 * expected.max(1.0),
                    "rack {} heat {} vs naive {}", rk, view.heat.value(), expected
                );
                // A drained rack is pinned to *exact* zero.
                if live.is_empty() {
                    prop_assert_eq!(view.heat.value(), 0.0);
                    prop_assert!(view.supply.is_none());
                } else {
                    // The shared supply is the coldest live demand,
                    // bit-exact (the multiset stores raw bits).
                    let coldest = live
                        .iter()
                        .map(|p| p.2)
                        .fold(f64::INFINITY, f64::min);
                    prop_assert_eq!(
                        view.supply.map(|c| c.value().to_bits()),
                        Some(coldest.to_bits())
                    );
                }
            }
        }
    }

    /// Expiring everything always returns every rack to the exact-zero
    /// idle state, regardless of the commit pattern.
    #[test]
    fn full_expiry_returns_to_pristine_state(
        racks in 1usize..4,
        commits in 1usize..40,
        seed in 0u64..500,
    ) {
        let mut loads = RackLoads::new(racks, Chiller::default());
        let mut horizon = 0.0f64;
        for i in 0..commits as u64 {
            let rack = (unit(seed, 3 * i) * racks as f64) as usize % racks;
            let heat = 0.01 + unit(seed, 3 * i + 1) * 300.0;
            let end = unit(seed, 3 * i + 2) * 100.0;
            horizon = horizon.max(end);
            loads.add(rack, &state(heat, 60.0), Seconds::new(end));
        }
        loads.expire_until(Seconds::new(horizon));
        prop_assert_eq!(loads.total_committed(), 0);
        for view in loads.view_slice() {
            prop_assert_eq!(view.heat.value(), 0.0);
            prop_assert_eq!(view.committed, 0);
            prop_assert!(view.supply.is_none());
        }
    }
    /// A heterogeneous fleet commits per-class steady states — the same
    /// job carries a different (heat, water) on each hardware bin. Any
    /// class mix must conserve committed heat across interleaved
    /// `add`/`expire_until`: the rack totals always equal the sum of the
    /// live placements' class heats, and full expiry drains to exact
    /// zero.
    #[test]
    fn any_class_mix_conserves_committed_heat(
        racks in 1usize..4,
        n_classes in 1usize..5,
        ops in 1usize..60,
        seed in 0u64..500,
    ) {
        // A fixed catalog of per-class demands, as the cache would hand
        // the kernel: distinct heats and tolerable-water caps per class.
        let classes: Vec<(f64, f64)> = (0..n_classes as u64)
            .map(|c| (
                20.0 + unit(seed ^ 0xc1a5, c) * 150.0,
                45.0 + unit(seed ^ 0x7a7e, c) * 35.0,
            ))
            .collect();
        let mut loads = RackLoads::new(racks, Chiller::default());
        // Naive model: (rack, class, end) of every commit.
        let mut naive: Vec<(usize, usize, f64)> = Vec::new();
        let mut now = 0.0f64;
        for i in 0..ops as u64 {
            if unit(seed, 5 * i) < 0.65 || naive.is_empty() {
                let rack = (unit(seed, 5 * i + 1) * racks as f64) as usize % racks;
                let class = (unit(seed, 5 * i + 2) * n_classes as f64) as usize % n_classes;
                let (heat, water) = classes[class];
                let end = now + unit(seed, 5 * i + 3) * 50.0;
                loads.add(rack, &state(heat, water), Seconds::new(end));
                naive.push((rack, class, end));
            } else {
                now += unit(seed, 5 * i + 4) * 40.0;
                loads.expire_until(Seconds::new(now));
                naive.retain(|&(_, _, end)| end > now);
            }

            // Committed heat equals the naive per-class sum on every rack.
            let views = loads.view_slice();
            for (rk, view) in views.iter().enumerate() {
                let expected: f64 = naive
                    .iter()
                    .filter(|p| p.0 == rk)
                    .map(|p| classes[p.1].0)
                    .sum();
                prop_assert!(
                    (view.heat.value() - expected).abs() <= 1e-9 * expected.max(1.0),
                    "rack {} heat {} vs per-class sum {}", rk, view.heat.value(), expected
                );
                // The supply cap is the coldest live class on the rack.
                let coldest = naive
                    .iter()
                    .filter(|p| p.0 == rk)
                    .map(|p| classes[p.1].1)
                    .fold(f64::INFINITY, f64::min);
                if coldest.is_finite() {
                    prop_assert_eq!(
                        view.supply.map(|c| c.value().to_bits()),
                        Some(coldest.to_bits())
                    );
                } else {
                    prop_assert!(view.supply.is_none());
                    prop_assert_eq!(view.heat.value(), 0.0);
                }
            }
        }

        // Drain everything: exact zero no matter the class mix.
        let horizon = naive.iter().map(|p| p.2).fold(now, f64::max);
        loads.expire_until(Seconds::new(horizon));
        prop_assert_eq!(loads.total_committed(), 0);
        for view in loads.view_slice() {
            prop_assert_eq!(view.heat.value(), 0.0);
            prop_assert!(view.supply.is_none());
        }
    }
}

/// The dispatch index's contract, where `group_of` names each rack's
/// group: every committed rack is in exactly one state and no idle rack
/// is in any; the state's key `(heat bits, supply bits, group)` equals
/// each member's view and group, and no two states share a key; members
/// ascend, the representative is the first member, and no state is
/// empty; the entries ascend by `(heat bits, representative)`; each
/// entry's inline COP terms equal a fresh `cop(supply)` and
/// `electrical_power(heat, supply)` under the loads' chiller, bit for
/// bit; and each group's cached idle minimum is its lowest idle rack.
fn assert_fresh_chiller_terms(loads: &RackLoads, group_of: &[u32]) {
    let views = loads.view_slice();
    let chiller = loads.chiller();
    let occupied = loads.occupied_racks();
    let members = loads.state_members();
    let mut states_of = vec![0usize; views.len()];
    for (i, e) in occupied.iter().enumerate() {
        let list = &members[e.rack as usize];
        assert_eq!(list.first(), Some(&e.rack), "representative of state {i}");
        assert!(list.windows(2).all(|w| w[0] < w[1]), "members ascend");
        assert!(
            occupied[..i]
                .iter()
                .all(|o| (o.heat_bits, o.supply_bits, o.group)
                    != (e.heat_bits, e.supply_bits, e.group)),
            "two entries hold state {i}"
        );
        for &m in list {
            states_of[m as usize] += 1;
            let view = &views[m as usize];
            let supply = view.supply.expect("a committed rack has a supply");
            assert_eq!(e.heat_bits, view.heat.value().to_bits());
            assert_eq!(e.supply_bits, supply.value().to_bits());
            assert_eq!(e.group, group_of[m as usize]);
            assert_eq!(
                e.cop.to_bits(),
                chiller.cop(supply).to_bits(),
                "stale COP on rack {m}"
            );
            assert_eq!(
                e.draw.to_bits(),
                chiller
                    .electrical_power(view.heat, supply)
                    .value()
                    .to_bits(),
                "stale draw on rack {m}"
            );
        }
    }
    assert!(
        occupied.windows(2).all(|w| w[0].key() < w[1].key()),
        "entries ascend by (heat bits, representative)"
    );
    assert_eq!(
        members.iter().filter(|l| !l.is_empty()).count(),
        occupied.len(),
        "member lists vs states"
    );
    for (r, v) in views.iter().enumerate() {
        assert_eq!(
            states_of[r],
            usize::from(v.committed > 0),
            "states of rack {r}"
        );
    }
    for (g, &min) in loads.idle_group_mins().iter().enumerate() {
        let lowest =
            (0..views.len()).find(|&r| group_of[r] as usize == g && views[r].committed == 0);
        assert_eq!(min, lowest.map(|r| r as u32), "idle minimum of group {g}");
    }
}

proptest! {
    /// Random adds (zero-heat ones included, so a rack's supply can move
    /// while its heat bits stay), expiries and chiller changes: after
    /// every step each occupied entry carries fresh chiller terms.
    #[test]
    fn inline_chiller_terms_stay_fresh_after_every_step(
        racks in 1usize..5,
        ops in 1usize..80,
        seed in 0u64..500,
    ) {
        let mut loads = RackLoads::new(racks, Chiller::new(Celsius::new(60.0)));
        let mut now = 0.0f64;
        for i in 0..ops as u64 {
            let r = unit(seed, 4 * i);
            if r < 0.15 {
                let ambient = 35.0 + unit(seed, 4 * i + 1) * 40.0;
                loads.set_chiller(loads.chiller().with_ambient(Celsius::new(ambient)));
            } else if r < 0.4 {
                now += unit(seed, 4 * i + 1) * 30.0;
                loads.expire_until(Seconds::new(now));
            } else {
                let rack = (unit(seed, 4 * i + 1) * racks as f64) as usize % racks;
                let heat = if unit(seed, 4 * i + 2) < 0.3 {
                    0.0
                } else {
                    10.0 + unit(seed, 4 * i + 2) * 150.0
                };
                let water = [50.0, 58.5, 66.0, 80.0][(mix(seed, 4 * i + 3) % 4) as usize];
                let end = now + unit(seed, 4 * i + 3) * 40.0;
                loads.add(rack, &state(heat, water), Seconds::new(end));
            }
            assert_fresh_chiller_terms(&loads, &vec![0; racks]);
        }
    }
}

/// Chiller electricity `rack` pays per unit time if a job with `state`
/// joins it — the marginal-power expression both ranking oracles below
/// score by.
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

/// Every active `(rack, class)` slot as `(score, heat, rack, class)`,
/// scored by `score(rack view, class)` and sorted by that total key.
fn ranking(
    view: &FleetView<'_>,
    score: impl Fn(&RackView, usize) -> f64,
) -> Vec<(f64, f64, usize, usize)> {
    let mut ranked: Vec<(f64, f64, usize, usize)> = Vec::new();
    for r in 0..view.servers.active_racks() {
        let rack = &view.racks[r];
        for &class in view.classes_in_rack(r) {
            ranked.push((score(rack, class), rack.heat.value(), r, class));
        }
    }
    ranked.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.total_cmp(&b.1))
            .then(a.2.cmp(&b.2))
            .then(a.3.cmp(&b.3))
    });
    ranked
}

/// The first slot of `ranked` within its class's wait budget, else the
/// active server that frees up soonest.
fn first_within_budget(
    ranked: &[(f64, f64, usize, usize)],
    demand: &JobDemand<'_>,
    view: &FleetView<'_>,
) -> usize {
    for &(_, _, rack, class) in ranked {
        let (server, _) = view.earliest_free_of_class(rack, class).unwrap();
        if view.wait_on(server) <= demand.class(class).wait_budget {
            return server;
        }
    }
    let free = view.servers.free_slice();
    (0..view.servers.active_servers())
        .min_by(|&a, &b| free[a].value().total_cmp(&free[b].value()))
        .unwrap()
}

/// The marginal chiller power of every active slot.
fn thermal_ranking(demand: &JobDemand<'_>, view: &FleetView<'_>) -> Vec<(f64, f64, usize, usize)> {
    ranking(view, |rack, c| {
        marginal_power(view.chiller, rack, &demand.class(c).state)
    })
}

/// The full `(rack, class)` enumeration the indexed thermal-aware walk
/// must reproduce: every active slot ranked by marginal chiller power
/// (lighter rack, then rack index, then class id on ties), the cheapest
/// one within its class's wait budget taken, else the active server that
/// frees up soonest.
fn scan_thermal(demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
    first_within_budget(&thermal_ranking(demand, view), demand, view)
}

/// The full enumeration the planned dispatcher ranked on every arrival
/// before it folded the index: every active slot by the job's total
/// energy `runtime × (package power + marginal chiller power)`, under
/// the same tie order and budget walk.
fn scan_planned(demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
    let ranked = ranking(view, |rack, c| {
        let d = demand.class(c);
        d.runtime.value()
            * (d.state.package_power.value() + marginal_power(view.chiller, rack, &d.state))
    });
    first_within_budget(&ranked, demand, view)
}

/// The linear scan coolest-rack-first's index lookup must reproduce: the
/// active rack with the least committed heat (lowest index on ties),
/// then its cheapest class.
fn scan_coolest(demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
    let heat = |r: usize| view.racks[r].heat.value();
    let rack = (0..view.servers.active_racks())
        .min_by(|&a, &b| heat(a).total_cmp(&heat(b)))
        .unwrap();
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
        .unwrap()
        .1;
    view.earliest_free_of_class(rack, class).unwrap().0
}

proptest! {
    /// Drive the kernel's dispatch index (occupied set, idle groups,
    /// inline chiller terms) and the dispatcher's per-arrival class
    /// inputs, plus the full-fleet rescore oracles, through the same
    /// random interleaving of placements, expiries and set-point changes
    /// made through `RackLoads::set_chiller`: every placement decision
    /// must be bit-identical. One dispatcher instance serves the whole
    /// interleaving while the oracles rescore every rack each call — any
    /// stale input or index drift shows up as a diverged pick.
    #[test]
    fn indexed_ranking_matches_a_full_rescore_after_any_interleaving(
        seed in 0u64..200,
        ops in 1usize..80,
    ) {
        // Fleet shape: racks {0,1} host class 0 only, racks {2,3} host
        // classes {0,1} — two rack groups, 2 servers per rack.
        let group_classes = vec![vec![0usize], vec![0, 1]];
        let mut servers = ServerTable::new(vec![0, 0, 0, 0, 0, 1, 0, 1], 2);
        let mut loads =
            RackLoads::with_groups(4, vec![0, 0, 1, 1], 2, Chiller::new(Celsius::new(60.0)));
        let mut warm = ThermalAwareDispatch::default();
        warm.begin_run();
        let job = Job {
            id: 0,
            bench: Benchmark::X264,
            qos: QosClass::TwoX,
            arrival: Seconds::ZERO,
            service: Seconds::new(30.0),
        };
        // Three demand kinds, each a fixed pair of steady states (one
        // per class); only the job-specific runtime and wait budget vary
        // per arrival.
        let sig_states: Vec<[SteadyState; 2]> = (0..3u64)
            .map(|s| {
                let heat = 60.0 + 40.0 * s as f64;
                let water = 50.0 + 9.0 * s as f64;
                [state(heat, water), state(heat * 0.9, water + 6.0)]
            })
            .collect();
        let mut now = 0.0f64;
        for i in 0..ops as u64 {
            let r = mix(seed, i);
            match r % 8 {
                0 => {
                    now += unit(seed, 3 * i) * 40.0;
                    loads.expire_until(Seconds::new(now));
                }
                1 => {
                    let ambient = Celsius::new(40.0 + unit(seed, 3 * i) * 25.0);
                    loads.set_chiller(loads.chiller().with_ambient(ambient));
                }
                _ => {
                    let sig = ((r >> 8) % 3) as usize;
                    let runtime = 10.0 + unit(seed, 3 * i + 1) * 50.0;
                    let budget = unit(seed, 3 * i + 2) * 30.0;
                    let classes: Vec<ClassDemand> = sig_states[sig]
                        .iter()
                        .map(|s| ClassDemand {
                            state: *s,
                            runtime: Seconds::new(runtime),
                            wait_budget: Seconds::new(budget),
                        })
                        .collect();
                    let demand = JobDemand { job: &job, classes: &classes };
                    let view = FleetView {
                        now: Seconds::new(now),
                        racks: loads.view_slice(),
                        servers: &servers,
                        chiller: loads.chiller(),
                        index: FleetIndex {
                            occupied: loads.occupied_racks(),
                            members: loads.state_members(),
                            idle_min: loads.idle_group_mins(),
                            group_classes: &group_classes,
                        },
                    };
                    let chosen = warm.place(&demand, &view);
                    prop_assert_eq!(
                        chosen,
                        scan_thermal(&demand, &view),
                        "thermal pick diverged at op {} (sig {})", i, sig
                    );
                    prop_assert_eq!(
                        CoolestRackFirst.place(&demand, &view),
                        scan_coolest(&demand, &view),
                        "coolest pick diverged at op {}", i
                    );
                    // Commit exactly like the kernel: the fleet evolves
                    // along the (verified) incremental decision.
                    let class = servers.class_of(chosen);
                    let cd = classes[class];
                    let start = now.max(servers.free_at(chosen).value());
                    let end = start + cd.runtime.value();
                    let rack = servers.rack_of(chosen);
                    loads.add(rack, &cd.state, Seconds::new(end));
                    servers.set_free_at(chosen, Seconds::new(end));
                }
            }
            assert_fresh_chiller_terms(&loads, &[0, 0, 1, 1]);
        }
    }
}

/// A state's key and members, as the index lists it.
type StateList = Vec<((u64, u64, u32), Vec<u32>)>;

fn state_list(loads: &RackLoads) -> StateList {
    let members = loads.state_members();
    let key = |e: &tps_cluster::OccupiedRack| (e.heat_bits, e.supply_bits, e.group);
    loads
        .occupied_racks()
        .iter()
        .map(|e| (key(e), members[e.rack as usize].clone()))
        .collect()
}

/// One random run over 6–12 racks of two rack groups (class 0 only, or
/// classes 0 and 1), 2–3 servers per rack, where dyadic heats and a few
/// waters make racks share committed states. Each step adds a job, lets
/// time pass, moves the set-point or moves the active prefix. After every
/// step the index's contract holds, and the next arrival's indexed
/// thermal-aware, coolest-rack-first and planned picks equal their full
/// enumerations; an add step commits one of the picks checked after the
/// step before it. Returns which of the regimes the representative
/// argument has to survive the run reached: a state with ≥ 2 members, a
/// representative replaced by the next member, a state straddling the
/// active prefix, and a multi-member winner over its wait budget.
fn shared_state_run(seed: u64, ops: u64) -> [bool; 4] {
    let mut hit = [false; 4];
    let racks = 6 + (mix(seed, 0) % 7) as usize;
    let per_rack = 2 + (mix(seed, 1) % 2) as usize;
    // Rack 0 hosts class 0 only and rack 1 both, the rest at random.
    let both = |r: usize| r == 1 || (r > 1 && mix(seed, 2 + r as u64) % 2 == 0);
    let class_of: Vec<usize> = (0..racks * per_rack)
        .map(|s| usize::from(both(s / per_rack) && s % per_rack == 1))
        .collect();
    let group_of: Vec<u32> = (0..racks).map(|r| u32::from(both(r))).collect();
    let group_classes = vec![vec![0usize], vec![0, 1]];
    let mut servers = ServerTable::new(class_of, per_rack);
    let mut loads =
        RackLoads::with_groups(racks, group_of.clone(), 2, Chiller::new(Celsius::new(55.0)));
    let mut thermal = ThermalAwareDispatch::default();
    let job = Job {
        id: 0,
        bench: Benchmark::X264,
        qos: QosClass::TwoX,
        arrival: Seconds::ZERO,
        service: Seconds::new(8.0),
    };
    let mut now = 0.0f64;
    // The arrival checked after the last step: its demand and its
    // verified thermal-aware and planned picks.
    let mut arrival: Option<([ClassDemand; 2], [usize; 2])> = None;
    // Step 0 only checks the empty fleet.
    for i in 0..=ops {
        let before = state_list(&loads);
        let r = mix(seed, 100 + i);
        match (i > 0).then_some(r % 8) {
            None => {}
            Some(0) => {
                now += [1.0, 2.0, 4.0][((r >> 8) % 3) as usize];
                loads.expire_until(Seconds::new(now));
            }
            Some(1) => {
                let ambient = [40.0, 55.0, 65.0][((r >> 8) % 3) as usize];
                loads.set_chiller(loads.chiller().with_ambient(Celsius::new(ambient)));
            }
            Some(2) => {
                let active = 1 + ((r >> 8) % racks as u64) as usize;
                servers.set_active_servers(active * per_rack);
            }
            Some(_) => {
                // Commit like the kernel, along either verified pick.
                let (classes, picks) = arrival.expect("checked after every step");
                let placed = picks[(r >> 8) as usize % 2];
                let cd = classes[servers.class_of(placed)];
                let end = now.max(servers.free_at(placed).value()) + cd.runtime.value();
                loads.add(servers.rack_of(placed), &cd.state, Seconds::new(end));
                servers.set_free_at(placed, Seconds::new(end));
            }
        }
        assert_fresh_chiller_terms(&loads, &group_of);
        let after = state_list(&loads);
        hit[0] |= after.iter().any(|(_, m)| m.len() > 1);
        hit[1] |= before
            .iter()
            .any(|(key, m)| m.len() > 1 && after.iter().any(|(k, n)| k == key && n[0] == m[1]));

        let d = mix(seed, 1_000_000 + i);
        let heat = [16.0, 32.0, 48.0][(d % 3) as usize];
        let water = [50.0, 60.0, 70.0][((d >> 8) % 3) as usize];
        let runtime = [4.0, 8.0, 16.0][((d >> 16) % 3) as usize];
        let budget = [0.0, 1.0, 4.0, 64.0][((d >> 24) % 4) as usize];
        let classes = [
            (state(heat, water), runtime),
            (state(heat / 2.0, water + 8.0), runtime * 2.0),
        ]
        .map(|(state, runtime)| ClassDemand {
            state,
            runtime: Seconds::new(runtime),
            wait_budget: Seconds::new(budget),
        });
        let demand = JobDemand {
            job: &job,
            classes: &classes,
        };
        let view = FleetView {
            now: Seconds::new(now),
            racks: loads.view_slice(),
            servers: &servers,
            chiller: loads.chiller(),
            index: FleetIndex {
                occupied: loads.occupied_racks(),
                members: loads.state_members(),
                idle_min: loads.idle_group_mins(),
                group_classes: &group_classes,
            },
        };
        let picks = [
            thermal.place(&demand, &view),
            PlannedDispatch.place(&demand, &view),
        ];
        assert_eq!(picks[0], scan_thermal(&demand, &view), "thermal, step {i}");
        assert_eq!(picks[1], scan_planned(&demand, &view), "planned, step {i}");
        assert_eq!(
            CoolestRackFirst.place(&demand, &view),
            scan_coolest(&demand, &view),
            "coolest, step {i}"
        );
        let active = servers.active_racks();
        hit[2] |= after
            .iter()
            .any(|(_, m)| (m[0] as usize) < active && *m.last().unwrap() as usize >= active);
        let &(_, _, rack, class) = &thermal_ranking(&demand, &view)[0];
        let (server, _) = view.earliest_free_of_class(rack, class).unwrap();
        let shared = after
            .iter()
            .any(|(_, m)| m.len() > 1 && m.contains(&(rack as u32)));
        hit[3] |= shared && view.wait_on(server) > demand.class(class).wait_budget;
        arrival = Some((classes, picks));
    }
    hit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// On fleets whose racks share committed states, every indexed pick
    /// equals its full enumeration after any interleaving of adds,
    /// expiries, set-point changes and active-prefix moves, and the index
    /// keeps its contract.
    #[test]
    fn shared_states_rank_like_a_full_enumeration(seed in 0u64..1_000_000, ops in 1u64..120) {
        shared_state_run(seed, ops);
    }
}

/// The shared-state runs really reach every regime the representative
/// argument has to survive.
#[test]
fn shared_state_runs_cover_every_regime() {
    let mut hit = [false; 4];
    for seed in 0..40 {
        let run = shared_state_run(seed, 120);
        for (h, r) in hit.iter_mut().zip(run) {
            *h |= r;
        }
    }
    assert_eq!(hit, [true; 4]);
}
