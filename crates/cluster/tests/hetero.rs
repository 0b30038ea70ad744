//! End-to-end heterogeneous-fleet scenarios: the catalog's determinism
//! guarantees and the class-aware dispatch ordering the CLI and sweep
//! layer rely on.

use tps_cluster::{
    synthesize_jobs, Fleet, FleetCatalog, FleetConfig, JobMix, OutcomeCache, RoundRobin,
    ServerClass, StaticControl, TelemetryConfig, ThermalAwareDispatch,
};
use tps_units::Seconds;
use tps_workload::DiurnalDemand;

/// The shipped mixed-pitch catalog, scaled for test speed: dense at the
/// fleet defaults, sparse on a coarser grid with 35 °C water; one rack of
/// each plus a slot-interleaved rack.
fn mixed_config() -> FleetConfig {
    let mut config = FleetConfig::new(3, 4);
    config.grid_pitch_mm = 3.0;
    config.catalog = FleetCatalog::new(vec![
        ServerClass::new("dense"),
        ServerClass::new("sparse").pitch(3.5).inlet(35.0),
    ])
    .assign(vec![vec![0], vec![1], vec![0, 1]]);
    config
}

fn diurnal_jobs(count: usize, seed: u64) -> Vec<tps_cluster::Job> {
    let demand = DiurnalDemand::new(0.15 * 0.2, 0.15, Seconds::new(600.0));
    synthesize_jobs(count, &demand, JobMix::default(), seed)
}

#[test]
fn mixed_class_trace_is_byte_identical_across_warmup_thread_counts() {
    // The heterogeneity determinism contract: warm-up enumerates
    // (class, bench, qos) triples across however many threads, and the
    // replay — trace CSV included — must not move by a byte.
    let jobs = diurnal_jobs(60, 9);
    let mut csvs = Vec::new();
    for threads in [1, 2, 8] {
        let mut config = mixed_config();
        config.threads = threads;
        let fleet = Fleet::new(config);
        let cache = OutcomeCache::new();
        let telemetry = TelemetryConfig {
            sample_interval: Seconds::new(15.0),
            capacity: 4096,
        };
        let result = fleet
            .simulate_with(
                &jobs,
                &mut ThermalAwareDispatch::default(),
                &mut StaticControl,
                Some(&telemetry),
                &cache,
            )
            .unwrap();
        csvs.push(result.trace.expect("telemetry was on").to_csv());
    }
    assert_eq!(csvs[0], csvs[1]);
    assert_eq!(csvs[1], csvs[2]);
    // Heterogeneous traces carry the per-class columns.
    let header = csvs[0].lines().next().unwrap();
    assert!(header.contains("dense_running,dense_it_w"), "{header}");
    assert!(header.contains("sparse_running,sparse_it_w"), "{header}");
}

#[test]
fn mixed_class_outcomes_are_byte_identical_across_thread_counts() {
    let jobs = diurnal_jobs(40, 7);
    let mut outcomes = Vec::new();
    for threads in [1, 8] {
        let mut config = mixed_config();
        config.threads = threads;
        let fleet = Fleet::new(config);
        let cache = OutcomeCache::new();
        outcomes.push(
            fleet
                .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
                .unwrap(),
        );
    }
    assert_eq!(outcomes[0], outcomes[1]);
    // The mixed rack really hosts both classes.
    assert!(outcomes[0].class_placements.iter().all(|&n| n > 0));
    assert_eq!(
        outcomes[0].class_placements.iter().sum::<usize>(),
        jobs.len()
    );
    assert_eq!(
        outcomes[0].class_it_energy.len(),
        outcomes[0].class_names.len()
    );
}

#[test]
fn thermal_aware_beats_round_robin_on_the_mixed_catalog() {
    // The shipped mixed_pitch_fleet.toml claim, pinned at the API level:
    // class-aware marginal-power ranking cuts cooling energy without
    // costing QoS versus class-blind striping.
    let jobs = diurnal_jobs(120, 42);
    let fleet = Fleet::new(mixed_config());
    let cache = OutcomeCache::new();
    let rr = fleet
        .simulate(&jobs, &mut RoundRobin::default(), &cache)
        .unwrap();
    let ta = fleet
        .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
        .unwrap();
    assert!(
        ta.cooling_energy.value() < rr.cooling_energy.value(),
        "thermal-aware cooling {} should undercut round-robin {}",
        ta.cooling_energy,
        rr.cooling_energy
    );
    assert!(ta.violations <= rr.violations);
    // Per-class accounting reconciles with the totals.
    for out in [&rr, &ta] {
        assert_eq!(out.class_violations.iter().sum::<usize>(), out.violations);
        assert_eq!(out.class_placements.iter().sum::<usize>(), jobs.len());
        let class_it: f64 = out.class_it_energy.iter().map(|e| e.value()).sum();
        // Active energy per class excludes the fleet-wide idle floor.
        assert!(class_it <= out.it_energy.value() + 1e-6);
        assert!(class_it > 0.0);
    }
}

#[test]
fn hundred_thousand_server_shape_stays_deterministic_across_threads() {
    // The kernel's scale structures (SoA server table, occupancy index,
    // event queue, group-representative dispatch) at the 100k-server
    // shape the bench trajectory pins, smoke-sized job stream: outcomes
    // must stay byte-identical across warm-up thread counts. `Debug`
    // prints floats at round-trip precision, so equal strings pin bits.
    let jobs = diurnal_jobs(150, 23);
    let mut outcomes = Vec::new();
    for threads in [1, 2, 8] {
        let mut config = FleetConfig::new(2500, 40);
        config.grid_pitch_mm = 3.0;
        config.threads = threads;
        config.catalog = FleetCatalog::new(vec![
            ServerClass::new("dense"),
            ServerClass::new("sparse").pitch(3.5).inlet(35.0),
        ])
        .assign(
            (0..2500)
                .map(|r| match r % 3 {
                    0 => vec![0],
                    1 => vec![1],
                    _ => vec![0, 1],
                })
                .collect(),
        );
        let fleet = Fleet::new(config);
        let cache = OutcomeCache::new();
        let outcome = fleet
            .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
            .unwrap();
        assert_eq!(outcome.class_placements.iter().sum::<usize>(), jobs.len());
        outcomes.push(format!("{outcome:?}"));
    }
    assert_eq!(outcomes[0], outcomes[1], "1 vs 2 threads");
    assert_eq!(outcomes[0], outcomes[2], "1 vs 8 threads");
}
