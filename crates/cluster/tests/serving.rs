//! End-to-end serving-mode scenarios: request-stream determinism across
//! warm-up thread counts, the autoscale energy win
//! under the p99 SLO, and the batch-mode emission guarantees with the
//! serving machinery compiled in.

use tps_cluster::{
    synthesize_request_jobs, AutoscaleControl, Fleet, FleetConfig, OutcomeCache, StaticControl,
    TelemetryConfig, ThermalAwareDispatch,
};
use tps_units::Seconds;
use tps_workload::ServingDemand;

/// A 10-minute diurnal request cycle peaking at `peak` req/s with 2.5×
/// flash crowds, 2 s mean service time.
fn serving_jobs(count: usize, peak: f64, seed: u64) -> Vec<tps_cluster::Job> {
    let demand = ServingDemand::new(
        peak * 0.3,
        peak,
        Seconds::new(600.0),
        2.5,
        Seconds::new(60.0),
        Seconds::new(420.0),
        seed,
    );
    synthesize_request_jobs(count, &demand, Seconds::new(2.0), seed)
}

/// 2 racks × 3 servers in serving mode on a coarse grid.
fn serving_config(threads: usize) -> FleetConfig {
    let mut config = FleetConfig::new(2, 3);
    config.grid_pitch_mm = 3.0;
    config.threads = threads;
    config.serving = true;
    config
}

/// One-rack steps against an 8 s p99 SLO.
fn autoscaler() -> AutoscaleControl {
    AutoscaleControl::new(Seconds::new(10.0), 3, 3, 0.5, 0.1, Seconds::new(8.0))
}

#[test]
fn serving_trace_is_byte_identical_across_threads() {
    let jobs = serving_jobs(80, 1.0, 9);
    let telemetry = TelemetryConfig {
        sample_interval: Seconds::new(15.0),
        capacity: 4096,
    };
    let mut csvs = Vec::new();
    for threads in [1, 2, 8] {
        let fleet = Fleet::new(serving_config(threads));
        let cache = OutcomeCache::new();
        let mut control = autoscaler();
        let mut dispatcher = ThermalAwareDispatch::default();
        let result = fleet
            .simulate_with(
                &jobs,
                &mut dispatcher,
                &mut control,
                Some(&telemetry),
                &cache,
            )
            .unwrap();
        csvs.push(result.trace.expect("telemetry was on").to_csv());
    }
    assert!(
        csvs.iter().all(|c| c == &csvs[0]),
        "serving trace diverged across thread counts"
    );
    // Serving mode appends the latency/capacity columns to the trace.
    let header = csvs[0].lines().next().unwrap();
    assert!(
        header.ends_with("active_servers,lat_p50_s,lat_p95_s,lat_p99_s"),
        "{header}"
    );
    assert!(csvs[0].lines().count() > 3, "{}", csvs[0]);
}

#[test]
fn autoscale_undercuts_static_provisioning_within_the_slo() {
    let jobs = serving_jobs(120, 1.0, 42);
    let cache = OutcomeCache::new();
    let fleet = Fleet::new(serving_config(1));
    let stat = fleet
        .simulate_with(
            &jobs,
            &mut ThermalAwareDispatch::default(),
            &mut StaticControl,
            None,
            &cache,
        )
        .unwrap()
        .outcome;
    let mut control = autoscaler();
    let slo = control.p99_slo();
    let auto = fleet
        .simulate_with(
            &jobs,
            &mut ThermalAwareDispatch::default(),
            &mut control,
            None,
            &cache,
        )
        .unwrap()
        .outcome;
    let s_stat = stat.serving.as_ref().expect("serving outcome");
    let s_auto = auto.serving.as_ref().expect("serving outcome");
    assert_eq!(s_stat.requests, jobs.len());
    assert_eq!(s_auto.requests, jobs.len());
    // Static control never resizes the fleet.
    assert_eq!(s_stat.mean_active_servers, 6.0);
    assert_eq!(
        (s_stat.min_active_servers, s_stat.max_active_servers),
        (6, 6)
    );
    // The autoscaler parks idle racks and still meets the latency SLO.
    assert!(
        s_auto.mean_active_servers < s_stat.mean_active_servers,
        "autoscaler never shrank: mean active {}",
        s_auto.mean_active_servers
    );
    assert!(
        s_auto.latency_p99.value() <= slo.value(),
        "p99 {} breaches the {} SLO",
        s_auto.latency_p99,
        slo
    );
    assert!(
        auto.total_energy().value() < stat.total_energy().value(),
        "autoscale {} vs static {}",
        auto.total_energy(),
        stat.total_energy()
    );
}

#[test]
fn batch_mode_emits_no_serving_columns_with_serving_compiled_in() {
    let jobs = serving_jobs(40, 1.0, 7);
    let mut config = serving_config(1);
    config.serving = false;
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
    assert!(result.outcome.serving.is_none());
    let csv = result.trace.expect("telemetry was on").to_csv();
    let header = csv.lines().next().unwrap();
    assert!(
        !header.contains("active_servers") && !header.contains("lat_p50_s"),
        "batch trace grew serving columns: {header}"
    );
}
