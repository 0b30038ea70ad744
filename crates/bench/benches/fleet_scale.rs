//! Criterion: the million-job kernel's scale trajectory — fleet replay
//! wall time at 1k/10k/100k servers with proportionally sized job
//! streams, per dispatcher, on a warm physics cache — plus one serving
//! case (thermal-aware dispatch under the autoscaler, with telemetry).
//!
//! The batch points are the same (servers, jobs, dispatcher) points the
//! `bench_kernel` binary measures into `BENCH_kernel.json`; run the
//! binary for the machine-readable trajectory and this bench for
//! criterion's interactive timings. The environment variable
//! `TPS_BENCH_SCALE=smoke` trims the batch grid to the 1k tier and the
//! serving case to a tenth, so CI smoke jobs stay inside their time
//! budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tps_cluster::{
    synthesize_jobs, synthesize_request_jobs, AutoscaleControl, CoolestRackFirst, Fleet,
    FleetConfig, FleetDispatcher, JobMix, OutcomeCache, RoundRobin, TelemetryConfig,
    ThermalAwareDispatch,
};
use tps_units::Seconds;
use tps_workload::{DiurnalDemand, ServingDemand};

/// The pinned scale grid: (servers, jobs). 100k × 1M is the headline
/// million-job point; smoke keeps only the first tier.
const SCALES: &[(usize, usize)] = &[(1_000, 10_000), (10_000, 100_000), (100_000, 1_000_000)];

fn dispatchers() -> Vec<(&'static str, Box<dyn FleetDispatcher>)> {
    vec![
        (
            "round-robin",
            Box::new(RoundRobin::default()) as Box<dyn FleetDispatcher>,
        ),
        ("coolest-rack-first", Box::new(CoolestRackFirst)),
        ("thermal-aware", Box::new(ThermalAwareDispatch::default())),
    ]
}

fn bench_fleet_scale(c: &mut Criterion) {
    let smoke = std::env::var("TPS_BENCH_SCALE").as_deref() == Ok("smoke");
    let scales: &[(usize, usize)] = if smoke { &SCALES[..1] } else { SCALES };
    let mut group = c.benchmark_group("fleet_scale");
    group.sample_size(10);
    for &(servers, jobs) in scales {
        // The CLI's rack shaping: 8 servers per rack past the toy sizes.
        let racks = servers / 8;
        let demand = DiurnalDemand::new(0.7 * 0.2, 0.7, Seconds::new(600.0));
        let stream = synthesize_jobs(jobs, &demand, JobMix::default(), 42);
        let cache = OutcomeCache::new();
        let mut config = FleetConfig::new(racks, servers / racks);
        config.grid_pitch_mm = 3.0;
        let fleet = Fleet::new(config);
        fleet
            .simulate(&stream, &mut RoundRobin::default(), &cache)
            .expect("warm-up run");
        for (name, mut dispatcher) in dispatchers() {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{servers}x{jobs}")),
                &stream,
                |b, stream| b.iter(|| fleet.simulate(stream, dispatcher.as_mut(), &cache).unwrap()),
            );
        }
    }
    group.finish();
}

/// The serving path: open-loop requests at a 0.15 req/s-per-server
/// diurnal peak with flash crowds, thermal-aware dispatch under the
/// autoscaler, telemetry every 5 s. Most racks stay occupied at every
/// event, so the per-arrival ranking and the per-window cooling walk
/// cover nearly the whole fleet.
fn bench_serving(c: &mut Criterion) {
    let smoke = std::env::var("TPS_BENCH_SCALE").as_deref() == Ok("smoke");
    let (servers, requests) = if smoke {
        (1_000, 2_000)
    } else {
        (10_000, 20_000)
    };
    let peak = 0.15 * servers as f64;
    let demand = ServingDemand::new(
        peak * 0.2,
        peak,
        Seconds::new(600.0),
        2.5,
        Seconds::new(60.0),
        Seconds::new(420.0),
        42,
    );
    let stream = synthesize_request_jobs(requests, &demand, Seconds::new(2.0), 42);
    let mut config = FleetConfig::new(servers / 8, 8);
    config.grid_pitch_mm = 3.0;
    config.serving = true;
    let fleet = Fleet::new(config);
    let cache = OutcomeCache::new();
    let telemetry = TelemetryConfig {
        sample_interval: Seconds::new(5.0),
        capacity: TelemetryConfig::default().capacity,
    };
    let run = |stream: &[tps_cluster::Job]| {
        let mut control =
            AutoscaleControl::new(Seconds::new(5.0), 8, 8, 2.0, 0.25, Seconds::new(10.0));
        fleet
            .simulate_with(
                stream,
                &mut ThermalAwareDispatch::default(),
                &mut control,
                Some(&telemetry),
                &cache,
            )
            .expect("serving workloads are feasible")
    };
    run(&stream);
    let mut group = c.benchmark_group("fleet_scale");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("thermal-aware-serving", format!("{servers}x{requests}")),
        &stream,
        |b, stream| b.iter(|| run(stream)),
    );
    group.finish();
}

criterion_group!(benches, bench_fleet_scale, bench_serving);
criterion_main!(benches);
