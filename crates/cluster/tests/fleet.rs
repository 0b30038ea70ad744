//! End-to-end fleet scenarios: the headline energy ordering and the
//! determinism guarantees the CLI relies on.

use tps_cluster::{
    demand_pairs, synthesize_jobs, AutoscaleControl, CoolestRackFirst, Fleet, FleetConfig,
    FleetDispatcher, JobMix, LoadSheddingControl, OutcomeCache, RoundRobin, SetpointScheduler,
    StaticControl, TelemetryConfig, ThermalAwareDispatch,
};
use tps_units::{Celsius, Seconds};
use tps_workload::{BurstyDemand, ConstantDemand, DiurnalDemand};

/// The shipped heat-reuse scenario, scaled down to 4 racks × 4 servers.
fn heat_reuse_fleet() -> Fleet {
    let mut config = FleetConfig::new(4, 4);
    config.grid_pitch_mm = 3.0;
    Fleet::new(config)
}

fn diurnal_jobs(count: usize, seed: u64) -> Vec<tps_cluster::Job> {
    let demand = DiurnalDemand::new(0.18 * 0.2, 0.18, Seconds::new(600.0));
    synthesize_jobs(count, &demand, JobMix::default(), seed)
}

#[test]
fn thermal_aware_beats_round_robin_on_the_heat_reuse_scenario() {
    let fleet = heat_reuse_fleet();
    let jobs = diurnal_jobs(120, 42);
    let cache = OutcomeCache::new();
    let rr = fleet
        .simulate(&jobs, &mut RoundRobin::default(), &cache)
        .unwrap();
    let coolest = fleet
        .simulate(&jobs, &mut CoolestRackFirst, &cache)
        .unwrap();
    let ta = fleet
        .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
        .unwrap();

    // The headline: segregating thermally demanding jobs cuts chiller
    // energy, and with it total (IT + cooling) energy.
    assert!(
        ta.cooling_energy.value() < rr.cooling_energy.value() * 0.95,
        "thermal-aware cooling {} should undercut round-robin {}",
        ta.cooling_energy,
        rr.cooling_energy
    );
    assert!(
        ta.total_energy().value() < rr.total_energy().value(),
        "thermal-aware total {} should undercut round-robin {}",
        ta.total_energy(),
        rr.total_energy()
    );
    // Load balancing by heat sits between the two.
    assert!(ta.total_energy().value() <= coolest.total_energy().value() + 1e-9);
    // Same jobs, same servers: IT energy only drifts through idle time.
    let it_ratio = ta.it_energy / rr.it_energy;
    assert!((0.98..=1.02).contains(&it_ratio), "IT drifted: {it_ratio}");
    // QoS: the wait-budget-aware dispatcher violates no more than striping.
    assert!(ta.violations <= rr.violations);
    // The scenario is meaningfully loaded: PUE above free-cooling floor.
    let pue = rr.pue().expect("round-robin ran jobs");
    assert!(pue > 1.05, "round-robin PUE {pue}");
}

#[test]
fn outcomes_are_independent_of_warmup_thread_count() {
    let jobs = diurnal_jobs(40, 7);
    let mut outcomes = Vec::new();
    for threads in [1, 8] {
        let mut config = FleetConfig::new(2, 3);
        config.grid_pitch_mm = 3.0;
        config.threads = threads;
        let fleet = Fleet::new(config);
        let cache = OutcomeCache::new();
        outcomes.push(
            fleet
                .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
                .unwrap(),
        );
    }
    // Byte-identical results: thread count only parallelizes the warm-up,
    // whose values are pure functions of their key.
    assert_eq!(outcomes[0], outcomes[1]);
}

#[test]
fn bursty_demand_runs_end_to_end() {
    let demand = BurstyDemand::new(0.05, 0.6, Seconds::new(60.0), Seconds::new(240.0), 11);
    let jobs = synthesize_jobs(60, &demand, JobMix::default(), 11);
    let mut config = FleetConfig::new(2, 4);
    config.grid_pitch_mm = 3.0;
    let fleet = Fleet::new(config);
    let cache = OutcomeCache::new();
    let out = fleet
        .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
        .unwrap();
    // Every job is placed (the kernel asserts each lands inside the fleet).
    assert_eq!(out.class_placements, vec![60]);
    assert!(out.it_energy.value() > 0.0);
    assert!(out.makespan.value() > 0.0);
}

/// The kernel counters `tps fleet --servers 64 --jobs 2000 --stats`
/// prints, on its shape: an 8 × 8 fleet on the default 2 mm grid, 2000
/// diurnal jobs at 0.7 jobs/s peak, seed 42, each dispatcher on one
/// published cache.
#[test]
fn kernel_counters_match_the_cli_stats_run() {
    let fleet = Fleet::new(FleetConfig::new(8, 8));
    let demand = DiurnalDemand::new(0.7 * 0.2, 0.7, Seconds::new(600.0));
    let jobs = synthesize_jobs(2000, &demand, JobMix::default(), 42);
    let pairs = demand_pairs(&jobs);
    assert_eq!(pairs.len(), 39);
    let cache = OutcomeCache::new();
    fleet.warm(&pairs, &cache, fleet.config().threads).unwrap();
    cache.publish();
    let classes = fleet.config().catalog.classes().len();
    let telemetry = TelemetryConfig::default();
    let dispatchers: [fn() -> Box<dyn FleetDispatcher>; 3] = [
        || Box::new(RoundRobin::default()),
        || Box::new(CoolestRackFirst),
        || Box::new(ThermalAwareDispatch::default()),
    ];
    // Peak event-queue depth of the traced runs, per dispatcher, as
    // `--stats --trace-out DIR` prints it on this shape.
    let traced_depth = [84, 69, 68];
    for (dispatcher, depth) in dispatchers.into_iter().zip(traced_depth) {
        // Open loop: every event is an arrival, read off the sorted
        // stream rather than queued, and nothing else is scheduled, so
        // the event queue stays empty.
        let open = fleet
            .simulate_with(
                &jobs,
                dispatcher().as_mut(),
                &mut StaticControl,
                None,
                &cache,
            )
            .unwrap()
            .stats;
        assert_eq!(open.events, 2000);
        assert_eq!(open.peak_queue_depth, 0);
        assert_eq!(open.arena_high_water, 0);
        // Every demand state comes off the published table: no solve and
        // no lock inside the run.
        assert_eq!(open.table_hits, pairs.len() * classes);
        assert_eq!(open.miss_solves, 0);
        assert_eq!(open.lock_acquisitions, 0);

        // Telemetry closes the loop: each placement also has a
        // `JobStart` and a `JobCompletion`, and samples fire every 30 s
        // from t = 0 up to the first instant at or past the makespan.
        // Every one counts as an event, the starts folded in place at
        // their own dispatch instant too.
        let traced = fleet
            .simulate_with(
                &jobs,
                dispatcher().as_mut(),
                &mut StaticControl,
                Some(&telemetry),
                &cache,
            )
            .unwrap();
        let placements: usize = traced.outcome.class_placements.iter().sum();
        let span = traced.outcome.makespan / telemetry.sample_interval;
        let samples = span.ceil() as usize + 1;
        let stats = traced.stats;
        assert_eq!(stats.events as usize, jobs.len() + 2 * placements + samples);
        assert_eq!(stats.events, 6169);
        // The queue holds each committed placement's completion, each
        // start still waiting behind a busy server, and the next sample.
        assert_eq!(stats.peak_queue_depth, depth);
        assert_eq!(stats.arena_high_water, depth);
    }
}

/// The PR-2 heat-reuse dispatcher table, bit for bit: these eight-byte
/// patterns were captured from the pre-kernel simulator (the monolithic
/// arrival loop) on the shipped heat-reuse scenario. The event kernel
/// under `StaticControl` must reproduce every one of them exactly — a
/// refactor that perturbs even the last mantissa bit of any energy sum,
/// wait statistic or makespan fails here.
#[test]
fn static_control_reproduces_the_pre_kernel_heat_reuse_table_bit_for_bit() {
    // (dispatcher, it_energy, cooling_energy, violations, makespan,
    //  mean_wait, max_wait, peak_rack_heat) — f64s as raw bits.
    type GoldenRow = (&'static str, u64, u64, usize, u64, u64, u64, u64);
    const GOLDEN: [GoldenRow; 3] = [
        (
            "round-robin",
            0x411a6e67f13ee294,
            0x40e04a2fc1efee66,
            17,
            0x40966f404dc0f570,
            0x40187afc832dbc2d,
            0x4057fb67a570b2fc,
            0x406aed4bb2b5d3aa,
        ),
        (
            "coolest-rack-first",
            0x411a6e67f13ee29a,
            0x40de2e0215b9b448,
            8,
            0x40966f404dc0f570,
            0x40017c4b0482ad2d,
            0x404774fc68054d50,
            0x4066238f925c41be,
        ),
        (
            "thermal-aware",
            0x411a6e67f13ee294,
            0x40db498d234b79ed,
            3,
            0x40966f404dc0f570,
            0x3fee0a0f56d3349a,
            0x4037cd6724651080,
            0x406b05631dd45e63,
        ),
    ];
    let fleet = heat_reuse_fleet();
    let jobs = diurnal_jobs(120, 42);
    let cache = OutcomeCache::new();
    let mut dispatchers: Vec<Box<dyn tps_cluster::FleetDispatcher>> = vec![
        Box::new(RoundRobin::default()),
        Box::new(CoolestRackFirst),
        Box::new(ThermalAwareDispatch::default()),
    ];
    for (d, golden) in dispatchers.iter_mut().zip(GOLDEN) {
        let out = fleet.simulate(&jobs, d.as_mut(), &cache).unwrap();
        assert_eq!(out.dispatcher, golden.0);
        assert_eq!(out.control, "static");
        assert_eq!(
            out.it_energy.value().to_bits(),
            golden.1,
            "{}: IT energy drifted to {}",
            golden.0,
            out.it_energy
        );
        assert_eq!(
            out.cooling_energy.value().to_bits(),
            golden.2,
            "{}: cooling energy drifted to {}",
            golden.0,
            out.cooling_energy
        );
        assert_eq!(out.violations, golden.3, "{}: violations", golden.0);
        assert_eq!(out.makespan.value().to_bits(), golden.4, "{}", golden.0);
        assert_eq!(out.mean_wait.value().to_bits(), golden.5, "{}", golden.0);
        assert_eq!(out.max_wait.value().to_bits(), golden.6, "{}", golden.0);
        assert_eq!(
            out.peak_rack_heat.value().to_bits(),
            golden.7,
            "{}",
            golden.0
        );
    }
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Closed-loop batch traces, pinned byte for byte: every row reads the
/// running layer (per-rack heat and water, IT and cooling power, running
/// and queued counts), and the last row is the drained fleet at the
/// makespan. The digests were taken from the traces of the kernel that
/// settled its running layer from two private heaps, before it folded at
/// its own `JobStart`/`JobCompletion` events.
#[test]
fn closed_loop_batch_traces_match_their_golden_digests() {
    // The CI trace smoke: `tps fleet --servers 8 --jobs 32 --control
    // setpoint --setpoints 0:70,120:45,300:70 --trace-out DIR`, one
    // trace per dispatcher.
    const SETPOINT_GOLDEN: [(&str, u64); 3] = [
        ("round-robin", 0x7e20d976514273b1),
        ("coolest-rack-first", 0xc084e08f38f7f763),
        ("thermal-aware", 0x975763da18f7c586),
    ];
    let fleet = Fleet::new(FleetConfig::new(2, 4));
    let demand = DiurnalDemand::new(0.7 * 0.2, 0.7, Seconds::new(600.0));
    let jobs = synthesize_jobs(32, &demand, JobMix::default(), 42);
    let cache = OutcomeCache::new();
    let mut dispatchers: Vec<Box<dyn FleetDispatcher>> = vec![
        Box::new(RoundRobin::default()),
        Box::new(CoolestRackFirst),
        Box::new(ThermalAwareDispatch::default()),
    ];
    for (d, (name, golden)) in dispatchers.iter_mut().zip(SETPOINT_GOLDEN) {
        let mut control = SetpointScheduler::new(vec![
            (Seconds::ZERO, Celsius::new(70.0)),
            (Seconds::new(120.0), Celsius::new(45.0)),
            (Seconds::new(300.0), Celsius::new(70.0)),
        ]);
        let telemetry = TelemetryConfig::default();
        let result = fleet
            .simulate_with(&jobs, d.as_mut(), &mut control, Some(&telemetry), &cache)
            .unwrap();
        let csv = result.trace.expect("telemetry was on").to_csv();
        assert_eq!(fnv1a(csv.as_bytes()), golden, "{name}:\n{csv}");
    }

    // An overloaded rack under hysteretic load shedding, sampled every
    // 5 s: the trace carries the shed count and ends on the drained row.
    let mut config = FleetConfig::new(1, 2);
    config.grid_pitch_mm = 3.0;
    let fleet = Fleet::new(config);
    let jobs = synthesize_jobs(60, &ConstantDemand::new(3.0), JobMix::default(), 5);
    let mut control = LoadSheddingControl::new(Seconds::new(5.0), 6, 2);
    let telemetry = TelemetryConfig {
        sample_interval: Seconds::new(5.0),
        capacity: 1024,
    };
    let result = fleet
        .simulate_with(
            &jobs,
            &mut RoundRobin::default(),
            &mut control,
            Some(&telemetry),
            &OutcomeCache::new(),
        )
        .unwrap();
    assert!(result.outcome.shed > 0, "overload never triggered shedding");
    let csv = result.trace.expect("telemetry was on").to_csv();
    assert_eq!(
        fnv1a(csv.as_bytes()),
        0x1ca121a22a0d8e9e,
        "shedding:\n{csv}"
    );
}

/// A hand-built stream on 3 racks × 2 servers whose boundaries collide
/// on purpose: integer arrivals with equal `OneX` runtimes (the native
/// configuration, so runtime = service), whose ends tie across racks and
/// land on later arrivals, set-point instants, ticks and samples;
/// `service: 0` jobs; bursts deeper than the fleet, so starts queue, some
/// past the last arrival; and distinct benchmarks ending at one instant
/// on racks committed out of rack order while another job runs on, so
/// the fleet's float sums depend on fold order.
fn colliding_jobs() -> Vec<tps_cluster::Job> {
    use tps_workload::{Benchmark as B, QosClass as Q};
    let rows: [(f64, B, Q, f64); 28] = [
        (0.0, B::X264, Q::OneX, 10.0),
        (0.0, B::X264, Q::OneX, 10.0),
        (0.0, B::Canneal, Q::ThreeX, 7.0),
        (0.0, B::Ferret, Q::TwoX, 0.0),
        (0.0, B::X264, Q::OneX, 10.0),
        (0.0, B::Vips, Q::OneX, 10.0),
        (0.0, B::X264, Q::OneX, 10.0),
        (0.0, B::X264, Q::OneX, 5.0),
        (5.0, B::Canneal, Q::ThreeX, 3.0),
        (10.0, B::X264, Q::OneX, 5.0),
        (10.0, B::Ferret, Q::TwoX, 0.0),
        (10.0, B::Vips, Q::OneX, 5.0),
        (10.0, B::X264, Q::OneX, 5.0),
        (15.0, B::X264, Q::OneX, 5.0),
        (15.0, B::Canneal, Q::ThreeX, 3.0),
        (20.0, B::Blackscholes, Q::OneX, 10.0),
        (20.0, B::Vips, Q::OneX, 10.0),
        (20.0, B::Bodytrack, Q::OneX, 10.0),
        (20.0, B::Ferret, Q::TwoX, 4.0),
        (20.0, B::Dedup, Q::OneX, 10.0),
        (20.0, B::Vips, Q::OneX, 20.0),
        (25.0, B::Ferret, Q::TwoX, 0.0),
        (30.0, B::X264, Q::OneX, 4.0),
        (30.0, B::Vips, Q::OneX, 4.0),
        (30.0, B::X264, Q::OneX, 0.0),
        (30.0, B::Canneal, Q::ThreeX, 3.0),
        (30.0, B::X264, Q::OneX, 6.0),
        (30.0, B::Vips, Q::OneX, 4.0),
    ];
    rows.iter()
        .enumerate()
        .map(|(id, &(arrival, bench, qos, service))| tps_cluster::Job {
            id,
            bench,
            qos,
            arrival: Seconds::new(arrival),
            service: Seconds::new(service),
        })
        .collect()
}

/// The colliding stream's outcomes and traces, pinned byte for byte:
/// open loop, closed loop (a set-point program plus telemetry, every
/// instant on the stream's integer grid) and an autoscaled serving run.
/// Each digest is FNV-1a over the outcome's `Debug` text (floats at
/// round-trip precision) or the trace CSV. The digests were taken from
/// the kernel that ordered every placement boundary three times: its
/// event queue held every arrival, start and completion, the committed
/// layer's expiry heap its own copy of each end, and the energy
/// integrator a third copy of each start and end. The planned
/// dispatcher's, whose wait budgets send it down the sorted slow path
/// here, were taken from its full `(rack, class)` enumeration.
#[test]
fn colliding_boundaries_replay_their_pinned_digests() {
    // Round-robin, coolest-rack-first, thermal-aware, planned.
    const OPEN: [u64; 4] = [
        0x8a2f3a7788ce68fb,
        0x20e2aecb9d0fcaea,
        0x87e7d23ec4e531b2,
        0x863ef2363e3e876c,
    ];
    // (outcome, trace CSV) per dispatcher.
    const CLOSED: [(u64, u64); 4] = [
        (0x8314235f6ae916fd, 0xeb97ea5db797601e),
        (0xb89aea64ccacd03f, 0x3f0deddef84c2275),
        (0x5ae083a5ed1bf92f, 0x486463e981243ad4),
        (0xcc8def20f118c167, 0x1d599dfd6f49a905),
    ];
    const SERVING: (u64, u64) = (0x17c2ef98ea2891b0, 0xbac355ca37836d0a);
    let jobs = colliding_jobs();
    let mut config = FleetConfig::new(3, 2);
    config.grid_pitch_mm = 3.0;
    let fleet = Fleet::new(config.clone());
    let cache = OutcomeCache::new();
    let dispatchers: [fn() -> Box<dyn FleetDispatcher>; 4] = [
        || Box::new(RoundRobin::default()),
        || Box::new(CoolestRackFirst),
        || Box::new(ThermalAwareDispatch::default()),
        || Box::new(ThermalAwareDispatch::planned()),
    ];
    let telemetry = TelemetryConfig {
        sample_interval: Seconds::new(5.0),
        capacity: 1024,
    };
    let (mut open, mut closed) = ([0; 4], [(0, 0); 4]);
    for (d, (open, closed)) in dispatchers.iter().zip(open.iter_mut().zip(&mut closed)) {
        let out = fleet.simulate(&jobs, d().as_mut(), &cache).unwrap();
        assert_eq!(out.class_placements, vec![jobs.len()]);
        assert!(out.max_wait.value() > 0.0, "no start queued");
        *open = fnv1a(format!("{out:?}").as_bytes());

        let mut control = SetpointScheduler::new(vec![
            (Seconds::ZERO, Celsius::new(70.0)),
            (Seconds::new(10.0), Celsius::new(45.0)),
            (Seconds::new(15.0), Celsius::new(60.0)),
            (Seconds::new(20.0), Celsius::new(70.0)),
            (Seconds::new(30.0), Celsius::new(45.0)),
        ]);
        let result = fleet
            .simulate_with(&jobs, d().as_mut(), &mut control, Some(&telemetry), &cache)
            .unwrap();
        let csv = result.trace.expect("telemetry was on").to_csv();
        *closed = (
            fnv1a(format!("{:?}", result.outcome).as_bytes()),
            fnv1a(csv.as_bytes()),
        );
    }

    config.serving = true;
    let fleet = Fleet::new(config);
    let mut control = AutoscaleControl::new(Seconds::new(5.0), 2, 2, 0.5, 0.1, Seconds::new(8.0));
    let result = fleet
        .simulate_with(
            &jobs,
            &mut ThermalAwareDispatch::default(),
            &mut control,
            Some(&telemetry),
            &cache,
        )
        .unwrap();
    assert!(result.outcome.serving.is_some());
    let csv = result.trace.expect("telemetry was on").to_csv();
    let serving = (
        fnv1a(format!("{:?}", result.outcome).as_bytes()),
        fnv1a(csv.as_bytes()),
    );
    assert_eq!(
        (open, closed, serving),
        (OPEN, CLOSED, SERVING),
        "{:#x?}",
        (open, closed, serving)
    );
}

#[test]
fn trace_csv_is_byte_identical_across_warmup_thread_counts() {
    let jobs = diurnal_jobs(60, 9);
    let mut csvs = Vec::new();
    for threads in [1, 8] {
        let mut config = FleetConfig::new(2, 3);
        config.grid_pitch_mm = 3.0;
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
    // The trace is a real time series: header plus multiple samples, the
    // last of which is the drained fleet at the makespan.
    assert!(csvs[0].lines().count() > 3, "{}", csvs[0]);
    let last = csvs[0].lines().last().unwrap();
    let fields: Vec<&str> = last.split(',').collect();
    assert_eq!(fields[2], "0", "queued at makespan: {last}");
    assert_eq!(fields[3], "0", "running at makespan: {last}");
}

#[test]
fn setpoint_scheduler_cuts_cooling_on_the_heat_reuse_scenario() {
    let fleet = heat_reuse_fleet();
    let jobs = diurnal_jobs(80, 21);
    let cache = OutcomeCache::new();
    let stat = fleet
        .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
        .unwrap();
    // Drop the heat-reuse loop from 70 °C to 45 °C for the middle of the
    // run: most supplies then free-cool, trading reuse-grade heat for
    // chiller electricity.
    let t1 = stat.makespan * 0.25;
    let t2 = stat.makespan * 0.75;
    let mut sched = SetpointScheduler::new(vec![
        (Seconds::new(t1.value()), Celsius::new(45.0)),
        (Seconds::new(t2.value()), Celsius::new(70.0)),
    ]);
    let ctrl = fleet
        .simulate_with(
            &jobs,
            &mut ThermalAwareDispatch::default(),
            &mut sched,
            None,
            &cache,
        )
        .unwrap()
        .outcome;
    assert!(
        ctrl.cooling_energy.value() < stat.cooling_energy.value(),
        "scheduled {} vs static {}",
        ctrl.cooling_energy,
        stat.cooling_energy
    );
    assert_eq!(ctrl.class_placements, vec![jobs.len()]);
}

#[test]
fn telemetry_fan_out_is_byte_identical_across_thread_counts() {
    // 1024 one-server racks: the smallest fleet on which each telemetry
    // sample fans its per-rack cooling pass out to worker threads. Under
    // every dispatcher, with a set-point program moving the chiller, the
    // outcome and trace CSV at 2 and 8 threads must match the sequential
    // pass byte for byte. `Debug` on the outcome prints floats at
    // round-trip precision, so equal strings pin the bit patterns.
    let jobs = diurnal_jobs(300, 5);
    let cache = OutcomeCache::new();
    for disp in 0..3usize {
        let run = |threads: usize| {
            let mut config = FleetConfig::new(1024, 1);
            config.grid_pitch_mm = 3.0;
            config.threads = threads;
            let fleet = Fleet::new(config);
            let telemetry = TelemetryConfig {
                sample_interval: Seconds::new(15.0),
                capacity: 4096,
            };
            let mut control = SetpointScheduler::new(vec![
                (Seconds::new(600.0), Celsius::new(45.0)),
                (Seconds::new(1800.0), Celsius::new(70.0)),
            ]);
            let mut dispatcher: Box<dyn tps_cluster::FleetDispatcher> = match disp {
                0 => Box::new(RoundRobin::default()),
                1 => Box::new(CoolestRackFirst),
                _ => Box::new(ThermalAwareDispatch::default()),
            };
            let result = fleet
                .simulate_with(
                    &jobs,
                    dispatcher.as_mut(),
                    &mut control,
                    Some(&telemetry),
                    &cache,
                )
                .unwrap();
            (
                format!("{:?}", result.outcome),
                result.trace.expect("telemetry was on").to_csv(),
            )
        };
        let (ref_outcome, ref_csv) = run(1);
        assert!(ref_csv.lines().count() > 3, "{ref_csv}");
        for threads in [2usize, 8] {
            let (outcome, csv) = run(threads);
            assert_eq!(
                outcome, ref_outcome,
                "outcome diverged: dispatcher {disp}, {threads} threads"
            );
            assert_eq!(
                csv, ref_csv,
                "trace diverged: dispatcher {disp}, {threads} threads"
            );
        }
    }
}
