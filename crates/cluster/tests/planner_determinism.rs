//! Byte-determinism regression for planner-controlled runs: the outcome
//! and telemetry trace must be identical across warm-up thread counts,
//! for both solver cores —
//! the same invariant `serving.rs` pins for the autoscaler. The planner
//! consults a placement-hint table before the dispatcher; any hidden
//! iteration-order or timing dependence in the re-plan path would show
//! up here as a trace diff. Each case also pins FNV-1a digests of its
//! outcome bits and trace CSV, so a solver change that moves a plan
//! shows here even when it stays deterministic.

use tps_cluster::{
    synthesize_jobs, Fleet, FleetConfig, FleetDispatcher, FleetOutcome, Job, JobMix, OutcomeCache,
    PlanSolver, PlannerControl, TelemetryConfig, ThermalAwareDispatch,
};
use tps_units::Seconds;
use tps_workload::DiurnalDemand;

fn batch_jobs(count: usize, seed: u64) -> Vec<Job> {
    let demand = DiurnalDemand::new(0.1, 0.5, Seconds::new(600.0));
    synthesize_jobs(count, &demand, JobMix::default(), seed)
}

fn config(racks: usize, servers_per_rack: usize, threads: usize) -> FleetConfig {
    let mut config = FleetConfig::new(racks, servers_per_rack);
    config.grid_pitch_mm = 3.0;
    config.threads = threads;
    config
}

fn planner(solver: PlanSolver) -> PlannerControl {
    PlannerControl::new(
        Seconds::new(20.0),
        Seconds::new(120.0),
        1,
        vec![35.0, 45.0, 70.0],
        300,
        solver,
    )
}

/// FNV-1a 64 over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over every float field of a batch outcome as raw bits, then
/// every count, so a plan that moves one placement shows here.
fn outcome_digest(o: &FleetOutcome) -> u64 {
    let floats = [
        o.makespan.value(),
        o.it_energy.value(),
        o.cooling_energy.value(),
        o.mean_wait.value(),
        o.max_wait.value(),
        o.peak_rack_heat.value(),
    ]
    .into_iter()
    .chain(o.class_it_energy.iter().map(|e| e.value()))
    .map(f64::to_bits);
    let counts = [o.violations, o.shed]
        .into_iter()
        .chain(o.class_violations.iter().copied())
        .chain(o.class_placements.iter().copied())
        .map(|c| c as u64);
    floats
        .chain(counts)
        .fold(FNV_OFFSET, |h, x| fnv1a(h, &x.to_le_bytes()))
}

/// Runs `jobs` on a `racks × servers_per_rack` fleet under the planner at
/// one, two and eight warm-up threads, asserts the outcome and trace are
/// byte-identical across them, and returns their digests.
fn run_matrix(
    solver: PlanSolver,
    planned_dispatch: bool,
    (racks, servers_per_rack): (usize, usize),
    jobs: &[Job],
) -> (u64, u64) {
    let telemetry = TelemetryConfig {
        sample_interval: Seconds::new(15.0),
        capacity: 4096,
    };
    let mut outcomes = Vec::new();
    let mut csvs = Vec::new();
    for threads in [1, 2, 8] {
        let fleet = Fleet::new(config(racks, servers_per_rack, threads));
        let cache = OutcomeCache::new();
        let mut control = planner(solver);
        let mut dispatcher: Box<dyn FleetDispatcher> = if planned_dispatch {
            Box::new(ThermalAwareDispatch::planned())
        } else {
            Box::new(ThermalAwareDispatch::default())
        };
        let result = fleet
            .simulate_with(
                jobs,
                dispatcher.as_mut(),
                &mut control,
                Some(&telemetry),
                &cache,
            )
            .unwrap();
        outcomes.push(result.outcome);
        csvs.push(result.trace.expect("telemetry was on").to_csv());
    }
    assert!(
        outcomes.iter().all(|o| o == &outcomes[0]),
        "planner outcome diverged across thread counts"
    );
    assert!(
        csvs.iter().all(|c| c == &csvs[0]),
        "planner trace diverged across thread counts"
    );
    assert!(csvs[0].lines().count() > 3, "{}", csvs[0]);
    (
        outcome_digest(&outcomes[0]),
        fnv1a(FNV_OFFSET, csvs[0].as_bytes()),
    )
}

/// On the 2 × 3 fleet every window holds at most six jobs, and the
/// anneal and planned-dispatch pairings end on these same bits, so they
/// are pinned on [`filled`]'s shape instead.
#[test]
fn lp_planner_is_byte_identical_across_threads() {
    let digests = run_matrix(PlanSolver::Lp, false, (2, 3), &batch_jobs(60, 7));
    assert_eq!(digests, (0x0a2a_f179_3af8_9a80, 0x008c_1652_5317_f07b));
}

/// Windows larger than branch-and-bound's 12-job cap: 64 servers leave
/// room for up to 32 jobs per window, and the diurnal peak puts about
/// 60 arrivals in each 120 s horizon, so most re-plans rest on greedy
/// construction plus descent alone.
#[test]
fn lp_planner_on_windows_beyond_the_branch_and_bound_cap_is_pinned() {
    let digests = run_matrix(PlanSolver::Lp, false, (8, 8), &batch_jobs(240, 11));
    assert_eq!(digests, (0xfb3a_2c9d_f5ce_0960, 0x5376_1faa_2803_daf2));
}

/// The 8 × 4 fleet under the same 240-job stream: with 32 servers a
/// window can run out of free capacity at the diurnal peak and leave
/// arrivals to the dispatcher. Each solver and dispatcher pairing ends
/// on its own bits here (on 8 × 8, planned dispatch still matches
/// thermal-aware), so a change to one of them alone shows.
fn filled(solver: PlanSolver, planned_dispatch: bool) -> (u64, u64) {
    run_matrix(solver, planned_dispatch, (8, 4), &batch_jobs(240, 11))
}

#[test]
fn lp_planner_on_filled_windows_is_pinned() {
    assert_eq!(
        filled(PlanSolver::Lp, false),
        (0xcbfa_63ab_0c2a_bdc6, 0x04e7_33b9_8091_e1ec)
    );
}

#[test]
fn anneal_planner_is_byte_identical_across_threads() {
    assert_eq!(
        filled(PlanSolver::Anneal, false),
        (0xa303_88e0_8e1d_d58e, 0xac89_35d7_22c0_2e4b)
    );
}

#[test]
fn planned_dispatch_under_planner_control_is_byte_identical() {
    assert_eq!(
        filled(PlanSolver::Lp, true),
        (0xf651_676b_f189_4373, 0xc181_865e_3955_e779)
    );
}

/// The planner actually moves the set-point: with candidates below the
/// 70 °C default its trace departs from the static one, while the
/// energy never gets worse (the grid contains the do-nothing point).
#[test]
fn planner_moves_the_setpoint_and_never_loses_to_static() {
    let jobs = batch_jobs(60, 7);
    let cache = OutcomeCache::new();
    let fleet = Fleet::new(config(2, 3, 1));
    let static_outcome = fleet
        .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
        .unwrap();
    let mut control = planner(PlanSolver::Lp);
    let planned = fleet
        .simulate_with(
            &jobs,
            &mut ThermalAwareDispatch::default(),
            &mut control,
            None,
            &cache,
        )
        .unwrap();
    assert!(
        planned.outcome.cooling_energy.value() < static_outcome.cooling_energy.value(),
        "planner never engaged: {} vs {}",
        planned.outcome.cooling_energy.value(),
        static_outcome.cooling_energy.value()
    );
    assert!(planned.outcome.total_energy().value() <= static_outcome.total_energy().value());
    assert_eq!(planned.outcome.violations, static_outcome.violations);
}
