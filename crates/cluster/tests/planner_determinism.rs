//! Byte-determinism regression for planner-controlled runs: the outcome
//! and telemetry trace must be identical across warm-up thread counts,
//! for both solver cores —
//! the same invariant `serving.rs` pins for the autoscaler. The planner
//! consults a placement-hint table before the dispatcher; any hidden
//! iteration-order or timing dependence in the re-plan path would show
//! up here as a trace diff.

use tps_cluster::{
    synthesize_jobs, Fleet, FleetConfig, FleetDispatcher, Job, JobMix, OutcomeCache, PlanSolver,
    PlannedDispatch, PlannerControl, TelemetryConfig, ThermalAwareDispatch,
};
use tps_units::Seconds;
use tps_workload::DiurnalDemand;

fn batch_jobs(count: usize, seed: u64) -> Vec<Job> {
    let demand = DiurnalDemand::new(0.1, 0.5, Seconds::new(600.0));
    synthesize_jobs(count, &demand, JobMix::default(), seed)
}

fn config(threads: usize) -> FleetConfig {
    let mut config = FleetConfig::new(2, 3);
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

fn run_matrix(solver: PlanSolver, planned_dispatch: bool) {
    let jobs = batch_jobs(60, 7);
    let telemetry = TelemetryConfig {
        sample_interval: Seconds::new(15.0),
        capacity: 4096,
    };
    let mut outcomes = Vec::new();
    let mut csvs = Vec::new();
    for threads in [1, 2, 8] {
        let fleet = Fleet::new(config(threads));
        let cache = OutcomeCache::new();
        let mut control = planner(solver);
        let mut dispatcher: Box<dyn FleetDispatcher> = if planned_dispatch {
            Box::new(PlannedDispatch)
        } else {
            Box::new(ThermalAwareDispatch::default())
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
}

#[test]
fn lp_planner_is_byte_identical_across_threads() {
    run_matrix(PlanSolver::Lp, false);
}

#[test]
fn anneal_planner_is_byte_identical_across_threads() {
    run_matrix(PlanSolver::Anneal, false);
}

#[test]
fn planned_dispatch_under_planner_control_is_byte_identical() {
    run_matrix(PlanSolver::Lp, true);
}

/// The planner actually moves the set-point: with candidates below the
/// 70 °C default its trace departs from the static one, while the
/// energy never gets worse (the grid contains the do-nothing point).
#[test]
fn planner_moves_the_setpoint_and_never_loses_to_static() {
    let jobs = batch_jobs(60, 7);
    let cache = OutcomeCache::new();
    let fleet = Fleet::new(config(1));
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
