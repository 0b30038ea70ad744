//! Fleet-scale scenario: a diurnal job stream across 8 racks × 8 servers
//! feeding a 70 °C heat-recovery loop.
//!
//! Sec. V's rack constraint — all thermosyphons share one chiller water
//! temperature — makes placement a fleet-wide energy decision: one
//! thermally demanding 1× job forces its whole rack's heat through the
//! heat pump. The thermal-aware dispatcher concentrates such jobs so the
//! remaining racks exchange heat directly with the reuse loop.
//!
//! ```sh
//! cargo run --release --example fleet
//! ```

use tps::cluster::{
    synthesize_jobs, CoolestRackFirst, Fleet, FleetConfig, FleetDispatcher, JobMix, OutcomeCache,
    RoundRobin, ThermalAwareDispatch,
};
use tps::units::Seconds;
use tps::workload::DiurnalDemand;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 500 jobs over a day-like cycle: trough 0.14 jobs/s, peak 0.7 jobs/s.
    let demand = DiurnalDemand::new(0.14, 0.7, Seconds::new(600.0));
    let jobs = synthesize_jobs(500, &demand, JobMix::default(), 42);
    let fleet = Fleet::new(FleetConfig::new(8, 8));
    println!(
        "fleet: 8 racks × 8 servers, {} jobs, {} distinct (bench, qos) pairs\n",
        jobs.len(),
        {
            let mut pairs: Vec<_> = jobs.iter().map(|j| (j.bench, j.qos)).collect();
            pairs.sort();
            pairs.dedup();
            pairs.len()
        }
    );

    let cache = OutcomeCache::new();
    let mut rows = Vec::new();
    let dispatchers: Vec<Box<dyn FleetDispatcher>> = vec![
        Box::new(RoundRobin::default()),
        Box::new(CoolestRackFirst),
        Box::new(ThermalAwareDispatch::default()),
    ];
    println!(
        "{:<20} {:>8} {:>9} {:>7} {:>6} {:>11}",
        "dispatcher", "IT kWh", "cool kWh", "PUE", "viol", "peak rack W"
    );
    for mut d in dispatchers {
        let out = fleet.simulate(&jobs, d.as_mut(), &cache)?;
        println!(
            "{:<20} {:>8.3} {:>9.3} {:>7.3} {:>6} {:>11.0}",
            out.dispatcher,
            out.it_energy.to_kwh(),
            out.cooling_energy.to_kwh(),
            out.pue().expect("the jobs ran"),
            out.violations,
            out.peak_rack_heat.value()
        );
        rows.push(out);
    }

    let (rr, ta) = (&rows[0], &rows[2]);
    println!(
        "\nper-server physics: {} coupled solves for {} placements ({} cache replays)",
        cache.solves(),
        3 * jobs.len(),
        cache.hits()
    );
    println!(
        "thermal-aware saves {:.1} % cooling energy and {:.1} % total energy vs round-robin,",
        100.0 * (1.0 - ta.cooling_energy / rr.cooling_energy),
        100.0 * (1.0 - ta.total_energy() / rr.total_energy())
    );
    println!(
        "with {} QoS violations instead of {} — the per-server mapping result of the paper,\n\
         replayed at rack granularity against the shared-water-loop constraint.",
        ta.violations, rr.violations
    );
    Ok(())
}
