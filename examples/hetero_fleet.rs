//! Heterogeneous fleet: two server classes under one 70 °C heat-recovery
//! loop, thermal-aware placement vs round-robin.
//!
//! The catalog layer lets racks mix hardware bins: here a `dense` class at
//! the paper design point and a de-rated `sparse` class fed with 35 °C
//! water on a coarser thermal grid. The same job leaves less case margin
//! on the sparse bin, so it demands colder rack supply there — placement
//! now picks a *class*, not just a rack, and the thermal-aware dispatcher
//! ranks `(rack, class)` slots by marginal chiller power.
//!
//! ```sh
//! cargo run --release --example hetero_fleet
//! ```

use tps::cluster::{
    synthesize_jobs, Fleet, FleetCatalog, FleetConfig, FleetDispatcher, JobMix, OutcomeCache,
    RoundRobin, ServerClass, ThermalAwareDispatch,
};
use tps::units::Seconds;
use tps::workload::DiurnalDemand;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let demand = DiurnalDemand::new(0.04, 0.2, Seconds::new(600.0));
    let jobs = synthesize_jobs(160, &demand, JobMix::default(), 42);

    // 4 racks × 4 servers: racks 0–1 dense, rack 2 sparse, rack 3 mixed
    // slot by slot (the same catalog scenarios/mixed_pitch_fleet.toml
    // declares via [[server_class]]).
    let mut config = FleetConfig::new(4, 4);
    config.grid_pitch_mm = 3.0;
    config.catalog = FleetCatalog::new(vec![
        ServerClass::new("dense"),
        ServerClass::new("sparse").pitch(3.5).inlet(35.0),
    ])
    .assign(vec![vec![0], vec![0], vec![1], vec![0, 1]]);
    let fleet = Fleet::new(config);
    println!(
        "fleet: 4 racks × 4 servers, classes per slot: {:?}\n",
        fleet.server_classes()
    );

    let cache = OutcomeCache::new();
    let mut rows = Vec::new();
    let dispatchers: Vec<Box<dyn FleetDispatcher>> = vec![
        Box::new(RoundRobin::default()),
        Box::new(ThermalAwareDispatch::default()),
    ];
    println!(
        "{:<20} {:>8} {:>9} {:>7} {:>6}   per-class jobs/violations",
        "dispatcher", "IT kWh", "cool kWh", "PUE", "viol"
    );
    for mut d in dispatchers {
        let out = fleet.simulate(&jobs, d.as_mut(), &cache)?;
        let per_class: Vec<String> = out
            .class_names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                format!(
                    "{n} {}/{}",
                    out.class_placements[i], out.class_violations[i]
                )
            })
            .collect();
        println!(
            "{:<20} {:>8.3} {:>9.3} {:>7.3} {:>6}   {}",
            out.dispatcher,
            out.it_energy.to_kwh(),
            out.cooling_energy.to_kwh(),
            out.pue().expect("the jobs ran"),
            out.violations,
            per_class.join(", ")
        );
        rows.push(out);
    }

    let (rr, ta) = (&rows[0], &rows[1]);
    println!(
        "\nper-server physics: {} coupled solves across both classes ({} cache replays)",
        cache.solves(),
        cache.hits()
    );
    println!(
        "thermal-aware saves {:.1} % cooling energy vs round-robin at {} vs {} violations —",
        100.0 * (1.0 - ta.cooling_energy / rr.cooling_energy),
        ta.violations,
        rr.violations
    );
    println!(
        "on a mixed catalog the dispatcher segregates cold-demanding jobs by rack *and* bin,\n\
         which a class-blind striping baseline cannot do."
    );
    Ok(())
}
