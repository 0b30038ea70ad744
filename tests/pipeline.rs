//! End-to-end integration tests: the full scheduler → power → thermosyphon
//! → thermal pipeline, checked against the paper's qualitative claims.

use tps::core::{
    CoskunBalancing, InletFirstMapping, MappingPolicy, MinPowerSelector, PackedMapping,
    ProposedMapping, Server,
};
use tps::power::CState;
use tps::units::Watts;
use tps::workload::{Benchmark, QosClass};

/// A coarse server shared by the tests in this file (2 mm grid keeps each
/// coupled solve around tens of milliseconds in release/test-opt builds).
fn server() -> Server {
    Server::xeon(2.0)
}

#[test]
fn energy_is_conserved_through_the_whole_stack() {
    let server = server();
    let out = server
        .run(
            Benchmark::Ferret,
            QosClass::TwoX,
            &MinPowerSelector,
            &ProposedMapping,
        )
        .expect("pipeline runs");
    // Scheduler-side package power == rasterized field total == heat into
    // the refrigerant (± the small board-side leak).
    let field_total = server.power_field(&out.breakdown).total();
    assert!((field_total - out.breakdown.total().value()).abs() < 1e-9);
    let wall = out.solution.wall_heat.total();
    assert!(
        (wall - field_total).abs() < 0.03 * field_total,
        "refrigerant absorbs {wall:.1} W of {field_total:.1} W"
    );
}

#[test]
fn table2_ordering_holds_on_average() {
    // The paper's headline: proposed ≤ coskun [9] ≤ inlet-first [7] on die
    // hot spots, averaged over benchmarks, at relaxed QoS.
    let server = server();
    let benches = [Benchmark::X264, Benchmark::Fluidanimate, Benchmark::Ferret];
    let avg = |policy: &dyn MappingPolicy| -> f64 {
        benches
            .iter()
            .map(|&b| {
                server
                    .run(b, QosClass::ThreeX, &MinPowerSelector, policy)
                    .expect("pipeline runs")
                    .die
                    .max
                    .value()
            })
            .sum::<f64>()
            / benches.len() as f64
    };
    let ours = avg(&ProposedMapping);
    let coskun = avg(&CoskunBalancing);
    let inlet = avg(&InletFirstMapping);
    let packed = avg(&PackedMapping);
    assert!(
        ours <= coskun + 0.05,
        "proposed {ours:.2} vs coskun {coskun:.2}"
    );
    assert!(
        coskun < inlet,
        "coskun {coskun:.2} vs inlet-first {inlet:.2}"
    );
    assert!(
        inlet <= packed + 0.5,
        "inlet {inlet:.2} vs packed {packed:.2}"
    );
}

#[test]
fn qos_relaxation_reduces_power_and_temperature() {
    let server = server();
    let run = |qos| {
        server
            .run(Benchmark::Facesim, qos, &MinPowerSelector, &ProposedMapping)
            .expect("pipeline runs")
    };
    let strict = run(QosClass::OneX);
    let relaxed = run(QosClass::ThreeX);
    assert!(relaxed.breakdown.total() < strict.breakdown.total() - Watts::new(10.0));
    assert!(relaxed.die.max < strict.die.max);
    assert!(relaxed.package.max < strict.package.max);
}

#[test]
fn one_x_runs_all_approaches_identically_except_design() {
    // Sec. VIII-A: at 1× everyone runs (8,16,fmax); only the thermosyphon
    // design differs. With the same server, proposed and coskun coincide.
    let server = server();
    let ours = server
        .run(
            Benchmark::X264,
            QosClass::OneX,
            &MinPowerSelector,
            &ProposedMapping,
        )
        .expect("pipeline runs");
    let coskun = server
        .run(
            Benchmark::X264,
            QosClass::OneX,
            &MinPowerSelector,
            &CoskunBalancing,
        )
        .expect("pipeline runs");
    assert_eq!(ours.profile.config, coskun.profile.config);
    let mut a = ours.mapping.clone();
    let mut b = coskun.mapping.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "full-load mappings must coincide");
    assert!((ours.die.max.value() - coskun.die.max.value()).abs() < 1e-6);
}

#[test]
fn qos_drives_the_idle_cstate() {
    let server = server();
    let run = |qos| {
        server
            .run(Benchmark::Vips, qos, &MinPowerSelector, &ProposedMapping)
            .expect("pipeline runs")
            .idle_cstate
    };
    assert_eq!(run(QosClass::OneX), CState::Poll);
    assert_eq!(run(QosClass::TwoX), CState::C1e);
    assert_eq!(run(QosClass::ThreeX), CState::C6);
}

#[test]
fn physical_temperature_ordering() {
    // Water < T_sat < case < die max, at every QoS.
    let server = server();
    for qos in QosClass::ALL {
        let out = server
            .run(
                Benchmark::Raytrace,
                qos,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .expect("pipeline runs");
        let water = server.simulation().operating_point().water_inlet();
        assert!(out.solution.t_sat > water, "{qos}");
        assert!(out.solution.t_case > out.solution.t_sat, "{qos}");
        assert!(out.die.max.value() > out.solution.t_case.value(), "{qos}");
        assert!(out.die.max.value() < 100.0, "{qos}: die melts");
    }
}

#[test]
fn spread_mappings_produce_distinct_hotspots() {
    // The paper's mapping objective is "number and magnitude" of hot
    // spots: a packed placement merges the active cores into one thermal
    // blob, while the spread placements leave distinct peaks.
    let server = server();
    let spread = server
        .run(
            Benchmark::X264,
            QosClass::ThreeX,
            &MinPowerSelector,
            &ProposedMapping,
        )
        .expect("pipeline runs");
    let packed = server
        .run(
            Benchmark::X264,
            QosClass::ThreeX,
            &MinPowerSelector,
            &PackedMapping,
        )
        .expect("pipeline runs");
    assert!(
        spread.die.hotspots >= packed.die.hotspots,
        "spread {} vs packed {} hot spots",
        spread.die.hotspots,
        packed.die.hotspots
    );
    // And the packed blob is the hotter one.
    assert!(packed.die.max > spread.die.max);
}
