//! Property tests across the whole configuration lattice: the execution
//! and power models must stay physically ordered for every benchmark, and
//! a trace's allocation-free total must equal the built trace's.

use proptest::prelude::*;
use tps_power::{CState, CoreFrequency};
use tps_units::Seconds;
use tps_workload::{profile_application, profile_config, Benchmark, WorkloadConfig, WorkloadTrace};

/// `WorkloadTrace::synthesized_duration` and the built trace's
/// `duration()` have the same bits.
fn assert_replayed_total(bench: Benchmark, total: f64, seed: u64) {
    let total = Seconds::new(total);
    let replayed = WorkloadTrace::synthesized_duration(bench, total, seed).value();
    let built = WorkloadTrace::synthesize(bench, total, seed)
        .duration()
        .value();
    assert_eq!(
        replayed.to_bits(),
        built.to_bits(),
        "{bench}, {total:?}, seed {seed}: replayed {replayed:e} s, built {built:e} s"
    );
}

#[test]
fn an_empty_trace_totals_negative_zero_both_ways() {
    // `f64`'s `Sum` starts from -0.0, so a trace with no phases totals
    // -0.0 s, and the replay keeps that sign bit.
    for bench in Benchmark::ALL {
        let built = WorkloadTrace::synthesize(bench, Seconds::ZERO, 1).duration();
        let replayed = WorkloadTrace::synthesized_duration(bench, Seconds::ZERO, 1);
        for total in [built, replayed] {
            assert_eq!(total.value().to_bits(), 0x8000_0000_0000_0000, "{bench}");
        }
    }
}

#[test]
fn a_day_long_trace_total_replays_bit_for_bit() {
    // 86 400 s is the `mean_service_s` ceiling: 10⁴–10⁵ phases a trace.
    for (i, bench) in Benchmark::ALL.into_iter().enumerate() {
        assert_replayed_total(bench, 86_400.0, 0x5eed + i as u64);
    }
}

proptest! {
    /// Package power decomposes exactly into its parts, for every
    /// configuration and C-state.
    #[test]
    fn package_power_decomposition(
        bi in 0usize..13, nc in 1u8..=8, tpc in 1u8..=2, fi in 0usize..3,
        ci in 0usize..3,
    ) {
        let cstates = [CState::Poll, CState::C1, CState::C6];
        let cfg = WorkloadConfig::new(nc, tpc, CoreFrequency::ALL[fi]).unwrap();
        let row = profile_config(Benchmark::ALL[bi], cfg, cstates[ci]);
        let reassembled = row.active_core_power * f64::from(nc)
            + row.idle_core_power * f64::from(8 - nc)
            + row.llc_power
            + row.mem_io_power;
        prop_assert!((reassembled - row.package_power).abs().value() < 1e-9);
    }

    /// Power is monotone in frequency for a fixed shape, and execution
    /// time is antitone — DVFS is a true trade-off at every point.
    #[test]
    fn dvfs_is_a_real_tradeoff(bi in 0usize..13, nc in 1u8..=8, tpc in 1u8..=2) {
        let b = Benchmark::ALL[bi];
        let mut last_power = 0.0;
        let mut last_time = f64::INFINITY;
        for f in CoreFrequency::ALL {
            let cfg = WorkloadConfig::new(nc, tpc, f).unwrap();
            let row = profile_config(b, cfg, CState::Poll);
            prop_assert!(row.package_power.value() > last_power);
            prop_assert!(row.normalized_time < last_time + 1e-12);
            last_power = row.package_power.value();
            last_time = row.normalized_time;
        }
    }

    /// The full 48-point profile is unique and sorted consistently:
    /// no two configurations share the same (power, time) pair by accident
    /// of the model collapsing.
    #[test]
    fn profile_rows_are_distinct(bi in 0usize..13) {
        let rows = profile_application(Benchmark::ALL[bi], CState::Poll);
        prop_assert_eq!(rows.len(), 48);
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                let same_power =
                    (a.package_power - b.package_power).abs().value() < 1e-12;
                let same_time = (a.normalized_time - b.normalized_time).abs() < 1e-12;
                prop_assert!(
                    !(same_power && same_time),
                    "configs {} and {} are indistinguishable",
                    a.config,
                    b.config
                );
            }
        }
    }

    /// The replayed total equals the built trace's for every benchmark
    /// and random seeds: the empty trace, the smallest positive total, a
    /// total shorter than any phase (≥ 0.25 s) and the batch mix's
    /// 20–60 s range.
    #[test]
    fn synthesized_duration_is_the_trace_total(seed in 0u64..=u64::MAX, total in 20.0f64..60.0) {
        for bench in Benchmark::ALL {
            for t in [0.0, 5e-324, 0.1, total] {
                assert_replayed_total(bench, t, seed);
            }
        }
    }
}
