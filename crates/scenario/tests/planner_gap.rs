//! The shipped planner headline, pinned byte for byte: the CSV report,
//! the Markdown report and every grid point's trace that
//! `tps sweep scenarios/planner_gap.toml --trace-out DIR` writes, each
//! by its FNV-1a digest. A planner change that moves one placement or
//! set-point in any re-plan of the grid shows here.

use tps_scenario::Sweep;

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn planner_gap_reports_and_traces_match_their_golden_digests() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/planner_gap.toml"
    ))
    .expect("scenarios/planner_gap.toml ships with the repo");
    let sweep = Sweep::parse(&src, "planner_gap").unwrap();
    let (report, traces) = sweep.run_traced(2).unwrap();
    let names: Vec<&str> = report.rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "control.policy=static,workload.seed=42",
            "control.policy=static,workload.seed=43",
            "control.policy=planner,workload.seed=42",
            "control.policy=planner,workload.seed=43",
        ]
    );
    let digests: Vec<u64> = [report.to_csv(), report.to_markdown()]
        .into_iter()
        .chain(traces.iter().map(|t| t.to_csv()))
        .map(|text| fnv1a(text.as_bytes()))
        .collect();
    // CSV, Markdown, then one trace per grid point in the order above.
    assert_eq!(
        digests,
        [
            0x1316_8e93_d6cf_2664,
            0x0174_1bcf_e2ee_74b4,
            0x4297_83db_a4c6_4f3a,
            0x754d_d7c3_424b_f9c4,
            0xfefa_dd44_a2fb_57c2,
            0x2778_7cd9_8061_0837,
        ]
    );
}
