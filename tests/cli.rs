//! The `tps` binary's input surface: non-finite numbers, unknown flags
//! and runs that consume no IT energy exit 1 with a named error instead
//! of panicking.

use std::process::Command;

/// Runs `tps` with `args`; returns its exit code and standard error.
fn tps(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tps"))
        .args(args)
        .output()
        .expect("the tps binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn non_finite_numbers_exit_1_with_a_named_error() {
    // Parsing fails before any directory is created or physics is solved.
    let trace_dir = format!("{}/cli-trace", env!("CARGO_TARGET_TMPDIR"));
    let fleet = ["fleet", "--servers", "8", "--jobs", "8"];
    let cases: Vec<Vec<&str>> = vec![
        vec!["--rate", "nan"],
        vec!["--rate", "inf"],
        vec!["--pitch", "nan"],
        vec!["--sample", "inf", "--trace-out", &trace_dir],
        vec!["--sample", "nan", "--trace-out", &trace_dir],
        vec!["--tick", "inf", "--control", "autoscale", "--serving"],
        vec!["--tick", "nan", "--control", "shed"],
    ];
    for case in &cases {
        let args: Vec<&str> = fleet.iter().chain(case).copied().collect();
        let (code, stderr) = tps(&args);
        assert_eq!(code, Some(1), "tps {}: {stderr}", args.join(" "));
        assert!(
            stderr.starts_with("error: ") && stderr.contains("must be positive and finite"),
            "tps {}: {stderr}",
            args.join(" ")
        );
    }
    let (code, stderr) = tps(&["run", "x264", "--pitch=inf"]);
    assert_eq!(code, Some(1), "tps run --pitch=inf: {stderr}");
    assert!(stderr.contains("finite number of millimetres"), "{stderr}");
}

#[test]
fn flags_the_fleet_command_no_longer_takes_are_unknown() {
    let (code, stderr) = tps(&["fleet", "--servers", "8", "--jobs", "8", "--shards", "2"]);
    assert_eq!(code, Some(1), "tps fleet --shards 2: {stderr}");
    assert!(
        stderr.starts_with("error: unknown flag `--shards`"),
        "{stderr}"
    );
}

#[test]
fn a_run_that_consumes_no_it_energy_exits_1_with_a_named_error() {
    // At 1e-30 jobs/s every arrival lands where start + runtime rounds
    // back to start, so no job runs and the run's PUE is undefined.
    let (code, stderr) = tps(&["fleet", "--servers", "8", "--jobs", "10", "--rate", "1e-30"]);
    assert_eq!(code, Some(1), "tps fleet --rate 1e-30: {stderr}");
    assert!(
        stderr.starts_with("error: the round-robin run consumed no IT energy"),
        "{stderr}"
    );
}
