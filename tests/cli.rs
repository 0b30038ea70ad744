//! The `tps` binary's input surface: non-finite or out-of-envelope
//! values, unknown flags and runs that cannot finish or consume no IT
//! energy exit 1 with a named error instead of panicking or hanging, and
//! `--help` works on every subcommand.

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

/// Runs `tps` with `args` under a 10 s wall-clock limit and returns its
/// exit code and standard error; a run that outlives the limit is killed
/// and reported as `None` with a `timed out` stderr.
fn tps_within_10s(args: &[String]) -> (Option<i32>, String) {
    use std::io::Read;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let mut child = Command::new(env!("CARGO_BIN_EXE_tps"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the tps binary runs");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut poll = Duration::from_millis(1);
    loop {
        if let Some(status) = child.try_wait().expect("the child can be polled") {
            let mut stderr = String::new();
            child
                .stderr
                .take()
                .expect("stderr is piped")
                .read_to_string(&mut stderr)
                .expect("stderr is UTF-8");
            return (status.code(), stderr);
        }
        if Instant::now() > deadline {
            child.kill().expect("a running child can be killed");
            child.wait().expect("a killed child can be reaped");
            return (None, "timed out after 10 s".to_owned());
        }
        std::thread::sleep(poll);
        poll = (poll * 2).min(Duration::from_millis(20));
    }
}

fn owned(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn help_on_every_subcommand_prints_the_usage_and_exits_0() {
    for sub in ["run", "profile", "fleet", "sweep", "list"] {
        for help in ["--help", "-h"] {
            let out = Command::new(env!("CARGO_BIN_EXE_tps"))
                .args([sub, help])
                .output()
                .expect("the tps binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "tps {sub} {help}: {stdout}");
            assert!(stdout.contains("USAGE:"), "tps {sub} {help}: {stdout}");
        }
    }
}

#[test]
fn out_of_envelope_and_endless_runs_exit_1_with_a_named_error() {
    let trace_dir = format!("{}/cli-envelope-trace", env!("CARGO_TARGET_TMPDIR"));
    let fleet = ["fleet", "--servers", "8", "--jobs", "8", "--pitch", "3"];
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["--pitch", "1e-300"], "0.25..=4.5 mm envelope"),
        (vec!["--pitch", "1e300"], "0.25..=4.5 mm envelope"),
        (vec!["--classes", "a:1e-300"], "0.25..=4.5 mm envelope"),
        (vec!["--ambient", "nan"], "`heat_reuse_c` must be finite"),
        (vec!["--ambient", "1e300"], "0.0..=100.0 °C envelope"),
        (vec!["--ambient", "-1e300"], "0.0..=100.0 °C envelope"),
        (
            vec!["--control", "setpoint", "--setpoints", "0:-300"],
            "`setpoints_c` = -300.0 °C",
        ),
        (
            vec!["--control", "planner", "--setpoint-grid", "1e300"],
            "`setpoint_grid` = 1e300 °C",
        ),
        (
            vec!["--servers", "18446744073709551615"],
            "must be a positive integer",
        ),
        (
            vec!["--seed", "18446744073709551615"],
            "non-negative integer",
        ),
        (vec!["--rate", "5e-324"], "1e-280..=1e280 jobs/s envelope"),
        (
            vec!["--rate", "5e-324", "--demand", "constant"],
            "1e-280..=1e280 jobs/s envelope",
        ),
        (
            vec!["--control", "shed", "--tick", "1e-300"],
            "the control tick interval of 1e-300 s cannot step",
        ),
        (
            vec!["--trace-out", &trace_dir, "--sample", "1e-300"],
            "the telemetry sample interval of 1e-300 s cannot step",
        ),
        (
            vec!["--rate", "1e-12", "--control", "shed"],
            "the control tick interval of 60.0 s cannot step",
        ),
        (
            vec![
                "--control",
                "planner",
                "--setpoint-grid",
                "45,70",
                "--solver",
                "anneal",
                "--anneal-iters",
                "9223372036854775807",
            ],
            "`anneal_iters` = 9223372036854775807 exceeds the planner's 1000000-iteration limit",
        ),
    ];
    for (case, named) in &cases {
        let args = owned(&fleet.iter().chain(case).copied().collect::<Vec<_>>());
        let (code, stderr) = tps_within_10s(&args);
        assert_eq!(code, Some(1), "tps {}: {stderr}", args.join(" "));
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "tps {}: {stderr}",
            args.join(" ")
        );
    }
    let (code, stderr) = tps_within_10s(&owned(&["run", "x264", "--pitch", "1e-300"]));
    assert_eq!(code, Some(1), "tps run --pitch 1e-300: {stderr}");
    assert!(
        stderr.contains("finite number of millimetres in 0.25..=4.5"),
        "{stderr}"
    );
}

#[test]
fn demand_shapes_thinning_cannot_sample_exit_1_within_10s() {
    let dir = format!("{}/cli-thinning", env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("the target temp dir is writable");
    let ratio = "× its long-run mean, so thinning would draw";
    let first = "candidates before the first arrival (the limit is 1e8)";
    let cases = [
        (
            "bursty",
            "demand = \"bursty\"\nbase_fraction = 0\nburst_s = 1e-6\ngap_s = 1e6",
            ratio,
        ),
        (
            "surge",
            "mode = \"serving\"\nsurge = 1e6\nsurge_s = 1e-6\nsurge_gap_s = 1e6",
            ratio,
        ),
        (
            "first-burst",
            "demand = \"bursty\"\nrate = 1e9\nbase_fraction = 0\nburst_s = 1\ngap_s = 100",
            first,
        ),
        (
            "first-rise",
            "demand = \"diurnal\"\nrate = 1\nbase_fraction = 0\nperiod_s = 1e15",
            first,
        ),
    ];
    for (name, workload, named) in cases {
        let path = format!("{dir}/{name}.toml");
        let spec = format!("[fleet]\nracks = 1\ngrid_pitch_mm = 3\n[workload]\n{workload}\n");
        std::fs::write(&path, spec).expect("the spec is writable");
        let out = format!("{dir}/out-{name}");
        let (code, stderr) = tps_within_10s(&owned(&["sweep", &path, "--out", &out]));
        assert_eq!(code, Some(1), "tps sweep {path}: {stderr}");
        assert!(stderr.contains(named), "{stderr}");
    }
}

#[test]
fn stats_miss_solves_agree_per_run_and_process_total() {
    let out = Command::new(env!("CARGO_BIN_EXE_tps"))
        .args([
            "fleet",
            "--servers",
            "8",
            "--jobs",
            "32",
            "--pitch",
            "3",
            "--stats",
        ])
        .output()
        .expect("the tps binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let miss_solves = |line: &str| -> usize {
        let head = &line[..line.find(" miss solves").expect("a miss-solve count")];
        let count = head.rsplit(' ').next().unwrap_or_default();
        count.parse().unwrap_or_else(|_| panic!("{line}"))
    };
    let per_run: Vec<usize> = stdout
        .lines()
        .filter(|l| l.starts_with("  cache (this run): "))
        .map(miss_solves)
        .collect();
    let total = stdout
        .lines()
        .find(|l| l.starts_with("server-physics cache (process total): "))
        .map(miss_solves);
    assert_eq!(per_run.len(), 3, "{stdout}");
    assert_eq!(Some(per_run.iter().sum()), total, "{stdout}");
}

#[test]
fn stats_times_job_synthesis_just_above_the_dispatcher_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_tps"))
        .args(["fleet", "--servers", "8", "--jobs", "8", "--pitch", "3"])
        .args(["--dispatcher", "rr", "--stats"])
        .output()
        .expect("the tps binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines
            .windows(2)
            .any(|w| w[0].starts_with("synthesis: 8 jobs in ")
                && w[0].ends_with(" s")
                && w[1].starts_with("dispatcher ")),
        "{stdout}"
    );
}

#[test]
fn run_reports_its_solver_iterations_identically_across_runs() {
    let solver_line = || {
        let out = Command::new(env!("CARGO_BIN_EXE_tps"))
            .args(["run", "x264", "--pitch", "2.0"])
            .output()
            .expect("the tps binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let lines: Vec<&str> = stdout.lines().collect();
        let at = lines
            .iter()
            .position(|l| l.starts_with("T_sat / T_case: "))
            .unwrap_or_else(|| panic!("no T_sat line: {stdout}"));
        let line = lines.get(at + 1).copied().unwrap_or_default().to_owned();
        let counts: Vec<&str> = line
            .strip_prefix("solver        : ")
            .and_then(|l| l.strip_suffix(" CG iterations in the last"))
            .map(|l| l.split(" fixed-point iterations, ").collect())
            .unwrap_or_default();
        assert!(
            counts.len() == 2 && counts.iter().all(|c| c.parse::<usize>().is_ok()),
            "{stdout}"
        );
        line
    };
    assert_eq!(solver_line(), solver_line());
}

/// Every `tps fleet` flag lowered onto the spec, with `{}` where the probe
/// value goes (verbatim).
const FLAG_PROBES: &[&str] = &[
    "--servers {}",
    "--racks {}",
    "--jobs {}",
    "--seed {}",
    "--rate {}",
    "--rate {} --serving",
    "--demand {}",
    "--dispatcher {}",
    "--policy {}",
    "--ambient {}",
    "--pitch {}",
    "--threads {}",
    "--control {}",
    "--control shed --tick {}",
    "--serving --control autoscale --tick {}",
    "--control planner --setpoint-grid 45 --horizon {}",
    "--control planner --setpoint-grid 45 --replan-ticks {}",
    "--control planner --setpoint-grid 45 --solver anneal --anneal-iters {}",
    "--control planner --setpoint-grid 45 --solver {}",
    "--control planner --setpoint-grid {}",
    "--control setpoint --setpoints 0:{}",
    "--control setpoint --setpoints {}:70",
    "--classes {}",
    "--classes a:{}",
    "--classes a:3:{}",
    "--classes a:3:30:{}",
    "--trace-out TRACE --sample {}",
];

/// A spec line under its table header, e.g. `("[control]", "tick_s = {}")`.
type SpecLine = (&'static str, &'static str);

/// The spec keys those flags set, each as `(table header, key = value,
/// context lines)`; `{}` is the probe as a TOML literal.
const KEY_PROBES: &[(&str, &str, &[SpecLine])] = &[
    ("[fleet]", "servers_per_rack = {}", &[]),
    ("[fleet]", "racks = {}", &[]),
    ("[workload]", "jobs = {}", &[]),
    ("[workload]", "seed = {}", &[]),
    ("[workload]", "rate = {}", &[]),
    ("[workload]", "mode = {}", &[]),
    ("[workload]", "mean_service_s = {}", &[]),
    ("[workload]", "demand = {}", &[]),
    ("[dispatch]", "dispatcher = {}", &[]),
    ("[fleet]", "policy = {}", &[]),
    ("[cooling]", "heat_reuse_c = {}", &[]),
    ("[fleet]", "grid_pitch_mm = {}", &[]),
    ("[fleet]", "threads = {}", &[]),
    ("[control]", "policy = {}", &[]),
    (
        "[control]",
        "tick_s = {}",
        &[("[control]", "policy = \"shed\"")],
    ),
    (
        "[control]",
        "min_servers = {}",
        &[
            ("[workload]", "mode = \"serving\""),
            ("[control]", "policy = \"autoscale\""),
        ],
    ),
    (
        "[control]",
        "step_servers = {}",
        &[
            ("[workload]", "mode = \"serving\""),
            ("[control]", "policy = \"autoscale\""),
        ],
    ),
    (
        "[control]",
        "horizon_s = {}",
        &[
            ("[control]", "policy = \"planner\""),
            ("[control]", "setpoint_grid = [45]"),
        ],
    ),
    (
        "[control]",
        "replan_ticks = {}",
        &[
            ("[control]", "policy = \"planner\""),
            ("[control]", "setpoint_grid = [45]"),
        ],
    ),
    (
        "[control]",
        "anneal_iters = {}",
        &[
            ("[control]", "policy = \"planner\""),
            ("[control]", "setpoint_grid = [45]"),
            ("[control]", "solver = \"anneal\""),
        ],
    ),
    (
        "[control]",
        "solver = {}",
        &[
            ("[control]", "policy = \"planner\""),
            ("[control]", "setpoint_grid = [45]"),
        ],
    ),
    (
        "[control]",
        "setpoint_grid = [{}]",
        &[("[control]", "policy = \"planner\"")],
    ),
    (
        "[control]",
        "setpoints_c = [{}]",
        &[
            ("[control]", "policy = \"setpoint\""),
            ("[control]", "times_s = [0]"),
        ],
    ),
    (
        "[control]",
        "times_s = [{}]",
        &[
            ("[control]", "policy = \"setpoint\""),
            ("[control]", "setpoints_c = [70]"),
        ],
    ),
    (
        "[[server_class]]",
        "name = {}",
        &[("[fleet]", "classes = [{}]")],
    ),
    (
        "[[server_class]]",
        "grid_pitch_mm = {}",
        &[
            ("[[server_class]]", "name = \"a\""),
            ("[fleet]", "classes = [\"a\"]"),
        ],
    ),
    (
        "[[server_class]]",
        "water_inlet_c = {}",
        &[
            ("[[server_class]]", "name = \"a\""),
            ("[fleet]", "classes = [\"a\"]"),
        ],
    ),
    (
        "[[server_class]]",
        "policy = {}",
        &[
            ("[[server_class]]", "name = \"a\""),
            ("[fleet]", "classes = [\"a\"]"),
        ],
    ),
    ("[telemetry]", "sample_s = {}", &[]),
];

/// A minimal spec (one 8-server rack at 3 mm, 8 jobs, round-robin) with
/// `lines` added; a key given again replaces the base one.
fn minimal_spec(lines: &[(&str, String)]) -> String {
    let mut tables: Vec<(&str, Vec<String>)> = vec![
        (
            "[fleet]",
            vec![
                "racks = 1".into(),
                "servers_per_rack = 8".into(),
                "grid_pitch_mm = 3".into(),
            ],
        ),
        ("[workload]", vec!["jobs = 8".into()]),
        ("[dispatch]", vec!["dispatcher = \"rr\"".into()]),
    ];
    for (header, line) in lines {
        let key = line.split(" = ").next().unwrap_or_default();
        let i = match tables.iter().position(|(h, _)| h == header) {
            Some(i) => i,
            None => {
                tables.push((header, Vec::new()));
                tables.len() - 1
            }
        };
        let entries = &mut tables[i].1;
        entries.retain(|l| l.split(" = ").next() != Some(key));
        entries.push(line.clone());
    }
    tables
        .iter()
        .map(|(header, entries)| format!("{header}\n{}\n", entries.join("\n")))
        .collect()
}

#[test]
fn every_lowered_flag_and_spec_key_runs_or_fails_with_a_named_error() {
    const PROBES: [&str; 9] = [
        "nan",
        "inf",
        "-inf",
        "0",
        "-1",
        "5e-324",
        "1e300",
        "18446744073709551615",
        "bogus",
    ];
    let dir = format!("{}/cli-grammar", env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("the scratch dir is writable");
    let mut cases: Vec<Vec<String>> = Vec::new();
    for probe in PROBES {
        for flags in FLAG_PROBES {
            let i = cases.len();
            let mut args = owned(&[
                "fleet",
                "--servers",
                "8",
                "--jobs",
                "8",
                "--pitch",
                "3",
                "--dispatcher",
                "rr",
            ]);
            args.extend(flags.split(' ').map(|a| match a {
                "{}" => probe.to_owned(),
                "TRACE" => format!("{dir}/trace-{i}"),
                a => a.replace("{}", probe),
            }));
            cases.push(args);
        }
        let literal = match probe {
            "bogus" => "\"bogus\"",
            number => number,
        };
        for (header, line, context) in KEY_PROBES {
            let i = cases.len();
            let mut lines: Vec<(&str, String)> = context
                .iter()
                .map(|&(h, l)| (h, l.replace("{}", literal)))
                .collect();
            lines.push((header, line.replace("{}", literal)));
            let path = format!("{dir}/spec-{i}.toml");
            std::fs::write(&path, minimal_spec(&lines)).expect("the spec is writable");
            cases.push(owned(&[
                "sweep",
                &path,
                "--threads",
                "1",
                "--out",
                &format!("{dir}/out-{i}"),
                "--trace-out",
                &format!("{dir}/trace-{i}"),
            ]));
        }
    }

    // Cases run four at a time: a running case spends most of its time in
    // the physics warm-up, an error case a few milliseconds.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let failures = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(args) = cases.get(i) else { break };
                let (code, stderr) = tps_within_10s(args);
                let named = code == Some(1) && stderr.starts_with("error: ");
                if code != Some(0) && !named {
                    let spec = match args[0].as_str() {
                        "sweep" => std::fs::read_to_string(&args[1]).unwrap_or_default(),
                        _ => String::new(),
                    };
                    failures
                        .lock()
                        .expect("no worker panics holding the lock")
                        .push(format!(
                            "tps {} → {code:?}: {stderr}\n{spec}",
                            args.join(" ")
                        ));
                }
            });
        }
    });
    let failures = failures.into_inner().expect("workers joined");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
