//! Edge-case coverage for the spec/TOML-subset front end: every rejected
//! input must come back with an actionable message and, where a line
//! exists, the right line number.

use tps_scenario::{Scenario, SpecError, Sweep};

fn fail_scenario(src: &str) -> SpecError {
    Scenario::parse(src, "t").expect_err("spec should be rejected")
}

fn fail_sweep(src: &str) -> SpecError {
    Sweep::parse(src, "t").expect_err("spec should be rejected")
}

#[test]
fn empty_file_is_rejected_with_a_pointer_to_the_docs() {
    for src in ["", "\n\n", "# only comments\n  \n# more\n"] {
        let e = fail_scenario(src);
        assert_eq!(e.line, None);
        assert!(e.message.contains("empty"), "{e}");
        assert!(e.message.contains("docs/SCENARIOS.md"), "{e}");
    }
}

#[test]
fn unknown_key_names_line_table_and_alternatives() {
    let e = fail_scenario("[workload]\njobs = 10\nseeed = 3\n");
    assert_eq!(e.line, Some(3));
    assert!(e.message.contains("unknown key `seeed`"), "{e}");
    assert!(e.message.contains("[workload]"), "{e}");
    assert!(e.message.contains("seed"), "{e}");

    // Unknown top-level tables get the same treatment.
    let e = fail_scenario("[fleet]\nracks = 2\n[chiller]\nx = 1\n");
    assert_eq!(e.line, Some(3));
    assert!(e.message.contains("unknown key `chiller`"), "{e}");
    assert!(e.message.contains("cooling"), "{e}");

    // A key the schema no longer has is just another unknown key.
    let e = fail_scenario("[fleet]\nracks = 2\nshards = 2\n");
    assert_eq!(e.line, Some(3));
    assert!(e.message.contains("unknown key `shards`"), "{e}");
    assert!(e.message.contains("[fleet]"), "{e}");
}

#[test]
fn wrong_type_says_what_was_expected_and_found() {
    let e = fail_scenario("[workload]\nrate = \"fast\"\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("must be a number"), "{e}");
    assert!(e.message.contains("found a string"), "{e}");

    let e = fail_scenario("[workload]\nqos_weights = 3\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("3-element array"), "{e}");

    let e = fail_scenario("[workload]\nqos_weights = [1, 2]\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("exactly 3 weights"), "{e}");
}

#[test]
fn out_of_range_values_report_the_limit() {
    let e = fail_scenario("[workload]\njobs = 0\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("at least 1"), "{e}");

    let e = fail_scenario("[fleet]\ngrid_pitch_mm = -1.0\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("positive"), "{e}");

    let e = fail_scenario("[workload]\nseed = -4\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("non-negative"), "{e}");
}

#[test]
fn bad_sweep_axes_are_rejected_with_lines() {
    // A path that is not in the schema, with the sweepable list offered.
    let e = fail_sweep("[fleet]\nracks = 2\n[sweep]\nfleet.rack = [1, 2]\n");
    assert_eq!(e.line, Some(4));
    assert!(e.message.contains("sweep axis `fleet.rack`"), "{e}");
    assert!(e.message.contains("fleet.racks"), "{e}");

    // Likewise a path the schema no longer has.
    let e = fail_sweep("[fleet]\nracks = 2\n[sweep]\nfleet.shards = [1, 2]\n");
    assert_eq!(e.line, Some(4));
    assert!(e.message.contains("sweep axis `fleet.shards`"), "{e}");

    // An axis that is not an array.
    let e = fail_sweep("[fleet]\nracks = 2\n[sweep]\nworkload.rate = 0.7\n");
    assert_eq!(e.line, Some(4));
    assert!(e.message.contains("must be an array"), "{e}");

    // An empty axis.
    let e = fail_sweep("[fleet]\nracks = 2\n[sweep]\nworkload.rate = []\n");
    assert_eq!(e.line, Some(4));
    assert!(e.message.contains("at least one value"), "{e}");
}

#[test]
fn duplicate_tables_and_keys_point_at_both_sites() {
    let e = fail_scenario("[fleet]\nracks = 2\n[fleet]\nracks = 4\n");
    assert_eq!(e.line, Some(3));
    assert!(e.message.contains("duplicate table `[fleet]`"), "{e}");
    assert!(e.message.contains("line 1"), "{e}");

    let e = fail_scenario("[fleet]\nracks = 2\nracks = 4\n");
    assert_eq!(e.line, Some(3));
    assert!(e.message.contains("duplicate key `racks`"), "{e}");
    assert!(e.message.contains("line 2"), "{e}");
}

#[test]
fn syntax_errors_carry_line_numbers() {
    let e = fail_scenario("[fleet]\nracks 2\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("key = value"), "{e}");

    let e = fail_scenario("[fleet\nracks = 2\n");
    assert_eq!(e.line, Some(1));
    assert!(e.message.contains("closing `]`"), "{e}");

    let e = fail_scenario("[workload]\nrate = 0.5.3\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("cannot parse value"), "{e}");
}

#[test]
fn a_valid_spec_with_all_edge_syntax_still_parses() {
    // Quoted keys, dotted bare keys in [sweep], comments, underscored
    // numbers, trailing array commas.
    let sweep = Sweep::parse(
        "name = \"edge\" # trailing comment\n\
         [fleet]\n\
         racks = 2\n\
         servers_per_rack = 2\n\
         [workload]\n\
         jobs = 16\n\
         period_s = 86_400\n\
         qos_weights = [1, 1, 2,]\n\
         [sweep]\n\
         \"cooling.heat_reuse_c\" = [45.0, 70.0]\n\
         dispatch.dispatcher = [\"rr\", \"thermal\"]\n",
        "t",
    )
    .unwrap();
    assert_eq!(sweep.name, "edge");
    assert_eq!(sweep.grid_len(), 4);
    assert_eq!(sweep.expand().unwrap().len(), 4);
}

#[test]
fn serving_keys_are_rejected_outside_serving_mode_with_lines() {
    // A surge key under the default batch mode points at its own line and
    // names both escape hatches.
    let e = fail_scenario("[workload]\njobs = 8\nsurge = 2.0\n");
    assert_eq!(e.line, Some(3));
    assert!(e.message.contains("`surge` only applies"), "{e}");
    assert!(e.message.contains("serving workload mode"), "{e}");
    assert!(e.message.contains("sweep workload.mode"), "{e}");

    let e = fail_scenario("[workload]\nsurge_gap_s = 300.0\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("`surge_gap_s` only applies"), "{e}");

    // The batch demand selector is equally inapplicable under serving.
    let e = fail_scenario("[workload]\nmode = \"serving\"\ndemand = \"bursty\"\n");
    assert_eq!(e.line, Some(3));
    assert!(e.message.contains("`demand` only applies"), "{e}");

    // A mode typo lists the valid modes.
    let e = fail_scenario("[workload]\nmode = \"streaming\"\n");
    assert_eq!(e.line, Some(2));
    assert!(
        e.message.contains("unknown workload mode `streaming`"),
        "{e}"
    );
    assert!(e.message.contains("batch or serving"), "{e}");

    // …but sweeping workload.mode legitimizes serving keys in the base.
    let sweep = Sweep::parse(
        "[workload]\njobs = 8\nsurge = 2.0\n[sweep]\nworkload.mode = [\"batch\", \"serving\"]\n",
        "t",
    )
    .unwrap();
    assert_eq!(sweep.expand().unwrap().len(), 2);
}

#[test]
fn autoscale_keys_are_rejected_under_other_policies_with_lines() {
    // The policy itself needs serving mode.
    let e = fail_scenario("[control]\npolicy = \"autoscale\"\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("mode = \"serving\""), "{e}");

    // Every autoscale-only key under the default static policy.
    for key in [
        "min_servers = 2",
        "step_servers = 2",
        "queue_high = 2.0",
        "queue_low = 0.5",
        "p99_slo_s = 8.0",
    ] {
        let e = fail_scenario(&format!("[control]\n{key}\n"));
        let name = key.split(' ').next().unwrap();
        assert_eq!(e.line, Some(2), "{key}: {e}");
        assert!(e.message.contains(&format!("`{name}` only applies")), "{e}");
        assert!(e.message.contains("autoscale"), "{e}");
        assert!(e.message.contains("sweep control.policy"), "{e}");
    }

    // tick_s is shared between shed, autoscale and the planner — the
    // message says so.
    let e = fail_scenario("[control]\ntick_s = 10.0\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("shed/autoscale"), "{e}");
    assert!(e.message.contains("planner"), "{e}");

    // Inverted hysteresis watermarks are caught at parse time.
    let e = fail_scenario(
        "[workload]\nmode = \"serving\"\n[control]\npolicy = \"autoscale\"\n\
         queue_high = 0.5\nqueue_low = 1.0\n",
    );
    assert!(e.message.contains("hysteresis"), "{e}");
}

#[test]
fn planner_keys_are_rejected_under_other_policies_with_lines() {
    // Every planner-only key under the default static policy points at
    // its own line, names the planner and offers the sweep escape hatch.
    for key in [
        "horizon_s = 120.0",
        "replan_ticks = 2",
        "setpoint_grid = [35.0, 45.0]",
        "anneal_iters = 500",
        "solver = \"lp\"",
    ] {
        let e = fail_scenario(&format!("[control]\n{key}\n"));
        let name = key.split(' ').next().unwrap();
        assert_eq!(e.line, Some(2), "{key}: {e}");
        assert!(e.message.contains(&format!("`{name}` only applies")), "{e}");
        assert!(e.message.contains("planner"), "{e}");
        assert!(e.message.contains("sweep control.policy"), "{e}");
    }

    // A planner key under a non-planner, non-static policy fails too.
    let e = fail_scenario(
        "[control]\npolicy = \"shed\"\nhigh_watermark = 4\nlow_watermark = 1\nsolver = \"lp\"\n",
    );
    assert_eq!(e.line, Some(5));
    assert!(e.message.contains("`solver` only applies"), "{e}");

    // …but sweeping control.policy over "planner" legitimizes the keys.
    let sweep = Sweep::parse(
        "[workload]\njobs = 8\n[control]\nsetpoint_grid = [35.0, 45.0]\n\
         [sweep]\ncontrol.policy = [\"static\", \"planner\"]\n",
        "t",
    )
    .unwrap();
    assert_eq!(sweep.expand().unwrap().len(), 2);
}

#[test]
fn planner_policy_value_errors_are_line_numbered() {
    // The grid is mandatory.
    let e = fail_scenario("[control]\npolicy = \"planner\"\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("needs a `setpoint_grid`"), "{e}");

    // Empty and non-finite grids are rejected at their own line.
    let e = fail_scenario("[control]\npolicy = \"planner\"\nsetpoint_grid = []\n");
    assert_eq!(e.line, Some(3));
    assert!(e.message.contains("at least one candidate"), "{e}");
    let e = fail_scenario("[control]\npolicy = \"planner\"\nsetpoint_grid = [35.0, inf]\n");
    assert_eq!(e.line, Some(3));
    assert!(e.message.contains("non-finite"), "{e}");

    // A bad solver name lists the two cores.
    let e = fail_scenario(
        "[control]\npolicy = \"planner\"\nsetpoint_grid = [35.0]\nsolver = \"cplex\"\n",
    );
    assert_eq!(e.line, Some(4));
    assert!(e.message.contains("unknown planner solver `cplex`"), "{e}");
    assert!(e.message.contains("use lp or anneal"), "{e}");

    // Zero cadence/counts are caught by the shared range checks.
    let e = fail_scenario(
        "[control]\npolicy = \"planner\"\nsetpoint_grid = [35.0]\nreplan_ticks = 0\n",
    );
    assert_eq!(e.line, Some(4));
    assert!(e.message.contains("at least 1"), "{e}");

    // A policy typo now lists the planner among the alternatives.
    let e = fail_scenario("[control]\npolicy = \"lp\"\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("unknown control policy `lp`"), "{e}");
    assert!(
        e.message
            .contains("static, setpoint, shed, autoscale or planner"),
        "{e}"
    );
}

#[test]
fn planner_gap_scenario_round_trips_through_the_spec_layer() {
    // The shipped headline spec parses, expands to its 2 × 2 grid, and
    // carries the planner keys into the planner points only.
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/planner_gap.toml"
    ))
    .expect("scenarios/planner_gap.toml ships with the repo");
    let sweep = Sweep::parse(&src, "planner_gap").unwrap();
    assert_eq!(sweep.name, "planner-gap");
    let grid = sweep.expand().unwrap();
    assert_eq!(grid.len(), 4);
    assert!(grid
        .iter()
        .any(|s| s.control.spec_name() == "planner" && s.name.contains("workload.seed=43")));
    assert!(grid.iter().any(|s| s.control.spec_name() == "static"));
    // Every point keeps the thermal-aware dispatcher: the sweep isolates
    // the control-policy axis.
    assert!(grid.iter().all(|s| s.dispatcher.spec_name() == "thermal"));
}

#[test]
fn server_class_syntax_errors_are_line_numbered() {
    // A plain [server_class] table instead of the [[server_class]] array.
    let e = fail_scenario("[server_class]\nname = \"a\"\n");
    assert_eq!(e.line, Some(1));
    assert!(e.message.contains("[[server_class]]"), "{e}");

    // Mixing [x] and [[x]] headers fails at the TOML layer.
    let e = fail_scenario("[server_class]\n[[server_class]]\n");
    assert_eq!(e.line, Some(2));
    assert!(e.message.contains("conflicts"), "{e}");

    // An unterminated array-of-tables header.
    let e = fail_scenario("[[server_class]\nname = \"a\"\n");
    assert_eq!(e.line, Some(1));
    assert!(e.message.contains("closing `]]`"), "{e}");

    // A class axis value referencing an undeclared class fails at the
    // grid point, pointing at the [sweep] axis line.
    let src = "\
        [fleet]\n\
        racks = 1\n\
        classes = [\"a\"]\n\
        [[server_class]]\n\
        name = \"a\"\n\
        [sweep]\n\
        fleet.classes = [\"a\", \"zzz\"]\n";
    let e = Sweep::parse(src, "t")
        .expect("base spec is valid")
        .expand()
        .expect_err("bad axis value");
    assert_eq!(e.line, Some(7));
    assert!(e.message.contains("grid point `fleet.classes=zzz`"), "{e}");
    assert!(e.message.contains("undeclared class `zzz`"), "{e}");
}
