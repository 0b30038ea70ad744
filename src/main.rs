//! `tps` — command-line front end for the two-phase-cooling scheduling
//! simulator.
//!
//! ```text
//! tps run <benchmark> [--qos 1x|2x|3x] [--policy NAME] [--selector NAME] [--pitch MM]
//! tps profile <benchmark>
//! tps fleet [--servers N] [--racks N] [--jobs N] [--seed N] [--rate R] [--demand KIND]
//!           [--control POLICY] [--trace-out DIR]
//! tps sweep <spec.toml> [--out DIR] [--threads N] [--trace-out DIR]
//! tps list
//! ```
//!
//! Every subcommand accepts both `--flag value` and `--flag=value`
//! (parsed by the shared [`cliargs::CliArgs`] helper). `tps fleet` lowers
//! its flags onto a scenario spec, so the spec validator checks them.

mod cliargs;

use cliargs::CliArgs;
use std::path::Path;
use std::process::ExitCode;
use tps::cluster::{demand_pairs, Fleet, FleetConfig, FleetOutcome, OutcomeCache};
use tps::core::{ConfigSelector, MinPowerSelector, PackAndCapSelector, Server};
use tps::power::CState;
use tps::scenario::toml::{Spanned, Table, Value};
use tps::scenario::{
    policy_from_name, DispatcherKind, Scenario, Sweep, GRID_PITCH_MM, KERNEL_INDEX_MAX,
};
use tps::workload::{profile_application, Benchmark, QosClass};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let help = args.iter().skip(1).any(|a| a == "--help" || a == "-h");
    match args.first().map(String::as_str) {
        Some("run" | "profile" | "fleet" | "sweep" | "list") if help => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some("run") => cmd_run(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("list") => cmd_list(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "tps — two-phase-cooling-aware thermal workload mapping\n\n\
         USAGE:\n  \
         tps run <benchmark> [--qos 1x|2x|3x] [--policy proposed|coskun|inlet|packed]\n  \
         {:14}[--selector minpower|packcap] [--pitch <mm>]\n  \
         tps profile <benchmark>   print the 48-point P/Q configuration table\n  \
         tps fleet [--servers N] [--racks N] [--jobs N] [--seed N] [--rate JOBS/S]\n  \
         {:14}[--demand constant|diurnal|bursty] [--dispatcher all|rr|coolest|thermal|planned]\n  \
         {:14}[--policy NAME] [--ambient C] [--pitch MM] [--threads N]\n  \
         {:14}[--classes NAME[:PITCH[:INLET[:POLICY]]],...]  heterogeneous racks\n  \
         {:14}(classes cycle across racks; fields omitted inherit the fleet flags)\n  \
         {:14}[--control static|setpoint|shed|autoscale|planner] [--setpoints T:C,T:C,...] [--tick S]\n  \
         {:14}[--setpoint-grid C,C,...] [--horizon S] [--replan-ticks N]\n  \
         {:14}[--solver lp|anneal] [--anneal-iters N]  planner knobs (see docs/SCENARIOS.md)\n  \
         {:14}[--serving]  open-loop request stream with latency percentiles\n  \
         {:14}(autoscale requires --serving; steps the active set by whole racks)\n  \
         {:14}[--trace-out DIR] [--sample S]  write per-dispatcher telemetry CSVs\n  \
         {:14}[--stats]  job-synthesis time, per-dispatcher kernel timing (events/s, queue depth, arena)\n  \
         tps sweep <spec.toml> [--out DIR] [--threads N] [--trace-out DIR]\n  \
         {:14}expand a scenario spec's sweep grid, write CSV + Markdown reports\n  \
         {:14}(spec schema and cookbook: docs/SCENARIOS.md, examples: scenarios/)\n  \
         tps list                  list benchmarks, policies and selectors\n",
        "", "", "", "", "", "", "", "", "", "", "", "", "", ""
    );
}

/// A `main`-style error bridge: prints `error: …` and maps to an exit code.
fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

fn parse_bench(args: &CliArgs) -> Result<Benchmark, String> {
    let name = args
        .positional(0)
        .ok_or_else(|| "missing <benchmark> argument".to_owned())?;
    name.parse::<Benchmark>().map_err(|e| e.to_string())
}

fn parse_qos(args: &CliArgs) -> Result<QosClass, String> {
    match args.flag_or("qos", "2x") {
        "1x" => Ok(QosClass::OneX),
        "2x" => Ok(QosClass::TwoX),
        "3x" => Ok(QosClass::ThreeX),
        other => Err(format!("unknown QoS class `{other}` (use 1x, 2x or 3x)")),
    }
}

fn cmd_run(raw: &[String]) -> ExitCode {
    let args = match CliArgs::parse(raw, &["qos", "policy", "selector", "pitch"], 1) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let (bench, qos) = match (parse_bench(&args), parse_qos(&args)) {
        (Ok(b), Ok(q)) => (b, q),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let policy_name = args.flag_or("policy", "proposed");
    let Some(policy) = policy_from_name(policy_name).map(|p| p.as_policy()) else {
        return fail(format!(
            "unknown policy `{policy_name}` (use proposed, coskun, inlet or packed)"
        ));
    };
    let selector: Box<dyn ConfigSelector> = match args.flag_or("selector", "minpower") {
        "minpower" => Box::new(MinPowerSelector),
        "packcap" => Box::new(PackAndCapSelector::default()),
        other => return fail(format!("unknown selector `{other}`")),
    };
    let pitch: f64 = match args.parsed("pitch", 1.0) {
        Ok(p) if GRID_PITCH_MM.contains(&p) => p,
        Ok(_) => {
            return fail(format!(
                "--pitch must be a finite number of millimetres in {GRID_PITCH_MM:?}"
            ))
        }
        Err(e) => return fail(e),
    };

    println!(
        "simulating {bench} @ {qos} QoS ({} / {})…",
        selector.name(),
        policy.name()
    );
    let server = Server::xeon(pitch);
    match server.run(bench, qos, selector.as_ref(), policy) {
        Ok(out) => {
            println!("configuration : {}", out.profile.config);
            println!("slowdown      : {:.2}x", out.profile.normalized_time);
            println!("idle C-state  : {}", out.idle_cstate);
            println!("mapping       : {:?}", out.mapping);
            println!("package power : {:.1}", out.breakdown.total());
            println!(
                "T_sat / T_case: {:.1} / {:.1}",
                out.solution.t_sat, out.solution.t_case
            );
            println!(
                "solver        : {} fixed-point iterations, {} CG iterations in the last",
                out.solution.iterations,
                out.solution.thermal.stats().iterations
            );
            println!("die           : {}", out.die);
            println!("package       : {}", out.package);
            println!();
            print!(
                "{}",
                tps::thermal::render_ascii(out.solution.thermal.die_layer())
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_profile(raw: &[String]) -> ExitCode {
    let args = match CliArgs::parse(raw, &[], 1) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let bench = match parse_bench(&args) {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    println!("{bench}: P/Q vectors (idle cores in POLL)\n");
    println!("{:>14}  {:>9}  {:>9}", "config", "power (W)", "slowdown");
    let mut rows = profile_application(bench, CState::Poll);
    rows.sort_by(|a, b| a.package_power.value().total_cmp(&b.package_power.value()));
    for row in rows {
        println!(
            "{:>14}  {:>9.1}  {:>8.2}x",
            row.config.to_string(),
            row.package_power.value(),
            row.normalized_time
        );
    }
    ExitCode::SUCCESS
}

fn cmd_list() -> ExitCode {
    println!("benchmarks:");
    for b in Benchmark::ALL {
        println!("  {b}");
    }
    println!("\npolicies:   proposed (paper), coskun [9], inlet [7], packed (scenario 3)");
    println!("selectors:  minpower (Algorithm 1), packcap [27]");
    println!("qos:        1x, 2x, 3x");
    println!(
        "dispatchers (tps fleet): rr (round-robin), coolest (coolest-rack-first), thermal, \
         planned (total-energy greedy)"
    );
    println!(
        "demand models (tps fleet): constant, diurnal, bursty (batch); --serving for requests"
    );
    println!(
        "control policies (tps fleet/sweep): static, setpoint (schedule), shed (admission), \
         autoscale (serving capacity), planner (joint placement + set-point)"
    );
    println!("scenario specs (tps sweep): scenarios/*.toml, schema in docs/SCENARIOS.md");
    ExitCode::SUCCESS
}

/// Every `tps fleet` flag and the spec key it sets to its value as given.
/// Flags without a key expand in [`fleet_scenario`] or, like
/// `--trace-out`, stay with the CLI (docs/SCENARIOS.md maps them all).
const FLEET_FLAGS: [(&str, &str); 22] = [
    ("servers", ""),
    ("racks", ""),
    ("jobs", "workload.jobs"),
    ("seed", "workload.seed"),
    ("rate", "workload.rate"),
    ("demand", "workload.demand"),
    ("dispatcher", "dispatch.dispatcher"),
    ("policy", "fleet.policy"),
    ("ambient", "cooling.heat_reuse_c"),
    ("pitch", "fleet.grid_pitch_mm"),
    ("threads", "fleet.threads"),
    ("classes", ""),
    ("control", "control.policy"),
    ("setpoints", ""),
    ("tick", "control.tick_s"),
    ("horizon", "control.horizon_s"),
    ("replan-ticks", "control.replan_ticks"),
    ("setpoint-grid", ""),
    ("anneal-iters", "control.anneal_iters"),
    ("solver", "control.solver"),
    ("trace-out", ""),
    ("sample", "telemetry.sample_s"),
];

/// A flag value as a spec value: an integer if it parses as one, else a
/// float (NaN and ∞ included, for the validator to name), else a string.
fn typed(raw: &str) -> Value {
    if let Ok(i) = raw.parse() {
        Value::Integer(i)
    } else if let Ok(x) = raw.parse() {
        Value::Float(x)
    } else {
        Value::String(raw.to_owned())
    }
}

/// The scenario `tps fleet`'s flags describe: each flag lowers onto
/// `table.key` overrides of an empty spec, carrying its position as the
/// line, and [`Scenario::from_overrides`] validates them.
///
/// # Errors
///
/// A composite flag whose own syntax is malformed, or the validator's
/// error prefixed with the flag that caused it.
fn fleet_scenario(args: &CliArgs) -> Result<Scenario, String> {
    let at = |line, value| Spanned { value, line };
    let mut out = Vec::new();
    for (flag, path) in FLEET_FLAGS {
        match args.flag_at(flag) {
            Some((_, "all")) if flag == "dispatcher" => {}
            Some((line, raw)) if !path.is_empty() => out.push((path, at(line, typed(raw)))),
            _ => {}
        }
    }

    // `--servers N [--racks R]` fills whole racks: R defaults to N/8 (one
    // rack below 2 servers, two below 16) and N rounds up to R × ⌈N/R⌉.
    // Other values pass through for the validator to name.
    let servers = args.flag_at("servers");
    let racks = args.flag_at("racks");
    let n_line = servers.or(racks).map_or(0, |(line, _)| line);
    let r_line = racks.map_or(n_line, |(line, _)| line);
    let n = servers.map_or(Value::Integer(16), |(_, raw)| typed(raw));
    let r = racks.map(|(_, raw)| typed(raw));
    let shape = match (&n, &r) {
        (&Value::Integer(n @ 1..), None) => Some((n, if n < 16 { n.min(2) } else { n / 8 })),
        (&Value::Integer(n @ 1..), Some(Value::Integer(r @ 1..))) => Some((n, *r)),
        _ => None,
    }
    .map(|(n, r)| (r, n / r + i64::from(n % r != 0)));
    let (racks, per_rack) = match shape {
        Some((racks, per_rack)) => (Some(Value::Integer(racks)), Value::Integer(per_rack)),
        None => (r, n),
    };
    out.extend(racks.map(|r| ("fleet.racks", at(r_line, r))));
    out.push(("fleet.servers_per_rack", at(n_line, per_rack)));

    if let (Some((line, "autoscale")), Some((_, per_rack))) = (args.flag_at("control"), shape) {
        // Activation is rack-granular: the autoscaler floors and steps at
        // whole racks.
        out.push(("control.min_servers", at(line, Value::Integer(per_rack))));
        out.push(("control.step_servers", at(line, Value::Integer(per_rack))));
    }
    if args.parsed("serving", false)? {
        // The CLI counterpart of `scenarios/serving_diurnal.toml`.
        let line = args.flag_at("serving").map_or(0, |(line, _)| line);
        out.push(("workload.mode", at(line, Value::String("serving".into()))));
        out.push(("workload.mean_service_s", at(line, Value::Integer(2))));
    }
    if let Some((line, raw)) = args.flag_at("setpoints") {
        let (mut times, mut temps) = (Vec::new(), Vec::new());
        for entry in raw.split(',') {
            let (t, c) = entry.split_once(':').ok_or_else(|| {
                format!("bad --setpoints entry `{entry}` (expected TIME:CELSIUS, e.g. 300:45)")
            })?;
            times.push(at(line, typed(t.trim())));
            temps.push(at(line, typed(c.trim())));
        }
        out.push(("control.times_s", at(line, Value::Array(times))));
        out.push(("control.setpoints_c", at(line, Value::Array(temps))));
    }
    if let Some((line, raw)) = args.flag_at("setpoint-grid") {
        let grid = raw.split(',').map(|c| at(line, typed(c.trim()))).collect();
        out.push(("control.setpoint_grid", at(line, Value::Array(grid))));
    }
    if let Some((line, raw)) = args.flag_at("classes") {
        // `NAME[:PITCH[:INLET[:POLICY]]],…`: one `[[server_class]]` per
        // entry, omitted fields inheriting the fleet-wide keys.
        let (mut classes, mut names) = (Vec::new(), Vec::new());
        for entry in raw.split(',') {
            let mut fields = entry.split(':').map(str::trim);
            let name = fields.next().unwrap_or_default();
            let mut class = Table::default();
            class.set("name", at(line, Value::String(name.to_owned())));
            let keys = ["grid_pitch_mm", "water_inlet_c", "policy"];
            for (key, field) in keys.into_iter().zip(fields.by_ref()) {
                if !field.is_empty() {
                    class.set(key, at(line, typed(field)));
                }
            }
            if let Some(extra) = fields.next() {
                return Err(format!("trailing `:{extra}` in --classes entry `{entry}`"));
            }
            classes.push(at(line, Value::Table(class)));
            names.push(name);
        }
        // Rack r is entirely class r mod k. A fleet past the validator's
        // size limit fails before `classes` is read, so it gets one entry
        // rather than a per-rack list.
        let racks = shape
            .filter(|&(racks, per_rack)| racks.saturating_mul(per_rack) <= KERNEL_INDEX_MAX as i64)
            .map_or(1, |(racks, _)| racks as usize);
        let cycle = (0..racks).map(|r| at(line, Value::String(names[r % names.len()].into())));
        out.push(("server_class", at(line, Value::Array(classes))));
        out.push(("fleet.classes", at(line, Value::Array(cycle.collect()))));
    }
    Scenario::from_overrides("fleet", out).map_err(|e| {
        match e.line.and_then(|line| args.flag_by_position(line)) {
            Some((flag, value)) => format!("--{flag} {value}: {}", e.message),
            None => e.message,
        }
    })
}

fn cmd_fleet(raw: &[String]) -> ExitCode {
    let known = FLEET_FLAGS.map(|(flag, _)| flag);
    let args = match CliArgs::parse_with_switches(raw, &known, &["stats", "serving"], 0) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    if args.flag("sample").is_some() && args.flag("trace-out").is_none() {
        return fail("--sample only applies together with --trace-out DIR");
    }
    let stats = match args.parsed("stats", false) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let s = match fleet_scenario(&args) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    // Validation passed, so `--servers` is a positive integer.
    let servers: usize = args.parsed("servers", 16).unwrap_or_default();
    let total = s.racks * s.servers_per_rack;
    if servers != total {
        println!(
            "note: rounding {servers} servers up to {total} ({} racks × {}) so every rack is full",
            s.racks, s.servers_per_rack
        );
    }
    let synth_started = std::time::Instant::now();
    let jobs = s.synthesize_jobs();
    let synth_s = synth_started.elapsed().as_secs_f64();
    let dispatchers = match args.flag("dispatcher") {
        None | Some("all") => vec![
            DispatcherKind::RoundRobin,
            DispatcherKind::CoolestRackFirst,
            DispatcherKind::ThermalAware,
        ],
        Some(_) => vec![s.dispatcher],
    };
    let fleet = Fleet::new(s.fleet_config());
    let trace_out = args.flag("trace-out");
    let sampling = s.telemetry.unwrap_or_default();
    let telemetry = trace_out.map(|_| sampling.to_config());

    println!(
        "fleet: {} racks × {} servers, {} jobs ({} demand, rate {} jobs/s, seed {})",
        s.racks,
        s.servers_per_rack,
        jobs.len(),
        s.serving.map_or(s.demand.spec_name(), |_| "serving"),
        s.demand.rate(),
        s.seed
    );
    if !s.classes.is_empty() {
        let summary: Vec<String> = s
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{} (pitch {:.1} mm, inlet {:.1} °C, {})",
                    c.name,
                    c.grid_pitch_mm.unwrap_or(s.grid_pitch_mm),
                    c.water_inlet_c.unwrap_or(s.water_inlet_c),
                    c.policy.unwrap_or(s.policy).spec_name(),
                )
            })
            .collect();
        println!("classes: {} — cycled across racks", summary.join(", "));
    }
    println!(
        "scenario: heat-recovery loop at {:.1} °C, water inlet {:.1}, {:.1} mm grid, {} warm-up threads",
        s.heat_reuse_c,
        fleet.config().op.water_inlet(),
        s.grid_pitch_mm,
        s.threads,
    );
    let sampled =
        trace_out.map(|dir| format!(", telemetry every {:.0} s → {dir}/", sampling.sample_s));
    let control = s.control.instantiate().name();
    println!("control: {control}{}\n", sampled.unwrap_or_default());

    if let Some(dir) = trace_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(format!("cannot create `{dir}`: {e}"));
        }
    }
    // Warm and publish the physics once, before any dispatcher runs, so
    // every run's `kernel:` line times its event loop alone.
    let cache = OutcomeCache::new();
    let warm_started = std::time::Instant::now();
    if let Err(e) = fleet.warm(&demand_pairs(&jobs), &cache, s.threads) {
        return fail(e);
    }
    cache.publish();
    let warm_s = warm_started.elapsed().as_secs_f64();
    let mut outcomes: Vec<FleetOutcome> = Vec::new();
    if stats {
        println!("warm-up: {} solves in {warm_s:.3} s", cache.solves());
        println!("synthesis: {} jobs in {synth_s:.3} s", jobs.len());
    }
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6} {:>9} {:>9}",
        "dispatcher", "IT kWh", "cool kWh", "tot kWh", "PUE", "viol", "shed", "wait s", "span s"
    );
    let mut peak_queue_depth = 0usize;
    let mut arena_high_water = 0usize;
    for kind in dispatchers {
        let mut d = kind.instantiate();
        let mut control = s.control.instantiate();
        let started = std::time::Instant::now();
        let result = match fleet.simulate_with(
            &jobs,
            d.as_mut(),
            control.as_mut(),
            telemetry.as_ref(),
            &cache,
        ) {
            Ok(result) => result,
            Err(e) => return fail(e),
        };
        let elapsed = started.elapsed().as_secs_f64();
        peak_queue_depth = peak_queue_depth.max(result.stats.peak_queue_depth);
        arena_high_water = arena_high_water.max(result.stats.arena_high_water);
        let out = result.outcome;
        let Some(pue) = out.pue() else {
            return fail(format!(
                "the {} run consumed no IT energy: no job ran for a nonzero time, so \
                     its PUE is undefined (arrivals this sparse round every runtime away; \
                     raise --rate)",
                out.dispatcher
            ));
        };
        println!(
            "{:<20} {:>9.3} {:>9.3} {:>9.3} {:>7.3} {:>6} {:>6} {:>9.1} {:>9.1}",
            out.dispatcher,
            out.it_energy.to_kwh(),
            out.cooling_energy.to_kwh(),
            out.total_energy().to_kwh(),
            pue,
            out.violations,
            out.shed,
            out.mean_wait.value(),
            out.makespan.value()
        );
        if stats {
            println!(
                    "  kernel: {} events in {:.3} s ({:.2} M events/s), peak queue depth {}, arena high-water {}",
                    result.stats.events,
                    elapsed,
                    result.stats.events as f64 / elapsed.max(1e-9) / 1e6,
                    result.stats.peak_queue_depth,
                    result.stats.arena_high_water,
                );
            println!(
                "  cache (this run): {} table hits, {} miss solves, {} lock acquisitions",
                result.stats.table_hits, result.stats.miss_solves, result.stats.lock_acquisitions,
            );
        }
        if let Some(s) = &out.serving {
            println!(
                "  serving: {} requests, latency p50 {:.2} s / p95 {:.2} s / p99 {:.2} s, \
                     active servers mean {:.1} (min {}, max {})",
                s.requests,
                s.latency_p50.value(),
                s.latency_p95.value(),
                s.latency_p99.value(),
                s.mean_active_servers,
                s.min_active_servers,
                s.max_active_servers,
            );
        }
        if out.class_names.len() > 1 {
            let per_class: Vec<String> = out
                .class_names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    format!(
                        "{name} {} jobs / {} viol / {:.3} kWh",
                        out.class_placements[i],
                        out.class_violations[i],
                        out.class_it_energy[i].to_kwh(),
                    )
                })
                .collect();
            println!("  per class: {}", per_class.join("; "));
        }
        if let (Some(dir), Some(trace)) = (trace_out, result.trace) {
            let path = Path::new(dir).join(format!("trace_{}.csv", out.dispatcher));
            if let Err(e) = std::fs::write(&path, trace.to_csv()) {
                return fail(format!("cannot write `{}`: {e}", path.display()));
            }
            if trace.dropped() > 0 {
                println!(
                    "  note: trace ring dropped {} oldest samples (raise [telemetry] capacity)",
                    trace.dropped()
                );
            }
        }
        outcomes.push(out);
    }
    println!(
        "\nserver-physics cache (process total): {} distinct solves, {} replays ({} table hits, {} miss solves, {} locks) — event queue: peak depth {}, arena high-water {}",
        cache.solves(),
        cache.hits(),
        cache.table_hits(),
        cache.miss_solves(),
        cache.lock_acquisitions(),
        peak_queue_depth,
        arena_high_water,
    );
    let find = |name: &str| outcomes.iter().find(|o| o.dispatcher == name);
    if let (Some(rr), Some(ta)) = (find("round-robin"), find("thermal-aware")) {
        let saved = 1.0 - ta.total_energy() / rr.total_energy();
        println!(
            "thermal-aware vs round-robin: {:+.1} % total energy ({:+.1} % cooling)",
            -100.0 * saved,
            -100.0 * (1.0 - ta.cooling_energy / rr.cooling_energy)
        );
    }
    ExitCode::SUCCESS
}

fn cmd_sweep(raw: &[String]) -> ExitCode {
    let args = match CliArgs::parse(raw, &["out", "threads", "trace-out"], 1) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let Some(spec_path) = args.positional(0) else {
        return fail("missing <spec.toml> argument (shipped specs live under scenarios/)");
    };
    let threads = match args.parsed("threads", FleetConfig::default_threads()) {
        Ok(n) if n > 0 => n,
        Ok(_) => return fail("--threads must be positive"),
        Err(e) => return fail(e),
    };
    let out_dir = Path::new(args.flag_or("out", "target/sweep")).to_owned();

    let source = match std::fs::read_to_string(spec_path) {
        Ok(s) => s,
        Err(e) => return fail(format!("cannot read `{spec_path}`: {e}")),
    };
    let stem = Path::new(spec_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("sweep")
        .to_owned();
    let sweep = match Sweep::parse(&source, &stem) {
        Ok(s) => s,
        Err(e) => return fail(format!("{spec_path}: {e}")),
    };

    println!(
        "sweep `{}`: {} axis/axes → {} grid point(s), {} worker thread(s)",
        sweep.name,
        sweep.axes.len(),
        sweep.grid_len(),
        threads
    );
    for axis in &sweep.axes {
        let values: Vec<String> = axis
            .values
            .iter()
            .map(tps::scenario::toml::Value::display_compact)
            .collect();
        println!("  {} = [{}]", axis.path, values.join(", "));
    }
    let trace_out = args.flag("trace-out").map(str::to_owned);
    let started = std::time::Instant::now();
    let (report, traces) = if trace_out.is_some() {
        match sweep.run_traced(threads) {
            Ok((r, t)) => (r, t),
            Err(e) => return fail(format!("{spec_path}: {e}")),
        }
    } else {
        match sweep.run(threads) {
            Ok(r) => (r, Vec::new()),
            Err(e) => return fail(format!("{spec_path}: {e}")),
        }
    };
    println!(
        "executed {} grid point(s) in {:.2} s — server-physics cache (this run): {} distinct solves, {} replays ({} table hits, {} miss solves, {} locks) — event queue: peak depth {}, arena high-water {}\n",
        report.rows.len(),
        started.elapsed().as_secs_f64(),
        report.cache_solves,
        report.cache_hits,
        report.table_hits,
        report.miss_solves,
        report.lock_acquisitions,
        report.peak_queue_depth,
        report.arena_high_water,
    );
    print!("{}", report.to_markdown());

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return fail(format!("cannot create `{}`: {e}", out_dir.display()));
    }
    let csv_path = out_dir.join(format!("{stem}.csv"));
    let md_path = out_dir.join(format!("{stem}.md"));
    if let Err(e) = std::fs::write(&csv_path, report.to_csv()) {
        return fail(format!("cannot write `{}`: {e}", csv_path.display()));
    }
    if let Err(e) = std::fs::write(&md_path, report.to_markdown()) {
        return fail(format!("cannot write `{}`: {e}", md_path.display()));
    }
    println!(
        "\nreports: {} and {}",
        csv_path.display(),
        md_path.display()
    );
    if let Some(dir) = trace_out {
        let dir = Path::new(&dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(format!("cannot create `{}`: {e}", dir.display()));
        }
        for (row, trace) in report.rows.iter().zip(&traces) {
            // Grid-point names carry `.`/`=`/`,`; keep file names plain.
            let stem: String = row
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let path = dir.join(format!("{stem}.csv"));
            if let Err(e) = std::fs::write(&path, trace.to_csv()) {
                return fail(format!("cannot write `{}`: {e}", path.display()));
            }
        }
        println!("traces: {} files under {}", traces.len(), dir.display());
    }
    ExitCode::SUCCESS
}
