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
//! (parsed by the shared [`cliargs::CliArgs`] helper).

mod cliargs;

use cliargs::CliArgs;
use std::path::Path;
use std::process::ExitCode;
use tps::cluster::{
    synthesize_jobs, synthesize_request_jobs, AutoscaleControl, ControlPolicy, CoolestRackFirst,
    Fleet, FleetCatalog, FleetConfig, FleetDispatcher, FleetOutcome, Job, JobMix,
    LoadSheddingControl, OutcomeCache, PlanSolver, PlannedDispatch, PlannerControl, RoundRobin,
    ServerClass, ServerPolicy, SetpointScheduler, StaticControl, TelemetryConfig,
    ThermalAwareDispatch,
};
use tps::cooling::Chiller;
use tps::core::{
    ConfigSelector, CoskunBalancing, InletFirstMapping, MappingPolicy, MinPowerSelector,
    PackAndCapSelector, PackedMapping, ProposedMapping, Server,
};
use tps::power::CState;
use tps::scenario::Sweep;
use tps::units::{Celsius, Seconds};
use tps::workload::{
    profile_application, Benchmark, BurstyDemand, ConstantDemand, DiurnalDemand, QosClass,
    ServingDemand,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
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
         {:14}[--stats]  per-dispatcher kernel timing (events/s, queue depth, arena)\n  \
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
    let policy: Box<dyn MappingPolicy> = match args.flag_or("policy", "proposed") {
        "proposed" => Box::new(ProposedMapping),
        "coskun" => Box::new(CoskunBalancing),
        "inlet" => Box::new(InletFirstMapping),
        "packed" => Box::new(PackedMapping),
        other => return fail(format!("unknown policy `{other}`")),
    };
    let selector: Box<dyn ConfigSelector> = match args.flag_or("selector", "minpower") {
        "minpower" => Box::new(MinPowerSelector),
        "packcap" => Box::new(PackAndCapSelector::default()),
        other => return fail(format!("unknown selector `{other}`")),
    };
    let pitch: f64 = match args.parsed("pitch", 1.0) {
        Ok(p) if positive(p) => p,
        Ok(_) => return fail("--pitch must be a positive, finite number of millimetres"),
        Err(e) => return fail(e),
    };

    println!(
        "simulating {bench} @ {qos} QoS ({} / {})…",
        selector.name(),
        policy.name()
    );
    let server = Server::xeon(pitch);
    match server.run(bench, qos, selector.as_ref(), policy.as_ref()) {
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

/// Parsed `tps fleet` arguments.
struct FleetArgs {
    servers: usize,
    racks: Option<usize>,
    jobs: usize,
    seed: u64,
    rate: f64,
    demand: String,
    dispatcher: String,
    policy: ServerPolicy,
    ambient: f64,
    pitch: f64,
    threads: usize,
    classes: Vec<ServerClass>,
    control: ControlSpec,
    trace_out: Option<String>,
    sample: f64,
    stats: bool,
    serving: bool,
}

/// Parses a `--classes` entry list: `NAME[:PITCH[:INLET[:POLICY]]]`,
/// comma-separated. Omitted fields inherit the fleet-wide flags.
fn parse_classes(raw: &str) -> Result<Vec<ServerClass>, String> {
    let mut classes: Vec<ServerClass> = Vec::new();
    for entry in raw.split(',') {
        let mut fields = entry.split(':');
        let name = fields.next().unwrap_or("").trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!(
                "bad --classes entry `{entry}` (expected NAME[:PITCH[:INLET[:POLICY]]], \
                 name of letters, digits and `_`)"
            ));
        }
        if classes.iter().any(|c| c.name == name) {
            return Err(format!("duplicate --classes name `{name}`"));
        }
        let mut class = ServerClass::new(name);
        if let Some(pitch) = fields.next().filter(|s| !s.trim().is_empty()) {
            let p: f64 = pitch
                .trim()
                .parse()
                .map_err(|e| format!("bad --classes pitch `{pitch}`: {e}"))?;
            if !(p > 0.0 && p.is_finite()) {
                return Err(format!("--classes pitch `{pitch}` must be positive"));
            }
            class.grid_pitch_mm = Some(p);
        }
        if let Some(inlet) = fields.next().filter(|s| !s.trim().is_empty()) {
            let t: f64 = inlet
                .trim()
                .parse()
                .map_err(|e| format!("bad --classes inlet `{inlet}`: {e}"))?;
            if !(5.0..=60.0).contains(&t) {
                return Err(format!(
                    "--classes inlet `{inlet}` outside the 5..=60 °C chiller envelope"
                ));
            }
            class.water_inlet_c = Some(t);
        }
        if let Some(policy) = fields.next().filter(|s| !s.trim().is_empty()) {
            class.policy = Some(match policy.trim() {
                "proposed" => ServerPolicy::Proposed,
                "coskun" => ServerPolicy::Coskun,
                "inlet" => ServerPolicy::InletFirst,
                "packed" => ServerPolicy::Packed,
                other => return Err(format!("unknown --classes policy `{other}`")),
            });
        }
        if let Some(extra) = fields.next() {
            return Err(format!("trailing `:{extra}` in --classes entry `{entry}`"));
        }
        classes.push(class);
    }
    Ok(classes)
}

/// Which control policy `tps fleet` runs (policies can be stateful, so
/// each dispatcher run instantiates a fresh one from this spec).
enum ControlSpec {
    Static,
    Setpoint(Vec<(Seconds, Celsius)>),
    Shed {
        tick: f64,
    },
    Autoscale {
        tick: f64,
    },
    Planner {
        tick: f64,
        horizon: f64,
        replan_ticks: usize,
        grid: Vec<f64>,
        anneal_iters: usize,
        solver: PlanSolver,
    },
}

impl ControlSpec {
    /// `rack_step` is the fleet's servers-per-rack: activation is
    /// rack-granular, so the autoscaler steps (and floors) at whole racks.
    fn instantiate(&self, rack_step: usize) -> Box<dyn ControlPolicy> {
        match self {
            ControlSpec::Static => Box::new(StaticControl),
            ControlSpec::Setpoint(program) => Box::new(SetpointScheduler::new(program.clone())),
            ControlSpec::Shed { tick } => {
                Box::new(LoadSheddingControl::new(Seconds::new(*tick), 8, 2))
            }
            ControlSpec::Autoscale { tick } => Box::new(AutoscaleControl::new(
                Seconds::new(*tick),
                rack_step,
                rack_step,
                2.0,
                0.25,
                Seconds::new(10.0),
            )),
            ControlSpec::Planner {
                tick,
                horizon,
                replan_ticks,
                grid,
                anneal_iters,
                solver,
            } => Box::new(PlannerControl::new(
                Seconds::new(*tick),
                Seconds::new(*horizon),
                *replan_ticks,
                grid.clone(),
                *anneal_iters,
                *solver,
            )),
        }
    }
}

/// Parses `--setpoint-grid C,C,...` into the planner's candidate list.
fn parse_setpoint_grid(raw: &str) -> Result<Vec<f64>, String> {
    let mut grid = Vec::new();
    for entry in raw.split(',') {
        let c: f64 = entry
            .trim()
            .parse()
            .map_err(|e| format!("bad --setpoint-grid entry `{entry}`: {e}"))?;
        if !c.is_finite() {
            return Err(format!("--setpoint-grid entry `{entry}` must be finite"));
        }
        grid.push(c);
    }
    if grid.is_empty() {
        return Err("--setpoint-grid needs at least one temperature".to_owned());
    }
    Ok(grid)
}

/// Parses `--setpoints T:C,T:C,...` into a set-point program.
fn parse_setpoints(raw: &str) -> Result<Vec<(Seconds, Celsius)>, String> {
    let mut program = Vec::new();
    for entry in raw.split(',') {
        let Some((t, c)) = entry.split_once(':') else {
            return Err(format!(
                "bad --setpoints entry `{entry}` (expected TIME:CELSIUS, e.g. 300:45)"
            ));
        };
        let t: f64 = t
            .trim()
            .parse()
            .map_err(|e| format!("bad --setpoints time `{t}`: {e}"))?;
        let c: f64 = c
            .trim()
            .parse()
            .map_err(|e| format!("bad --setpoints temperature `{c}`: {e}"))?;
        if !(t >= 0.0 && t.is_finite() && c.is_finite()) {
            return Err(format!("--setpoints entry `{entry}` out of range"));
        }
        program.push((Seconds::new(t), Celsius::new(c)));
    }
    if program.is_empty() {
        return Err("--setpoints needs at least one TIME:CELSIUS entry".to_owned());
    }
    if program.windows(2).any(|w| w[0].0.value() >= w[1].0.value()) {
        return Err("--setpoints times must be strictly ascending".to_owned());
    }
    Ok(program)
}

fn parse_fleet_args(raw: &[String]) -> Result<FleetArgs, String> {
    let args = CliArgs::parse_with_switches(
        raw,
        &[
            "servers",
            "racks",
            "jobs",
            "seed",
            "rate",
            "demand",
            "dispatcher",
            "policy",
            "ambient",
            "pitch",
            "threads",
            "classes",
            "control",
            "setpoints",
            "tick",
            "horizon",
            "replan-ticks",
            "setpoint-grid",
            "anneal-iters",
            "solver",
            "trace-out",
            "sample",
        ],
        &["stats", "serving"],
        0,
    )?;
    let serving: bool = args.parsed("serving", false)?;
    let control_name = args.flag_or("control", "static");
    // Mirror the spec layer: a policy-specific flag under the wrong
    // policy is an error, never silently dropped.
    if args.flag("setpoints").is_some() && control_name != "setpoint" {
        return Err(format!(
            "--setpoints only applies to --control setpoint (got --control {control_name})"
        ));
    }
    if args.flag("tick").is_some() && !matches!(control_name, "shed" | "autoscale" | "planner") {
        return Err(format!(
            "--tick only applies to --control shed, autoscale or planner \
             (got --control {control_name})"
        ));
    }
    for flag in [
        "horizon",
        "replan-ticks",
        "setpoint-grid",
        "anneal-iters",
        "solver",
    ] {
        if args.flag(flag).is_some() && control_name != "planner" {
            return Err(format!(
                "--{flag} only applies to --control planner (got --control {control_name})"
            ));
        }
    }
    if args.flag("sample").is_some() && args.flag("trace-out").is_none() {
        return Err("--sample only applies together with --trace-out DIR".to_owned());
    }
    if args.flag("demand").is_some() && serving {
        return Err(
            "--demand selects a batch demand model; --serving always runs the \
             diurnal + flash-crowd request stream"
                .to_owned(),
        );
    }
    let control = match control_name {
        "static" => ControlSpec::Static,
        "setpoint" => {
            let raw = args
                .flag("setpoints")
                .ok_or_else(|| "--control setpoint needs --setpoints T:C,T:C,...".to_owned())?;
            ControlSpec::Setpoint(parse_setpoints(raw)?)
        }
        "shed" => ControlSpec::Shed {
            tick: args.parsed("tick", 60.0)?,
        },
        "autoscale" => {
            if !serving {
                return Err(
                    "--control autoscale needs --serving (it scales the active-server set \
                     against request latency)"
                        .to_owned(),
                );
            }
            ControlSpec::Autoscale {
                tick: args.parsed("tick", 30.0)?,
            }
        }
        "planner" => {
            let grid = parse_setpoint_grid(args.flag("setpoint-grid").ok_or_else(|| {
                "--control planner needs --setpoint-grid C,C,... (candidate set-points)".to_owned()
            })?)?;
            let replan_ticks: usize = args.parsed("replan-ticks", 1usize)?;
            let anneal_iters: usize = args.parsed("anneal-iters", 2_000usize)?;
            if replan_ticks == 0 || anneal_iters == 0 {
                return Err("--replan-ticks and --anneal-iters must be positive".to_owned());
            }
            ControlSpec::Planner {
                tick: args.parsed("tick", 30.0)?,
                horizon: args.parsed("horizon", 120.0)?,
                replan_ticks,
                grid,
                anneal_iters,
                solver: match args.flag_or("solver", "lp") {
                    "lp" => PlanSolver::Lp,
                    "anneal" => PlanSolver::Anneal,
                    other => {
                        return Err(format!(
                            "unknown planner solver `{other}` (use lp or anneal)"
                        ))
                    }
                },
            }
        }
        other => {
            return Err(format!(
                "unknown control policy `{other}` \
                 (use static, setpoint, shed, autoscale or planner)"
            ))
        }
    };
    let out = FleetArgs {
        servers: args.parsed("servers", 16)?,
        racks: match args.flag("racks") {
            None => None,
            Some(_) => Some(args.parsed("racks", 0usize)?),
        },
        jobs: args.parsed("jobs", 200)?,
        seed: args.parsed("seed", 42)?,
        rate: args.parsed("rate", 0.7)?,
        demand: args.flag_or("demand", "diurnal").to_owned(),
        dispatcher: args.flag_or("dispatcher", "all").to_owned(),
        policy: match args.flag_or("policy", "proposed") {
            "proposed" => ServerPolicy::Proposed,
            "coskun" => ServerPolicy::Coskun,
            "inlet" => ServerPolicy::InletFirst,
            "packed" => ServerPolicy::Packed,
            other => return Err(format!("unknown policy `{other}`")),
        },
        ambient: args.parsed("ambient", 70.0)?,
        pitch: args.parsed("pitch", 2.0)?,
        threads: args.parsed("threads", FleetConfig::default_threads())?,
        classes: match args.flag("classes") {
            None => Vec::new(),
            Some(raw) => parse_classes(raw)?,
        },
        control,
        trace_out: args.flag("trace-out").map(str::to_owned),
        sample: args.parsed("sample", 30.0)?,
        stats: args.parsed("stats", false)?,
        serving,
    };
    if out.servers == 0
        || out.jobs == 0
        || out.racks == Some(0)
        || !positive(out.rate)
        || !positive(out.pitch)
        || out.threads == 0
        || !positive(out.sample)
    {
        return Err(
            "--servers, --racks, --jobs, --rate, --pitch, --threads and --sample \
             must be positive and finite"
                .to_owned(),
        );
    }
    match &out.control {
        ControlSpec::Shed { tick } | ControlSpec::Autoscale { tick } if !positive(*tick) => {
            return Err("--tick must be positive and finite".to_owned());
        }
        ControlSpec::Planner { tick, horizon, .. } if !positive(*tick) || !positive(*horizon) => {
            return Err("--tick and --horizon must be positive and finite".to_owned());
        }
        _ => {}
    }
    Ok(out)
}

/// Whether a real-valued flag is usable as a rate, length or interval: a
/// bare `x <= 0.0` test lets NaN and ∞ through to constructor asserts.
fn positive(x: f64) -> bool {
    x > 0.0 && x.is_finite()
}

fn synthesize_fleet_jobs(a: &FleetArgs) -> Result<Vec<Job>, String> {
    if a.serving {
        // Peak `--rate` requests/s over a 10-minute diurnal cycle with
        // 2.5× flash crowds, 2 s mean service time — the CLI counterpart
        // of `scenarios/serving_diurnal.toml`.
        let demand = ServingDemand::new(
            a.rate * 0.2,
            a.rate,
            Seconds::new(600.0),
            2.5,
            Seconds::new(60.0),
            Seconds::new(420.0),
            a.seed,
        );
        return Ok(synthesize_request_jobs(
            a.jobs,
            &demand,
            Seconds::new(2.0),
            a.seed,
        ));
    }
    let mix = JobMix::default();
    match a.demand.as_str() {
        "constant" => Ok(synthesize_jobs(
            a.jobs,
            &ConstantDemand::new(a.rate),
            mix,
            a.seed,
        )),
        "diurnal" => Ok(synthesize_jobs(
            a.jobs,
            &DiurnalDemand::new(a.rate * 0.2, a.rate, Seconds::new(600.0)),
            mix,
            a.seed,
        )),
        "bursty" => Ok(synthesize_jobs(
            a.jobs,
            &BurstyDemand::new(
                a.rate * 0.2,
                a.rate,
                Seconds::new(60.0),
                Seconds::new(240.0),
                a.seed,
            ),
            mix,
            a.seed,
        )),
        other => Err(format!("unknown demand model `{other}`")),
    }
}

fn cmd_fleet(raw: &[String]) -> ExitCode {
    let a = match parse_fleet_args(raw) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let racks = a.racks.unwrap_or(match a.servers {
        0..=1 => 1,
        2..=15 => 2,
        n => n / 8,
    });
    let servers_per_rack = a.servers.div_ceil(racks);
    if racks * servers_per_rack != a.servers {
        println!(
            "note: rounding {} servers up to {} ({racks} racks × {servers_per_rack}) so every rack is full",
            a.servers,
            racks * servers_per_rack
        );
    }
    let jobs = match synthesize_fleet_jobs(&a) {
        Ok(j) => j,
        Err(e) => return fail(e),
    };

    let mut dispatchers: Vec<Box<dyn FleetDispatcher>> = Vec::new();
    match a.dispatcher.as_str() {
        "all" => {
            dispatchers.push(Box::new(RoundRobin::default()));
            dispatchers.push(Box::new(CoolestRackFirst));
            dispatchers.push(Box::new(ThermalAwareDispatch::default()));
        }
        "rr" | "round-robin" => dispatchers.push(Box::new(RoundRobin::default())),
        "coolest" | "coolest-rack-first" => dispatchers.push(Box::new(CoolestRackFirst)),
        "thermal" | "thermal-aware" => dispatchers.push(Box::new(ThermalAwareDispatch::default())),
        "planned" => dispatchers.push(Box::new(PlannedDispatch)),
        other => {
            return fail(format!(
                "unknown dispatcher `{other}` (use all, rr, coolest, thermal or planned)"
            ))
        }
    }

    let mut config = FleetConfig::new(racks, servers_per_rack);
    config.grid_pitch_mm = a.pitch;
    config.chiller = Chiller::new(Celsius::new(a.ambient));
    config.policy = a.policy;
    config.threads = a.threads;
    config.serving = a.serving;
    if !a.classes.is_empty() {
        // Classes cycle across racks: rack r is entirely class r mod k.
        let k = a.classes.len();
        config.catalog =
            FleetCatalog::new(a.classes.clone()).assign((0..racks).map(|r| vec![r % k]).collect());
    }
    let fleet = Fleet::new(config);

    println!(
        "fleet: {racks} racks × {servers_per_rack} servers, {} jobs ({} demand, rate {} jobs/s, seed {})",
        jobs.len(),
        if a.serving { "serving" } else { &a.demand },
        a.rate,
        a.seed
    );
    if !a.classes.is_empty() {
        let summary: Vec<String> = a
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{} (pitch {:.1} mm, inlet {:.1} °C, {})",
                    c.name,
                    c.grid_pitch_mm.unwrap_or(a.pitch),
                    c.water_inlet_c
                        .unwrap_or_else(|| fleet.config().op.water_inlet().value()),
                    c.policy.unwrap_or(a.policy).spec_name(),
                )
            })
            .collect();
        println!("classes: {} — cycled across racks", summary.join(", "));
    }
    println!(
        "scenario: heat-recovery loop at {:.1} °C, water inlet {:.1}, {:.1} mm grid, {} warm-up threads",
        a.ambient,
        fleet.config().op.water_inlet(),
        a.pitch,
        a.threads,
    );
    println!(
        "control: {}{}\n",
        a.control.instantiate(servers_per_rack).name(),
        match &a.trace_out {
            Some(dir) => format!(", telemetry every {:.0} s → {dir}/", a.sample),
            None => String::new(),
        }
    );

    let telemetry = a.trace_out.as_ref().map(|_| TelemetryConfig {
        sample_interval: Seconds::new(a.sample),
        capacity: TelemetryConfig::default().capacity,
    });
    if let Some(dir) = &a.trace_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(format!("cannot create `{dir}`: {e}"));
        }
    }
    let cache = OutcomeCache::new();
    let mut outcomes: Vec<FleetOutcome> = Vec::new();
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6} {:>9} {:>9}",
        "dispatcher", "IT kWh", "cool kWh", "tot kWh", "PUE", "viol", "shed", "wait s", "span s"
    );
    let mut peak_queue_depth = 0usize;
    let mut arena_high_water = 0usize;
    for mut d in dispatchers {
        let mut control = a.control.instantiate(servers_per_rack);
        let started = std::time::Instant::now();
        match fleet.simulate_with(
            &jobs,
            d.as_mut(),
            control.as_mut(),
            telemetry.as_ref(),
            &cache,
        ) {
            Ok(result) => {
                let elapsed = started.elapsed().as_secs_f64();
                peak_queue_depth = peak_queue_depth.max(result.stats.peak_queue_depth);
                arena_high_water = arena_high_water.max(result.stats.arena_high_water);
                let out = result.outcome;
                println!(
                    "{:<20} {:>9.3} {:>9.3} {:>9.3} {:>7.3} {:>6} {:>6} {:>9.1} {:>9.1}",
                    out.dispatcher,
                    out.it_energy.to_kwh(),
                    out.cooling_energy.to_kwh(),
                    out.total_energy().to_kwh(),
                    out.pue(),
                    out.violations,
                    out.shed,
                    out.mean_wait.value(),
                    out.makespan.value()
                );
                if a.stats {
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
                        result.stats.table_hits,
                        result.stats.miss_solves,
                        result.stats.lock_acquisitions,
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
                if let (Some(dir), Some(trace)) = (&a.trace_out, result.trace) {
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
            Err(e) => return fail(e),
        }
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
