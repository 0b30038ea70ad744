//! The kernel's scale-trajectory bench: wall time per (servers, jobs,
//! dispatcher) grid point, emitted as machine-readable
//! `BENCH_kernel.json` so CI can regenerate the file and diff it for
//! structural drift.
//!
//! ```text
//! bench_kernel [--scale smoke|full] [--reps N] [--out PATH]   measure and write
//! bench_kernel --check PATH                                   validate a file's schema
//! ```
//!
//! The emitted document (`schema: tps-kernel-bench/4`) carries two
//! sections:
//!
//! * `baseline` — the pinned pre-kernel trajectory (binary-heap event
//!   queue + per-arrival full-fleet rescan, measured on the v5 seed);
//!   constants, never re-measured.
//! * `current` — this build, measured now: `wall_ms` (minimum over
//!   `--reps` runs, so a noisy box cannot inflate a point) plus the
//!   kernel's queue counters (`events`, `peak_queue_depth`,
//!   `arena_high_water`), the two-tier cache counters of the last rep
//!   (`table_hits`, `miss_solves`, `lock_acquisitions` — the last two
//!   read 0 on every steady-state point: the pre-published `SolveTable`
//!   absorbs all lookups lock-free) and the tier's one-off `warm_ms`
//!   (solving + publishing the physics table, paid once per tier and
//!   excluded from `wall_ms`).
//!
//! `--scale smoke` measures only the 1k-server tier (CI-sized);
//! `--scale full` walks the whole 1k/10k/100k grid, the 100k × 1M point
//! being the million-job headline. The methodology matches `tps fleet`:
//! racks of 8, 3 mm grid, diurnal demand at 0.7 jobs/s, seed 42, one
//! shared physics cache warmed by an untimed round-robin pass per tier.

use std::time::Instant;
use tps_cluster::{
    synthesize_jobs, CoolestRackFirst, Fleet, FleetConfig, FleetDispatcher, JobMix, OutcomeCache,
    RoundRobin, StaticControl, ThermalAwareDispatch,
};
use tps_units::Seconds;
use tps_workload::DiurnalDemand;

/// The pinned scale grid: (servers, jobs).
const SCALES: &[(usize, usize)] = &[(1_000, 10_000), (10_000, 100_000), (100_000, 1_000_000)];

/// The pre-kernel trajectory, measured on the v5 seed (debug-free
/// release build, single core). 100k × 1M was only feasible for
/// round-robin — the rescan dispatchers were quadratic at that scale.
const BASELINE: &[(usize, usize, &str, f64)] = &[
    (1_000, 10_000, "round-robin", 472.0),
    (1_000, 10_000, "coolest-rack-first", 458.0),
    (1_000, 10_000, "thermal-aware", 536.0),
    (10_000, 100_000, "round-robin", 2429.0),
    (10_000, 100_000, "coolest-rack-first", 2122.0),
    (10_000, 100_000, "thermal-aware", 4635.0),
    (100_000, 1_000_000, "round-robin", 178302.0),
];

fn dispatcher(name: &str) -> Box<dyn FleetDispatcher> {
    match name {
        "round-robin" => Box::new(RoundRobin::default()),
        "coolest-rack-first" => Box::new(CoolestRackFirst),
        "thermal-aware" => Box::new(ThermalAwareDispatch::default()),
        other => panic!("unknown dispatcher {other}"),
    }
}

struct Point {
    servers: usize,
    jobs: usize,
    dispatcher: &'static str,
    wall_ms: f64,
    events: u64,
    peak_queue_depth: usize,
    arena_high_water: usize,
    table_hits: usize,
    miss_solves: usize,
    lock_acquisitions: usize,
    warm_ms: f64,
}

fn measure(scales: &[(usize, usize)], reps: usize) -> Vec<Point> {
    let mut points = Vec::new();
    for &(servers, jobs) in scales {
        let racks = servers / 8;
        let demand = DiurnalDemand::new(0.7 * 0.2, 0.7, Seconds::new(600.0));
        let stream = synthesize_jobs(jobs, &demand, JobMix::default(), 42);
        let cache = OutcomeCache::new();
        let fleet = Fleet::new(base_config(racks, servers));
        // One-off per tier: solve the distinct physics and freeze them
        // into a published table, timed separately (`warm_ms`), then an
        // untimed replay to warm page tables and branch predictors.
        let warm_ms = {
            let mut pairs: Vec<_> = stream.iter().map(|j| (j.bench, j.qos)).collect();
            pairs.sort();
            pairs.dedup();
            let started = Instant::now();
            fleet
                .warm(&pairs, &cache, FleetConfig::default_threads())
                .expect("cache warm");
            cache.publish();
            started.elapsed().as_secs_f64() * 1e3
        };
        fleet
            .simulate(&stream, &mut RoundRobin::default(), &cache)
            .expect("warm-up run");
        for name in ["round-robin", "coolest-rack-first", "thermal-aware"] {
            let mut wall_ms = f64::INFINITY;
            let mut result = None;
            for _ in 0..reps.max(1) {
                let mut d = dispatcher(name);
                let started = Instant::now();
                let r = fleet
                    .simulate_with(&stream, d.as_mut(), &mut StaticControl, None, &cache)
                    .expect("bench run");
                wall_ms = wall_ms.min(started.elapsed().as_secs_f64() * 1e3);
                result = Some(r);
            }
            let result = result.expect("at least one rep ran");
            eprintln!(
                "{servers} servers x {jobs} jobs, {name}: {wall_ms:.0} ms, {} events",
                result.stats.events
            );
            points.push(Point {
                servers,
                jobs,
                dispatcher: name,
                wall_ms,
                events: result.stats.events,
                peak_queue_depth: result.stats.peak_queue_depth,
                arena_high_water: result.stats.arena_high_water,
                table_hits: result.stats.table_hits,
                miss_solves: result.stats.miss_solves,
                lock_acquisitions: result.stats.lock_acquisitions,
                warm_ms,
            });
        }
    }
    points
}

fn base_config(racks: usize, servers: usize) -> FleetConfig {
    let mut config = FleetConfig::new(racks, servers / racks);
    config.grid_pitch_mm = 3.0;
    config
}

fn emit(scale: &str, points: &[Point]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tps-kernel-bench/4\",\n");
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str("  \"baseline\": {\n    \"name\": \"pre-kernel: binary heap + per-arrival full rescan (v5 seed)\",\n    \"points\": [\n");
    for (i, &(servers, jobs, dispatcher, wall_ms)) in BASELINE.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"servers\": {servers}, \"jobs\": {jobs}, \"dispatcher\": \"{dispatcher}\", \"wall_ms\": {wall_ms:.1}}}{}\n",
            if i + 1 < BASELINE.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n  },\n");
    out.push_str("  \"current\": {\n    \"name\": \"frozen solve table + streamed arrivals + calendar queue + incremental ranking + online energy integration\",\n    \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"servers\": {}, \"jobs\": {}, \"dispatcher\": \"{}\", \"wall_ms\": {:.1}, \"events\": {}, \"peak_queue_depth\": {}, \"arena_high_water\": {}, \"table_hits\": {}, \"miss_solves\": {}, \"lock_acquisitions\": {}, \"warm_ms\": {:.1}}}{}\n",
            p.servers,
            p.jobs,
            p.dispatcher,
            p.wall_ms,
            p.events,
            p.peak_queue_depth,
            p.arena_high_water,
            p.table_hits,
            p.miss_solves,
            p.lock_acquisitions,
            p.warm_ms,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

/// Structural validation: the v4 schema header (exactly one schema
/// version anywhere in the file — a document mixing earlier-version
/// points into a `/4` header is rejected, and a plain v3 file fails the
/// header check), both sections, and every point carrying the required
/// keys (`current` points must carry the kernel and cache counters and
/// `warm_ms`). Timings are free to drift — CI fails only on shape.
fn check(doc: &str) -> Result<(), String> {
    if !doc.contains("\"schema\": \"tps-kernel-bench/4\"") {
        return Err("missing or wrong schema marker (want tps-kernel-bench/4)".into());
    }
    for version in doc.split("tps-kernel-bench/").skip(1) {
        if !version.starts_with('4') {
            return Err(format!(
                "mixed schema versions: found tps-kernel-bench/{} alongside /4",
                version.chars().next().unwrap_or('?')
            ));
        }
    }
    if !doc.contains("\"scale\": ") {
        return Err("missing \"scale\"".into());
    }
    for section in ["baseline", "current"] {
        let start = doc
            .find(&format!("\"{section}\""))
            .ok_or_else(|| format!("missing \"{section}\" section"))?;
        let body = &doc[start..];
        let points = body
            .find("\"points\": [")
            .ok_or_else(|| format!("{section}: missing points array"))?;
        let rest = &body[points..];
        let end = rest
            .find(']')
            .ok_or_else(|| format!("{section}: unterminated points array"))?;
        let objects: Vec<&str> = rest[..end]
            .split("},")
            .filter(|s| s.contains('{'))
            .collect();
        if objects.is_empty() {
            return Err(format!("{section}: no points"));
        }
        for (i, o) in objects.iter().enumerate() {
            for key in [
                "\"servers\":",
                "\"jobs\":",
                "\"dispatcher\":",
                "\"wall_ms\":",
            ] {
                if !o.contains(key) {
                    return Err(format!("{section} point {i}: missing {key}"));
                }
            }
            if section == "current" {
                for key in [
                    "\"events\":",
                    "\"peak_queue_depth\":",
                    "\"arena_high_water\":",
                    "\"table_hits\":",
                    "\"miss_solves\":",
                    "\"lock_acquisitions\":",
                    "\"warm_ms\":",
                ] {
                    if !o.contains(key) {
                        return Err(format!("{section} point {i}: missing {key}"));
                    }
                }
            }
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = "smoke".to_owned();
    let mut out = "BENCH_kernel.json".to_owned();
    let mut reps: Option<usize> = None;
    let mut check_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args.get(i).expect("--scale needs a value").clone();
            }
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out needs a value").clone();
            }
            "--reps" => {
                i += 1;
                reps = Some(
                    args.get(i)
                        .expect("--reps needs a value")
                        .parse()
                        .expect("--reps must be a positive integer"),
                );
            }
            "--check" => {
                i += 1;
                check_path = Some(args.get(i).expect("--check needs a path").clone());
            }
            other => panic!("unknown argument {other} (use --scale, --reps, --out or --check)"),
        }
        i += 1;
    }

    if let Some(path) = check_path {
        let doc =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match check(&doc) {
            Ok(()) => println!("{path}: structurally valid tps-kernel-bench/4"),
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let scales: &[(usize, usize)] = match scale.as_str() {
        "smoke" => &SCALES[..1],
        "full" => SCALES,
        other => panic!("unknown scale {other} (use smoke or full)"),
    };
    // Smoke keeps CI fast with single runs; full takes the min of three
    // so the headline points are measured, not box noise.
    let reps = reps.unwrap_or(match scale.as_str() {
        "full" => 3,
        _ => 1,
    });
    let points = measure(scales, reps);
    let doc = emit(&scale, &points);
    check(&doc).expect("self-emitted document must validate");
    std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("[wrote {out}]");
}
