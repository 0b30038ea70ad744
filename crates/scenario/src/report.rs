//! Sweep report emitters: a per-grid-point CSV and a rendered Markdown
//! summary table with deltas against a baseline grid point.
//!
//! Both emitters format floats with fixed precision, so two runs of the
//! same spec produce byte-identical files — the CI determinism smoke
//! diffs them directly.

use crate::spec::Scenario;
use tps_cluster::FleetOutcome;

/// One grid point's summary: scenario coordinates plus the fleet outcome,
/// flattened to plain numbers for emission.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Grid-point name (`path=value,…`, or the spec name for a
    /// single-point sweep).
    pub name: String,
    /// Dispatcher spelling (`rr`/`coolest`/`thermal`).
    pub dispatcher: &'static str,
    /// Control-policy spelling (`static`/`setpoint`/`shed`).
    pub control: &'static str,
    /// Rack count.
    pub racks: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// Jobs in the stream.
    pub jobs: usize,
    /// IT energy, kWh.
    pub it_kwh: f64,
    /// Chiller electrical energy, kWh.
    pub cooling_kwh: f64,
    /// IT + cooling, kWh.
    pub total_kwh: f64,
    /// Energy-based PUE.
    pub pue: f64,
    /// QoS violations.
    pub violations: usize,
    /// Arrivals rejected by admission control.
    pub shed: usize,
    /// Mean queueing delay, seconds.
    pub mean_wait_s: f64,
    /// Worst queueing delay, seconds.
    pub max_wait_s: f64,
    /// End of the last execution, seconds.
    pub makespan_s: f64,
    /// Highest instantaneous heat any rack carried, watts.
    pub peak_rack_w: f64,
    /// Serving-mode latency/capacity summary; `None` for batch grid
    /// points, which keeps batch reports byte-identical to pre-serving
    /// output (the columns are emitted only when some row carries one).
    pub serving: Option<ServingRow>,
    /// Per-class breakdown (one entry on a homogeneous fleet; emitted as
    /// extra columns only when a report mixes classes).
    pub classes: Vec<ClassRow>,
}

/// A serving grid point's latency percentiles and scaling footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRow {
    /// Median request latency (queueing wait + service), seconds.
    pub p50_s: f64,
    /// 99th-percentile request latency, seconds.
    pub p99_s: f64,
    /// Time-weighted mean of the active-server count over the run.
    pub mean_active_servers: f64,
}

/// One catalog class's share of a grid point's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRow {
    /// Class name.
    pub name: String,
    /// Active package energy of this class, kWh (idle floor excluded).
    pub it_kwh: f64,
    /// QoS violations on this class.
    pub violations: usize,
    /// Placements on this class.
    pub placements: usize,
}

impl SweepRow {
    /// Flattens one executed grid point. `pue` reads NaN when the point
    /// consumed no IT energy; [`Sweep::run`](crate::Sweep::run) rejects
    /// such a point with [`SweepError::NoItEnergy`](crate::SweepError::NoItEnergy)
    /// before it becomes a row.
    pub fn new(scenario: &Scenario, outcome: &FleetOutcome) -> Self {
        Self {
            name: scenario.name.clone(),
            dispatcher: scenario.dispatcher.spec_name(),
            control: scenario.control.spec_name(),
            racks: scenario.racks,
            servers_per_rack: scenario.servers_per_rack,
            jobs: scenario.jobs,
            it_kwh: outcome.it_energy.to_kwh(),
            cooling_kwh: outcome.cooling_energy.to_kwh(),
            total_kwh: outcome.total_energy().to_kwh(),
            pue: outcome.pue().unwrap_or(f64::NAN),
            violations: outcome.violations,
            shed: outcome.shed,
            mean_wait_s: outcome.mean_wait.value(),
            max_wait_s: outcome.max_wait.value(),
            makespan_s: outcome.makespan.value(),
            peak_rack_w: outcome.peak_rack_heat.value(),
            serving: outcome.serving.as_ref().map(|s| ServingRow {
                p50_s: s.latency_p50.value(),
                p99_s: s.latency_p99.value(),
                mean_active_servers: s.mean_active_servers,
            }),
            classes: outcome
                .class_names
                .iter()
                .enumerate()
                .map(|(i, name)| ClassRow {
                    name: name.clone(),
                    it_kwh: outcome.class_it_energy[i].to_kwh(),
                    violations: outcome.class_violations[i],
                    placements: outcome.class_placements[i],
                })
                .collect(),
        }
    }
}

/// An executed sweep, ready to emit.
///
/// ```
/// use tps_scenario::{SweepReport, SweepRow};
///
/// let report = SweepReport {
///     spec_name: "demo".into(),
///     axes: vec!["cooling.heat_reuse_c".into()],
///     rows: vec![
///         SweepRow {
///             name: "cooling.heat_reuse_c=45".into(),
///             dispatcher: "thermal",
///             control: "static",
///             racks: 2,
///             servers_per_rack: 2,
///             jobs: 16,
///             it_kwh: 0.0403,
///             cooling_kwh: 0.0101,
///             total_kwh: 0.0504,
///             pue: 1.25,
///             violations: 1,
///             shed: 0,
///             mean_wait_s: 0.4,
///             max_wait_s: 3.1,
///             makespan_s: 61.0,
///             peak_rack_w: 141.0,
///             serving: None,
///             classes: vec![],
///         },
///     ],
///     baseline: 0,
///     cache_solves: 12,
///     cache_hits: 40,
///     table_hits: 40,
///     miss_solves: 0,
///     lock_acquisitions: 12,
///     peak_queue_depth: 33,
///     arena_high_water: 33,
/// };
/// assert!(report.to_csv().starts_with("name,dispatcher"));
/// assert!(report.to_markdown().contains("| cooling.heat_reuse_c=45 |"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The spec's name.
    pub spec_name: String,
    /// The axis paths, in file order.
    pub axes: Vec<String>,
    /// One row per grid point, in grid order.
    pub rows: Vec<SweepRow>,
    /// Index into `rows` deltas are taken against.
    pub baseline: usize,
    /// Coupled per-server solves the whole grid performed (the sweep's
    /// core speed lever — one per distinct cache key, so policies that
    /// map a job onto the same cores share one).
    pub cache_solves: usize,
    /// Warmed triples and lookups served from memory across the whole
    /// grid (a warmed triple is one solve or one hit).
    pub cache_hits: usize,
    /// Demand-state lookups served lock-free from published
    /// [`SolveTable`](tps_cluster::SolveTable) epochs across the grid —
    /// after the phase-boundary publication, every grid point's lookups
    /// land here.
    pub table_hits: usize,
    /// Solves taken through the locked miss path because a published
    /// table lacked the key (zero on a grid whose phase-1 warm covered
    /// every pair).
    pub miss_solves: usize,
    /// Map and publication lock acquisitions across the grid — the warm
    /// phase owns effectively all of them; phase-2 replays add one table
    /// fetch each.
    pub lock_acquisitions: usize,
    /// Deepest the event queue got on any grid point (diagnostic only —
    /// never part of the determinism surface). Arrivals and in-place
    /// starts never enter the queue, so an open-loop grid reads 0.
    pub peak_queue_depth: usize,
    /// Largest event-arena footprint on any grid point, in slots.
    pub arena_high_water: usize,
}

impl SweepReport {
    /// The baseline row.
    ///
    /// # Panics
    ///
    /// Panics if the report has no rows (a parsed sweep always has ≥ 1).
    pub fn baseline_row(&self) -> &SweepRow {
        &self.rows[self.baseline]
    }

    /// The class names any heterogeneous row carries, in order of first
    /// appearance across the grid — empty when every row is single-class,
    /// so homogeneous reports keep the exact pre-catalog column set.
    fn class_columns(&self) -> Vec<String> {
        if self.rows.iter().all(|r| r.classes.len() <= 1) {
            return Vec::new();
        }
        let mut names: Vec<String> = Vec::new();
        for r in &self.rows {
            for c in &r.classes {
                if !names.contains(&c.name) {
                    names.push(c.name.clone());
                }
            }
        }
        names
    }

    /// Whether any grid point ran in serving mode (batch-only reports
    /// must keep the exact pre-serving column set).
    fn has_serving(&self) -> bool {
        self.rows.iter().any(|r| r.serving.is_some())
    }

    /// `(planner row, greedy partner row)` index pairs: a grid point
    /// under planner control (or planned dispatch) matched to the
    /// non-planner point that shares every *other* axis value — the two
    /// names agree once their `control.policy=`/`dispatch.dispatcher=`
    /// components are stripped. This is the optimality-gap comparison the
    /// planner sweeps exist for; a grid without such pairs (no planner
    /// rows, or nothing to pair them with) yields none, keeping older
    /// reports byte-identical.
    fn gap_pairs(&self) -> Vec<(usize, usize)> {
        fn strip(name: &str) -> Vec<&str> {
            name.split(',')
                .filter(|part| {
                    !part.starts_with("control.policy=")
                        && !part.starts_with("dispatch.dispatcher=")
                })
                .collect()
        }
        let is_planner = |r: &SweepRow| r.control == "planner" || r.dispatcher == "planned";
        let mut pairs = Vec::new();
        for (i, r) in self.rows.iter().enumerate() {
            if !is_planner(r) {
                continue;
            }
            let key = strip(&r.name);
            if let Some(j) = self
                .rows
                .iter()
                .position(|o| !is_planner(o) && strip(&o.name) == key)
            {
                pairs.push((i, j));
            }
        }
        pairs
    }

    /// The full per-grid-point CSV (header + one line per row), floats at
    /// fixed precision for byte-determinism. When the grid mixes server
    /// classes, `class_<name>_it_kwh`/`class_<name>_viol` columns are
    /// appended (blank where a grid point lacks the class). When any grid
    /// point ran in serving mode, `lat_p50_s`/`lat_p99_s`/
    /// `mean_active_servers` columns are appended ahead of the class
    /// columns (blank for batch points). When the grid pairs planner
    /// points with greedy partners (see the optimality-gap section of the
    /// Markdown report), `gap_total_kwh`/`gap_cool_kwh`/`gap_viol`
    /// columns are appended last (blank for unpaired rows; negative gap =
    /// the planner won).
    pub fn to_csv(&self) -> String {
        let class_columns = self.class_columns();
        let serving = self.has_serving();
        let pairs = self.gap_pairs();
        let mut out = String::new();
        out.push_str(
            "name,dispatcher,control,racks,servers_per_rack,jobs,it_kwh,cooling_kwh,total_kwh,\
             pue,violations,shed,mean_wait_s,max_wait_s,makespan_s,peak_rack_w",
        );
        if serving {
            out.push_str(",lat_p50_s,lat_p99_s,mean_active_servers");
        }
        for name in &class_columns {
            out.push_str(&format!(",class_{name}_it_kwh,class_{name}_viol"));
        }
        if !pairs.is_empty() {
            out.push_str(",gap_total_kwh,gap_cool_kwh,gap_viol");
        }
        out.push('\n');
        for (idx, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.4},{},{},{:.3},{:.3},{:.3},{:.1}",
                csv_field(&r.name),
                r.dispatcher,
                r.control,
                r.racks,
                r.servers_per_rack,
                r.jobs,
                r.it_kwh,
                r.cooling_kwh,
                r.total_kwh,
                r.pue,
                r.violations,
                r.shed,
                r.mean_wait_s,
                r.max_wait_s,
                r.makespan_s,
                r.peak_rack_w,
            ));
            if serving {
                match &r.serving {
                    Some(s) => out.push_str(&format!(
                        ",{:.3},{:.3},{:.1}",
                        s.p50_s, s.p99_s, s.mean_active_servers
                    )),
                    None => out.push_str(",,,"),
                }
            }
            for name in &class_columns {
                match r.classes.iter().find(|c| &c.name == name) {
                    Some(c) => {
                        out.push_str(&format!(",{:.6},{}", c.it_kwh, c.violations));
                    }
                    None => out.push_str(",,"),
                }
            }
            if !pairs.is_empty() {
                match pairs.iter().find(|(i, _)| *i == idx) {
                    Some(&(_, j)) => {
                        let g = &self.rows[j];
                        out.push_str(&format!(
                            ",{:.6},{:.6},{}",
                            r.total_kwh - g.total_kwh,
                            r.cooling_kwh - g.cooling_kwh,
                            r.violations as i64 - g.violations as i64,
                        ));
                    }
                    None => out.push_str(",,,"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// A rendered Markdown summary: energy, QoS and per-row deltas against
    /// the baseline grid point.
    pub fn to_markdown(&self) -> String {
        let base = self.baseline_row();
        let mut out = format!(
            "# Sweep report: {}\n\n{} grid point{} ({}); baseline `{}`.\n\n",
            self.spec_name,
            self.rows.len(),
            if self.rows.len() == 1 { "" } else { "s" },
            if self.axes.is_empty() {
                "no sweep axes".to_owned()
            } else {
                format!("axes: {}", self.axes.join(" × "))
            },
            base.name,
        );
        out.push_str(
            "| scenario | disp | ctrl | total kWh | IT kWh | cool kWh | PUE | viol | shed | \
             Δtotal | Δcool |\n\
             |---|---|---|---:|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for (i, r) in self.rows.iter().enumerate() {
            let (d_total, d_cool) = if i == self.baseline {
                ("—".to_owned(), "—".to_owned())
            } else {
                (
                    delta_pct(r.total_kwh, base.total_kwh),
                    delta_pct(r.cooling_kwh, base.cooling_kwh),
                )
            };
            out.push_str(&format!(
                "| {} | {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {} | {} | {} | {} |\n",
                r.name,
                r.dispatcher,
                r.control,
                r.total_kwh,
                r.it_kwh,
                r.cooling_kwh,
                r.pue,
                r.violations,
                r.shed,
                d_total,
                d_cool,
            ));
        }
        if self.has_serving() {
            out.push_str(
                "\n## Serving latency\n\n\
                 | scenario | p50 s | p99 s | mean active servers |\n\
                 |---|---:|---:|---:|\n",
            );
            for r in &self.rows {
                if let Some(s) = &r.serving {
                    out.push_str(&format!(
                        "| {} | {:.3} | {:.3} | {:.1} |\n",
                        r.name, s.p50_s, s.p99_s, s.mean_active_servers,
                    ));
                }
            }
        }
        let pairs = self.gap_pairs();
        if !pairs.is_empty() {
            out.push_str(
                "\n## Optimality gap\n\n\
                 Planner grid points against the greedy partner sharing every other axis \
                 value (negative Δ = the planner won).\n\n\
                 | planner point | greedy partner | Δtotal kWh | Δcool kWh | Δviol |\n\
                 |---|---|---:|---:|---:|\n",
            );
            for &(i, j) in &pairs {
                let (p, g) = (&self.rows[i], &self.rows[j]);
                out.push_str(&format!(
                    "| {} | {} | {:+.6} | {:+.6} | {:+} |\n",
                    p.name,
                    g.name,
                    p.total_kwh - g.total_kwh,
                    p.cooling_kwh - g.cooling_kwh,
                    p.violations as i64 - g.violations as i64,
                ));
            }
        }
        if !self.class_columns().is_empty() {
            out.push_str(
                "\n## Per-class breakdown\n\n\
                 | scenario | class | IT kWh | viol | jobs |\n\
                 |---|---|---:|---:|---:|\n",
            );
            for r in &self.rows {
                for c in &r.classes {
                    out.push_str(&format!(
                        "| {} | {} | {:.3} | {} | {} |\n",
                        r.name, c.name, c.it_kwh, c.violations, c.placements,
                    ));
                }
            }
        }
        out
    }
}

/// `+x.x %` relative change of `value` against `base`; `n/a` when the
/// baseline is zero.
fn delta_pct(value: f64, base: f64) -> String {
    if base == 0.0 {
        return "n/a".to_owned();
    }
    format!("{:+.1} %", 100.0 * (value / base - 1.0))
}

/// Quotes a CSV field if it contains a comma or quote (grid-point names
/// contain commas whenever a sweep has more than one axis).
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, total: f64, cool: f64) -> SweepRow {
        SweepRow {
            name: name.to_owned(),
            dispatcher: "thermal",
            control: "static",
            racks: 2,
            servers_per_rack: 2,
            jobs: 16,
            it_kwh: total - cool,
            cooling_kwh: cool,
            total_kwh: total,
            pue: total / (total - cool),
            violations: 0,
            shed: 0,
            mean_wait_s: 0.0,
            max_wait_s: 0.0,
            makespan_s: 100.0,
            peak_rack_w: 140.0,
            serving: None,
            classes: vec![],
        }
    }

    fn report() -> SweepReport {
        SweepReport {
            spec_name: "t".into(),
            axes: vec!["cooling.heat_reuse_c".into(), "dispatch.dispatcher".into()],
            rows: vec![row("a=1,b=rr", 1.0, 0.2), row("a=2,b=rr", 0.9, 0.1)],
            baseline: 0,
            cache_solves: 0,
            cache_hits: 0,
            table_hits: 0,
            miss_solves: 0,
            lock_acquisitions: 0,
            peak_queue_depth: 0,
            arena_high_water: 0,
        }
    }

    #[test]
    fn csv_quotes_comma_names_and_has_one_line_per_row() {
        let csv = report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("\"a=1,b=rr\",thermal,static,2,2,16,"));
    }

    #[test]
    fn markdown_reports_deltas_against_the_baseline() {
        let md = report().to_markdown();
        assert!(md.contains("baseline `a=1,b=rr`"), "{md}");
        assert!(md.contains("| — | — |"), "{md}");
        assert!(md.contains("-10.0 %"), "{md}");
        assert!(md.contains("-50.0 %"), "{md}");
        assert!(
            md.contains("cooling.heat_reuse_c × dispatch.dispatcher"),
            "{md}"
        );
    }

    #[test]
    fn zero_baseline_energy_reports_na() {
        assert_eq!(delta_pct(1.0, 0.0), "n/a");
        assert_eq!(delta_pct(1.1, 1.0), "+10.0 %");
    }

    #[test]
    fn heterogeneous_rows_emit_per_class_columns() {
        let mut rep = report();
        rep.rows[0].classes = vec![
            ClassRow {
                name: "dense".into(),
                it_kwh: 0.5,
                violations: 1,
                placements: 10,
            },
            ClassRow {
                name: "sparse".into(),
                it_kwh: 0.3,
                violations: 0,
                placements: 6,
            },
        ];
        // Row 1 only hosts `dense`: the sparse columns stay blank there.
        rep.rows[1].classes = vec![ClassRow {
            name: "dense".into(),
            it_kwh: 0.8,
            violations: 0,
            placements: 16,
        }];
        let csv = rep.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(
            header.ends_with(
                "class_dense_it_kwh,class_dense_viol,class_sparse_it_kwh,class_sparse_viol"
            ),
            "{header}"
        );
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .ends_with("0.500000,1,0.300000,0"));
        assert!(csv.lines().nth(2).unwrap().ends_with("0.800000,0,,"));
        let md = rep.to_markdown();
        assert!(md.contains("Per-class breakdown"), "{md}");
        assert!(md.contains("| sparse | 0.300 | 0 | 6 |"), "{md}");

        // A fully homogeneous report keeps the pre-catalog column set.
        let plain = report().to_csv();
        assert!(plain.lines().next().unwrap().ends_with("peak_rack_w"));
        assert!(!report().to_markdown().contains("Per-class breakdown"));
    }

    #[test]
    fn planner_rows_pair_with_greedy_partners_into_a_gap_table() {
        let mut rep = report();
        rep.rows = vec![
            row("control.policy=static,workload.seed=1", 1.0, 0.30),
            row("control.policy=planner,workload.seed=1", 0.9, 0.21),
            row("control.policy=static,workload.seed=2", 1.1, 0.32),
            row("control.policy=planner,workload.seed=2", 1.0, 0.25),
        ];
        rep.rows[1].control = "planner";
        rep.rows[3].control = "planner";
        rep.rows[3].violations = 1;
        let csv = rep.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(
            header.ends_with("peak_rack_w,gap_total_kwh,gap_cool_kwh,gap_viol"),
            "{header}"
        );
        // Planner rows carry their gap against the matched static point;
        // static rows keep the field count with blanks.
        assert!(csv.lines().nth(1).unwrap().ends_with(",,,"));
        assert!(csv
            .lines()
            .nth(2)
            .unwrap()
            .ends_with("-0.100000,-0.090000,0"));
        assert!(csv
            .lines()
            .nth(4)
            .unwrap()
            .ends_with("-0.100000,-0.070000,1"));
        let md = rep.to_markdown();
        assert!(md.contains("## Optimality gap"), "{md}");
        assert!(
            md.contains(
                "| control.policy=planner,workload.seed=1 | \
                 control.policy=static,workload.seed=1 | -0.100000 | -0.090000 | +0 |"
            ),
            "{md}"
        );

        // A planner-free report keeps the exact pre-gap surface.
        let plain = report();
        assert!(plain
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .ends_with("peak_rack_w"));
        assert!(!plain.to_markdown().contains("Optimality gap"));
    }

    #[test]
    fn serving_rows_emit_latency_columns_batch_rows_stay_blank() {
        let mut rep = report();
        rep.rows[0].serving = Some(ServingRow {
            p50_s: 2.125,
            p99_s: 7.25,
            mean_active_servers: 2.5,
        });
        let csv = rep.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(
            header.ends_with("peak_rack_w,lat_p50_s,lat_p99_s,mean_active_servers"),
            "{header}"
        );
        assert!(csv.lines().nth(1).unwrap().ends_with("2.125,7.250,2.5"));
        // The batch row keeps its field count with blanks.
        assert!(csv.lines().nth(2).unwrap().ends_with(",,,"));
        let md = rep.to_markdown();
        assert!(md.contains("## Serving latency"), "{md}");
        assert!(md.contains("| 2.125 | 7.250 | 2.5 |"), "{md}");

        // A batch-only report carries neither the columns nor the section.
        let plain = report();
        assert!(plain
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .ends_with("peak_rack_w"));
        assert!(!plain.to_markdown().contains("Serving latency"));
    }
}
