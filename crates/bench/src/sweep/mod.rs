//! The parallel, deterministic batch-experiment harness.
//!
//! A [`SweepConfig`] names a grid of `(method × population × churn ×
//! seed)` cells. [`run_sweep`] expands it ([`expand`]), runs the cells
//! through [`run_cells`], and aggregates the per-seed metrics of each
//! `(method, population, churn)` group into mean / stddev / median /
//! 95%-CI rows ([`SweepReport`]), rendered as a human table
//! ([`SweepReport::to_table`]) or JSON ([`SweepReport::to_json`], written
//! to `results/sweep_<tag>.json` by the `dco-sweep` binary).
//!
//! # Determinism contract
//!
//! Every cell's simulation seed is a pure function of the sweep master
//! seed and the cell's **coordinates** ([`ScenarioGrid::cell_seed`]) —
//! never of its position in the grid or the thread that picks it up. Each
//! cell runs a fresh single-threaded [`Simulator`], so a cell's
//! [`CellProof`] (trace digest + counter snapshot) is identical whether
//! the cell runs alone, under `--jobs 1`, or under `--jobs N`. The
//! `determinism` integration tests and the CI smoke job assert exactly
//! this.
//!
//! [`Simulator`]: dco_sim::engine::Simulator
//! [`CellProof`]: crate::runner::CellProof

pub mod json;

use dco_metrics::stats::SummaryStats;
use dco_workload::{ChurnLevel, GridCell, ScenarioGrid};

use crate::figs::FigScale;
use crate::runner::{run_cells, Cell, Method, RunParams, RunStats};
use json::Json;

/// The full specification of a batch sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Methods to compare.
    pub methods: Vec<Method>,
    /// Scenario axes (population × churn × seed).
    pub grid: ScenarioGrid,
    /// Master seed all cell seeds derive from.
    pub master_seed: u64,
    /// Chunks, horizons, neighbours, fill offset and worker threads, as
    /// in the figures' static Figs. 7 and 10 and churn Figs. 11–12 runs.
    /// The grid replaces the scale's population and seeds; the sweep reads
    /// no figure axis.
    pub scale: FigScale,
}

impl SweepConfig {
    /// A small-scale default: DCO vs pull over two populations, five
    /// seeds, static and 20 s-life churn.
    pub fn small() -> Self {
        SweepConfig {
            methods: vec![Method::Dco, Method::Pull],
            grid: ScenarioGrid {
                populations: vec![32, 64],
                churn: vec![ChurnLevel::Static, ChurnLevel::MeanLife(20)],
                seeds: ScenarioGrid::seed_list(0xD15C0, 5),
            },
            master_seed: 42,
            scale: FigScale::small(),
        }
    }

    /// A minimal grid for CI smoke runs and tests: 2 methods × 1
    /// population × static × 2 seeds at toy scale.
    pub fn tiny() -> Self {
        SweepConfig {
            grid: ScenarioGrid {
                populations: vec![16],
                churn: vec![ChurnLevel::Static],
                seeds: ScenarioGrid::seed_list(0xD15C0, 2),
            },
            scale: FigScale {
                n_chunks: 6,
                churn_chunks: 8,
                default_neighbors: 6,
                static_horizon: 30,
                churn_horizon: 40,
                ..FigScale::small()
            },
            ..SweepConfig::small()
        }
    }

    /// Paper-scale: the four §IV methods over 512/1024 nodes, static and
    /// 60 s-life churn, five seeds.
    pub fn paper() -> Self {
        SweepConfig {
            methods: Method::MAIN.to_vec(),
            grid: ScenarioGrid {
                populations: vec![512, 1024],
                churn: vec![ChurnLevel::Static, ChurnLevel::MeanLife(60)],
                seeds: ScenarioGrid::seed_list(0xD15C0, 5),
            },
            master_seed: 42,
            scale: FigScale::paper(),
        }
    }

    /// The run of one expanded cell.
    pub fn cell(&self, c: &SweepCell) -> Cell {
        let params = match c.churn {
            ChurnLevel::Static => self.scale.default_params(c.sim_seed),
            ChurnLevel::MeanLife(life) => self.scale.churn_params(life, c.sim_seed),
        };
        let n_nodes = c.n_nodes;
        Cell::new(c.method, RunParams { n_nodes, ..params })
    }
}

/// One expanded cell: full coordinates plus the derived simulation seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepCell {
    /// The method axis.
    pub method: Method,
    /// Population of this cell.
    pub n_nodes: u32,
    /// Churn level of this cell.
    pub churn: ChurnLevel,
    /// Seed label from the grid's seed axis.
    pub seed: u64,
    /// The derived master seed fed to the simulator.
    pub sim_seed: u64,
}

/// One finished cell: coordinates + metrics + determinism proof.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell's coordinates.
    pub cell: SweepCell,
    /// Metrics and proof from the run.
    pub stats: RunStats,
}

/// Expands a config into its cell list — deterministic order (method
/// outermost, then the grid's population → churn → seed order) and
/// position-independent cell seeds.
pub fn expand(cfg: &SweepConfig) -> Vec<SweepCell> {
    let cells = |method: Method| cfg.grid.cells(cfg.master_seed, method as u64);
    let at = |method, g: GridCell| SweepCell {
        method,
        n_nodes: g.n_nodes,
        churn: g.churn,
        seed: g.seed,
        sim_seed: g.sim_seed,
    };
    let by_method = cfg
        .methods
        .iter()
        .map(|&m| cells(m).into_iter().map(move |g| at(m, g)));
    by_method.flatten().collect()
}

/// One aggregated row: a `(method, population, churn)` group summarized
/// over its seeds.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Method of this group.
    pub method: Method,
    /// Population of this group.
    pub n_nodes: u32,
    /// Churn level of this group.
    pub churn: ChurnLevel,
    /// Seeds aggregated.
    pub n_seeds: usize,
    /// Mean mesh delay (s) over seeds.
    pub mesh_delay: SummaryStats,
    /// % received by the horizon over seeds.
    pub received_pct: SummaryStats,
    /// Extra overhead (messages) over seeds.
    pub overhead: SummaryStats,
    /// Data transmissions over seeds.
    pub data_msgs: SummaryStats,
}

/// The result of a whole sweep.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The config's master seed (for provenance in JSON).
    pub master_seed: u64,
    /// Aggregated rows in expansion order.
    pub rows: Vec<SweepRow>,
    /// Every cell's outcome in expansion order.
    pub cells: Vec<CellOutcome>,
}

/// Expands, runs and aggregates a sweep.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    let coords = expand(cfg);
    let cells: Vec<Cell> = coords.iter().map(|c| cfg.cell(c)).collect();
    let table = run_cells(&cells, cfg.scale.jobs);
    let outcomes = coords
        .into_iter()
        .enumerate()
        .map(|(i, cell)| CellOutcome {
            cell,
            stats: table.stats(i).clone(),
        })
        .collect();
    aggregate(cfg, outcomes)
}

/// The rows of `cells`: expansion order puts each `(method, population,
/// churn)` group's seeds next to each other.
fn aggregate(cfg: &SweepConfig, cells: Vec<CellOutcome>) -> SweepReport {
    let rows = cells
        .chunks(cfg.grid.seeds.len().max(1))
        .map(|group| {
            let stats = |f: fn(&RunStats) -> f64| {
                SummaryStats::from_samples(&group.iter().map(|c| f(&c.stats)).collect::<Vec<_>>())
            };
            let at = group[0].cell;
            SweepRow {
                method: at.method,
                n_nodes: at.n_nodes,
                churn: at.churn,
                n_seeds: group.len(),
                mesh_delay: stats(|s| s.result.mean_mesh_delay),
                received_pct: stats(|s| s.result.received_pct),
                overhead: stats(|s| s.result.overhead as f64),
                data_msgs: stats(|s| s.result.data_msgs as f64),
            }
        })
        .collect();
    SweepReport {
        master_seed: cfg.master_seed,
        rows,
        cells,
    }
}

fn stats_json(s: &SummaryStats) -> Json {
    Json::obj(vec![
        ("n", Json::Int(s.n as u64)),
        ("mean", Json::Num(s.mean)),
        ("std_dev", Json::Num(s.std_dev)),
        ("median", Json::Num(s.median)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("ci95", Json::Num(s.ci95)),
    ])
}

impl SweepReport {
    /// The JSON document the `dco-sweep` binary writes (schema documented
    /// in EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("method", Json::str(r.method.label())),
                    ("n_nodes", Json::Int(u64::from(r.n_nodes))),
                    ("churn", Json::str(r.churn.label())),
                    ("n_seeds", Json::Int(r.n_seeds as u64)),
                    ("mesh_delay_s", stats_json(&r.mesh_delay)),
                    ("received_pct", stats_json(&r.received_pct)),
                    ("overhead_msgs", stats_json(&r.overhead)),
                    ("data_msgs", stats_json(&r.data_msgs)),
                ])
            })
            .collect();
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("method", Json::str(c.cell.method.label())),
                    ("n_nodes", Json::Int(u64::from(c.cell.n_nodes))),
                    ("churn", Json::str(c.cell.churn.label())),
                    ("seed", Json::Int(c.cell.seed)),
                    ("sim_seed", Json::hex(c.cell.sim_seed)),
                    ("trace_digest", Json::hex(c.stats.proof.trace_digest)),
                    ("counters_digest", Json::hex(c.stats.proof.counters_digest)),
                    ("events", Json::Int(c.stats.proof.events)),
                    ("mesh_delay_s", Json::Num(c.stats.result.mean_mesh_delay)),
                    ("received_pct", Json::Num(c.stats.result.received_pct)),
                    ("overhead_msgs", Json::Int(c.stats.result.overhead)),
                    ("data_msgs", Json::Int(c.stats.result.data_msgs)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str("dco-sweep/v1")),
            ("master_seed", Json::Int(self.master_seed)),
            ("rows", Json::Arr(rows)),
            ("cells", Json::Arr(cells)),
        ])
        .render_pretty()
    }

    /// An aligned human-readable table of the aggregated rows.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(
            "method   nodes    churn  seeds   delay(s)     ±95%     recv(%)     ±95%     overhead        ±95%\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<6} {:>7} {:>8} {:>6} {:>10.3} {:>8.3} {:>11.1} {:>8.1} {:>12.0} {:>11.0}",
                r.method.label(),
                r.n_nodes,
                r.churn.label(),
                r.n_seeds,
                r.mesh_delay.mean,
                r.mesh_delay.ci95,
                r.received_pct.mean,
                r.received_pct.ci95,
                r.overhead.mean,
                r.overhead.ci95,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_covers_the_product_with_distinct_seeds() {
        let cfg = SweepConfig::small();
        let cells = expand(&cfg);
        assert_eq!(cells.len(), 2 * 2 * 2 * 5);
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.sim_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "cell seeds must be distinct");
    }

    #[test]
    fn cell_seed_is_position_independent() {
        let full = SweepConfig::small();
        let mut solo = SweepConfig::small();
        solo.methods = vec![Method::Pull];
        solo.grid.populations = vec![64];
        solo.grid.churn = vec![ChurnLevel::MeanLife(20)];
        solo.grid.seeds = vec![full.grid.seeds[3]];
        let lone = expand(&solo)[0];
        let within = expand(&full)
            .into_iter()
            .find(|c| {
                c.method == Method::Pull
                    && c.n_nodes == 64
                    && c.churn == ChurnLevel::MeanLife(20)
                    && c.seed == full.grid.seeds[3]
            })
            .unwrap();
        assert_eq!(lone, within);
    }

    #[test]
    fn tiny_sweep_aggregates_and_renders() {
        let mut cfg = SweepConfig::tiny();
        cfg.scale.jobs = 2;
        let report = run_sweep(&cfg);
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert_eq!(row.n_seeds, 2);
            assert!(row.received_pct.mean > 90.0, "{}", row.method.label());
            assert!(row.mesh_delay.mean > 0.0);
        }
        let table = report.to_table();
        assert!(table.contains("DCO"));
        assert!(table.contains("pull"));
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"dco-sweep/v1\""));
        assert!(json.contains("\"trace_digest\""));
        assert!(json.contains("\"ci95\""));
    }

    #[test]
    fn jobs_level_does_not_change_outcomes() {
        let mut one = SweepConfig::tiny();
        one.scale.jobs = 1;
        let mut four = SweepConfig::tiny();
        four.scale.jobs = 4;
        let a = run_sweep(&one);
        let b = run_sweep(&four);
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.cell, y.cell);
            assert_eq!(x.stats.proof, y.stats.proof, "cell {:?}", x.cell);
        }
    }
}
