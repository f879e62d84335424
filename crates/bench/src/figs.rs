//! The paper's evaluation figures (§IV, Figs. 5–12) as views over one
//! cell table.
//!
//! Each figure is a plan: the cells it reads, its `(seed × method ×
//! point)` product in that order, and a view that folds one seed's
//! results into the figure; every point is the mean over the scale's
//! seeds. [`run_figures`] concatenates the plans of the requested
//! figures and runs the list once through [`run_cells`], so a run that
//! several figures read (Fig. 5's runs are also Figs. 6 and 8's) happens
//! once; each view then reads its slice of the table, and
//! [`FigureRun::cells_csv`] names every run behind the figures.
//! [`FigScale::paper`] reproduces the published parameters;
//! [`FigScale::small`] is a fast proportional variant for tests and CI.

use std::fmt::Write as _;

use dco_metrics::{average_figures, Figure, Series};
use dco_sim::time::{SimDuration, SimTime};
use dco_workload::{ChurnConfig, ScenarioGrid};

use crate::runner::{run_cells, Cell, CellTable, Method, RunParams, RunResult};

/// The figures, in the paper's order.
pub const NAMES: [&str; 8] = [
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
];

/// Experiment sizing.
#[derive(Clone, Debug)]
pub struct FigScale {
    /// Nodes including the server.
    pub n_nodes: u32,
    /// Chunks for the static figures (5–10).
    pub n_chunks: u32,
    /// Chunks for the churn figures (11–12).
    pub churn_chunks: u32,
    /// Horizon of the static runs, seconds.
    pub static_horizon: u64,
    /// Horizon / last deadline of the churn runs, seconds.
    pub churn_horizon: u64,
    /// Neighbor sweep for Figs. 5, 6, 8.
    pub neighbor_sweep: Vec<usize>,
    /// Population sweep for Fig. 9.
    pub population_sweep: Vec<u32>,
    /// Default neighbor count for the non-sweep figures.
    pub default_neighbors: usize,
    /// Fill-ratio measurement offset for Fig. 6 (time-rebased; the paper's
    /// +2 s instant corresponds to ~+15 s under explicit store-and-forward
    /// serialization — see EXPERIMENTS.md).
    pub fill_offset_secs: u64,
    /// Seeds averaged per point.
    pub seeds: Vec<u64>,
    /// Worker threads for the runner (0 = all cores).
    pub jobs: usize,
}

impl FigScale {
    /// The paper's published parameters.
    pub fn paper() -> Self {
        FigScale {
            n_nodes: 512,
            n_chunks: 100,
            churn_chunks: 200,
            static_horizon: 200,
            churn_horizon: 300,
            neighbor_sweep: (1..=8).map(|k| k * 8).collect(),
            population_sweep: vec![128, 256, 384, 512, 640, 768, 896, 1024],
            default_neighbors: 32,
            fill_offset_secs: 15,
            seeds: ScenarioGrid::seed_list(42, 5),
            jobs: 0,
        }
    }

    /// A proportional fast variant (~8× smaller) for tests and benches.
    pub fn small() -> Self {
        FigScale {
            n_nodes: 64,
            n_chunks: 20,
            churn_chunks: 30,
            static_horizon: 60,
            churn_horizon: 90,
            neighbor_sweep: vec![4, 8, 16, 32],
            population_sweep: vec![32, 48, 64, 96],
            default_neighbors: 16,
            fill_offset_secs: 5,
            seeds: vec![42],
            jobs: 0,
        }
    }

    /// The static §IV run at `neighbors` (Figs. 5, 6, 8, 9 and the
    /// ablations).
    pub(crate) fn static_params(&self, neighbors: usize, seed: u64) -> RunParams {
        RunParams {
            n_nodes: self.n_nodes,
            n_chunks: self.n_chunks,
            neighbors,
            churn: None,
            horizon: SimTime::from_secs(self.static_horizon),
            tree_degree: None,
            fill_offset: SimDuration::from_secs(self.fill_offset_secs),
            seed,
        }
    }

    /// Non-sweep params: the tree runs at out-degree 2, the sustainable
    /// equivalent of the paper's default of 3 children (see
    /// `RunParams::tree_degree`).
    pub(crate) fn default_params(&self, seed: u64) -> RunParams {
        RunParams {
            tree_degree: Some(2),
            ..self.static_params(self.default_neighbors, seed)
        }
    }

    /// A churn run at `mean_life` seconds (Figs. 11–12), the tree at
    /// out-degree 2.
    pub(crate) fn churn_params(&self, mean_life: u64, seed: u64) -> RunParams {
        RunParams {
            n_nodes: self.n_nodes,
            n_chunks: self.churn_chunks,
            neighbors: self.default_neighbors,
            churn: Some(ChurnConfig::paper_fig12(mean_life)),
            horizon: SimTime::from_secs(self.churn_horizon),
            tree_degree: Some(2),
            fill_offset: SimDuration::from_secs(self.fill_offset_secs),
            seed,
        }
    }
}

/// The runs behind one figure and the view that folds them into it.
struct Plan {
    /// `(seed × method × x)` cells, in that order. A timeline figure reads
    /// every x off one run, so its cells repeat and dedupe to one per
    /// method and seed.
    cells: Vec<Cell>,
    /// Title and axes.
    template: Figure,
    methods: Vec<Method>,
    xs: Vec<f64>,
    /// A point's y value from its run and its x.
    y: fn(&RunResult, f64) -> f64,
}

impl Plan {
    /// `template`'s curves, one per method, over `xs`: `params` gives the
    /// run of each x at a seed, `y` reads the point off it.
    fn new(
        scale: &FigScale,
        template: Figure,
        methods: &[Method],
        xs: &[u64],
        params: impl Fn(u64, u64) -> RunParams,
        y: fn(&RunResult, f64) -> f64,
    ) -> Plan {
        let mut cells = Vec::new();
        for &seed in &scale.seeds {
            for &m in methods {
                cells.extend(xs.iter().map(|&x| Cell::new(m, params(x, seed))));
            }
        }
        let xs = xs.iter().map(|&x| x as f64).collect();
        let methods = methods.to_vec();
        Plan {
            cells,
            template,
            methods,
            xs,
            y,
        }
    }

    /// The figure of `results`, this plan's runs in `cells` order: each
    /// seed's figure, averaged point by point.
    fn view(&self, results: &[&RunResult]) -> Figure {
        let per_seed: Vec<Figure> = results
            .chunks(self.methods.len() * self.xs.len())
            .map(|seed| {
                let mut fig = self.template.clone();
                for (m, runs) in self.methods.iter().zip(seed.chunks(self.xs.len())) {
                    let mut s = Series::new(m.label());
                    for (&x, run) in self.xs.iter().zip(runs) {
                        s.push(x, (self.y)(run, x));
                    }
                    fig.push_series(s);
                }
                fig
            })
            .collect();
        average_figures(&per_seed)
    }
}

/// `timeline`'s value at second `t`, or `missing` past its end.
fn at(timeline: &[(f64, f64)], t: f64, missing: f64) -> f64 {
    timeline
        .iter()
        .find(|(x, _)| *x == t)
        .map_or(missing, |&(_, y)| y)
}

/// The plan of figure `name`, one of [`NAMES`].
fn plan(name: &str, scale: &FigScale) -> Option<Plan> {
    let s = scale;
    let neighbors: Vec<u64> = s.neighbor_sweep.iter().map(|&k| k as u64).collect();
    let by_neighbors = |nb: u64, seed| s.static_params(nb as usize, seed);
    let default = |_, seed| s.default_params(seed);
    // Figs. 11–12: mean life horizon / 5 (the paper: 60 s of 300 s).
    let base_life = s.churn_horizon / 5;
    let main = &Method::MAIN;
    // Fig. 5 adds tree* (out-degree = neighbors) to the main four.
    let fig5 = [main.as_slice(), &[Method::TreeStar]].concat();
    Some(match name {
        "fig5" => Plan::new(
            s,
            Figure::new(
                "Fig. 5: mesh delay vs number of neighbors per node",
                "neighbors",
                "mean mesh delay (s)",
            ),
            &fig5,
            &neighbors,
            by_neighbors,
            |r, _| r.mean_mesh_delay,
        ),
        "fig6" => Plan::new(
            s,
            Figure::new(
                format!(
                    "Fig. 6: fill ratio +{}s after chunk generation vs neighbors \
                     (paper: +2s; time-rebased)",
                    s.fill_offset_secs
                ),
                "neighbors",
                format!("fill ratio at +{}s", s.fill_offset_secs),
            ),
            main,
            &neighbors,
            by_neighbors,
            |r, _| r.fill_at_offset,
        ),
        // Each second from the last chunk's generation (1 chunk/s).
        "fig7" => {
            let start = u64::from(s.n_chunks);
            let ts: Vec<u64> =
                (start..=start + 10.min(s.static_horizon.saturating_sub(start))).collect();
            let fig = Figure::new(
                "Fig. 7: fill ratio vs elapsed time",
                "time (s)",
                "global fill ratio",
            );
            Plan::new(s, fig, main, &ts, default, |r, t| {
                at(&r.fill_timeline, t, 1.0)
            })
        }
        "fig8" => Plan::new(
            s,
            Figure::new(
                "Fig. 8: extra overhead vs number of neighbors per node",
                "neighbors",
                "extra overhead (messages)",
            ),
            main,
            &neighbors,
            by_neighbors,
            |r, _| r.overhead as f64,
        ),
        "fig9" => {
            let nodes: Vec<u64> = s.population_sweep.iter().map(|&n| n.into()).collect();
            let fig = Figure::new(
                "Fig. 9: extra overhead vs number of participants",
                "nodes",
                "extra overhead (messages)",
            );
            let params = |n: u64, seed| RunParams {
                n_nodes: n as u32,
                ..s.static_params(s.default_neighbors, seed)
            };
            Plan::new(s, fig, main, &nodes, params, |r, _| r.overhead as f64)
        }
        "fig10" => {
            let step = (s.static_horizon / 10).max(1) as usize;
            let ts: Vec<u64> = (0..=s.static_horizon).step_by(step).collect();
            let fig = Figure::new(
                "Fig. 10: extra overhead vs elapsed time",
                "time (s)",
                "cumulative extra overhead (messages)",
            );
            Plan::new(s, fig, main, &ts, default, |r, t| {
                at(&r.overhead_timeline, t, 0.0)
            })
        }
        // Deadlines over the last third of the horizon in 10 steps (the
        // paper: 200–300 s).
        "fig11" => {
            let start = s.churn_horizon * 2 / 3;
            let step = ((s.churn_horizon - start) / 10).max(1) as usize;
            let ts: Vec<u64> = (start..=s.churn_horizon).step_by(step).collect();
            let fig = Figure::new(
                "Fig. 11: % received chunks vs dissemination time (churn)",
                "deadline (s)",
                "% received chunks",
            );
            let params = |_, seed| s.churn_params(base_life, seed);
            Plan::new(s, fig, main, &ts, params, |r, t| {
                at(&r.received_timeline, t, f64::NAN)
            })
        }
        // The paper sweeps 60–120 s of mean life.
        "fig12" => {
            let lives: Vec<u64> = (0..=6).map(|i| base_life + i * base_life / 6).collect();
            let fig = Figure::new(
                "Fig. 12: % received chunks vs mean node life (churn)",
                "mean life (s)",
                "% received chunks",
            );
            let params = |life, seed| s.churn_params(life, seed);
            Plan::new(s, fig, main, &lives, params, |r, _| r.received_pct)
        }
        _ => return None,
    })
}

/// The requested figures and the one table of runs behind them.
pub struct FigureRun {
    /// The figures, in request order.
    pub figures: Vec<Figure>,
    /// Every distinct run behind them.
    pub table: CellTable,
    /// For each run of `table`, the figures that read it.
    readers: Vec<Vec<&'static str>>,
}

/// Runs the named figures (each one of [`NAMES`]) over one deduplicated
/// cell table. Panics on an unknown name.
pub fn run_figures(names: &[&'static str], scale: &FigScale) -> FigureRun {
    let plans: Vec<Plan> = names
        .iter()
        .map(|&n| plan(n, scale).unwrap_or_else(|| panic!("unknown figure {n}")))
        .collect();
    let cells: Vec<Cell> = plans.iter().flat_map(|p| p.cells.clone()).collect();
    let table = run_cells(&cells, scale.jobs);
    let mut readers = vec![Vec::new(); table.runs.len()];
    let mut start = 0;
    let figures = names
        .iter()
        .zip(&plans)
        .map(|(&name, plan)| {
            let requests = start..start + plan.cells.len();
            start = requests.end;
            for i in requests.clone() {
                let r: &mut Vec<_> = &mut readers[table.index[i]];
                if r.last() != Some(&name) {
                    r.push(name);
                }
            }
            let results: Vec<&RunResult> = requests.map(|i| &table.stats(i).result).collect();
            plan.view(&results)
        })
        .collect();
    FigureRun {
        figures,
        table,
        readers,
    }
}

impl FigureRun {
    /// One CSV row per distinct run: its method, parameters, trace digest
    /// and event count, and the figures that read it (schema in
    /// EXPERIMENTS.md). An empty `tree_degree` is the paper's rule; an
    /// empty `mean_life_s` is a static run.
    pub fn cells_csv(&self) -> String {
        let mut out = String::from(
            "method,n_nodes,n_chunks,neighbors,tree_degree,mean_life_s,horizon_s,\
             fill_offset_s,seed,trace_digest,events,figures\n",
        );
        for ((cell, stats), readers) in self.table.runs.iter().zip(&self.readers) {
            let p = &cell.params;
            let or_empty = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{:#018x},{},{}",
                cell.method.label(),
                p.n_nodes,
                p.n_chunks,
                p.neighbors,
                or_empty(p.tree_degree.map(|d| d as u64)),
                or_empty(p.churn.as_ref().map(|c| c.mean_life.as_secs())),
                p.horizon.as_secs(),
                p.fill_offset.as_secs(),
                p.seed,
                stats.proof.trace_digest,
                stats.proof.events,
                readers.join(" ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::dedupe;

    fn tiny() -> FigScale {
        FigScale {
            n_nodes: 16,
            n_chunks: 6,
            churn_chunks: 10,
            static_horizon: 30,
            churn_horizon: 45,
            neighbor_sweep: vec![4, 8],
            population_sweep: vec![12, 16],
            default_neighbors: 6,
            fill_offset_secs: 5,
            seeds: vec![1],
            jobs: 2,
        }
    }

    fn figure(name: &'static str) -> Figure {
        run_figures(&[name], &tiny()).figures.remove(0)
    }

    #[test]
    fn fig5_has_five_curves_over_the_sweep() {
        let f = figure("fig5");
        assert_eq!(f.series.len(), 5);
        assert_eq!(f.x_values(), vec![4.0, 8.0]);
        for s in &f.series {
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{}", s.label);
        }
    }

    #[test]
    fn fig8_tree_is_zero_and_meshes_positive() {
        let f = figure("fig8");
        let tree = f.series_by_label("tree").unwrap();
        assert!(tree.points.iter().all(|&(_, y)| y == 0.0));
        for label in ["DCO", "push", "pull"] {
            let s = f.series_by_label(label).unwrap();
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{label}");
        }
    }

    #[test]
    fn fig10_is_cumulative() {
        let f = figure("fig10");
        for s in &f.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1, "{} not cumulative", s.label);
            }
        }
    }

    #[test]
    fn fig12_has_expected_x_axis() {
        let f = figure("fig12");
        assert_eq!(f.series.len(), 4);
        let xs = f.x_values();
        assert_eq!(xs.len(), 7);
        assert_eq!(xs[0], 9.0, "base life = churn_horizon / 5");
    }

    /// `figures all --scale paper` reads 880 (seed, method, point) runs:
    /// Figs. 6 and 8 reread Fig. 5's, Fig. 10 Fig. 7's, Fig. 11 Fig. 12's
    /// mean-life-60 column, Fig. 9's N=512 point Fig. 5's 32-neighbour
    /// one, and Fig. 7's DCO, push and pull runs are Fig. 5's too, since
    /// only tree cells keep the tree degree: 485 distinct. Of those, the
    /// 195 static DCO, tree and tree* runs draw no random number, so one
    /// seed stands for all five: 329 runs. (The timeline figures 7, 10 and
    /// 11 request their one run per method and seed once per x, 11
    /// times.) Nothing is run here.
    #[test]
    fn figures_all_at_paper_scale_is_329_runs() {
        let scale = FigScale::paper();
        let cells: Vec<Cell> = NAMES
            .iter()
            .flat_map(|n| plan(n, &scale).unwrap().cells)
            .collect();
        assert_eq!(cells.len(), 880 + 3 * 4 * 5 * (11 - 1));
        let (distinct, _) = dedupe(&cells);
        assert_eq!(distinct.len(), 329);
    }

    /// Fig. 8 reads only runs Fig. 5 also reads, and every run's row names
    /// the figures that read it.
    #[test]
    fn shared_runs_run_once_and_the_cell_table_names_their_readers() {
        let run = run_figures(&["fig5", "fig8"], &tiny());
        // Fig. 5: 5 methods × 2 neighbour counts; Fig. 8 adds none.
        assert_eq!(run.table.runs.len(), 10);
        assert_eq!(run.table.index.len(), 10 + 8);
        let csv = run.cells_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 10);
        for row in rows {
            let readers = if row.starts_with("tree*,") {
                ",fig5"
            } else {
                ",fig5 fig8"
            };
            assert!(row.ends_with(readers), "{row}");
        }
        assert!(csv.starts_with("method,n_nodes,"), "{csv}");
    }
}
