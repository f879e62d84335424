//! Scenario grid expansion for batch experiments.
//!
//! The sweep harness explores a cartesian product of scenario axes —
//! population × churn level × seed. [`ScenarioGrid`] owns that expansion:
//! it produces the cell list in a fixed, deterministic order (population
//! outermost, seed innermost) and derives each cell's **own master seed**
//! from the cell's *coordinates*, never from its position in the list. Two
//! grids that share a cell therefore agree on that cell's seed, which is
//! what makes "run alone" and "run inside any sweep at any `--jobs` level"
//! bit-identical.

use dco_sim::rng::splitmix64;

/// The churn axis of a grid: either a static network or exponential churn
/// with the given mean node lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnLevel {
    /// No churn.
    Static,
    /// Exponential churn with this mean node life, in seconds.
    MeanLife(u64),
}

impl ChurnLevel {
    /// The mean life in seconds, or `None` when static.
    pub fn mean_life_secs(self) -> Option<u64> {
        match self {
            ChurnLevel::Static => None,
            ChurnLevel::MeanLife(s) => Some(s),
        }
    }

    /// A short label for tables and JSON (`"static"` / `"life60"`).
    pub fn label(self) -> String {
        match self {
            ChurnLevel::Static => "static".to_string(),
            ChurnLevel::MeanLife(s) => format!("life{s}"),
        }
    }

    /// A stable code folded into the cell seed.
    fn code(self) -> u64 {
        match self {
            ChurnLevel::Static => 0,
            // +1 so MeanLife(0) is distinct from Static.
            ChurnLevel::MeanLife(s) => s + 1,
        }
    }
}

/// The scenario axes of a batch experiment.
#[derive(Clone, Debug)]
pub struct ScenarioGrid {
    /// Population sizes (nodes including the server).
    pub populations: Vec<u32>,
    /// Churn levels.
    pub churn: Vec<ChurnLevel>,
    /// Experiment seeds. These are *labels*: the actual simulation seed of
    /// a cell is derived per-coordinate via [`ScenarioGrid::cell_seed`].
    pub seeds: Vec<u64>,
}

/// One point of the expanded grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridCell {
    /// Population of this cell.
    pub n_nodes: u32,
    /// Churn level of this cell.
    pub churn: ChurnLevel,
    /// The seed label from the grid's seed axis.
    pub seed: u64,
    /// The derived master seed actually fed to the simulator.
    pub sim_seed: u64,
}

impl ScenarioGrid {
    /// `n` decorrelated seed labels fanned out from `base`.
    pub fn seed_list(base: u64, n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| splitmix64(base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.populations.len() * self.churn.len() * self.seeds.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The derived master seed of the cell at the given coordinates. A pure
    /// function of `(master, extra, n_nodes, churn, seed)` — independent of
    /// grid shape, cell order and thread schedule. `extra` lets a caller
    /// fold in further axes (the bench harness folds the method here).
    pub fn cell_seed(master: u64, extra: u64, n_nodes: u32, churn: ChurnLevel, seed: u64) -> u64 {
        let mut h = splitmix64(master ^ 0xCE11_CE11_CE11_CE11);
        for w in [extra, u64::from(n_nodes), churn.code(), seed] {
            h = splitmix64(h ^ w);
        }
        h
    }

    /// Expands the grid into cells in deterministic order: populations
    /// outermost, then churn levels, then seeds. `extra` is folded into
    /// every cell seed ([`ScenarioGrid::cell_seed`]).
    pub fn cells(&self, master: u64, extra: u64) -> Vec<GridCell> {
        let mut out = Vec::with_capacity(self.len());
        for &n_nodes in &self.populations {
            for &churn in &self.churn {
                for &seed in &self.seeds {
                    out.push(GridCell {
                        n_nodes,
                        churn,
                        seed,
                        sim_seed: Self::cell_seed(master, extra, n_nodes, churn, seed),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> ScenarioGrid {
        ScenarioGrid {
            populations: vec![32, 64],
            churn: vec![ChurnLevel::Static, ChurnLevel::MeanLife(20)],
            seeds: vec![1, 2, 3],
        }
    }

    #[test]
    fn expansion_is_the_full_product_in_order() {
        let g = grid();
        let cells = g.cells(42, 0);
        assert_eq!(cells.len(), 12);
        assert_eq!(g.len(), 12);
        assert!(!g.is_empty());
        // Population outermost, seed innermost.
        assert_eq!(cells[0].n_nodes, 32);
        assert_eq!(cells[0].churn, ChurnLevel::Static);
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[1].seed, 2);
        assert_eq!(cells[3].churn, ChurnLevel::MeanLife(20));
        assert_eq!(cells[6].n_nodes, 64);
    }

    #[test]
    fn cell_seeds_depend_on_coordinates_not_position() {
        let small = ScenarioGrid {
            populations: vec![64],
            churn: vec![ChurnLevel::MeanLife(20)],
            seeds: vec![3],
        };
        let big = grid();
        let lone = small.cells(42, 0)[0];
        let within = big
            .cells(42, 0)
            .into_iter()
            .find(|c| c.n_nodes == 64 && c.churn == ChurnLevel::MeanLife(20) && c.seed == 3)
            .unwrap();
        assert_eq!(
            lone.sim_seed, within.sim_seed,
            "same coordinates, same seed"
        );
    }

    #[test]
    fn cell_seeds_are_pairwise_distinct() {
        let cells = grid().cells(42, 0);
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.sim_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len());
    }

    #[test]
    fn different_masters_decorrelate() {
        let a = grid().cells(1, 0);
        let b = grid().cells(2, 0);
        assert!(a.iter().zip(&b).all(|(x, y)| x.sim_seed != y.sim_seed));
    }

    #[test]
    fn extra_axis_separates_cells() {
        let a = ScenarioGrid::cell_seed(42, 0, 64, ChurnLevel::Static, 1);
        let b = ScenarioGrid::cell_seed(42, 1, 64, ChurnLevel::Static, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn churn_level_labels_and_codes() {
        assert_eq!(ChurnLevel::Static.label(), "static");
        assert_eq!(ChurnLevel::MeanLife(60).label(), "life60");
        assert_eq!(ChurnLevel::Static.mean_life_secs(), None);
        assert_eq!(ChurnLevel::MeanLife(60).mean_life_secs(), Some(60));
        // MeanLife(0) is not Static.
        assert_ne!(
            ScenarioGrid::cell_seed(1, 0, 8, ChurnLevel::Static, 0),
            ScenarioGrid::cell_seed(1, 0, 8, ChurnLevel::MeanLife(0), 0),
        );
    }

    #[test]
    fn seed_list_is_deterministic_and_distinct() {
        let a = ScenarioGrid::seed_list(7, 8);
        let b = ScenarioGrid::seed_list(7, 8);
        assert_eq!(a, b);
        let mut u = a.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), 8);
        assert_ne!(ScenarioGrid::seed_list(7, 3), ScenarioGrid::seed_list(8, 3));
    }
}
