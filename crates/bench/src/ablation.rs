//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each study runs DCO on the static §IV scenario at the scale's first
//! seed under each [`Design`] it compares and reports the same §IV
//! metrics, so the contribution of each mechanism is measurable:
//!
//! * **provider selection** — the paper's sufficient-bandwidth rule vs a
//!   random provider;
//! * **tier mode** — the §IV flat ring vs §III's hierarchical
//!   coordinators-plus-clients with elastic promotion;
//! * **bandwidth model** — the paper's sender-side-only queueing vs the
//!   full store-and-forward model (both directions charged).
//!
//! [`run_studies`] runs every study's cells as one batch, so the
//! paper-design run all three compare against runs once.

use std::fmt::Write as _;

use crate::figs::FigScale;
use crate::runner::{run_cells, Cell, Design, Method, RunStats};

/// A study: its title and its rows' labels and designs.
pub type Study = (&'static str, &'static [(&'static str, Design)]);

/// The studies, in print order. There is no study B: it compared Eq. 2's
/// prefetch window, which never binds and is not modelled (DESIGN.md §4).
/// The other letters keep the names EXPERIMENTS.md and
/// `results/ablations.txt` use.
pub const STUDIES: [Study; 3] = [
    (
        "Ablation A: provider selection (sufficient-bandwidth vs random)",
        &[
            ("sufficient-bandwidth (paper)", Design::Paper),
            ("random provider", Design::RandomProvider),
            ("least-loaded (extension)", Design::LeastLoaded),
        ],
    ),
    (
        "Ablation C: tier mode (flat §IV ring vs hierarchical §III)",
        &[
            ("flat ring (§IV)", Design::Paper),
            ("hierarchical (§III)", Design::Hierarchical),
        ],
    ),
    (
        "Ablation D: bandwidth model (sender-side vs full store-and-forward)",
        &[
            ("sender-side queueing (paper)", Design::Paper),
            ("full store-and-forward", Design::StoreAndForward),
        ],
    ),
];

/// Runs every row of [`STUDIES`] as one batch and returns each study's
/// runs, row by row.
pub fn run_studies(scale: &FigScale) -> Vec<Vec<RunStats>> {
    let params = scale.static_params(scale.default_neighbors, scale.seeds[0]);
    let rows = STUDIES.iter().flat_map(|(_, rows)| rows.iter());
    let cells: Vec<Cell> = rows
        .map(|&(_, design)| Cell {
            design,
            ..Cell::new(Method::Dco, params.clone())
        })
        .collect();
    let table = run_cells(&cells, scale.jobs);
    let mut next = 0..;
    STUDIES
        .iter()
        .map(|(_, rows)| {
            rows.iter()
                .zip(&mut next)
                .map(|(_, i)| table.stats(i).clone())
                .collect()
        })
        .collect()
}

/// Renders `study`'s rows, whose runs are `runs`, as an aligned text table.
pub fn to_table(study: &Study, runs: &[RunStats]) -> String {
    let (title, rows) = study;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{:<32} {:>12} {:>12} {:>12} {:>12}",
        "variant", "delay (s)", "received %", "overhead", "failures"
    );
    for ((label, _), run) in rows.iter().zip(runs) {
        let r = &run.result;
        let _ = writeln!(
            out,
            "{:<32} {:>12.2} {:>12.1} {:>12} {:>12}",
            label, r.mean_mesh_delay, r.received_pct, r.overhead, run.fetch_failures
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FigScale {
        FigScale {
            n_nodes: 20,
            n_chunks: 8,
            churn_chunks: 12,
            static_horizon: 40,
            churn_horizon: 60,
            neighbor_sweep: vec![4],
            population_sweep: vec![20],
            default_neighbors: 8,
            fill_offset_secs: 5,
            seeds: vec![3],
            jobs: 2,
        }
    }

    #[test]
    fn every_study_delivers_and_full_store_and_forward_is_slower() {
        let studies = run_studies(&tiny());
        assert_eq!(studies.len(), STUDIES.len());
        // Every provider rule delivers nearly everything; both tiers and
        // both network models deliver at least 90%.
        for (floor, (study, runs)) in [95.0, 90.0, 90.0]
            .into_iter()
            .zip(STUDIES.iter().zip(&studies))
        {
            assert_eq!(runs.len(), study.1.len());
            for ((label, _), run) in study.1.iter().zip(runs) {
                let pct = run.result.received_pct;
                assert!(pct > floor, "{label}: {pct:.1}%");
            }
        }
        // The paper-design row is one run, shared by all three studies.
        assert_eq!(studies[0][0].proof, studies[1][0].proof);
        assert_eq!(studies[0][0].proof, studies[2][0].proof);
        let (paper, full) = (&studies[2][0].result, &studies[2][1].result);
        assert!(
            full.mean_mesh_delay >= paper.mean_mesh_delay,
            "download charging cannot make dissemination faster: {:.2} vs {:.2}",
            full.mean_mesh_delay,
            paper.mean_mesh_delay
        );
        let t = to_table(&STUDIES[0], &studies[0]);
        assert!(t.contains("variant"));
        assert!(t.contains("sufficient-bandwidth"));
    }
}
