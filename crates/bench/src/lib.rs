//! # dco-bench — the experiment harness
//!
//! Regenerates every figure of the paper's evaluation (§IV, Figs. 5–12)
//! and the ablations DESIGN.md calls out through one pipeline: a binary
//! lists [`Cell`]s, [`run_cells`] runs each distinct one once on the
//! worker pool, and the report is a view over the resulting
//! [`CellTable`] of results and determinism proofs.
//!
//! * [`runner`] — the cell, the table and the one run path.
//! * [`figs`] — one plan (cells plus view) per paper figure; `figures`.
//! * [`ablation`] — design-choice studies; `ablations`.
//! * [`sweep`] — multi-seed grids and their JSON report; `dco-sweep`.
//! * [`shard_run`] — one DCO run split over K shards; `dco-perf`.
//! * [`timing`] — the micro benches' timer.
//!
//! ```text
//! cargo run --release -p dco-bench --bin figures -- all --scale paper --out results
//! cargo run --release -p dco-bench --bin dco-sweep -- --preset small --jobs 8
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod figs;
mod pool;
pub mod runner;
pub mod shard_run;
pub mod sweep;
pub mod timing;

pub use figs::FigScale;
pub use runner::{
    run_cells, run_with_stats, Cell, CellProof, CellTable, Design, Method, RunParams, RunResult,
    RunStats,
};
pub use sweep::{run_sweep, SweepConfig, SweepReport};
