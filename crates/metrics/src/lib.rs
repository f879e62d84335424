//! # dco-metrics — the paper's four evaluation metrics
//!
//! §IV of the paper evaluates every protocol on four metrics; this crate
//! implements their bookkeeping and the figure-shaped output containers.
//! Three of them fold out of the [`StreamObserver`]'s reception record in
//! one pass, [`StreamObserver::fold_figures`]:
//!
//! 1. **Mesh delay** — generation → last receiver
//!    ([`FigureMetrics::mean_mesh_delay`](observer::FigureMetrics::mean_mesh_delay)).
//! 2. **Fill ratio** — audience fraction holding a chunk at an instant
//!    ([`FigureMetrics::fill_at_offsets`](observer::FigureMetrics::fill_at_offsets),
//!    [`FigureMetrics::received_by_second`](observer::FigureMetrics::received_by_second)).
//! 3. **Extra overhead** — control-message units; counted by
//!    `dco_sim::counters::Counters` at the engine, summarized here.
//! 4. **Percentage of received chunks** —
//!    [`FigureMetrics::received_pct`](observer::FigureMetrics::received_pct).
//!
//! [`RetainedObserver`] is the keep-everything reference model the flat
//! observer is property-tested against. [`Figure`]/[`Series`] carry
//! harness results and render as text tables or CSV; [`stats`] has the
//! small numeric helpers used to check the paper's qualitative claims
//! (linearity, orderings).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitgrid;
pub mod observer;
pub mod reference;
pub mod series;
pub mod shard;
pub mod stats;

pub use bitgrid::BitGrid;
pub use observer::StreamObserver;
pub use reference::RetainedObserver;
pub use series::{average_figures, Figure, Series};
pub use shard::ObserverShard;
