//! # dco-workload — scenario and churn generation
//!
//! Encodes everything §IV of the paper fixes about a run:
//!
//! * [`churn`] — exponential session/downtime churn schedules (Figs. 11–12).
//! * [`grid`] — cartesian scenario-grid expansion with per-coordinate cell
//!   seeds (the batch-sweep harness builds on this).
//! * [`scenario`] — the bundle: population, chunk stream shape, optional
//!   churn; installs itself into any protocol's simulator with the paper's
//!   capacities (4000 kbps server, 600 kbps peers) and, without churn,
//!   every viewer joining at `t = 0`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod grid;
pub mod scenario;

pub use churn::{ChurnConfig, ChurnEvent, ChurnSchedule};
pub use grid::{ChurnLevel, GridCell, ScenarioGrid};
pub use scenario::Scenario;
