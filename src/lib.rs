//! # dco — facade crate
//!
//! Re-exports the whole DCO workspace under one roof. See the README for a
//! tour; the sub-crates are:
//!
//! * [`sim`] — deterministic discrete-event network simulator.
//! * [`dht`] — Chord DHT (IDs, finger tables, routing, churn handling).
//! * [`core`] — the DCO protocol itself (coordinators, chunk indices,
//!   chunk-sharing algorithm, longevity model).
//! * [`baselines`] — pull-mesh, push-mesh and tree comparators from the
//!   paper's evaluation.
//! * [`workload`] — scenario/churn generation.
//! * [`metrics`] — mesh delay, fill ratio, overhead, chunks-received.

#![forbid(unsafe_code)]

pub use dco_baselines as baselines;
pub use dco_core as core;
pub use dco_dht as dht;
pub use dco_metrics as metrics;
pub use dco_sim as sim;
pub use dco_workload as workload;
