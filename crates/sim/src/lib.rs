//! # dco-sim — deterministic discrete-event network simulator
//!
//! This crate is the substrate everything else in the DCO workspace runs on.
//! It plays the role P2PSim played for the original paper: a single-threaded,
//! seeded, microsecond-resolution discrete-event engine with an access-link
//! bandwidth model.
//!
//! ## Architecture
//!
//! ```text
//!  ┌────────────────────────────────────────────────────┐
//!  │ Simulator<P: Protocol>                             │
//!  │  ┌──────────┐  ┌─────────────────────────────────┐ │
//!  │  │ Protocol │  │ SimCore                         │ │
//!  │  │ (all node│  │  clock · EventQueue · Network   │ │
//!  │  │  state)  │←→│  AliveSet · Counters · RngHub   │ │
//!  │  └──────────┘  └─────────────────────────────────┘ │
//!  └────────────────────────────────────────────────────┘
//! ```
//!
//! * [`engine::Protocol`] — implement this for a distributed algorithm; the
//!   implementor owns every node's state and the engine routes events to it.
//! * [`engine::Simulator`] — the run loop; [`engine::Ctx`] is the handle the
//!   protocol uses to send messages, arm timers and query the network.
//! * [`net::Network`] — per-node upload/download FIFO pipes plus a latency
//!   model and fault injection; this is where the paper's bandwidth
//!   constraints (600 kbps peers, 4000 kbps server) live.
//! * [`counters::Counters`] — the "extra overhead" bookkeeping used by the
//!   paper's Figures 8–10.
//!
//! ## Determinism
//!
//! All randomness flows from one `u64` master seed through [`rng::RngHub`];
//! the event calendar is stable (FIFO at equal timestamps); the clock is
//! integer microseconds. Two runs with the same protocol, inputs and seed
//! produce bit-identical results on any platform.
//!
//! ## Example
//!
//! ```
//! use dco_sim::prelude::*;
//!
//! /// Every node greets node 0 once at join time.
//! struct Hello { greetings: u64 }
//!
//! impl Protocol for Hello {
//!     type Msg = &'static str;
//!     type Timer = ();
//!     fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
//!         if node != NodeId(0) {
//!             ctx.send_control(node, NodeId(0), "hi", "greeting");
//!         }
//!     }
//!     fn on_message(&mut self, _: NodeId, _: NodeId, _: &'static str, _: &mut Ctx<'_, Self>) {
//!         self.greetings += 1;
//!     }
//!     fn on_timer(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, Self>) {}
//! }
//!
//! let mut sim = Simulator::new(Hello { greetings: 0 }, NetConfig::default(), 42);
//! for _ in 0..4 {
//!     let id = sim.add_node(NodeCaps::peer_default());
//!     sim.schedule_join(id, SimTime::ZERO);
//! }
//! sim.run();
//! assert_eq!(sim.protocol().greetings, 3);
//! ```

// `deny`, not `forbid`: the counting global allocator in [`counters::perf`]
// is the one place the crate needs `unsafe` (the `GlobalAlloc` trait is
// unsafe by definition) and carries a scoped `allow` with its safety
// argument. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod engine;
pub mod msg;
pub mod net;
pub mod node;
pub mod queue;
pub mod rng;
pub mod slab;
pub mod smallvec;
pub mod time;
pub mod wire;

/// One-stop imports for protocol implementors.
pub mod prelude {
    pub use crate::counters::Counters;
    pub use crate::engine::{Ctx, EngineStats, Protocol, Simulator};
    pub use crate::msg::{MsgClass, SizeBits};
    pub use crate::net::{FaultPlan, Kbps, LatencyModel, NetConfig, NodeCaps};
    pub use crate::node::NodeId;
    pub use crate::rng::RngHub;
    pub use crate::time::{SimDuration, SimTime};
}
