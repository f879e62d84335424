//! # dco-core — the DHT-Aided Chunk-Driven Overlay
//!
//! The paper's contribution (Shen, Zhao, Li & Li, ICPP 2010): a P2P live
//! streaming overlay where a Chord DHT of coordinators indexes every live
//! chunk, so any node can locate a provider with spare upload bandwidth in
//! `O(log n)` hops instead of gossiping buffer maps with its neighbors.
//!
//! * [`chunk`] — chunk naming (`channel + timestamp`) and ring IDs.
//! * [`buffer`] — playback buffers / buffer-map bitmaps.
//! * [`longevity`] — the Cox proportional-hazards stability model (Eq. 1).
//! * [`index`] — coordinator index tables and the sufficient-bandwidth
//!   provider selection rule.
//! * [`proto`] — the full protocol (Algorithm 1) over `dco-sim`, in both
//!   the flat (§IV) and hierarchical (§III) tier modes.
//!
//! ## Quickstart
//!
//! ```
//! use dco_core::proto::{DcoConfig, DcoProtocol};
//! use dco_sim::prelude::*;
//!
//! let cfg = DcoConfig::paper_default(16, 5); // 16 nodes, 5 chunks
//! let mut sim = Simulator::new(DcoProtocol::new(cfg), NetConfig::default(), 42);
//! for i in 0..16 {
//!     let caps = if i == 0 { NodeCaps::server_default() } else { NodeCaps::peer_default() };
//!     let id = sim.add_node(caps);
//!     sim.schedule_join(id, SimTime::ZERO);
//! }
//! sim.run_until(SimTime::from_secs(30));
//! let done = sim.protocol().obs.fold_figures(SimTime::from_secs(30), &[]);
//! assert!(done.received_pct > 99.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod chunk;
pub mod index;
pub mod longevity;
pub mod proto;
pub mod wire;

pub use buffer::BufferMap;
pub use chunk::{ChunkNamer, ChunkSeq};
pub use index::{ChunkIndex, IndexTable, SelectPolicy};
pub use longevity::Covariates;
pub use proto::{DcoConfig, DcoMsg, DcoProtocol, DcoTimer, Role, TierMode};
