//! # dco-dht — a from-scratch Chord DHT
//!
//! The paper's coordinator tier is a Chord ring (§III-A2, citing Stoica et
//! al.); this crate implements that ring in full:
//!
//! * [`id`] — 64-bit ring arithmetic (clockwise distance, interval
//!   membership with all open/closed variants).
//! * [`hash`] — consistent hashing of node addresses and chunk names onto
//!   the ring (FNV-1a + SplitMix64 finalizer).
//! * [`finger`] / [`successors`] — the per-node routing state: finger table
//!   and successor list (retained reference models; the protocol's hot
//!   path uses the pooled layout in [`pool`]).
//! * [`pool`] — struct-of-arrays pools holding every node's successor
//!   list and finger table in flat arrays, so churn-scale populations
//!   (N ≥ 50k) fit without per-node heap allocations.
//! * [`store`] — key-addressed multi-value storage with clockwise-range
//!   extraction for ownership transfers.
//! * [`ring`] — an omniscient oracle used by tests and by the static-ring
//!   builder for the paper's no-churn experiments.
//! * [`chord`] — the protocol state machine: join, recursive
//!   `find_successor` routing, stabilization, finger repair, graceful
//!   leave, tick-based failure suspicion. Pure message-in/messages-out so
//!   the host protocol (DCO) performs the actual sends — giving every DHT
//!   hop its latency and overhead unit.
//!
//! ## Example
//!
//! ```
//! use dco_dht::chord::{ChordNet, RouteDecision};
//! use dco_dht::hash::{hash_name, hash_node};
//! use dco_dht::id::Peer;
//! use dco_sim::node::NodeId;
//!
//! // A converged 64-node ring with 8-entry successor lists, as in the
//! // paper's no-churn setting.
//! let peers: Vec<Peer> = (0..64)
//!     .map(|i| Peer::new(hash_node(NodeId(i)), NodeId(i)))
//!     .collect();
//! let net = ChordNet::build_static(&peers, 8);
//!
//! // Greedy-route a chunk key from node 0 to its owner.
//! let key = hash_name("CNN1230773442");
//! let mut at = NodeId(0);
//! let mut hops = 0;
//! let owner = loop {
//!     match net.route_next(at, key).unwrap() {
//!         RouteDecision::Deliver => break at,
//!         RouteDecision::DeliverAt(p) => break p.node,
//!         RouteDecision::Forward(p) => {
//!             at = p.node;
//!             hops += 1;
//!         }
//!     }
//! };
//! assert_eq!(owner, net.oracle().owner(key).unwrap().node);
//! assert!(hops <= 12, "O(log n) routing");
//! ```
//!
//! ## Relationship to DCO
//!
//! `dco-core` embeds [`chord::ChordNet`] to maintain its coordinator ring
//! and routes its `Insert(ID, index)` / `Lookup(ID)` messages hop-by-hop
//! with [`chord::ChordNet::route_next`], exactly the flow of the paper's
//! Algorithm 1 (lines 15–27: coordinators forward messages they do not own
//! toward the owner).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chord;
pub mod finger;
pub mod hash;
pub mod id;
pub mod pool;
pub mod ring;
pub mod store;
pub mod successors;
pub mod wire;

pub use chord::{ChordEvent, ChordMsg, ChordNet, Outbox, RouteDecision, RouteStep, RouteToken};
pub use hash::{hash_bytes, hash_name, hash_node};
pub use id::{ChordId, Peer, ID_BITS};
pub use ring::OracleRing;
pub use store::KeyStore;
