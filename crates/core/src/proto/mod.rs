//! The DCO protocol (§III, Algorithm 1) as a `dco-sim` protocol.
//!
//! One [`DcoProtocol`] value holds every node's state:
//!
//! * the **server** (node 0) slices the stream into chunks, registers
//!   itself as the first provider of each, and bootstraps the DHT;
//! * **coordinators** are DHT ring members; each owns an [`IndexTable`]
//!   holding the chunk indices whose IDs fall in its arc, answers
//!   `Lookup(ID)` with a provider of sufficient bandwidth, and absorbs
//!   `Insert(ID, index)` registrations;
//! * **clients** (hierarchical mode only) attach to a coordinator assigned
//!   round-robin by the server and proxy their lookups/inserts through it;
//!   stable clients get promoted into the ring when their coordinator
//!   overloads.
//!
//! In the **flat** mode — the configuration §IV uses for every figure
//! ("to make results comparable, all nodes form a DHT in DCO") — every node
//! is a coordinator.
//!
//! The data plane is exactly Algorithm 1: a node missing a chunk routes
//! `Lookup(hash(name))` through the ring; the owning coordinator replies
//! with a provider; the node requests the chunk from the provider; on
//! reception it registers itself as a new provider via `Insert`. Failures
//! (provider dead or busy) are reported back to the coordinator, which
//! drops the stale index and answers with an alternative.

mod fetch;
mod hier;
mod ring;
#[cfg(test)]
mod tests;

use dco_dht::chord::{ChordMsg, ChordNet};
use dco_dht::hash::hash_node;
use dco_dht::id::{ChordId, Peer};
use dco_metrics::StreamObserver;
use dco_sim::prelude::*;
use dco_sim::rng::SimRng;
use dco_sim::slab::{ListSlab, SlotTable};
use dco_sim::smallvec::SmallVec;

use crate::buffer::BufferMap;
use crate::chunk::{ChunkNamer, ChunkSeq};
use crate::index::{ChunkIndex, IndexTable, SelectPolicy};
use crate::longevity::Covariates;

/// Period of the fetch loop (DCO) and the pull loop (the pull baseline).
pub const FETCH_TICK: SimDuration = SimDuration::from_millis(250);
/// Time a node waits for a lookup answer or a requested chunk.
pub const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(2_000);
/// Fetches (lookups plus chunk requests) a node keeps in flight at once.
pub const MAX_INFLIGHT: usize = 4;
/// Upload backlog beyond which a provider answers `Busy` (a push sender
/// defers instead).
pub const BUSY_BACKLOG: SimDuration = SimDuration::from_millis(1_500);

/// Stream rate (§IV): the bandwidth floor a provider must clear.
const STREAM_RATE: Kbps = Kbps(300);
/// Averaging horizon of the available upload bandwidth a node advertises.
const AVAIL_HORIZON: SimDuration = SimDuration::from_secs(1);
/// Stabilize period of the dynamic ring.
const STABILIZE_EVERY: SimDuration = SimDuration::from_millis(500);
/// Finger-refresh period of the dynamic ring.
const FIX_FINGERS_EVERY: SimDuration = SimDuration::from_millis(500);
/// Retry period of an unfinished ring join.
const JOIN_RETRY_EVERY: SimDuration = SimDuration::from_secs(2);
/// Period of the continuous chunk report (§III-B: "it continuously reports
/// its buffered chunks to the DHT"); dynamic ring only, where it
/// repopulates a new coordinator's index table after its predecessor
/// failed.
const REPORT_EVERY: SimDuration = SimDuration::from_secs(1);
/// Held chunks a peer re-registers per report tick (rotating).
const REPORT_BATCH: u32 = 3;

/// Coordinator-tier organization.
#[derive(Clone, Debug)]
pub enum TierMode {
    /// Every node joins the DHT (the paper's §IV evaluation setting).
    Flat,
    /// §III's hierarchical infrastructure: clients attach to coordinators;
    /// stable clients are promoted when a coordinator overloads.
    Hierarchical {
        /// Longevity-probability threshold for coordinator candidacy.
        stable_threshold: f64,
        /// Lookups handled per check interval that mark a coordinator
        /// overloaded.
        overload_lookups: u32,
        /// Overload / stability check period.
        check_every: SimDuration,
    },
}

/// DCO configuration: the settings §IV varies. The stream and protocol
/// timing are fixed (the constants above and DESIGN.md "Fixed parameters").
#[derive(Clone, Debug)]
pub struct DcoConfig {
    /// Total nodes including the server.
    pub n_nodes: u32,
    /// Chunks the server emits.
    pub n_chunks: u32,
    /// Neighbor count = Chord successor-list length (§IV sweeps 8–64).
    pub neighbors: usize,
    /// Provider selection policy.
    pub select_policy: SelectPolicy,
    /// Build a converged ring up front and skip maintenance timers — valid
    /// only without churn (matches the paper's static figures).
    pub static_ring: bool,
    /// Tier organization.
    pub tier: TierMode,
}

impl DcoConfig {
    /// The paper's evaluation defaults for `n_nodes` nodes and `n_chunks`
    /// chunks: flat tier, 300 kbps stream, sufficient-bandwidth selection.
    pub fn paper_default(n_nodes: u32, n_chunks: u32) -> Self {
        DcoConfig {
            n_nodes,
            n_chunks,
            neighbors: 32,
            select_policy: SelectPolicy::SufficientBandwidth,
            static_ring: true,
            tier: TierMode::Flat,
        }
    }

    /// The churn variant (Figs. 11–12): dynamic ring with maintenance.
    pub fn paper_churn(n_nodes: u32, n_chunks: u32) -> Self {
        DcoConfig {
            static_ring: false,
            ..DcoConfig::paper_default(n_nodes, n_chunks)
        }
    }
}

/// DCO wire messages.
#[derive(Clone, Debug)]
pub enum DcoMsg {
    /// Chord ring maintenance.
    Chord(ChordMsg),
    /// `Insert(ID, index)` travelling toward the chunk's coordinator.
    Insert {
        /// Chunk ring ID.
        key: ChordId,
        /// The index being registered.
        index: ChunkIndex,
        /// Hops left.
        ttl: u8,
        /// Final-delivery marker (owner determined by previous hop).
        fin: bool,
    },
    /// Remove one holder's index (graceful departure) — routed.
    Deregister {
        /// Chunk ring ID.
        key: ChordId,
        /// The departing holder.
        holder: NodeId,
        /// Hops left.
        ttl: u8,
        /// Final-delivery marker.
        fin: bool,
    },
    /// `Lookup(ID)` travelling toward the chunk's coordinator. Doubles as
    /// the failure report: `exclude` names a provider observed dead, which
    /// the coordinator drops before answering (§III-B1b "Node Failure").
    Lookup {
        /// Chunk ring ID.
        key: ChordId,
        /// Chunk sequence (echoed in the answer).
        seq: ChunkSeq,
        /// The requesting node (the answer goes straight back).
        origin: NodeId,
        /// A provider to drop and avoid.
        exclude: Option<NodeId>,
        /// Hops left.
        ttl: u8,
        /// Final-delivery marker.
        fin: bool,
    },
    /// Coordinator → requester: the chosen provider (or none known).
    Provider {
        /// The chunk asked about.
        seq: ChunkSeq,
        /// The provider, if any qualifies.
        provider: Option<NodeId>,
    },
    /// Requester → provider: send me this chunk.
    ChunkRequest {
        /// The chunk wanted.
        seq: ChunkSeq,
    },
    /// Provider → requester: the chunk payload (data class).
    ChunkData {
        /// The chunk carried.
        seq: ChunkSeq,
    },
    /// Provider → requester: no spare upload bandwidth right now (retry
    /// later; the index is still valid).
    Busy {
        /// The chunk that was requested.
        seq: ChunkSeq,
    },
    /// Provider → requester: I do not hold that chunk (stale index — the
    /// requester reports it to the coordinator for removal).
    NoChunk {
        /// The chunk that was requested.
        seq: ChunkSeq,
    },
    /// Bulk index transfer on ownership change (coordinator leave/join).
    IndexHandover {
        /// `(key, indices)` pairs now owned by the receiver.
        entries: Vec<(ChordId, Vec<ChunkIndex>)>,
    },
    /// Hierarchical: new node → server, asking for a coordinator.
    AttachRequest,
    /// Hierarchical: server → node, naming its coordinator.
    AttachAssign {
        /// The assigned coordinator.
        coordinator: NodeId,
    },
    /// Hierarchical: client → coordinator, registering as its client.
    ClientAttach,
    /// Hierarchical: client → coordinator, proxied lookup.
    ClientLookup {
        /// The chunk wanted.
        seq: ChunkSeq,
        /// A provider to drop and avoid.
        exclude: Option<NodeId>,
    },
    /// Hierarchical: client → coordinator, proxied index registration.
    ClientInsert {
        /// The index being registered.
        index: ChunkIndex,
    },
    /// Hierarchical: client → coordinator, "my longevity passed the bar".
    StableReport {
        /// The client's longevity probability.
        longevity: f64,
    },
    /// Hierarchical: coordinator → stable client, "join the ring via me".
    Promote,
    /// Hierarchical: promoted node → server, "add me to the rotation".
    CoordinatorAnnounce,
    /// Hierarchical: client → server, "my coordinator is gone".
    CoordinatorLost {
        /// The dead coordinator.
        dead: NodeId,
    },
}

/// DCO timers.
#[derive(Clone, Debug)]
pub enum DcoTimer {
    /// Server: emit the next chunk.
    Generate,
    /// Fetch-loop tick.
    FetchTick,
    /// A chunk request to `provider` timed out.
    RequestTimeout {
        /// The chunk requested.
        seq: ChunkSeq,
        /// The provider that went silent.
        provider: NodeId,
    },
    /// A routed lookup went unanswered.
    LookupTimeout {
        /// The chunk looked up.
        seq: ChunkSeq,
    },
    /// Continuous chunk-report refresh tick (dynamic ring only).
    ReportTick,
    /// Chord stabilize tick.
    Stabilize,
    /// Chord finger-refresh tick.
    FixFingers,
    /// Chord join retry.
    JoinRetry,
    /// Hierarchical: periodic stability / overload check.
    TierCheck,
}

/// Per-node role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The stream source (also a coordinator).
    Server,
    /// A DHT ring member serving lookups for its arc.
    Coordinator,
    /// A lower-tier node proxied by a coordinator (hierarchical mode).
    Client,
}

/// Per-node protocol state.
///
/// The small per-node tables that used to live here as `HashMap`s — the
/// pending chunk requests and in-flight lookups — are pooled across all
/// nodes in [`DcoProtocol::pending`] / [`DcoProtocol::lookups`]
/// ([`SlotTable`] slabs indexed by node), so a 100k-node run does not pay
/// 200k hash tables' worth of allocations for tables that hold at most
/// [`MAX_INFLIGHT`] entries.
struct NodeState {
    role: Role,
    buffer: BufferMap,
    /// First chunk of the stream this viewer fetches (0 = full catch-up).
    first_seq: ChunkSeq,
    /// The live chunk at this session's join instant: the fetch loop
    /// prioritizes `[session_seq, latest]` (the broadcast the viewer tuned
    /// in for) and backfills older history with leftover budget.
    session_seq: ChunkSeq,
    index: IndexTable,
    joined_at: SimTime,
    /// Hierarchical: my coordinator.
    coordinator: Option<NodeId>,
    /// Hierarchical (coordinator side): stable clients by longevity.
    stable_clients: SmallVec<(NodeId, f64), 8>,
    /// Hierarchical (coordinator side): lookups since the last TierCheck.
    lookups_handled: u32,
    /// Hierarchical (client side): consecutive lookup timeouts (coordinator
    /// death detector).
    coord_failures: u32,
    /// Rotating cursor into the held set for the continuous report.
    report_cursor: u32,
    /// Covariates for the longevity model.
    covariates: Covariates,
    /// Sharded runs only: this node's private selection stream, lazily
    /// seeded from the engine's hub. Single-process runs keep drawing
    /// from the shared engine stream (pinned trace digests depend on it);
    /// sharded runs must not (`Ctx::rng` panics there), and per-node
    /// streams are consumed in the node's canonical dispatch order, which
    /// is identical on every shard count.
    select_rng: Option<SimRng>,
}

impl NodeState {
    fn new(
        role: Role,
        n_chunks: u32,
        now: SimTime,
        first_seq: ChunkSeq,
        session_seq: ChunkSeq,
    ) -> Self {
        NodeState {
            role,
            buffer: BufferMap::new(n_chunks),
            first_seq,
            session_seq,
            index: IndexTable::new(),
            joined_at: now,
            coordinator: None,
            stable_clients: SmallVec::new(),
            lookups_handled: 0,
            coord_failures: 0,
            report_cursor: 0,
            select_rng: None,
            covariates: Covariates {
                buffering_level: 0,
                join_hour: (now.as_secs_f64() / 3600.0) % 24.0,
            },
        }
    }
}

/// The DCO protocol under simulation.
pub struct DcoProtocol {
    cfg: DcoConfig,
    namer: ChunkNamer,
    chord: ChordNet,
    nodes: Vec<Option<NodeState>>,
    /// Chunk requests awaiting data: node → (seq → provider's raw id).
    /// Pooled for all nodes in one slab; bounded per node by
    /// [`MAX_INFLIGHT`].
    pending: SlotTable<u32>,
    /// Lookups awaiting a Provider answer: node → seq set.
    lookups: SlotTable<()>,
    /// Hierarchical (coordinator side): each coordinator's client roster.
    clients: ListSlab,
    /// Reception records for the metrics.
    pub obs: StreamObserver,
    /// Next chunk the server will emit.
    next_seq: ChunkSeq,
    /// Hierarchical: the server's coordinator rotation.
    coordinator_pool: Vec<NodeId>,
    /// Round-robin cursor into the pool.
    assign_cursor: usize,
    /// Diagnostics: fetch failures observed protocol-wide.
    pub fetch_failures: u64,
    /// Diagnostics: lookups answered with no provider.
    pub provider_none: u64,
    /// Diagnostics: lookups delivered to a coordinator.
    pub lookups_delivered: u64,
    /// Diagnostics: chunks served per node.
    pub serves: Vec<u64>,
}

impl DcoProtocol {
    /// Builds the protocol for the given configuration.
    pub fn new(cfg: DcoConfig) -> Self {
        let namer = ChunkNamer::paper_default(cfg.n_chunks);
        let succ_len = cfg.neighbors.max(1);
        let chord = if cfg.static_ring {
            let peers: Vec<Peer> = (0..cfg.n_nodes)
                .map(|i| Peer::new(hash_node(NodeId(i)), NodeId(i)))
                .collect();
            match cfg.tier {
                TierMode::Flat => ChordNet::build_static(&peers, succ_len),
                TierMode::Hierarchical { .. } => {
                    // Static hierarchical start: only the server is in the
                    // ring; everyone else attaches as a client.
                    ChordNet::build_static(&peers[..1], succ_len)
                }
            }
        } else {
            ChordNet::new(cfg.n_nodes as usize, succ_len)
        };
        let n = cfg.n_nodes as usize;
        DcoProtocol {
            obs: StreamObserver::new(n, cfg.n_chunks as usize),
            namer,
            chord,
            nodes: (0..n).map(|_| None).collect(),
            pending: SlotTable::new(n, MAX_INFLIGHT),
            lookups: SlotTable::new(n, MAX_INFLIGHT),
            clients: ListSlab::new(n, 0),
            next_seq: ChunkSeq(0),
            coordinator_pool: vec![NodeId(0)],
            assign_cursor: 0,
            fetch_failures: 0,
            provider_none: 0,
            lookups_delivered: 0,
            serves: vec![0; n],
            cfg,
        }
    }

    /// The chunk namer (sequence ↔ name/ID mapping).
    pub fn namer(&self) -> &ChunkNamer {
        &self.namer
    }

    /// The embedded Chord ring (inspection).
    pub fn chord(&self) -> &ChordNet {
        &self.chord
    }

    /// The current role of `node`, if it has state.
    pub fn role_of(&self, node: NodeId) -> Option<Role> {
        self.state(node).map(|s| s.role)
    }

    /// Chunks currently buffered by `node`.
    pub fn held_count(&self, node: NodeId) -> usize {
        self.state(node).map(|s| s.buffer.held_count()).unwrap_or(0)
    }

    /// True if `node` holds chunk `seq`.
    pub fn holds(&self, node: NodeId, seq: ChunkSeq) -> bool {
        self.state(node).map(|s| s.buffer.has(seq)).unwrap_or(false)
    }

    /// Total indices registered at `node`'s coordinator table.
    pub fn index_count(&self, node: NodeId) -> usize {
        self.state(node).map(|s| s.index.index_count()).unwrap_or(0)
    }

    /// Number of nodes currently in the coordinator rotation (hierarchical).
    pub fn coordinator_count(&self) -> usize {
        self.coordinator_pool.len()
    }

    fn state(&self, node: NodeId) -> Option<&NodeState> {
        self.nodes.get(node.index()).and_then(Option::as_ref)
    }

    fn state_mut(&mut self, node: NodeId) -> Option<&mut NodeState> {
        self.nodes.get_mut(node.index()).and_then(Option::as_mut)
    }

    fn is_server(&self, node: NodeId) -> bool {
        node == NodeId(0)
    }

    fn key_of(&self, seq: ChunkSeq) -> ChordId {
        self.namer.id_of(seq)
    }
}

impl Protocol for DcoProtocol {
    type Msg = DcoMsg;
    type Timer = DcoTimer;

    fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        self.handle_join(node, ctx);
    }

    fn on_message(&mut self, node: NodeId, from: NodeId, msg: DcoMsg, ctx: &mut Ctx<'_, Self>) {
        match msg {
            DcoMsg::Chord(m) => self.handle_chord(node, from, m, ctx),
            DcoMsg::Insert {
                key,
                index,
                ttl,
                fin,
            } => self.route_insert(node, key, index, ttl, fin, ctx),
            DcoMsg::Deregister {
                key,
                holder,
                ttl,
                fin,
            } => self.route_deregister(node, key, holder, ttl, fin, ctx),
            DcoMsg::Lookup {
                key,
                seq,
                origin,
                exclude,
                ttl,
                fin,
            } => self.route_lookup(node, key, seq, origin, exclude, ttl, fin, ctx),
            DcoMsg::Provider { seq, provider } => self.handle_provider(node, seq, provider, ctx),
            DcoMsg::ChunkRequest { seq } => self.handle_chunk_request(node, from, seq, ctx),
            DcoMsg::ChunkData { seq } => self.handle_chunk_data(node, from, seq, ctx),
            DcoMsg::Busy { seq } => self.handle_busy(node, seq, ctx),
            DcoMsg::NoChunk { seq } => self.handle_no_chunk(node, from, seq, ctx),
            DcoMsg::IndexHandover { entries } => {
                if let Some(st) = self.state_mut(node) {
                    st.index.absorb(entries);
                }
            }
            DcoMsg::AttachRequest => self.handle_attach_request(node, from, ctx),
            DcoMsg::AttachAssign { coordinator } => {
                self.handle_attach_assign(node, coordinator, ctx)
            }
            DcoMsg::ClientAttach => self.handle_client_attach(node, from),
            DcoMsg::ClientLookup { seq, exclude } => {
                self.handle_client_lookup(node, from, seq, exclude, ctx)
            }
            DcoMsg::ClientInsert { index } => self.handle_client_insert(node, index, ctx),
            DcoMsg::StableReport { longevity } => self.handle_stable_report(node, from, longevity),
            DcoMsg::Promote => self.handle_promote(node, from, ctx),
            DcoMsg::CoordinatorAnnounce => self.handle_coordinator_announce(node, from),
            DcoMsg::CoordinatorLost { dead } => self.handle_coordinator_lost(node, from, dead, ctx),
        }
    }

    fn on_timer(&mut self, node: NodeId, timer: DcoTimer, ctx: &mut Ctx<'_, Self>) {
        match timer {
            DcoTimer::Generate => self.handle_generate(node, ctx),
            DcoTimer::FetchTick => self.handle_fetch_tick(node, ctx),
            DcoTimer::RequestTimeout { seq, provider } => {
                self.handle_request_timeout(node, seq, provider, ctx)
            }
            DcoTimer::LookupTimeout { seq } => self.handle_lookup_timeout(node, seq, ctx),
            DcoTimer::ReportTick => self.handle_report_tick(node, ctx),
            DcoTimer::Stabilize => self.handle_stabilize_tick(node, ctx),
            DcoTimer::FixFingers => self.handle_fix_fingers_tick(node, ctx),
            DcoTimer::JoinRetry => self.handle_join_retry(node, ctx),
            DcoTimer::TierCheck => self.handle_tier_check(node, ctx),
        }
    }

    fn on_leave(&mut self, node: NodeId, graceful: bool, ctx: &mut Ctx<'_, Self>) {
        self.handle_leave(node, graceful, ctx);
    }
}
