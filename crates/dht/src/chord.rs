//! The Chord protocol state machine.
//!
//! [`ChordNet`] holds the Chord state of *every* simulated node (indexed by
//! [`NodeId`]) and encodes the full protocol — join, recursive
//! `find_successor` routing, stabilization, `fix_fingers`, graceful leave
//! and failure suspicion — as **pure message handlers**: each call consumes
//! a message or a timer tick and pushes the resulting sends and events into
//! an [`Outbox`]. The host (a `dco_sim` protocol) owns the actual I/O: it
//! drains the outbox into `Ctx::send_control`, which is what gives every
//! DHT hop its latency and its unit of "extra overhead".
//!
//! This inversion — logic here, I/O in the host — is what lets the DCO
//! protocol in `dco-core` embed a real Chord ring, and what lets property
//! tests drive the state machine without a simulator at all.
//!
//! # Failure handling
//!
//! There are no response timeouts; instead, suspicion is tick-based: if a
//! `stabilize` probe sent at tick *t* has not been answered by tick *t+1*,
//! the successor is declared dead, dropped from the successor list and the
//! finger table, and the next list entry takes over. Predecessors are
//! expired symmetrically when no probe has arrived for
//! [`PRED_TTL_TICKS`] ticks.

use dco_sim::node::NodeId;
use dco_sim::slab::SlotTable;
use dco_sim::smallvec::SmallVec;

use crate::id::{ChordId, Peer};
use crate::pool::{FingerPool, SuccessorPool, TombstonePool};
use crate::ring::OracleRing;

/// Why a `FindSucc` lookup was issued; echoed back in the answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteToken {
    /// A joining node locating its successor.
    Join,
    /// Refreshing finger `k`.
    Finger(u32),
}

/// Chord wire messages.
#[derive(Clone, Debug)]
pub enum ChordMsg {
    /// Recursive `find_successor(key)` request travelling toward the owner.
    FindSucc {
        /// The key being resolved.
        key: ChordId,
        /// Who asked (the answer goes straight back here).
        origin: Peer,
        /// Purpose cookie.
        token: RouteToken,
        /// Remaining forwards before the request is dropped (loop guard).
        ttl: u8,
    },
    /// Answer to [`ChordMsg::FindSucc`]: `succ` is `successor(key)`.
    FoundSucc {
        /// The owner of the key.
        succ: Peer,
        /// Echoed purpose cookie.
        token: RouteToken,
    },
    /// Stabilize probe: "who is your predecessor?".
    GetPred {
        /// The prober (the receiver learns this peer is alive).
        from: Peer,
    },
    /// Stabilize answer, sharing the successor list for repair.
    PredReply {
        /// The receiver's current predecessor.
        pred: Option<Peer>,
        /// The receiver's successor list.
        succs: Vec<Peer>,
        /// Peers the replier recently declared dead, each with remaining
        /// dissemination hops (epidemic failure spreading, so corpses deep
        /// in successor lists are flushed ring-wide in a few stabilize
        /// rounds instead of one probe at a time; the hop bound keeps two
        /// nodes from re-infecting each other's tombstones forever).
        dead: Vec<(NodeId, u8)>,
    },
    /// "I believe I am your predecessor."
    Notify {
        /// The notifier.
        peer: Peer,
    },
    /// Graceful leave, sent to the predecessor: "adopt my successor".
    LeaveToPred {
        /// The departing node.
        leaving: Peer,
        /// Its successor, offered as a replacement.
        new_succ: Option<Peer>,
    },
    /// Graceful leave, sent to the successor: "adopt my predecessor".
    LeaveToSucc {
        /// The departing node.
        leaving: Peer,
        /// Its predecessor, offered as a replacement.
        new_pred: Option<Peer>,
    },
}

/// Default TTL for recursive lookups (well above `log₂` of any network we
/// simulate).
pub const FIND_TTL: u8 = 64;

/// Stabilize ticks after which a death tombstone expires (allows rejoined
/// nodes to be re-learned from gossip; direct contact clears it earlier).
pub const SUSPECT_TTL_TICKS: u64 = 30;

/// Stabilize ticks after which a death leaves the gossip of
/// [`ChordMsg::PredReply`] (the ring has flushed by then; unbounded gossip
/// would keep rejoined nodes banned). No longer than the tombstone's life,
/// so every node still gossiped is still tombstoned.
const GOSSIP_TTL_TICKS: u64 = 10;
const _: () = assert!(GOSSIP_TTL_TICKS <= SUSPECT_TTL_TICKS);

/// Stabilize ticks without a probe from the predecessor before it is
/// presumed dead.
pub const PRED_TTL_TICKS: u32 = 3;

/// Consecutive unanswered liveness probes before a peer is declared dead,
/// so a single lost message cannot amputate a live node.
pub const SUSPICION_MISSES: u32 = 3;

/// Events the host must react to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChordEvent {
    /// The node completed its join (successor learned).
    JoinComplete {
        /// The joined node.
        node: NodeId,
    },
    /// The node's predecessor changed; the host should hand every stored
    /// key **outside** the node's new ownership arc `(new_pred, me]` to
    /// `new_pred` (via `KeyStore::extract_range(me, new_pred.id)`).
    PredChanged {
        /// The node whose arc shrank.
        node: NodeId,
        /// The new predecessor.
        new_pred: Peer,
    },
    /// The node declared its working successor dead.
    SuccessorDeclaredDead {
        /// The suspecting node.
        node: NodeId,
        /// The suspect.
        dead: NodeId,
    },
}

/// A pending control-message send produced by the state machine.
#[derive(Clone, Debug)]
pub struct Send {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload.
    pub msg: ChordMsg,
    /// Overhead-accounting tag.
    pub tag: &'static str,
}

/// Sends and events produced by one state-machine step.
#[derive(Default, Debug)]
pub struct Outbox {
    /// Messages to transmit.
    pub sends: Vec<Send>,
    /// Events for the host.
    pub events: Vec<ChordEvent>,
}

impl Outbox {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: ChordMsg, tag: &'static str) {
        self.sends.push(Send { from, to, msg, tag });
    }

    /// True if nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.events.is_empty()
    }
}

/// Where an application message keyed by `key` should go next.
///
/// Chord terminates a lookup one hop early: the node whose `(me, succ]` arc
/// contains the key declares its **successor** the owner. Hosts forwarding a
/// message on [`RouteDecision::DeliverAt`] must mark it final so the
/// receiver accepts it without re-routing (its own predecessor pointer may
/// transiently disagree).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteDecision {
    /// This node owns the key; deliver locally.
    Deliver,
    /// The given peer is the owner; forward as final.
    DeliverAt(Peer),
    /// Forward to this peer and keep routing.
    Forward(Peer),
}

/// A [`RouteDecision`] reduced to node ids, as returned by
/// [`ChordNet::route_next_cached`]. Hop-by-hop hosts only need the next
/// node to hand the message to, so the cache stores (and returns) just
/// that instead of full [`Peer`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteStep {
    /// This node owns the key; deliver locally.
    Deliver,
    /// The given node is the owner; forward as final.
    DeliverAt(NodeId),
    /// Forward to this node and keep routing.
    Forward(NodeId),
}

impl RouteStep {
    fn of(d: RouteDecision) -> RouteStep {
        match d {
            RouteDecision::Deliver => RouteStep::Deliver,
            RouteDecision::DeliverAt(p) => RouteStep::DeliverAt(p.node),
            RouteDecision::Forward(p) => RouteStep::Forward(p.node),
        }
    }
}

/// Distinct keys the route cache will track; DCO routes by chunk name and
/// streams carry ~100 distinct chunk keys, so this covers the hot set.
/// Keys beyond the budget simply bypass the cache.
const ROUTE_SLOTS: usize = 128;

/// Target node ids must fit in 30 bits to pack into a cache entry;
/// anything larger (never seen in practice) bypasses the cache.
const ROUTE_NODE_MAX: u32 = (1 << 30) - 1;

/// Memoized [`ChordNet::route_next`] decisions.
///
/// `route_next` is a pure function of the deciding node's own Chord state,
/// so each entry is valid until that node's state next changes. A per-node
/// generation counter — bumped on *any* mutable access to the state —
/// versions the entries: a row written under an older generation simply
/// misses. In the paper's no-churn experiments the ring never mutates
/// after construction, so every (node, key) pair is computed exactly once;
/// under churn the cache degrades gracefully toward recompute-per-hop.
#[derive(Default)]
struct RouteCache {
    /// Distinct keys seen so far, sorted for binary search; the payload is
    /// the key's column in `rows`.
    keys: Vec<(ChordId, u16)>,
    /// Per-node generation, bumped on every state mutation.
    gens: Vec<u32>,
    /// Per-node decision row, allocated on first route from that node.
    /// Entry layout: `gen << 32 | kind << 30 | target_node`, with kind
    /// 1 = Deliver, 2 = DeliverAt, 3 = Forward; kind 0 (the zeroed
    /// initial state) never matches.
    rows: Vec<Option<Box<[u64; ROUTE_SLOTS]>>>,
}

impl RouteCache {
    /// The column for `key`, allocating one if the budget allows.
    fn slot_of(&mut self, key: ChordId) -> Option<usize> {
        match self.keys.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => Some(self.keys[i].1 as usize),
            Err(i) => {
                let next = self.keys.len();
                if next >= ROUTE_SLOTS {
                    return None;
                }
                self.keys.insert(i, (key, next as u16));
                Some(next)
            }
        }
    }

    /// Invalidates all of `node`'s cached decisions.
    fn bump(&mut self, node: NodeId) {
        if let Some(g) = self.gens.get_mut(node.index()) {
            *g = g.wrapping_add(1);
        }
    }

    /// Grows the per-node arrays to cover `node`.
    fn ensure(&mut self, node: NodeId) {
        let want = node.index() + 1;
        if self.gens.len() < want {
            self.gens.resize(want, 0);
            self.rows.resize_with(want, || None);
        }
    }

    fn get(&self, node: NodeId, slot: usize) -> Option<RouteStep> {
        let i = node.index();
        let e = self.rows[i].as_deref()?[slot];
        if (e >> 32) as u32 != self.gens[i] {
            return None;
        }
        let target = NodeId((e & ROUTE_NODE_MAX as u64) as u32);
        match (e >> 30) & 0b11 {
            1 => Some(RouteStep::Deliver),
            2 => Some(RouteStep::DeliverAt(target)),
            3 => Some(RouteStep::Forward(target)),
            _ => None,
        }
    }

    fn put(&mut self, node: NodeId, slot: usize, step: RouteStep) {
        let (kind, target) = match step {
            RouteStep::Deliver => (1u64, 0),
            RouteStep::DeliverAt(n) => (2, n.0),
            RouteStep::Forward(n) => (3, n.0),
        };
        if target > ROUTE_NODE_MAX {
            return;
        }
        let i = node.index();
        let row = self.rows[i].get_or_insert_with(|| Box::new([0u64; ROUTE_SLOTS]));
        row[slot] = ((self.gens[i] as u64) << 32) | (kind << 30) | target as u64;
    }
}

/// Dissemination hops a locally observed death starts with.
const GOSSIP_HOPS: u8 = 4;

/// Per-node Chord state: the scalar core only.
///
/// The heap-shaped repair state — successor list, finger table, probe-miss
/// counts and death tombstones — lives in the pooled `Books` owned by
/// [`ChordNet`], indexed by the node's slot. Keeping the per-node struct
/// all-scalar (plus two inline [`SmallVec`]s that spill only in pathological
/// repair storms) is what lets churn workloads carry N ≥ 50k rings without
/// hundreds of thousands of small allocations. Read access goes through
/// [`ChordStateRef`], which rejoins the core with its pooled books.
#[derive(Clone, Debug)]
pub struct ChordState {
    me: Peer,
    pred: Option<Peer>,
    /// Finger lookups issued last tick: `(finger index, first hop used)`.
    /// Entries still here at the next tick indicate a lost lookup; the hop
    /// is then suspected and cleared from the finger table.
    pending_fingers: SmallVec<(u32, NodeId), 4>,
    /// Stabilize probe to the working successor outstanding since the last
    /// tick (the target is recorded so an unrelated reply cannot clear it).
    stab_pending_to: Option<NodeId>,
    /// Liveness probe to a deep successor-list entry outstanding since the
    /// last tick.
    probe_pending: Option<NodeId>,
    /// The deep successor-list entry probed last tick (rotation anchor).
    last_deep_probe: Option<NodeId>,
    /// Stabilize ticks elapsed (timestamp source for death gossip expiry).
    tick: u64,
    /// Recently declared-dead peers: `(peer, declaration tick, remaining
    /// dissemination hops)`.
    recent_dead: SmallVec<(NodeId, u64, u8), 4>,
    /// Ticks left before the predecessor is presumed dead.
    pred_ttl: u32,
    joined: bool,
}

impl ChordState {
    fn new(me: Peer) -> Self {
        ChordState {
            me,
            pred: None,
            pending_fingers: SmallVec::new(),
            stab_pending_to: None,
            probe_pending: None,
            last_deep_probe: None,
            tick: 0,
            recent_dead: SmallVec::new(),
            pred_ttl: PRED_TTL_TICKS,
            joined: false,
        }
    }

    /// This node's ring identity.
    pub fn me(&self) -> Peer {
        self.me
    }

    /// Current predecessor.
    pub fn predecessor(&self) -> Option<Peer> {
        self.pred
    }

    /// True once the join handshake finished.
    pub fn is_joined(&self) -> bool {
        self.joined
    }
}

/// The pooled per-node repair state: successor lists, finger tables,
/// probe-miss counts and death tombstones for *all* nodes, in flat arrays
/// indexed by node slot. One allocation per book instead of four per node.
///
/// Under churn most calls here change nothing, and the books answer those
/// without scanning (see [`crate::pool`]): a successor offer that is a
/// duplicate or falls past capacity is rejected at its insert position,
/// found by binary search (or, through a stabilize reply's list, by
/// walking on from the previous one); a finger offer or removal steps over
/// runs of one repeated peer, not over 64 fingers; a tombstone probe for a
/// node no owner suspects is one read of a per-node count. Each answer is
/// the one the plain scan gives, so no decision (and no pinned digest)
/// moves.
struct Books {
    succs: SuccessorPool,
    fingers: FingerPool,
    /// Consecutive unanswered probes per (owner, target). A peer is only
    /// declared dead after [`SUSPICION_MISSES`] silent
    /// rounds, so a single lost message cannot amputate a live node.
    probe_misses: SlotTable<u32>,
    /// Death tombstones per (owner, peer), valued by declaration tick.
    /// Gossip (merged successor lists, forwarded peer info) cannot
    /// re-introduce a suspected peer; a message received directly from it —
    /// or expiry after [`SUSPECT_TTL_TICKS`] — lifts the suspicion (expiry
    /// matters because churned nodes can rejoin under the same address).
    /// Without tombstones, a corpse deep in a neighbor's successor list
    /// circulates forever. Probed on every message (`unsuspect`) and every
    /// learned peer, almost always for a node nobody suspects, which the
    /// pool's per-node holder count answers without a scan.
    suspected: TombstonePool,
}

impl Books {
    fn new(owners: usize, successor_list_len: usize) -> Self {
        Books {
            succs: SuccessorPool::new(owners, successor_list_len),
            fingers: FingerPool::new(owners),
            // Stab + deep probe leave at most a couple of live miss
            // counters per node; tombstones burst a little wider under
            // gossip. Both strides double globally if ever outgrown.
            probe_misses: SlotTable::new(owners, 2),
            suspected: TombstonePool::new(owners, 4),
        }
    }

    fn grow_owners(&mut self, owners: usize) {
        self.succs.grow_owners(owners);
        self.fingers.grow_owners(owners);
        self.probe_misses.grow_owners(owners);
        self.suspected.grow_owners(owners);
    }

    /// Resets `owner`'s books (join/rejoin under a reused slot, or state
    /// drop on leave/fail — node slots are recycled across churn sessions).
    fn clear_owner(&mut self, owner: usize) {
        self.succs.clear(owner);
        self.fingers.clear_owner(owner);
        self.probe_misses.clear(owner);
        self.suspected.clear(owner);
    }

    /// Learns that `p` exists (fills fingers and the successor list),
    /// unless `p` is currently suspected dead.
    fn learn(&mut self, st: &ChordState, owner: usize, p: Peer) {
        if p.node == st.me.node || self.suspected.contains(owner, p.node) {
            return;
        }
        self.succs.offer(owner, st.me.id, p);
        self.fingers
            .offer_all(owner, st.me.id, core::slice::from_ref(&p));
    }

    /// Forgets a dead (or departed) node everywhere, tombstones it, and
    /// queues the death for gossip with `hops` remaining dissemination
    /// hops. Locally observed deaths start at [`GOSSIP_HOPS`];
    /// gossip-learned deaths are re-gossiped with one hop fewer, so the
    /// news floods the ring but cannot circulate forever (two nodes
    /// re-infecting each other's tombstones is what the bound prevents).
    fn forget_with_hops(&mut self, st: &mut ChordState, owner: usize, node: NodeId, hops: u8) {
        // Refresh the tombstone on every (re-)observation: expiry runs
        // from the last evidence of death. The hop bound terminates gossip
        // waves, so refreshes stop shortly after the last real detection
        // and expiry stays reachable.
        self.suspected.insert(owner, node, st.tick);
        self.succs.remove_node(owner, node);
        self.fingers.remove_node(owner, node);
        if st.pred.map(|p| p.node == node).unwrap_or(false) {
            st.pred = None;
        }
        if hops > 0
            && !st
                .recent_dead
                .iter()
                .any(|&(n, _, h)| n == node && h >= hops)
        {
            st.recent_dead.retain(|&(n, _, _)| n != node);
            st.recent_dead.push((node, st.tick, hops));
        }
    }

    /// A locally observed death (probe miss, leave notice).
    fn forget(&mut self, st: &mut ChordState, owner: usize, node: NodeId) {
        self.forget_with_hops(st, owner, node, GOSSIP_HOPS);
    }

    /// A message arrived directly from `node`: it is demonstrably alive.
    ///
    /// A node in `recent_dead` is always tombstoned too: both are written
    /// together in `forget_with_hops`, a refresh only moves the tombstone's
    /// tick later, and the tombstone outlives the gossip entry
    /// ([`SUSPECT_TTL_TICKS`] against `GOSSIP_TTL_TICKS`). So when no
    /// tombstone is lifted there is no gossip entry to drop either.
    fn unsuspect(&mut self, st: &mut ChordState, owner: usize, node: NodeId) {
        if self.suspected.remove(owner, node) {
            st.recent_dead.retain(|&(n, _, _)| n != node);
        }
        debug_assert!(st.recent_dead.iter().all(|&(n, _, _)| n != node));
    }

    /// The best greedy next hop toward `key`: the peer whose ID most
    /// closely precedes `key`, drawn from the finger table **and** the
    /// successor list. Wide successor lists (the paper's "neighbors",
    /// swept 8→64 in §IV) therefore shorten routes — which is exactly why
    /// DCO's overhead *falls* as the neighbor count grows (Fig. 8). Both
    /// lookups are searches: the finger table's over its runs, the
    /// successor list's a binary search over its distance order.
    fn best_hop(&self, st: &ChordState, owner: usize, key: ChordId) -> Option<Peer> {
        let me = st.me.id;
        let finger = self.fingers.closest_preceding(owner, me, key);
        // Scanning the list nearest first and keeping any farther entry
        // ends at its farthest in-range entry, if that beats the finger.
        match (finger, self.succs.closest_preceding(owner, me, key)) {
            (Some(f), Some(s)) if me.distance_to(s.id) <= me.distance_to(f.id) => Some(f),
            (f, s) => s.or(f),
        }
    }
}

/// Read view of one node's Chord state: the scalar core rejoined with its
/// pooled successor list, finger table and tombstones.
#[derive(Clone, Copy)]
pub struct ChordStateRef<'a> {
    core: &'a ChordState,
    books: &'a Books,
    owner: usize,
}

impl<'a> ChordStateRef<'a> {
    /// This node's ring identity.
    pub fn me(&self) -> Peer {
        self.core.me
    }

    /// Current predecessor.
    pub fn predecessor(&self) -> Option<Peer> {
        self.core.pred
    }

    /// Working successor.
    pub fn successor(&self) -> Option<Peer> {
        self.books.succs.first(self.owner)
    }

    /// The whole successor list, nearest first.
    pub fn successor_list(&self) -> Vec<Peer> {
        self.books.succs.iter(self.owner).collect()
    }

    /// True once the join handshake finished.
    pub fn is_joined(&self) -> bool {
        self.core.joined
    }

    /// Read access to the finger table.
    pub fn fingers(&self) -> FingersRef<'a> {
        FingersRef {
            books: self.books,
            owner: self.owner,
        }
    }

    /// True if this node currently suspects `node` dead (test hook).
    pub fn suspects(&self, node: NodeId) -> bool {
        self.books.suspected.contains(self.owner, node)
    }
}

/// Read view of one node's pooled finger table.
#[derive(Clone, Copy)]
pub struct FingersRef<'a> {
    books: &'a Books,
    owner: usize,
}

impl FingersRef<'_> {
    /// Current entry of finger `k`.
    pub fn get(&self, k: u32) -> Option<Peer> {
        self.books.fingers.get(self.owner, k)
    }

    /// Number of populated entries.
    pub fn populated(&self) -> usize {
        self.books.fingers.populated(self.owner)
    }

    /// Distinct populated fingers (deduplicated by node).
    pub fn distinct_peers(&self) -> Vec<Peer> {
        self.books.fingers.distinct_peers(self.owner)
    }
}

/// The Chord state of every simulated node.
pub struct ChordNet {
    nodes: Vec<Option<ChordState>>,
    books: Books,
    route_cache: RouteCache,
}

impl ChordNet {
    /// An empty network able to host up to `capacity` nodes, each keeping
    /// `successor_list_len` successors (DCO passes its neighbor count,
    /// which §IV varies from 8 to 64).
    pub fn new(capacity: usize, successor_list_len: usize) -> Self {
        ChordNet {
            nodes: (0..capacity).map(|_| None).collect(),
            books: Books::new(capacity, successor_list_len),
            route_cache: RouteCache::default(),
        }
    }

    /// Grows capacity to at least `n` slots.
    pub fn grow(&mut self, n: usize) {
        while self.nodes.len() < n {
            self.nodes.push(None);
        }
        self.books.grow_owners(n);
    }

    /// Read access to a node's state (scalar core plus pooled books).
    pub fn state(&self, node: NodeId) -> Option<ChordStateRef<'_>> {
        let owner = node.index();
        let core = self.nodes.get(owner).and_then(Option::as_ref)?;
        Some(ChordStateRef {
            core,
            books: &self.books,
            owner,
        })
    }

    /// Splits out one node's mutable scalar core alongside the shared
    /// books (the two live in disjoint fields, so the borrows coexist).
    /// Also versions the node's cached route decisions out from under it:
    /// any mutable access may change routing-relevant state.
    fn state_mut(&mut self, node: NodeId) -> Option<(&mut ChordState, &mut Books)> {
        self.route_cache.bump(node);
        let core = self.nodes.get_mut(node.index()).and_then(Option::as_mut)?;
        Some((core, &mut self.books))
    }

    /// Number of nodes currently holding ring state.
    pub fn member_count(&self) -> usize {
        self.nodes.iter().filter(|s| s.is_some()).count()
    }

    /// Iterates over current members.
    pub fn members(&self) -> impl Iterator<Item = ChordStateRef<'_>> + '_ {
        self.nodes.iter().enumerate().filter_map(|(owner, slot)| {
            slot.as_ref().map(|core| ChordStateRef {
                core,
                books: &self.books,
                owner,
            })
        })
    }

    /// An oracle snapshot of the current membership (tests, static setup).
    pub fn oracle(&self) -> OracleRing {
        OracleRing::from_members(self.members().map(|s| s.me()))
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// The first node bootstraps a singleton ring.
    pub fn bootstrap(&mut self, me: Peer) {
        self.grow(me.node.index() + 1);
        let mut st = ChordState::new(me);
        st.joined = true;
        self.route_cache.bump(me.node);
        // Slots are recycled across churn sessions: scrub any books left
        // behind by a previous tenancy before installing fresh state.
        self.books.clear_owner(me.node.index());
        self.nodes[me.node.index()] = Some(st);
    }

    /// Starts a join: `me` asks `via` (any ring member) to locate its
    /// successor. The join completes when [`ChordEvent::JoinComplete`]
    /// fires; retry with [`ChordNet::retry_join`] if it does not.
    pub fn join(&mut self, me: Peer, via: NodeId, out: &mut Outbox) {
        self.grow(me.node.index() + 1);
        self.route_cache.bump(me.node);
        self.books.clear_owner(me.node.index());
        self.nodes[me.node.index()] = Some(ChordState::new(me));
        out.send(
            me.node,
            via,
            ChordMsg::FindSucc {
                key: me.id,
                origin: me,
                token: RouteToken::Join,
                ttl: FIND_TTL,
            },
            "chord.find",
        );
    }

    /// Re-sends the join lookup (host calls this on a timer while
    /// `!is_joined`).
    pub fn retry_join(&mut self, node: NodeId, via: NodeId, out: &mut Outbox) {
        let Some(st) = self.state(node) else { return };
        if st.is_joined() {
            return;
        }
        let me = st.me();
        out.send(
            node,
            via,
            ChordMsg::FindSucc {
                key: me.id,
                origin: me,
                token: RouteToken::Join,
                ttl: FIND_TTL,
            },
            "chord.find",
        );
    }

    /// Graceful leave: notifies the predecessor and successor and drops the
    /// state. Returns the final `(predecessor, successor)` so the host can
    /// transfer application keys to the successor.
    pub fn leave(
        &mut self,
        node: NodeId,
        out: &mut Outbox,
    ) -> Option<(Option<Peer>, Option<Peer>)> {
        self.route_cache.bump(node);
        let st = self.nodes.get_mut(node.index())?.take()?;
        let me = st.me;
        let pred = st.pred;
        let succ = self.books.succs.first(node.index());
        self.books.clear_owner(node.index());
        if let Some(p) = pred {
            out.send(
                node,
                p.node,
                ChordMsg::LeaveToPred {
                    leaving: me,
                    new_succ: succ,
                },
                "chord.leave",
            );
        }
        if let Some(s) = succ {
            out.send(
                node,
                s.node,
                ChordMsg::LeaveToSucc {
                    leaving: me,
                    new_pred: pred,
                },
                "chord.leave",
            );
        }
        Some((pred, succ))
    }

    /// Abrupt failure: state vanishes with no goodbye. Peers find out
    /// through stabilization.
    pub fn fail(&mut self, node: NodeId) {
        self.route_cache.bump(node);
        if let Some(slot) = self.nodes.get_mut(node.index()) {
            if slot.take().is_some() {
                self.books.clear_owner(node.index());
            }
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Processes one incoming Chord message at `node`.
    pub fn handle(&mut self, node: NodeId, from: NodeId, msg: ChordMsg, out: &mut Outbox) {
        let owner = node.index();
        match self.state_mut(node) {
            // Direct contact proves liveness.
            Some((st, books)) => books.unsuspect(st, owner, from),
            None => return, // state already dropped (left/failed)
        }
        match msg {
            ChordMsg::FindSucc {
                key,
                origin,
                token,
                ttl,
            } => {
                self.handle_find(node, key, origin, token, ttl, out);
            }
            ChordMsg::FoundSucc { succ, token } => {
                self.handle_found(node, succ, token, out);
            }
            ChordMsg::GetPred { from: prober } => {
                let (st, books) = self.state_mut(node).expect("checked above");
                // A probe from our predecessor proves it is alive.
                if st.pred.map(|p| p.node == prober.node).unwrap_or(false) {
                    st.pred_ttl = PRED_TTL_TICKS;
                }
                let reply = ChordMsg::PredReply {
                    pred: st.pred,
                    succs: books.succs.iter(owner).collect(),
                    dead: st.recent_dead.iter().map(|&(n, _, h)| (n, h)).collect(),
                };
                books.learn(st, owner, prober);
                out.send(node, from, reply, "chord.stab");
            }
            ChordMsg::PredReply { pred, succs, dead } => {
                self.handle_pred_reply(node, from, pred, succs, dead, out);
            }
            ChordMsg::Notify { peer } => {
                self.handle_notify(node, peer, out);
            }
            ChordMsg::LeaveToPred { leaving, new_succ } => {
                let (st, books) = self.state_mut(node).expect("checked above");
                books.forget(st, owner, leaving.node);
                if let Some(s) = new_succ {
                    books.learn(st, owner, s);
                }
            }
            ChordMsg::LeaveToSucc { leaving, new_pred } => {
                let (st, books) = self.state_mut(node).expect("checked above");
                let was_pred = st.pred.map(|p| p.node == leaving.node).unwrap_or(false);
                books.forget(st, owner, leaving.node);
                if was_pred {
                    st.pred = new_pred;
                    st.pred_ttl = PRED_TTL_TICKS;
                    // Ownership arc grows — no key handover needed (we keep
                    // serving the departed arc until a new node claims it).
                }
                if let Some(p) = new_pred {
                    books.learn(st, owner, p);
                }
            }
        }
    }

    fn handle_find(
        &mut self,
        node: NodeId,
        key: ChordId,
        origin: Peer,
        token: RouteToken,
        ttl: u8,
        out: &mut Outbox,
    ) {
        let owner = node.index();
        let (st, books) = self.state_mut(node).expect("caller checked");
        books.learn(st, owner, origin);
        let me = st.me;
        let answer = |out: &mut Outbox, succ: Peer| {
            out.send(
                node,
                origin.node,
                ChordMsg::FoundSucc { succ, token },
                "chord.found",
            );
        };
        // The origin must never be its own answer or a forwarding hop —
        // when a joiner resolves its own ID the result has to be its future
        // successor among the *existing* members (we may have already
        // learned the joiner into our tables above).
        let skip = origin.node;
        let succ = books.succs.iter(owner).find(|p| p.node != skip);
        let Some(succ) = succ else {
            // No other member known: I am the ring (or all I know is the
            // origin itself) — I own everything else.
            answer(out, me);
            return;
        };
        // Owner checks: me, then my successor.
        if let Some(pred) = st.pred {
            if key.in_open_closed(pred.id, me.id) {
                answer(out, me);
                return;
            }
        }
        if key.in_open_closed(me.id, succ.id) {
            answer(out, succ);
            return;
        }
        if ttl == 0 {
            return; // loop guard: drop, origin retries
        }
        let hop = books
            .best_hop(st, owner, key)
            .filter(|p| p.node != skip && p.node != node)
            .unwrap_or(succ);
        out.send(
            node,
            hop.node,
            ChordMsg::FindSucc {
                key,
                origin,
                token,
                ttl: ttl - 1,
            },
            "chord.find",
        );
    }

    fn handle_found(&mut self, node: NodeId, succ: Peer, token: RouteToken, out: &mut Outbox) {
        let owner = node.index();
        let (st, books) = self.state_mut(node).expect("caller checked");
        books.learn(st, owner, succ);
        match token {
            RouteToken::Join => {
                if succ.node == node {
                    // A self-answer cannot complete a join; stay unjoined so
                    // the host's retry timer tries again.
                    return;
                }
                if !st.joined {
                    st.joined = true;
                    books.succs.offer(owner, st.me.id, succ);
                    out.events.push(ChordEvent::JoinComplete { node });
                    if let Some(s) = books.succs.first(owner) {
                        out.send(
                            node,
                            s.node,
                            ChordMsg::Notify { peer: st.me },
                            "chord.notify",
                        );
                        // Jump-start convergence: probe the successor now
                        // rather than waiting for the next stabilize tick.
                        out.send(
                            node,
                            s.node,
                            ChordMsg::GetPred { from: st.me },
                            "chord.stab",
                        );
                    }
                }
            }
            RouteToken::Finger(k) => {
                st.pending_fingers.retain(|&(pk, _)| pk != k);
                if succ.node != node {
                    books.fingers.set(owner, k, succ);
                }
            }
        }
    }

    fn handle_pred_reply(
        &mut self,
        node: NodeId,
        from: NodeId,
        pred: Option<Peer>,
        mut succs: Vec<Peer>,
        dead: Vec<(NodeId, u8)>,
        out: &mut Outbox,
    ) {
        let owner = node.index();
        let (st, books) = self.state_mut(node).expect("caller checked");
        if st.stab_pending_to == Some(from) {
            st.stab_pending_to = None;
        }
        if st.probe_pending == Some(from) {
            st.probe_pending = None;
        }
        books.probe_misses.remove(owner, from.0);
        // Epidemic death gossip: adopt the replier's recent declarations
        // (never against ourselves or the replier, who is clearly alive)
        // and re-gossip them with one hop fewer.
        for (d, hops) in dead {
            if d != node && d != from {
                books.forget_with_hops(st, owner, d, hops.saturating_sub(1));
            }
        }
        let me = st.me;
        let old_first = books.succs.first(owner);
        // Adopt the successor's predecessor if it sits between us.
        if let Some(p) = pred {
            if p.node != node {
                if let Some(s) = books.succs.first(owner) {
                    if p.id.in_open(me.id, s.id) {
                        books.learn(st, owner, p);
                    }
                }
            }
        }
        // Merge the successor's list for fault tolerance, by learn()'s
        // rules: never ourselves, never a suspected-dead entry of the
        // gossip. Both books take the list as one batch, which leaves what
        // offering the peers one by one in the order sent leaves (the
        // successor list's dedup and truncation depend on that order).
        succs.retain(|p| p.node != node && !books.suspected.contains(owner, p.node));
        books.succs.offer_all(owner, me.id, &succs);
        books.fingers.offer_all(owner, me.id, &succs);
        // Tell the (possibly new) working successor about us.
        if let Some(s) = books.succs.first(owner) {
            out.send(node, s.node, ChordMsg::Notify { peer: me }, "chord.notify");
            // A closer successor was just adopted: probe it immediately so
            // the ring walks all the way to the true successor without
            // waiting a full stabilize period per step.
            if old_first.map(|o| o.node != s.node).unwrap_or(true) {
                st.stab_pending_to = Some(s.node);
                out.send(node, s.node, ChordMsg::GetPred { from: me }, "chord.stab");
            }
        }
    }

    fn handle_notify(&mut self, node: NodeId, peer: Peer, out: &mut Outbox) {
        let owner = node.index();
        let (st, books) = self.state_mut(node).expect("caller checked");
        if peer.node == node {
            return;
        }
        let adopt = match st.pred {
            None => true,
            Some(p) => peer.id.in_open(p.id, st.me.id),
        };
        books.learn(st, owner, peer);
        if adopt {
            st.pred = Some(peer);
            st.pred_ttl = PRED_TTL_TICKS;
            out.events.push(ChordEvent::PredChanged {
                node,
                new_pred: peer,
            });
        }
    }

    // ------------------------------------------------------------------
    // Periodic maintenance
    // ------------------------------------------------------------------

    /// One stabilization tick for `node`: suspicion checks, a `GetPred`
    /// probe to the working successor, one liveness probe to a deep
    /// successor-list entry (round-robin — deep entries double as routing
    /// hops, so corpses must be flushed out of the whole list), and
    /// predecessor expiry.
    pub fn tick_stabilize(&mut self, node: NodeId, out: &mut Outbox) {
        let owner = node.index();
        let Some((st, books)) = self.state_mut(node) else {
            return;
        };
        st.tick += 1;
        let now_tick = st.tick;
        st.recent_dead
            .retain(|&(_, t, _)| now_tick.saturating_sub(t) < GOSSIP_TTL_TICKS);
        books
            .suspected
            .retain(owner, |_, t| now_tick.saturating_sub(t) < SUSPECT_TTL_TICKS);
        // Unanswered probes from last tick → count a miss; declare death
        // only after `SUSPICION_MISSES` consecutive silent rounds.
        fn declare(
            books: &mut Books,
            st: &mut ChordState,
            owner: usize,
            node: NodeId,
            out: &mut Outbox,
            suspect: NodeId,
        ) {
            let misses = books.probe_misses.get(owner, suspect.0).unwrap_or(0) + 1;
            books.probe_misses.insert(owner, suspect.0, misses);
            if misses >= SUSPICION_MISSES && books.succs.contains_node(owner, suspect) {
                books.probe_misses.remove(owner, suspect.0);
                books.forget(st, owner, suspect);
                out.events.push(ChordEvent::SuccessorDeclaredDead {
                    node,
                    dead: suspect,
                });
            }
        }
        if let Some(suspect) = st.stab_pending_to.take() {
            declare(books, st, owner, node, out, suspect);
        }
        if let Some(suspect) = st.probe_pending.take() {
            declare(books, st, owner, node, out, suspect);
        }
        // Predecessor expiry.
        if st.pred.is_some() {
            st.pred_ttl = st.pred_ttl.saturating_sub(1);
            if st.pred_ttl == 0 {
                st.pred = None;
            }
        }
        let me = st.me;
        if let Some(s) = books.succs.first(owner) {
            st.stab_pending_to = Some(s.node);
            out.send(node, s.node, ChordMsg::GetPred { from: me }, "chord.stab");
        }
        // Deep probe: one non-head successor-list entry per tick, rotating
        // from the position after the last probed entry so every slot is
        // covered within `len` ticks even as the list shrinks.
        let deep_len = books.succs.len(owner).saturating_sub(1);
        if deep_len > 0 {
            let deep = || books.succs.iter(owner).skip(1);
            let start = match st.last_deep_probe {
                Some(last) => deep()
                    .position(|p| p.node == last)
                    .map(|i| (i + 1) % deep_len)
                    .unwrap_or(0),
                None => 0,
            };
            let target = deep().nth(start).expect("start < deep_len");
            st.last_deep_probe = Some(target.node);
            st.probe_pending = Some(target.node);
            out.send(
                node,
                target.node,
                ChordMsg::GetPred { from: me },
                "chord.stab",
            );
        }
    }

    /// One finger-maintenance tick: refreshes the whole finger table. Only
    /// the O(log n) starts past the successor cost a lookup; the rest
    /// resolve locally. Lookups from the previous tick that were never
    /// answered indicate a dead hop; that hop is cleared from the finger
    /// table so the next attempt routes around it.
    pub fn tick_fix_fingers(&mut self, node: NodeId, out: &mut Outbox) {
        let owner = node.index();
        let Some((st, books)) = self.state_mut(node) else {
            return;
        };
        if books.succs.is_empty(owner) {
            return; // singleton or not joined: nothing to fix
        }
        // Drop hops whose lookups vanished from the finger table only — the
        // loss may have been farther down the path, so this is weak evidence
        // and does not tombstone (the hop can be re-learned from gossip or
        // a later answer immediately).
        let stale = std::mem::take(&mut st.pending_fingers);
        for &(_, hop) in stale.iter() {
            books.fingers.remove_node(owner, hop);
        }
        let me = st.me;
        for k in 0..crate::id::ID_BITS {
            let start = me.id.finger_start(k);
            // Resolve locally when we already know the owner.
            let answered = {
                let succ = books.succs.first(owner).expect("non-empty checked above");
                if let Some(pred) = st.pred {
                    if start.in_open_closed(pred.id, me.id) {
                        books.fingers.clear(owner, k); // we own it ourselves
                        true
                    } else if start.in_open_closed(me.id, succ.id) {
                        books.fingers.set(owner, k, succ);
                        true
                    } else {
                        false
                    }
                } else if start.in_open_closed(me.id, succ.id) {
                    books.fingers.set(owner, k, succ);
                    true
                } else {
                    false
                }
            };
            if !answered {
                let succ = books.succs.first(owner).expect("non-empty checked above");
                let hop = books.best_hop(st, owner, start).unwrap_or(succ);
                let hop = if hop.node == node { succ } else { hop };
                st.pending_fingers.push((k, hop.node));
                out.send(
                    node,
                    hop.node,
                    ChordMsg::FindSucc {
                        key: start,
                        origin: me,
                        token: RouteToken::Finger(k),
                        ttl: FIND_TTL,
                    },
                    "chord.find",
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Application routing
    // ------------------------------------------------------------------

    /// Greedy next-hop decision for a host-routed message keyed by `key`.
    ///
    /// Hosts that piggyback application payloads hop-by-hop (as DCO does for
    /// `Insert`/`Lookup`) call this at every hop.
    pub fn route_next(&self, node: NodeId, key: ChordId) -> Option<RouteDecision> {
        let owner = node.index();
        let st = self.nodes.get(owner).and_then(Option::as_ref)?;
        let me = st.me;
        let Some(succ) = self.books.succs.first(owner) else {
            return Some(RouteDecision::Deliver); // singleton owns all
        };
        if let Some(pred) = st.pred {
            if key.in_open_closed(pred.id, me.id) {
                return Some(RouteDecision::Deliver);
            }
        }
        if key.in_open_closed(me.id, succ.id) {
            return Some(RouteDecision::DeliverAt(succ));
        }
        let hop = self.books.best_hop(st, owner, key).unwrap_or(succ);
        let hop = if hop.node == node { succ } else { hop };
        Some(RouteDecision::Forward(hop))
    }

    /// Memoized [`ChordNet::route_next`], reduced to node ids.
    ///
    /// Identical decisions, cached per (node, key) and invalidated whenever
    /// the deciding node's state mutates. Hop-by-hop hosts (DCO's
    /// `Insert`/`Lookup` routing) should prefer this; it turns each hop of
    /// a stable ring into one array read instead of a finger-table scan.
    pub fn route_next_cached(&mut self, node: NodeId, key: ChordId) -> Option<RouteStep> {
        let Some(slot) = self.route_cache.slot_of(key) else {
            return self.route_next(node, key).map(RouteStep::of);
        };
        self.route_cache.ensure(node);
        if let Some(step) = self.route_cache.get(node, slot) {
            debug_assert_eq!(Some(step), self.route_next(node, key).map(RouteStep::of));
            return Some(step);
        }
        let step = RouteStep::of(self.route_next(node, key)?);
        self.route_cache.put(node, slot, step);
        Some(step)
    }

    // ------------------------------------------------------------------
    // Static construction (no-churn experiments)
    // ------------------------------------------------------------------

    /// Builds a fully converged ring over `peers` in one shot: perfect
    /// predecessor/successor pointers, full successor lists and exact
    /// finger tables. This matches the paper's no-churn setting where "all
    /// nodes form a DHT" before streaming starts.
    pub fn build_static(peers: &[Peer], successor_list_len: usize) -> Self {
        let cap = peers.iter().map(|p| p.node.index() + 1).max().unwrap_or(0);
        let mut net = ChordNet::new(cap, successor_list_len);
        // The members in ID order: every pointer below is an index into it,
        // found by binary search.
        let ring: Vec<Peer> = OracleRing::from_members(peers.iter().copied())
            .iter()
            .collect();
        let n = ring.len();
        // Index of the first member at or after `key`, wrapping: its owner.
        let owner_at = |key: ChordId| ring.partition_point(|q| q.id < key) % n;
        for &p in peers {
            let slot = p.node.index();
            let mut st = ChordState::new(p);
            st.joined = true;
            if peers.len() > 1 {
                st.pred = Some(ring[(owner_at(p.id) + n - 1) % n]).filter(|q| q.node != p.node);
                let after = ring.partition_point(|q| q.id <= p.id);
                for j in 0..successor_list_len.min(n) {
                    let s = ring[(after + j) % n];
                    if s.id == p.id {
                        break;
                    }
                    net.books.succs.offer(slot, p.id, s);
                }
                // Finger `k` is the owner of `p + 2^k`. That owner `o` also
                // owns every later start up to `p + 2^floor(log2 d)`, where
                // `d` is its distance from `p`, so it fills that whole run.
                // An owner at `p` itself (`d == 0`) means no other member
                // lies in `[start, p)`, nor in any later, shorter range.
                let mut k = 0;
                while k < crate::id::ID_BITS {
                    let owner = ring[owner_at(p.id.finger_start(k))];
                    let d = p.id.distance_to(owner.id);
                    if d == 0 {
                        break;
                    }
                    let end = 63 - d.leading_zeros();
                    net.books.fingers.set_range(slot, k, end, owner);
                    k = end + 1;
                }
            }
            net.nodes[slot] = Some(st);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_node;

    /// Successor-list length of the test rings.
    pub(super) const SUCC_LEN: usize = 8;

    fn peer_of(node: u32) -> Peer {
        Peer::new(hash_node(NodeId(node)), NodeId(node))
    }

    /// Delivers all outbox sends synchronously until quiescence.
    /// Returns the events produced and the number of messages exchanged.
    fn pump(net: &mut ChordNet, out: &mut Outbox) -> (Vec<ChordEvent>, usize) {
        let mut events = Vec::new();
        let mut msgs = 0;
        while !out.sends.is_empty() {
            let sends = std::mem::take(&mut out.sends);
            events.append(&mut out.events);
            for s in sends {
                msgs += 1;
                net.handle(s.to, s.from, s.msg, out);
            }
        }
        events.append(&mut out.events);
        (events, msgs)
    }

    fn converge(net: &mut ChordNet, nodes: &[NodeId], rounds: usize) {
        let mut out = Outbox::new();
        for _ in 0..rounds {
            for &n in nodes {
                net.tick_stabilize(n, &mut out);
                net.tick_fix_fingers(n, &mut out);
            }
            pump(net, &mut out);
        }
    }

    #[test]
    fn static_ring_matches_oracle() {
        let peers: Vec<Peer> = (0..32).map(peer_of).collect();
        let net = ChordNet::build_static(&peers, SUCC_LEN);
        let oracle = net.oracle();
        for p in &peers {
            let st = net.state(p.node).unwrap();
            assert_eq!(st.successor(), oracle.successor(p.id), "succ of {p:?}");
            assert_eq!(st.predecessor(), oracle.predecessor(p.id), "pred of {p:?}");
            assert_eq!(
                st.successor_list(),
                oracle.successors(p.id, SUCC_LEN),
                "succs of {p:?}"
            );
            for k in 0..crate::id::ID_BITS {
                let want = oracle
                    .owner(p.id.finger_start(k))
                    .filter(|o| o.node != p.node);
                assert_eq!(st.fingers().get(k), want, "finger {k} of {p:?}");
            }
            assert!(st.is_joined());
        }
    }

    #[test]
    fn static_ring_routes_to_owner() {
        let peers: Vec<Peer> = (0..64).map(peer_of).collect();
        let net = ChordNet::build_static(&peers, SUCC_LEN);
        let oracle = net.oracle();
        for i in 0..200u64 {
            let key = ChordId(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let want = oracle.owner(key).unwrap();
            // Walk greedy routing from node 0.
            let mut at = NodeId(0);
            let mut hops = 0;
            loop {
                match net.route_next(at, key).unwrap() {
                    RouteDecision::Deliver => break,
                    RouteDecision::DeliverAt(p) => {
                        at = p.node;
                        hops += 1;
                        let _ = hops;
                        break;
                    }
                    RouteDecision::Forward(p) => {
                        at = p.node;
                        hops += 1;
                        assert!(hops <= 64, "routing loop for key {key:?}");
                    }
                }
            }
            assert_eq!(at, want.node, "key {key:?}");
            assert!(hops <= 12, "hops {hops} way past log2(64) for {key:?}");
        }
    }

    #[test]
    fn sequential_joins_converge_to_oracle() {
        let mut net = ChordNet::new(0, SUCC_LEN);
        let mut out = Outbox::new();
        net.bootstrap(peer_of(0));
        let mut members = vec![NodeId(0)];
        for i in 1..24u32 {
            net.join(peer_of(i), NodeId(0), &mut out);
            let (events, _) = pump(&mut net, &mut out);
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, ChordEvent::JoinComplete { node } if *node == NodeId(i))),
                "join {i} did not complete"
            );
            members.push(NodeId(i));
            converge(&mut net, &members, 3);
        }
        converge(&mut net, &members, 8);
        let oracle = net.oracle();
        for &n in &members {
            let st = net.state(n).unwrap();
            assert_eq!(
                st.successor().map(|p| p.node),
                oracle.successor(st.me().id).map(|p| p.node),
                "successor of {n}"
            );
            assert_eq!(
                st.predecessor().map(|p| p.node),
                oracle.predecessor(st.me().id).map(|p| p.node),
                "predecessor of {n}"
            );
        }
    }

    #[test]
    fn graceful_leave_repairs_ring() {
        let peers: Vec<Peer> = (0..12).map(peer_of).collect();
        let mut net = ChordNet::build_static(&peers, SUCC_LEN);
        let mut out = Outbox::new();
        let oracle_before = net.oracle();
        let leaver = NodeId(5);
        let leaver_id = peer_of(5).id;
        let pred = oracle_before.predecessor(leaver_id).unwrap();
        let succ = oracle_before.successor(leaver_id).unwrap();

        let (p, s) = net.leave(leaver, &mut out).unwrap();
        assert_eq!(p.unwrap().node, pred.node);
        assert_eq!(s.unwrap().node, succ.node);
        pump(&mut net, &mut out);

        // Predecessor now points past the leaver.
        assert_eq!(
            net.state(pred.node).unwrap().successor().unwrap().node,
            succ.node
        );
        assert_eq!(
            net.state(succ.node).unwrap().predecessor().unwrap().node,
            pred.node
        );
        assert!(net.state(leaver).is_none());
    }

    #[test]
    fn failure_is_detected_by_stabilization() {
        let peers: Vec<Peer> = (0..10).map(peer_of).collect();
        let mut net = ChordNet::build_static(&peers, SUCC_LEN);
        let oracle = net.oracle();
        let victim = NodeId(4);
        let victim_id = peer_of(4).id;
        let pred = oracle.predecessor(victim_id).unwrap();
        let succ = oracle.successor(victim_id).unwrap();

        net.fail(victim);
        let alive: Vec<NodeId> = (0..10).map(NodeId).filter(|&n| n != victim).collect();
        converge(&mut net, &alive, 6);

        let st = net.state(pred.node).unwrap();
        assert_eq!(
            st.successor().unwrap().node,
            succ.node,
            "predecessor routed around the failure"
        );
        assert!(
            !st.successor_list().iter().any(|p| p.node == victim),
            "dead node purged from successor list"
        );
        // No finger still points at the corpse after convergence.
        for &n in &alive {
            let st = net.state(n).unwrap();
            assert!(
                st.fingers()
                    .distinct_peers()
                    .iter()
                    .all(|p| p.node != victim),
                "{n} still fingers the dead node"
            );
        }
    }

    #[test]
    fn routing_works_after_churn() {
        let peers: Vec<Peer> = (0..20).map(peer_of).collect();
        let mut net = ChordNet::build_static(&peers, SUCC_LEN);
        let mut out = Outbox::new();
        // Kill 3, gracefully remove 2, join 2 new.
        net.fail(NodeId(3));
        net.fail(NodeId(11));
        net.fail(NodeId(17));
        net.leave(NodeId(6), &mut out);
        net.leave(NodeId(13), &mut out);
        pump(&mut net, &mut out);
        net.join(peer_of(20), NodeId(0), &mut out);
        net.join(peer_of(21), NodeId(1), &mut out);
        pump(&mut net, &mut out);
        let alive: Vec<NodeId> = (0..22u32)
            .map(NodeId)
            .filter(|n| ![3u32, 6, 11, 13, 17].contains(&n.0))
            .collect();
        for _ in 0..10 {
            // Joins can be lost through not-yet-repaired fingers; retry
            // like the host's join-retry timer would.
            for &n in &alive {
                if !net.state(n).map(|s| s.is_joined()).unwrap_or(true) {
                    net.retry_join(n, NodeId(0), &mut out);
                }
            }
            converge(&mut net, &alive, 1);
        }

        let oracle = net.oracle();
        assert_eq!(oracle.len(), alive.len());
        for i in 0..100u64 {
            let key = ChordId(i.wrapping_mul(0x6C62_272E_07BB_0142));
            let want = oracle.owner(key).unwrap().node;
            let mut at = alive[i as usize % alive.len()];
            let mut hops = 0;
            loop {
                match net.route_next(at, key).unwrap() {
                    RouteDecision::Deliver => break,
                    RouteDecision::DeliverAt(p) => {
                        at = p.node;
                        hops += 1;
                        let _ = hops;
                        break;
                    }
                    RouteDecision::Forward(p) => {
                        at = p.node;
                        hops += 1;
                        assert!(hops <= 64, "loop for {key:?}");
                    }
                }
            }
            assert_eq!(at, want, "key {key:?} routed to wrong owner");
        }
    }

    #[test]
    fn pred_changed_event_fires_on_new_predecessor() {
        let mut net = ChordNet::new(0, SUCC_LEN);
        let mut out = Outbox::new();
        net.bootstrap(peer_of(0));
        net.join(peer_of(1), NodeId(0), &mut out);
        let (events, _) = pump(&mut net, &mut out);
        assert!(events
            .iter()
            .any(|e| matches!(e, ChordEvent::PredChanged { node, .. } if *node == NodeId(0))));
    }

    #[test]
    fn find_ttl_guards_against_loops() {
        let peers: Vec<Peer> = (0..4).map(peer_of).collect();
        let mut net = ChordNet::build_static(&peers, SUCC_LEN);
        let mut out = Outbox::new();
        // TTL 0 at a node that must forward → message silently dropped.
        let key_owned_elsewhere = {
            let oracle = net.oracle();
            // pick a key NOT owned by node 0 or its successor.
            let mut k = ChordId(1);
            loop {
                let owner = oracle.owner(k).unwrap();
                let st = net.state(NodeId(0)).unwrap();
                let succ = st.successor().unwrap();
                if owner.node != NodeId(0) && owner.node != succ.node {
                    break k;
                }
                k = ChordId(k.0.wrapping_add(0x1234_5678_9ABC_DEF1));
            }
        };
        net.handle(
            NodeId(0),
            NodeId(1),
            ChordMsg::FindSucc {
                key: key_owned_elsewhere,
                origin: peer_of(1),
                token: RouteToken::Finger(1),
                ttl: 0,
            },
            &mut out,
        );
        assert!(out.sends.is_empty(), "TTL-0 forward must be dropped");
    }

    #[test]
    fn member_count_and_grow() {
        let mut net = ChordNet::new(2, SUCC_LEN);
        assert_eq!(net.member_count(), 0);
        net.bootstrap(peer_of(7)); // forces grow
        assert_eq!(net.member_count(), 1);
        assert!(net.state(NodeId(7)).is_some());
        assert!(net.state(NodeId(3)).is_none());
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::tests::SUCC_LEN;
    use super::*;
    use crate::hash::hash_node;
    use dco_sim::node::NodeId;

    fn peer_of(node: u32) -> Peer {
        Peer::new(hash_node(NodeId(node)), NodeId(node))
    }

    fn pump(net: &mut ChordNet, out: &mut Outbox) {
        while !out.sends.is_empty() {
            let sends = std::mem::take(&mut out.sends);
            for s in sends {
                net.handle(s.to, s.from, s.msg, out);
            }
        }
        out.events.clear();
    }

    #[test]
    fn one_missed_probe_does_not_kill_a_successor() {
        // With SUSPICION_MISSES = 3, losing one stabilize reply must not
        // amputate the (alive) successor.
        let peers: Vec<Peer> = (0..6).map(peer_of).collect();
        let mut net = ChordNet::build_static(&peers, SUCC_LEN);
        let victim_succ = net.state(NodeId(0)).unwrap().successor().unwrap();
        let mut out = Outbox::new();
        // Tick WITHOUT delivering the probes (simulated loss), once.
        net.tick_stabilize(NodeId(0), &mut out);
        out.sends.clear(); // lose every probe
        net.tick_stabilize(NodeId(0), &mut out);
        // One miss recorded; successor still in place.
        assert_eq!(
            net.state(NodeId(0)).unwrap().successor(),
            Some(victim_succ),
            "successor evicted after a single missed probe"
        );
        pump(&mut net, &mut out);
    }

    #[test]
    fn three_missed_probes_do_kill_a_successor() {
        let peers: Vec<Peer> = (0..6).map(peer_of).collect();
        let mut net = ChordNet::build_static(&peers, SUCC_LEN);
        let succ = net.state(NodeId(0)).unwrap().successor().unwrap();
        net.fail(succ.node);
        let mut out = Outbox::new();
        let mut declared = false;
        for _ in 0..5 {
            net.tick_stabilize(NodeId(0), &mut out);
            // Deliver probes (those to the dead node vanish inside handle).
            pump(&mut net, &mut out);
            if net
                .state(NodeId(0))
                .unwrap()
                .successor()
                .map(|p| p.node != succ.node)
                .unwrap_or(false)
            {
                declared = true;
                break;
            }
        }
        assert!(declared, "dead successor never evicted");
        assert!(net.state(NodeId(0)).unwrap().suspects(succ.node));
    }

    #[test]
    fn tombstones_expire_after_suspect_ttl() {
        let peers: Vec<Peer> = (0..4).map(peer_of).collect();
        let mut net = ChordNet::build_static(&peers, SUCC_LEN);
        let succ = net.state(NodeId(0)).unwrap().successor().unwrap();
        net.fail(succ.node);
        let mut out = Outbox::new();
        // Drive until declared dead.
        for _ in 0..6 {
            net.tick_stabilize(NodeId(0), &mut out);
            pump(&mut net, &mut out);
        }
        assert!(net.state(NodeId(0)).unwrap().suspects(succ.node));
        // Tick ALL survivors past the TTL (gossip refreshes tombstones only
        // while some replier still carries the death in its recent list, and
        // that list is pruned on the replier's own ticks).
        let alive: Vec<NodeId> = (0..4u32).map(NodeId).filter(|&n| n != succ.node).collect();
        for _ in 0..(2 * SUSPECT_TTL_TICKS) {
            for &n in &alive {
                net.tick_stabilize(n, &mut out);
            }
            pump(&mut net, &mut out);
        }
        assert!(
            !net.state(NodeId(0)).unwrap().suspects(succ.node),
            "tombstone survived past its TTL"
        );
    }

    #[test]
    fn death_gossip_spreads_to_the_predecessor() {
        let peers: Vec<Peer> = (0..8).map(peer_of).collect();
        let mut net = ChordNet::build_static(&peers, SUCC_LEN);
        let oracle = net.oracle();
        // Ring order: a → b → c; kill c, let b detect it, then verify a
        // learns of the death through b's PredReply gossip.
        let a = oracle.iter().next().unwrap();
        let b = oracle.successor(a.id).unwrap();
        let c = oracle.successor(b.id).unwrap();
        net.fail(c.node);
        let mut out = Outbox::new();
        let all: Vec<NodeId> = peers
            .iter()
            .map(|p| p.node)
            .filter(|&n| n != c.node)
            .collect();
        for _ in 0..6 {
            for &n in &all {
                net.tick_stabilize(n, &mut out);
            }
            pump(&mut net, &mut out);
        }
        assert!(
            net.state(a.node).unwrap().suspects(c.node)
                || !net
                    .state(a.node)
                    .unwrap()
                    .successor_list()
                    .iter()
                    .any(|p| p.node == c.node),
            "predecessor never learned of the death"
        );
    }
}
