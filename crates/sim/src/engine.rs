//! The discrete-event engine.
//!
//! A [`Simulator`] owns a user-supplied [`Protocol`] (the distributed
//! algorithm under test, holding *all* nodes' state) and a [`SimCore`] (the
//! clock, calendar, network substrate, liveness map, RNGs and counters). The
//! run loop pops events in `(time, insertion)` order and dispatches them to
//! the protocol through a [`Ctx`] handle, which is how the protocol sends
//! messages, sets timers and queries the network.
//!
//! # Liveness semantics
//!
//! * **Join** — the node's pipes are reset, its liveness bit set, then
//!   [`Protocol::on_join`] runs.
//! * **Graceful leave** — [`Protocol::on_leave`] runs *while the node is
//!   still alive* (so it can send farewell messages, as DCO's departure
//!   protocol requires), then the bit is cleared.
//! * **Abrupt failure** — the bit is cleared *first*, then `on_leave` runs
//!   purely for internal cleanup; any send the protocol attempts from the
//!   dead node is suppressed, modelling a crash with no goodbye.
//! * Messages **to** a dead node are dropped (the sender only learns through
//!   its own timeouts). Messages already in flight when the *sender* dies are
//!   still delivered. Timers on dead nodes are skipped.

use core::fmt;

use crate::counters::Counters;
use crate::msg::{MsgClass, SizeBits};
use crate::net::{Kbps, NetConfig, Network, NodeCaps, Transmit};
use crate::node::{AliveSet, NodeId};
use crate::queue::EventQueue;
use crate::rng::{splitmix64, RngHub, SimRng};
use crate::time::{SimDuration, SimTime};

/// A distributed algorithm driven by the engine.
///
/// The implementor owns the state of *every* node (typically a
/// `Vec<PerNodeState>` indexed by [`NodeId`]); the engine tells it which node
/// an event is for.
pub trait Protocol: Sized {
    /// The protocol's wire message type.
    ///
    /// Deliberately *not* `Clone`-bounded: the engine moves each message
    /// from send to delivery exactly once, so fan-out payloads can be
    /// shared behind an `Rc` instead of deep-copied per neighbor.
    type Msg: fmt::Debug;
    /// The protocol's timer token type.
    type Timer: Clone + fmt::Debug;

    /// `node` just joined (or re-joined) the overlay.
    fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>);

    /// `node` received `msg` from `from`.
    fn on_message(&mut self, node: NodeId, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self>);

    /// A timer set by `node` fired.
    fn on_timer(&mut self, node: NodeId, timer: Self::Timer, ctx: &mut Ctx<'_, Self>);

    /// `node` is leaving. If `graceful` the node is still alive and may send
    /// farewell messages; if not it is already dead and sends are suppressed.
    fn on_leave(&mut self, node: NodeId, graceful: bool, ctx: &mut Ctx<'_, Self>) {
        let _ = (node, graceful, ctx);
    }
}

/// Internal calendar entries.
enum Event<P: Protocol> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: P::Msg,
    },
    Timer {
        node: NodeId,
        timer: P::Timer,
    },
    Join {
        node: NodeId,
    },
    Leave {
        node: NodeId,
        graceful: bool,
    },
}

/// Engine-level statistics (orthogonal to protocol metrics).
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Events dispatched so far.
    pub events_processed: u64,
    /// Timers that fired on live nodes.
    pub timers_fired: u64,
    /// Timers silently skipped because the node was dead.
    pub timers_skipped_dead: u64,
    /// Sends suppressed because the sender was dead.
    pub sends_from_dead: u64,
}

/// A message whose receiver lives on another shard of a sharded run.
///
/// The sending worker computes the arrival time (sender-side pipes plus the
/// constant link latency) and the canonical stamp `key` locally, so the
/// owning worker can inject the event with [`Simulator::inject_remote`] and
/// land it at exactly the position the canonical schedule assigns it.
pub struct RemoteMsg<M> {
    /// Arrival instant (already includes latency and upload queueing).
    pub at: SimTime,
    /// Canonical stamp key — identical no matter which worker computes it.
    pub key: u128,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node (owned by another shard).
    pub to: NodeId,
    /// The payload.
    pub msg: M,
}

/// Per-shard run summary: what a worker reports upward for digest folding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Events dispatched for nodes this shard owns (shadow membership flips
    /// for foreign nodes are not counted).
    pub owned_events: u64,
    /// Order-independent digest over the owned dispatched events. Folding
    /// all shards' digests with a wrapping add yields the root digest,
    /// which is invariant under the shard count.
    pub set_digest: u64,
    /// Messages handed to the outbox for other shards.
    pub remote_msgs_sent: u64,
}

/// Canonical stamp keys (sharded mode).
///
/// The 128-bit queue key encodes an event's provenance so that every worker
/// — and a single-process run — assigns the *same* key to the same logical
/// event, making the per-worker dispatch order a deterministic function of
/// the workload alone:
///
/// ```text
/// bit 127      : class — 0 = install (pre-run schedule), 1 = runtime
/// install : bits 0..64   = position in the install script
/// runtime : bits 81..127 = push time in µs (46 bits, ~2.2 years)
///           bits 57..81  = pushing node (24 bits)
///           bits 24..57  = pushing node's dispatch counter (33 bits)
///           bits 0..24   = push index within that dispatch (24 bits)
/// ```
///
/// Keys are globally unique by construction (the heap is not stable, so
/// uniqueness is required), and class 0 sorts before class 1 at equal due
/// time: membership flips scripted before the run dispatch ahead of any
/// runtime event of the same instant on every worker, which keeps the
/// global alive set consistent wherever it is read. A node pushes its
/// runtime keys in ascending `(counter, index)` order, which the calendar's
/// linear ordering pass relies on (see `queue`, "Ordering").
pub(crate) const KEY_RUNTIME_CLASS: u128 = 1 << 127;
pub(crate) const KEY_T_SHIFT: u32 = 81;
pub(crate) const KEY_NODE_SHIFT: u32 = 57;
const KEY_PSEQ_SHIFT: u32 = 24;

/// The runtime key of push `i` of dispatch `pseq` of node `pusher`, which
/// ran at `push_t` µs (layout above).
#[inline]
pub fn runtime_key(push_t: u64, pusher: u32, pseq: u64, i: u32) -> u128 {
    debug_assert!(push_t < 1 << 46, "clock beyond stamp range");
    debug_assert!(pusher < 1 << 24, "node beyond stamp range");
    debug_assert!(pseq < 1 << 33, "dispatch count beyond stamp range");
    debug_assert!(i < 1 << 24, "push fan-out beyond stamp range");
    KEY_RUNTIME_CLASS
        | (push_t as u128) << KEY_T_SHIFT
        | (pusher as u128) << KEY_NODE_SHIFT
        | (pseq as u128) << KEY_PSEQ_SHIFT
        | i as u128
}

/// Salt for the order-independent per-shard event digest (distinct from the
/// chain digest so the two spaces cannot be confused).
const SET_DIGEST_SALT: u64 = 0x5EED_5E7D_16E5_7AB1;

/// Sharding state carried by a worker's engine (`None` in ordinary runs).
struct Shard<M> {
    /// `map[node] == me` iff this worker dispatches that node's events.
    map: Vec<u8>,
    me: u8,
    /// Cross-shard messages produced since the last drain.
    outbox: Vec<RemoteMsg<M>>,
    /// Per-node dispatch counters (the `pseq` field of runtime keys).
    node_seq: Vec<u64>,
    /// Install-script position counter (class-0 keys).
    install_seq: u64,
    /// Stamp context of the dispatch currently executing.
    cur_push_t: u64,
    cur_pusher: u32,
    cur_pseq: u64,
    cur_i: u32,
    /// Order-independent digest over owned dispatched events.
    set_digest: u64,
    owned_events: u64,
    remote_sent: u64,
}

impl<M> Shard<M> {
    #[inline]
    fn owns(&self, node: NodeId) -> bool {
        self.map[node.index()] == self.me
    }

    /// The key for the next event pushed by the currently executing
    /// dispatch. Increments the per-dispatch push index whether the event
    /// lands in the local queue or the outbox, so every worker assigns the
    /// same index sequence.
    #[inline]
    fn next_runtime_key(&mut self) -> u128 {
        let i = self.cur_i;
        self.cur_i += 1;
        runtime_key(self.cur_push_t, self.cur_pusher, self.cur_pseq, i)
    }

    #[inline]
    fn next_install_key(&mut self) -> u128 {
        let k = self.install_seq;
        self.install_seq += 1;
        k as u128
    }
}

/// The order-independent hash of one dispatched event, accumulated by
/// wrapping addition. Uses the same `(time, kind, node, peer)` words as the
/// chain digest, but each event is hashed independently so the running sum
/// is invariant under dispatch interleaving — the property that lets K
/// workers' digests fold into one root equal to the single-process value.
#[inline]
fn set_hash(t: u64, kind_node: u64, peer: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(t ^ SET_DIGEST_SALT) ^ kind_node) ^ peer)
}

/// Everything the engine owns besides the protocol itself.
pub struct SimCore<P: Protocol> {
    clock: SimTime,
    queue: EventQueue<Event<P>>,
    net: Network,
    alive: AliveSet,
    counters: Counters,
    rng: SimRng,
    hub: RngHub,
    stats: EngineStats,
    /// Running structural digest of every dispatched event; see
    /// [`Simulator::trace_digest`].
    digest: u64,
    /// Sharding state (`None` in ordinary single-process runs).
    shard: Option<Box<Shard<P::Msg>>>,
}

impl<P: Protocol> SimCore<P> {
    /// Routes a computed delivery either into the local calendar or, when
    /// the receiver belongs to another shard, into the outbox.
    #[inline]
    fn push_deliver(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: P::Msg) {
        match &mut self.shard {
            None => self.queue.push(at, Event::Deliver { from, to, msg }),
            Some(s) => {
                let key = s.next_runtime_key();
                if s.owns(to) {
                    self.queue
                        .push_keyed(at, key, Event::Deliver { from, to, msg });
                } else {
                    s.remote_sent += 1;
                    s.outbox.push(RemoteMsg {
                        at,
                        key,
                        from,
                        to,
                        msg,
                    });
                }
            }
        }
    }

    /// Pushes a timer event; in sharded mode the target must be owned
    /// locally (protocols may only arm timers on nodes they are currently
    /// dispatching for, which DCO does — timers are always self-targeted).
    #[inline]
    fn push_timer(&mut self, at: SimTime, node: NodeId, timer: P::Timer) {
        match &mut self.shard {
            None => self.queue.push(at, Event::Timer { node, timer }),
            Some(s) => {
                assert!(
                    s.owns(node),
                    "sharded run: timer armed for foreign node {node}"
                );
                let key = s.next_runtime_key();
                self.queue.push_keyed(at, key, Event::Timer { node, timer });
            }
        }
    }
}

/// The handle protocols use to act on the world.
pub struct Ctx<'a, P: Protocol> {
    core: &'a mut SimCore<P>,
}

impl<P: Protocol> Ctx<'_, P> {
    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.clock
    }

    /// Sends a zero-size control message, counting one unit of extra
    /// overhead under `tag`. No-op if the sender is dead; silently dropped
    /// (after counting) if the receiver is dead at delivery time.
    pub fn send_control(&mut self, from: NodeId, to: NodeId, msg: P::Msg, tag: &'static str) {
        let core = &mut *self.core;
        if !core.alive.is_alive(from) {
            core.stats.sends_from_dead += 1;
            return;
        }
        core.counters.record_control(core.clock, tag);
        match core.net.transmit(
            core.clock,
            from,
            to,
            MsgClass::Control,
            SizeBits::ZERO,
            &mut core.rng,
        ) {
            Transmit::Deliver(at) => core.push_deliver(at, from, to, msg),
            Transmit::Dropped => core.counters.record_dropped_fault(),
        }
    }

    /// Sends a data (chunk) message of `size` bits through both access
    /// pipes. Not counted as overhead. No-op if the sender is dead.
    pub fn send_data(&mut self, from: NodeId, to: NodeId, msg: P::Msg, size: SizeBits) {
        let core = &mut *self.core;
        if !core.alive.is_alive(from) {
            core.stats.sends_from_dead += 1;
            return;
        }
        core.counters.record_data();
        match core
            .net
            .transmit(core.clock, from, to, MsgClass::Data, size, &mut core.rng)
        {
            Transmit::Deliver(at) => core.push_deliver(at, from, to, msg),
            Transmit::Dropped => core.counters.record_dropped_fault(),
        }
    }

    /// Arms a timer for `node` to fire after `delay`.
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, timer: P::Timer) {
        let at = self.core.clock.saturating_add(delay);
        self.core.push_timer(at, node, timer);
    }

    /// True if `node` is currently alive.
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.core.alive.is_alive(node)
    }

    /// Number of currently alive nodes.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.core.alive.alive_count()
    }

    /// Total registered nodes (alive or not).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.core.net.len()
    }

    /// The engine's RNG (deterministic given the seed and event order).
    ///
    /// Panics in sharded runs: the shared engine stream is consumed in
    /// dispatch order, which is worker-local, so a draw here would diverge
    /// across shard counts. Sharded protocols must use per-node streams
    /// from [`Ctx::hub`] instead (a pure function of seed and node).
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        assert!(
            self.core.shard.is_none(),
            "sharded run: the shared engine RNG is not shard-invariant; use hub().node_rng"
        );
        &mut self.core.rng
    }

    /// The seed hub, for protocols wanting private per-node streams.
    #[inline]
    pub fn hub(&self) -> RngHub {
        self.core.hub
    }

    /// True when this engine runs as one shard of a partitioned
    /// simulation (see [`Simulator::enable_sharding`]). Protocols that
    /// draw randomness must switch from the shared stream ([`Ctx::rng`])
    /// to per-node hub streams when this is set: a node's dispatches run
    /// in the same canonical order on every shard count, so per-node
    /// draws are shard-invariant where shared-stream draws are not.
    #[inline]
    pub fn is_sharded(&self) -> bool {
        self.core.shard.is_some()
    }

    /// Spare upload capacity of `node` averaged over `horizon`.
    pub fn available_upload(&self, node: NodeId, horizon: SimDuration) -> Kbps {
        self.core
            .net
            .available_upload(node, self.core.clock, horizon)
    }

    /// Queueing delay currently ahead of `node`'s upload pipe.
    pub fn upload_backlog(&self, node: NodeId) -> SimDuration {
        self.core.net.upload_backlog(node, self.core.clock)
    }

    /// Configured download rate of `node`.
    pub fn download_rate(&self, node: NodeId) -> Kbps {
        self.core.net.download_rate(node)
    }

    /// Read access to the overhead counters.
    pub fn counters(&self) -> &Counters {
        &self.core.counters
    }
}

/// Seed of the running trace digest (FNV-1a 64-bit offset basis).
const TRACE_DIGEST_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds one word into a trace digest.
#[inline]
fn fold(digest: u64, word: u64) -> u64 {
    splitmix64(digest ^ word)
}

/// The simulator: protocol + engine core + run loop.
pub struct Simulator<P: Protocol> {
    core: SimCore<P>,
    protocol: P,
    /// Hard cap on dispatched events; `run*` panics past it (runaway guard).
    max_events: u64,
}

impl<P: Protocol> Simulator<P> {
    /// Builds a simulator around `protocol` with the given network
    /// configuration and master seed.
    pub fn new(protocol: P, net_cfg: NetConfig, seed: u64) -> Self {
        Self::with_capacity(protocol, net_cfg, seed, 0)
    }

    /// Like [`Simulator::new`] but with a population capacity hint:
    /// pre-sizes the network's per-node tables and the event calendar's
    /// active heap so scenario installation doesn't regrow them
    /// incrementally. Purely an allocation hint — behaviour is identical
    /// for any `n_nodes`.
    pub fn with_capacity(protocol: P, net_cfg: NetConfig, seed: u64, n_nodes: usize) -> Self {
        let hub = RngHub::new(seed);
        Simulator {
            core: SimCore {
                clock: SimTime::ZERO,
                // Rule of thumb: a live overlay keeps a small constant
                // number of in-flight events per node (timers + deliveries).
                queue: EventQueue::with_capacity(n_nodes.saturating_mul(4)),
                net: Network::with_capacity(net_cfg, n_nodes),
                alive: AliveSet::new(0),
                counters: Counters::new(),
                rng: hub.engine_rng(),
                hub,
                stats: EngineStats::default(),
                digest: TRACE_DIGEST_INIT,
                shard: None,
            },
            protocol,
            max_events: 2_000_000_000,
        }
    }

    /// Sets the runaway-event guard (default 2×10⁹).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Registers a node with the given link capacities. The node starts
    /// **dead**; schedule a join to bring it up.
    pub fn add_node(&mut self, caps: NodeCaps) -> NodeId {
        assert!(
            self.core.shard.is_none(),
            "register all nodes before enable_sharding"
        );
        let id = self.core.net.push_node(caps);
        self.core.alive.grow(self.core.net.len());
        id
    }

    /// Schedules `node` to join at `at` (clamped to now, as with
    /// [`Simulator::inject_message`], so the clock never runs backwards).
    ///
    /// In sharded mode this is part of the **install script**: every worker
    /// must make the identical sequence of `schedule_join`/`schedule_leave`
    /// calls before running, and the position in that sequence becomes the
    /// event's canonical key.
    pub fn schedule_join(&mut self, node: NodeId, at: SimTime) {
        let at = at.max(self.core.clock);
        match &mut self.core.shard {
            None => self.core.queue.push(at, Event::Join { node }),
            Some(s) => {
                let key = s.next_install_key();
                self.core.queue.push_keyed(at, key, Event::Join { node });
            }
        }
    }

    /// Schedules `node` to leave at `at` (gracefully or abruptly; clamped
    /// to now). Part of the install script in sharded mode (see
    /// [`Simulator::schedule_join`]).
    pub fn schedule_leave(&mut self, node: NodeId, at: SimTime, graceful: bool) {
        let at = at.max(self.core.clock);
        match &mut self.core.shard {
            None => self.core.queue.push(at, Event::Leave { node, graceful }),
            Some(s) => {
                let key = s.next_install_key();
                self.core
                    .queue
                    .push_keyed(at, key, Event::Leave { node, graceful });
            }
        }
    }

    /// Enqueues a message delivery at `at` as if sent by `from` — a driver
    /// hook for injecting application commands into a running protocol
    /// without going through the network (no latency, no overhead units).
    ///
    /// In sharded mode injections are install-script entries and must be
    /// made identically on every worker before the run starts.
    pub fn inject_message(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: P::Msg) {
        let at = at.max(self.core.clock);
        match &mut self.core.shard {
            None => self.core.queue.push(at, Event::Deliver { from, to, msg }),
            Some(s) => {
                let key = s.next_install_key();
                self.core
                    .queue
                    .push_keyed(at, key, Event::Deliver { from, to, msg });
            }
        }
    }

    /// Switches this engine into **sharded worker** mode.
    ///
    /// `map[node]` names the worker that owns each node and `me` is this
    /// worker's index. Must be called after all nodes are registered and
    /// before anything is scheduled. The network model must be *conservative
    /// lookahead safe*: link latency `L > 0`, no fault injection,
    /// and no receiver-side bandwidth charging — then any cross-shard send
    /// arrives at least `L` after it was sent, so workers can run in
    /// lockstep windows of width `L` exchanging messages only at window
    /// boundaries. Returns that lookahead.
    pub fn enable_sharding(&mut self, map: Vec<u8>, me: u8, n_shards: u8) -> SimDuration {
        assert!(n_shards >= 1 && me < n_shards, "bad shard index");
        assert_eq!(map.len(), self.core.net.len(), "shard map size != nodes");
        assert!(map.len() < 1 << 24, "stamp keys address 2^24 nodes");
        assert!(
            map.iter().all(|&s| s < n_shards),
            "shard map entry out of range"
        );
        assert!(
            self.core.queue.scheduled_total() == 0 && self.core.stats.events_processed == 0,
            "enable_sharding before scheduling or running"
        );
        let cfg = self.core.net.config();
        let lookahead = cfg.latency;
        assert!(
            !lookahead.is_zero(),
            "sharded runs need a positive link latency (the lookahead)"
        );
        assert!(
            !cfg.faults.is_active(),
            "sharded runs do not support fault injection"
        );
        assert!(
            !cfg.charge_download,
            "sharded runs need sender-side-only bandwidth charging"
        );
        let n = map.len();
        self.core.shard = Some(Box::new(Shard {
            map,
            me,
            outbox: Vec::new(),
            node_seq: vec![0; n],
            install_seq: 0,
            cur_push_t: 0,
            cur_pusher: 0,
            cur_pseq: 0,
            cur_i: 0,
            set_digest: 0,
            owned_events: 0,
            remote_sent: 0,
        }));
        lookahead
    }

    /// Runs every event scheduled strictly before `t`, leaving the clock at
    /// the last dispatched event. The sharded epoch loop runs
    /// `run_before(window_end)` then exchanges cross-shard batches: with
    /// lookahead `L`, a message sent inside `[T, T+L)` arrives at or after
    /// `T+L`, so injecting at the barrier can never land in a window that
    /// already ran. The closing peek orders nothing, so the injected
    /// messages join the next bucket before its first pop orders it.
    pub fn run_before(&mut self, t: SimTime) {
        while let Some(next) = self.core.queue.peek_time() {
            if next >= t {
                break;
            }
            self.step();
        }
    }

    /// Drains the cross-shard outbox (messages produced since last drain).
    pub fn drain_shard_outbox(&mut self) -> impl Iterator<Item = RemoteMsg<P::Msg>> + '_ {
        self.core
            .shard
            .as_mut()
            .expect("not a sharded run")
            .outbox
            .drain(..)
    }

    /// Injects a message routed from another shard. The key computed by the
    /// sending worker already places it at its canonical position among
    /// this worker's events.
    ///
    /// Rejects, without queueing, a message no honest peer could have sent
    /// here: a node out of range, a receiver this shard does not own, an
    /// arrival before the clock, or a key outside the runtime class.
    pub fn inject_remote(&mut self, m: RemoteMsg<P::Msg>) -> Result<(), String> {
        let s = self.core.shard.as_ref().expect("not a sharded run");
        let n = s.map.len();
        if m.from.index() >= n || m.to.index() >= n {
            return Err(format!("node out of range: {} -> {} of {n}", m.from, m.to));
        }
        if !s.owns(m.to) {
            return Err(format!(
                "misrouted: {} is owned by shard {}",
                m.to,
                s.map[m.to.index()]
            ));
        }
        if m.at < self.core.clock {
            return Err(format!(
                "arrival {} before the clock {}",
                m.at, self.core.clock
            ));
        }
        if m.key & KEY_RUNTIME_CLASS == 0 {
            return Err(format!("key {:#x} lacks the runtime class bit", m.key));
        }
        self.core.queue.push_keyed(
            m.at,
            m.key,
            Event::Deliver {
                from: m.from,
                to: m.to,
                msg: m.msg,
            },
        );
        Ok(())
    }

    /// This worker's shard summary, or `None` in ordinary runs.
    pub fn shard_stats(&self) -> Option<ShardRunStats> {
        self.core.shard.as_ref().map(|s| ShardRunStats {
            owned_events: s.owned_events,
            set_digest: s.set_digest,
            remote_msgs_sent: s.remote_sent,
        })
    }

    /// The shard owning `node`, or `None` in ordinary runs.
    pub fn shard_of(&self, node: NodeId) -> Option<u8> {
        self.core.shard.as_ref().map(|s| s.map[node.index()])
    }

    /// Dispatches the next event, if any. Returns `false` when the calendar
    /// is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.core.clock, "time went backwards");
        self.core.clock = at;
        self.dispatch(ev);
        true
    }

    /// Runs until the calendar is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs every event scheduled at or before `t`, then advances the clock
    /// to exactly `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.core.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
        if self.core.clock < t {
            self.core.clock = t;
        }
    }

    fn dispatch(&mut self, ev: Event<P>) {
        self.core.stats.events_processed += 1;
        assert!(
            self.core.stats.events_processed <= self.max_events,
            "event budget exceeded ({}) — runaway simulation?",
            self.max_events
        );
        let core = &mut self.core;
        let protocol = &mut self.protocol;
        let t = core.clock.as_micros();
        if let Some(shard) = &mut core.shard {
            let subject = match &ev {
                Event::Deliver { to, .. } => *to,
                Event::Timer { node, .. } => *node,
                Event::Join { node } => *node,
                Event::Leave { node, .. } => *node,
            };
            if !shard.owns(subject) {
                // Shadow membership flip: every worker replays the whole
                // install script, but only the owner runs protocol hooks,
                // folds the digest or counts the event. Flipping the alive
                // bit everywhere keeps cross-shard liveness reads (audience
                // scans, send-to-dead drops) consistent with a one-process
                // run; install keys sort before runtime keys at equal time,
                // so the flip is visible to every same-instant event.
                match ev {
                    Event::Join { node } => {
                        core.net.reset_pipes(node, core.clock);
                        core.alive.set_alive(node);
                    }
                    Event::Leave { node, .. } => {
                        core.alive.set_dead(node);
                    }
                    Event::Deliver { .. } | Event::Timer { .. } => {
                        panic!("sharded dispatch: runtime event for foreign node {subject}")
                    }
                }
                return;
            }
            // Owned dispatch: open the stamp context for events this
            // handler will push, and fold the order-independent digest.
            shard.owned_events += 1;
            shard.cur_push_t = t;
            shard.cur_pusher = subject.0;
            shard.cur_pseq = shard.node_seq[subject.index()];
            shard.node_seq[subject.index()] += 1;
            shard.cur_i = 0;
            let (kind_node, peer) = match &ev {
                Event::Deliver { from, to, .. } => (1 << 56 | u64::from(to.0), u64::from(from.0)),
                Event::Timer { node, .. } => (2 << 56 | u64::from(node.0), 0),
                Event::Join { node } => (3 << 56 | u64::from(node.0), 0),
                Event::Leave { node, graceful } => {
                    ((4 + u64::from(*graceful)) << 56 | u64::from(node.0), 0)
                }
            };
            shard.set_digest = shard.set_digest.wrapping_add(set_hash(t, kind_node, peer));
        }
        // Fold the event's structure into the running digest *before*
        // handing it to the protocol, so the digest covers exactly the
        // dispatched event sequence: (time, kind, node, peer). Message
        // payloads are not hashed — their content is a pure function of
        // the event order and the seeded RNG streams, so structural
        // identity already implies behavioural identity.
        core.digest = match &ev {
            Event::Deliver { from, to, .. } => fold(
                fold(fold(core.digest, t), 1 << 56 | u64::from(to.0)),
                u64::from(from.0),
            ),
            Event::Timer { node, .. } => fold(fold(core.digest, t), 2 << 56 | u64::from(node.0)),
            Event::Join { node } => fold(fold(core.digest, t), 3 << 56 | u64::from(node.0)),
            Event::Leave { node, graceful } => fold(
                fold(core.digest, t),
                (4 + u64::from(*graceful)) << 56 | u64::from(node.0),
            ),
        };
        match ev {
            Event::Deliver { from, to, msg } => {
                if !core.alive.is_alive(to) {
                    core.counters.record_dropped_dead();
                    return;
                }
                protocol.on_message(to, from, msg, &mut Ctx { core });
            }
            Event::Timer { node, timer } => {
                if !core.alive.is_alive(node) {
                    core.stats.timers_skipped_dead += 1;
                    return;
                }
                core.stats.timers_fired += 1;
                protocol.on_timer(node, timer, &mut Ctx { core });
            }
            Event::Join { node } => {
                let now = core.clock;
                core.net.reset_pipes(node, now);
                if core.alive.set_alive(node) {
                    protocol.on_join(node, &mut Ctx { core });
                }
            }
            Event::Leave { node, graceful } => {
                if !core.alive.is_alive(node) {
                    return;
                }
                if graceful {
                    // Farewell messages allowed: still alive during the hook.
                    protocol.on_leave(node, true, &mut Ctx { core });
                    core.alive.set_dead(node);
                } else {
                    core.alive.set_dead(node);
                    protocol.on_leave(node, false, &mut Ctx { core });
                }
            }
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.clock
    }

    /// Read access to the overhead counters.
    pub fn counters(&self) -> &Counters {
        &self.core.counters
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.core.stats
    }

    /// A 64-bit digest of the dispatched event trace so far: every event's
    /// `(time, kind, node, peer)` tuple folded in dispatch order. Two runs
    /// of the same `(scenario, seed)` cell are bit-identical iff their
    /// digests (plus [`Counters::snapshot`]) match — this is the invariant
    /// the sweep harness asserts across `--jobs` levels.
    pub fn trace_digest(&self) -> u64 {
        self.core.digest
    }

    /// True if `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.core.alive.is_alive(node)
    }

    /// Number of currently alive nodes.
    pub fn alive_count(&self) -> usize {
        self.core.alive.alive_count()
    }

    /// Total registered nodes.
    pub fn num_nodes(&self) -> usize {
        self.core.net.len()
    }

    /// Pending calendar entries (diagnostic).
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }

    /// Mutable access to the fault plan (flip faults mid-run in tests).
    pub fn faults_mut(&mut self) -> &mut crate::net::FaultPlan {
        self.core.net.faults_mut()
    }

    /// Shared access to the protocol under test.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy protocol: every node, on join, pings node 0; node 0 answers;
    /// each node counts ponged replies and echoes timers.
    #[derive(Default)]
    struct PingPong {
        pings_seen: u64,
        pongs: Vec<u32>,
        timer_log: Vec<(u32, &'static str)>,
        leaves: Vec<(u32, bool)>,
    }

    #[derive(Clone, Debug)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Protocol for PingPong {
        type Msg = Msg;
        type Timer = &'static str;

        fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
            if self.pongs.len() < ctx.num_nodes() {
                self.pongs.resize(ctx.num_nodes(), 0);
            }
            if node != NodeId(0) {
                ctx.send_control(node, NodeId(0), Msg::Ping, "ping");
            }
        }

        fn on_message(&mut self, node: NodeId, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Self>) {
            match msg {
                Msg::Ping => {
                    self.pings_seen += 1;
                    ctx.send_control(node, from, Msg::Pong, "pong");
                }
                Msg::Pong => self.pongs[node.index()] += 1,
            }
        }

        fn on_timer(&mut self, node: NodeId, timer: &'static str, _ctx: &mut Ctx<'_, Self>) {
            self.timer_log.push((node.0, timer));
        }

        fn on_leave(&mut self, node: NodeId, graceful: bool, ctx: &mut Ctx<'_, Self>) {
            self.leaves.push((node.0, graceful));
            // Farewell ping: only delivered when graceful.
            ctx.send_control(node, NodeId(0), Msg::Ping, "farewell");
        }
    }

    fn build(n: usize) -> Simulator<PingPong> {
        let mut sim = Simulator::new(PingPong::default(), NetConfig::default(), 7);
        for i in 0..n {
            let caps = if i == 0 {
                NodeCaps::server_default()
            } else {
                NodeCaps::peer_default()
            };
            let id = sim.add_node(caps);
            sim.schedule_join(id, SimTime::ZERO);
        }
        sim
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = build(5);
        sim.run();
        let p = sim.protocol();
        assert_eq!(p.pings_seen, 4);
        assert_eq!(p.pongs.iter().sum::<u32>(), 4);
        // 4 pings + 4 pongs = 8 overhead units.
        assert_eq!(sim.counters().control_total(), 8);
        assert_eq!(sim.counters().tagged("ping"), 4);
        assert_eq!(sim.counters().tagged("pong"), 4);
        // Ping at 50 ms, pong back at 100 ms.
        assert_eq!(sim.now(), SimTime::from_millis(100));
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let mut sim = build(2);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn messages_to_dead_nodes_are_dropped() {
        let mut sim = build(3);
        // Kill node 0 before the pings arrive.
        sim.schedule_leave(NodeId(0), SimTime::from_millis(1), false);
        sim.run();
        assert_eq!(sim.protocol().pings_seen, 0);
        assert_eq!(sim.counters().dropped_dead(), 2);
    }

    #[test]
    fn graceful_leave_can_say_farewell_but_abrupt_cannot() {
        let mut sim = build(3);
        sim.run_until(SimTime::from_secs(1));
        sim.schedule_leave(NodeId(1), SimTime::from_secs(2), true);
        sim.schedule_leave(NodeId(2), SimTime::from_secs(2), false);
        sim.run();
        let p = sim.protocol();
        assert_eq!(p.leaves, vec![(1, true), (2, false)]);
        // Only the graceful farewell arrives: 2 joins' pings + 1 farewell.
        assert_eq!(p.pings_seen, 3);
        assert_eq!(sim.stats().sends_from_dead, 1);
    }

    #[test]
    fn timers_fire_in_order_and_skip_dead() {
        let mut sim = build(2);
        sim.run_until(SimTime::from_secs(1));
        {
            // Set timers directly through a join-time hook replacement:
            // schedule via the public Simulator API by re-joining node 1 is
            // overkill; instead drive timers through events.
            sim.core.queue.push(
                SimTime::from_secs(2),
                Event::Timer {
                    node: NodeId(1),
                    timer: "a",
                },
            );
            sim.core.queue.push(
                SimTime::from_secs(3),
                Event::Timer {
                    node: NodeId(1),
                    timer: "b",
                },
            );
            sim.core.queue.push(
                SimTime::from_secs(4),
                Event::Timer {
                    node: NodeId(1),
                    timer: "dead",
                },
            );
        }
        sim.schedule_leave(NodeId(1), SimTime::from_millis(3500), false);
        sim.run();
        assert_eq!(sim.protocol().timer_log, vec![(1, "a"), (1, "b")]);
        assert_eq!(sim.stats().timers_skipped_dead, 1);
        assert_eq!(sim.stats().timers_fired, 2);
    }

    #[test]
    fn rejoin_after_leave() {
        let mut sim = build(2);
        sim.schedule_leave(NodeId(1), SimTime::from_secs(1), false);
        sim.schedule_join(NodeId(1), SimTime::from_secs(2));
        sim.run();
        // Node 1 pinged twice: once per join.
        assert_eq!(sim.protocol().pings_seen, 2);
        assert!(sim.is_alive(NodeId(1)));
        assert_eq!(sim.alive_count(), 2);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let mut sim = Simulator::new(PingPong::default(), NetConfig::default(), seed);
            for i in 0..10 {
                let id = sim.add_node(NodeCaps::peer_default());
                sim.schedule_join(id, SimTime::from_millis(i * 10));
            }
            sim.run();
            (
                sim.counters().control_total(),
                sim.now(),
                sim.stats().events_processed,
                sim.trace_digest(),
            )
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn trace_digest_separates_different_histories() {
        let run = |n| {
            let mut sim = build(n);
            sim.run();
            sim.trace_digest()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        // An idle simulator keeps the initial digest.
        let sim = build(3);
        let fresh = sim.trace_digest();
        let mut ran = build(3);
        ran.run();
        assert_ne!(fresh, ran.trace_digest());
    }

    #[test]
    fn trace_digest_distinguishes_graceful_from_abrupt_leave() {
        let run = |graceful| {
            let mut sim = build(3);
            sim.run_until(SimTime::from_secs(1));
            sim.schedule_leave(NodeId(1), SimTime::from_secs(2), graceful);
            sim.run();
            sim.trace_digest()
        };
        assert_ne!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "event budget exceeded")]
    fn event_budget_guard() {
        /// A protocol that schedules itself forever.
        struct Loopy;
        impl Protocol for Loopy {
            type Msg = ();
            type Timer = ();
            fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
                ctx.set_timer(node, SimDuration::from_secs(1), ());
            }
            fn on_message(&mut self, _: NodeId, _: NodeId, _: (), _: &mut Ctx<'_, Self>) {}
            fn on_timer(&mut self, node: NodeId, _: (), ctx: &mut Ctx<'_, Self>) {
                ctx.set_timer(node, SimDuration::from_secs(1), ());
            }
        }
        let mut sim = Simulator::new(Loopy, NetConfig::default(), 1);
        let id = sim.add_node(NodeCaps::peer_default());
        sim.schedule_join(id, SimTime::ZERO);
        sim.set_max_events(100);
        sim.run();
    }
}

#[cfg(test)]
mod shard_tests {
    use super::*;
    use crate::net::{NetConfig, NodeCaps};

    /// Exercises timers, fan-out sends, replies and liveness reads: every
    /// node pings its ring successor each 100 ms (answered with a pong),
    /// and node 0 broadcasts to every alive node each second.
    struct Mesh {
        n: u32,
        got: Vec<u64>,
    }

    impl Protocol for Mesh {
        type Msg = u32;
        type Timer = u8;

        fn on_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
            ctx.set_timer(node, SimDuration::from_millis(100), 0);
            if node == NodeId(0) {
                ctx.set_timer(node, SimDuration::from_secs(1), 1);
            }
        }

        fn on_message(&mut self, node: NodeId, from: NodeId, msg: u32, ctx: &mut Ctx<'_, Self>) {
            self.got[node.index()] += u64::from(msg);
            if msg == 1 {
                ctx.send_control(node, from, 2, "pong");
            }
        }

        fn on_timer(&mut self, node: NodeId, timer: u8, ctx: &mut Ctx<'_, Self>) {
            match timer {
                0 => {
                    let succ = NodeId((node.0 + 1) % self.n);
                    ctx.send_control(node, succ, 1, "ping");
                    ctx.set_timer(node, SimDuration::from_millis(100), 0);
                }
                _ => {
                    for i in 1..self.n {
                        if ctx.is_alive(NodeId(i)) {
                            ctx.send_control(node, NodeId(i), 7, "bcast");
                        }
                    }
                    ctx.set_timer(node, SimDuration::from_secs(1), 1);
                }
            }
        }
    }

    /// Runs the Mesh workload across `k` in-process workers with the
    /// conservative epoch loop, returning `(root digest, total owned
    /// events, merged per-node message totals)`.
    fn run_sharded(k: u8) -> (u64, u64, Vec<u64>) {
        let n = 8u32;
        let horizon = SimTime::from_millis(5030); // deliberately not a window multiple
        let map: Vec<u8> = (0..n).map(|i| (i % u32::from(k)) as u8).collect();
        let mut sims: Vec<Simulator<Mesh>> = (0..k)
            .map(|me| {
                let mut sim = Simulator::new(
                    Mesh {
                        n,
                        got: vec![0; n as usize],
                    },
                    NetConfig::paper_model(),
                    42,
                );
                for i in 0..n {
                    let caps = if i == 0 {
                        NodeCaps::server_default()
                    } else {
                        NodeCaps::peer_default()
                    };
                    sim.add_node(caps);
                }
                let lookahead = sim.enable_sharding(map.clone(), me, k);
                assert_eq!(lookahead, SimDuration::from_millis(50));
                // The install script — identical on every worker.
                for i in 0..n {
                    sim.schedule_join(NodeId(i), SimTime::ZERO);
                }
                sim.schedule_leave(NodeId(3), SimTime::from_millis(2500), false);
                sim.schedule_join(NodeId(3), SimTime::from_millis(3500));
                sim
            })
            .collect();
        let step = SimDuration::from_millis(50);
        let mut e = 0u64;
        loop {
            let end = SimTime::ZERO + step * (e + 1);
            if end > horizon {
                break;
            }
            let mut routed: Vec<Vec<RemoteMsg<u32>>> = (0..k).map(|_| Vec::new()).collect();
            for sim in &mut sims {
                sim.run_before(end);
                for m in sim.drain_shard_outbox() {
                    routed[usize::from(map[m.to.index()])].push(m);
                }
            }
            for (sim, batch) in sims.iter_mut().zip(routed) {
                for m in batch {
                    sim.inject_remote(m).expect("well-formed remote message");
                }
            }
            e += 1;
        }
        for sim in &mut sims {
            sim.run_until(horizon);
        }
        let mut root = 0u64;
        let mut events = 0u64;
        let mut got = vec![0u64; n as usize];
        for (w, sim) in sims.iter().enumerate() {
            let s = sim.shard_stats().expect("sharded");
            root = root.wrapping_add(s.set_digest);
            events += s.owned_events;
            for i in 0..n as usize {
                if usize::from(map[i]) == w {
                    got[i] = sim.protocol().got[i];
                }
            }
        }
        (root, events, got)
    }

    #[test]
    fn shard_count_invariance_k_1_2_4() {
        let one = run_sharded(1);
        let two = run_sharded(2);
        let four = run_sharded(4);
        assert!(one.1 > 1000, "workload should be non-trivial: {}", one.1);
        assert!(one.2.iter().sum::<u64>() > 0);
        assert_eq!(one, two);
        assert_eq!(one, four);
    }

    #[test]
    fn sharded_workers_actually_exchange_messages() {
        let n = 8;
        let _ = n;
        // Re-run K=2 and check the outboxes saw traffic (the invariance
        // test would pass vacuously if everything were local).
        let map: Vec<u8> = (0..8u32).map(|i| (i % 2) as u8).collect();
        let mut sim = Simulator::new(
            Mesh {
                n: 8,
                got: vec![0; 8],
            },
            NetConfig::paper_model(),
            42,
        );
        for _ in 0..8 {
            sim.add_node(NodeCaps::peer_default());
        }
        sim.enable_sharding(map, 0, 2);
        for i in 0..8 {
            sim.schedule_join(NodeId(i), SimTime::ZERO);
        }
        sim.run_before(SimTime::from_millis(200));
        let s = sim.shard_stats().unwrap();
        assert!(s.remote_msgs_sent > 0, "ring pings must cross the cut");
        assert!(sim.drain_shard_outbox().count() > 0);
    }

    #[test]
    fn sharding_rejects_unsafe_network_models() {
        let zero_latency = NetConfig {
            latency: SimDuration::ZERO,
            ..NetConfig::paper_model()
        };
        for (net, why) in [
            (NetConfig::default(), "receiver-side charging"),
            (zero_latency, "a zero link latency (no lookahead)"),
        ] {
            let mut sim = Simulator::new(Mesh { n: 1, got: vec![0] }, net, 1);
            sim.add_node(NodeCaps::peer_default());
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.enable_sharding(vec![0], 0, 1);
            }));
            assert!(err.is_err(), "{why} must be rejected");
        }
    }

    #[test]
    fn set_digest_is_order_independent_but_content_sensitive() {
        // Same multiset folded in different order → same sum; different
        // events → different sum.
        let a = set_hash(5, 1 << 56 | 3, 2);
        let b = set_hash(7, 2 << 56 | 1, 0);
        assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
        assert_ne!(a, set_hash(5, 1 << 56 | 3, 4));
        assert_ne!(a, set_hash(6, 1 << 56 | 3, 2));
    }
}

#[cfg(test)]
mod inject_tests {
    use super::*;
    use crate::net::NetConfig;

    /// Echo protocol: counts every message per node.
    struct Echo {
        seen: Vec<u32>,
    }
    impl Protocol for Echo {
        type Msg = u64;
        type Timer = ();
        fn on_join(&mut self, _: NodeId, _: &mut Ctx<'_, Self>) {}
        fn on_message(&mut self, node: NodeId, _: NodeId, _: u64, _: &mut Ctx<'_, Self>) {
            self.seen[node.index()] += 1;
        }
        fn on_timer(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, Self>) {}
    }

    fn sim2() -> Simulator<Echo> {
        let mut sim = Simulator::new(Echo { seen: vec![0; 2] }, NetConfig::default(), 1);
        for _ in 0..2 {
            let id = sim.add_node(crate::net::NodeCaps::peer_default());
            sim.schedule_join(id, SimTime::ZERO);
        }
        sim
    }

    #[test]
    fn inject_message_delivers_without_overhead() {
        let mut sim = sim2();
        sim.inject_message(SimTime::from_secs(1), NodeId(0), NodeId(1), 42);
        sim.run();
        assert_eq!(sim.protocol().seen[1], 1);
        assert_eq!(sim.counters().control_total(), 0, "injection is free");
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn inject_message_clamps_to_now() {
        let mut sim = sim2();
        sim.run_until(SimTime::from_secs(5));
        sim.inject_message(SimTime::from_secs(1), NodeId(0), NodeId(1), 7);
        sim.run();
        assert_eq!(sim.protocol().seen[1], 1);
        assert_eq!(sim.now(), SimTime::from_secs(5), "clamped, no time travel");
    }

    #[test]
    fn membership_scheduled_in_the_past_clamps_to_now() {
        let mut sim = sim2();
        sim.run_until(SimTime::from_secs(5));
        sim.schedule_leave(NodeId(1), SimTime::from_secs(1), false);
        sim.run();
        assert!(!sim.is_alive(NodeId(1)));
        assert_eq!(sim.now(), SimTime::from_secs(5), "leave clamped to now");
        sim.schedule_join(NodeId(1), SimTime::from_secs(2));
        sim.run();
        assert!(sim.is_alive(NodeId(1)));
        assert_eq!(sim.now(), SimTime::from_secs(5), "join clamped to now");
    }

    #[test]
    fn inject_to_dead_node_is_dropped() {
        let mut sim = sim2();
        sim.schedule_leave(NodeId(1), SimTime::from_secs(1), false);
        sim.inject_message(SimTime::from_secs(2), NodeId(0), NodeId(1), 9);
        sim.run();
        assert_eq!(sim.protocol().seen[1], 0);
        assert_eq!(sim.counters().dropped_dead(), 1);
    }
}
