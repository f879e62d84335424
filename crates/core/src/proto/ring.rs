//! Ring-side logic: membership, Chord glue, routed `Insert` / `Lookup` /
//! `Deregister`, coordinator duties and the server's chunk generation.

use dco_dht::chord::{ChordEvent, ChordMsg, Outbox, RouteStep, FIND_TTL};
use dco_dht::hash::hash_node;
use dco_dht::id::{ChordId, Peer};
use dco_sim::prelude::*;

use crate::chunk::{latest_at, ChunkSeq, CHUNK_INTERVAL};
use crate::index::ChunkIndex;

use super::{
    DcoMsg, DcoProtocol, DcoTimer, NodeState, Role, TierMode, AVAIL_HORIZON, FETCH_TICK,
    FIX_FINGERS_EVERY, JOIN_RETRY_EVERY, REPORT_EVERY, STABILIZE_EVERY, STREAM_RATE,
};

/// Hub stream id for the per-node provider-selection RNG used in sharded
/// runs (any fixed value works; it only has to differ from other streams).
const SELECT_RNG_STREAM: u64 = 0x005E_1EC7;

impl DcoProtocol {
    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    pub(super) fn handle_join(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        let now = ctx.now();
        // Viewers fetch the live broadcast from their join point first and
        // backfill the rest of the stream with leftover budget (so a
        // rejoining node repairs its earlier session's holes without
        // starving its playback).
        let first_seq = ChunkSeq(0);
        let session_seq = if self.is_server(node) {
            ChunkSeq(0)
        } else {
            latest_at(now, self.cfg.n_chunks).unwrap_or(ChunkSeq(0))
        };
        let role = if self.is_server(node) {
            Role::Server
        } else {
            match self.cfg.tier {
                TierMode::Flat => Role::Coordinator,
                TierMode::Hierarchical { .. } => Role::Client,
            }
        };
        self.nodes[node.index()] = Some(NodeState::new(
            role,
            self.cfg.n_chunks,
            now,
            first_seq,
            session_seq,
        ));
        // The pooled per-node tables outlive the NodeState; a (re)joining
        // node starts with empty segments.
        self.pending.clear(node.index());
        self.lookups.clear(node.index());
        self.clients.clear(node.index());

        if self.is_server(node) {
            if !self.cfg.static_ring {
                self.chord.bootstrap(Peer::new(hash_node(node), node));
                // The server is a full ring member: it stabilizes and fixes
                // fingers like everyone else, and keeps re-reporting its
                // chunks so availability survives coordinator failures.
                self.arm_ring_timers(node, ctx);
                ctx.set_timer(node, REPORT_EVERY, DcoTimer::ReportTick);
            }
            // Chunk 0 is generated immediately.
            ctx.set_timer(node, SimDuration::ZERO, DcoTimer::Generate);
            if matches!(self.cfg.tier, TierMode::Hierarchical { .. }) {
                let check = self.tier_check_period();
                ctx.set_timer(node, check, DcoTimer::TierCheck);
            }
            return;
        }

        match self.cfg.tier {
            TierMode::Flat => {
                if !self.cfg.static_ring {
                    let mut out = Outbox::new();
                    self.chord
                        .join(Peer::new(hash_node(node), node), NodeId(0), &mut out);
                    self.drain(out, ctx);
                    ctx.set_timer(node, JOIN_RETRY_EVERY, DcoTimer::JoinRetry);
                    self.arm_ring_timers(node, ctx);
                }
            }
            TierMode::Hierarchical { .. } => {
                ctx.send_control(node, NodeId(0), DcoMsg::AttachRequest, "dco.attach");
                let check = self.tier_check_period();
                ctx.set_timer(node, check, DcoTimer::TierCheck);
            }
        }
        ctx.set_timer(node, FETCH_TICK, DcoTimer::FetchTick);
        if !self.cfg.static_ring {
            ctx.set_timer(node, REPORT_EVERY, DcoTimer::ReportTick);
        }
    }

    pub(super) fn handle_leave(&mut self, node: NodeId, graceful: bool, ctx: &mut Ctx<'_, Self>) {
        if self.is_server(node) {
            return; // the source never leaves in our experiments
        }
        if graceful {
            let is_ring_member = self.chord.state(node).is_some();
            // §III-B1b "Node Departure": deregister the chunks this node
            // reported, so coordinators stop advertising it.
            let held: Vec<ChunkSeq> = self
                .state(node)
                .map(|st| st.buffer.iter_held().collect())
                .unwrap_or_default();
            let coordinator = self.state(node).and_then(|st| st.coordinator);
            for seq in held {
                let key = self.key_of(seq);
                if is_ring_member {
                    self.route_deregister(node, key, node, FIND_TTL, false, ctx);
                } else if let Some(c) = coordinator {
                    ctx.send_control(
                        node,
                        c,
                        DcoMsg::Deregister {
                            key,
                            holder: node,
                            ttl: FIND_TTL,
                            fin: false,
                        },
                        "dco.dereg",
                    );
                }
            }
            if is_ring_member {
                // Hand the index table to the successor, then run the
                // standard Chord leave.
                let mut out = Outbox::new();
                let leave = self.chord.leave(node, &mut out);
                if let Some((_, Some(succ))) = leave {
                    let entries = self
                        .state_mut(node)
                        .map(|st| st.index.drain_all())
                        .unwrap_or_default();
                    if !entries.is_empty() {
                        ctx.send_control(
                            node,
                            succ.node,
                            DcoMsg::IndexHandover { entries },
                            "dco.handover",
                        );
                    }
                }
                self.drain(out, ctx);
            }
        } else {
            self.chord.fail(node);
        }
        self.nodes[node.index()] = None;
        self.pending.clear(node.index());
        self.lookups.clear(node.index());
        self.clients.clear(node.index());
    }

    fn arm_ring_timers(&self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        ctx.set_timer(node, STABILIZE_EVERY, DcoTimer::Stabilize);
        ctx.set_timer(node, FIX_FINGERS_EVERY, DcoTimer::FixFingers);
    }

    pub(super) fn tier_check_period(&self) -> SimDuration {
        match self.cfg.tier {
            TierMode::Hierarchical { check_every, .. } => check_every,
            TierMode::Flat => SimDuration::from_secs(10),
        }
    }

    // ------------------------------------------------------------------
    // Chord glue
    // ------------------------------------------------------------------

    pub(super) fn handle_chord(
        &mut self,
        node: NodeId,
        from: NodeId,
        msg: ChordMsg,
        ctx: &mut Ctx<'_, Self>,
    ) {
        let mut out = Outbox::new();
        self.chord.handle(node, from, msg, &mut out);
        self.drain(out, ctx);
    }

    pub(super) fn drain(&mut self, out: Outbox, ctx: &mut Ctx<'_, Self>) {
        for s in out.sends {
            ctx.send_control(s.from, s.to, DcoMsg::Chord(s.msg), s.tag);
        }
        for e in out.events {
            match e {
                ChordEvent::JoinComplete { node } => {
                    // A promoted client becomes a full coordinator once its
                    // ring join completes (§III-B1b "Node Join").
                    let was_client = self
                        .state(node)
                        .map(|st| st.role == Role::Client)
                        .unwrap_or(false);
                    if was_client {
                        if let Some(st) = self.state_mut(node) {
                            st.role = Role::Coordinator;
                            st.coordinator = None;
                        }
                        ctx.send_control(
                            node,
                            NodeId(0),
                            DcoMsg::CoordinatorAnnounce,
                            "dco.promote",
                        );
                    }
                }
                ChordEvent::PredChanged { node, new_pred } => {
                    // Ownership split: indices outside (new_pred, me] move.
                    let me_id = match self.chord.state(node) {
                        Some(st) => st.me().id,
                        None => continue,
                    };
                    let entries = match self.state_mut(node) {
                        Some(st) => st.index.extract_range(me_id, new_pred.id),
                        None => continue,
                    };
                    if !entries.is_empty() {
                        ctx.send_control(
                            node,
                            new_pred.node,
                            DcoMsg::IndexHandover { entries },
                            "dco.handover",
                        );
                    }
                }
                ChordEvent::SuccessorDeclaredDead { .. } => {}
            }
        }
    }

    pub(super) fn handle_stabilize_tick(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        if self.cfg.static_ring || self.chord.state(node).is_none() {
            return;
        }
        let mut out = Outbox::new();
        self.chord.tick_stabilize(node, &mut out);
        self.drain(out, ctx);
        ctx.set_timer(node, STABILIZE_EVERY, DcoTimer::Stabilize);
    }

    pub(super) fn handle_fix_fingers_tick(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        if self.cfg.static_ring || self.chord.state(node).is_none() {
            return;
        }
        let mut out = Outbox::new();
        self.chord.tick_fix_fingers(node, &mut out);
        self.drain(out, ctx);
        ctx.set_timer(node, FIX_FINGERS_EVERY, DcoTimer::FixFingers);
    }

    pub(super) fn handle_join_retry(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        let joined = self
            .chord
            .state(node)
            .map(|s| s.is_joined())
            .unwrap_or(true);
        if joined {
            return;
        }
        let mut out = Outbox::new();
        self.chord.retry_join(node, NodeId(0), &mut out);
        self.drain(out, ctx);
        ctx.set_timer(node, JOIN_RETRY_EVERY, DcoTimer::JoinRetry);
    }

    // ------------------------------------------------------------------
    // The server's chunk production (§III-A1)
    // ------------------------------------------------------------------

    pub(super) fn handle_generate(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        let seq = self.next_seq;
        if seq.0 >= self.cfg.n_chunks {
            return;
        }
        self.next_seq = seq.next();
        let now = ctx.now();
        self.obs.record_generated(seq.0, now);
        // The audience of this chunk: every peer alive at generation time.
        for i in 1..self.cfg.n_nodes {
            if ctx.is_alive(NodeId(i)) {
                self.obs.mark_expected(seq.0, NodeId(i));
            }
        }
        if let Some(st) = self.state_mut(node) {
            st.buffer.insert(seq);
        }
        // Register the server as the chunk's first provider.
        self.start_insert(node, seq, ctx);
        if self.next_seq.0 < self.cfg.n_chunks {
            ctx.set_timer(node, CHUNK_INTERVAL, DcoTimer::Generate);
        }
    }

    // ------------------------------------------------------------------
    // Routed DHT application messages
    // ------------------------------------------------------------------

    /// Registers `node` as a provider of `seq` (Algorithm 1 line 7:
    /// "Register to the coordinator as a chunk provider").
    pub(super) fn start_insert(&mut self, node: NodeId, seq: ChunkSeq, ctx: &mut Ctx<'_, Self>) {
        let held = self
            .state(node)
            .map(|st| st.buffer.held_count() as u32)
            .unwrap_or(0);
        let index = ChunkIndex {
            seq,
            holder: node,
            avail: ctx.available_upload(node, AVAIL_HORIZON),
            held_count: held,
        };
        let key = self.key_of(seq);
        let is_client = self
            .state(node)
            .map(|st| st.role == Role::Client)
            .unwrap_or(false);
        if is_client {
            if let Some(c) = self.state(node).and_then(|st| st.coordinator) {
                ctx.send_control(node, c, DcoMsg::ClientInsert { index }, "dco.insert");
            }
            return;
        }
        self.route_insert(node, key, index, FIND_TTL, false, ctx);
    }

    pub(super) fn route_insert(
        &mut self,
        at: NodeId,
        key: ChordId,
        index: ChunkIndex,
        ttl: u8,
        fin: bool,
        ctx: &mut Ctx<'_, Self>,
    ) {
        if fin {
            self.deliver_insert(at, key, index);
            return;
        }
        match self.chord.route_next_cached(at, key) {
            Some(RouteStep::Deliver) | None => self.deliver_insert(at, key, index),
            Some(RouteStep::DeliverAt(p)) => {
                ctx.send_control(
                    at,
                    p,
                    DcoMsg::Insert {
                        key,
                        index,
                        ttl: 0,
                        fin: true,
                    },
                    "dco.insert",
                );
            }
            Some(RouteStep::Forward(p)) => {
                if ttl > 0 {
                    ctx.send_control(
                        at,
                        p,
                        DcoMsg::Insert {
                            key,
                            index,
                            ttl: ttl - 1,
                            fin: false,
                        },
                        "dco.insert",
                    );
                }
            }
        }
    }

    fn deliver_insert(&mut self, at: NodeId, key: ChordId, index: ChunkIndex) {
        if let Some(st) = self.state_mut(at) {
            st.index.register(key, index);
        }
    }

    pub(super) fn route_deregister(
        &mut self,
        at: NodeId,
        key: ChordId,
        holder: NodeId,
        ttl: u8,
        fin: bool,
        ctx: &mut Ctx<'_, Self>,
    ) {
        if fin {
            if let Some(st) = self.state_mut(at) {
                st.index.remove_holder(key, holder);
            }
            return;
        }
        match self.chord.route_next_cached(at, key) {
            Some(RouteStep::Deliver) | None => {
                if let Some(st) = self.state_mut(at) {
                    st.index.remove_holder(key, holder);
                }
            }
            Some(RouteStep::DeliverAt(p)) => {
                ctx.send_control(
                    at,
                    p,
                    DcoMsg::Deregister {
                        key,
                        holder,
                        ttl: 0,
                        fin: true,
                    },
                    "dco.dereg",
                );
            }
            Some(RouteStep::Forward(p)) => {
                if ttl > 0 {
                    ctx.send_control(
                        at,
                        p,
                        DcoMsg::Deregister {
                            key,
                            holder,
                            ttl: ttl - 1,
                            fin: false,
                        },
                        "dco.dereg",
                    );
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn route_lookup(
        &mut self,
        at: NodeId,
        key: ChordId,
        seq: ChunkSeq,
        origin: NodeId,
        exclude: Option<NodeId>,
        ttl: u8,
        fin: bool,
        ctx: &mut Ctx<'_, Self>,
    ) {
        if fin {
            self.deliver_lookup(at, key, seq, origin, exclude, ctx);
            return;
        }
        match self.chord.route_next_cached(at, key) {
            Some(RouteStep::Deliver) | None => {
                self.deliver_lookup(at, key, seq, origin, exclude, ctx)
            }
            Some(RouteStep::DeliverAt(p)) => {
                ctx.send_control(
                    at,
                    p,
                    DcoMsg::Lookup {
                        key,
                        seq,
                        origin,
                        exclude,
                        ttl: 0,
                        fin: true,
                    },
                    "dco.lookup",
                );
            }
            Some(RouteStep::Forward(p)) => {
                if ttl > 0 {
                    ctx.send_control(
                        at,
                        p,
                        DcoMsg::Lookup {
                            key,
                            seq,
                            origin,
                            exclude,
                            ttl: ttl - 1,
                            fin: false,
                        },
                        "dco.lookup",
                    );
                }
            }
        }
    }

    /// Coordinator-side lookup handling (Algorithm 1 lines 17–19).
    fn deliver_lookup(
        &mut self,
        at: NodeId,
        key: ChordId,
        seq: ChunkSeq,
        origin: NodeId,
        exclude: Option<NodeId>,
        ctx: &mut Ctx<'_, Self>,
    ) {
        let policy = self.cfg.select_policy;
        self.lookups_delivered += 1;
        let Some(st) = self.state_mut(at) else { return };
        st.lookups_handled += 1;
        // Failure report: drop the dead provider's index first.
        if let Some(dead) = exclude {
            st.index.remove_holder(key, dead);
        }
        // Stack-allocated exclusion set: it is always {origin} or
        // {origin, dead} — this runs once per delivered lookup.
        let excluded_buf = [origin, exclude.unwrap_or(origin)];
        let excluded: &[NodeId] = &excluded_buf[..1 + usize::from(exclude.is_some())];
        let mut provider = {
            // Shared stream normally (the pinned trace digests consume
            // it); a private per-node stream when sharded, where the
            // shared stream is not shard-invariant. The paper's
            // sufficient-bandwidth policy never actually draws.
            let rng = if ctx.is_sharded() {
                st.select_rng
                    .get_or_insert_with(|| ctx.hub().node_rng(SELECT_RNG_STREAM, at))
            } else {
                ctx.rng()
            };
            st.index
                .select(key, STREAM_RATE, policy, excluded, rng)
                .map(|idx| idx.holder)
        };
        if provider.is_none() {
            self.provider_none += 1;
            // §III-B2: "A chunk request in DCO is always answered with a
            // chunk provider." The channel server holds every chunk by
            // construction, so an empty index entry (e.g. freshly inherited
            // after a coordinator failure, before re-reports arrive) falls
            // back to the source.
            if origin != NodeId(0) && !excluded.contains(&NodeId(0)) {
                provider = Some(NodeId(0));
            }
        }
        if origin == at {
            // The coordinator asked about a chunk it owns itself.
            self.handle_provider(at, seq, provider, ctx);
        } else {
            ctx.send_control(
                at,
                origin,
                DcoMsg::Provider { seq, provider },
                "dco.provider",
            );
        }
    }
}
