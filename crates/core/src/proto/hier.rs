//! The hierarchical tier (§III-B1): coordinator assignment, client
//! attachment, stability reporting and elastic promotion.

use dco_dht::chord::Outbox;
use dco_dht::hash::hash_node;
use dco_dht::id::Peer;
use dco_sim::prelude::*;

use crate::longevity::longevity_probability;

use super::{
    DcoMsg, DcoProtocol, DcoTimer, Role, TierMode, FIX_FINGERS_EVERY, JOIN_RETRY_EVERY,
    STABILIZE_EVERY,
};

impl DcoProtocol {
    /// Server side: a joiner asked for a coordinator — assign round-robin
    /// over the rotation ("the server provides one coordinator to each
    /// newly joined node in a round-robin manner in order to achieve load
    /// balance").
    pub(super) fn handle_attach_request(
        &mut self,
        node: NodeId,
        from: NodeId,
        ctx: &mut Ctx<'_, Self>,
    ) {
        if !self.is_server(node) || self.coordinator_pool.is_empty() {
            return;
        }
        let c = self.coordinator_pool[self.assign_cursor % self.coordinator_pool.len()];
        self.assign_cursor = self.assign_cursor.wrapping_add(1);
        ctx.send_control(
            node,
            from,
            DcoMsg::AttachAssign { coordinator: c },
            "dco.attach",
        );
    }

    /// Client side: adopt the assigned coordinator and register with it.
    pub(super) fn handle_attach_assign(
        &mut self,
        node: NodeId,
        coordinator: NodeId,
        ctx: &mut Ctx<'_, Self>,
    ) {
        let Some(st) = self.state_mut(node) else {
            return;
        };
        if st.role != Role::Client {
            return; // already promoted meanwhile
        }
        st.coordinator = Some(coordinator);
        st.coord_failures = 0;
        ctx.send_control(node, coordinator, DcoMsg::ClientAttach, "dco.attach");
    }

    /// Coordinator side: record a new client.
    pub(super) fn handle_client_attach(&mut self, node: NodeId, from: NodeId) {
        if self.state(node).is_some() && !self.clients.contains(node.index(), from.0) {
            self.clients.push_back(node.index(), from.0);
        }
    }

    /// Coordinator side: a client reported its longevity probability.
    pub(super) fn handle_stable_report(&mut self, node: NodeId, from: NodeId, longevity: f64) {
        let Some(st) = self.state_mut(node) else {
            return;
        };
        match st.stable_clients.iter_mut().find(|(n, _)| *n == from) {
            Some(entry) => entry.1 = longevity,
            None => st.stable_clients.push((from, longevity)),
        }
        st.stable_clients
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    }

    /// Periodic tier maintenance, both sides:
    ///
    /// * clients evaluate Eq. 1 and report when they cross the stability
    ///   threshold;
    /// * coordinators (and the server) check for overload and promote their
    ///   most stable client into the ring.
    pub(super) fn handle_tier_check(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        let TierMode::Hierarchical {
            stable_threshold,
            overload_lookups,
            check_every,
        } = self.cfg.tier
        else {
            return;
        };
        ctx.set_timer(node, check_every, DcoTimer::TierCheck);
        let now = ctx.now();
        let Some(st) = self.state_mut(node) else {
            return;
        };
        match st.role {
            Role::Client => {
                let uptime = now.saturating_since(st.joined_at).as_secs_f64();
                let p = longevity_probability(uptime, st.covariates);
                if p >= stable_threshold {
                    if let Some(c) = st.coordinator {
                        ctx.send_control(
                            node,
                            c,
                            DcoMsg::StableReport { longevity: p },
                            "dco.stable",
                        );
                    }
                }
            }
            Role::Coordinator | Role::Server => {
                let overloaded = st.lookups_handled > overload_lookups;
                st.lookups_handled = 0;
                if overloaded {
                    // Promote the most stable known client.
                    if let Some((candidate, _)) = st.stable_clients.first().copied() {
                        st.stable_clients.retain(|(n, _)| *n != candidate);
                        ctx.send_control(node, candidate, DcoMsg::Promote, "dco.promote");
                    }
                }
            }
        }
    }

    /// Client side: our coordinator invited us into the ring. Join Chord via
    /// the coordinator; the role flips to `Coordinator` when
    /// `JoinComplete` fires (see `drain`).
    pub(super) fn handle_promote(&mut self, node: NodeId, from: NodeId, ctx: &mut Ctx<'_, Self>) {
        let is_client = self
            .state(node)
            .map(|st| st.role == Role::Client)
            .unwrap_or(false);
        if !is_client || self.chord.state(node).is_some() {
            return;
        }
        let mut out = Outbox::new();
        self.chord
            .join(Peer::new(hash_node(node), node), from, &mut out);
        self.drain(out, ctx);
        ctx.set_timer(node, JOIN_RETRY_EVERY, DcoTimer::JoinRetry);
        ctx.set_timer(node, STABILIZE_EVERY, DcoTimer::Stabilize);
        ctx.set_timer(node, FIX_FINGERS_EVERY, DcoTimer::FixFingers);
    }

    /// Server side: a promoted node finished joining the ring — add it to
    /// the assignment rotation.
    pub(super) fn handle_coordinator_announce(&mut self, node: NodeId, from: NodeId) {
        if self.is_server(node) && !self.coordinator_pool.contains(&from) {
            self.coordinator_pool.push(from);
        }
    }

    /// Server side: a client reported its coordinator dead. Drop it from
    /// the rotation and assign the client a replacement.
    pub(super) fn handle_coordinator_lost(
        &mut self,
        node: NodeId,
        from: NodeId,
        dead: NodeId,
        ctx: &mut Ctx<'_, Self>,
    ) {
        if !self.is_server(node) {
            return;
        }
        self.coordinator_pool
            .retain(|&c| c != dead || c == NodeId(0));
        self.handle_attach_request(node, from, ctx);
    }
}
