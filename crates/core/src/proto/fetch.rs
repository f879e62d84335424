//! The data plane: the fetch loop, provider handling, chunk serving and
//! reception (Algorithm 1 lines 1–14).

use dco_sim::prelude::*;
use dco_sim::smallvec::SmallVec;

use crate::chunk::{latest_at, ChunkSeq, CHUNK_SIZE};

use super::{
    DcoMsg, DcoProtocol, DcoTimer, Role, RoutedOp, BUSY_BACKLOG, FETCH_TICK, MAX_INFLIGHT,
    REPORT_BATCH, REPORT_EVERY, REQUEST_TIMEOUT,
};

impl DcoProtocol {
    // ------------------------------------------------------------------
    // Fetch loop
    // ------------------------------------------------------------------

    /// Algorithm 1 lines 1–4: "if N needs to buffer the next chunk, generate
    /// the chunk ID and send Lookup(ID)". Runs every [`FETCH_TICK`]; issues up
    /// to the in-flight budget of lookups for the oldest missing chunks up
    /// to the live edge.
    pub(super) fn handle_fetch_tick(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        if self.is_server(node) || self.state(node).is_none() {
            return;
        }
        let now = ctx.now();
        ctx.set_timer(node, FETCH_TICK, DcoTimer::FetchTick);
        let Some(latest) = latest_at(now, self.cfg.n_chunks) else {
            return;
        };
        let st = self.state(node).expect("checked above");
        if latest < st.first_seq {
            return;
        }
        // Hierarchical clients without a coordinator yet cannot look up.
        if st.role == Role::Client && st.coordinator.is_none() {
            return;
        }
        // This session's broadcast comes first: the viewer fetches
        // `[session_seq, latest]` oldest-first; history is backfilled
        // strictly below the live band's claim on the slots. (Eq. 2's
        // prefetch window is not modelled: the playhead never trails the
        // live edge by more than one chunk, so a window of one chunk or
        // more would end at `latest` anyway; DESIGN.md §4.)
        let inflight = self.pending.len(node.index()) + self.lookups.len(node.index());
        let budget = MAX_INFLIGHT.saturating_sub(inflight);
        if budget == 0 {
            return;
        }
        let session_start = st.session_seq.max(st.first_seq);
        // The selection stays inline (in-flight budgets are single-digit)
        // and scans the buffer map lazily — this tick fires on every node
        // every `FETCH_TICK` and must not allocate on the common all-caught-
        // up path.
        let mut wanted: SmallVec<ChunkSeq, 8> = SmallVec::new();
        if latest >= session_start {
            wanted.extend(
                st.buffer
                    .missing_in_iter(session_start, latest)
                    .filter(|s| {
                        !self.pending.contains(node.index(), s.0)
                            && !self.lookups.contains(node.index(), s.0)
                    })
                    .take(budget),
            );
        }
        // At most ONE slot chases pre-session history. Empirically this is
        // load-bearing: with more, the slots that happen to be free while
        // the live band is momentarily in flight all dive into history,
        // every new live chunk then waits out their 2 s timeouts, and
        // live delivery collapses network-wide (87 % → 35 % received at
        // the paper's churn point).
        if wanted.len() < budget && session_start > st.first_seq {
            wanted.extend(
                st.buffer
                    .missing_in_iter(st.first_seq, ChunkSeq(session_start.0 - 1))
                    .filter(|s| {
                        !self.pending.contains(node.index(), s.0)
                            && !self.lookups.contains(node.index(), s.0)
                    })
                    .take(1),
            );
        }
        for &seq in wanted.iter() {
            self.start_lookup(node, seq, None, ctx);
        }
    }

    /// Issues a lookup for `seq`, optionally reporting `exclude` as dead.
    pub(super) fn start_lookup(
        &mut self,
        node: NodeId,
        seq: ChunkSeq,
        exclude: Option<NodeId>,
        ctx: &mut Ctx<'_, Self>,
    ) {
        if self.state(node).is_none() {
            return;
        }
        self.lookups.insert(node.index(), seq.0, ());
        ctx.set_timer(node, REQUEST_TIMEOUT, DcoTimer::LookupTimeout { seq });
        let op = RoutedOp::Lookup {
            seq,
            origin: node,
            exclude,
        };
        self.send_routed(node, self.key_of(seq), op, ctx);
    }

    // ------------------------------------------------------------------
    // Provider answers and chunk transfer
    // ------------------------------------------------------------------

    /// A coordinator answered our lookup (Algorithm 1 lines 3–5).
    pub(super) fn handle_provider(
        &mut self,
        node: NodeId,
        seq: ChunkSeq,
        provider: Option<NodeId>,
        ctx: &mut Ctx<'_, Self>,
    ) {
        let Some(st) = self.state_mut(node) else {
            return;
        };
        st.coord_failures = 0;
        let answer = provider.map(|p| (p, st.buffer.has(seq)));
        self.lookups.remove(node.index(), seq.0);
        // No provider known yet: count a fetch failure and retry on the
        // next tick.
        let Some((p, already_buffered)) = answer else {
            self.fetch_failures += 1;
            return;
        };
        if p == node || already_buffered || self.pending.contains(node.index(), seq.0) {
            return;
        }
        self.pending.insert(node.index(), seq.0, p.0);
        ctx.send_control(node, p, DcoMsg::ChunkRequest { seq }, "dco.request");
        ctx.set_timer(
            node,
            REQUEST_TIMEOUT,
            DcoTimer::RequestTimeout { seq, provider: p },
        );
    }

    /// Provider side (Algorithm 1 lines 10–14): serve if the chunk is held
    /// and the upload pipe is not hopelessly backlogged, else say `Busy`.
    pub(super) fn handle_chunk_request(
        &mut self,
        node: NodeId,
        from: NodeId,
        seq: ChunkSeq,
        ctx: &mut Ctx<'_, Self>,
    ) {
        let has = self
            .state(node)
            .map(|st| st.buffer.has(seq))
            .unwrap_or(false);
        if !has {
            // Stale index (e.g. this slot rejoined after churn with a fresh
            // buffer): tell the requester so it reports the corpse index.
            ctx.send_control(node, from, DcoMsg::NoChunk { seq }, "dco.busy");
            return;
        }
        if ctx.upload_backlog(node) <= BUSY_BACKLOG {
            self.serves[node.index()] += 1;
            ctx.send_data(node, from, DcoMsg::ChunkData { seq }, CHUNK_SIZE);
        } else {
            ctx.send_control(node, from, DcoMsg::Busy { seq }, "dco.busy");
        }
    }

    /// A chunk arrived (Algorithm 1 lines 6–8): buffer it, record the
    /// reception, and register as a provider.
    pub(super) fn handle_chunk_data(
        &mut self,
        node: NodeId,
        _from: NodeId,
        seq: ChunkSeq,
        ctx: &mut Ctx<'_, Self>,
    ) {
        let now = ctx.now();
        if self.state(node).is_none() {
            return;
        }
        self.pending.remove(node.index(), seq.0);
        let st = self.state_mut(node).expect("checked above");
        if !st.buffer.insert(seq) {
            return; // duplicate
        }
        st.covariates.buffering_level = st.buffer.buffering_level(st.first_seq);
        self.obs.record_received(seq.0, node, now);
        self.start_insert(node, seq, ctx);
    }

    /// The provider had no spare bandwidth; retry through the coordinator
    /// on the next tick (its round-robin moves to another provider).
    pub(super) fn handle_busy(&mut self, node: NodeId, seq: ChunkSeq, ctx: &mut Ctx<'_, Self>) {
        let _ = ctx;
        if self.state(node).is_none() {
            return;
        }
        if self.pending.remove(node.index(), seq.0).is_some() {
            self.fetch_failures += 1;
        }
    }

    /// The provider's index was stale (it no longer holds the chunk):
    /// re-lookup immediately, reporting the stale holder so the coordinator
    /// drops its index.
    pub(super) fn handle_no_chunk(
        &mut self,
        node: NodeId,
        from: NodeId,
        seq: ChunkSeq,
        ctx: &mut Ctx<'_, Self>,
    ) {
        let removed =
            self.state(node).is_some() && self.pending.remove(node.index(), seq.0).is_some();
        if removed {
            self.fetch_failures += 1;
            self.start_lookup(node, seq, Some(from), ctx);
        }
    }

    /// §III-B2: "it continuously reports its buffered chunks to the DHT" —
    /// a rotating re-registration that keeps indices fresh and repopulates
    /// a coordinator that inherited an arc after a failure. Active only
    /// with a dynamic ring; in the static no-churn setting a single report
    /// per chunk suffices (and matches the paper's overhead accounting).
    pub(super) fn handle_report_tick(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self>) {
        if self.cfg.static_ring || self.state(node).is_none() {
            return;
        }
        ctx.set_timer(node, REPORT_EVERY, DcoTimer::ReportTick);
        let (held, cursor) = {
            let st = self.state(node).expect("checked above");
            let held: Vec<ChunkSeq> = st.buffer.iter_held().collect();
            (held, st.report_cursor)
        };
        if held.is_empty() {
            return;
        }
        // The server is the availability anchor ("the DHT always returns a
        // chunk provider"): it refreshes its whole catalogue within ~15
        // report periods, so a crashed coordinator's arc is repopulated
        // quickly. Peers rotate `REPORT_BATCH` chunks per tick.
        let batch = if self.is_server(node) {
            (self.cfg.n_chunks / 15 + 1).max(REPORT_BATCH)
        } else {
            REPORT_BATCH
        };
        let batch = batch.min(held.len() as u32);
        for k in 0..batch {
            let seq = held[((cursor + k) as usize) % held.len()];
            self.start_insert(node, seq, ctx);
        }
        if let Some(st) = self.state_mut(node) {
            st.report_cursor = st.report_cursor.wrapping_add(batch);
        }
    }

    /// The provider never answered: §III-B1b "Node Failure" — report the
    /// failure to the coordinator and receive a new provider in one routed
    /// message.
    pub(super) fn handle_request_timeout(
        &mut self,
        node: NodeId,
        seq: ChunkSeq,
        provider: NodeId,
        ctx: &mut Ctx<'_, Self>,
    ) {
        let still_waiting =
            self.state(node).is_some() && self.pending.get(node.index(), seq.0) == Some(provider.0);
        if still_waiting {
            self.pending.remove(node.index(), seq.0);
            self.fetch_failures += 1;
            self.start_lookup(node, seq, Some(provider), ctx);
        }
    }

    /// A routed lookup vanished (coordinator churned mid-route). Retry on
    /// the next tick; hierarchical clients count these toward coordinator
    /// death detection.
    pub(super) fn handle_lookup_timeout(
        &mut self,
        node: NodeId,
        seq: ChunkSeq,
        ctx: &mut Ctx<'_, Self>,
    ) {
        let report_dead = {
            if self.state(node).is_none() {
                return;
            }
            if self.lookups.remove(node.index(), seq.0).is_none() {
                return; // answered in time
            }
            let st = self.state_mut(node).expect("checked above");
            if st.role == Role::Client {
                st.coord_failures += 1;
                if st.coord_failures >= 3 {
                    // §III-B1b: the client notices the coordinator failure
                    // and contacts the server for a new coordinator.
                    st.coord_failures = 0;
                    st.coordinator.take()
                } else {
                    None
                }
            } else {
                None
            }
        };
        self.fetch_failures += 1;
        if let Some(dead) = report_dead {
            ctx.send_control(
                node,
                NodeId(0),
                DcoMsg::CoordinatorLost { dead },
                "dco.attach",
            );
        }
    }
}
