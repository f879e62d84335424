//! Property tests pinning the pooled routing-state layout against the
//! retained reference models, plus churn edge cases on the flat layout.
//!
//! The flat churn path keeps every node's successor list and finger table
//! in [`dco_dht::pool`]'s struct-of-arrays pools; [`SuccessorList`] and
//! [`FingerTable`] are retained as executable specifications. These tests
//! drive both layouts through identical operation sequences (across many
//! interleaved owners, so pool segment arithmetic is exercised) and demand
//! identical observable state. Driven by the in-tree `dco-testkit`
//! (deterministic seeds, `DCO_TESTKIT_REPLAY` to reproduce a failure).
//!
//! The scenario tests at the bottom cover the churn edge cases that bit
//! the pooled layout hardest during bring-up: slot reuse on rejoin (stale
//! books must never leak across tenancies), mass simultaneous departure,
//! and a departed node rejoining while peers still hold tombstones and
//! pending-probe entries for its previous life.

use std::collections::BTreeSet;

use dco_dht::chord::{ChordConfig, ChordNet, Outbox, RouteDecision};
use dco_dht::finger::FingerTable;
use dco_dht::hash::hash_node;
use dco_dht::id::{ChordId, Peer};
use dco_dht::pool::{FingerPool, SuccessorPool, TombstonePool};
use dco_dht::ring::OracleRing;
use dco_dht::successors::SuccessorList;
use dco_sim::node::NodeId;
use dco_sim::slab::SlotTable;
use dco_testkit::{check, tk_assert, tk_assert_eq, Gen};

// ---------------------------------------------------------------------
// Pool vs retained reference model
// ---------------------------------------------------------------------

/// A random peer with a small node-id space so removals actually hit.
fn gen_peer(g: &mut Gen) -> Peer {
    Peer::new(ChordId(g.any_u64()), NodeId(g.usize_in(0, 24) as u32))
}

/// A stabilize reply's list as `owner` at `me` receives it: members
/// sorted by distance from a replier near `me` (so ascending from `me`
/// too, until the list passes `me` and wraps), with repeats of the
/// owner's own entries (same peer, or same id or node only), `me` itself
/// and strays mixed in.
fn gen_reply(g: &mut Gen, me: ChordId, held: &[Peer]) -> Vec<Peer> {
    let from = ChordId(me.0.wrapping_add(g.any_u64() >> g.usize_in(0, 64)));
    let mut list: Vec<Peer> = (0..g.usize_in(0, 12)).map(|_| gen_peer(g)).collect();
    list.extend(held.iter().copied().filter(|_| g.weighted_bool(0.7)));
    list.sort_by_key(|p| from.distance_to(p.id));
    for _ in 0..g.usize_in(0, 3) {
        let i = g.usize_in(0, list.len() + 1);
        let stray = match g.usize_in(0, 4) {
            0 => Peer::new(me, NodeId(g.usize_in(0, 24) as u32)),
            1 if !held.is_empty() => Peer::new(g.pick(held).id, NodeId(g.usize_in(0, 24) as u32)),
            2 if !held.is_empty() => Peer::new(ChordId(g.any_u64()), g.pick(held).node),
            _ => gen_peer(g),
        };
        list.insert(i, stray);
    }
    list
}

/// Arbitrary interleaved offer/remove sequences on [`SuccessorPool`]
/// produce exactly the retained [`SuccessorList`] per owner: same order,
/// same first, same membership, same capacity behaviour. A batch offer
/// (`offer_all`, with stabilize-reply-shaped batches) leaves what
/// offering its peers one by one leaves, and the routing hop
/// (`closest_preceding`) is the farthest entry a scan finds strictly
/// between the owner and the key.
#[test]
fn successor_pool_matches_retained_list() {
    check("successor_pool_matches_retained_list", 128, |g| {
        let owners = g.usize_in(1, 5);
        let cap = g.usize_in(1, 9);
        let me_ids: Vec<ChordId> = (0..owners).map(|_| ChordId(g.any_u64())).collect();
        let mut pool = SuccessorPool::new(owners, cap);
        let mut refs: Vec<SuccessorList> = me_ids
            .iter()
            .map(|&me| SuccessorList::new(me, cap))
            .collect();
        for _ in 0..g.usize_in(1, 120) {
            let o = g.usize_in(0, owners);
            match g.usize_in(0, 6) {
                0 => {
                    let node = NodeId(g.usize_in(0, 24) as u32);
                    tk_assert_eq!(
                        pool.remove_node(o, node),
                        refs[o].remove_node(node),
                        "remove_node return"
                    );
                }
                1 | 2 => {
                    let held: Vec<Peer> = refs[o].iter().collect();
                    let batch = gen_reply(g, me_ids[o], &held);
                    pool.offer_all(o, me_ids[o], &batch);
                    for &p in &batch {
                        refs[o].offer(p);
                    }
                }
                _ => {
                    let p = gen_peer(g);
                    tk_assert_eq!(
                        pool.offer(o, me_ids[o], p),
                        refs[o].offer(p),
                        "offer return for {p:?}"
                    );
                }
            }
            let key = ChordId(g.any_u64());
            for (o, r) in refs.iter().enumerate() {
                let got: Vec<Peer> = pool.iter(o).collect();
                let want: Vec<Peer> = r.iter().collect();
                tk_assert_eq!(got, want, "owner {o} diverged");
                tk_assert_eq!(pool.first(o), r.first());
                tk_assert_eq!(pool.len(o), r.len());
                let me = me_ids[o];
                let mut keys = vec![key, me];
                keys.extend(want.iter().map(|p| p.id));
                for key in keys {
                    let scan = want
                        .iter()
                        .copied()
                        .filter(|p| p.id.in_open(me, key))
                        .max_by_key(|p| me.distance_to(p.id));
                    tk_assert_eq!(
                        pool.closest_preceding(o, me, key),
                        scan,
                        "closest_preceding({key:?}) of owner {o}"
                    );
                }
            }
        }
        Ok(())
    });
}

/// The fingers of `me` in a converged ring of random members: finger `k`
/// is the member nearest clockwise from `start(k)`, so a few members each
/// hold a long run of adjacent fingers, as in a converged table. A few
/// fingers are then overwritten with an entry out of their range (at a
/// distance below `2^k`, as a wrapped fix-fingers answer can be).
fn converged_fingers(g: &mut Gen, me: ChordId) -> Vec<(u32, Peer)> {
    let members: Vec<Peer> = (0..g.usize_in(1, 40)).map(|_| gen_peer(g)).collect();
    let mut fingers: Vec<(u32, Peer)> = (0..64u32)
        .filter_map(|k| {
            let start = me.finger_start(k);
            members
                .iter()
                .copied()
                .filter(|p| p.id != me)
                .min_by_key(|p| start.distance_to(p.id))
                .map(|p| (k, p))
        })
        .collect();
    for _ in 0..g.usize_in(0, 4) {
        let k = g.usize_in(0, 64) as u32;
        let d = g.u64_in(0, 1 << k);
        let node = NodeId(g.usize_in(0, 24) as u32);
        fingers.push((k, Peer::new(ChordId(me.0.wrapping_add(d)), node)));
    }
    fingers
}

/// Checks every finger and every derived query of `pool`'s owner `o`
/// against the reference table, probing `closest_preceding` at `key`, at
/// `me` and at every finger's own id (the edges of its answers).
fn same_fingers(pool: &FingerPool, o: usize, r: &FingerTable, key: ChordId) -> Result<(), String> {
    let me = r.me();
    for k in 0..64u32 {
        tk_assert_eq!(pool.get(o, k), r.get(k), "finger {k} of owner {o}");
    }
    tk_assert_eq!(pool.populated(o), r.populated());
    let mut keys = vec![key, me];
    keys.extend(r.distinct_peers().iter().map(|p| p.id));
    for key in keys {
        tk_assert_eq!(
            pool.closest_preceding(o, me, key),
            r.closest_preceding(key),
            "closest_preceding({key:?}) of owner {o}"
        );
    }
    tk_assert_eq!(pool.distinct_peers(o), r.distinct_peers());
    Ok(())
}

/// Arbitrary set/clear/offer/remove sequences on [`FingerPool`] produce
/// exactly the retained [`FingerTable`] per owner, including the derived
/// queries (`closest_preceding`, `distinct_peers`, `populated`). Tables
/// start empty or converged (long runs of one peer), and the operations
/// both split runs (`set`, `clear`, single offers) and extend or drop
/// whole runs (`set` of a neighbour's entry, `remove_node` of a held node,
/// batch offers, a reseed after `clear_owner`).
#[test]
fn finger_pool_matches_retained_table() {
    check("finger_pool_matches_retained_table", 128, |g| {
        let owners = g.usize_in(1, 4);
        let me_ids: Vec<ChordId> = (0..owners).map(|_| ChordId(g.any_u64())).collect();
        let mut pool = FingerPool::new(owners);
        let mut refs: Vec<FingerTable> = me_ids.iter().map(|&me| FingerTable::new(me)).collect();
        let seed = |g: &mut Gen, pool: &mut FingerPool, r: &mut FingerTable, o: usize| {
            for (k, p) in converged_fingers(g, r.me()) {
                pool.set(o, k, p);
                r.set(k, p);
            }
        };
        for (o, r) in refs.iter_mut().enumerate() {
            if g.weighted_bool(0.5) {
                seed(g, &mut pool, r, o);
            }
        }
        for _ in 0..g.usize_in(1, 160) {
            let o = g.usize_in(0, owners);
            let me = me_ids[o];
            let held = refs[o].distinct_peers();
            match g.usize_in(0, 7) {
                0 => {
                    let k = g.usize_in(0, 64) as u32;
                    // A neighbour's entry extends its run; anything else
                    // splits one.
                    let near = refs[o]
                        .get(k.saturating_sub(1))
                        .or(refs[o].get((k + 1).min(63)));
                    let p = match near {
                        Some(p) if g.weighted_bool(0.5) => p,
                        _ => gen_peer(g),
                    };
                    pool.set(o, k, p);
                    refs[o].set(k, p);
                }
                1 => {
                    let k = g.usize_in(0, 64) as u32;
                    pool.clear(o, k);
                    refs[o].clear(k);
                }
                2 => {
                    let node = if !held.is_empty() && g.weighted_bool(0.7) {
                        g.pick(&held).node
                    } else {
                        NodeId(g.usize_in(0, 24) as u32)
                    };
                    tk_assert_eq!(
                        pool.remove_node(o, node),
                        refs[o].remove_node(node),
                        "remove_node count"
                    );
                }
                3 => {
                    let p = gen_batch_peer(g, me, &held);
                    pool.offer_all(o, me, &[p]);
                    refs[o].offer(p);
                }
                4 => {
                    let mut batch: Vec<Peer> = held.clone();
                    let n = g.usize_in(0, 12);
                    for _ in 0..n {
                        let p = gen_batch_peer(g, me, &batch);
                        batch.push(p);
                    }
                    let batch = batch.split_off(held.len());
                    pool.offer_all(o, me, &batch);
                    for &p in &batch {
                        refs[o].offer(p);
                    }
                }
                5 => {
                    pool.clear_owner(o);
                    refs[o] = FingerTable::new(me);
                    seed(g, &mut pool, &mut refs[o], o);
                }
                _ => {
                    let p = gen_peer(g);
                    pool.offer_all(o, me, &[p]);
                    refs[o].offer(p);
                }
            }
            let key = ChordId(g.any_u64());
            for (o, r) in refs.iter().enumerate() {
                same_fingers(&pool, o, r, key)?;
            }
        }
        Ok(())
    });
}

/// A batch peer at a chosen distance from `me`: arbitrary, exactly `2^k`
/// or `2^k - 1` away (finger `k`'s range edge; `k = 0` gives `me` itself),
/// `me` itself, or a repeat of an earlier peer's id — on the same node or a
/// different one.
fn gen_batch_peer(g: &mut Gen, me: ChordId, earlier: &[Peer]) -> Peer {
    let node = NodeId(g.usize_in(0, 24) as u32);
    let k = g.usize_in(0, 64) as u32;
    let id = match g.usize_in(0, 6) {
        0 => ChordId(me.0.wrapping_add(1 << k)),
        1 => ChordId(me.0.wrapping_add((1 << k) - 1)),
        2 => me,
        3 if !earlier.is_empty() => {
            let q = *g.pick(earlier);
            if g.weighted_bool(0.5) {
                return q;
            }
            q.id
        }
        _ => ChordId(g.any_u64()),
    };
    Peer::new(id, node)
}

/// `offer_all` leaves exactly the table that offering the batch one peer
/// at a time (in slice order) to the reference [`FingerTable`] leaves —
/// every finger and every derived query — starting from tables that hold
/// earlier offers, converged runs and fingers `set` out of their range.
#[test]
fn finger_pool_offer_all_matches_sequential_offers() {
    check(
        "finger_pool_offer_all_matches_sequential_offers",
        256,
        |g| {
            let owners = g.usize_in(1, 4);
            let me_ids: Vec<ChordId> = (0..owners).map(|_| ChordId(g.any_u64())).collect();
            let mut pool = FingerPool::new(owners);
            let mut refs: Vec<FingerTable> =
                me_ids.iter().map(|&me| FingerTable::new(me)).collect();
            for _ in 0..g.usize_in(1, 12) {
                let o = g.usize_in(0, owners);
                let me = me_ids[o];
                // Current fingers: a converged table, or some set at a
                // distance below 2^k, out of their own range (fix-fingers
                // can store such a wrapped successor), some set anywhere.
                if g.weighted_bool(0.5) {
                    for (k, p) in converged_fingers(g, me) {
                        pool.set(o, k, p);
                        refs[o].set(k, p);
                    }
                }
                for _ in 0..g.usize_in(0, 6) {
                    let k = g.usize_in(0, 64) as u32;
                    let d = if g.weighted_bool(0.5) {
                        g.u64_in(0, 1 << k)
                    } else {
                        g.any_u64()
                    };
                    let p = Peer::new(
                        ChordId(me.0.wrapping_add(d)),
                        NodeId(g.usize_in(0, 24) as u32),
                    );
                    pool.set(o, k, p);
                    refs[o].set(k, p);
                }
                // Batch peers may repeat the table's own entries.
                let held = refs[o].distinct_peers();
                let mut batch: Vec<Peer> = held.clone();
                for _ in 0..g.usize_in(0, 40) {
                    let p = gen_batch_peer(g, me, &batch);
                    batch.push(p);
                }
                let batch = batch.split_off(held.len());
                pool.offer_all(o, me, &batch);
                for &p in &batch {
                    refs[o].offer(p);
                }
                let key = ChordId(g.any_u64());
                for (o, r) in refs.iter().enumerate() {
                    same_fingers(&pool, o, r, key)?;
                }
            }
            Ok(())
        },
    );
}

/// [`TombstonePool`]'s counted probe answers exactly what a plain linear
/// [`SlotTable`] of the same tombstones answers, and its per-node count is
/// the number of owners whose table holds the node, through every way a
/// tombstone comes and goes in `ChordNet`: a death observed or gossiped
/// (insert), gossip re-observing it (refresh of the tick), a message
/// straight from the node (remove), TTL expiry on a stabilize tick
/// (`retain`), an owner leaving or joining (`clear`), a rejoin under a
/// reused slot (the slot's own table cleared, other owners' tombstones for
/// it lifted one by one on direct contact), and the ring growing.
#[test]
fn tombstone_pool_matches_linear_table() {
    check("tombstone_pool_matches_linear_table", 128, |g| {
        let mut owners = g.usize_in(1, 6);
        // Node ids past the owner slots too: gossip can name any node.
        let nodes = owners + g.usize_in(0, 4);
        let stride = g.usize_in(1, 4);
        let ttl = g.u64_in(1, 12);
        let mut pool = TombstonePool::new(owners, stride);
        let mut model: SlotTable<u64> = SlotTable::new(owners, stride);
        let mut tick = 0u64;
        for _ in 0..g.usize_in(1, 200) {
            let o = g.usize_in(0, owners);
            let node = NodeId(g.usize_in(0, nodes) as u32);
            match g.usize_in(0, 7) {
                0 | 1 => {
                    pool.insert(o, node, tick);
                    model.insert(o, node.0, tick);
                }
                2 => {
                    tk_assert_eq!(
                        pool.remove(o, node),
                        model.remove(o, node.0).is_some(),
                        "remove({o}, {node})"
                    );
                }
                3 => {
                    tick += g.u64_in(0, 6);
                    let keep = |t: u64| tick - t < ttl;
                    pool.retain(o, |_, t| keep(t));
                    model.retain(o, |_, t| keep(t));
                }
                4 => {
                    pool.clear(o);
                    model.clear(o);
                }
                5 => {
                    // Slot `o` rejoins: its books start empty, and every
                    // owner it contacts lifts its tombstone for it.
                    pool.clear(o);
                    model.clear(o);
                    let me = NodeId(o as u32);
                    for peer in 0..owners {
                        if g.weighted_bool(0.5) {
                            tk_assert_eq!(
                                pool.remove(peer, me),
                                model.remove(peer, me.0).is_some(),
                                "rejoin contact at {peer}"
                            );
                        }
                    }
                }
                _ => {
                    owners += 1;
                    pool.grow_owners(owners);
                    model.grow_owners(owners);
                }
            }
            for n in 0..nodes as u32 {
                let node = NodeId(n);
                let mut holders = 0;
                for o in 0..owners {
                    let held = model.contains(o, n);
                    tk_assert_eq!(pool.contains(o, node), held, "owner {o} node {n}");
                    holders += held as u32;
                }
                tk_assert_eq!(pool.holders(node), holders, "holders of node {n}");
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Churn edge cases on the flat layout
// ---------------------------------------------------------------------

/// Delivers all outstanding sends synchronously until quiescence.
fn pump(net: &mut ChordNet, out: &mut Outbox) {
    while !out.sends.is_empty() {
        let sends = std::mem::take(&mut out.sends);
        for s in sends {
            net.handle(s.to, s.from, s.msg, out);
        }
    }
    out.events.clear();
}

fn converge(net: &mut ChordNet, nodes: &[NodeId], bootstrap: NodeId, rounds: usize) {
    let mut out = Outbox::new();
    for _ in 0..rounds {
        for &n in nodes {
            if !net.state(n).map(|s| s.is_joined()).unwrap_or(true) {
                net.retry_join(n, bootstrap, &mut out);
            }
            net.tick_stabilize(n, &mut out);
            net.tick_fix_fingers(n, &mut out);
        }
        pump(net, &mut out);
    }
}

/// Walks greedy routing from `start`; returns the delivering node.
fn route(net: &ChordNet, start: NodeId, key: ChordId) -> Option<NodeId> {
    let mut at = start;
    let mut hops = 0;
    loop {
        match net.route_next(at, key)? {
            RouteDecision::Deliver => return Some(at),
            RouteDecision::DeliverAt(p) => return Some(p.node),
            RouteDecision::Forward(p) => {
                at = p.node;
                hops += 1;
                if hops > 128 {
                    return None;
                }
            }
        }
    }
}

fn gen_ring(g: &mut Gen, lo: usize, hi: usize) -> Vec<Peer> {
    let mut ids = BTreeSet::new();
    let want = g.usize_in(lo, hi);
    while ids.len() < want {
        ids.insert(g.any_u64());
    }
    ids.iter()
        .enumerate()
        .map(|(i, &id)| Peer::new(ChordId(id), NodeId(i as u32)))
        .collect()
}

/// Mass simultaneous departure: more than half of one node's successor
/// list (its "clients" in coordinator terms) vanishes in the same
/// instant. The survivor's pooled books must flush every corpse and
/// routing must reconverge to the survivor oracle.
#[test]
fn mass_departure_flushes_pooled_books() {
    check("mass_departure_flushes_pooled_books", 32, |g| {
        let peers = gen_ring(g, 10, 24);
        let mut net = ChordNet::build_static(&peers, ChordConfig::default());
        let observer = peers[g.usize_in(0, peers.len())];
        // Kill >50% of the observer's successor list at once.
        let succs: Vec<NodeId> = net
            .state(observer.node)
            .unwrap()
            .successor_list()
            .iter()
            .map(|p| p.node)
            .collect();
        let kill: Vec<NodeId> = succs.iter().copied().take(succs.len() / 2 + 1).collect();
        tk_assert!(kill.len() * 2 > succs.len(), "must kill a majority");
        for &k in &kill {
            net.fail(k);
        }
        let alive: Vec<Peer> = peers
            .iter()
            .copied()
            .filter(|p| !kill.contains(&p.node))
            .collect();
        let alive_nodes: Vec<NodeId> = alive.iter().map(|p| p.node).collect();
        converge(&mut net, &alive_nodes, alive_nodes[0], 16);
        // Every corpse is gone from the observer's pooled successor list.
        let st = net.state(observer.node).unwrap();
        for p in st.successor_list() {
            tk_assert!(!kill.contains(&p.node), "corpse {p:?} still listed");
        }
        for p in st.fingers().distinct_peers() {
            tk_assert!(!kill.contains(&p.node), "corpse {p:?} still a finger");
        }
        // Routing reconverged to the survivor oracle.
        let oracle = OracleRing::from_members(alive.iter().copied());
        let key = ChordId(g.any_u64());
        let want = oracle.owner(key).unwrap().node;
        let got = route(&net, observer.node, key);
        tk_assert_eq!(got, Some(want), "key {key:?}");
        Ok(())
    });
}

/// Departure mid-join ("mid-promotion" in DCO terms: a client invited
/// into the ring dies between starting and completing its Chord join).
/// The half-joined tenant's books must not wedge the ring, and the slot
/// must be cleanly reusable by the next tenancy.
#[test]
fn departure_mid_join_leaves_no_stale_books() {
    check("departure_mid_join_leaves_no_stale_books", 32, |g| {
        let peers = gen_ring(g, 4, 12);
        let mut net = ChordNet::new(peers.len() + 1, ChordConfig::default());
        let mut out = Outbox::new();
        net.bootstrap(peers[0]);
        let mut members = vec![peers[0].node];
        for &p in &peers[1..] {
            net.join(p, peers[0].node, &mut out);
            pump(&mut net, &mut out);
            members.push(p.node);
        }
        converge(&mut net, &members, peers[0].node, 6);
        // The "promoted client" starts its join but dies before any reply
        // is delivered — its FindSucc is in flight when it fails.
        let joiner = Peer::new(ChordId(g.any_u64()), NodeId(peers.len() as u32));
        net.join(joiner, peers[0].node, &mut out);
        net.fail(joiner.node);
        pump(&mut net, &mut out); // answers arrive at a dead slot: dropped
        tk_assert!(net.state(joiner.node).is_none(), "tenancy ended");
        converge(&mut net, &members, peers[0].node, 8);
        // Ring is intact and the slot is reusable: a second tenancy under
        // the same NodeId joins normally.
        let rejoin = Peer::new(ChordId(g.any_u64()), joiner.node);
        net.join(rejoin, peers[0].node, &mut out);
        pump(&mut net, &mut out);
        let mut all = members.clone();
        all.push(rejoin.node);
        converge(&mut net, &all, peers[0].node, 10);
        tk_assert!(
            net.state(rejoin.node)
                .map(|s| s.is_joined())
                .unwrap_or(false),
            "second tenancy failed to join"
        );
        // The reused slot's books describe the *new* identity: its
        // successor matches the oracle over members ∪ {rejoin}.
        let mut final_peers: Vec<Peer> = peers.clone();
        final_peers.push(rejoin);
        let oracle = OracleRing::from_members(final_peers.iter().copied());
        tk_assert_eq!(
            net.state(rejoin.node).unwrap().successor().map(|q| q.node),
            oracle.successor(rejoin.id).map(|q| q.node),
            "rejoined successor"
        );
        Ok(())
    });
}

/// Rejoin colliding with a stale tenancy: a node fails abruptly, peers
/// accumulate tombstones and pending-probe entries for it, and then the
/// same address rejoins (fresh ring ID) while those entries are still
/// live. Direct contact must lift the suspicion and the rejoined node
/// must be routable again — the stale pending state from the previous
/// life must not ban the new one.
#[test]
fn rejoin_collides_with_stale_pending_entries() {
    check("rejoin_collides_with_stale_pending_entries", 32, |g| {
        let peers = gen_ring(g, 6, 14);
        let mut net = ChordNet::build_static(&peers, ChordConfig::default());
        let all: Vec<NodeId> = peers.iter().map(|p| p.node).collect();
        let victim = peers[g.usize_in(0, peers.len())];
        net.fail(victim.node);
        let survivors: Vec<NodeId> = all.iter().copied().filter(|&n| n != victim.node).collect();
        // Enough rounds that probes to the corpse go unanswered and at
        // least one peer declares it dead (suspicion threshold is 3).
        converge(&mut net, &survivors, survivors[0], 6);
        let suspected_by_someone = survivors.iter().any(|&n| {
            net.state(n)
                .map(|s| s.suspects(victim.node))
                .unwrap_or(false)
        });
        tk_assert!(suspected_by_someone, "no peer ever tombstoned the corpse");
        // Rejoin under the same address with a fresh ring ID while the
        // tombstones and probe-miss counters are still warm.
        let reborn = Peer::new(ChordId(hash_node(victim.node).0 ^ g.any_u64()), victim.node);
        let mut out = Outbox::new();
        net.join(reborn, survivors[0], &mut out);
        pump(&mut net, &mut out);
        let mut members = survivors.clone();
        members.push(reborn.node);
        // Peers that never hear from the reborn node directly hold a
        // tombstone until SUSPECT_TTL_TICKS (30) rounds after the *last*
        // death-gossip receipt — and the gossip wave itself can span
        // GOSSIP_HOPS generations of 10-tick recent-dead retention. The
        // documented rejoin-collision behaviour is that the address stays
        // banned at those peers until expiry, so convergence must be
        // driven well past it before the ring fully re-adopts the slot.
        converge(&mut net, &members, survivors[0], 90);
        tk_assert!(
            net.state(reborn.node)
                .map(|s| s.is_joined())
                .unwrap_or(false),
            "rejoin never completed"
        );
        // Direct contact lifted every suspicion that mattered: the node
        // is routable — its own key resolves to itself.
        let mut final_peers: Vec<Peer> = peers
            .iter()
            .copied()
            .filter(|p| p.node != victim.node)
            .collect();
        final_peers.push(reborn);
        let oracle = OracleRing::from_members(final_peers.iter().copied());
        let want = oracle.owner(reborn.id).unwrap().node;
        tk_assert_eq!(route(&net, survivors[0], reborn.id), Some(want));
        Ok(())
    });
}
