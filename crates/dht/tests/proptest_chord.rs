//! Property tests for the Chord DHT.
//!
//! The message-driven state machine is checked against the omniscient
//! [`OracleRing`] under arbitrary ID populations, key sets and churn
//! schedules. Driven by the in-tree `dco-testkit` (deterministic seeds,
//! `DCO_TESTKIT_REPLAY` to reproduce a failure).

use std::collections::BTreeSet;

use dco_dht::chord::{ChordNet, Outbox, RouteDecision};
use dco_dht::id::{ChordId, Peer};
use dco_dht::ring::OracleRing;
use dco_dht::store::KeyStore;
use dco_sim::node::NodeId;
use dco_testkit::{check, tk_assert, tk_assert_eq, Gen};

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
fn route(net: &ChordNet, start: NodeId, key: ChordId) -> Option<(NodeId, usize)> {
    let mut at = start;
    let mut hops = 0;
    loop {
        match net.route_next(at, key)? {
            RouteDecision::Deliver => return Some((at, hops)),
            RouteDecision::DeliverAt(p) => return Some((p.node, hops + 1)),
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

/// `lo..hi` distinct raw u64 ids, as ring peers.
fn gen_peers(g: &mut Gen, lo: usize, hi: usize) -> Vec<Peer> {
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

/// Interval-membership algebra: for distinct a, b, every x on the ring
/// is in exactly one of (a, b] and (b, a].
#[test]
fn half_open_intervals_partition_the_ring() {
    check("half_open_intervals_partition_the_ring", 256, |g| {
        let (a, b, x) = (g.any_u64(), g.any_u64(), g.any_u64());
        if a == b {
            return Ok(());
        }
        let (a, b, x) = (ChordId(a), ChordId(b), ChordId(x));
        let in_ab = x.in_open_closed(a, b);
        let in_ba = x.in_open_closed(b, a);
        tk_assert!(
            in_ab ^ in_ba,
            "x must be in exactly one half: {in_ab} {in_ba}"
        );
        Ok(())
    });
}

/// distance(a, b) + distance(b, a) wraps to 0 for a != b.
#[test]
fn distances_are_complementary() {
    check("distances_are_complementary", 256, |g| {
        let (a, b) = (ChordId(g.any_u64()), ChordId(g.any_u64()));
        let sum = a.distance_to(b).wrapping_add(b.distance_to(a));
        tk_assert_eq!(sum, 0u64);
        Ok(())
    });
}

/// On a statically built ring, greedy routing from any member delivers
/// every key to the oracle owner within O(log n) hops.
#[test]
fn static_ring_routes_every_key_to_oracle_owner() {
    check("static_ring_routes_every_key_to_oracle_owner", 64, |g| {
        let peers = gen_peers(g, 2, 40);
        let keys: Vec<u64> = g.vec_of(1, 20, |g| g.any_u64());
        let net = ChordNet::build_static(&peers, 8);
        let oracle = OracleRing::from_members(peers.iter().copied());
        let start = peers[g.usize_in(0, peers.len())].node;
        let n = peers.len() as f64;
        let hop_budget = (2.0 * n.log2().ceil() + 4.0) as usize;
        for k in keys {
            let key = ChordId(k);
            let want = oracle.owner(key).unwrap().node;
            let (got, hops) = route(&net, start, key).expect("no loop");
            tk_assert_eq!(got, want, "key {key:?}");
            tk_assert!(hops <= hop_budget, "{hops} hops > budget {hop_budget}");
        }
        Ok(())
    });
}

/// Sequential joins through a single bootstrap converge to the oracle
/// ring (successor and predecessor pointers all correct).
#[test]
fn dynamic_joins_converge_to_oracle() {
    check("dynamic_joins_converge_to_oracle", 48, |g| {
        let peers = gen_peers(g, 2, 16);
        let mut net = ChordNet::new(peers.len(), 8);
        let mut out = Outbox::new();
        net.bootstrap(peers[0]);
        let mut members = vec![peers[0].node];
        for &p in &peers[1..] {
            net.join(p, peers[0].node, &mut out);
            pump(&mut net, &mut out);
            members.push(p.node);
            converge(&mut net, &members, peers[0].node, 2);
        }
        converge(&mut net, &members, peers[0].node, 6);
        let oracle = OracleRing::from_members(peers.iter().copied());
        for &p in &peers {
            let st = net.state(p.node).unwrap();
            tk_assert!(st.is_joined());
            tk_assert_eq!(
                st.successor().map(|q| q.node),
                oracle.successor(p.id).map(|q| q.node),
                "successor of {p:?}"
            );
            tk_assert_eq!(
                st.predecessor().map(|q| q.node),
                oracle.predecessor(p.id).map(|q| q.node),
                "predecessor of {p:?}"
            );
        }
        Ok(())
    });
}

/// After arbitrary failures (up to a third of the ring), stabilization
/// repairs routing: every key reaches the oracle owner of the survivors.
#[test]
fn failures_heal_and_routing_stays_correct() {
    check("failures_heal_and_routing_stays_correct", 48, |g| {
        let peers = gen_peers(g, 6, 24);
        let kill_start = g.usize_in(0, peers.len());
        let keys: Vec<u64> = g.vec_of(1, 12, |g| g.any_u64());
        let mut net = ChordNet::build_static(&peers, 8);
        let kill_count = peers.len() / 3;
        let killed: Vec<NodeId> = (0..kill_count)
            .map(|i| peers[(kill_start + 2 * i) % peers.len()].node)
            .collect();
        for &k in &killed {
            net.fail(k);
        }
        let alive: Vec<Peer> = peers
            .iter()
            .copied()
            .filter(|p| !killed.contains(&p.node))
            .collect();
        let alive_nodes: Vec<NodeId> = alive.iter().map(|p| p.node).collect();
        converge(&mut net, &alive_nodes, alive_nodes[0], 12);
        let oracle = OracleRing::from_members(alive.iter().copied());
        for k in keys {
            let key = ChordId(k);
            let want = oracle.owner(key).unwrap().node;
            let (got, _) = route(&net, alive_nodes[0], key).expect("routable");
            tk_assert_eq!(got, want, "key {key:?}");
        }
        Ok(())
    });
}

/// KeyStore range extraction is a partition: extracting (a, b] and then
/// (b, a] empties the store, with no key in both parts.
#[test]
fn keystore_range_extraction_partitions() {
    check("keystore_range_extraction_partitions", 128, |g| {
        let keys: BTreeSet<u64> = g.vec_of(0, 40, |g| g.any_u64()).into_iter().collect();
        let (a, b) = (g.any_u64(), g.any_u64());
        if a == b {
            return Ok(());
        }
        let mut store = KeyStore::new();
        for &k in &keys {
            store.insert(ChordId(k), k);
        }
        let part1 = store.extract_range(ChordId(a), ChordId(b));
        let part2 = store.extract_range(ChordId(b), ChordId(a));
        tk_assert!(store.is_empty());
        tk_assert_eq!(part1.len() + part2.len(), keys.len());
        for (k, _) in &part1 {
            tk_assert!(!part2.iter().any(|(k2, _)| k2 == k));
        }
        Ok(())
    });
}

/// The oracle's owner is consistent with ownership arcs: owner(key) is
/// the unique member whose (pred, me] arc contains the key.
#[test]
fn oracle_owner_matches_arc_membership() {
    check("oracle_owner_matches_arc_membership", 128, |g| {
        let peers = gen_peers(g, 1, 32);
        let key = ChordId(g.any_u64());
        let oracle = OracleRing::from_members(peers.iter().copied());
        let owner = oracle.owner(key).unwrap();
        if peers.len() == 1 {
            tk_assert_eq!(owner.node, peers[0].node);
        } else {
            let pred = oracle.predecessor(owner.id).unwrap();
            tk_assert!(
                key.in_open_closed(pred.id, owner.id),
                "key {key:?} not in ({:?}, {:?}]",
                pred.id,
                owner.id
            );
        }
        Ok(())
    });
}
