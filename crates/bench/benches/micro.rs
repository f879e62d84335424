//! Microbenchmarks for the hot paths of the substrates: the event
//! calendar, Chord routing and ring repair, consistent hashing,
//! index-table selection and the buffer-map bit operations. Plain timing
//! mains (no external bench framework); run with
//! `cargo bench -p dco-bench --bench micro`.

use std::hint::black_box;

use dco_bench::timing::{bench, header};
use dco_core::buffer::BufferMap;
use dco_core::chunk::ChunkSeq;
use dco_core::index::{ChunkIndex, IndexTable, SelectPolicy};
use dco_dht::chord::{ChordMsg, ChordNet, Outbox, RouteDecision, RouteStep};
use dco_dht::hash::{hash_name, hash_node};
use dco_dht::id::{ChordId, Peer};
use dco_metrics::{RetainedObserver, StreamObserver};
use dco_sim::engine::runtime_key;
use dco_sim::net::Kbps;
use dco_sim::node::NodeId;
use dco_sim::queue::EventQueue;
use dco_sim::rng::SimRng;
use dco_sim::time::{SimDuration, SimTime};

fn bench_event_queue() {
    bench("event_queue/push_pop_1k", 200, || {
        let mut q = EventQueue::with_capacity(1024);
        for i in 0..1024u64 {
            q.push(SimTime::from_micros(i * 37 % 4096), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        sum
    });
    // The figures workload's bucket shape: one bucket, a few instants, the
    // events pushed in order, 104-byte entries (an 80-byte payload behind
    // the time and the 128-bit key). One queue is kept across iterations,
    // each filling the next bucket, so its buffers are warm as in a run.
    const BUCKET_US: u64 = 1 << 13;
    let mut q: EventQueue<[u64; 10]> = EventQueue::new();
    let mut bucket = 0u64;
    bench("event_queue/burst_drain_4k", 200, || {
        bucket += 1;
        let base = bucket * BUCKET_US;
        for i in 0..4096u64 {
            q.push(SimTime::from_micros(base + i / 1024 * 50), [i; 10]);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v[0]);
        }
        sum
    });
    // A canonical static N=1k bucket, as one process of a sharded run
    // pushes it: one instant, 2 700 entries, one per dispatch of 1 000
    // interleaved pushers, each pusher's dispatch counter ascending. The
    // dispatches ran at 15 instants, in time order: two of timers armed
    // one to two seconds earlier, the rest of messages sent 50-100 ms
    // earlier.
    let mut q: EventQueue<[u64; 10]> = EventQueue::new();
    let mut dispatches = vec![0u64; 1000];
    let mut bucket = 1000u64;
    bench("event_queue/canonical_bucket_2700", 200, || {
        bucket += 1;
        let at = bucket * BUCKET_US + 1000;
        for d in 0..2700u64 {
            let push_t = match d / 180 {
                0 => at - 2_000_000,
                1 => at - 1_000_000,
                g => at - 100_000 + g * 3_500,
            };
            let pusher = (d * 7919 % 1000) as u32;
            let pseq = &mut dispatches[pusher as usize];
            let key = runtime_key(push_t, pusher, *pseq, 0);
            *pseq += 1;
            q.push_keyed(SimTime::from_micros(at), key, [d; 10]);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v[0]);
        }
        sum
    });
}

fn bench_hashing() {
    bench("hash/chunk_name", 1000, || {
        hash_name(black_box("CNN1230773442"))
    });
    bench("hash/node_id", 1000, || {
        hash_node(black_box(NodeId(271828)))
    });
}

fn bench_chord_routing() {
    let peers: Vec<Peer> = (0..512)
        .map(|i| Peer::new(hash_node(NodeId(i)), NodeId(i)))
        .collect();
    let net = ChordNet::build_static(&peers, 8);
    let mut rng = SimRng::seed_from_u64(1);
    bench("chord/route_walk_512", 1000, || {
        let key = ChordId(rng.gen());
        let mut at = NodeId(rng.gen_range(0..512u32));
        let mut hops = 0u32;
        loop {
            match net.route_next(at, key).unwrap() {
                RouteDecision::Deliver => break,
                RouteDecision::DeliverAt(_) => break,
                RouteDecision::Forward(p) => {
                    at = p.node;
                    hops += 1;
                }
            }
        }
        hops
    });
    // The memoized variant the DCO hop-by-hop hot path uses. Keys repeat
    // (as stream chunk names do), so after warm-up each hop is one probe
    // of the per-node decision row.
    let mut net = net;
    let keys: Vec<ChordId> = {
        let mut rng = SimRng::seed_from_u64(2);
        (0..100).map(|_| ChordId(rng.gen())).collect()
    };
    // Warm every (node, key) decision so the bench measures steady state,
    // which is what the simulation hot loop sees after the first pass of
    // each chunk through the ring.
    for &key in &keys {
        for node in 0..512u32 {
            net.route_next_cached(NodeId(node), key);
        }
    }
    let mut rng = SimRng::seed_from_u64(3);
    bench("chord/route_walk_512_cached", 1000, || {
        let key = keys[rng.gen_range(0..keys.len())];
        let mut at = NodeId(rng.gen_range(0..512u32));
        let mut hops = 0u32;
        loop {
            match net.route_next_cached(at, key).unwrap() {
                RouteStep::Deliver => break,
                RouteStep::DeliverAt(_) => break,
                RouteStep::Forward(n) => {
                    at = n;
                    hops += 1;
                }
            }
        }
        hops
    });
}

/// Ring repair on a converged 512-node ring, where the books are already
/// exact, so every iteration does the same work:
/// - one stabilize reply's merge: node `a` takes its successor's 32-entry
///   successor list into its successor list and finger table;
/// - single-peer learns: `a` hears a `Notify` from a random member, which
///   probes its tombstones and offers the member to its successor list and
///   its 64 fingers (a few runs of one peer each).
fn bench_ring_repair() {
    let mut ring: Vec<Peer> = (0..512)
        .map(|i| Peer::new(hash_node(NodeId(i)), NodeId(i)))
        .collect();
    let mut net = ChordNet::build_static(&ring, 32);
    ring.sort_by_key(|p| p.id);
    let (a, succ) = (ring[0], ring[1]);
    let list: Vec<Peer> = ring[2..34].to_vec();
    let mut out = Outbox::new();
    bench("chord/pred_reply_merge_32", 2000, || {
        let reply = ChordMsg::PredReply {
            pred: Some(a),
            succs: list.clone(),
            dead: Vec::new(),
        };
        net.handle(a.node, succ.node, reply, &mut out);
        let sent = out.sends.len();
        out.sends.clear();
        sent
    });
    let mut rng = SimRng::seed_from_u64(4);
    bench("chord/learn_converged", 2000, || {
        let peer = ring[rng.gen_range(1..ring.len())];
        net.handle(a.node, peer.node, ChordMsg::Notify { peer }, &mut out);
        let produced = out.events.len();
        out.events.clear();
        produced
    });
}

fn bench_index_table() {
    let mut table = IndexTable::new();
    let key = ChordId(42);
    for h in 0..64u32 {
        table.register(
            key,
            ChunkIndex {
                seq: ChunkSeq(1),
                holder: NodeId(h),
                avail: Kbps(100 + h * 20),
                held_count: h,
            },
        );
    }
    let mut rng = SimRng::seed_from_u64(2);
    bench("index/select_64_providers", 1000, || {
        table.select(
            key,
            Kbps(300),
            SelectPolicy::SufficientBandwidth,
            &[NodeId(3)],
            &mut rng,
        )
    });
}

fn bench_buffer_map() {
    bench("bufmap/insert_scan_200", 500, || {
        let mut m = BufferMap::new(200);
        for s in (0..200u32).step_by(3) {
            m.insert(ChunkSeq(s));
        }
        m.missing_in(ChunkSeq(0), ChunkSeq(199)).len()
    });
    let mut a = BufferMap::new(200);
    let mut bmap = BufferMap::new(200);
    for s in 0..150u32 {
        a.insert(ChunkSeq(s));
    }
    for s in 0..100u32 {
        bmap.insert(ChunkSeq(s * 2 % 200));
    }
    bench("bufmap/gap_computation", 500, || {
        a.held_that_other_misses(&bmap, ChunkSeq(0), ChunkSeq(199))
            .len()
    });
}

/// One reception script: 1k nodes × 100 chunks, each pair hit once plus a
/// 10% duplicate tail — the observer record path the simulation drives
/// once per chunk delivery.
fn observer_script() -> Vec<(u32, NodeId, SimTime)> {
    const NODES: u32 = 1_000;
    const CHUNKS: u32 = 100;
    let mut rng = SimRng::seed_from_u64(7);
    let mut script = Vec::with_capacity((NODES * CHUNKS + NODES * CHUNKS / 10) as usize);
    for seq in 0..CHUNKS {
        for node in 0..NODES {
            let t = SimTime::from_micros(u64::from(seq) * 1_000_000 + rng.gen_range(0..900_000u64));
            script.push((seq, NodeId(node), t));
        }
    }
    for _ in 0..(NODES * CHUNKS / 10) {
        let seq = rng.gen_range(0..CHUNKS);
        let node = rng.gen_range(0..NODES);
        let t = SimTime::from_micros(u64::from(seq) * 1_000_000 + rng.gen_range(0..900_000u64));
        script.push((seq, NodeId(node), t));
    }
    script
}

fn bench_observer_record() {
    let script = observer_script();
    bench("observer/flat_record_110k", 20, || {
        let mut obs = StreamObserver::new(1_000, 100);
        for seq in 0..100u32 {
            obs.record_generated(seq, SimTime::from_micros(u64::from(seq) * 1_000_000));
        }
        for &(seq, node, t) in &script {
            obs.record_received(seq, node, t);
        }
        obs.duplicate_receptions()
    });
    bench("observer/retained_record_110k", 20, || {
        let mut obs = RetainedObserver::new(1_000, 100);
        for seq in 0..100u32 {
            obs.record_generated(seq, SimTime::from_micros(u64::from(seq) * 1_000_000));
        }
        for &(seq, node, t) in &script {
            obs.record_received(seq, node, t);
        }
        obs.rereceptions()
    });
    // Query side: the figure fold the extractor runs once per run.
    let mut obs = StreamObserver::new(1_000, 100);
    for seq in 0..100u32 {
        obs.record_generated(seq, SimTime::from_micros(u64::from(seq) * 1_000_000));
        for node in 1..1_000u32 {
            obs.mark_expected(seq, NodeId(node));
        }
    }
    for &(seq, node, t) in &script {
        obs.record_received(seq, node, t);
    }
    let offsets = [SimDuration::from_secs(2), SimDuration::from_secs(5)];
    bench("observer/fold_figures_200s", 50, || {
        black_box(obs.fold_figures(SimTime::from_secs(200), &offsets)).expected_pairs
    });
}

fn main() {
    header("micro");
    bench_event_queue();
    bench_hashing();
    bench_chord_routing();
    bench_ring_repair();
    bench_index_table();
    bench_buffer_map();
    bench_observer_record();
}
