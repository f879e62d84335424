//! The sharded figures runner: one DCO simulation split across `K`
//! workers (threads in tests, processes under `dco-perf --shards`; the
//! perfbench `sharded-dco` workload builds its own workers and folds their
//! results with [`merge_relay`]).
//!
//! Each worker builds the *same* workload — `add_nodes`, then
//! `Simulator::enable_sharding` with the contiguous ring-arc map, then
//! `schedule_membership` — and drives its arc through the epoch protocol
//! in [`dco_shard::epoch`]. The worker's `RESULT` frame is a wire-encoded
//! [`WorkerSummary`]; [`orchestrate`] relays the run, decodes the
//! summaries and folds them:
//!
//! * **root digest** — `wrapping_add` of the per-shard set digests (each
//!   runtime dispatch is owned by exactly one shard, and the set digest is
//!   an order-independent sum, so the fold is shard-count invariant);
//! * **counters** — disjoint per-shard sums ([`merge_counters`]);
//! * **observer** — sparse slab union ([`dco_metrics`]'s `absorb_shard`),
//!   after which `fold_figures` is bit-identical to one process.
//!
//! [`run_single_canonical`] is the `K = 1` reference: the same key-ordered
//! sharded engine in one process, whose set digest defines the canonical
//! value every `K` must reproduce. [`check_matches`] is the one comparison
//! of a folded run against it, used by the tests and by `dco-perf`.

use std::io;

use dco_core::proto::DcoProtocol;
use dco_dht::hash_node;
use dco_metrics::observer::FigureMetrics;
use dco_metrics::{ObserverShard, StreamObserver};
use dco_shard::epoch::{run_orchestrator, run_worker, RelayReport};
use dco_shard::link::FrameLink;
use dco_shard::partition::contiguous_arcs;
use dco_sim::counters::CounterSnapshot;
use dco_sim::engine::Simulator;
use dco_sim::net::NetConfig;
use dco_sim::node::NodeId;
use dco_sim::time::SimDuration;
use dco_sim::wire::{decode_exact, encode_to_vec, WireCodec, WireError, WireReader};

use crate::runner::RunParams;

/// `map[node] = shard` for the figures workload: contiguous arcs of the
/// Chord ring (nodes sorted by `hash_node`), near-equal population.
pub fn ring_partition(n_nodes: u32, k: u8) -> Vec<u8> {
    contiguous_arcs(n_nodes as usize, k, |id| hash_node(NodeId(id)).0)
}

/// One worker's run summary — the payload of its `RESULT` frame.
#[derive(Clone, Debug)]
pub struct WorkerSummary {
    /// This worker's shard index.
    pub shard: u8,
    /// Runtime events dispatched for owned nodes (excludes the shadow
    /// membership replays).
    pub owned_events: u64,
    /// All events this worker's engine dispatched, shadow flips included.
    pub events_processed: u64,
    /// Cross-shard messages this worker sent.
    pub remote_msgs_sent: u64,
    /// Order-independent digest of this worker's owned dispatches.
    pub set_digest: u64,
    /// Worker wall clock, membership install to horizon. This and the
    /// three allocation fields are host costs: perfbench's workers measure
    /// them, [`run_shard_worker`] leaves them zero.
    pub wall_ms: f64,
    /// Allocations during the run.
    pub allocs: u64,
    /// Bytes requested during the run (cumulative turnover).
    pub alloc_bytes: u64,
    /// Peak bytes simultaneously live during the run.
    pub peak_live_bytes: u64,
    /// This worker's message counters (disjoint across workers: every
    /// send is recorded on the dispatching shard).
    pub counters: CounterSnapshot,
    /// This worker's observer slots, sparse.
    pub obs: ObserverShard,
}

impl WireCodec for WorkerSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shard.encode(out);
        self.owned_events.encode(out);
        self.events_processed.encode(out);
        self.remote_msgs_sent.encode(out);
        self.set_digest.encode(out);
        self.wall_ms.encode(out);
        self.allocs.encode(out);
        self.alloc_bytes.encode(out);
        self.peak_live_bytes.encode(out);
        self.counters.encode(out);
        self.obs.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WorkerSummary {
            shard: r.get()?,
            owned_events: r.get()?,
            events_processed: r.get()?,
            remote_msgs_sent: r.get()?,
            set_digest: r.get()?,
            wall_ms: r.get()?,
            allocs: r.get()?,
            alloc_bytes: r.get()?,
            peak_live_bytes: r.get()?,
            counters: r.get()?,
            obs: r.get()?,
        })
    }
}

/// Builds one shard's simulator: full node table, sharding enabled on the
/// ring-arc map, full membership script installed. Returns the simulator
/// and the lookahead pinned by the network's constant latency.
fn build_shard_sim(params: &RunParams, k: u8, me: u8) -> (Simulator<DcoProtocol>, SimDuration) {
    let scenario = params.scenario();
    let mut sim = Simulator::with_capacity(
        DcoProtocol::new(params.dco_config()),
        NetConfig::paper_model(),
        params.seed,
        params.n_nodes as usize,
    );
    scenario.add_nodes(&mut sim);
    let lookahead = sim.enable_sharding(ring_partition(params.n_nodes, k), me, k);
    scenario.schedule_membership(&mut sim);
    (sim, lookahead)
}

/// Runs shard `me` of `k` to completion over `link`, replying with a
/// wire-encoded [`WorkerSummary`] as the `RESULT` frame, its host-cost
/// fields zero. This is the body of the hidden `--shard-worker` mode of
/// `dco-perf` and of the thread-based workers of this module's tests.
pub fn run_shard_worker<L: FrameLink>(
    params: &RunParams,
    k: u8,
    me: u8,
    link: &mut L,
) -> io::Result<()> {
    let (mut sim, lookahead) = build_shard_sim(params, k, me);
    run_worker(&mut sim, params.horizon, lookahead, link, |sim| {
        let stats = sim.shard_stats().expect("sharding enabled");
        encode_to_vec(&WorkerSummary {
            shard: me,
            owned_events: stats.owned_events,
            events_processed: sim.stats().events_processed,
            remote_msgs_sent: stats.remote_msgs_sent,
            set_digest: stats.set_digest,
            wall_ms: 0.0,
            allocs: 0,
            alloc_bytes: 0,
            peak_live_bytes: 0,
            counters: sim.counters().snapshot(),
            obs: sim.protocol().obs.export_shard(),
        })
    })
}

/// The folded outcome of one sharded run.
#[derive(Debug)]
pub struct MergedRun {
    /// Per-shard summaries, indexed by shard.
    pub workers: Vec<WorkerSummary>,
    /// Epoch barriers crossed.
    pub epochs: u64,
    /// Cross-shard batch frames the orchestrator forwarded.
    pub forwarded_batches: u64,
    /// `wrapping_add` of the per-shard set digests — the value that must
    /// equal the `K = 1` canonical digest.
    pub root_digest: u64,
    /// Sum of owned runtime dispatches over shards.
    pub owned_events: u64,
    /// Sum of cross-shard messages sent.
    pub remote_msgs: u64,
    /// Counters folded over shards.
    pub counters: CounterSnapshot,
    /// Figure statistics folded from the merged observer.
    pub figures: FigureMetrics,
}

/// Folds per-shard counter snapshots: sums everywhere, the per-tag map
/// merged by name and the per-second series element-wise. Every record
/// happens on exactly one shard, so the fold equals the one-process
/// snapshot.
pub fn merge_counters<'a>(parts: impl IntoIterator<Item = &'a CounterSnapshot>) -> CounterSnapshot {
    let mut merged = CounterSnapshot {
        control_total: 0,
        data_total: 0,
        by_tag: Vec::new(),
        control_per_sec: Vec::new(),
        dropped_dead: 0,
        dropped_fault: 0,
    };
    let mut tags: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for p in parts {
        merged.control_total += p.control_total;
        merged.data_total += p.data_total;
        merged.dropped_dead += p.dropped_dead;
        merged.dropped_fault += p.dropped_fault;
        for (tag, n) in &p.by_tag {
            *tags.entry(tag.clone()).or_default() += n;
        }
        if merged.control_per_sec.len() < p.control_per_sec.len() {
            merged.control_per_sec.resize(p.control_per_sec.len(), 0);
        }
        for (dst, src) in merged.control_per_sec.iter_mut().zip(&p.control_per_sec) {
            *dst += src;
        }
    }
    merged.by_tag = tags.into_iter().collect();
    merged
}

fn fold_offsets(params: &RunParams) -> [SimDuration; 2] {
    [SimDuration::from_secs(2), params.fill_offset]
}

/// Decodes and folds the workers' `RESULT` frames of a finished relay.
pub fn merge_relay(params: &RunParams, report: &RelayReport) -> io::Result<MergedRun> {
    let mut workers = Vec::with_capacity(report.results.len());
    for (i, bytes) in report.results.iter().enumerate() {
        let s: WorkerSummary = decode_exact(bytes).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard {i}: undecodable summary: {e}"),
            )
        })?;
        if usize::from(s.shard) != i {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("result {i} came from shard {}", s.shard),
            ));
        }
        workers.push(s);
    }
    let mut obs = StreamObserver::new(params.n_nodes as usize, 0);
    for w in &workers {
        obs.absorb_shard(&w.obs);
    }
    let figures = obs.fold_figures(params.horizon, &fold_offsets(params));
    Ok(MergedRun {
        epochs: report.epochs,
        forwarded_batches: report.forwarded_batches,
        root_digest: workers
            .iter()
            .fold(0u64, |a, w| a.wrapping_add(w.set_digest)),
        owned_events: workers.iter().map(|w| w.owned_events).sum(),
        remote_msgs: workers.iter().map(|w| w.remote_msgs_sent).sum(),
        counters: merge_counters(workers.iter().map(|w| &w.counters)),
        figures,
        workers,
    })
}

/// Relays one sharded run over `links` (one per shard, in shard order)
/// and folds the results.
pub fn orchestrate<L: FrameLink>(params: &RunParams, links: &mut [L]) -> io::Result<MergedRun> {
    let report = run_orchestrator(links)?;
    merge_relay(params, &report)
}

/// The `K = 1` canonical run: the sharded (key-ordered) engine in one
/// process, no epoch protocol needed — its set digest is the value every
/// `K > 1` run must fold back to.
pub struct SingleRun {
    /// The canonical set digest.
    pub set_digest: u64,
    /// Owned runtime dispatches (everything, at `K = 1`).
    pub owned_events: u64,
    /// Counter snapshot.
    pub counters: CounterSnapshot,
    /// Figure statistics.
    pub figures: FigureMetrics,
}

/// Runs the canonical single-process reference for `params`.
pub fn run_single_canonical(params: &RunParams) -> SingleRun {
    let (mut sim, _lookahead) = build_shard_sim(params, 1, 0);
    sim.run_until(params.horizon);
    let stats = sim.shard_stats().expect("sharding enabled");
    let figures = sim
        .protocol()
        .obs
        .fold_figures(params.horizon, &fold_offsets(params));
    SingleRun {
        set_digest: stats.set_digest,
        owned_events: stats.owned_events,
        counters: sim.counters().snapshot(),
        figures,
    }
}

/// Checks that a folded sharded run reproduces the canonical run: the
/// root digest, the owned event count, the merged counters, the received
/// percentage and mean mesh delay (bit for bit), the per-second received
/// series and the expected pair count. On a mismatch it names the first
/// quantity that differs, by its field name.
pub fn check_matches(single: &SingleRun, merged: &MergedRun) -> Result<(), String> {
    let (s, m) = (&single.figures, &merged.figures);
    let same = [
        ("root_digest", merged.root_digest == single.set_digest),
        ("owned_events", merged.owned_events == single.owned_events),
        ("counters", merged.counters == single.counters),
        (
            "received_pct",
            m.received_pct.to_bits() == s.received_pct.to_bits(),
        ),
        (
            "mean_mesh_delay",
            m.mean_mesh_delay.to_bits() == s.mean_mesh_delay.to_bits(),
        ),
        (
            "received_by_second",
            m.received_by_second == s.received_by_second,
        ),
        ("expected_pairs", m.expected_pairs == s.expected_pairs),
    ];
    match same.iter().find(|(_, ok)| !ok) {
        Some((field, _)) => Err(format!(
            "{field} of the sharded run differs from the canonical run"
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_shard::link::channel_pair;
    use dco_sim::time::SimTime;
    use dco_workload::ChurnConfig;

    /// Runs the whole sharded pipeline with `k` worker *threads* over
    /// in-memory links — the test path: same engine, same epoch protocol,
    /// same merge, no processes.
    fn run_sharded_threads(params: &RunParams, k: u8) -> io::Result<MergedRun> {
        let mut orch_links = Vec::with_capacity(usize::from(k));
        let mut handles = Vec::with_capacity(usize::from(k));
        for me in 0..k {
            let (orch_side, worker_side) = channel_pair();
            orch_links.push(orch_side);
            let params = params.clone();
            handles.push(std::thread::spawn(move || {
                let mut link = worker_side;
                run_shard_worker(&params, k, me, &mut link)
            }));
        }
        let merged = orchestrate(params, &mut orch_links);
        // Dropping the orchestrator halves unblocks any worker still waiting
        // on a dead relay, so the joins below can't hang.
        drop(orch_links);
        let mut worker_err = None;
        for h in handles {
            if let Err(e) = h.join().expect("worker thread panicked") {
                worker_err.get_or_insert(e);
            }
        }
        match (merged, worker_err) {
            (Ok(m), None) => Ok(m),
            (Err(e), _) => Err(e),
            (_, Some(e)) => Err(e),
        }
    }

    fn small_params(churn: bool) -> RunParams {
        RunParams {
            n_nodes: 64,
            n_chunks: 20,
            neighbors: 16,
            churn: churn.then(|| ChurnConfig::paper_fig12(25)),
            horizon: SimTime::from_secs(80),
            tree_degree: None,
            fill_offset: SimDuration::from_secs(5),
            seed: 42,
        }
    }

    fn assert_matches_single(params: &RunParams, single: &SingleRun, k: u8) {
        let m = run_sharded_threads(params, k).unwrap();
        if let Err(e) = check_matches(single, &m) {
            panic!("K={k}: {e}");
        }
        if k > 1 {
            assert!(m.forwarded_batches > 0, "K={k}: no cross-shard traffic?");
            assert!(m.remote_msgs > 0);
        }
        assert!(m.epochs > 0);
    }

    /// The tentpole property at test scale: the root digest and every
    /// folded figure are invariant in the shard count, static workload.
    #[test]
    fn sharded_static_run_is_shard_count_invariant() {
        let params = small_params(false);
        let single = run_single_canonical(&params);
        assert!(single.figures.received_pct > 95.0, "workload sanity");
        for k in [1, 2, 4] {
            assert_matches_single(&params, &single, k);
        }
    }

    /// Same invariance under churn: joins/leaves replay as shadow flips
    /// on non-owner shards, so the alive view stays globally consistent.
    #[test]
    fn sharded_churn_run_is_shard_count_invariant() {
        let params = small_params(true);
        let single = run_single_canonical(&params);
        for k in [1, 2, 4] {
            assert_matches_single(&params, &single, k);
        }
    }

    /// The CI-scale property test (release only — run with
    /// `cargo test --release -- --ignored shard_invariance`): the figures
    /// workload at N = 1k, static and churn, K ∈ {1, 2, 4}.
    #[test]
    #[ignore = "release-scale: figures workload at N=1000"]
    fn shard_invariance_figures_1k() {
        for churn in [false, true] {
            let mut params = RunParams::paper_default(42);
            params.n_nodes = 1_000;
            if churn {
                params.churn = Some(ChurnConfig::paper_fig11());
            }
            let single = run_single_canonical(&params);
            for k in [1, 2, 4] {
                assert_matches_single(&params, &single, k);
            }
        }
    }

    /// N = 10k tier of the same property (nightly).
    #[test]
    #[ignore = "release-scale: figures workload at N=10000"]
    fn shard_invariance_figures_10k() {
        for churn in [false, true] {
            let mut params = RunParams::paper_default(42);
            params.n_nodes = 10_000;
            if churn {
                params.churn = Some(ChurnConfig::paper_fig11());
            }
            let single = run_single_canonical(&params);
            for k in [1, 2, 4] {
                assert_matches_single(&params, &single, k);
            }
        }
    }

    /// The check rejects a difference in each quantity it compares, and
    /// names that quantity.
    #[test]
    fn check_matches_names_each_differing_quantity() {
        let params = small_params(false);
        let single = run_single_canonical(&params);
        let mut m = run_sharded_threads(&params, 2).unwrap();
        assert_eq!(check_matches(&single, &m), Ok(()));
        // Each perturbation flips one bit, so applying it twice restores
        // the run.
        fn flip(x: &mut f64) {
            *x = f64::from_bits(x.to_bits() ^ 1);
        }
        type Perturb = fn(&mut MergedRun);
        let perturbations: [(&str, Perturb); 7] = [
            ("root_digest", |m| m.root_digest ^= 1),
            ("owned_events", |m| m.owned_events ^= 1),
            ("counters", |m| m.counters.control_total ^= 1),
            ("received_pct", |m| flip(&mut m.figures.received_pct)),
            ("mean_mesh_delay", |m| flip(&mut m.figures.mean_mesh_delay)),
            ("received_by_second", |m| {
                m.figures.received_by_second[10] ^= 1
            }),
            ("expected_pairs", |m| m.figures.expected_pairs ^= 1),
        ];
        for (field, perturb) in perturbations {
            perturb(&mut m);
            let err = check_matches(&single, &m).expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
            perturb(&mut m);
        }
        assert_eq!(check_matches(&single, &m), Ok(()));
    }

    #[test]
    fn worker_summary_codec_round_trips() {
        let s = WorkerSummary {
            shard: 3,
            owned_events: 101,
            events_processed: 140,
            remote_msgs_sent: 9,
            set_digest: 0xDEAD_BEEF,
            wall_ms: 12.75,
            allocs: 5,
            alloc_bytes: 4096,
            peak_live_bytes: 1 << 20,
            counters: CounterSnapshot {
                control_total: 7,
                data_total: 2,
                by_tag: vec![("x".to_string(), 7)],
                control_per_sec: vec![3, 4],
                dropped_dead: 0,
                dropped_fault: 0,
            },
            obs: ObserverShard {
                n_nodes: 8,
                n_chunks: 2,
                generated: vec![(0, SimTime::from_secs(1))],
                receptions: vec![(9, SimTime::from_secs(2))],
                expected_rows: 0,
                expected_words: Vec::new(),
                duplicates: 1,
                out_of_order: 0,
            },
        };
        let bytes = encode_to_vec(&s);
        let back: WorkerSummary = decode_exact(&bytes).unwrap();
        assert_eq!(back.set_digest, s.set_digest);
        assert_eq!(back.wall_ms.to_bits(), s.wall_ms.to_bits());
        assert_eq!(back.counters, s.counters);
        assert_eq!(back.obs, s.obs);
    }

    #[test]
    fn merge_counters_sums_disjoint_parts() {
        let a = CounterSnapshot {
            control_total: 5,
            data_total: 1,
            by_tag: vec![("alpha".to_string(), 5)],
            control_per_sec: vec![2, 3],
            dropped_dead: 1,
            dropped_fault: 0,
        };
        let b = CounterSnapshot {
            control_total: 4,
            data_total: 2,
            by_tag: vec![("alpha".to_string(), 1), ("beta".to_string(), 3)],
            control_per_sec: vec![1, 1, 2],
            dropped_dead: 0,
            dropped_fault: 2,
        };
        let m = merge_counters([&a, &b]);
        assert_eq!(m.control_total, 9);
        assert_eq!(m.data_total, 3);
        assert_eq!(
            m.by_tag,
            vec![("alpha".to_string(), 6), ("beta".to_string(), 3)]
        );
        assert_eq!(m.control_per_sec, vec![3, 4, 2]);
        assert_eq!((m.dropped_dead, m.dropped_fault), (1, 2));
    }

    #[test]
    fn ring_partition_is_balanced_and_total() {
        let map = ring_partition(1000, 4);
        assert_eq!(map.len(), 1000);
        for shard in 0..4u8 {
            let pop = map.iter().filter(|&&s| s == shard).count();
            assert_eq!(pop, 250, "shard {shard}");
        }
    }
}
