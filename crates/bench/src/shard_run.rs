//! The sharded figures runner: one DCO simulation split across `K`
//! workers (threads in tests, processes under `dco-perf --shards`).
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
//! value every `K` must reproduce.

use std::io;
use std::time::Instant;

use dco_core::proto::{DcoConfig, DcoProtocol};
use dco_dht::hash_node;
use dco_metrics::observer::FigureMetrics;
use dco_metrics::{ObserverShard, StreamObserver};
use dco_shard::epoch::{run_orchestrator, run_worker, RelayReport};
use dco_shard::link::{channel_pair, FrameLink};
use dco_shard::partition::contiguous_arcs;
use dco_sim::counters::perf::PerfMeter;
use dco_sim::counters::CounterSnapshot;
use dco_sim::engine::Simulator;
use dco_sim::net::NetConfig;
use dco_sim::node::NodeId;
use dco_sim::time::SimDuration;
use dco_sim::wire::{decode_exact, encode_to_vec, WireCodec, WireError, WireReader};

use crate::runner::{CellProof, RunParams, RunResult, RunStats};

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
    /// Worker wall clock, membership install to horizon.
    pub wall_ms: f64,
    /// Allocations during the run (0 without a counting allocator).
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
    let mut cfg = if params.churn.is_some() {
        DcoConfig::paper_churn(params.n_nodes, params.n_chunks)
    } else {
        DcoConfig::paper_default(params.n_nodes, params.n_chunks)
    };
    cfg.neighbors = params.neighbors;
    let mut sim = Simulator::with_capacity(
        DcoProtocol::new(cfg),
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
/// wire-encoded [`WorkerSummary`] as the `RESULT` frame. This is the body
/// of the hidden `--shard-worker` mode of `dco-perf` and of the
/// thread-based test workers.
pub fn run_shard_worker<L: FrameLink>(
    params: &RunParams,
    k: u8,
    me: u8,
    link: &mut L,
) -> io::Result<()> {
    let (mut sim, lookahead) = build_shard_sim(params, k, me);
    let meter = PerfMeter::start();
    run_worker(&mut sim, params.horizon, lookahead, link, |sim| {
        let stats = sim.shard_stats().expect("sharding enabled");
        let sample = meter.finish();
        encode_to_vec(&WorkerSummary {
            shard: me,
            owned_events: stats.owned_events,
            events_processed: sim.stats().events_processed,
            remote_msgs_sent: stats.remote_msgs_sent,
            set_digest: stats.set_digest,
            wall_ms: sample.wall_ms(),
            allocs: sample.alloc.allocs,
            alloc_bytes: sample.alloc.bytes,
            peak_live_bytes: sample.peak_live_bytes,
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
    /// Bytes of forwarded batch payloads.
    pub forwarded_bytes: u64,
    /// `wrapping_add` of the per-shard set digests — the value that must
    /// equal the `K = 1` canonical digest.
    pub root_digest: u64,
    /// Sum of owned runtime dispatches over shards.
    pub owned_events: u64,
    /// Sum of all dispatches (shadow replays included).
    pub events_processed: u64,
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
        forwarded_bytes: report.forwarded_bytes,
        root_digest: workers
            .iter()
            .fold(0u64, |a, w| a.wrapping_add(w.set_digest)),
        owned_events: workers.iter().map(|w| w.owned_events).sum(),
        events_processed: workers.iter().map(|w| w.events_processed).sum(),
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

/// Runs the whole sharded pipeline with `k` worker *threads* over
/// in-memory links — the test path: same engine, same epoch protocol,
/// same merge, no processes.
pub fn run_sharded_threads(params: &RunParams, k: u8) -> io::Result<MergedRun> {
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

/// The `K = 1` canonical run: the sharded (key-ordered) engine in one
/// process, no epoch protocol needed — its set digest is the value every
/// `K > 1` run must fold back to.
pub struct SingleRun {
    /// The canonical set digest.
    pub set_digest: u64,
    /// Owned runtime dispatches (everything, at `K = 1`).
    pub owned_events: u64,
    /// All dispatches.
    pub events_processed: u64,
    /// Wall clock of the run.
    pub wall_ms: f64,
    /// Counter snapshot.
    pub counters: CounterSnapshot,
    /// Figure statistics.
    pub figures: FigureMetrics,
}

/// Runs the canonical single-process reference for `params`.
pub fn run_single_canonical(params: &RunParams) -> SingleRun {
    let (mut sim, _lookahead) = build_shard_sim(params, 1, 0);
    let t0 = Instant::now();
    sim.run_until(params.horizon);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = sim.shard_stats().expect("sharding enabled");
    let figures = sim
        .protocol()
        .obs
        .fold_figures(params.horizon, &fold_offsets(params));
    SingleRun {
        set_digest: stats.set_digest,
        owned_events: stats.owned_events,
        events_processed: sim.stats().events_processed,
        wall_ms,
        counters: sim.counters().snapshot(),
        figures,
    }
}

// ---------------------------------------------------------------------
// Wire codecs for the sweep fork (`dco-sweep --fork-seeds`): a cell
// worker ships its RunStats back as one RESULT frame.
// ---------------------------------------------------------------------

impl WireCodec for RunResult {
    fn encode(&self, out: &mut Vec<u8>) {
        self.mean_mesh_delay.encode(out);
        self.fill_at_2s.encode(out);
        self.fill_at_offset.encode(out);
        self.fill_timeline.encode(out);
        self.overhead.encode(out);
        self.overhead_timeline.encode(out);
        self.received_timeline.encode(out);
        self.received_pct.encode(out);
        self.data_msgs.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RunResult {
            mean_mesh_delay: r.get()?,
            fill_at_2s: r.get()?,
            fill_at_offset: r.get()?,
            fill_timeline: r.get()?,
            overhead: r.get()?,
            overhead_timeline: r.get()?,
            received_timeline: r.get()?,
            received_pct: r.get()?,
            data_msgs: r.get()?,
        })
    }
}

impl WireCodec for CellProof {
    fn encode(&self, out: &mut Vec<u8>) {
        self.trace_digest.encode(out);
        self.counters_digest.encode(out);
        self.snapshot.encode(out);
        self.events.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CellProof {
            trace_digest: r.get()?,
            counters_digest: r.get()?,
            snapshot: r.get()?,
            events: r.get()?,
        })
    }
}

impl WireCodec for RunStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.result.encode(out);
        self.proof.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RunStats {
            result: r.get()?,
            proof: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_sim::time::SimTime;
    use dco_workload::ChurnConfig;

    fn small_params(churn: bool) -> RunParams {
        let mut p = RunParams::small(42);
        if churn {
            p.churn = Some(ChurnConfig::paper_fig12(25));
        }
        p
    }

    fn assert_matches_single(params: &RunParams, single: &SingleRun, k: u8) {
        let m = run_sharded_threads(params, k).unwrap();
        assert_eq!(
            m.root_digest, single.set_digest,
            "K={k}: root digest diverged from the canonical single-process value"
        );
        assert_eq!(m.owned_events, single.owned_events, "K={k}: owned events");
        assert_eq!(m.counters, single.counters, "K={k}: merged counters");
        assert_eq!(
            m.figures.received_pct.to_bits(),
            single.figures.received_pct.to_bits(),
            "K={k}: received% must be bit-identical"
        );
        assert_eq!(
            m.figures.mean_mesh_delay.to_bits(),
            single.figures.mean_mesh_delay.to_bits(),
            "K={k}: mesh delay"
        );
        assert_eq!(
            m.figures.received_by_second,
            single.figures.received_by_second
        );
        assert_eq!(m.figures.expected_pairs, single.figures.expected_pairs);
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

    #[test]
    fn run_stats_codec_round_trips() {
        let stats = RunStats {
            result: RunResult {
                mean_mesh_delay: 1.5,
                fill_at_2s: 0.25,
                fill_at_offset: 0.75,
                fill_timeline: vec![(0.0, 0.0), (1.0, 0.5)],
                overhead: 42,
                overhead_timeline: vec![(0.0, 1.0)],
                received_timeline: vec![(0.0, 0.0), (1.0, 50.0)],
                received_pct: 99.5,
                data_msgs: 777,
            },
            proof: CellProof {
                trace_digest: 0xABCD,
                counters_digest: 0x1234,
                snapshot: CounterSnapshot {
                    control_total: 1,
                    data_total: 2,
                    by_tag: vec![],
                    control_per_sec: vec![1],
                    dropped_dead: 0,
                    dropped_fault: 0,
                },
                events: 5,
            },
        };
        let back: RunStats = decode_exact(&encode_to_vec(&stats)).unwrap();
        assert_eq!(back.proof, stats.proof);
        assert_eq!(
            back.result.received_pct.to_bits(),
            stats.result.received_pct.to_bits()
        );
        assert_eq!(back.result.fill_timeline, stats.result.fill_timeline);
        assert_eq!(back.result.data_msgs, stats.result.data_msgs);
    }
}
