//! The benchmark's measured pipeline.
//!
//! Every workload goes through the same public calls a figures run makes:
//! set-up (`Scenario`, the protocol constructor, `Simulator::with_capacity`,
//! `Scenario::install`), `Simulator::run_until` to the §IV horizon, and the
//! figure extraction. The benchmark times each call from outside; it adds
//! no code to the program it measures.
//!
//! Host time and simulated time are kept apart by name: every `*_s` field
//! of a [`Sample`] is host seconds, except `mesh_delay_s`, which is the
//! paper's metric 1 in simulated seconds. Host seconds are CPU seconds
//! (see [`cpu`]), except `wall_s` and the shard link timings.

#![deny(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("dco-perfbench reads Linux clocks and /proc");

pub mod cpu;
pub mod shard;

use std::time::Instant;

use cpu::{lap, process_cpu_s};

use dco_baselines::{BaselineConfig, PullProtocol};
use dco_bench::runner::overhead_units;
use dco_bench::{CellProof, RunParams, RunResult};
use dco_core::proto::{DcoConfig, DcoProtocol};
use dco_metrics::StreamObserver;
use dco_sim::counters::perf::AllocStats;
use dco_sim::counters::CounterSnapshot;
use dco_sim::engine::{Protocol, Simulator};
use dco_sim::net::NetConfig;
use dco_sim::time::{SimDuration, SimTime};
use dco_workload::ChurnConfig;

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Simulated width of one slice of the traced run: 2000 slices over the
/// 200 s horizon, so the p99 slice time has 20 slices beyond it.
pub(crate) const TRACE_SLICE: SimDuration = SimDuration::from_millis(100);

/// Simulated instants at which the traced run reports live bytes and
/// pending events (the memory profile over the run).
pub const PROFILE_AT_S: [u64; 3] = [50, 100, 150];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The figures workload on the static Chord ring.
    StaticDco,
    /// `ChurnConfig::paper_fig11` on the dynamic ring.
    ChurnDco,
    /// The pull-mesh baseline.
    PullMesh,
    /// `StaticDco` split over [`SHARDS`] worker processes.
    ShardedDco,
}

/// Worker processes of the sharded workload.
pub const SHARDS: u8 = 2;

/// Simulations (seeds) in one `churn-dco` run; see [`Workload::cell`].
pub const CHURN_CELL: u64 = 9;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::StaticDco,
        Workload::ChurnDco,
        Workload::PullMesh,
        Workload::ShardedDco,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticDco => "static-dco",
            Workload::ChurnDco => "churn-dco",
            Workload::PullMesh => "pull-mesh",
            Workload::ShardedDco => "sharded-dco",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The population of one simulation (nodes, server included), sized
    /// so one run takes 3–12 host CPU seconds on a 2-core box (a
    /// `churn-dco` run is nine simulations of about 1.2 s).
    pub fn n_nodes(self) -> u32 {
        match self {
            Workload::StaticDco | Workload::ShardedDco => 1_000,
            Workload::ChurnDco => 100,
            Workload::PullMesh => 400,
        }
    }

    /// The seeds of one run. A `churn-dco` run is a nine-seed sweep
    /// cell: from one seed to the next, a churn run's allocated bytes,
    /// peak live bytes and overhead move by 7–10% (interquartile range
    /// over 32 seeds at N=100), because the churn schedule sets how many
    /// nodes are alive when. Averaging nine seeds brings that to 2–3%.
    /// The cells of different seeds are disjoint: `9·seed + i`.
    pub fn cell(self, seed: u64) -> Vec<u64> {
        match self {
            Workload::ChurnDco => (0..CHURN_CELL)
                .map(|i| seed.wrapping_mul(CHURN_CELL).wrapping_add(i))
                .collect(),
            _ => vec![seed],
        }
    }

    /// §IV parameters (100 chunks, 32 neighbors, 200 s horizon) at
    /// `n_nodes` and `seed`.
    pub fn params(self, n_nodes: u32, seed: u64) -> RunParams {
        let mut p = RunParams::paper_default(seed);
        p.n_nodes = n_nodes;
        if self == Workload::ChurnDco {
            p.churn = Some(ChurnConfig::paper_fig11());
        }
        p
    }
}

/// The DCO configuration `dco_bench::run_with_stats` uses for `params`.
fn dco_config(params: &RunParams) -> DcoConfig {
    let mut cfg = if params.churn.is_some() {
        DcoConfig::paper_churn(params.n_nodes, params.n_chunks)
    } else {
        DcoConfig::paper_default(params.n_nodes, params.n_chunks)
    };
    cfg.neighbors = params.neighbors;
    cfg
}

/// Named per-layer numbers.
pub type Counts = Vec<(String, f64)>;

fn put(out: &mut Counts, name: &str, v: impl Into<f64>) {
    out.push((name.to_string(), v.into()));
}

/// The value of `name` in `counts` (0 when absent).
pub fn count(counts: &[(String, f64)], name: &str) -> f64 {
    counts
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// Adds `part` into `acc`, name by name; names for which `keep_max`
/// holds take the larger value instead.
pub(crate) fn fold_counts(acc: &mut Counts, part: &Counts, keep_max: impl Fn(&str) -> bool) {
    for (name, v) in part {
        match acc.iter_mut().find(|(n, _)| n == name) {
            Some((_, a)) if keep_max(name) => *a = a.max(*v),
            Some((_, a)) => *a += v,
            None => acc.push((name.clone(), *v)),
        }
    }
}

/// A protocol the benchmark drives: how to build it from the run
/// parameters, and what it exposes to the per-layer counts.
pub trait Streamed: Protocol + Sized {
    /// The protocol constructor `run_with_stats` calls for `params`.
    fn build(params: &RunParams) -> Self;
    /// The protocol's stream observer.
    fn obs(&self) -> &StreamObserver;
    /// Protocol-specific per-layer counts.
    fn protocol_counts(&self, out: &mut Counts);
}

impl Streamed for DcoProtocol {
    fn build(params: &RunParams) -> Self {
        DcoProtocol::new(dco_config(params))
    }
    fn obs(&self) -> &StreamObserver {
        &self.obs
    }
    fn protocol_counts(&self, out: &mut Counts) {
        put(out, "core.proto.lookups", self.lookups_delivered as f64);
        put(out, "core.index.provider_none", self.provider_none as f64);
        put(out, "core.proto.fetch_failures", self.fetch_failures as f64);
        put(
            out,
            "core.proto.coordinators",
            self.coordinator_count() as f64,
        );
        put(out, "dht.chord.members", self.chord().member_count() as f64);
    }
}

impl Streamed for PullProtocol {
    fn build(params: &RunParams) -> Self {
        let mut cfg = BaselineConfig::paper_default(params.n_nodes, params.n_chunks);
        cfg.neighbors = params.neighbors;
        PullProtocol::new(cfg)
    }
    fn obs(&self) -> &StreamObserver {
        &self.obs
    }
    fn protocol_counts(&self, _out: &mut Counts) {}
}

/// Control messages of the paper's overhead metric (all control
/// messages but Chord ring maintenance) in a counter snapshot, as
/// `dco_bench::runner::overhead_units` counts them in live counters.
pub fn overhead_of(snapshot: &CounterSnapshot) -> u64 {
    let chord: u64 = snapshot
        .by_tag
        .iter()
        .filter(|(tag, _)| tag.starts_with("chord."))
        .map(|(_, n)| n)
        .sum();
    snapshot.control_total - chord
}

/// Engine, network and message-tag counts of a finished run, plus the
/// protocol's own.
pub(crate) fn layer_counts<P: Streamed>(sim: &Simulator<P>) -> Counts {
    let st = sim.stats();
    let c = sim.counters();
    let tag = |t: &str| c.tagged(t) as f64;
    let mut out: Counts = [
        ("sim.engine.events", st.events_processed as f64),
        ("sim.engine.timers_fired", st.timers_fired as f64),
        (
            "sim.engine.timers_skipped_dead",
            st.timers_skipped_dead as f64,
        ),
        ("sim.net.control_msgs", c.control_total() as f64),
        ("sim.net.data_msgs", c.data_total() as f64),
        ("sim.net.dropped_dead", c.dropped_dead() as f64),
        ("core.proto.lookup_hops", tag("dco.lookup")),
        ("core.index.inserts", tag("dco.insert")),
        ("core.proto.busy", tag("dco.busy")),
        (
            "dht.chord.maintenance_msgs",
            (c.control_total() - overhead_units(c)) as f64,
        ),
        ("baselines.pull.bufmap_msgs", tag("pull.bufmap")),
        ("baselines.pull.requests", tag("pull.request")),
        ("baselines.pull.misses", tag("pull.miss")),
        (
            "metrics.observer.duplicates",
            sim.protocol().obs().duplicate_receptions() as f64,
        ),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect();
    sim.protocol().protocol_counts(&mut out);
    out
}

/// Allocator activity of one measured region (all zero unless the
/// binary installs `dco_sim::counters::perf::CountingAlloc`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocUse {
    /// Allocations, reallocs included.
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// High-water mark of live bytes above the level at the region's start.
    pub peak_live: u64,
}

/// An open allocator region; [`AllocRegion::finish`] closes it.
pub(crate) struct AllocRegion {
    start: AllocStats,
    live0: u64,
}

impl AllocRegion {
    /// Opens a region now and rewinds the live-bytes high-water mark, so
    /// the peak covers this region alone. Regions must not overlap.
    pub fn start() -> AllocRegion {
        AllocStats::reset_peak();
        AllocRegion {
            start: AllocStats::snapshot(),
            live0: AllocStats::live_bytes(),
        }
    }

    /// Live bytes at the region's start.
    pub fn live_base(&self) -> u64 {
        self.live0
    }

    /// Live bytes above the region's starting level, now.
    pub fn live_now(&self) -> u64 {
        AllocStats::live_bytes().saturating_sub(self.live0)
    }

    /// The region's totals so far.
    pub fn finish(&self) -> AllocUse {
        let d = AllocStats::snapshot().delta_since(self.start);
        AllocUse {
            allocs: d.allocs,
            bytes: d.bytes,
            peak_live: AllocStats::peak_live_bytes().saturating_sub(self.live0),
        }
    }
}

/// Host CPU seconds of each set-up call.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SetupSpans {
    /// Building the `Scenario`.
    pub scenario_s: f64,
    /// The protocol constructor (for DCO on the static ring: the ring build).
    pub proto_new_s: f64,
    /// `Simulator::with_capacity`.
    pub engine_new_s: f64,
    /// `Scenario::install`: nodes, joins and the churn schedule.
    pub install_s: f64,
}

impl SetupSpans {
    /// Everything before the first event.
    pub fn total_s(&self) -> f64 {
        self.scenario_s + self.proto_new_s + self.engine_new_s + self.install_s
    }

    /// The spans as per-layer counts.
    pub fn counts(&self) -> Counts {
        let mut out = Counts::new();
        put(&mut out, "workload.scenario_s", self.scenario_s);
        put(&mut out, "core.proto.new_s", self.proto_new_s);
        put(&mut out, "sim.engine.new_s", self.engine_new_s);
        put(&mut out, "workload.install_s", self.install_s);
        out
    }
}

/// Builds the simulation `run_with_stats` builds for `params`, timing
/// each set-up call.
fn set_up<P: Streamed>(params: &RunParams) -> (Simulator<P>, SetupSpans) {
    let mut t = process_cpu_s();
    let scenario = params.scenario();
    let scenario_s = lap(&mut t);
    let protocol = P::build(params);
    let proto_new_s = lap(&mut t);
    let mut sim = Simulator::with_capacity(
        protocol,
        NetConfig::paper_model(),
        params.seed,
        params.n_nodes as usize,
    );
    let engine_new_s = lap(&mut t);
    scenario.install(&mut sim);
    let install_s = lap(&mut t);
    (
        sim,
        SetupSpans {
            scenario_s,
            proto_new_s,
            engine_new_s,
            install_s,
        },
    )
}

/// The figures of a finished run, extracted exactly as
/// `dco_bench::run_with_stats` extracts them.
fn extract<P: Streamed>(sim: &Simulator<P>, params: &RunParams) -> RunResult {
    let horizon = params.horizon;
    let secs = horizon.as_secs();
    let fold = sim
        .protocol()
        .obs()
        .fold_figures(horizon, &[SimDuration::from_secs(2), params.fill_offset]);
    let total = fold.expected_pairs;
    let fill_timeline: Vec<(f64, f64)> = (0..=secs)
        .map(|t| {
            let ratio = if total == 0 {
                0.0
            } else {
                fold.received_by_second[t as usize] as f64 / total as f64
            };
            (t as f64, ratio)
        })
        .collect();
    let received_timeline = fill_timeline.iter().map(|&(t, r)| (t, 100.0 * r)).collect();
    let counters = sim.counters();
    RunResult {
        mean_mesh_delay: fold.mean_mesh_delay,
        fill_at_2s: fold.fill_at_offsets[0],
        fill_at_offset: fold.fill_at_offsets[1],
        fill_timeline,
        overhead: overhead_units(counters),
        overhead_timeline: (0..=secs)
            .map(|t| (t as f64, counters.control_through_second(t) as f64))
            .collect(),
        received_timeline,
        received_pct: fold.received_pct,
        data_msgs: counters.data_total(),
    }
}

/// The determinism proof `dco_bench::run_with_stats` records.
fn proof_of<P: Protocol>(sim: &Simulator<P>) -> CellProof {
    CellProof {
        trace_digest: sim.trace_digest(),
        counters_digest: sim.counters().digest(),
        snapshot: sim.counters().snapshot(),
        events: sim.stats().events_processed,
    }
}

/// What the traced run records at each slice boundary.
#[derive(Clone, Copy, Debug)]
pub struct SlicePoint {
    /// Simulated time at the end of the slice.
    pub sim_t: SimTime,
    /// Host CPU milliseconds the slice took.
    pub host_ms: f64,
    /// Events dispatched so far.
    pub events: u64,
    /// Events pending in the queue.
    pub pending: usize,
    /// Live bytes above the run's starting level.
    pub live_bytes: u64,
}

/// The per-layer record of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// One point per [`TRACE_SLICE`] (per epoch on `sharded-dco`).
    pub slices: Vec<SlicePoint>,
    /// Host CPU seconds of the figure extraction.
    pub extract_s: f64,
    /// Further named numbers (the shard layer's).
    pub extra: Counts,
}

/// One measured run of one workload.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Host CPU seconds before the first event, summed over processes.
    pub setup_s: f64,
    /// The set-up spans as per-layer counts.
    pub setup_counts: Counts,
    /// Host CPU seconds from the first event to the extracted figures,
    /// summed over processes.
    pub cpu_s: f64,
    /// Wall seconds from the first event to the extracted figures.
    pub wall_s: f64,
    /// The run's digest: the trace digest, or the folded root digest of a
    /// sharded run.
    pub digest: u64,
    /// A second check value: the counters digest of a single-process run,
    /// the owned-event count of a sharded one.
    pub check: u64,
    /// Events dispatched.
    pub events: u64,
    /// % of expected (node, chunk) deliveries made by the horizon.
    pub received_pct: f64,
    /// Mean mesh delay, simulated seconds.
    pub mesh_delay_s: f64,
    /// Overhead units (control messages without ring maintenance).
    pub overhead: u64,
    /// Allocator use during set-up plus the run.
    pub alloc: AllocUse,
    /// Per-layer counts at the end of the run.
    pub counts: Counts,
    /// The per-slice record, on a traced run.
    pub trace: Option<Trace>,
}

impl Sample {
    /// Folds the runs of one cell, in order: host times, events, overhead
    /// and per-layer counts add up over the cell; bytes and the figures
    /// are means per simulation; the digests chain. A traced cell keeps
    /// the slice profile of its first simulation only, so every number
    /// read from the slices (slice times, pending events, live bytes)
    /// describes one simulation.
    pub fn fold(runs: Vec<Sample>) -> Sample {
        let k = runs.len() as u64;
        let mut runs = runs.into_iter();
        let mut acc = runs.next().expect("a cell has at least one seed");
        for r in runs {
            acc.setup_s += r.setup_s;
            fold_counts(&mut acc.setup_counts, &r.setup_counts, |_| false);
            acc.cpu_s += r.cpu_s;
            acc.wall_s += r.wall_s;
            acc.digest = acc.digest.rotate_left(1) ^ r.digest;
            acc.check = acc.check.rotate_left(1) ^ r.check;
            acc.events += r.events;
            acc.received_pct += r.received_pct;
            acc.mesh_delay_s += r.mesh_delay_s;
            acc.overhead += r.overhead;
            acc.alloc = AllocUse {
                allocs: acc.alloc.allocs + r.alloc.allocs,
                bytes: acc.alloc.bytes + r.alloc.bytes,
                peak_live: acc.alloc.peak_live + r.alloc.peak_live,
            };
            fold_counts(&mut acc.counts, &r.counts, |_| false);
            if let (Some(a), Some(b)) = (&mut acc.trace, r.trace) {
                a.extract_s += b.extract_s;
                fold_counts(&mut a.extra, &b.extra, |_| false);
            }
        }
        acc.received_pct /= k as f64;
        acc.mesh_delay_s /= k as f64;
        acc.alloc = AllocUse {
            allocs: acc.alloc.allocs / k,
            bytes: acc.alloc.bytes / k,
            peak_live: acc.alloc.peak_live / k,
        };
        acc
    }
}

/// A single-process run through the public call sequence: set-up,
/// `run_until` (in [`TRACE_SLICE`] slices when `traced`), extraction.
pub fn run_single<P: Streamed>(params: &RunParams, traced: bool) -> (Sample, RunResult, CellProof) {
    let region = AllocRegion::start();
    let (mut sim, spans) = set_up::<P>(params);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut slices = Vec::new();
    if traced {
        let step = TRACE_SLICE.as_micros();
        let mut end = step;
        while end < params.horizon.as_micros() {
            slices.push(run_slice(&mut sim, SimTime::from_micros(end), &region));
            end += step;
        }
        slices.push(run_slice(&mut sim, params.horizon, &region));
    } else {
        sim.run_until(params.horizon);
    }
    let cpu_extract = process_cpu_s();
    let result = extract(&sim, params);
    let cpu_end = process_cpu_s();
    let wall_s = t0.elapsed().as_secs_f64();
    let proof = proof_of(&sim);
    let counts = layer_counts(&sim);
    let alloc = region.finish();
    let sample = Sample {
        setup_s: spans.total_s(),
        setup_counts: spans.counts(),
        cpu_s: cpu_end - cpu0,
        wall_s,
        digest: proof.trace_digest,
        check: proof.counters_digest,
        events: proof.events,
        received_pct: result.received_pct,
        mesh_delay_s: result.mean_mesh_delay,
        overhead: result.overhead,
        alloc,
        counts,
        trace: traced.then(|| Trace {
            slices,
            extract_s: cpu_end - cpu_extract,
            extra: Counts::new(),
        }),
    };
    (sample, result, proof)
}

fn run_slice<P: Protocol>(
    sim: &mut Simulator<P>,
    end: SimTime,
    region: &AllocRegion,
) -> SlicePoint {
    let t = process_cpu_s();
    sim.run_until(end);
    SlicePoint {
        sim_t: end,
        host_ms: (process_cpu_s() - t) * 1e3,
        events: sim.stats().events_processed,
        pending: sim.pending_events(),
        live_bytes: region.live_now(),
    }
}

/// Host CPU seconds of set-up alone (the simulation is dropped untimed).
fn set_up_only<P: Streamed>(params: &RunParams) -> f64 {
    let (sim, spans) = set_up::<P>(params);
    drop(sim);
    spans.total_s()
}

/// This program, which the sharded workload re-executes as its workers.
fn this_exe() -> Result<std::path::PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("locating this program: {e}"))
}

fn run_one(workload: Workload, params: &RunParams, traced: bool) -> Result<Sample, String> {
    match workload {
        Workload::StaticDco | Workload::ChurnDco => Ok(run_single::<DcoProtocol>(params, traced).0),
        Workload::PullMesh => Ok(run_single::<PullProtocol>(params, traced).0),
        Workload::ShardedDco => shard::run_sharded(&this_exe()?, params, SHARDS, traced),
    }
}

/// One run of `workload` at `n_nodes` for `seed`: one simulation per
/// seed of [`Workload::cell`], folded into one [`Sample`].
pub fn run_workload(
    workload: Workload,
    n_nodes: u32,
    seed: u64,
    traced: bool,
) -> Result<Sample, String> {
    let runs = workload
        .cell(seed)
        .into_iter()
        .map(|s| run_one(workload, &workload.params(n_nodes, s), traced))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Sample::fold(runs))
}

/// Set-up alone of `workload` at `n_nodes` for `seed` (every simulation
/// of its cell), in host CPU seconds.
pub fn set_up_workload(workload: Workload, n_nodes: u32, seed: u64) -> Result<f64, String> {
    let mut total = 0.0;
    for s in workload.cell(seed) {
        let params = workload.params(n_nodes, s);
        total += match workload {
            Workload::StaticDco | Workload::ChurnDco => set_up_only::<DcoProtocol>(&params),
            Workload::PullMesh => set_up_only::<PullProtocol>(&params),
            Workload::ShardedDco => shard::set_up_sharded(&this_exe()?, &params, SHARDS)?,
        };
    }
    Ok(total)
}

/// The median of `xs` (the mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs`, linear between closest ranks; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
