//! The `sharded-dco` workload: the static figures run split over `K`
//! worker processes, each a re-exec of this binary in its hidden
//! `--shard-worker` mode, speaking `dco_shard`'s epoch protocol over its
//! stdio pipes.
//!
//! Before the epoch protocol starts, each worker builds its shard and
//! sends [`READY`] with the CPU seconds it has used so far; the
//! orchestrator waits for all of them (that span is the set-up), then
//! sends [`START`]. A set-up-only run sends [`QUIT`] instead. Each worker
//! follows its `RESULT` frame with an [`EXTRA`] frame carrying the CPU
//! seconds of its run and its per-layer counts. On a traced run every
//! link is wrapped in [`Timed`], and `EXTRA` carries the link timings too.

use std::io;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use dco_bench::shard_run::{merge_relay, ring_partition, WorkerSummary};
use dco_bench::RunParams;
use dco_core::proto::DcoProtocol;
use dco_shard::epoch::{run_orchestrator, run_worker, RelayReport};
use dco_shard::link::{FrameLink, PipeLink};
use dco_sim::counters::perf::AllocStats;
use dco_sim::engine::Simulator;
use dco_sim::net::NetConfig;
use dco_sim::time::{SimDuration, SimTime};
use dco_sim::wire::{decode_exact, encode_to_vec, WireCodec, WireError, WireReader};

use crate::cpu::{lap, process_cpu_s};
use crate::{
    fold_counts, layer_counts, overhead_of, AllocRegion, AllocUse, Counts, Sample, SetupSpans,
    SlicePoint, Streamed, Trace, MIB,
};

/// Worker → orchestrator: the shard is built; the payload is the
/// worker's CPU seconds so far (an `f64`).
const READY: u8 = 100;
/// Orchestrator → worker: run the epochs.
const START: u8 = 101;
/// Orchestrator → worker: exit without running (set-up-only runs).
const QUIT: u8 = 102;
/// Worker → orchestrator, after `RESULT`: a [`WorkerTrace`].
const EXTRA: u8 = 103;

/// A [`FrameLink`] that times the calls into the link it wraps.
struct Timed<L> {
    inner: L,
    /// Host seconds blocked in `recv`.
    recv_s: f64,
    /// Host seconds in `send` and `flush`.
    send_s: f64,
    last_recv_end: Option<Instant>,
    /// Host milliseconds between the end of a `recv` and the next `send`:
    /// on a worker, the compute of one epoch.
    compute_ms: Vec<f64>,
    /// Live bytes at each of those sends, above `live_base`.
    live: Vec<u64>,
    live_base: Option<u64>,
}

impl<L: FrameLink> Timed<L> {
    /// Wraps `inner`; `live_base` (workers only) is the live-bytes level
    /// that per-epoch live bytes are counted from.
    fn new(inner: L, live_base: Option<u64>) -> Self {
        Timed {
            inner,
            recv_s: 0.0,
            send_s: 0.0,
            last_recv_end: Some(Instant::now()),
            compute_ms: Vec::new(),
            live: Vec::new(),
            live_base,
        }
    }
}

impl<L: FrameLink> FrameLink for Timed<L> {
    fn send(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        if let Some(end) = self.last_recv_end.take() {
            self.compute_ms
                .push(t.duration_since(end).as_secs_f64() * 1e3);
            if let Some(base) = self.live_base {
                self.live
                    .push(AllocStats::live_bytes().saturating_sub(base));
            }
        }
        let res = self.inner.send(tag, payload);
        self.send_s += t.elapsed().as_secs_f64();
        res
    }
    fn flush(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let res = self.inner.flush();
        self.send_s += t.elapsed().as_secs_f64();
        res
    }
    fn recv(&mut self) -> io::Result<(u8, Vec<u8>)> {
        let t = Instant::now();
        let res = self.inner.recv();
        let end = Instant::now();
        self.recv_s += end.duration_since(t).as_secs_f64();
        self.last_recv_end = Some(end);
        res
    }
}

/// What a worker reports after `RESULT`; the link timings are 0 and
/// empty unless the run is traced.
#[derive(Clone, Debug, Default)]
struct WorkerTrace {
    /// Host CPU seconds from `START` to the sent `RESULT`.
    cpu_s: f64,
    /// Wall seconds from `START` to the finished horizon.
    wall_s: f64,
    /// Host seconds blocked in `recv` (barrier wait).
    recv_s: f64,
    /// Host seconds in `send` and `flush`.
    send_s: f64,
    /// Per-epoch compute, host milliseconds.
    compute_ms: Vec<f64>,
    /// Live bytes at each epoch's end.
    live: Vec<u64>,
    /// Per-layer counts of this shard, set-up spans included.
    counts: Counts,
}

impl WireCodec for WorkerTrace {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cpu_s.encode(out);
        self.wall_s.encode(out);
        self.recv_s.encode(out);
        self.send_s.encode(out);
        self.compute_ms.encode(out);
        self.live.encode(out);
        self.counts.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WorkerTrace {
            cpu_s: r.get()?,
            wall_s: r.get()?,
            recv_s: r.get()?,
            send_s: r.get()?,
            compute_ms: r.get()?,
            live: r.get()?,
            counts: r.get()?,
        })
    }
}

/// Folds per-shard counts: host-time spans (`*_s`) and the two
/// replicated-state gauges take the maximum over shards, every other
/// count is disjoint per shard and adds.
fn merge_counts<'a>(parts: impl IntoIterator<Item = &'a Counts>) -> Counts {
    let mut merged = Counts::new();
    for part in parts {
        fold_counts(&mut merged, part, |name| {
            name.ends_with("_s") || name == "dht.chord.members" || name == "core.proto.coordinators"
        });
    }
    merged
}

/// Builds shard `me` of `k` the way `dco_bench::shard_run` does: full
/// node table, sharding on the ring-arc map, full membership script.
fn build_shard(
    params: &RunParams,
    k: u8,
    me: u8,
) -> (Simulator<DcoProtocol>, SimDuration, SetupSpans) {
    let mut t = process_cpu_s();
    let scenario = params.scenario();
    let scenario_s = lap(&mut t);
    let protocol = DcoProtocol::build(params);
    let proto_new_s = lap(&mut t);
    let mut sim = Simulator::with_capacity(
        protocol,
        NetConfig::paper_model(),
        params.seed,
        params.n_nodes as usize,
    );
    let engine_new_s = lap(&mut t);
    scenario.add_nodes(&mut sim);
    let lookahead = sim.enable_sharding(ring_partition(params.n_nodes, k), me, k);
    scenario.schedule_membership(&mut sim);
    let spans = SetupSpans {
        scenario_s,
        proto_new_s,
        engine_new_s,
        install_s: lap(&mut t),
    };
    (sim, lookahead, spans)
}

fn proto_err(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// The hidden `--shard-worker` mode: build shard `me` of `k`, report
/// `READY`, then run the epochs over this process's stdio.
pub fn worker_main(params: &RunParams, k: u8, me: u8, traced: bool) -> io::Result<()> {
    let region = AllocRegion::start();
    let (mut sim, lookahead, spans) = build_shard(params, k, me);
    let mut link = PipeLink::new(io::stdin(), io::stdout());
    link.send(READY, &encode_to_vec(&process_cpu_s()))?;
    link.flush()?;
    match link.recv()? {
        (START, _) => {}
        (QUIT, _) => return Ok(()),
        (tag, _) => return Err(proto_err(format!("worker {me}: unexpected tag {tag}"))),
    }
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let horizon = params.horizon;
    let mut trace = WorkerTrace::default();
    let finish = |sim: &mut Simulator<DcoProtocol>, trace: &mut WorkerTrace| {
        trace.wall_s = t0.elapsed().as_secs_f64();
        trace.counts = layer_counts(sim);
        trace.counts.extend(spans.counts());
        let stats = sim.shard_stats().expect("sharding is enabled");
        let alloc = region.finish();
        encode_to_vec(&WorkerSummary {
            shard: me,
            owned_events: stats.owned_events,
            events_processed: sim.stats().events_processed,
            remote_msgs_sent: stats.remote_msgs_sent,
            set_digest: stats.set_digest,
            wall_ms: trace.wall_s * 1e3,
            allocs: alloc.allocs,
            alloc_bytes: alloc.bytes,
            peak_live_bytes: alloc.peak_live,
            counters: sim.counters().snapshot(),
            obs: sim.protocol().obs.export_shard(),
        })
    };
    if traced {
        let mut timed = Timed::new(&mut link, Some(region.live_base()));
        run_worker(&mut sim, horizon, lookahead, &mut timed, |sim| {
            finish(sim, &mut trace)
        })?;
        trace.recv_s = timed.recv_s;
        trace.send_s = timed.send_s;
        trace.compute_ms = std::mem::take(&mut timed.compute_ms);
        trace.live = std::mem::take(&mut timed.live);
    } else {
        run_worker(&mut sim, horizon, lookahead, &mut link, |sim| {
            finish(sim, &mut trace)
        })?;
    }
    trace.cpu_s = process_cpu_s() - cpu0;
    link.send(EXTRA, &encode_to_vec(&trace))?;
    link.flush()
}

/// A spawned worker process and its link.
struct Worker {
    child: Child,
    link: PipeLink<ChildStdout, ChildStdin>,
}

/// The running workers of one sharded run. Dropping it kills and reaps
/// any worker still running, so no process outlives a failed run.
struct Workers(Vec<Worker>);

impl Workers {
    fn spawn(exe: &Path, params: &RunParams, k: u8, traced: bool) -> io::Result<Workers> {
        let mut workers = Workers(Vec::with_capacity(usize::from(k)));
        for me in 0..k {
            let mut child = Command::new(exe)
                .args(worker_args(params, k, me, traced))
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()?;
            let stdin = child.stdin.take().expect("stdin is piped");
            let stdout = child.stdout.take().expect("stdout is piped");
            workers.0.push(Worker {
                child,
                link: PipeLink::new(stdout, stdin),
            });
        }
        Ok(workers)
    }

    /// Waits until every worker has built its shard; returns the CPU
    /// seconds they used, summed.
    fn await_ready(&mut self) -> io::Result<f64> {
        let mut cpu_s = 0.0;
        for (me, w) in self.0.iter_mut().enumerate() {
            match w.link.recv() {
                Ok((READY, bytes)) => {
                    cpu_s += decode_exact::<f64>(&bytes)
                        .map_err(|e| proto_err(format!("worker {me}: READY: {e}")))?;
                }
                Ok((tag, _)) => {
                    return Err(proto_err(format!("worker {me}: tag {tag}, not READY")))
                }
                Err(e) => return Err(io::Error::new(e.kind(), format!("worker {me}: {e}"))),
            }
        }
        Ok(cpu_s)
    }

    /// Spawns `k` workers and waits until every one has built its shard;
    /// returns them and the set-up's CPU seconds, this process's and the
    /// workers' together.
    fn set_up(
        exe: &Path,
        params: &RunParams,
        k: u8,
        traced: bool,
    ) -> Result<(Workers, f64), String> {
        let cpu0 = process_cpu_s();
        let mut workers =
            Workers::spawn(exe, params, k, traced).map_err(|e| format!("spawn: {e}"))?;
        let workers_cpu = workers.await_ready().map_err(|e| e.to_string())?;
        Ok((workers, process_cpu_s() - cpu0 + workers_cpu))
    }

    fn broadcast(&mut self, tag: u8) -> io::Result<()> {
        for w in &mut self.0 {
            w.link.send(tag, &[])?;
            w.link.flush()?;
        }
        Ok(())
    }

    /// Closes every link and waits for every worker; an unsuccessful
    /// exit is an error.
    fn finish(mut self) -> io::Result<()> {
        let mut first_err = None;
        for (me, w) in std::mem::take(&mut self.0).into_iter().enumerate() {
            let Worker { mut child, link } = w;
            drop(link);
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    first_err.get_or_insert(io::Error::other(format!(
                        "worker {me} exited with {status}"
                    )));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for w in &mut self.0 {
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
    }
}

/// The command line of worker `me`.
fn worker_args(params: &RunParams, k: u8, me: u8, traced: bool) -> Vec<String> {
    vec![
        "--shard-worker".to_string(),
        me.to_string(),
        k.to_string(),
        params.n_nodes.to_string(),
        params.seed.to_string(),
        u8::from(traced).to_string(),
    ]
}

/// Host CPU seconds, this process's and the workers', from spawning `k`
/// workers (the program `exe`, which must be this package's binary) until
/// every one has built its shard; the workers then exit without running.
pub fn set_up_sharded(exe: &Path, params: &RunParams, k: u8) -> Result<f64, String> {
    let (mut workers, setup_s) = Workers::set_up(exe, params, k, false)?;
    workers.broadcast(QUIT).map_err(|e| e.to_string())?;
    workers.finish().map_err(|e| e.to_string())?;
    Ok(setup_s)
}

/// One sharded run with `k` worker processes of the program `exe`.
pub fn run_sharded(exe: &Path, params: &RunParams, k: u8, traced: bool) -> Result<Sample, String> {
    let (mut workers, setup_s) = Workers::set_up(exe, params, k, traced)?;
    let region = AllocRegion::start();
    let cpu0 = process_cpu_s();
    workers.broadcast(START).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut links: Vec<_> = workers.0.iter_mut().map(|w| &mut w.link).collect();
    let (report, relay_recv_s) = if traced {
        let mut timed: Vec<_> = links
            .iter_mut()
            .map(|l| Timed::new(&mut **l, None))
            .collect();
        let report = run_orchestrator(&mut timed);
        (report, timed.iter().map(|t| t.recv_s).sum::<f64>())
    } else {
        (run_orchestrator(&mut links), 0.0)
    };
    let report: RelayReport = report.map_err(|e| format!("relay: {e}"))?;
    let t_extract = Instant::now();
    let cpu_extract = process_cpu_s();
    let merged = merge_relay(params, &report).map_err(|e| format!("merge: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let extract_wall_s = t_extract.elapsed().as_secs_f64();
    let cpu_end = process_cpu_s();
    let relay_alloc = region.finish();
    let mut traces = Vec::new();
    for (me, w) in workers.0.iter_mut().enumerate() {
        let (tag, bytes) = w.link.recv().map_err(|e| format!("worker {me}: {e}"))?;
        if tag != EXTRA {
            return Err(format!("worker {me}: tag {tag}, not EXTRA"));
        }
        traces.push(decode_exact::<WorkerTrace>(&bytes).map_err(|e| format!("worker {me}: {e}"))?);
    }
    workers.finish().map_err(|e| e.to_string())?;

    // Workers' set-up and run plus the orchestrator's relay; the peak is
    // the sum of the workers' peaks.
    let alloc = AllocUse {
        allocs: relay_alloc.allocs + merged.workers.iter().map(|w| w.allocs).sum::<u64>(),
        bytes: relay_alloc.bytes + merged.workers.iter().map(|w| w.alloc_bytes).sum::<u64>(),
        peak_live: merged.workers.iter().map(|w| w.peak_live_bytes).sum(),
    };
    let trace = traced.then(|| {
        let relay_busy_s = wall_s - extract_wall_s - relay_recv_s;
        let extract_s = cpu_end - cpu_extract;
        shard_trace(params, &merged, &report, &traces, relay_busy_s, extract_s)
    });
    Ok(Sample {
        setup_s,
        setup_counts: vec![("shard.spawn_s".to_string(), setup_s)],
        cpu_s: cpu_end - cpu0 + traces.iter().map(|t| t.cpu_s).sum::<f64>(),
        wall_s,
        digest: merged.root_digest,
        check: merged.owned_events,
        events: merged.owned_events,
        received_pct: merged.figures.received_pct,
        mesh_delay_s: merged.figures.mean_mesh_delay,
        overhead: overhead_of(&merged.counters),
        alloc,
        counts: merge_counts(traces.iter().map(|t| &t.counts)),
        trace,
    })
}

fn shard_trace(
    params: &RunParams,
    merged: &dco_bench::shard_run::MergedRun,
    report: &RelayReport,
    traces: &[WorkerTrace],
    relay_busy_s: f64,
    extract_s: f64,
) -> Trace {
    let k = traces.len().max(1) as f64;
    let mean = |f: &dyn Fn(&WorkerTrace) -> f64| traces.iter().map(f).sum::<f64>() / k;
    let owned: Vec<f64> = merged
        .workers
        .iter()
        .map(|w| w.owned_events as f64)
        .collect();
    let owned_mean = owned.iter().sum::<f64>() / owned.len().max(1) as f64;
    let owned_max = owned.iter().copied().fold(0.0, f64::max);
    // Epoch `e` of every worker ends at the same simulated instant, so
    // the per-epoch points line up across workers: sum the live bytes,
    // pool the compute times.
    let epochs = traces.iter().map(|t| t.compute_ms.len()).min().unwrap_or(0);
    let lookahead_us = params.horizon.as_micros() / report.epochs.max(1);
    let slices = (0..epochs)
        .flat_map(|e| {
            traces.iter().map(move |t| SlicePoint {
                sim_t: SimTime::from_micros((e as u64 + 1) * lookahead_us),
                host_ms: t.compute_ms[e],
                events: 0,
                pending: 0,
                live_bytes: traces
                    .iter()
                    .map(|t| t.live.get(e).copied().unwrap_or(0))
                    .sum(),
            })
        })
        .collect();
    let mut extra = Counts::new();
    let mut put = |name: &str, v: f64| extra.push((name.to_string(), v));
    put("shard.epochs", report.epochs as f64);
    put("shard.batches", report.forwarded_batches as f64);
    put("shard.remote_msgs", merged.remote_msgs as f64);
    put("shard.relay_mib", report.forwarded_bytes as f64 / MIB);
    put(
        "shard.imbalance",
        if owned_mean > 0.0 {
            owned_max / owned_mean
        } else {
            0.0
        },
    );
    put("shard.compute_s", mean(&|t| t.wall_s - t.recv_s - t.send_s));
    put("shard.barrier_wait_s", mean(&|t| t.recv_s));
    put("shard.link_send_s", mean(&|t| t.send_s));
    put("shard.relay_busy_s", relay_busy_s);
    Trace {
        slices,
        extract_s,
        extra,
    }
}
