//! `dco-perf` — the sharded multi-process run of the figures workload.
//!
//! ```text
//! dco-perf --shards K [--churn] [--populations N[,N...]] [--out F | --stdout]
//! ```
//!
//! Runs the figures workload (§IV parameters — 100 chunks, 32 neighbors,
//! 200 s horizon, static DCO ring, seed 42) once per population as a
//! *sharded multi-process* simulation: `K` re-execs of this binary (the
//! hidden `--shard-worker` mode), each owning a contiguous ring arc,
//! exchanging cross-shard messages in lookahead-sized epochs over their
//! stdio pipes. For every population the single-process canonical run
//! (the same key-ordered engine at `K = 1`) executes first; the sharded
//! run's folded root digest must reproduce its set digest bit-for-bit or
//! the run fails. The `dco-shard/v1` report (default `BENCH_shard.json`)
//! records per-shard event counts, cross-shard message volume, the
//! peak-live-bytes maximum over workers, both wall clocks and the speedup
//! — plus the host's core count, since K workers on fewer than K cores
//! time-slice rather than parallelize (`--churn` switches the workload
//! onto the figs 11–12 churn model).
//!
//! Host-time measurement lives in `perfbench/` (see `BENCHMARK.json`);
//! the pinned trace and canonical digests live in `tests/determinism.rs`.

use std::process::ExitCode;
use std::time::Instant;

use dco_bench::shard_run::{orchestrate, run_shard_worker, run_single_canonical, MergedRun};
use dco_bench::sweep::json::Json;
use dco_bench::RunParams;
use dco_shard::link::PipeLink;
use dco_shard::procpool::{reap_failure, spawn_worker, WorkerProc};
use dco_sim::counters::perf::{CountingAlloc, PerfMeter};
use dco_workload::ChurnConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: dco-perf --shards K [--churn] [--populations N[,N...]] [--out F | --stdout]";
const DEFAULT_OUT: &str = "BENCH_shard.json";
/// Populations run when `--populations` is not given.
const DEFAULT_POPULATIONS: [u32; 2] = [1_000, 10_000];

/// The figures workload at population `n`: §IV defaults with the node
/// count overridden and the seed fixed (static DCO is seed-invariant).
/// `churn` switches it onto `ChurnConfig::paper_fig11` — mean lifetime =
/// join interval = 60 s, all departures abrupt — which runs the dynamic
/// Chord ring (live stabilization, finger repair, coordinator churn).
fn shard_params(n_nodes: u32, churn: bool) -> RunParams {
    let mut p = RunParams::paper_default(42);
    p.n_nodes = n_nodes;
    if churn {
        p.churn = Some(ChurnConfig::paper_fig11());
    }
    p
}

/// Hidden `--shard-worker` mode: run one shard's arc of the figures
/// workload, speaking the epoch protocol over this process's stdio.
fn shard_worker_main(args: &Args, me: u8) -> Result<(), String> {
    if me >= args.shards {
        return Err(format!("--shard-worker {me} needs --shards > {me}"));
    }
    let params = shard_params(args.populations[0], args.churn);
    let mut link = PipeLink::new(std::io::stdin(), std::io::stdout());
    run_shard_worker(&params, args.shards, me, &mut link).map_err(|e| format!("worker {me}: {e}"))
}

/// One population tier: canonical single-process run, then the K-process
/// run, digests cross-checked.
struct ShardTier {
    n_nodes: u32,
    single: dco_bench::shard_run::SingleRun,
    single_peak_live: u64,
    merged: MergedRun,
    sharded_wall_ms: f64,
}

fn run_shard_tier(n: u32, churn: bool, k: u8) -> Result<ShardTier, String> {
    let params = shard_params(n, churn);
    eprintln!("dco-perf: n={n} churn={churn}: single-process canonical run");
    let meter = PerfMeter::start();
    let single = run_single_canonical(&params);
    let single_peak_live = meter.finish().peak_live_bytes;
    eprintln!(
        "  single: {:.1} ms, {} owned events, set digest {:#018x}, peak {:.1} MiB",
        single.wall_ms,
        single.owned_events,
        single.set_digest,
        single_peak_live as f64 / (1024.0 * 1024.0),
    );

    eprintln!("  spawning {k} shard workers");
    let t0 = Instant::now();
    let mut workers: Vec<WorkerProc> = Vec::with_capacity(usize::from(k));
    for me in 0..k {
        let mut argv = vec![
            "--shard-worker".to_string(),
            me.to_string(),
            "--shards".to_string(),
            k.to_string(),
            "--populations".to_string(),
            n.to_string(),
        ];
        if churn {
            argv.push("--churn".to_string());
        }
        match spawn_worker(&argv, usize::from(me)) {
            Ok(w) => workers.push(w),
            Err(e) => return Err(reap_failure(workers, e).to_string()),
        }
    }
    let merged = {
        let mut links: Vec<_> = workers.iter_mut().map(|w| &mut w.link).collect();
        orchestrate(&params, &mut links)
    };
    let merged = match merged {
        Ok(m) => m,
        Err(e) => return Err(reap_failure(workers, e).to_string()),
    };
    let mut finish_err = None;
    for w in workers {
        if let Err(e) = w.finish() {
            finish_err.get_or_insert(e);
        }
    }
    if let Some(e) = finish_err {
        return Err(e.to_string());
    }
    let sharded_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    if merged.root_digest != single.set_digest {
        return Err(format!(
            "n={n} K={k}: root digest {:#018x} != canonical {:#018x} — sharding moved an event",
            merged.root_digest, single.set_digest
        ));
    }
    if merged.owned_events != single.owned_events {
        return Err(format!(
            "n={n} K={k}: owned event count {} != canonical {}",
            merged.owned_events, single.owned_events
        ));
    }
    if merged.counters != single.counters {
        return Err(format!(
            "n={n} K={k}: merged counters diverged from canonical"
        ));
    }
    if merged.figures.received_pct.to_bits() != single.figures.received_pct.to_bits() {
        return Err(format!(
            "n={n} K={k}: merged received% {} != canonical {}",
            merged.figures.received_pct, single.figures.received_pct
        ));
    }
    eprintln!(
        "  sharded K={k}: {sharded_wall_ms:.1} ms wall ({:.2}x vs single), {} epochs, \
         {} cross-shard msgs in {} batches ({} bytes), root digest OK",
        single.wall_ms / sharded_wall_ms.max(1e-9),
        merged.epochs,
        merged.remote_msgs,
        merged.forwarded_batches,
        merged.forwarded_bytes,
    );
    Ok(ShardTier {
        n_nodes: n,
        single,
        single_peak_live,
        merged,
        sharded_wall_ms,
    })
}

fn shard_tier_json(tier: &ShardTier) -> Json {
    let m = &tier.merged;
    let peak_max = m
        .workers
        .iter()
        .map(|w| w.peak_live_bytes)
        .max()
        .unwrap_or(0);
    let workers = m
        .workers
        .iter()
        .map(|w| {
            Json::obj(vec![
                ("shard", Json::Int(u64::from(w.shard))),
                ("owned_events", Json::Int(w.owned_events)),
                ("events_processed", Json::Int(w.events_processed)),
                ("remote_msgs_sent", Json::Int(w.remote_msgs_sent)),
                ("set_digest", Json::hex(w.set_digest)),
                ("wall_ms", Json::Num(w.wall_ms)),
                ("allocs", Json::Int(w.allocs)),
                ("peak_live_bytes", Json::Int(w.peak_live_bytes)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("n_nodes", Json::Int(u64::from(tier.n_nodes))),
        (
            "single_process",
            Json::obj(vec![
                ("wall_ms", Json::Num(tier.single.wall_ms)),
                ("owned_events", Json::Int(tier.single.owned_events)),
                ("set_digest", Json::hex(tier.single.set_digest)),
                ("peak_live_bytes", Json::Int(tier.single_peak_live)),
                ("received_pct", Json::Num(tier.single.figures.received_pct)),
            ]),
        ),
        (
            "sharded",
            Json::obj(vec![
                ("wall_ms", Json::Num(tier.sharded_wall_ms)),
                ("root_digest", Json::hex(m.root_digest)),
                ("digest_matches_single_process", Json::Bool(true)),
                ("owned_events", Json::Int(m.owned_events)),
                ("events_processed_total", Json::Int(m.events_processed)),
                ("epochs", Json::Int(m.epochs)),
                ("cross_shard_msgs", Json::Int(m.remote_msgs)),
                ("cross_shard_batches", Json::Int(m.forwarded_batches)),
                ("cross_shard_bytes", Json::Int(m.forwarded_bytes)),
                ("peak_live_bytes_max_over_workers", Json::Int(peak_max)),
                ("received_pct", Json::Num(m.figures.received_pct)),
                ("workers", Json::Arr(workers)),
            ]),
        ),
        (
            "speedup_vs_single_process",
            if tier.sharded_wall_ms > 0.0 {
                Json::Num(tier.single.wall_ms / tier.sharded_wall_ms)
            } else {
                Json::Null
            },
        ),
    ])
}

fn run_shards(args: &Args) -> Result<Json, String> {
    let k = args.shards;
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    eprintln!(
        "dco-perf: sharded mode, K={k}, populations {:?}, churn={}, host cores {host_cores}",
        args.populations, args.churn
    );
    if host_cores < u64::from(k) {
        eprintln!(
            "dco-perf: note: {k} workers on {host_cores} core(s) time-slice — \
             expect speedup <= 1; digests are still fully checked"
        );
    }
    let reports: Vec<ShardTier> = args
        .populations
        .iter()
        .map(|&n| run_shard_tier(n, args.churn, k))
        .collect::<Result<_, _>>()?;
    let params = shard_params(0, args.churn);
    Ok(Json::obj(vec![
        ("schema", Json::str("dco-shard/v1")),
        ("label", Json::str("current")),
        ("k_shards", Json::Int(u64::from(k))),
        ("host_cores", Json::Int(host_cores)),
        (
            "scenario",
            Json::obj(vec![
                ("method", Json::str("DCO")),
                ("n_chunks", Json::Int(u64::from(params.n_chunks))),
                ("neighbors", Json::Int(params.neighbors as u64)),
                ("horizon_s", Json::Int(params.horizon.as_secs())),
                ("seed", Json::Int(params.seed)),
                ("churn", Json::Bool(args.churn)),
            ]),
        ),
        (
            "populations",
            Json::Arr(reports.iter().map(shard_tier_json).collect()),
        ),
    ]))
}

struct Args {
    populations: Vec<u32>,
    out: String,
    stdout: bool,
    /// Run the churn (figs 11–12) workload instead of the static one.
    churn: bool,
    /// Worker-process count (at least 1).
    shards: u8,
    /// Hidden: this process is shard worker `me` of `shards` — speak the
    /// epoch protocol on stdin/stdout and exit.
    shard_worker: Option<u8>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        populations: DEFAULT_POPULATIONS.to_vec(),
        out: DEFAULT_OUT.to_string(),
        stdout: false,
        churn: false,
        shards: 0,
        shard_worker: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--populations" => {
                args.populations = value("--populations")?
                    .split(',')
                    .map(|s| s.trim().parse::<u32>().map_err(|e| format!("{s}: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => args.out = value("--out")?,
            "--stdout" => args.stdout = true,
            "--churn" => args.churn = true,
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if args.shards == 0 {
                    return Err("--shards needs at least 1".to_string());
                }
            }
            "--shard-worker" => {
                args.shard_worker = Some(
                    value("--shard-worker")?
                        .parse()
                        .map_err(|e| format!("--shard-worker: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.shards == 0 {
        return Err("--shards K is required (host timing lives in perfbench, \
                    pinned digests in tests/determinism.rs)"
            .to_string());
    }
    if args.populations.is_empty() {
        return Err("need at least one population".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dco-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(me) = args.shard_worker {
        return match shard_worker_main(&args, me) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("dco-perf: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let json = match run_shards(&args) {
        Ok(j) => j.render_pretty(),
        Err(e) => {
            eprintln!("dco-perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.stdout {
        print!("{json}");
    } else if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("dco-perf: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    } else {
        eprintln!("dco-perf: wrote {}", args.out);
    }
    ExitCode::SUCCESS
}
