//! `dco-perf` — the sharded multi-process digest gate of the figures
//! workload.
//!
//! ```text
//! dco-perf --shards K [--churn] [--populations N[,N...]]
//! ```
//!
//! Runs the figures workload (§IV parameters — 100 chunks, 32 neighbors,
//! 200 s horizon, static DCO ring, seed 42) once per population as a
//! *sharded multi-process* simulation: `K` re-execs of this binary (the
//! hidden `--shard-worker` mode), each owning a contiguous ring arc,
//! exchanging cross-shard messages in lookahead-sized epochs over their
//! stdio pipes. For every population the single-process canonical run
//! (the same key-ordered engine at `K = 1`) executes first, and
//! [`check_matches`] must find the sharded run equal to it; otherwise the
//! binary exits nonzero. On success it prints one line per population:
//! the root digest, owned events, epochs and cross-shard traffic.
//! `--churn` switches the workload onto the figs 11–12 churn model.
//!
//! Host-time measurement lives in `perfbench/` (see `BENCHMARK.json`);
//! the pinned trace and canonical digests live in `tests/determinism.rs`.

use std::process::ExitCode;

use dco_bench::shard_run::{
    check_matches, orchestrate, run_shard_worker, run_single_canonical, MergedRun,
};
use dco_bench::RunParams;
use dco_shard::link::PipeLink;
use dco_shard::procpool::{reap_failure, spawn_worker, WorkerProc};
use dco_workload::ChurnConfig;

const USAGE: &str = "usage: dco-perf --shards K [--churn] [--populations N[,N...]]";
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

/// Runs `params` over `k` worker processes and folds their results.
fn run_workers(params: &RunParams, k: u8) -> Result<MergedRun, String> {
    let mut workers: Vec<WorkerProc> = Vec::with_capacity(usize::from(k));
    for me in 0..k {
        let mut argv = vec![
            "--shard-worker".to_string(),
            me.to_string(),
            "--shards".to_string(),
            k.to_string(),
            "--populations".to_string(),
            params.n_nodes.to_string(),
        ];
        if params.churn.is_some() {
            argv.push("--churn".to_string());
        }
        match spawn_worker(&argv, usize::from(me)) {
            Ok(w) => workers.push(w),
            Err(e) => return Err(reap_failure(workers, e).to_string()),
        }
    }
    let merged = {
        let mut links: Vec<_> = workers.iter_mut().map(|w| &mut w.link).collect();
        orchestrate(params, &mut links)
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
    match finish_err {
        Some(e) => Err(e.to_string()),
        None => Ok(merged),
    }
}

/// One population: the canonical single-process run, then the K-process
/// run, which must match it.
fn run_population(n: u32, churn: bool, k: u8) -> Result<(), String> {
    let params = shard_params(n, churn);
    let single = run_single_canonical(&params);
    let merged = run_workers(&params, k)?;
    check_matches(&single, &merged).map_err(|e| {
        format!(
            "n={n} K={k} churn={churn}: {e} (root digest {:#018x}, canonical {:#018x})",
            merged.root_digest, single.set_digest
        )
    })?;
    println!(
        "n={n} K={k} churn={churn}: root digest {:#018x} matches the canonical run, \
         {} owned events, {} epochs, {} cross-shard msgs in {} batches",
        merged.root_digest,
        merged.owned_events,
        merged.epochs,
        merged.remote_msgs,
        merged.forwarded_batches,
    );
    Ok(())
}

struct Args {
    populations: Vec<u32>,
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
    let run = match args.shard_worker {
        Some(me) => shard_worker_main(&args, me),
        None => args
            .populations
            .iter()
            .try_for_each(|&n| run_population(n, args.churn, args.shards)),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dco-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
