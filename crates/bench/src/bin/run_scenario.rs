//! Ad-hoc scenario runner: one protocol, one parameter set, the §IV
//! metrics printed (mean mesh delay, fill at +2 s and at the fill offset,
//! extra overhead, data transmissions, % received) — the quickest way to
//! poke at the system without writing code.
//!
//! ```text
//! run_scenario [--method dco|pull|push|tree|tree*] [--nodes N] [--chunks C] \
//!              [--neighbors K] [--churn <mean-life-s>] [--horizon <s>] \
//!              [--seed <n>] [--tree-degree D]
//! ```
//!
//! Every flag is optional: the defaults are DCO, 128 nodes, 60 chunks,
//! 16 neighbors, no churn, a 160 s horizon and seed 42. A bad flag exits 2
//! with the usage line.

use dco_bench::{run, Method, RunParams};
use dco_sim::time::{SimDuration, SimTime};
use dco_workload::ChurnConfig;

struct Args {
    method: Method,
    params: RunParams,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut method = Method::Dco;
    let mut params = RunParams::paper_default(42);
    params.n_nodes = 128;
    params.n_chunks = 60;
    params.neighbors = 16;
    params.horizon = SimTime::from_secs(160);
    params.fill_offset = SimDuration::from_secs(10);
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        let mut val = || -> Result<&str, String> {
            i += 1;
            argv.get(i)
                .map(String::as_str)
                .ok_or(format!("{key} needs a value"))
        };
        match key {
            "--method" => {
                method = match val()? {
                    "dco" => Method::Dco,
                    "pull" => Method::Pull,
                    "push" => Method::Push,
                    "tree" => Method::Tree,
                    "tree*" | "treestar" => Method::TreeStar,
                    other => return Err(format!("unknown method {other}")),
                }
            }
            "--nodes" => params.n_nodes = val()?.parse().map_err(|e| format!("{e}"))?,
            "--chunks" => params.n_chunks = val()?.parse().map_err(|e| format!("{e}"))?,
            "--neighbors" => params.neighbors = val()?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => params.seed = val()?.parse().map_err(|e| format!("{e}"))?,
            "--horizon" => {
                params.horizon = SimTime::from_secs(val()?.parse().map_err(|e| format!("{e}"))?)
            }
            "--churn" => {
                let life: u64 = val()?.parse().map_err(|e| format!("{e}"))?;
                params.churn = Some(ChurnConfig::paper_fig12(life));
            }
            "--tree-degree" => {
                params.tree_degree = Some(val()?.parse().map_err(|e| format!("{e}"))?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(Args { method, params })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: run_scenario [--method dco|pull|push|tree|tree*] [--nodes N] [--chunks C] [--neighbors K] [--churn LIFE] [--horizon S] [--seed N] [--tree-degree D]");
            std::process::exit(2);
        }
    };
    let t0 = std::time::Instant::now();
    let r = run(args.method, &args.params);
    let wall = t0.elapsed();

    println!(
        "== {} | {} nodes | {} chunks | {} neighbors | churn: {} | seed {} ==",
        args.method.label(),
        args.params.n_nodes,
        args.params.n_chunks,
        args.params.neighbors,
        args.params
            .churn
            .as_ref()
            .map(|c| format!("mean life {}", c.mean_life))
            .unwrap_or_else(|| "none".into()),
        args.params.seed,
    );
    println!("mean mesh delay     : {:>10.2} s", r.mean_mesh_delay);
    println!("fill @ +2 s         : {:>10.3}", r.fill_at_2s);
    println!(
        "fill @ +{} s        : {:>10.3}",
        args.params.fill_offset.as_secs(),
        r.fill_at_offset
    );
    println!("extra overhead      : {:>10} messages", r.overhead);
    println!("data transmissions  : {:>10}", r.data_msgs);
    println!("received by horizon : {:>10.1} %", r.received_pct);
    println!("wall time           : {:>10.1} s", wall.as_secs_f64());
}
