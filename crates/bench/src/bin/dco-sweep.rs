//! The batch-sweep driver: expands a (method × nodes × churn × seed)
//! grid, runs every cell in parallel, and writes the aggregated report.
//!
//! ```text
//! dco-sweep [--preset tiny|small|paper]
//!           [--methods dco,pull,push,tree,tree*]
//!           [--nodes 64,128] [--churn static,life60] [--seeds N]
//!           [--master-seed S] [--jobs N] [--out DIR] [--tag NAME]
//! ```
//!
//! Prints the aggregated table to stdout and writes the full JSON report
//! (schema `dco-sweep/v1`, documented in EXPERIMENTS.md) to
//! `DIR/sweep_<tag>.json` (default `results/sweep_<preset>.json`). The
//! per-cell `trace_digest` values in the JSON are bit-identical across
//! `--jobs` levels — diff two reports to audit determinism.

use std::str::FromStr;

use dco_bench::runner::Method;
use dco_bench::sweep::{run_sweep, SweepConfig};
use dco_workload::{ChurnLevel, ScenarioGrid};

/// A comma-separated list, each item read by `item`.
fn list<T>(s: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    s.split(',').map(|x| item(x.trim())).collect()
}

fn number<T: FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad number {s:?}: {e}"))
}

fn churn_level(c: &str) -> Result<ChurnLevel, String> {
    match c.strip_prefix("life") {
        _ if c == "static" => Ok(ChurnLevel::Static),
        Some(life) => number(life).map(ChurnLevel::MeanLife),
        None => Err(format!("unknown churn level {c:?} (use static or life<S>)")),
    }
}

struct Args {
    cfg: SweepConfig,
    out_dir: String,
    tag: String,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = SweepConfig::small();
    let mut out_dir = "results".to_string();
    let mut tag = "small".to_string();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let val = it.next().map(String::as_str);
        let val = || val.ok_or(format!("{key} needs a value"));
        match key.as_str() {
            "--preset" => {
                cfg = match val()? {
                    "tiny" => SweepConfig::tiny(),
                    "small" => SweepConfig::small(),
                    "paper" => SweepConfig::paper(),
                    other => return Err(format!("unknown preset {other:?}")),
                };
                tag = val()?.to_string();
            }
            "--methods" => cfg.methods = list(val()?, Method::parse)?,
            "--nodes" => cfg.grid.populations = list(val()?, number)?,
            "--churn" => cfg.grid.churn = list(val()?, churn_level)?,
            "--seeds" => cfg.grid.seeds = ScenarioGrid::seed_list(0xD15C0, number(val()?)?),
            "--master-seed" => cfg.master_seed = number(val()?)?,
            "--jobs" => cfg.scale.jobs = number(val()?)?,
            "--out" => out_dir = val()?.to_string(),
            "--tag" => tag = val()?.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args { cfg, out_dir, tag })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: dco-sweep [--preset tiny|small|paper] [--methods dco,pull,...] \
                 [--nodes 64,128] [--churn static,life60] [--seeds N] \
                 [--master-seed S] [--jobs N] [--out DIR] [--tag NAME]"
            );
            std::process::exit(2);
        }
    };
    let cfg = &args.cfg;
    let cells = cfg.methods.len() * cfg.grid.len();
    eprintln!(
        "# sweep: {} methods x {} populations x {} churn levels x {} seeds = {cells} cells, \
         jobs={} (0 = one per core)",
        cfg.methods.len(),
        cfg.grid.populations.len(),
        cfg.grid.churn.len(),
        cfg.grid.seeds.len(),
        cfg.scale.jobs,
    );
    let t0 = std::time::Instant::now();
    let report = run_sweep(cfg);
    let wall = t0.elapsed().as_secs_f64();

    print!("{}", report.to_table());
    let per_cell = wall / cells.max(1) as f64;
    println!("# {cells} cells in {wall:.1}s ({per_cell:.2}s/cell wall)");

    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let path = format!("{}/sweep_{}.json", args.out_dir, args.tag);
    std::fs::write(&path, report.to_json()).expect("write report");
    println!("# wrote {path}");
}
