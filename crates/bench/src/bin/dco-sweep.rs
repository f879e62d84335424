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

use dco_bench::runner::Method;
use dco_bench::sweep::{run_sweep, SweepConfig};
use dco_workload::{ChurnLevel, ScenarioGrid};

fn parse_methods(s: &str) -> Result<Vec<Method>, String> {
    s.split(',')
        .map(|m| match m.trim() {
            "dco" => Ok(Method::Dco),
            "pull" => Ok(Method::Pull),
            "push" => Ok(Method::Push),
            "tree" => Ok(Method::Tree),
            "tree*" | "treestar" => Ok(Method::TreeStar),
            other => Err(format!("unknown method {other:?}")),
        })
        .collect()
}

fn parse_churn(s: &str) -> Result<Vec<ChurnLevel>, String> {
    s.split(',')
        .map(|c| {
            let c = c.trim();
            if c == "static" {
                Ok(ChurnLevel::Static)
            } else if let Some(life) = c.strip_prefix("life") {
                life.parse()
                    .map(ChurnLevel::MeanLife)
                    .map_err(|e| format!("bad churn level {c:?}: {e}"))
            } else {
                Err(format!("unknown churn level {c:?} (use static or life<S>)"))
            }
        })
        .collect()
}

fn parse_u32_list(s: &str) -> Result<Vec<u32>, String> {
    s.split(',')
        .map(|n| {
            n.trim()
                .parse()
                .map_err(|e| format!("bad number {n:?}: {e}"))
        })
        .collect()
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
            "--preset" => {
                let name = val()?;
                cfg = match name {
                    "tiny" => SweepConfig::tiny(),
                    "small" => SweepConfig::small(),
                    "paper" => SweepConfig::paper(),
                    other => return Err(format!("unknown preset {other:?}")),
                };
                tag = name.to_string();
            }
            "--methods" => cfg.methods = parse_methods(val()?)?,
            "--nodes" => cfg.grid.populations = parse_u32_list(val()?)?,
            "--churn" => cfg.grid.churn = parse_churn(val()?)?,
            "--seeds" => {
                let n: usize = val()?.parse().map_err(|e| format!("{e}"))?;
                cfg.grid.seeds = ScenarioGrid::seed_list(0xD15C0, n);
            }
            "--master-seed" => cfg.master_seed = val()?.parse().map_err(|e| format!("{e}"))?,
            "--jobs" => cfg.jobs = val()?.parse().map_err(|e| format!("{e}"))?,
            "--out" => out_dir = val()?.to_string(),
            "--tag" => tag = val()?.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
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
    let cells = args.cfg.methods.len() * args.cfg.grid.len();
    eprintln!(
        "# sweep: {} methods x {} populations x {} churn levels x {} seeds = {} cells, jobs={}",
        args.cfg.methods.len(),
        args.cfg.grid.populations.len(),
        args.cfg.grid.churn.len(),
        args.cfg.grid.seeds.len(),
        cells,
        if args.cfg.jobs == 0 {
            "auto".to_string()
        } else {
            args.cfg.jobs.to_string()
        },
    );
    let t0 = std::time::Instant::now();
    let report = run_sweep(&args.cfg);
    let wall = t0.elapsed();

    print!("{}", report.to_table());
    println!(
        "# {} cells in {:.1}s ({:.2}s/cell wall)",
        cells,
        wall.as_secs_f64(),
        wall.as_secs_f64() / cells.max(1) as f64
    );

    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let path = format!("{}/sweep_{}.json", args.out_dir, args.tag);
    std::fs::write(&path, report.to_json()).expect("write report");
    println!("# wrote {path}");
}
