//! Regenerates the paper's figures as text tables and CSV files.
//!
//! Usage:
//!
//! ```text
//! figures [fig5 fig6 ... fig12 | all] [--scale paper|small] [--seeds N] [--jobs N] [--out DIR]
//! ```
//!
//! Every requested figure's runs go through one deduplicated batch: a run
//! several figures read happens once. With `--out DIR` each figure is
//! also written as `DIR/<fig>.csv`, and every run behind them, with its
//! parameters and trace digest, as `DIR/cells.csv`.

use std::io::Write as _;

use dco_bench::figs::{self, FigScale};

/// Prints `msg` and exits with status 2, as on any bad argument.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<&str> = Vec::new();
    let mut all = false;
    let mut scale = FigScale::paper();
    let mut out_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let mut number = || {
            value()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| fail(&format!("{arg} needs a number")))
        };
        match arg.as_str() {
            "--scale" => {
                scale = match value() {
                    Some("paper") => FigScale::paper(),
                    Some("small") => FigScale::small(),
                    other => fail(&format!("unknown scale {other:?} (use paper|small)")),
                }
            }
            "--seeds" => scale.seeds = dco_workload::ScenarioGrid::seed_list(42, number()),
            "--jobs" => scale.jobs = number(),
            "--out" => {
                let dir = value().unwrap_or_else(|| fail("--out needs a directory"));
                out_dir = Some(dir.to_string());
            }
            "all" => all = true,
            name => match figs::NAMES.iter().find(|&&n| n == name) {
                Some(&n) => which.push(n),
                None => fail(&format!("unknown figure {name} (fig5..fig12 or all)")),
            },
        }
    }
    if which.is_empty() || all {
        which = figs::NAMES.to_vec();
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    let t0 = std::time::Instant::now();
    let run = figs::run_figures(&which, &scale);
    let elapsed = t0.elapsed();
    let mut stdout = std::io::stdout().lock();
    for (name, fig) in which.iter().zip(&run.figures) {
        let _ = writeln!(stdout, "{}\n", fig.to_text_table());
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, fig.to_csv()).expect("write csv");
            let _ = writeln!(stdout, "# wrote {path}\n");
        }
    }
    let _ = writeln!(
        stdout,
        "# {} runs for {} requested cells in {:.1}s",
        run.table.runs.len(),
        run.table.index.len(),
        elapsed.as_secs_f64()
    );
    if let Some(dir) = &out_dir {
        let path = format!("{dir}/cells.csv");
        std::fs::write(&path, run.cells_csv()).expect("write cells.csv");
        let _ = writeln!(stdout, "# wrote {path}");
    }
}
