//! Runs the DESIGN.md ablation studies and prints their tables.
//!
//! ```text
//! ablations [--scale paper|small]
//! ```

use dco_bench::ablation::{run_studies, to_table, STUDIES};
use dco_bench::figs::FigScale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1));
    let scale = match name.map(String::as_str) {
        Some("paper") => FigScale::paper(),
        Some("small") | None => FigScale::small(),
        Some(other) => {
            eprintln!("unknown scale {other} (use paper|small)");
            std::process::exit(2);
        }
    };

    let t0 = std::time::Instant::now();
    let studies = run_studies(&scale);
    // Wall time goes to stderr: stdout is the committed, diffed tables.
    eprintln!("# generated in {:.1}s", t0.elapsed().as_secs_f64());
    for (study, runs) in STUDIES.iter().zip(&studies) {
        println!("{}\n", to_table(study, runs));
    }
}
