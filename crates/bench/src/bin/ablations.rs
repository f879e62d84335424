//! Runs the DESIGN.md ablation studies and prints their tables.
//!
//! ```text
//! ablations [--scale paper|small]
//! ```

use dco_bench::ablation;
use dco_bench::figs::FigScale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match args.iter().position(|a| a == "--scale") {
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("paper") => FigScale::paper(),
            Some("small") | None => FigScale::small(),
            Some(other) => {
                eprintln!("unknown scale {other} (use paper|small)");
                std::process::exit(2);
            }
        },
        None => FigScale::small(),
    };

    type Study = fn(&FigScale) -> Vec<ablation::AblationRow>;
    // No study B: it compared Eq. 2's prefetch window, which never binds
    // and is not modelled (DESIGN.md §4). The other letters keep the names
    // EXPERIMENTS.md and results/ablations.txt use.
    let studies: [(&str, Study); 3] = [
        (
            "Ablation A: provider selection (sufficient-bandwidth vs random)",
            ablation::ablate_selection,
        ),
        (
            "Ablation C: tier mode (flat §IV ring vs hierarchical §III)",
            ablation::ablate_tier,
        ),
        (
            "Ablation D: bandwidth model (sender-side vs full store-and-forward)",
            ablation::ablate_bandwidth_model,
        ),
    ];

    for (title, f) in studies {
        let t0 = std::time::Instant::now();
        let rows = f(&scale);
        println!("{}", ablation::to_table(title, &rows));
        println!("# generated in {:.1}s\n", t0.elapsed().as_secs_f64());
    }
}
