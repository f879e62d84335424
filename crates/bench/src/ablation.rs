//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each study runs DCO with one knob flipped and reports the same §IV
//! metrics, so the contribution of each mechanism is measurable:
//!
//! * **provider selection** — the paper's sufficient-bandwidth rule vs a
//!   random provider;
//! * **tier mode** — the §IV flat ring vs §III's hierarchical
//!   coordinators-plus-clients with elastic promotion;
//! * **bandwidth model** — the paper's sender-side-only queueing vs the
//!   full store-and-forward model (both directions charged).

use dco_core::proto::{DcoConfig, DcoProtocol, TierMode};
use dco_sim::engine::Simulator;
use dco_sim::net::NetConfig;
use dco_sim::time::{SimDuration, SimTime};
use dco_workload::Scenario;

use crate::figs::FigScale;
use crate::runner::overhead_units;
use crate::sweep::pool;

/// One ablation variant: a label plus the config/network it runs with.
struct Variant {
    label: &'static str,
    cfg: DcoConfig,
    net: NetConfig,
}

/// Metrics of one ablation run.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Mean mesh delay (s).
    pub mesh_delay: f64,
    /// % of expected deliveries completed by the horizon.
    pub received_pct: f64,
    /// Extra overhead (messages, ring maintenance excluded).
    pub overhead: u64,
    /// Fetch failures (timeouts / busy / not-found answers).
    pub fetch_failures: u64,
}

/// Runs one variant on the static §IV scenario at the scale's first seed.
fn run_variant(v: &Variant, scale: &FigScale) -> AblationRow {
    let seed = scale.seeds[0];
    let mut scenario = Scenario::paper_default(seed);
    scenario.n_nodes = v.cfg.n_nodes;
    scenario.n_chunks = v.cfg.n_chunks;
    scenario.horizon = SimTime::from_secs(scale.static_horizon);
    let mut sim = Simulator::with_capacity(
        DcoProtocol::new(v.cfg.clone()),
        v.net.clone(),
        seed,
        scenario.n_nodes as usize,
    );
    scenario.install(&mut sim);
    sim.run_until(scenario.horizon);
    let p = sim.protocol();
    let m = p.obs.fold_figures(scenario.horizon, &[]);
    AblationRow {
        label: v.label.to_string(),
        mesh_delay: m.mean_mesh_delay,
        received_pct: m.received_pct,
        overhead: overhead_units(sim.counters()),
        fetch_failures: p.fetch_failures,
    }
}

fn base_cfg(scale: &FigScale) -> DcoConfig {
    let mut cfg = DcoConfig::paper_default(scale.n_nodes, scale.n_chunks);
    cfg.neighbors = scale.default_neighbors;
    cfg
}

/// Provider selection: sufficient-bandwidth round-robin vs random.
pub fn ablate_selection(scale: &FigScale) -> Vec<AblationRow> {
    let mut random = base_cfg(scale);
    random.select_policy = dco_core::index::SelectPolicy::Random;
    let mut least = base_cfg(scale);
    least.select_policy = dco_core::index::SelectPolicy::LeastLoaded;
    let variants = [
        Variant {
            label: "sufficient-bandwidth (paper)",
            cfg: base_cfg(scale),
            net: NetConfig::paper_model(),
        },
        Variant {
            label: "random provider",
            cfg: random,
            net: NetConfig::paper_model(),
        },
        Variant {
            label: "least-loaded (extension)",
            cfg: least,
            net: NetConfig::paper_model(),
        },
    ];
    pool::par_map(scale.jobs.max(variants.len()), &variants, |v| {
        run_variant(v, scale)
    })
}

/// Tier mode: the §IV flat ring vs §III's hierarchical infrastructure.
pub fn ablate_tier(scale: &FigScale) -> Vec<AblationRow> {
    let mut hier = base_cfg(scale);
    hier.tier = TierMode::Hierarchical {
        stable_threshold: 0.6,
        overload_lookups: 200,
        check_every: SimDuration::from_secs(5),
    };
    let variants = [
        Variant {
            label: "flat ring (§IV)",
            cfg: base_cfg(scale),
            net: NetConfig::paper_model(),
        },
        Variant {
            label: "hierarchical (§III)",
            cfg: hier,
            net: NetConfig::paper_model(),
        },
    ];
    pool::par_map(scale.jobs.max(variants.len()), &variants, |v| {
        run_variant(v, scale)
    })
}

/// Bandwidth model: the paper's sender-side-only queueing vs the full
/// store-and-forward model.
pub fn ablate_bandwidth_model(scale: &FigScale) -> Vec<AblationRow> {
    let variants = [
        Variant {
            label: "sender-side queueing (paper)",
            cfg: base_cfg(scale),
            net: NetConfig::paper_model(),
        },
        Variant {
            label: "full store-and-forward",
            cfg: base_cfg(scale),
            net: NetConfig::default(),
        },
    ];
    pool::par_map(scale.jobs.max(variants.len()), &variants, |v| {
        run_variant(v, scale)
    })
}

/// Renders ablation rows as an aligned text table.
pub fn to_table(title: &str, rows: &[AblationRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{:<32} {:>12} {:>12} {:>12} {:>12}",
        "variant", "delay (s)", "received %", "overhead", "failures"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<32} {:>12.2} {:>12.1} {:>12} {:>12}",
            r.label, r.mesh_delay, r.received_pct, r.overhead, r.fetch_failures
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FigScale {
        FigScale {
            n_nodes: 20,
            n_chunks: 8,
            churn_chunks: 12,
            static_horizon: 40,
            churn_horizon: 60,
            neighbor_sweep: vec![4],
            population_sweep: vec![20],
            default_neighbors: 8,
            fill_offset_secs: 5,
            seeds: vec![3],
            jobs: 2,
        }
    }

    #[test]
    fn selection_ablation_produces_complete_rows() {
        let rows = ablate_selection(&tiny());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.received_pct > 95.0, "{}: {:.1}%", r.label, r.received_pct);
        }
    }

    #[test]
    fn tier_ablation_both_modes_deliver() {
        let rows = ablate_tier(&tiny());
        for r in &rows {
            assert!(r.received_pct > 90.0, "{}: {:.1}%", r.label, r.received_pct);
        }
    }

    #[test]
    fn bandwidth_model_ablation_shows_slower_full_model() {
        let rows = ablate_bandwidth_model(&tiny());
        let paper = &rows[0];
        let full = &rows[1];
        assert!(
            full.mesh_delay >= paper.mesh_delay,
            "download charging cannot make dissemination faster: {:.2} vs {:.2}",
            full.mesh_delay,
            paper.mesh_delay
        );
    }

    #[test]
    fn table_renders() {
        let rows = ablate_selection(&tiny());
        let t = to_table("test", &rows);
        assert!(t.contains("variant"));
        assert!(t.contains("sufficient-bandwidth"));
    }
}
