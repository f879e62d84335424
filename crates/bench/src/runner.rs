//! One-stop experiment runner: builds a scenario, runs one protocol over
//! it, and extracts every §IV metric from the same run.

use dco_baselines::{BaselineConfig, PullProtocol, PushProtocol, TreeProtocol};
use dco_core::proto::{DcoConfig, DcoProtocol};
use dco_metrics::StreamObserver;
use dco_sim::counters::{CounterSnapshot, Counters};
use dco_sim::engine::{Protocol, Simulator};
use dco_sim::net::NetConfig;
use dco_sim::time::SimTime;
use dco_workload::{ChurnConfig, Scenario};

/// The five methods of §IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// The paper's contribution.
    Dco,
    /// Pull-based mesh.
    Pull,
    /// Push-based mesh.
    Push,
    /// Tree with out-degree `neighbors / 8` (the paper's default rule).
    Tree,
    /// "tree*": out-degree = the full neighbor count.
    TreeStar,
}

impl Method {
    /// The figure label used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Method::Dco => "DCO",
            Method::Pull => "pull",
            Method::Push => "push",
            Method::Tree => "tree",
            Method::TreeStar => "tree*",
        }
    }

    /// The four methods of the main comparison.
    pub const MAIN: [Method; 4] = [Method::Dco, Method::Push, Method::Pull, Method::Tree];
}

/// Parameters of one simulation run.
#[derive(Clone, Debug)]
pub struct RunParams {
    /// Nodes including the server.
    pub n_nodes: u32,
    /// Chunks emitted.
    pub n_chunks: u32,
    /// Neighbor count (mesh degree / DCO successor-list length; the tree
    /// derives its out-degree from this).
    pub neighbors: usize,
    /// Churn, if any.
    pub churn: Option<ChurnConfig>,
    /// Run horizon.
    pub horizon: SimTime,
    /// Overrides the tree baseline's out-degree (None = the paper's
    /// `neighbors / 8` rule). The paper's non-sweep figures run the tree at
    /// its default of 3 children; under our explicit 600 kbps upload
    /// serialization the sustainable equivalent is 2 (3 × 300 kbps exceeds
    /// a peer's uplink), so the churn/time figures pass `Some(2)`.
    pub tree_degree: Option<usize>,
    /// Offset after generation at which the Fig. 6 fill ratio is measured.
    /// The paper samples at +2 s; with explicit 0.5 s store-and-forward
    /// serialization per peer hop, the equivalent dissemination phase sits
    /// around +15 s (see EXPERIMENTS.md).
    pub fill_offset: dco_sim::time::SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl RunParams {
    /// §IV defaults: 512 nodes, 100 chunks, no churn, measured to 200 s.
    pub fn paper_default(seed: u64) -> Self {
        RunParams {
            n_nodes: 512,
            n_chunks: 100,
            neighbors: 32,
            churn: None,
            horizon: SimTime::from_secs(200),
            tree_degree: None,
            fill_offset: dco_sim::time::SimDuration::from_secs(15),
            seed,
        }
    }

    /// A scaled-down variant for fast tests/benches.
    pub fn small(seed: u64) -> Self {
        RunParams {
            n_nodes: 64,
            n_chunks: 20,
            neighbors: 16,
            churn: None,
            horizon: SimTime::from_secs(80),
            tree_degree: None,
            fill_offset: dco_sim::time::SimDuration::from_secs(5),
            seed,
        }
    }

    /// The workload scenario these parameters describe. Public so the
    /// sharded runner can install it in the `add_nodes` →
    /// `enable_sharding` → `schedule_membership` order.
    pub fn scenario(&self) -> Scenario {
        let mut s = Scenario::paper_default(self.seed);
        s.n_nodes = self.n_nodes;
        s.n_chunks = self.n_chunks;
        s.horizon = self.horizon;
        s.churn = self.churn.clone();
        s
    }

    /// The DCO configuration these parameters describe: the paper's churn
    /// tuning when churn is on, its static defaults otherwise, with the
    /// neighbor count overridden. The single-process and sharded runners
    /// both build DCO from it.
    pub fn dco_config(&self) -> DcoConfig {
        let mut cfg = if self.churn.is_some() {
            DcoConfig::paper_churn(self.n_nodes, self.n_chunks)
        } else {
            DcoConfig::paper_default(self.n_nodes, self.n_chunks)
        };
        cfg.neighbors = self.neighbors;
        cfg
    }
}

/// Everything a figure needs, extracted from one finished run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Mean mesh delay over chunks (s), unspread chunks capped at the
    /// horizon (metric 1).
    pub mean_mesh_delay: f64,
    /// Mean fill ratio 2 s after each chunk's generation (the paper's
    /// literal Fig. 6 statistic).
    pub fill_at_2s: f64,
    /// Mean fill ratio `fill_offset` after each chunk's generation (the
    /// time-rebased Fig. 6 statistic; see `RunParams::fill_offset`).
    pub fill_at_offset: f64,
    /// Global fill ratio per second over the run (Fig. 7).
    pub fill_timeline: Vec<(f64, f64)>,
    /// Extra overhead: control units excluding DHT ring maintenance
    /// (metric 3).
    pub overhead: u64,
    /// Cumulative control units per second (Fig. 10).
    pub overhead_timeline: Vec<(f64, f64)>,
    /// % of expected chunk deliveries completed by each whole second
    /// (metric 4, Figs. 11–12).
    pub received_timeline: Vec<(f64, f64)>,
    /// % received by the horizon.
    pub received_pct: f64,
    /// Data (chunk) transmissions, duplicates included.
    pub data_msgs: u64,
}

/// Overhead units per the paper's metric: every control transmission except
/// DHT ring maintenance (`chord.*` — stabilization/fingers are structure
/// upkeep, not chunk signalling; the no-churn figures have none anyway).
pub fn overhead_units(counters: &Counters) -> u64 {
    let chord: u64 = counters
        .tags()
        .filter(|(tag, _)| tag.starts_with("chord."))
        .map(|(_, n)| n)
        .sum();
    counters.control_total() - chord
}

fn extract<P: Protocol>(
    sim: &Simulator<P>,
    obs: &StreamObserver,
    horizon: SimTime,
    fill_offset: dco_sim::time::SimDuration,
) -> RunResult {
    let secs = horizon.as_secs();
    // One fold over the reception slab yields every slab-derived statistic
    // — both per-second timelines, the mesh delay, the fill-at-offset means
    // and the received percentage — in O(pairs + seconds) instead of one
    // O(pairs) pass per metric. The fold replays each metric's accumulation
    // order, so every derived float is bit-identical to the per-metric
    // originals (asserted in `dco-metrics`' observer tests).
    let fold = obs.fold_figures(
        horizon,
        &[dco_sim::time::SimDuration::from_secs(2), fill_offset],
    );
    let (cumulative, total) = (&fold.received_by_second, fold.expected_pairs);
    let fill_timeline: Vec<(f64, f64)> = (0..=secs)
        .map(|t| {
            let ratio = if total == 0 {
                0.0
            } else {
                cumulative[t as usize] as f64 / total as f64
            };
            (t as f64, ratio)
        })
        .collect();
    let received_timeline: Vec<(f64, f64)> =
        fill_timeline.iter().map(|&(t, r)| (t, 100.0 * r)).collect();
    let overhead_timeline: Vec<(f64, f64)> = (0..=secs)
        .map(|t| (t as f64, sim.counters().control_through_second(t) as f64))
        .collect();
    RunResult {
        mean_mesh_delay: fold.mean_mesh_delay,
        fill_at_2s: fold.fill_at_offsets[0],
        fill_at_offset: fold.fill_at_offsets[1],
        fill_timeline,
        overhead: overhead_units(sim.counters()),
        overhead_timeline,
        received_timeline,
        received_pct: fold.received_pct,
        data_msgs: sim.counters().data_total(),
    }
}

/// Bit-exactness evidence of one finished run: comparing two [`CellProof`]s
/// decides whether the runs were identical event-for-event. The sweep
/// harness records one per cell and the determinism tests compare them
/// across repeats and `--jobs` levels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellProof {
    /// [`Simulator::trace_digest`] at the end of the run.
    pub trace_digest: u64,
    /// [`Counters::digest`] at the end of the run.
    pub counters_digest: u64,
    /// The full counter snapshot (strictly stronger than its digest; kept
    /// so test failures show *which* counter diverged).
    pub snapshot: CounterSnapshot,
    /// Events dispatched.
    pub events: u64,
}

/// A run's metrics plus its determinism proof.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// The §IV metrics.
    pub result: RunResult,
    /// The bit-exactness evidence.
    pub proof: CellProof,
}

fn proof_of<P: Protocol>(sim: &Simulator<P>) -> CellProof {
    CellProof {
        trace_digest: sim.trace_digest(),
        counters_digest: sim.counters().digest(),
        snapshot: sim.counters().snapshot(),
        events: sim.stats().events_processed,
    }
}

/// Runs `protocol` over the scenario of `params` to the horizon and
/// extracts the metrics and the proof; `obs` reaches its observer.
fn run_protocol<P: Protocol>(
    params: &RunParams,
    protocol: P,
    obs: impl Fn(&P) -> &StreamObserver,
) -> RunStats {
    let mut sim = Simulator::with_capacity(
        protocol,
        NetConfig::paper_model(),
        params.seed,
        params.n_nodes as usize,
    );
    params.scenario().install(&mut sim);
    sim.run_until(params.horizon);
    RunStats {
        result: extract(
            &sim,
            obs(sim.protocol()),
            params.horizon,
            params.fill_offset,
        ),
        proof: proof_of(&sim),
    }
}

/// Runs `method` over `params`, extracting the metrics **and** the
/// determinism proof from the same simulation.
pub fn run_with_stats(method: Method, params: &RunParams) -> RunStats {
    let baseline = || BaselineConfig {
        neighbors: params.neighbors,
        ..BaselineConfig::paper_default(params.n_nodes, params.n_chunks)
    };
    match method {
        Method::Dco => run_protocol(params, DcoProtocol::new(params.dco_config()), |p| &p.obs),
        Method::Pull => run_protocol(params, PullProtocol::new(baseline()), |p| &p.obs),
        Method::Push => run_protocol(params, PushProtocol::new(baseline()), |p| &p.obs),
        Method::Tree => {
            let tree = match params.tree_degree {
                Some(d) => TreeProtocol::new(baseline(), d),
                None => TreeProtocol::with_paper_degree(baseline()),
            };
            run_protocol(params, tree, |p| &p.obs)
        }
        Method::TreeStar => {
            let tree = TreeProtocol::with_star_degree(baseline());
            run_protocol(params, tree, |p| &p.obs)
        }
    }
}

/// Runs `method` over `params` and extracts the metrics.
pub fn run(method: Method, params: &RunParams) -> RunResult {
    run_with_stats(method, params).result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_methods_complete_a_small_static_run() {
        let params = RunParams {
            n_nodes: 24,
            n_chunks: 8,
            neighbors: 8,
            churn: None,
            horizon: SimTime::from_secs(60),
            tree_degree: None,
            fill_offset: dco_sim::time::SimDuration::from_secs(5),
            seed: 3,
        };
        for m in [
            Method::Dco,
            Method::Pull,
            Method::Push,
            Method::Tree,
            Method::TreeStar,
        ] {
            let r = run(m, &params);
            assert!(
                r.received_pct > 95.0,
                "{} only delivered {:.1}%",
                m.label(),
                r.received_pct
            );
            assert!(r.mean_mesh_delay > 0.0, "{}", m.label());
            if m == Method::Tree || m == Method::TreeStar {
                assert_eq!(r.overhead, 0, "tree must have zero overhead");
            } else {
                assert!(r.overhead > 0, "{}", m.label());
            }
        }
    }

    #[test]
    fn timelines_are_monotone() {
        let params = RunParams {
            n_nodes: 16,
            n_chunks: 6,
            neighbors: 6,
            churn: None,
            horizon: SimTime::from_secs(40),
            tree_degree: None,
            fill_offset: dco_sim::time::SimDuration::from_secs(5),
            seed: 5,
        };
        let r = run(Method::Dco, &params);
        for w in r.fill_timeline.windows(2) {
            assert!(w[1].1 >= w[0].1, "fill must be monotone");
        }
        for w in r.overhead_timeline.windows(2) {
            assert!(w[1].1 >= w[0].1, "cumulative overhead must be monotone");
        }
        for w in r.received_timeline.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e9,
                "received% monotone per fixed audience"
            );
        }
    }

    #[test]
    fn overhead_units_excludes_ring_maintenance() {
        use dco_sim::counters::Counters;
        use dco_sim::time::SimTime;
        let mut c = Counters::new();
        c.record_control(SimTime::ZERO, "dco.lookup");
        c.record_control(SimTime::ZERO, "dco.insert");
        c.record_control(SimTime::ZERO, "chord.stab");
        c.record_control(SimTime::ZERO, "chord.find");
        c.record_control(SimTime::ZERO, "pull.bufmap");
        assert_eq!(c.control_total(), 5);
        assert_eq!(overhead_units(&c), 3, "chord.* excluded");
    }

    #[test]
    fn method_labels() {
        assert_eq!(Method::Dco.label(), "DCO");
        assert_eq!(Method::TreeStar.label(), "tree*");
        assert_eq!(Method::MAIN.len(), 4);
    }

    #[test]
    fn runs_are_deterministic() {
        let params = RunParams {
            n_nodes: 16,
            n_chunks: 5,
            neighbors: 6,
            churn: None,
            horizon: SimTime::from_secs(30),
            tree_degree: None,
            fill_offset: dco_sim::time::SimDuration::from_secs(5),
            seed: 9,
        };
        let a = run(Method::Push, &params);
        let b = run(Method::Push, &params);
        assert_eq!(a.overhead, b.overhead);
        assert_eq!(a.data_msgs, b.data_msgs);
        assert_eq!(a.mean_mesh_delay, b.mean_mesh_delay);
    }

    #[test]
    fn proofs_are_bit_exact_across_repeats_and_seed_sensitive() {
        let params = |seed| RunParams {
            n_nodes: 16,
            n_chunks: 5,
            neighbors: 6,
            churn: None,
            horizon: SimTime::from_secs(30),
            tree_degree: None,
            fill_offset: dco_sim::time::SimDuration::from_secs(5),
            seed,
        };
        let a = run_with_stats(Method::Dco, &params(9));
        let b = run_with_stats(Method::Dco, &params(9));
        assert_eq!(a.proof, b.proof);
        // Seed sensitivity is asserted on pull, whose mesh shuffles its
        // neighbor candidates. (A static DCO run under the constant-latency
        // paper model consumes no randomness and is seed-invariant.)
        let c = run_with_stats(Method::Pull, &params(10));
        let d = run_with_stats(Method::Pull, &params(9));
        assert_ne!(d.proof.trace_digest, c.proof.trace_digest);
        // Different methods on the same seed run different events.
        assert_ne!(a.proof.trace_digest, d.proof.trace_digest);
        assert!(a.proof.events > 0);
    }
}
