//! The experiment runner: one [`Cell`] type, `(method, parameters,
//! design)`, and one way to run a batch of them. [`run_cells`] dedupes the
//! requested cells, runs each distinct one once on the worker pool and
//! returns a [`CellTable`]: the figures, the ablation tables, the sweep
//! aggregates and the paper-shape tests are all views over such a table.
//! Each run builds a scenario, runs one protocol over it and extracts
//! every §IV metric and its determinism proof from the same simulation.

use dco_baselines::{BaselineConfig, PullProtocol, PushProtocol, TreeProtocol};
use dco_core::index::SelectPolicy;
use dco_core::proto::{DcoConfig, DcoProtocol, TierMode};
use dco_metrics::StreamObserver;
use dco_sim::counters::{CounterSnapshot, Counters};
use dco_sim::engine::{Protocol, Simulator};
use dco_sim::net::NetConfig;
use dco_sim::time::{SimDuration, SimTime};
use dco_workload::{ChurnConfig, Scenario};

use crate::pool;

/// The five methods of §IV. Each discriminant is folded into the seeds of
/// the method's sweep cells ([`crate::sweep::expand`]), so it never
/// changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// The paper's contribution.
    Dco = 1,
    /// Pull-based mesh.
    Pull = 2,
    /// Push-based mesh.
    Push = 3,
    /// Tree with out-degree `neighbors / 8` (the paper's default rule).
    Tree = 4,
    /// "tree*": out-degree = the full neighbor count.
    TreeStar = 5,
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

    /// The method a command-line name (`dco`, `pull`, `push`, `tree`,
    /// `tree*` or `treestar`) names.
    pub fn parse(name: &str) -> Result<Method, String> {
        match name {
            "dco" => Ok(Method::Dco),
            "pull" => Ok(Method::Pull),
            "push" => Ok(Method::Push),
            "tree" => Ok(Method::Tree),
            "tree*" | "treestar" => Ok(Method::TreeStar),
            other => Err(format!("unknown method {other:?}")),
        }
    }
}

/// Parameters of one simulation run.
#[derive(Clone, Debug, PartialEq)]
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
    // O(pairs) pass per metric. Each statistic is pinned bit for bit
    // against the retained reference model (`dco-metrics` property tests).
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
    /// DCO's fetch failures (timeouts, busy and not-found answers); 0 for
    /// the baselines, which do not count them.
    pub fetch_failures: u64,
}

/// DCO's design under test: the paper's, or the alternative one ablation
/// study swaps in ([`crate::ablation`]). Figure and sweep cells run
/// [`Design::Paper`]. The network model applies to every method, the
/// provider rule and the tier to DCO only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Design {
    /// §IV: sufficient-bandwidth provider selection, a flat ring and
    /// sender-side-only queueing.
    Paper,
    /// A random provider instead of the sufficient-bandwidth rule.
    RandomProvider,
    /// The least-loaded provider (an extension, not in the paper).
    LeastLoaded,
    /// §III's hierarchical coordinators-plus-clients tier with elastic
    /// promotion instead of the flat ring.
    Hierarchical,
    /// The full store-and-forward network model: a transfer also
    /// serializes through the receiver's download pipe.
    StoreAndForward,
}

/// One simulation: the unit the pipeline dedupes, runs and records.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// The protocol.
    pub method: Method,
    /// Its parameters.
    pub params: RunParams,
    /// The design choices it runs with.
    pub design: Design,
}

impl Cell {
    /// `method` over `params` under the paper's design. Only tree cells
    /// keep `tree_degree`, the one setting no other method reads, so a run
    /// two figures request with and without the override is one cell.
    pub fn new(method: Method, mut params: RunParams) -> Self {
        if method != Method::Tree {
            params.tree_degree = None;
        }
        Cell {
            method,
            params,
            design: Design::Paper,
        }
    }

    /// The cell as the dedupe compares it: with the seed cleared when the
    /// run draws no random number — a static DCO, tree or tree* run under
    /// the paper's design (constant latency, no loss, no churn schedule,
    /// no neighbour shuffle). The runner tests assert the invariance for
    /// each of those methods.
    fn run_key(&self) -> Cell {
        let mut key = self.clone();
        let seedless = matches!(self.method, Method::Dco | Method::Tree | Method::TreeStar);
        if seedless && self.design == Design::Paper && self.params.churn.is_none() {
            key.params.seed = 0;
        }
        key
    }
}

/// The runs behind a batch of requested cells: each distinct cell once.
#[derive(Clone, Debug)]
pub struct CellTable {
    /// The distinct cells, in order of first request, with their runs.
    pub runs: Vec<(Cell, RunStats)>,
    /// For each requested cell, the index of its run in `runs`.
    pub index: Vec<usize>,
}

impl CellTable {
    /// The run behind requested cell `i`.
    pub fn stats(&self, i: usize) -> &RunStats {
        &self.runs[self.index[i]].1
    }
}

/// The distinct runs of `cells`, each as first requested, and for each
/// requested cell the index of its run.
pub(crate) fn dedupe(cells: &[Cell]) -> (Vec<Cell>, Vec<usize>) {
    let (mut keys, mut distinct) = (Vec::new(), Vec::new());
    let index = cells
        .iter()
        .map(|c| {
            let key = c.run_key();
            keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                distinct.push(c.clone());
                distinct.len() - 1
            })
        })
        .collect();
    (distinct, index)
}

/// Runs each distinct cell of `cells` once on `jobs` worker threads (0 =
/// one per core). A cell's run does not depend on the batch, its position
/// or the thread count: its proof is the one it has run alone.
pub fn run_cells(cells: &[Cell], jobs: usize) -> CellTable {
    let (distinct, index) = dedupe(cells);
    let stats = pool::par_map(jobs, &distinct, |c| simulate(c.method, &c.params, c.design));
    CellTable {
        runs: distinct.into_iter().zip(stats).collect(),
        index,
    }
}

fn proof_of<P: Protocol>(sim: &Simulator<P>) -> CellProof {
    CellProof {
        trace_digest: sim.trace_digest(),
        counters_digest: sim.counters().digest(),
        snapshot: sim.counters().snapshot(),
        events: sim.stats().events_processed,
    }
}

/// Runs `protocol` over the scenario of `params` to the horizon on `net`
/// and extracts the metrics and the proof; `obs` reaches its observer
/// and fetch-failure count.
fn run_protocol<P: Protocol>(
    params: &RunParams,
    net: NetConfig,
    protocol: P,
    obs: impl Fn(&P) -> (&StreamObserver, u64),
) -> RunStats {
    let mut sim = Simulator::with_capacity(protocol, net, params.seed, params.n_nodes as usize);
    params.scenario().install(&mut sim);
    sim.run_until(params.horizon);
    let (observer, fetch_failures) = obs(sim.protocol());
    RunStats {
        result: extract(&sim, observer, params.horizon, params.fill_offset),
        proof: proof_of(&sim),
        fetch_failures,
    }
}

/// Runs `method` over `params` under `design`.
fn simulate(method: Method, params: &RunParams, design: Design) -> RunStats {
    let net = match design {
        Design::StoreAndForward => NetConfig::default(),
        _ => NetConfig::paper_model(),
    };
    let baseline = || BaselineConfig {
        neighbors: params.neighbors,
        ..BaselineConfig::paper_default(params.n_nodes, params.n_chunks)
    };
    match method {
        Method::Dco => {
            let mut cfg = params.dco_config();
            match design {
                Design::RandomProvider => cfg.select_policy = SelectPolicy::Random,
                Design::LeastLoaded => cfg.select_policy = SelectPolicy::LeastLoaded,
                Design::Hierarchical => {
                    cfg.tier = TierMode::Hierarchical {
                        stable_threshold: 0.6,
                        overload_lookups: 200,
                        check_every: SimDuration::from_secs(5),
                    }
                }
                Design::Paper | Design::StoreAndForward => {}
            }
            run_protocol(params, net, DcoProtocol::new(cfg), |p| {
                (&p.obs, p.fetch_failures)
            })
        }
        Method::Pull => run_protocol(params, net, PullProtocol::new(baseline()), |p| (&p.obs, 0)),
        Method::Push => run_protocol(params, net, PushProtocol::new(baseline()), |p| (&p.obs, 0)),
        Method::Tree => {
            let tree = match params.tree_degree {
                Some(d) => TreeProtocol::new(baseline(), d),
                None => TreeProtocol::with_paper_degree(baseline()),
            };
            run_protocol(params, net, tree, |p| (&p.obs, 0))
        }
        Method::TreeStar => {
            let tree = TreeProtocol::with_star_degree(baseline());
            run_protocol(params, net, tree, |p| (&p.obs, 0))
        }
    }
}

/// Runs `method` over `params` under the paper's design, extracting the
/// metrics **and** the determinism proof from the same simulation.
pub fn run_with_stats(method: Method, params: &RunParams) -> RunStats {
    simulate(method, params, Design::Paper)
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
            let r = run_with_stats(m, &params).result;
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
        let r = run_with_stats(Method::Dco, &params).result;
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
        let a = run_with_stats(Method::Push, &params).result;
        let b = run_with_stats(Method::Push, &params).result;
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

    /// A cell requested twice runs once, and both requesters read the
    /// same run: the proof of a fresh run of that cell.
    #[test]
    fn a_duplicated_cell_runs_once_for_both_requesters() {
        let params = |seed| RunParams {
            n_nodes: 16,
            n_chunks: 5,
            neighbors: 6,
            churn: None,
            horizon: SimTime::from_secs(30),
            tree_degree: Some(2),
            fill_offset: dco_sim::time::SimDuration::from_secs(5),
            seed,
        };
        let pull = Cell::new(Method::Pull, params(9));
        // Only tree cells keep the tree degree: this is the same run.
        let pull_again = Cell::new(
            Method::Pull,
            RunParams {
                tree_degree: None,
                ..params(9)
            },
        );
        let cells = [pull, Cell::new(Method::Pull, params(10)), pull_again];
        let table = run_cells(&cells, 2);
        assert_eq!(table.runs.len(), 2, "the duplicate must run once");
        assert_eq!(table.index, vec![0, 1, 0]);
        assert_eq!(table.stats(0).proof, table.stats(2).proof);
        assert_ne!(table.stats(0).proof, table.stats(1).proof);
        assert_eq!(
            table.stats(2).proof,
            run_with_stats(Method::Pull, &params(9)).proof
        );
        // The tree reads its degree, so there it splits cells.
        assert_ne!(
            Cell::new(Method::Tree, params(9)),
            Cell::new(
                Method::Tree,
                RunParams {
                    tree_degree: None,
                    ..params(9)
                }
            )
        );
    }

    /// The dedupe runs one seed for every static DCO, tree and tree* cell
    /// (`Cell::run_key`): each of them must give the same proof at other
    /// seeds, with and without the tree-degree override. Pull, push and
    /// churn runs read their seed and stay apart.
    #[test]
    fn seedless_runs_ignore_their_seed_and_the_rest_stay_apart() {
        let params = |seed, tree_degree, churn: Option<ChurnConfig>| RunParams {
            n_nodes: 24,
            n_chunks: 6,
            neighbors: 8,
            churn,
            horizon: SimTime::from_secs(40),
            tree_degree,
            fill_offset: dco_sim::time::SimDuration::from_secs(5),
            seed,
        };
        for method in [Method::Dco, Method::Tree, Method::TreeStar] {
            for degree in [None, Some(2)] {
                let proof = |seed| run_with_stats(method, &params(seed, degree, None)).proof;
                assert_eq!(proof(3), proof(77), "{} d={degree:?}", method.label());
                let cells = [3, 77].map(|s| Cell::new(method, params(s, degree, None)));
                assert_eq!(dedupe(&cells).0.len(), 1);
            }
        }
        let churn = Some(ChurnConfig::paper_fig12(20));
        for (method, churn) in [
            (Method::Pull, None),
            (Method::Push, None),
            (Method::Dco, churn),
        ] {
            let cells = [3, 77].map(|s| Cell::new(method, params(s, None, churn.clone())));
            assert_eq!(dedupe(&cells).0.len(), 2, "{}", method.label());
        }
    }
}
