//! Determinism regression tests: the experiment pipeline's core contract
//! is that a cell's simulation is **bit-exact** — identical event trace
//! and counter state — whether the cell runs alone, repeated, or inside a
//! parallel batch at any `--jobs` level. These tests pin that contract;
//! if one ever fails, some code path made simulation behaviour depend on
//! wall-clock, thread schedule or global state.
//!
//! It also holds every pinned digest: `GOLDEN_DIGESTS` (small cells, every
//! method) and `PINNED_DIGESTS` (the figures workload at large N, one
//! `#[ignore]` release test per row).

use dco_bench::shard_run::run_single_canonical;
use dco_bench::sweep::{expand, run_sweep, SweepConfig};
use dco_bench::{run_cells, run_with_stats, Cell, Design, Method, RunParams};
use dco_sim::time::{SimDuration, SimTime};
use dco_workload::{ChurnConfig, ScenarioGrid};

fn params(seed: u64, churn: bool) -> RunParams {
    RunParams {
        n_nodes: 20,
        n_chunks: 8,
        neighbors: 8,
        churn: churn.then(|| ChurnConfig::paper_fig12(25)),
        horizon: SimTime::from_secs(50),
        tree_degree: Some(2),
        fill_offset: SimDuration::from_secs(5),
        seed,
    }
}

#[test]
fn same_cell_twice_gives_identical_proofs_for_every_method() {
    for method in [
        Method::Dco,
        Method::Pull,
        Method::Push,
        Method::Tree,
        Method::TreeStar,
    ] {
        for churn in [false, true] {
            let a = run_with_stats(method, &params(11, churn));
            let b = run_with_stats(method, &params(11, churn));
            assert_eq!(
                a.proof,
                b.proof,
                "{} churn={churn}: repeat run diverged",
                method.label()
            );
            assert_eq!(a.result.overhead, b.result.overhead);
            assert_eq!(a.result.data_msgs, b.result.data_msgs);
            assert_eq!(a.result.mean_mesh_delay, b.result.mean_mesh_delay);
        }
    }
}

#[test]
fn trace_digest_separates_seeds_methods_and_scenarios() {
    let base = run_with_stats(Method::Dco, &params(11, false));
    let other_method = run_with_stats(Method::Pull, &params(11, false));
    let other_scenario = run_with_stats(Method::Dco, &params(11, true));
    assert_ne!(base.proof.trace_digest, other_method.proof.trace_digest);
    assert_ne!(base.proof.trace_digest, other_scenario.proof.trace_digest);

    // Seed sensitivity where the seed actually enters the event stream:
    // mesh overlays shuffle their neighbor candidates, and churn schedules
    // are drawn from the seed. (A *static* DCO or tree run under the
    // paper's constant-latency model is deliberately seed-invariant — the
    // protocol consumes no random draws there, so the digest SHOULD agree
    // across seeds.)
    let pull_a = run_with_stats(Method::Pull, &params(11, false));
    let pull_b = run_with_stats(Method::Pull, &params(12, false));
    assert_ne!(pull_a.proof.trace_digest, pull_b.proof.trace_digest);
    let churn_a = run_with_stats(Method::Dco, &params(11, true));
    let churn_b = run_with_stats(Method::Dco, &params(12, true));
    assert_ne!(churn_a.proof.trace_digest, churn_b.proof.trace_digest);
    let static_a = run_with_stats(Method::Dco, &params(11, false));
    let static_b = run_with_stats(Method::Dco, &params(12, false));
    assert_eq!(
        static_a.proof.trace_digest, static_b.proof.trace_digest,
        "static DCO under constant latency draws no randomness"
    );
}

#[test]
fn sweep_cells_are_identical_across_jobs_levels() {
    // The acceptance check of the harness: every cell of a grid produces
    // the same trace digest and the same counter snapshot under serial
    // (--jobs 1) and parallel (--jobs 4) execution.
    let mut serial = SweepConfig::tiny();
    serial.scale.jobs = 1;
    let mut parallel = SweepConfig::tiny();
    parallel.scale.jobs = 4;

    let a = run_sweep(&serial);
    let b = run_sweep(&parallel);
    assert_eq!(a.cells.len(), b.cells.len());
    assert!(!a.cells.is_empty());
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.cell, y.cell, "cell order must not depend on jobs");
        assert_eq!(
            x.stats.proof.trace_digest, y.stats.proof.trace_digest,
            "trace digest diverged for {:?}",
            x.cell
        );
        assert_eq!(
            x.stats.proof.snapshot, y.stats.proof.snapshot,
            "counter snapshot diverged for {:?}",
            x.cell
        );
    }
    // Aggregated rows follow suit.
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.mesh_delay.mean, rb.mesh_delay.mean);
        assert_eq!(ra.received_pct.mean, rb.received_pct.mean);
    }
}

#[test]
fn a_cell_run_alone_matches_the_same_cell_inside_a_sweep() {
    let cfg = SweepConfig::tiny();
    let cells = expand(&cfg);
    let inside = run_sweep(&cfg);
    for (cell, outcome) in cells.iter().zip(&inside.cells) {
        let run = cfg.cell(cell);
        let alone = run_with_stats(run.method, &run.params);
        assert_eq!(
            alone.proof, outcome.stats.proof,
            "cell {cell:?} differs alone vs in-sweep"
        );
    }
}

/// Golden trace digests for the five cross-protocol seeds, captured on the
/// seed engine (binary-heap calendar, deep-copy fan-out) before the hot-path
/// overhaul. Any engine or data-structure change that alters one of these
/// digests has changed *simulation behaviour*, not just performance.
/// On a mismatch the test prints the full regenerated table; paste it here
/// only when behaviour is changed on purpose.
const GOLDEN_DIGESTS: &[(&str, bool, u64, u64)] = &[
    ("DCO", false, 0x1f7c736e930dc180, 0xeb1f0a0f0408c949),
    ("DCO", false, 0xe3caf2b8bd3796b7, 0xeb1f0a0f0408c949),
    ("DCO", false, 0x1140ddf5c70c18ef, 0xeb1f0a0f0408c949),
    ("DCO", false, 0xeb8e4a6bdf06a8f7, 0xeb1f0a0f0408c949),
    ("DCO", false, 0xa4e06ed4afd6b5a, 0xeb1f0a0f0408c949),
    ("DCO", true, 0x1f7c736e930dc180, 0x91814ac34cefd264),
    ("DCO", true, 0xe3caf2b8bd3796b7, 0x610299b92f62c113),
    ("DCO", true, 0x1140ddf5c70c18ef, 0xdac3bceb9917f5b7),
    ("DCO", true, 0xeb8e4a6bdf06a8f7, 0x2b700c8c80c0478f),
    ("DCO", true, 0xa4e06ed4afd6b5a, 0x3e3e73738e977018),
    ("pull", false, 0x1f7c736e930dc180, 0xaac1d6c5a0debbe6),
    ("pull", false, 0xe3caf2b8bd3796b7, 0xf5b33c078a38d699),
    ("pull", false, 0x1140ddf5c70c18ef, 0x088d3ddff74400ba),
    ("pull", false, 0xeb8e4a6bdf06a8f7, 0x96a25b6cae659185),
    ("pull", false, 0xa4e06ed4afd6b5a, 0x5e770aeac4397ca0),
    ("pull", true, 0x1f7c736e930dc180, 0x18a0569e3e5b9ff7),
    ("pull", true, 0xe3caf2b8bd3796b7, 0x2ada765d96e3eee3),
    ("pull", true, 0x1140ddf5c70c18ef, 0xe0bb3864331fbc10),
    ("pull", true, 0xeb8e4a6bdf06a8f7, 0xb44ac0b908ef708d),
    ("pull", true, 0xa4e06ed4afd6b5a, 0x82c31e63575e0fde),
    ("push", false, 0x1f7c736e930dc180, 0x4339b5a5c51726c8),
    ("push", false, 0xe3caf2b8bd3796b7, 0xa1fbc24713274eed),
    ("push", false, 0x1140ddf5c70c18ef, 0x2af6317cb127250f),
    ("push", false, 0xeb8e4a6bdf06a8f7, 0xa91c1fdfde84e35a),
    ("push", false, 0xa4e06ed4afd6b5a, 0x3e21ad40e4e9554c),
    ("push", true, 0x1f7c736e930dc180, 0xa9aeec37460b8c7e),
    ("push", true, 0xe3caf2b8bd3796b7, 0xfb929974d8996783),
    ("push", true, 0x1140ddf5c70c18ef, 0x9b1a6cbc6346b296),
    ("push", true, 0xeb8e4a6bdf06a8f7, 0x4ca129f5f5fcc543),
    ("push", true, 0xa4e06ed4afd6b5a, 0x8a5305d1993cc1f1),
    ("tree", false, 0x1f7c736e930dc180, 0x9462c02dc7fef131),
    ("tree", false, 0xe3caf2b8bd3796b7, 0x9462c02dc7fef131),
    ("tree", false, 0x1140ddf5c70c18ef, 0x9462c02dc7fef131),
    ("tree", false, 0xeb8e4a6bdf06a8f7, 0x9462c02dc7fef131),
    ("tree", false, 0xa4e06ed4afd6b5a, 0x9462c02dc7fef131),
    ("tree", true, 0x1f7c736e930dc180, 0xe0afc50e5bb72815),
    ("tree", true, 0xe3caf2b8bd3796b7, 0x23f7c1aad63f2863),
    ("tree", true, 0x1140ddf5c70c18ef, 0xce012d8767e5bb09),
    ("tree", true, 0xeb8e4a6bdf06a8f7, 0x64de7c7a46f4ec88),
    ("tree", true, 0xa4e06ed4afd6b5a, 0x9e289753212850c9),
    ("tree*", false, 0x1f7c736e930dc180, 0xd46d51a69854e05a),
    ("tree*", false, 0xe3caf2b8bd3796b7, 0xd46d51a69854e05a),
    ("tree*", false, 0x1140ddf5c70c18ef, 0xd46d51a69854e05a),
    ("tree*", false, 0xeb8e4a6bdf06a8f7, 0xd46d51a69854e05a),
    ("tree*", false, 0xa4e06ed4afd6b5a, 0xd46d51a69854e05a),
    ("tree*", true, 0x1f7c736e930dc180, 0x60e3638850a2688a),
    ("tree*", true, 0xe3caf2b8bd3796b7, 0x6e961630dd27d3fb),
    ("tree*", true, 0x1140ddf5c70c18ef, 0x1902e558858328d6),
    ("tree*", true, 0xeb8e4a6bdf06a8f7, 0xe31c4765ab47bd0e),
    ("tree*", true, 0xa4e06ed4afd6b5a, 0x9e0e2d95f81068f7),
];

#[test]
fn trace_digests_match_the_pinned_golden_table() {
    let methods = [
        Method::Dco,
        Method::Pull,
        Method::Push,
        Method::Tree,
        Method::TreeStar,
    ];
    let seeds = ScenarioGrid::seed_list(0xC2055, 5);
    let mut table = String::from("const GOLDEN_DIGESTS: &[(&str, bool, u64, u64)] = &[\n");
    let mut moved = Vec::new();
    let mut checked = 0;
    for method in methods {
        for churn in [false, true] {
            for &seed in &seeds {
                let got = run_with_stats(method, &params(seed, churn))
                    .proof
                    .trace_digest;
                let want = GOLDEN_DIGESTS
                    .iter()
                    .find(|(m, c, s, _)| *m == method.label() && *c == churn && *s == seed)
                    .map(|(.., d)| *d)
                    .expect("golden table covers every (method, churn, seed) cell");
                let label = method.label();
                table += &format!("    ({label:?}, {churn}, {seed:#x}, {got:#018x}),\n");
                if got != want {
                    moved.push(format!(
                        "{label} churn={churn} seed={seed:#x}: digest {got:#018x} != golden {want:#018x}"
                    ));
                }
                checked += 1;
            }
        }
    }
    table += "];";
    assert!(
        moved.is_empty(),
        "{} golden rows moved:\n{}\nregenerated table:\n{table}",
        moved.len(),
        moved.join("\n")
    );
    assert_eq!(checked, GOLDEN_DIGESTS.len(), "every golden row exercised");
}

/// Pins for the routed DCO paths no golden row reaches: both rows run
/// [`routed_params`], whose churn leaves half the departures graceful (so
/// leavers route `Deregister`s), and the second runs §III's hierarchical
/// tier (clients proxy their lookups and inserts through a coordinator
/// and send their `Deregister`s to it). Each row is `(label, events,
/// trace digest, dco.insert, dco.dereg, dco.lookup, dco.handover)`.
/// On a mismatch the test prints the regenerated table.
const ROUTED_DIGESTS: &[(&str, u64, u64, u64, u64, u64, u64)] = &[
    (
        "flat",
        764714,
        0x8d8d5b0babc6f880,
        103789,
        12512,
        65505,
        669,
    ),
    ("tier", 362136, 0xabd6d81770fc5ca3, 74573, 9984, 52475, 20),
];

/// The golden churn cell with graceful leaves, five times the nodes and a
/// longer horizon: enough lookups that the server overloads and promotes
/// clients into the ring, whose churn then leaves some clients pointing at
/// a coordinator that has rejoined as a client (their proxied messages
/// must be dropped there).
fn routed_params() -> RunParams {
    let mut p = params(0xC2055, true);
    p.n_nodes = 100;
    p.n_chunks = 40;
    p.horizon = SimTime::from_secs(200);
    p.churn = Some(ChurnConfig {
        graceful_fraction: 0.5,
        ..ChurnConfig::paper_fig12(25)
    });
    p
}

#[test]
fn routed_paths_match_their_pins() {
    let params = routed_params();
    let hierarchical = Cell {
        design: Design::Hierarchical,
        ..Cell::new(Method::Dco, params.clone())
    };
    let runs = [
        ("flat", run_with_stats(Method::Dco, &params)),
        ("tier", run_cells(&[hierarchical], 1).stats(0).clone()),
    ];
    let mut table =
        String::from("const ROUTED_DIGESTS: &[(&str, u64, u64, u64, u64, u64, u64)] = &[\n");
    let mut moved = Vec::new();
    for ((label, stats), want) in runs.iter().zip(ROUTED_DIGESTS) {
        let proof = &stats.proof;
        let tagged = |tag: &str| {
            let hit = proof.snapshot.by_tag.iter().find(|(t, _)| t == tag);
            hit.map_or(0, |&(_, n)| n)
        };
        let got = (
            *label,
            proof.events,
            proof.trace_digest,
            tagged("dco.insert"),
            tagged("dco.dereg"),
            tagged("dco.lookup"),
            tagged("dco.handover"),
        );
        let (l, e, d, i, r, k, h) = got;
        table += &format!("    ({l:?}, {e}, {d:#018x}, {i}, {r}, {k}, {h}),\n");
        if got != *want {
            moved.push(format!("{label}: {got:?} != pinned {want:?}"));
        }
    }
    table += "];";
    assert!(
        moved.is_empty(),
        "routed rows moved:\n{}\nregenerated table:\n{table}",
        moved.join("\n")
    );
}

/// The figures workload a pinned row runs: §IV parameters (100 chunks,
/// 32 neighbors, 200 s horizon, seed 42) with the population overridden.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// The static Chord ring.
    Static,
    /// The figs 11–12 churn model (`ChurnConfig::paper_fig11`) on the
    /// dynamic ring.
    Churn,
}

/// The engine event order a pinned row runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Order {
    /// The single-queue FIFO engine, through `run_with_stats(Method::Dco,
    /// …)`: events are all dispatches, the digest is the chained trace
    /// digest.
    Fifo,
    /// The key-ordered sharded engine at K = 1, through
    /// `run_single_canonical`: events are owned dispatches, the digest is
    /// the order-independent set digest every K must fold back to.
    Canonical,
}

use Order::{Canonical, Fifo};
use Workload::{Churn, Static};

/// Every pinned large-N digest of the figures workload:
/// `(workload, order, n_nodes, events, digest)`. Provenance:
/// - FIFO static 1k/5k/10k: the seed engine (binary-heap calendar,
///   deep-copy fan-out, BTreeMap DHT stores), before the hot-path overhaul;
/// - FIFO static 50k/100k: the retained-observer engine, before the
///   memory-flat layout;
/// - FIFO churn 1k/10k: the engine before the churn books were pooled;
///   50k was first recorded on the pooled engine;
/// - canonical rows: the K = 1 run of the sharded engine that introduced
///   the canonical order.
///
/// No later change may move one of them unless it changes behaviour on
/// purpose. Each row has its own `#[ignore]` release test below, selected
/// by name in CI; on a mismatch the test prints this table regenerated
/// with the measured row.
const PINNED_DIGESTS: &[(Workload, Order, u32, u64, u64)] = &[
    (Static, Fifo, 1_000, 7_258_472, 0xfedd_21ae_0462_f672),
    (Static, Fifo, 5_000, 42_659_350, 0xabe2_aa4c_859a_84cc),
    (Static, Fifo, 10_000, 91_365_887, 0x10ef_10a0_8935_a8b8),
    (Static, Fifo, 50_000, 572_125_634, 0x5b90_2f59_2f12_da68),
    (Static, Fifo, 100_000, 1_270_885_329, 0x79c2_50f0_fd68_ba07),
    (Churn, Fifo, 1_000, 13_019_723, 0x7054_7214_70b6_2603),
    (Churn, Fifo, 10_000, 152_428_043, 0x8f05_16e3_66f1_8e2e),
    (Churn, Fifo, 50_000, 830_212_465, 0xb2e5_7273_57d3_b252),
    (Static, Canonical, 1_000, 7_280_215, 0x2afc_390e_2ce4_91bd),
    (Static, Canonical, 10_000, 90_461_498, 0x88ef_a932_000b_b76d),
    (Churn, Canonical, 1_000, 13_000_317, 0x9c2b_e5aa_ec6f_2a3c),
    (Churn, Canonical, 10_000, 153_109_518, 0x506c_0da9_4974_3478),
];

/// `digits` with an underscore between every group of `width`, counted
/// from the right — the literal style of [`PINNED_DIGESTS`].
fn grouped(digits: &str, width: usize) -> String {
    let groups: Vec<&str> = digits
        .as_bytes()
        .rchunks(width)
        .rev()
        .map(|g| std::str::from_utf8(g).expect("ASCII digits"))
        .collect();
    groups.join("_")
}

/// Runs one pinned row's workload and checks its events and digest,
/// printing the regenerated table on a mismatch.
fn check_pinned(workload: Workload, order: Order, n_nodes: u32) {
    let mut params = RunParams::paper_default(42);
    params.n_nodes = n_nodes;
    if workload == Churn {
        params.churn = Some(ChurnConfig::paper_fig11());
    }
    let got = match order {
        Fifo => {
            let proof = run_with_stats(Method::Dco, &params).proof;
            (proof.events, proof.trace_digest)
        }
        Canonical => {
            let run = run_single_canonical(&params);
            (run.owned_events, run.set_digest)
        }
    };
    let want = PINNED_DIGESTS
        .iter()
        .find(|&&(w, o, n, ..)| (w, o, n) == (workload, order, n_nodes))
        .map(|&(.., events, digest)| (events, digest))
        .expect("the row is pinned");
    if got != want {
        let rows = PINNED_DIGESTS.iter().map(|&(w, o, n, events, digest)| {
            let (events, digest) = if (w, o, n) == (workload, order, n_nodes) {
                got
            } else {
                (events, digest)
            };
            (w, o, n, events, digest)
        });
        panic!(
            "{workload:?} {order:?} N={n_nodes}: events {} digest {:#018x} != pinned events {} \
             digest {:#018x}\nregenerated table (rows not run here keep their pinned values):\n{}",
            got.0,
            got.1,
            want.0,
            want.1,
            render_pins(rows)
        );
    }
}

/// `rows` as the Rust source of [`PINNED_DIGESTS`].
fn render_pins(rows: impl Iterator<Item = (Workload, Order, u32, u64, u64)>) -> String {
    let mut table =
        String::from("const PINNED_DIGESTS: &[(Workload, Order, u32, u64, u64)] = &[\n");
    for (w, o, n, events, digest) in rows {
        table += &format!(
            "    ({w:?}, {o:?}, {}, {}, 0x{}),\n",
            grouped(&n.to_string(), 3),
            grouped(&events.to_string(), 3),
            grouped(&format!("{digest:016x}"), 4)
        );
    }
    table + "];"
}

/// The regenerated table a failing row prints is pasteable: unchanged,
/// it renders to this file's own source text.
#[test]
fn pinned_table_renders_as_its_own_source() {
    let table = render_pins(PINNED_DIGESTS.iter().copied());
    assert!(include_str!("determinism.rs").contains(&table), "{table}");
}

/// One `#[ignore]` release test per [`PINNED_DIGESTS`] row, so CI can
/// select rows by name: `cargo test --release --test determinism --
/// --ignored --exact pinned_fifo_static_1k …`.
macro_rules! pinned_row_tests {
    ($($name:ident: $workload:ident, $order:ident, $n:expr, $why:literal;)*) => {$(
        #[test]
        #[ignore = $why]
        fn $name() {
            check_pinned($workload, $order, $n);
        }
    )*};
}

pinned_row_tests! {
    pinned_fifo_static_1k: Static, Fifo, 1_000, "release-scale: N=1000";
    pinned_fifo_static_5k: Static, Fifo, 5_000, "release-scale: N=5000";
    pinned_fifo_static_10k: Static, Fifo, 10_000, "release-scale: N=10000, ~50 s, 117 MiB peak RSS";
    pinned_fifo_static_50k: Static, Fifo, 50_000, "release-scale: N=50000, ~6 min, 588 MiB peak RSS";
    pinned_fifo_static_100k: Static, Fifo, 100_000, "release-scale: N=100000, ~17 min, 1.2 GiB peak RSS";
    pinned_fifo_churn_1k: Churn, Fifo, 1_000, "release-scale: N=1000";
    pinned_fifo_churn_10k: Churn, Fifo, 10_000, "release-scale: N=10000, ~3 min, 246 MiB peak RSS";
    pinned_fifo_churn_50k: Churn, Fifo, 50_000, "release-scale: N=50000, ~19 min, 1.2 GiB peak RSS";
    pinned_canonical_static_1k: Static, Canonical, 1_000, "release-scale: N=1000";
    pinned_canonical_static_10k: Static, Canonical, 10_000, "release-scale: N=10000";
    pinned_canonical_churn_1k: Churn, Canonical, 1_000, "release-scale: N=1000";
    pinned_canonical_churn_10k: Churn, Canonical, 10_000, "release-scale: N=10000";
}

#[test]
fn json_report_is_byte_identical_across_jobs_levels() {
    let mut one = SweepConfig::tiny();
    one.scale.jobs = 1;
    let mut three = SweepConfig::tiny();
    three.scale.jobs = 3;
    assert_eq!(
        run_sweep(&one).to_json(),
        run_sweep(&three).to_json(),
        "the emitted report must not leak thread count"
    );
}
