//! `dco-perfbench`: the repository's benchmark.
//!
//! ```text
//! dco-perfbench --workload <static-dco|churn-dco|pull-mesh|sharded-dco>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload again and again for `--seconds` wall seconds, checks
//! that every run produced the same digests (and, on `sharded-dco`, the
//! K = 1 canonical digest), and prints a report whose last line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` one
//! more, traced run follows and the metrics are the per-layer ones.
//! See `README.md` next to this package's manifest.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dco_perfbench::{
    count, median, quantile, run_workload, set_up_workload, Counts, Sample, Workload, MIB,
    PROFILE_AT_S,
};
use dco_sim::counters::perf::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-up-only runs per invocation: as many as fit in `SETUP_BUDGET`
/// (wall time), within `SETUP_REPS`. `setup_s` is their median: set-up
/// takes 30 µs (pull-mesh) to 15 ms (sharded-dco), so it needs many
/// samples.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const SETUP_REPS: std::ops::RangeInclusive<usize> = 5..=2000;

/// Fewest measured runs per invocation, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: dco-perfbench --workload <static-dco|churn-dco|pull-mesh|sharded-dco> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| bad("expected 1..=3600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The hidden worker mode of `sharded-dco`:
/// `--shard-worker <me> <k> <n_nodes> <seed> <traced>`.
fn worker(argv: &[String]) -> ExitCode {
    let parsed = (|| -> Option<(u8, u8, u32, u64, bool)> {
        match argv {
            [me, k, n, seed, traced] => Some((
                me.parse().ok()?,
                k.parse().ok()?,
                n.parse().ok()?,
                seed.parse().ok()?,
                traced == "1",
            )),
            _ => None,
        }
    })();
    let Some((me, k, n, seed, traced)) = parsed.filter(|&(me, k, ..)| me < k) else {
        eprintln!("dco-perfbench: bad --shard-worker arguments {argv:?}");
        return ExitCode::from(2);
    };
    let params = Workload::ShardedDco.params(n, seed);
    match dco_perfbench::shard::worker_main(&params, k, me, traced) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dco-perfbench: shard worker {me}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--shard-worker") {
        return worker(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dco-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dco-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// What every run of a workload in one invocation must agree on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    digest: u64,
    check: u64,
    received_bits: u64,
    mesh_bits: u64,
    overhead: u64,
}

impl Fingerprint {
    fn of(s: &Sample) -> Fingerprint {
        Fingerprint {
            digest: s.digest,
            check: s.check,
            received_bits: s.received_pct.to_bits(),
            mesh_bits: s.mesh_delay_s.to_bits(),
            overhead: s.overhead,
        }
    }
}

fn bench(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let params = w.params(w.n_nodes(), args.seed);
    let note = |line: String| println!("# {line}");
    note(format!(
        "dco-perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    note(host_line());
    note(format!(
        "params: n_nodes={} n_chunks={} neighbors={} horizon_sim_s={} churn={} processes={} seeds={:?}",
        params.n_nodes,
        params.n_chunks,
        params.neighbors,
        params.horizon.as_secs(),
        params.churn.is_some(),
        if w == Workload::ShardedDco { dco_perfbench::SHARDS } else { 1 },
        w.cell(args.seed),
    ));
    note(
        "static-dco and sharded-dco are seed-invariant under the constant-latency model \
         (every seed gives the same trace); the held-out-seed check applies to churn-dco \
         and pull-mesh"
            .to_string(),
    );

    // The reference digest a sharded run must fold back to.
    let canonical = if w == Workload::ShardedDco {
        let single = guarded(|| Ok(dco_bench::shard_run::run_single_canonical(&params)))
            .map_err(|e| format!("K=1 canonical run: {e}"))?;
        note(format!(
            "K=1 canonical: set digest {:#018x}, {} owned events, received {}%",
            single.set_digest, single.owned_events, single.figures.received_pct
        ));
        Some(Fingerprint {
            digest: single.set_digest,
            check: single.owned_events,
            received_bits: single.figures.received_pct.to_bits(),
            mesh_bits: single.figures.mean_mesh_delay.to_bits(),
            overhead: dco_perfbench::overhead_of(&single.counters),
        })
    } else {
        None
    };

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setups = Vec::new();
    let t_setup = Instant::now();
    while setups.len() < *SETUP_REPS.start()
        || (setups.len() < *SETUP_REPS.end() && t_setup.elapsed() < SETUP_BUDGET)
    {
        match guarded(|| set_up_workload(w, params.n_nodes, args.seed)) {
            Ok(s) => setups.push(s),
            Err(e) => {
                attempted += 1;
                failed += 1;
                note(format!("set-up run failed: {e}"));
                break;
            }
        }
    }

    // One untimed run first: it faults in the heap the timed runs reuse
    // (about 2.5x the page faults and 5-10% more host time at N=1000). It
    // still counts as a run and is checked like the others. A churn-dco
    // run warms itself up: the first simulation of its cell faults in the
    // 40 MiB the other eight reuse. A sharded run needs none: its workers
    // are new processes every run, and the K=1 canonical run has warmed
    // this process's heap.
    let mut checked: Vec<Sample> = Vec::new();
    if matches!(w, Workload::StaticDco | Workload::PullMesh) {
        attempted += 1;
        match guarded(|| run_workload(w, params.n_nodes, args.seed, false)) {
            Ok(s) => checked.push(s),
            Err(e) => {
                failed += 1;
                note(format!("warm-up run failed: {e}"));
            }
        }
    }

    let budget = Duration::from_secs(args.seconds);
    let t_measure = Instant::now();
    let steal0 = steal_ticks();
    let mut samples: Vec<Sample> = Vec::new();
    loop {
        let walls: Vec<f64> = samples.iter().map(|s| s.wall_s + s.setup_s).collect();
        let next = Duration::from_secs_f64(median(&walls));
        if samples.len() >= MIN_RUNS && t_measure.elapsed() + next > budget {
            break;
        }
        attempted += 1;
        match guarded(|| run_workload(w, params.n_nodes, args.seed, false)) {
            Ok(s) => {
                note(format!(
                    "run {}: cpu_s={:.6} wall_s={:.6} setup_s={:.6} events={} digest={:#018x} alloc_mib={:.3} peak_live_mib={:.3}",
                    samples.len() + 1,
                    s.cpu_s,
                    s.wall_s,
                    s.setup_s,
                    s.events,
                    s.digest,
                    s.alloc.bytes as f64 / MIB,
                    s.alloc.peak_live as f64 / MIB,
                ));
                samples.push(s);
            }
            Err(e) => {
                failed += 1;
                note(format!("run failed: {e}"));
                if failed as usize > samples.len() + MIN_RUNS {
                    break;
                }
            }
        }
    }

    // Time the hypervisor ran other guests on this machine's cores while
    // the window's runs wanted them: it shows how far the host, not the
    // code, moved the host times of this invocation.
    if let (Some(a), Some(b)) = (steal0, steal_ticks()) {
        note(format!(
            "host steal during the window: {:.2} s summed over cores",
            b.saturating_sub(a) as f64 / 100.0
        ));
    }

    let traced = if args.trace {
        attempted += 1;
        match guarded(|| run_workload(w, params.n_nodes, args.seed, true)) {
            Ok(s) => Some(s),
            Err(e) => {
                failed += 1;
                note(format!("traced run failed: {e}"));
                None
            }
        }
    } else {
        None
    };

    // Every run of one invocation has the same seed, so every run must
    // reproduce the same fingerprint: the one most runs agree on, or the
    // K=1 canonical one.
    let fingerprints: Vec<Fingerprint> = checked
        .iter()
        .chain(&samples)
        .chain(&traced)
        .map(Fingerprint::of)
        .collect();
    let reference = canonical.or_else(|| mode(&fingerprints));
    for (i, f) in fingerprints.iter().enumerate() {
        if reference != Some(*f) {
            failed += 1;
            note(format!(
                "run {} (0 = warm-up): digest {:#018x} differs from the reference",
                i + 1 - checked.len(),
                f.digest
            ));
        }
    }
    // The figures must look like the paper's: nearly every chunk delivered
    // on the static ring and the pull mesh, most of them under churn.
    let floor = if w == Workload::ChurnDco { 80.0 } else { 99.0 };
    let sane = samples
        .first()
        .is_some_and(|s| s.received_pct >= floor && s.mesh_delay_s > 0.0 && s.overhead > 0);
    if !sane {
        note(format!(
            "figures out of range: received_pct below {floor}% or no delay/overhead"
        ));
    }
    let correct = failed == 0 && sane && !samples.is_empty();

    let m = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let cpu_s = m(&|s| s.cpu_s);
    let cpus: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
    note(format!(
        "cpu_s median {:.6} over {} runs (min {:.6}, max {:.6}); wall_s median {:.6}; setup_s median {:.6} over {} set-up-only runs",
        cpu_s,
        samples.len(),
        quantile(&cpus, 0.0),
        quantile(&cpus, 1.0),
        m(&|s| s.wall_s),
        median(&setups),
        setups.len()
    ));

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(t) = &traced {
        per_layer(&mut metrics, t, cpu_s, &samples);
    } else {
        let nodes_chunks =
            f64::from(params.n_nodes) * f64::from(params.n_chunks) * w.cell(args.seed).len() as f64;
        metrics.extend([
            ("cpu_s", cpu_s, "s"),
            ("setup_s", median(&setups), "s"),
            (
                "peak_live_mib",
                m(&|s| s.alloc.peak_live as f64 / MIB),
                "MiB",
            ),
            ("alloc_mib", m(&|s| s.alloc.bytes as f64 / MIB), "MiB"),
            ("received_pct", m(&|s| s.received_pct), "%"),
            ("mesh_delay_s", m(&|s| s.mesh_delay_s), "sim_s"),
            (
                "overhead_per_node_chunk",
                m(&|s| s.overhead as f64 / nodes_chunks),
                "msgs",
            ),
        ]);
    }
    Ok(result_json(correct, attempted, failed, &metrics))
}

fn mode(xs: &[Fingerprint]) -> Option<Fingerprint> {
    xs.iter()
        .copied()
        .max_by_key(|x| xs.iter().filter(|y| *y == x).count())
}

/// The per-layer metrics of the traced run `t`, against the untraced
/// median `cpu_s`.
fn per_layer(
    metrics: &mut Vec<(&'static str, f64, &'static str)>,
    t: &Sample,
    cpu_s: f64,
    samples: &[Sample],
) {
    let trace = t.trace.as_ref().expect("a traced run carries a trace");
    let c = merge_counts_all(t, samples);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hit = |miss: f64, tries: f64| if tries > 0.0 { 1.0 - miss / tries } else { 0.0 };
    let slice_ms: Vec<f64> = trace.slices.iter().map(|p| p.host_ms).collect();
    let at = |secs: u64| {
        trace
            .slices
            .iter()
            .find(|p| p.sim_t.as_micros() >= secs * 1_000_000)
    };
    let events = count(&c, "sim.engine.events");
    let fired = count(&c, "sim.engine.timers_fired");
    let skipped = count(&c, "sim.engine.timers_skipped_dead");
    let lookups = count(&c, "core.proto.lookups");
    let requests = count(&c, "baselines.pull.requests");
    let named = |name: &'static str, unit: &'static str| (name, count(&c, name), unit);
    metrics.extend([
        named("workload.scenario_s", "s"),
        named("workload.install_s", "s"),
        named("core.proto.new_s", "s"),
        named("sim.engine.new_s", "s"),
        named("shard.spawn_s", "s"),
        ("sim.engine.events", events, "count"),
        ("sim.engine.events_per_s", ratio(events, cpu_s), "1/s"),
        ("sim.engine.slices", slice_ms.len() as f64, "count"),
        ("sim.engine.slice_ms.p50", quantile(&slice_ms, 0.50), "ms"),
        ("sim.engine.slice_ms.p99", quantile(&slice_ms, 0.99), "ms"),
        (
            "sim.engine.pending_peak",
            trace.slices.iter().map(|p| p.pending).max().unwrap_or(0) as f64,
            "count",
        ),
        ("sim.engine.timers_fired", fired, "count"),
        ("sim.engine.timers_skipped_dead", skipped, "count"),
        (
            "sim.engine.timers_dead_ratio",
            ratio(skipped, fired + skipped),
            "ratio",
        ),
        named("sim.net.control_msgs", "count"),
        named("sim.net.data_msgs", "count"),
        named("sim.net.dropped_dead", "count"),
        named("core.proto.lookup_hops", "count"),
        ("core.proto.lookups", lookups, "count"),
        (
            "core.proto.hops_per_lookup",
            ratio(count(&c, "core.proto.lookup_hops"), lookups),
            "ratio",
        ),
        named("core.index.inserts", "count"),
        named("core.index.provider_none", "count"),
        (
            "core.index.hit_ratio",
            hit(count(&c, "core.index.provider_none"), lookups),
            "ratio",
        ),
        named("core.proto.busy", "count"),
        named("core.proto.fetch_failures", "count"),
        named("core.proto.coordinators", "count"),
        named("dht.chord.maintenance_msgs", "count"),
        named("dht.chord.members", "count"),
        named("baselines.pull.bufmap_msgs", "count"),
        ("baselines.pull.requests", requests, "count"),
        named("baselines.pull.misses", "count"),
        (
            "baselines.pull.hit_ratio",
            hit(count(&c, "baselines.pull.misses"), requests),
            "ratio",
        ),
        ("metrics.extract_s", trace.extract_s, "s"),
        named("metrics.observer.duplicates", "count"),
        ("alloc.count", t.alloc.allocs as f64, "count"),
    ]);
    for (i, &secs) in PROFILE_AT_S.iter().enumerate() {
        let p = at(secs);
        metrics.push((
            [
                "alloc.live_mib.t050",
                "alloc.live_mib.t100",
                "alloc.live_mib.t150",
            ][i],
            p.map_or(0.0, |p| p.live_bytes as f64 / MIB),
            "MiB",
        ));
        metrics.push((
            [
                "sim.engine.pending.t050",
                "sim.engine.pending.t100",
                "sim.engine.pending.t150",
            ][i],
            p.map_or(0.0, |p| p.pending as f64),
            "count",
        ));
    }
    metrics.extend([
        (
            "alloc.live_end_mib",
            trace
                .slices
                .last()
                .map_or(0.0, |p| p.live_bytes as f64 / MIB),
            "MiB",
        ),
        named("shard.epochs", "count"),
        named("shard.batches", "count"),
        named("shard.remote_msgs", "count"),
        named("shard.relay_mib", "MiB"),
        named("shard.imbalance", "ratio"),
        named("shard.compute_s", "s"),
        named("shard.barrier_wait_s", "s"),
        named("shard.link_send_s", "s"),
        named("shard.relay_busy_s", "s"),
        ("trace.cpu_s", t.cpu_s, "s"),
        (
            "trace.overhead_pct",
            100.0 * ratio(t.cpu_s - cpu_s, cpu_s),
            "%",
        ),
    ]);
    print_profile(trace);
}

/// The traced run's counts, its shard-layer numbers, and the set-up spans
/// as medians over the untraced runs.
fn merge_counts_all(t: &Sample, samples: &[Sample]) -> Counts {
    let mut c = t.counts.clone();
    c.extend(t.trace.iter().flat_map(|tr| tr.extra.iter().cloned()));
    for (name, _) in &t.setup_counts {
        let xs: Vec<f64> = samples
            .iter()
            .map(|s| count(&s.setup_counts, name))
            .collect();
        c.retain(|(n, _)| n != name);
        c.push((name.clone(), median(&xs)));
    }
    c
}

/// Prints the traced run's profile every 10 simulated seconds.
fn print_profile(trace: &dco_perfbench::Trace) {
    println!("# profile: sim_s host_ms_in_slice events pending live_mib");
    let mut next = 0u64;
    for p in &trace.slices {
        let t = p.sim_t.as_micros();
        if t >= next * 1_000_000 {
            println!(
                "#   {:>6.1} {:>10.3} {:>10} {:>8} {:>10.1}",
                t as f64 / 1e6,
                p.host_ms,
                p.events,
                p.pending,
                p.live_bytes as f64 / MIB
            );
            next = t / 1_000_000 + 10;
        }
    }
}

/// Host cores and RAM, and the revision measured.
fn host_line() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let ram_gib = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / (1024.0 * 1024.0));
    format!("host: cores={cores} ram_gib={ram_gib:.1} rev={}", git_rev())
}

/// Steal time of all cores so far, in ticks of 1/100 s (Linux only).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// The git revision, when the working directory is a git checkout.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
