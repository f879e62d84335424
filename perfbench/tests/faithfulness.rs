//! The benchmark measures the program as the figures harness runs it:
//! its public-call sequence (timed set-up calls, sliced `run_until`, its
//! own figure extraction) reproduces `dco_bench::run_with_stats` bit for
//! bit, the sharded path folds back to the K = 1 canonical digest, and
//! tracing changes no digest.

use dco_baselines::PullProtocol;
use dco_bench::{run_with_stats, Method};
use dco_core::proto::DcoProtocol;
use dco_perfbench::{run_single, run_workload, Workload};

const N: u32 = 40;

fn method(w: Workload) -> Method {
    match w {
        Workload::PullMesh => Method::Pull,
        _ => Method::Dco,
    }
}

#[test]
fn bench_pipeline_matches_run_with_stats() {
    for w in [Workload::StaticDco, Workload::ChurnDco, Workload::PullMesh] {
        for seed in [3, 4] {
            let params = w.params(N, seed);
            let reference = run_with_stats(method(w), &params);
            for traced in [false, true] {
                let (sample, result, proof) = match w {
                    Workload::PullMesh => run_single::<PullProtocol>(&params, traced),
                    _ => run_single::<DcoProtocol>(&params, traced),
                };
                let what = format!("{} seed {seed} traced {traced}", w.name());
                assert_eq!(proof, reference.proof, "{what}: trace/counter digests");
                assert_eq!(sample.digest, reference.proof.trace_digest, "{what}");
                let r = &reference.result;
                assert_eq!(
                    result.mean_mesh_delay.to_bits(),
                    r.mean_mesh_delay.to_bits(),
                    "{what}"
                );
                assert_eq!(
                    result.fill_at_2s.to_bits(),
                    r.fill_at_2s.to_bits(),
                    "{what}"
                );
                assert_eq!(
                    result.fill_at_offset.to_bits(),
                    r.fill_at_offset.to_bits(),
                    "{what}"
                );
                assert_eq!(result.fill_timeline, r.fill_timeline, "{what}");
                assert_eq!(result.overhead, r.overhead, "{what}");
                assert_eq!(result.overhead_timeline, r.overhead_timeline, "{what}");
                assert_eq!(result.received_timeline, r.received_timeline, "{what}");
                assert_eq!(
                    result.received_pct.to_bits(),
                    r.received_pct.to_bits(),
                    "{what}"
                );
                assert_eq!(result.data_msgs, r.data_msgs, "{what}");
                assert!(sample.trace.is_some() == traced, "{what}");
            }
        }
    }
}

#[test]
fn traced_runs_reproduce_untraced_digests() {
    for w in [Workload::StaticDco, Workload::ChurnDco, Workload::PullMesh] {
        let plain = run_workload(w, N, 7, false).unwrap();
        let traced = run_workload(w, N, 7, true).unwrap();
        assert_eq!(plain.digest, traced.digest, "{}", w.name());
        assert_eq!(plain.check, traced.check, "{}", w.name());
        assert_eq!(plain.events, traced.events, "{}", w.name());
        // The slice profile is the cell's first simulation alone.
        let slices = &traced.trace.as_ref().unwrap().slices;
        assert_eq!(slices.len(), 2000, "{}", w.name());
        let first = w.params(N, w.cell(7)[0]);
        let first_events = match w {
            Workload::PullMesh => run_single::<PullProtocol>(&first, false).0.events,
            _ => run_single::<DcoProtocol>(&first, false).0.events,
        };
        assert_eq!(slices.last().unwrap().events, first_events, "{}", w.name());
    }
}

#[test]
fn seed_invariance_is_as_reported() {
    let digest = |w: Workload, seed| run_workload(w, N, seed, false).unwrap().digest;
    assert_eq!(
        digest(Workload::StaticDco, 1),
        digest(Workload::StaticDco, 2)
    );
    assert_ne!(digest(Workload::ChurnDco, 1), digest(Workload::ChurnDco, 2));
    assert_ne!(digest(Workload::PullMesh, 1), digest(Workload::PullMesh, 2));
}

#[test]
fn sharded_runs_fold_back_to_the_canonical_digest() {
    use dco_bench::shard_run::run_single_canonical;
    use dco_perfbench::shard::{run_sharded, set_up_sharded};
    use std::path::Path;

    let exe = Path::new(env!("CARGO_BIN_EXE_dco-perfbench"));
    let params = Workload::ShardedDco.params(N, 5);
    let single = run_single_canonical(&params);
    assert!(set_up_sharded(exe, &params, 2).unwrap() > 0.0);
    for traced in [false, true] {
        let s = run_sharded(exe, &params, 2, traced).unwrap();
        assert_eq!(s.digest, single.set_digest, "traced {traced}: root digest");
        assert_eq!(s.events, single.owned_events, "traced {traced}");
        assert!(s.cpu_s > 0.0 && s.setup_s > 0.0, "traced {traced}");
        assert_eq!(
            s.received_pct.to_bits(),
            single.figures.received_pct.to_bits()
        );
        assert_eq!(
            s.mesh_delay_s.to_bits(),
            single.figures.mean_mesh_delay.to_bits()
        );
        assert_eq!(s.trace.is_some(), traced);
    }
}
