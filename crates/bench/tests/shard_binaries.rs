//! End-to-end tests of the multi-process binaries: the real `dco-perf`
//! (re-exec'd workers over stdio pipes) and the real
//! `dco-sweep --fork-seeds` path, spawned via `CARGO_BIN_EXE_*`.
//!
//! The lib tests (`shard_run`) already prove shard-count invariance over
//! in-memory links; these prove the *process* plumbing — spawn, framed
//! pipes, result harvest, exit codes — on the actual binaries.

use std::process::{Command, Stdio};

fn perf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dco-perf"))
}

fn sweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dco-sweep"))
}

/// `dco-perf --shards 2` at a toy population: two worker processes must
/// fold back to the single-process canonical digest, and the report must
/// say so. This is the per-push CI smoke in miniature.
#[test]
fn dco_perf_shards_reproduces_canonical_digest_across_processes() {
    let out = perf()
        .args(["--shards", "2", "--populations", "100", "--stdout"])
        .output()
        .expect("spawn dco-perf");
    assert!(
        out.status.success(),
        "dco-perf --shards 2 failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).expect("utf8 report");
    assert!(json.contains("\"schema\": \"dco-shard/v1\""), "{json}");
    assert!(
        json.contains("\"digest_matches_single_process\": true"),
        "{json}"
    );
    assert!(json.contains("\"k_shards\": 2"), "{json}");
}

/// A worker whose orchestrator died (stdin at EOF) must exit nonzero
/// promptly instead of hanging on the dead pipe.
#[test]
fn shard_worker_with_dead_pipe_exits_nonzero_without_hanging() {
    let out = perf()
        .args([
            "--shard-worker",
            "0",
            "--shards",
            "2",
            "--populations",
            "100",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn worker");
    assert!(!out.status.success(), "worker must fail on a dead pipe");
}

/// Nonsense worker coordinates are rejected up front.
#[test]
fn shard_worker_index_out_of_range_is_rejected() {
    let out = perf()
        .args([
            "--shard-worker",
            "5",
            "--shards",
            "2",
            "--populations",
            "100",
        ])
        .stdin(Stdio::null())
        .output()
        .expect("spawn worker");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--shard-worker"), "{err}");
}

/// `dco-perf` runs only the sharded mode: without `--shards`, or with a
/// flag it does not know (such as the old `--scale` or `--digests`), it
/// exits 2 with its usage line.
#[test]
fn dco_perf_refuses_removed_modes() {
    for argv in [
        &[][..],
        &["--populations", "100"][..],
        &["--scale"][..],
        &["--shards", "2", "--populations", "100", "--digests"][..],
    ] {
        let out = perf().args(argv).output().expect("spawn dco-perf");
        assert_eq!(
            out.status.code(),
            Some(2),
            "dco-perf {argv:?} must be refused"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("usage: dco-perf --shards K"),
            "{argv:?}: {err}"
        );
    }
}

/// `--fork-seeds` must write a byte-identical report to the in-process
/// thread pool: same grid, same per-cell digests, same aggregation.
#[test]
fn fork_seeds_report_is_bit_identical_to_in_process() {
    let dir = std::env::temp_dir().join(format!("dco-sweep-fork-test-{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf8 temp dir");
    for (tag, fork) in [("inproc", false), ("forked", true)] {
        let mut cmd = sweep();
        cmd.args([
            "--preset", "tiny", "--jobs", "2", "--out", dir_s, "--tag", tag,
        ]);
        if fork {
            cmd.arg("--fork-seeds");
        }
        let out = cmd.output().expect("spawn dco-sweep");
        assert!(
            out.status.success(),
            "dco-sweep ({tag}) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let a = std::fs::read(dir.join("sweep_inproc.json")).expect("in-process report");
    let b = std::fs::read(dir.join("sweep_forked.json")).expect("forked report");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        a == b,
        "forked sweep report diverged from the in-process report"
    );
}
