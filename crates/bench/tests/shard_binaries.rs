//! End-to-end tests of the binaries: the real `dco-perf` (re-exec'd
//! workers over stdio pipes) and `dco-sweep`'s flag handling, spawned via
//! `CARGO_BIN_EXE_*`.
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
/// fold back to the single-process canonical run, and the binary must say
/// so on its one line per population. This is the per-push CI smoke in
/// miniature.
#[test]
fn dco_perf_shards_reproduces_canonical_digest_across_processes() {
    let out = perf()
        .args(["--shards", "2", "--populations", "100"])
        .output()
        .expect("spawn dco-perf");
    assert_eq!(
        out.status.code(),
        Some(0),
        "dco-perf --shards 2 failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    assert!(
        lines[0].starts_with("n=100 K=2 churn=false: root digest 0x"),
        "{stdout}"
    );
    assert!(lines[0].contains("matches the canonical run"), "{stdout}");
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

/// `dco-perf` runs only the sharded digest gate: without `--shards`, or
/// with a flag it does not know (such as the old `--scale`, `--digests`,
/// `--out` or `--stdout`), it exits 2 with its usage line.
#[test]
fn dco_perf_refuses_removed_modes() {
    for argv in [
        &[][..],
        &["--populations", "100"][..],
        &["--scale"][..],
        &["--shards", "2", "--populations", "100", "--digests"][..],
        &["--shards", "2", "--populations", "100", "--out", "F"][..],
        &["--shards", "2", "--populations", "100", "--stdout"][..],
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

/// `dco-sweep` runs every cell on its in-process thread pool; it has no
/// per-cell process mode, so `--fork-seeds` and `--cell-worker IDX` exit 2
/// with the usage line.
#[test]
fn dco_sweep_refuses_removed_fork_flags() {
    for argv in [&["--fork-seeds"][..], &["--cell-worker", "0"][..]] {
        let out = sweep()
            .args(["--preset", "tiny"])
            .args(argv)
            .output()
            .expect("spawn dco-sweep");
        assert_eq!(
            out.status.code(),
            Some(2),
            "dco-sweep {argv:?} must be refused"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: dco-sweep"), "{argv:?}: {err}");
    }
}
