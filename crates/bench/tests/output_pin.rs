//! The experiment binaries' outputs at small scale, pinned as 64-bit
//! FNV-1a digests: every CSV of `figures all --scale small` at one seed
//! and at three, the `ablations --scale small` tables and the
//! `dco-sweep --preset small --jobs 2` JSON report. Any change that moves
//! a figure point, an ablation row or a sweep cell fails here and prints
//! the regenerated table, pasteable over [`PINNED_OUTPUTS`].
//!
//! Release-scale (a few seconds optimised, minutes in debug):
//!
//! ```text
//! cargo test --release -p dco-bench --test output_pin -- --ignored
//! ```

use std::path::Path;
use std::process::Command;

use dco_dht::hash::fnv1a;

/// `(output, FNV-1a digest of its bytes)`. The ablation tables are
/// digested without their `# generated in` wall-time lines.
const PINNED_OUTPUTS: &[(&str, u64)] = &[
    ("figures-1seed/fig5.csv", 0x61d2eb5bbbc796d0),
    ("figures-1seed/fig6.csv", 0x4741bae5951a5a13),
    ("figures-1seed/fig7.csv", 0xc007c3ca06bf3e3b),
    ("figures-1seed/fig8.csv", 0xe17da3ec02cda873),
    ("figures-1seed/fig9.csv", 0x15199d6cd5f911c3),
    ("figures-1seed/fig10.csv", 0x6ae6a8bc8fc6bbc2),
    ("figures-1seed/fig11.csv", 0x263ad505cea432c2),
    ("figures-1seed/fig12.csv", 0xeaad3145df467c90),
    ("figures-3seeds/fig5.csv", 0x2012348982d46efa),
    ("figures-3seeds/fig6.csv", 0xed8fcfccaf5b8ec9),
    ("figures-3seeds/fig7.csv", 0x02c851b1a54230f3),
    ("figures-3seeds/fig8.csv", 0x6be7cb8a81fd0506),
    ("figures-3seeds/fig9.csv", 0xbd92ec45a0de1ba4),
    ("figures-3seeds/fig10.csv", 0x39989a45c21979b0),
    ("figures-3seeds/fig11.csv", 0xce851f1b5d74740d),
    ("figures-3seeds/fig12.csv", 0xce095478f95e14e0),
    ("ablations.txt", 0x47379bc925730c55),
    ("sweep_small.json", 0xb814eb43fffa4480),
];

/// Runs `bin` with `args`, failing the test on a nonzero exit; returns
/// its stdout.
fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn file_digest(path: &Path) -> u64 {
    fnv1a(&std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display())))
}

#[test]
#[ignore = "release-scale: runs figures, ablations and dco-sweep at small scale"]
fn small_scale_outputs_match_the_pinned_digests() {
    let dir = std::env::temp_dir().join(format!("dco-output-pin-{}", std::process::id()));
    let mut got: Vec<(String, u64)> = Vec::new();
    // The small scale's own single seed (42), then `seed_list(42, 3)`.
    for (tag, seeds) in [
        ("figures-1seed", &[][..]),
        ("figures-3seeds", &["--seeds", "3"]),
    ] {
        let out = dir.join(tag);
        let mut args = vec![
            "all",
            "--scale",
            "small",
            "--out",
            out.to_str().expect("utf8 path"),
        ];
        args.extend_from_slice(seeds);
        run(env!("CARGO_BIN_EXE_figures"), &args);
        for k in 5..=12 {
            let name = format!("fig{k}.csv");
            got.push((format!("{tag}/{name}"), file_digest(&out.join(&name))));
        }
    }
    let tables = run(env!("CARGO_BIN_EXE_ablations"), &["--scale", "small"]);
    got.push(("ablations.txt".into(), fnv1a(tables.as_bytes())));
    let sweep = dir.join("sweep");
    run(
        env!("CARGO_BIN_EXE_dco-sweep"),
        &[
            "--preset",
            "small",
            "--jobs",
            "2",
            "--out",
            sweep.to_str().expect("utf8 path"),
            "--tag",
            "small",
        ],
    );
    got.push((
        "sweep_small.json".into(),
        file_digest(&sweep.join("sweep_small.json")),
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut table = String::from("const PINNED_OUTPUTS: &[(&str, u64)] = &[\n");
    let mut moved = Vec::new();
    for (name, digest) in &got {
        table += &format!("    ({name:?}, {digest:#018x}),\n");
        let want = PINNED_OUTPUTS
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, d)| d);
        if want != Some(*digest) {
            moved.push(format!("{name}: {digest:#018x} != pinned {want:#x?}"));
        }
    }
    table += "];";
    assert!(
        moved.is_empty() && got.len() == PINNED_OUTPUTS.len(),
        "{} outputs moved:\n{}\nregenerated table:\n{table}",
        moved.len(),
        moved.join("\n")
    );
}
