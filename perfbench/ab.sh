#!/usr/bin/env bash
# Same-host A/B: builds this benchmark against git revision REV and against
# the working tree, then alternates runs of the two builds (which one goes
# first alternates too) and prints each run's result line.
#
#   perfbench/ab.sh REV WORKLOAD PAIRS SECONDS SCRATCH_DIR
#
# Run it from the repository root. SCRATCH_DIR receives an export of REV
# (git archive, no network) and both build directories. REV must contain
# the dco-shard crate, which the benchmark depends on.
set -euo pipefail
rev=$1 workload=$2 pairs=$3 seconds=$4 scratch=$5

echo "# old = $(git rev-parse --short=12 "$rev"), new = working tree at $(git rev-parse --short=12 HEAD)"
old="$scratch/ab-$rev"
rm -rf "$old" && mkdir -p "$old"
git archive "$rev" | tar -x -C "$old"
cp -r perfbench "$old/"
build() { # build <source root> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml"
}
build "$old" "$scratch/ab-target-old"
build . "$scratch/ab-target-new"
run() { # run <side> <seed>
    local dir=. bin="$scratch/ab-target-new/release/dco-perfbench"
    if [ "$1" = old ]; then dir=$old bin="$scratch/ab-target-old/release/dco-perfbench"; fi
    (cd "$dir" && "$bin" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1 |
        sed "s/^/$1 seed=$2 /")
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then run old "$i"; run new "$i"; else run new "$i"; run old "$i"; fi
done
