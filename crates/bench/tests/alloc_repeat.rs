//! Allocated bytes repeat exactly: one run of the static figures workload
//! allocates the same bytes every time, in the same process.
//!
//! The simulation is deterministic, so its allocations should be too; a
//! per-process random hash seed (std's `RandomState`) breaks that without
//! moving a single event, because a map's growth timing then depends on
//! the seed. Benchmarks gate allocated bytes as the steady twin of noisy
//! wall time, which only works while they repeat. This binary installs the
//! counting allocator, so it holds this one test: the counters are
//! process-wide.

use dco_bench::{run_with_stats, Method, RunParams};
use dco_sim::counters::perf::{AllocStats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated by one DCO run of the static figures workload at
/// N=128 with 200 chunks (about 5 s in a debug build). Below this size the
/// index maps see too few removals for a random seed to show reliably.
fn allocated_bytes() -> u64 {
    let mut params = RunParams::paper_default(1);
    params.n_nodes = 128;
    params.n_chunks = 200;
    let before = AllocStats::snapshot();
    let result = run_with_stats(Method::Dco, &params).result;
    let bytes = AllocStats::snapshot().delta_since(before).bytes;
    assert!(result.fill_at_offset > 0.0, "the run streamed nothing");
    bytes
}

#[test]
fn a_static_run_allocates_the_same_bytes_each_time() {
    let first = allocated_bytes();
    for rerun in 1..3 {
        assert_eq!(
            allocated_bytes(),
            first,
            "rerun {rerun} allocated different bytes from the first run"
        );
    }
}
