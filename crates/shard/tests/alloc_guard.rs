//! Allocation guards for the epoch exchange, counted by the allocator.
//!
//! The exchange keeps its frame buffers across epochs, so once they have
//! grown to the run's largest epoch, more epochs cost no allocations. The
//! ring protocol here runs over Unix-socket [`PipeLink`]s, whose receive
//! side reads into a kept buffer (an in-memory channel hands over a fresh
//! `Vec` per frame by design).
//!
//! [`PipeLink`]: dco_shard::link::PipeLink

use std::sync::Mutex;

use dco_shard::frame::{read_frame, MAX_FRAME};
use dco_shard::{epoch, link};
use dco_sim::counters::perf::{AllocStats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

mod ring;

/// The counters are process-wide: one measured region at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = AllocStats::snapshot();
    f();
    AllocStats::snapshot().delta_since(before).allocs
}

#[test]
fn extra_epochs_allocate_less_than_one_allocation_each() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let run = |epochs| {
        allocs_of(|| {
            ring::run_k(2, epochs, ring::pipe_pair);
        })
    };
    let short = run(40);
    let long = run(400);
    let extra = long.saturating_sub(short);
    assert!(
        extra < 360,
        "360 more epochs cost {extra} more allocations ({short} at 40, {long} at 400)"
    );
}

#[test]
fn a_false_frame_length_is_not_allocated() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The prefix claims ~1 GiB; six payload bytes follow.
    let mut wire = ((MAX_FRAME - 1) as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&[1, b'a', b'b', b'c', b'd', b'e', b'f']);
    let base = AllocStats::live_bytes();
    AllocStats::reset_peak();
    assert!(read_frame(&mut &wire[..]).is_err());
    let peak = AllocStats::peak_live_bytes() - base;
    assert!(
        peak < 1 << 20,
        "reading 6 bytes peaked at {peak} live bytes"
    );
}
