//! Allocation guard for the calendar queue, counted by the allocator.
//!
//! The queue keeps every buffer it grows: the active run, the side heap,
//! the ordering pass's scratch and the ring's arena blocks. So once they
//! have grown to a run's largest bucket, more buckets of the same shape
//! cost no allocations; `peak_live_mib` in the benchmark rests on that.

use dco_sim::counters::perf::{AllocStats, CountingAlloc};
use dco_sim::queue::EventQueue;
use dco_sim::time::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Mirror of the queue's bucket width.
const BUCKET_US: u64 = 1 << 13;

/// Events per burst, spread over a few instants of one bucket.
const BURST: u64 = 3000;

/// An 80-byte payload: with the time and the 128-bit key, a 104-byte
/// entry, the size of the DCO engine's.
type Payload = [u64; 10];

/// One bucket's burst: `BURST` events pushed into bucket `b` (ahead of the
/// cursor, so into the ring), then drained; every 16th pop pushes one more
/// event into the active bucket, after it was ordered.
fn burst(q: &mut EventQueue<Payload>, b: u64) -> u64 {
    let base = b * BUCKET_US;
    for i in 0..BURST {
        q.push(SimTime::from_micros(base + i % 4 * 100), [i; 10]);
    }
    let mut popped = 0;
    while let Some((at, _)) = q.pop() {
        popped += 1;
        if popped % 16 == 0 && at.as_micros() < base + 400 {
            q.push(SimTime::from_micros(at.as_micros() + 1), [popped; 10]);
        }
    }
    popped
}

#[test]
fn more_buckets_of_the_same_shape_allocate_nothing() {
    let mut q = EventQueue::new();
    let mut b = 1;
    for _ in 0..20 {
        burst(&mut q, b);
        b += 3;
    }
    let before = AllocStats::snapshot();
    let mut popped = 0;
    for _ in 0..200 {
        popped += burst(&mut q, b);
        b += 3;
    }
    let allocs = AllocStats::snapshot().delta_since(before).allocs;
    assert!(popped > 200 * BURST, "late pushes were popped too");
    assert_eq!(
        allocs, 0,
        "200 warm buckets of {BURST} events cost {allocs} allocations"
    );
}
