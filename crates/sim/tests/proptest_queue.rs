//! Property tests for the bucketed calendar queue.
//!
//! The calendar ([`dco_sim::queue::EventQueue`]) is checked against a
//! trivially-correct reference model — a flat list popped by minimum
//! `(time, sequence)`, or `(time, key)` for keyed pushes — under event
//! populations that straddle bucket boundaries, span the ring window,
//! spill into the far-future overflow heap, and pile hundreds of events
//! into a few buckets (so one bucket spans several of the ring's arena
//! blocks). Driven by the in-tree `dco-testkit` (deterministic seeds,
//! `DCO_TESTKIT_REPLAY` to reproduce a failure).

use dco_sim::engine::runtime_key;
use dco_sim::queue::{EventQueue, OrderStats};
use dco_sim::time::SimTime;
use dco_testkit::{check, tk_assert, tk_assert_eq, Gen};

/// Mirror of the queue's internal geometry (also asserted indirectly: if
/// the constants drift, the scales below still cover all three tiers).
const BUCKET_US: u64 = 1 << 13;
const WINDOW_US: u64 = 512 * BUCKET_US;

/// Event times drawn across the calendar's interesting scales: inside one
/// bucket, across the ring window, deep in overflow territory, and pinned
/// to bucket edges.
fn gen_time(g: &mut Gen) -> u64 {
    match g.usize_in(0, 4) {
        0 => g.u64_in(0, BUCKET_US),
        1 => g.u64_in(0, WINDOW_US),
        2 => g.u64_in(0, 8 * WINDOW_US),
        _ => {
            let b = g.u64_in(0, 1100);
            let off = *g.pick(&[0u64, 1, BUCKET_US / 2, BUCKET_US - 1]);
            b * BUCKET_US + off
        }
    }
}

/// Reference model: pending `(time_us, key, seq)`, popped by minimum
/// `(time, key)`. A plain push's key is its sequence number.
struct Model {
    pending: Vec<(u64, u128, u64)>,
    next_seq: u64,
}

impl Model {
    fn new() -> Model {
        Model {
            pending: Vec::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, t: u64) -> u64 {
        self.push_keyed(t, u128::from(self.next_seq))
    }

    fn push_keyed(&mut self, t: u64, key: u128) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((t, key, seq));
        seq
    }

    /// The minimum pending `(time, seq)`, removed.
    fn pop(&mut self) -> Option<(u64, u64)> {
        let i = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, key, _))| (t, key))
            .map(|(i, _)| i)?;
        let (t, _, seq) = self.pending.swap_remove(i);
        Some((t, seq))
    }
}

/// Drain-after-fill: the queue pops the exact `(time, seq)` sort of any
/// pushed multiset, no matter how times scatter across tiers.
#[test]
fn pop_order_equals_reference_sort() {
    check("pop_order_equals_reference_sort", 200, |g| {
        let times = g.vec_of(1, 300, gen_time);
        let mut q = EventQueue::new();
        let mut model = Model::new();
        for &t in &times {
            q.push(SimTime::from_micros(t), model.push(t));
        }
        tk_assert_eq!(q.len(), times.len(), "len after fill");
        while let Some((want_t, want_seq)) = model.pop() {
            let (got_t, got_seq) = q.pop().expect("queue drained early");
            tk_assert_eq!(got_t.as_micros(), want_t, "pop time");
            tk_assert_eq!(got_seq, want_seq, "pop payload (stability)");
        }
        tk_assert_eq!(q.pop(), None, "queue empty once model is");
        Ok(())
    });
}

/// Interleaved pushes and pops: every pop returns the minimum pending
/// `(time, seq)`, including pushes that land in an already-passed bucket
/// (the engine schedules at `now` after the cursor has advanced) and
/// pushes that arrive after the cursor jumped deep into overflow range.
#[test]
fn interleaved_ops_always_pop_the_pending_minimum() {
    check("interleaved_ops_always_pop_the_pending_minimum", 200, |g| {
        let mut q = EventQueue::new();
        let mut model = Model::new();
        let mut last_popped = 0u64;
        for _ in 0..g.usize_in(10, 250) {
            if g.weighted_bool(0.6) || model.pending.is_empty() {
                // Bias pushes around the current frontier so cursor-passed
                // buckets are exercised, not just the far future.
                let t = if g.weighted_bool(0.3) {
                    last_popped.saturating_sub(g.u64_in(0, 2 * BUCKET_US))
                } else {
                    last_popped + gen_time(g)
                };
                q.push(SimTime::from_micros(t), model.push(t));
            } else {
                let (want_t, want_seq) = model.pop().expect("non-empty");
                let (got_t, got_seq) = q.pop().expect("queue drained early");
                tk_assert_eq!(got_t.as_micros(), want_t, "pop time");
                tk_assert_eq!(got_seq, want_seq, "pop payload");
                last_popped = want_t;
            }
            tk_assert_eq!(q.len(), model.pending.len(), "len tracks model");
        }
        while let Some(want) = model.pop() {
            let (t, seq) = q.pop().expect("final drain");
            tk_assert_eq!((t.as_micros(), seq), want, "final drain order");
        }
        tk_assert_eq!(q.pop(), None, "fully drained");
        Ok(())
    });
}

/// Stability under heavy ties: many events share few distinct timestamps
/// (the simulator's actual regime — every node arms the same tick), and
/// equal-time events must fire in exact insertion order even when the tie
/// group was split across tiers by interleaved pops.
#[test]
fn equal_time_events_fire_in_insertion_order() {
    check("equal_time_events_fire_in_insertion_order", 200, |g| {
        let distinct = g.vec_of(1, 6, gen_time);
        let mut q = EventQueue::new();
        let mut model = Model::new();
        for _ in 0..g.usize_in(5, 120) {
            let t = *g.pick(&distinct);
            q.push(SimTime::from_micros(t), model.push(t));
            if g.weighted_bool(0.25) {
                let want = model.pop().expect("just pushed");
                let (t, seq) = q.pop().expect("non-empty");
                tk_assert_eq!((t.as_micros(), seq), want, "interleaved pop");
            }
        }
        let mut prev: Option<(u64, u64)> = None;
        while let Some(want) = model.pop() {
            let (t, seq) = q.pop().expect("drain");
            let got = (t.as_micros(), seq);
            tk_assert_eq!(got, want, "tie-broken order");
            if let Some(p) = prev {
                tk_assert!(
                    got > p,
                    "strictly increasing (time, seq): {p:?} then {got:?}"
                );
            }
            prev = Some(got);
        }
        Ok(())
    });
}

/// Bursty traffic, the chunk-driven overlay's regime: hundreds of events
/// piled into a few buckets (several arena blocks each), a share spilled
/// past the ring window into overflow, and pops interleaved so drained
/// blocks are recycled into later bursts.
#[test]
fn bursts_into_few_buckets_pop_the_pending_minimum() {
    check(
        "bursts_into_few_buckets_pop_the_pending_minimum",
        100,
        |g| {
            let mut q = EventQueue::new();
            let mut model = Model::new();
            let mut frontier = 0u64;
            for _ in 0..g.usize_in(1, 6) {
                // A few hot buckets ahead of the frontier, one maybe past the
                // ring window.
                let hot: Vec<u64> = (0..g.usize_in(1, 4))
                    .map(|_| {
                        let ahead = if g.weighted_bool(0.2) {
                            g.u64_in(512, 3 * 512)
                        } else {
                            g.u64_in(0, 512)
                        };
                        (frontier / BUCKET_US + ahead) * BUCKET_US
                    })
                    .collect();
                for _ in 0..g.usize_in(50, 400) {
                    let t = *g.pick(&hot) + g.u64_in(0, BUCKET_US);
                    q.push(SimTime::from_micros(t), model.push(t));
                }
                for _ in 0..g.usize_in(0, 300) {
                    let Some(want) = model.pop() else { break };
                    let (t, seq) = q.pop().expect("queue drained early");
                    tk_assert_eq!((t.as_micros(), seq), want, "burst pop order");
                    frontier = want.0;
                }
                tk_assert_eq!(q.len(), model.pending.len(), "len tracks model");
            }
            while let Some(want) = model.pop() {
                let (t, seq) = q.pop().expect("final drain");
                tk_assert_eq!((t.as_micros(), seq), want, "final drain order");
            }
            tk_assert_eq!(q.pop(), None, "fully drained");
            Ok(())
        },
    );
}

/// A keyed push mirrored into the model. The high word comes from a small
/// pool of random words, so equal high words are common and the low word
/// decides; the low word is the sequence number times an odd constant (a
/// bijection), so keys never repeat and run against push order.
fn push_keyed(q: &mut EventQueue<u64>, model: &mut Model, his: &[u64], g: &mut Gen, t: u64) {
    let lo = model.next_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let key = u128::from(*g.pick(his)) << 64 | u128::from(lo);
    let seq = model.push_keyed(t, key);
    q.push_keyed(SimTime::from_micros(t), key, seq);
}

/// Pops one event from both and compares `(time, payload)`.
fn pop_both(q: &mut EventQueue<u64>, model: &mut Model) -> Result<u64, String> {
    let want = model.pop().expect("model non-empty");
    let (t, seq) = q.pop().ok_or("queue drained early")?;
    tk_assert_eq!((t.as_micros(), seq), want, "keyed pop order");
    Ok(want.0)
}

/// Keyed pushes (scrambled 128-bit keys, both words significant) pop by
/// exact `(time, key)` across every place the calendar keeps an event:
/// a far bucket is first filled through the overflow heap, then — once
/// the cursor is within the ring window of it — through the ring, so the
/// two meet in one drain; a near burst of a few instants (heavy ties)
/// spans several arena blocks; and after part of a bucket's sorted run
/// has been popped, more events land in that active bucket, some at the
/// very instant just popped, and must interleave with the rest of the run.
#[test]
fn keyed_pushes_pop_by_time_then_key_across_run_side_heap_ring_and_overflow() {
    check(
        "keyed_pushes_pop_by_time_then_key_across_run_side_heap_ring_and_overflow",
        150,
        |g| {
            let mut q = EventQueue::new();
            let mut model = Model::new();
            let his: Vec<u64> = (0..g.usize_in(1, 4)).map(|_| g.any_u64()).collect();
            // Far bucket `f` is past the ring window from cursor 0; near
            // bucket `s` is in the ring and within the window of `f`, so
            // draining `s` brings `f` into the ring.
            let f = g.u64_in(512, 2 * 512 - 2);
            let s = g.u64_in(f - 511, 512);
            let instants = |g: &mut Gen, b: u64| -> Vec<u64> {
                (0..g.usize_in(1, 5))
                    .map(|_| b * BUCKET_US + g.u64_in(0, BUCKET_US))
                    .collect()
            };
            let far = instants(g, f);
            let near = instants(g, s);
            for _ in 0..g.usize_in(1, 100) {
                let t = *g.pick(&far);
                push_keyed(&mut q, &mut model, &his, g, t);
            }
            for _ in 0..g.usize_in(2 * 64 + 1, 500) {
                let t = *g.pick(&near);
                push_keyed(&mut q, &mut model, &his, g, t);
            }
            // Part of the near bucket: each pop may be followed by pushes
            // into the active bucket at or after the popped instant, and by
            // pushes into the far bucket, which now go to the ring.
            for _ in 0..g.usize_in(1, 2 * 64) {
                let now = pop_both(&mut q, &mut model)?;
                if g.weighted_bool(0.3) {
                    for _ in 0..g.usize_in(1, 4) {
                        let t = if g.weighted_bool(0.5) {
                            now
                        } else {
                            *g.pick(&near).max(&now)
                        };
                        push_keyed(&mut q, &mut model, &his, g, t);
                    }
                }
                for _ in 0..g.usize_in(0, 3) {
                    let t = *g.pick(&far);
                    push_keyed(&mut q, &mut model, &his, g, t);
                }
            }
            tk_assert_eq!(q.len(), model.pending.len(), "len tracks model");
            // The rest, with pushes into whichever bucket is active.
            while !model.pending.is_empty() {
                let now = pop_both(&mut q, &mut model)?;
                if g.weighted_bool(0.1) {
                    let t = now + g.u64_in(0, BUCKET_US - now % BUCKET_US);
                    push_keyed(&mut q, &mut model, &his, g, t);
                }
            }
            tk_assert_eq!(q.pop(), None, "fully drained");
            Ok(())
        },
    );
}

/// Pushes shaped like one process of a sharded canonical run: every key
/// is an install key (the script's next position) or a runtime key whose
/// pusher's dispatch counter only grows.
struct Canonical {
    dispatches: Vec<u64>,
    /// Pushers below `split` are this shard's, the rest another shard's.
    split: usize,
    next_install: u128,
}

impl Canonical {
    fn new(g: &mut Gen) -> Canonical {
        let nodes = g.usize_in(2, 400);
        Canonical {
            dispatches: vec![0; nodes],
            split: g.usize_in(1, nodes),
            next_install: 0,
        }
    }

    /// A pusher of this shard.
    fn local(&self, g: &mut Gen) -> usize {
        g.usize_in(0, self.split)
    }

    /// One dispatch of `pusher` at `push_t` µs: `fanout` pushes, each at
    /// an instant picked from `at`. `reversed` pushes the fan-out in
    /// descending push index, the order no engine produces and the linear
    /// pass must reject.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        q: &mut EventQueue<u64>,
        model: &mut Model,
        g: &mut Gen,
        push_t: u64,
        pusher: usize,
        fanout: u32,
        at: &[u64],
        reversed: bool,
    ) {
        let pseq = self.dispatches[pusher];
        self.dispatches[pusher] += 1;
        for i in 0..fanout {
            let i = if reversed { fanout - 1 - i } else { i };
            let t = *g.pick(at);
            let key = runtime_key(push_t, pusher as u32, pseq, i);
            q.push_keyed(SimTime::from_micros(t), key, model.push_keyed(t, key));
        }
    }

    fn install(&mut self, q: &mut EventQueue<u64>, model: &mut Model, t: u64) {
        let key = self.next_install;
        self.next_install += 1;
        q.push_keyed(SimTime::from_micros(t), key, model.push_keyed(t, key));
    }

    /// A barrier batch: messages the other shard's pushers sent up to
    /// 50 ms before `now`, one per dispatch, arriving at `at`.
    fn batch(
        &mut self,
        q: &mut EventQueue<u64>,
        model: &mut Model,
        g: &mut Gen,
        now: u64,
        at: &[u64],
    ) {
        let sent = now.saturating_sub(g.u64_in(0, 50_000));
        for k in 0..g.usize_in(0, 200) {
            let pusher = g.usize_in(self.split, self.dispatches.len());
            self.dispatch(q, model, g, sent + k as u64 / 8, pusher, 1, at, false);
        }
    }
}

/// Canonical-shaped buckets against the reference sort. Each round fills
/// a bucket ahead of the cursor (one instant or several, install and
/// runtime keys, pushers interleaved), pops up to it, peeks, pushes a
/// barrier batch from another shard's pushers (earlier push times) into
/// it, then pops it with handler pushes into the active bucket and a
/// second batch after a peek in the middle. With `reversed`, one dispatch
/// of the fill pushes its fan-out backwards. Returns the order stats.
fn canonical_rounds(g: &mut Gen, reversed: bool) -> Result<OrderStats, String> {
    let mut canon = Canonical::new(g);
    let mut q = EventQueue::new();
    let mut model = Model::new();
    let mut now = g.u64_in(0, 50) * BUCKET_US;
    for round in 0..g.usize_in(1, 5) {
        // Past the ring window, the fill goes through the overflow heap,
        // which pops it in key order: a reversed fan-out must go to the
        // ring to reach the linear pass as pushed.
        let misorder = reversed && round == 0;
        let ahead = if g.weighted_bool(0.2) && !misorder {
            g.u64_in(512, 700)
        } else {
            g.u64_in(1, 4)
        };
        let b = now / BUCKET_US + ahead;
        let at: Vec<u64> = (0..g.usize_in(1, 5))
            .map(|_| b * BUCKET_US + g.u64_in(0, BUCKET_US))
            .collect();
        let mut push_t = now;
        // At least `SHORT_RUN` (64) entries, so the bucket's first
        // ordering takes the radix pass rather than the short-run sort.
        for d in 0..g.usize_in(64, 300) {
            push_t += g.u64_in(0, 3);
            if g.weighted_bool(0.1) {
                canon.install(&mut q, &mut model, *g.pick(&at));
            } else {
                let pusher = canon.local(g);
                let fanout = g.u64_in(1, 4) as u32;
                canon.dispatch(&mut q, &mut model, g, push_t, pusher, fanout, &at, false);
            }
            if misorder && d == 0 {
                let only = [at[0]];
                canon.dispatch(&mut q, &mut model, g, push_t, 0, 3, &only, true);
            }
        }
        // Up to the bucket: everything earlier pops, then the closing peek.
        let in_bucket = |m: &Model| m.pending.iter().any(|&(t, ..)| t / BUCKET_US == b);
        let first = model
            .pending
            .iter()
            .map(|&(t, ..)| t)
            .filter(|t| t / BUCKET_US == b)
            .min()
            .expect("the fill pushed");
        while model.pending.iter().any(|&(t, ..)| t < first) {
            now = pop_both(&mut q, &mut model)?;
        }
        let peeked = q.peek_time().map(SimTime::as_micros);
        tk_assert_eq!(peeked, Some(first), "closing peek");
        canon.batch(&mut q, &mut model, g, now, &at);
        // The bucket, with handler pushes at or after each popped instant
        // and, once, a peek and a batch part-way through.
        let mid = g.usize_in(0, model.pending.len());
        for popped in 0.. {
            if !in_bucket(&model) {
                break;
            }
            now = pop_both(&mut q, &mut model)?;
            if g.weighted_bool(0.3) {
                let later: Vec<u64> = at.iter().copied().filter(|&t| t >= now).collect();
                let pusher = canon.local(g);
                let fanout = g.u64_in(1, 3) as u32;
                let targets = if later.is_empty() { vec![now] } else { later };
                canon.dispatch(&mut q, &mut model, g, now, pusher, fanout, &targets, false);
            }
            if popped == mid {
                let want = model.pending.iter().map(|&(t, ..)| t).min();
                tk_assert_eq!(
                    q.peek_time().map(SimTime::as_micros),
                    want,
                    "mid-bucket peek"
                );
                let later: Vec<u64> = at.iter().copied().filter(|&t| t > now).collect();
                if !later.is_empty() {
                    canon.batch(&mut q, &mut model, g, now, &later);
                }
            }
        }
    }
    while !model.pending.is_empty() {
        pop_both(&mut q, &mut model)?;
    }
    tk_assert_eq!(q.pop(), None, "fully drained");
    Ok(q.order_stats())
}

/// Canonical buckets as the engine pushes them are ordered by the linear
/// pass alone: the pop order is the reference sort, and no entry ever
/// needs the comparison sort.
#[test]
fn canonical_buckets_pop_in_order_without_a_comparison_sort() {
    check(
        "canonical_buckets_pop_in_order_without_a_comparison_sort",
        150,
        |g| {
            let stats = canonical_rounds(g, false)?;
            tk_assert!(stats.linear > 0, "the linear pass ordered nothing");
            tk_assert_eq!(
                stats.fallback,
                0,
                "a canonical bucket fell back to the sort"
            );
            Ok(())
        },
    );
}

/// A bucket the linear pass orders wrongly (one dispatch's pushes out of
/// push-index order) is caught by its check and sorted instead: the pop
/// order is still the reference sort.
#[test]
fn misordered_buckets_fall_back_to_the_sort_and_still_pop_in_order() {
    check(
        "misordered_buckets_fall_back_to_the_sort_and_still_pop_in_order",
        100,
        |g| {
            let stats = canonical_rounds(g, true)?;
            tk_assert!(stats.fallback > 0, "the misordered bucket passed the check");
            Ok(())
        },
    );
}
