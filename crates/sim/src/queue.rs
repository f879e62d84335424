//! The future-event list.
//!
//! A two-tier **bucketed calendar queue**, replacing the classic global
//! binary heap. Simulation events cluster tightly in time (link latencies,
//! tick timers), so the calendar splits the timeline into fixed-width
//! buckets of `2^BUCKET_SHIFT` µs:
//!
//! * **`run`** — the *active region*: every pending event whose bucket is
//!   at or before the cursor. It is put in pop order, latest first so that
//!   a pop is a `Vec::pop`, once, at the bucket's first pop (see
//!   "Ordering"). Until then a push into the active bucket just joins
//!   `run`, and [`EventQueue::peek_time`] answers with a min-scan. So a
//!   sharded worker's barrier injects, pushed after its epoch's closing
//!   peek, join the next bucket before it is ordered.
//! * **`late`** — a side heap for the few events pushed into the active
//!   bucket after it was ordered (a handler scheduling inside the current
//!   bucket). Such pushes wait at the end of `run` until the next pop. If
//!   they are few against the ordered rest, that pop moves them to `late`;
//!   if they are many (a barrier batch landing in a bucket its epoch ended
//!   inside), it orders `run` again. A pop takes the earlier of the run's
//!   and the heap's fronts.
//! * **ring** — the near future: a power-of-two ring of unsorted buckets
//!   covering the `RING_BUCKETS - 1` buckets after the cursor, with a
//!   word-level occupancy bitmap so advancing the cursor skips empty
//!   buckets without scanning them. Pushing here is an O(1) append — no
//!   comparisons, no sift.
//! * **`overflow`** — the far future (beyond the ring window): a binary
//!   heap, drained bucket-by-bucket into `run` as the cursor reaches it.
//!
//! **Memory.** The ring's buckets live in one arena of fixed-size blocks
//! (at most `BLOCK` entries each) that all slots share: a slot is the head
//! of a chain of blocks, and a drained slot's blocks go back on a free
//! list for whichever slot fills next. Blocks grow lazily up to `BLOCK`
//! entries and are never freed, so the ring retains at most
//! `peak ring occupancy / BLOCK + RING_BUCKETS` blocks — one partial block
//! per slot on top of what the busiest instant needed. No slot owns
//! capacity: the overlay's traffic comes in bursts (one per chunk
//! period, each landing on a different slot), and a buffer per slot would
//! keep every slot's largest burst for the rest of the run.
//!
//! Total pop order is exactly `(time, key)`: everything in the active
//! region fires strictly before anything in the ring or overflow (later
//! buckets mean strictly later times), and within it `run` and `late` are
//! each ordered by `(time, key)` over unique keys. In FIFO mode the key is
//! a monotonically increasing sequence number, which makes the queue
//! **stable** — events scheduled earlier for the same instant fire first
//! — and whole runs deterministic for a fixed seed.
//!
//! **The drain.** Reaching a bucket walks its block chain newest block
//! first and appends each block's entries reversed, then appends the
//! bucket's overflow entries newest first (they were pushed before any of
//! its ring entries, while the bucket was past the window). So `run` holds
//! the bucket in exact reverse push order, and pushes that join it later
//! follow in push order. Reverse push order is already latest-first when
//! the bucket was pushed in `(time, key)` order — the common case in FIFO
//! mode, where an instant's events are pushed in sequence order and the
//! bucket's instants mostly in time order.
//!
//! **Ordering.** One routine puts `run` in pop order, chosen by what the
//! bucket holds and never by mode:
//!
//! 1. a run already latest-first is left as it is: one pass of
//!    comparisons confirms it;
//! 2. a run shorter than `SHORT_RUN` entries is sorted by comparison,
//!    which beats the radix pass's fixed costs there;
//! 3. otherwise a stable LSD radix sort orders entry *positions* by
//!    `(time, class, push time, pusher)`, ties broken by push order, and
//!    one in-place permutation moves the entries. Push order breaks those
//!    ties exactly as the key does: a FIFO key is its push position, an
//!    install key its script position, and a runtime key's low bits are
//!    the pusher's dispatch counter and push index, which each node
//!    pushes in ascending order. Each field takes only the bits its range
//!    within the run needs, and a push time enters as its rank among the
//!    run's few distinct push times, so a canonical static N=1k bucket
//!    (one instant, about 2 700 entries) needs two byte-wide passes. The
//!    result is checked to be strictly latest-first;
//! 4. when that check fails, or the radix key does not fit 64 bits,
//!    `sort_unstable` orders the run instead: an unexpected shape costs
//!    time, never order.
//!
//! The radix scratch buffers are kept between buckets. Because keys are
//! unique, neither the radix ties nor the sort's instability can change
//! the pop order; the golden trace digests in `tests/determinism.rs` pin
//! that.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::{KEY_NODE_SHIFT, KEY_RUNTIME_CLASS, KEY_T_SHIFT};
use crate::time::SimTime;

/// log2 of the bucket width in microseconds (8.192 ms buckets): wide enough
/// that a bucket amortizes its ordering, narrow enough that the active run
/// stays small.
const BUCKET_SHIFT: u32 = 13;

/// Ring size in buckets (power of two). The window spans
/// `(RING_BUCKETS - 1) << BUCKET_SHIFT` µs ≈ 4.2 s — comfortably past every
/// periodic timer and timeout the protocols arm; only long-horizon events
/// (churn schedules, far-future joins) spill to the overflow heap.
const RING_BUCKETS: usize = 512;

/// Occupancy bitmap words.
const RING_WORDS: usize = RING_BUCKETS / 64;

/// Entries per arena block (a power of two, so lazy doubling from the
/// smallest allocation lands on it exactly).
const BLOCK: usize = 64;

/// End-of-chain marker for block links and slot heads.
const NIL: u32 = u32::MAX;

/// Pushes into an ordered bucket go to the side heap while they number
/// less than `1 / LATE_SHARE` of the ordered rest; more are ordered
/// together with it. Ordering again costs O(rest), so this bounds it to
/// `LATE_SHARE + 1` entries per pushed one, while a handler's one or two
/// pushes go to the heap. Barrier batches landing in a bucket an epoch
/// ended inside are 1/8 to 1/13 of its rest in canonical churn, K=2.
const LATE_SHARE: usize = 32;

/// Runs shorter than this are sorted by comparison: there `sort_unstable`
/// beats the radix pass's fixed costs. FIFO churn buckets at N=100
/// average about 50 entries; static buckets at N=1k hold thousands.
const SHORT_RUN: usize = 64;

/// An entry in the calendar: a payload due at `at`, tie-broken by the
/// 128-bit key `(key_hi, key_lo)`.
///
/// In the default FIFO mode the key is the monotone insertion sequence
/// number (so equal-time events fire in insertion order). The sharded
/// engine instead supplies *canonical stamp* keys — 128-bit values derived
/// from the event's provenance that are identical no matter which worker
/// process scheduled the event — which is what makes the sharded dispatch
/// order shard-count-invariant. The key is stored as two `u64` words
/// rather than a `u128`, which would force 16-byte alignment on the entry.
struct Scheduled<E> {
    at: SimTime,
    key_hi: u64,
    key_lo: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// `(push time, pusher)` of a runtime-class key; `None` for an install
    /// key or a FIFO sequence number, whose push order is its key order.
    #[inline]
    fn stamp(&self) -> Option<(u64, u64)> {
        let key = u128::from(self.key_hi) << 64 | u128::from(self.key_lo);
        (key & KEY_RUNTIME_CLASS != 0).then(|| {
            let t = (key & !KEY_RUNTIME_CLASS) >> KEY_T_SHIFT;
            let node = (key >> KEY_NODE_SHIFT) & ((1 << (KEY_T_SHIFT - KEY_NODE_SHIFT)) - 1);
            (t as u64, node as u64)
        })
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key_hi == other.key_hi && self.key_lo == other.key_lo
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted, so the earliest (time, key) is the greatest: it pops
        // first from a BinaryHeap (a max-heap) and sorts last in an
        // ascending sort, where `Vec::pop` takes it.
        other
            .at
            .cmp(&self.at)
            .then(other.key_hi.cmp(&self.key_hi))
            .then(other.key_lo.cmp(&self.key_lo))
    }
}

/// True if `run` is strictly latest-first, i.e. in pop order.
fn in_pop_order<E>(run: &[Scheduled<E>]) -> bool {
    run.windows(2).all(|w| w[0] < w[1])
}

/// The number of bits needed to write `x`.
#[inline]
fn bits(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// One arena block: up to `BLOCK` unsorted entries of a ring slot, linked
/// to the slot's next (older) block, or to the next free block.
struct Block<E> {
    entries: Vec<Scheduled<E>>,
    next: u32,
}

/// The bucket index of an instant.
#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.as_micros() >> BUCKET_SHIFT
}

/// How the queue put its active entries in order (diagnostic). An entry
/// counts once per ordering it takes part in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderStats {
    /// Entries ordered in O(n): found in order, or by the radix pass.
    pub linear: u64,
    /// Entries of runs too short for the radix pass, sorted by comparison.
    pub short: u64,
    /// Entries the radix pass could not order, sorted by comparison.
    pub fallback: u64,
    /// Entries pushed into an ordered bucket that went to the side heap.
    pub late: u64,
}

/// Scratch buffers of the radix pass, kept between buckets.
#[derive(Default)]
struct Radix {
    keys: Vec<u64>,
    tmp: Vec<u64>,
    counts: Vec<u32>,
    /// The distinct push times of the run's runtime entries, ascending.
    times: Vec<u64>,
}

impl Radix {
    /// Puts `run` in pop order, given that `run[..rev]` is in reverse push
    /// order and `run[rev..]` in push order. Orders by `(time, class, push
    /// time, pusher)` and breaks ties by push order, which is the exact
    /// `(time, key)` order only for the bucket shapes the module doc
    /// describes: the caller checks. Returns `false`, leaving `run` as it
    /// was, when that key does not fit 64 bits beside the position.
    fn order<E>(&mut self, run: &mut [Scheduled<E>], rev: usize) -> bool {
        let n = run.len();
        let in_push_order = || (0..rev).rev().chain(rev..n);
        // Field ranges. A push time enters the key as its rank among the
        // run's distinct push times, which are few (the instants their
        // dispatches ran at). Push order lists them ascending when one
        // process pushed the whole run; barrier injects need one sort of
        // the distinct values.
        let (mut at_lo, mut at_hi) = (u64::MAX, 0);
        let (mut p_lo, mut p_hi) = (u64::MAX, 0);
        let mut install = false;
        self.times.clear();
        for pos in in_push_order() {
            let s = &run[pos];
            let at = s.at.as_micros();
            at_lo = at_lo.min(at);
            at_hi = at_hi.max(at);
            match s.stamp() {
                None => install = true,
                Some((t, p)) => {
                    if self.times.last() != Some(&t) {
                        self.times.push(t);
                    }
                    p_lo = p_lo.min(p);
                    p_hi = p_hi.max(p);
                }
            }
        }
        if !self.times.windows(2).all(|w| w[0] < w[1]) {
            self.times.sort_unstable();
            self.times.dedup();
        }
        let runtime = !self.times.is_empty();
        // Field widths: a class bit only when both classes are present.
        let wc = u32::from(install && runtime);
        let (wt, wp) = if runtime {
            (bits(self.times.len() as u64 - 1), bits(p_hi - p_lo))
        } else {
            (0, 0)
        };
        let wkey = bits(at_hi - at_lo) + wc + wt + wp;
        let wpos = bits(n as u64 - 1);
        if wkey + wpos > u64::BITS {
            return false;
        }
        // Keys in push order, so the stable passes break ties by it.
        self.keys.clear();
        let mut rank = (u64::MAX, 0);
        for pos in in_push_order() {
            let s = &run[pos];
            let at = s.at.as_micros() - at_lo;
            let key = match s.stamp() {
                None => at << (wc + wt + wp),
                Some((t, p)) => {
                    if rank.0 != t {
                        rank = (t, self.times.binary_search(&t).expect("listed") as u64);
                    }
                    (((at << wc | u64::from(wc)) << wt | rank.1) << wp) | (p - p_lo)
                }
            };
            self.keys.push(key << wpos | pos as u64);
        }
        // LSD passes over `wkey` bits in digits of equal width, at most
        // 11 bits and fewer for a short run, so the counters stay small.
        let passes = wkey.div_ceil(bits(n as u64).clamp(4, 11));
        let width = if passes == 0 {
            0
        } else {
            wkey.div_ceil(passes)
        };
        let radix = 1usize << width;
        let digit = |k: u64, pass: u32| (k >> (wpos + width * pass)) as usize & (radix - 1);
        self.counts.clear();
        self.counts.resize((passes as usize) << width, 0);
        for &k in &self.keys {
            for (pass, c) in self.counts.chunks_exact_mut(radix).enumerate() {
                c[digit(k, pass as u32)] += 1;
            }
        }
        self.tmp.resize(n, 0);
        for (pass, c) in self.counts.chunks_exact_mut(radix).enumerate() {
            let pass = pass as u32;
            if c[digit(self.keys[0], pass)] as usize == n {
                continue; // one digit value: the pass moves nothing
            }
            let mut sum = 0;
            for c in c.iter_mut() {
                (*c, sum) = (sum, sum + *c);
            }
            for &k in &self.keys {
                let d = &mut c[digit(k, pass)];
                self.tmp[*d as usize] = k;
                *d += 1;
            }
            std::mem::swap(&mut self.keys, &mut self.tmp);
        }
        // `keys` ascends; pop order wants the earliest last. `src[j]` is
        // the position whose entry belongs at `j`.
        let src = &mut self.tmp;
        src.clear();
        src.extend(self.keys.iter().rev().map(|k| k & ((1 << wpos) - 1)));
        permute(run, src);
        true
    }
}

/// Moves `run[src[j]]` to `j` for every `j` by following the permutation's
/// cycles with swaps; leaves `src` as the identity.
fn permute<T>(run: &mut [T], src: &mut [u64]) {
    for start in 0..run.len() {
        let mut j = start;
        loop {
            let s = src[j] as usize;
            src[j] = j as u64;
            if s == start {
                break;
            }
            run.swap(j, s);
            j = s;
        }
    }
}

/// A stable min-priority queue of future events.
pub struct EventQueue<E> {
    /// Active region: every pending event with `bucket <= cursor` that is
    /// not in `late`. `run[..rev]` is in reverse push order and, once
    /// `ordered`, also in pop order (latest first, so `run.pop()` is the
    /// earliest); `run[rev..]` holds later pushes in push order.
    run: Vec<Scheduled<E>>,
    rev: usize,
    /// Whether `run[..rev]` is in pop order. Cleared when a bucket is
    /// drained into `run`, set by its first pop.
    ordered: bool,
    /// The earliest time among the entries not in pop order: `run[rev..]`,
    /// or all of `run` before its first ordering.
    pending_at: Option<SimTime>,
    /// Events pushed into the ordered active bucket, when few.
    late: BinaryHeap<Scheduled<E>>,
    radix: Radix,
    stats: OrderStats,
    /// Near future: bucket `b` with `cursor < b < cursor + RING_BUCKETS`
    /// lives (unsorted) in the block chain headed at slot
    /// `b % RING_BUCKETS`; `NIL` marks an empty slot. The head block is
    /// the one being filled.
    heads: [u32; RING_BUCKETS],
    /// The block arena shared by all ring slots. Blocks are recycled
    /// through `free`, never released, and hold at most `BLOCK` entries,
    /// so its size tracks peak ring occupancy, not per-slot history.
    blocks: Vec<Block<E>>,
    /// Head of the free-block list (linked through `Block::next`).
    free: u32,
    /// One bit per ring slot with at least one event.
    occupied: [u64; RING_WORDS],
    /// Events currently in the ring (fast empty check).
    ring_len: usize,
    /// Far future: bucket at or beyond `cursor + RING_BUCKETS`.
    overflow: BinaryHeap<Scheduled<E>>,
    /// The active bucket index.
    cursor: u64,
    /// Total pending events across all three tiers.
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            rev: 0,
            ordered: true,
            pending_at: None,
            late: BinaryHeap::new(),
            radix: Radix::default(),
            stats: OrderStats::default(),
            heads: [NIL; RING_BUCKETS],
            blocks: Vec::with_capacity(RING_BUCKETS),
            free: NIL,
            occupied: [0; RING_WORDS],
            ring_len: 0,
            overflow: BinaryHeap::new(),
            cursor: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// An empty calendar with pre-allocated active-run capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.run.reserve(cap);
        q
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Events at equal times fire in insertion order.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let key = self.next_seq as u128;
        self.push_keyed(at, key, payload);
    }

    /// Schedules `payload` at `at` with an explicit 128-bit tie-break key.
    ///
    /// Equal-time events fire in ascending key order. Keys at one instant
    /// **must be distinct** — neither the run's ordering nor the side heap
    /// is stable, so two entries with equal `(at, key)` pop in unspecified
    /// order. The plain [`EventQueue::push`] is exactly `push_keyed` with
    /// the monotone insertion counter as the key.
    pub fn push_keyed(&mut self, at: SimTime, key: u128, payload: E) {
        self.next_seq += 1;
        self.len += 1;
        let b = bucket_of(at);
        let entry = Scheduled {
            at,
            key_hi: (key >> 64) as u64,
            key_lo: key as u64,
            payload,
        };
        if b <= self.cursor {
            self.pending_at = Some(self.pending_at.map_or(at, |p| p.min(at)));
            self.run.push(entry);
        } else if b - self.cursor < RING_BUCKETS as u64 {
            let slot = (b % RING_BUCKETS as u64) as usize;
            self.ring_push(slot, entry);
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.ring_len += 1;
        } else {
            self.overflow.push(entry);
        }
    }

    /// Appends `entry` to ring slot `slot`'s head block, chaining a fresh
    /// block first when the slot is empty or its head block is full.
    #[inline]
    fn ring_push(&mut self, slot: usize, entry: Scheduled<E>) {
        let mut h = self.heads[slot];
        if h == NIL || self.blocks[h as usize].entries.len() == BLOCK {
            h = self.take_block(h);
            self.heads[slot] = h;
        }
        let entries = &mut self.blocks[h as usize].entries;
        if entries.len() == entries.capacity() {
            // Grow by doubling, but never past `BLOCK`: a block's capacity
            // is what the arena's memory bound counts.
            let want = (entries.capacity() * 2).clamp(4, BLOCK);
            entries.reserve_exact(want - entries.len());
        }
        entries.push(entry);
    }

    /// A block from the free list (or a new, still unallocated one) linked
    /// in front of `next`.
    fn take_block(&mut self, next: u32) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let block = &mut self.blocks[i as usize];
            self.free = block.next;
            block.next = next;
            i
        } else {
            let i = self.blocks.len() as u32;
            assert!(i != NIL, "event queue block arena exhausted");
            self.blocks.push(Block {
                entries: Vec::new(),
                next,
            });
            i
        }
    }

    /// Moves every event of ring slot `slot` into the (empty) active run
    /// and returns the slot's blocks to the free list. Newest block first,
    /// each reversed: the run comes out in reverse push order. Returns the
    /// earliest time moved.
    fn drain_slot(&mut self, slot: usize) -> SimTime {
        debug_assert!(self.run.is_empty() && self.late.is_empty());
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        let mut first = SimTime::MAX;
        let mut i = std::mem::replace(&mut self.heads[slot], NIL);
        while i != NIL {
            let block = &mut self.blocks[i as usize];
            self.ring_len -= block.entries.len();
            self.run.extend(
                block
                    .entries
                    .drain(..)
                    .rev()
                    .inspect(|s| first = first.min(s.at)),
            );
            let next = block.next;
            block.next = self.free;
            self.free = i;
            i = next;
        }
        first
    }

    /// Moves the earliest pending bucket into `run`, unordered, until the
    /// active region is non-empty (or the queue is drained).
    fn settle(&mut self) {
        while self.run.is_empty() && self.late.is_empty() {
            let b_ring = if self.ring_len > 0 {
                self.next_occupied_bucket()
            } else {
                None
            };
            let b_ovf = self.overflow.peek().map(|s| bucket_of(s.at));
            let b = match (b_ring, b_ovf) {
                (Some(r), Some(o)) => r.min(o),
                (Some(r), None) => r,
                (None, Some(o)) => o,
                (None, None) => return,
            };
            let mut first = SimTime::MAX;
            if b_ring == Some(b) {
                first = self.drain_slot((b % RING_BUCKETS as u64) as usize);
            }
            if b_ovf == Some(b) {
                // The heap yields them earliest first; reverse push order
                // wants the earliest pushed last.
                first = first.min(self.overflow.peek().expect("bucket b").at);
                let start = self.run.len();
                while let Some(s) = self.overflow.peek() {
                    if bucket_of(s.at) != b {
                        break;
                    }
                    let s = self.overflow.pop().expect("peeked");
                    self.run.push(s);
                }
                self.run[start..].reverse();
            }
            self.cursor = b;
            self.rev = self.run.len();
            self.ordered = false;
            self.pending_at = Some(first);
        }
    }

    /// Puts the active region in pop order. A bucket not yet ordered is
    /// ordered whole. In an ordered one, the pushes since the last pop go
    /// to the side heap when they are few against the ordered rest, and
    /// are ordered together with it otherwise.
    #[inline]
    fn order(&mut self) {
        if !self.ordered || self.run.len() > self.rev {
            self.reorder();
        }
    }

    /// [`EventQueue::order`]'s work, when there is some.
    fn reorder(&mut self) {
        let n = self.run.len();
        self.pending_at = None;
        if self.ordered && (n - self.rev) * LATE_SHARE < self.rev {
            self.stats.late += (n - self.rev) as u64;
            self.late.extend(self.run.drain(self.rev..));
            return;
        }
        if in_pop_order(&self.run) {
            self.stats.linear += n as u64;
        } else if n < SHORT_RUN {
            self.run.sort_unstable();
            self.stats.short += n as u64;
        } else if self.radix.order(&mut self.run, self.rev) && in_pop_order(&self.run) {
            self.stats.linear += n as u64;
        } else {
            self.run.sort_unstable();
            self.stats.fallback += n as u64;
        }
        self.rev = n;
        self.ordered = true;
    }

    /// The earlier of the run's and the side heap's fronts: `true` for the
    /// side heap. Keys are unique, so the two never tie.
    #[inline]
    fn late_first(&self) -> bool {
        match (self.run.last(), self.late.peek()) {
            (Some(r), Some(l)) => l > r,
            (None, _) => true,
            (Some(_), None) => false,
        }
    }

    /// The bucket index of the first occupied ring slot after the cursor,
    /// scanning the occupancy bitmap word-by-word in bucket order.
    fn next_occupied_bucket(&self) -> Option<u64> {
        debug_assert!(self.ring_len > 0);
        for d in 1..RING_BUCKETS as u64 {
            let b = self.cursor + d;
            let slot = (b % RING_BUCKETS as u64) as usize;
            // Word-level skip: if the whole word holds no occupied slot at
            // or after this position (within this word), jump to the next
            // word boundary.
            let word = self.occupied[slot / 64];
            let masked = word >> (slot % 64);
            if masked == 0 {
                // Skip the rest of this word (minus one for the loop's +1).
                let skip = 63 - (slot % 64) as u64;
                if skip > 0 {
                    return self.next_occupied_from(b + skip);
                }
                continue;
            }
            return Some(b + masked.trailing_zeros() as u64);
        }
        None
    }

    /// Continues the occupancy scan from bucket `from` (exclusive of
    /// nothing — `from` itself is a candidate).
    fn next_occupied_from(&self, from: u64) -> Option<u64> {
        let end = self.cursor + RING_BUCKETS as u64;
        let mut b = from + 1;
        while b < end {
            let slot = (b % RING_BUCKETS as u64) as usize;
            let masked = self.occupied[slot / 64] >> (slot % 64);
            if masked == 0 {
                b += 64 - (slot % 64) as u64;
                continue;
            }
            let cand = b + masked.trailing_zeros() as u64;
            if cand >= end {
                return None;
            }
            return Some(cand);
        }
        None
    }

    /// Removes and returns the earliest event, if any. Orders the active
    /// bucket first if pushes reached it since it was last ordered.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        self.order();
        let s = if self.late_first() {
            self.late.pop()
        } else {
            self.rev -= 1;
            self.run.pop()
        }?;
        self.len -= 1;
        Some((s.at, s.payload))
    }

    /// The firing time of the earliest event, if any.
    ///
    /// Takes `&mut self` because peeking may advance the calendar's cursor
    /// to the next occupied bucket and drain it into the active region
    /// (pure queue bookkeeping — the observable event order is unchanged).
    /// It orders nothing: the earliest time among the entries not yet in
    /// pop order is kept as they arrive (a min-scan folded into the drain
    /// and the pushes), so pushes after a peek still join the bucket
    /// before its first pop orders it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle();
        if self.ordered && self.pending_at.is_none() && self.late.is_empty() {
            return self.run.last().map(|s| s.at);
        }
        let front = self.run[..self.rev].last().filter(|_| self.ordered);
        [
            front.map(|s| s.at),
            self.pending_at,
            self.late.peek().map(|s| s.at),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (diagnostic).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// How the active entries have been ordered so far (diagnostic).
    pub fn order_stats(&self) -> OrderStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::runtime_key;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stable_at_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)), "insertion order preserved");
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(9), ());
        q.push(SimTime::from_secs(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "late");
        q.push(SimTime::from_secs(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(SimTime::from_secs(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    /// Spans all three tiers: active run, ring window, overflow.
    #[test]
    fn far_future_spills_and_refills() {
        let mut q = EventQueue::new();
        let window_us = (RING_BUCKETS as u64) << BUCKET_SHIFT;
        // Beyond the ring window from cursor 0 → overflow.
        q.push(SimTime::from_micros(3 * window_us), "far");
        q.push(SimTime::from_micros(7 * window_us), "farther");
        // Inside the window → ring.
        q.push(SimTime::from_micros(window_us / 2), "near");
        // Active bucket → run.
        q.push(SimTime::ZERO, "now");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().unwrap().1, "now");
        assert_eq!(q.pop().unwrap().1, "near");
        // Cursor jumped into overflow territory; a fresh near-future push
        // interleaves correctly with the remaining overflow events.
        q.push(SimTime::from_micros(3 * window_us + 1), "just-after-far");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "just-after-far");
        assert_eq!(q.pop().unwrap().1, "farther");
        assert_eq!(q.pop(), None);
    }

    /// Pushing an event earlier than the cursor's bucket (e.g. at the
    /// current instant after the cursor advanced) still pops in order.
    #[test]
    fn past_bucket_push_goes_active() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "later");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        // Cursor has advanced to the 10 s bucket; a push at 9 s lands in
        // the active region and still fires first.
        q.push(SimTime::from_secs(9), "earlier");
        assert_eq!(q.pop().unwrap().1, "earlier");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    /// Equal-time events pushed into different tiers (ring, then active
    /// after cursor advance) keep insertion order.
    #[test]
    fn stable_across_tier_boundaries() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        q.push(t, 0);
        q.push(SimTime::from_secs(1), 100);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 100)));
        // Cursor is now at the 1 s bucket; t's bucket is still ahead.
        q.push(t, 1);
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn keyed_push_orders_by_key_at_equal_time() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        // Insertion order deliberately scrambled relative to key order.
        q.push_keyed(t, 30, "c");
        q.push_keyed(t, 10, "a");
        q.push_keyed(SimTime::from_secs(2), 1, "late");
        q.push_keyed(t, 20, "b");
        assert_eq!(q.pop(), Some((t, "a")));
        assert_eq!(q.pop(), Some((t, "b")));
        assert_eq!(q.pop(), Some((t, "c")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
        assert_eq!(q.scheduled_total(), 4);
    }

    #[test]
    fn keyed_and_wide_keys_order_across_tiers() {
        let mut q = EventQueue::new();
        let big = 1u128 << 127;
        let t = SimTime::from_secs(3);
        q.push_keyed(t, big | 5, "runtime");
        q.push_keyed(t, 7, "install");
        q.push_keyed(SimTime::from_secs(600), big | 1, "far-future");
        assert_eq!(q.pop().unwrap().1, "install");
        assert_eq!(q.pop().unwrap().1, "runtime");
        assert_eq!(q.pop().unwrap().1, "far-future");
    }

    #[test]
    fn bucket_boundary_ordering() {
        let mut q = EventQueue::new();
        let w = 1u64 << BUCKET_SHIFT;
        // Straddle a bucket boundary with adjacent microseconds.
        q.push(SimTime::from_micros(w), "b1-start");
        q.push(SimTime::from_micros(w - 1), "b0-end");
        q.push(SimTime::from_micros(w + 1), "b1-second");
        assert_eq!(q.pop().unwrap().1, "b0-end");
        assert_eq!(q.pop().unwrap().1, "b1-start");
        assert_eq!(q.pop().unwrap().1, "b1-second");
    }

    /// A 100k-event burst into one bucket, then 20 ring generations of
    /// sparse traffic: the arena never holds more blocks than the peak ring
    /// occupancy needs plus one partial block per slot, and no block grows
    /// past `BLOCK` entries.
    #[test]
    fn arena_is_bounded_by_peak_ring_occupancy() {
        let bucket_us = 1u64 << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        let burst_at = SimTime::from_micros(10 * bucket_us);
        for i in 0..100_000u64 {
            q.push(burst_at, i);
        }
        let mut peak = q.ring_len;
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 100_000);
        let mut x = 1u64;
        for step in 0..20 * RING_BUCKETS as u64 {
            let now = (11 + step) * bucket_us;
            for _ in 0..3 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let ahead = 1 + (x >> 33) % (RING_BUCKETS as u64 - 1);
                q.push(SimTime::from_micros(now + ahead * bucket_us), step);
            }
            peak = peak.max(q.ring_len);
            while q
                .peek_time()
                .is_some_and(|t| t.as_micros() <= now + bucket_us)
            {
                q.pop();
            }
        }
        let blocks = q.blocks.len();
        let widest = q.blocks.iter().map(|b| b.entries.capacity()).max();
        assert!(
            blocks <= peak / BLOCK + RING_BUCKETS,
            "{blocks} blocks for a peak of {peak} ring entries"
        );
        assert!(widest <= Some(BLOCK), "a block holds {widest:?} entries");
        assert!(!q.is_empty(), "sparse traffic keeps the ring populated");
    }

    /// One bucket spread over several blocks, times and keys scrambled
    /// within it: the drain pops the exact `(time, key)` sort.
    #[test]
    fn multi_block_drain_pops_in_time_then_key_order() {
        let bucket_us = 1u64 << BUCKET_SHIFT;
        let base = 3 * bucket_us;
        let n = 5 * BLOCK as u64 + 7;
        let mut q = EventQueue::new();
        let mut want = Vec::new();
        for i in 0..n {
            // Few distinct instants so keys break many ties; keys run
            // against insertion order.
            let at = base + (i * 37) % 5 * (bucket_us / 5);
            let key = u128::from((i * 101) % n) << (i % 2 * 64);
            q.push_keyed(SimTime::from_micros(at), key, i);
            want.push((at, key, i));
        }
        let slot = (base >> BUCKET_SHIFT) as usize % RING_BUCKETS;
        let mut chain = 0;
        let mut b = q.heads[slot];
        while b != NIL {
            chain += 1;
            b = q.blocks[b as usize].next;
        }
        assert_eq!(chain, n.div_ceil(BLOCK as u64), "bucket spans its blocks");
        want.sort();
        for (at, _, i) in want {
            assert_eq!(q.pop(), Some((SimTime::from_micros(at), i)));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.heads[slot], NIL, "drained slot is empty");
    }

    /// A FIFO bucket pushed in time order over several blocks, with ties
    /// at each instant, drains already latest-first, and its first pop
    /// only confirms the order: no entry moves and nothing is sorted by
    /// comparison. One pushed out of time order is ordered by the radix
    /// pass, again without a comparison sort.
    #[test]
    fn fifo_drain_lays_the_bucket_out_latest_first() {
        let bucket_us = 1u64 << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        let n = 4 * BLOCK as u64 + 9;
        for i in 0..n {
            q.push(SimTime::from_micros(2 * bucket_us + i / 50 * 7), i);
        }
        q.drain_slot(2);
        assert_eq!(q.run.len(), n as usize);
        assert!(in_pop_order(&q.run), "drained run is not latest-first");
        let drained: Vec<u64> = q.run.iter().map(|s| s.payload).collect();
        q.rev = q.run.len();
        q.ordered = false;
        q.order();
        let ordered: Vec<u64> = q.run.iter().map(|s| s.payload).collect();
        assert_eq!(drained, ordered, "ordering moved an entry");
        assert_eq!(
            q.order_stats(),
            OrderStats {
                linear: n,
                ..OrderStats::default()
            }
        );

        // Instants pushed against time order: the drain is not in order,
        // the radix pass orders it.
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_micros(3 * bucket_us + (n - i) % 7 * 100), i);
        }
        let mut last = (SimTime::ZERO, 0);
        while let Some(got) = q.pop() {
            assert!(got.0 > last.0 || got.0 == last.0 && got.1 > last.1);
            last = got;
        }
        assert_eq!(
            q.order_stats(),
            OrderStats {
                linear: n,
                ..OrderStats::default()
            }
        );
    }

    /// Fills bucket `b` with one event per dispatch of `dispatches`
    /// pushers at the instants `at`, interleaved, each pusher's counter
    /// ascending, as one shard's canonical run pushes them.
    fn canonical_burst(q: &mut EventQueue<u128>, at: &[u64], dispatches: u64, first_pseq: u64) {
        for d in 0..dispatches {
            let pusher = d * 7919 % 101;
            let key = runtime_key(1000 + d / 3, pusher as u32, first_pseq + d, 0);
            q.push_keyed(SimTime::from_micros(at[d as usize % at.len()]), key, key);
        }
    }

    /// Pops everything left, asserting the exact `(time, key)` order.
    fn drain_in_order(q: &mut EventQueue<u128>) -> usize {
        let mut last: Option<(SimTime, u128)> = None;
        let mut popped = 0;
        while let Some(got) = q.pop() {
            assert!(last < Some(got), "{last:?} then {got:?}");
            last = Some(got);
            popped += 1;
        }
        popped
    }

    /// The sharded worker's barrier, at a bucket boundary: pop until
    /// `peek_time() >= end`, inject a batch into the bucket that peek
    /// found, then drain. The batch joins the bucket before it is
    /// ordered: the side heap stays empty and keeps no capacity.
    #[test]
    fn barrier_batch_joins_the_next_bucket_before_it_is_ordered() {
        let bucket_us = 1u64 << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        canonical_burst(&mut q, &[3 * bucket_us], 600, 0);
        canonical_burst(&mut q, &[5 * bucket_us + 10], 900, 10_000);
        let end = SimTime::from_micros(4 * bucket_us);
        let mut popped = 0;
        while q.peek_time().is_some_and(|t| t < end) {
            q.pop();
            popped += 1;
        }
        assert_eq!(popped, 600);
        assert!(!q.ordered, "the closing peek ordered the next bucket");
        for d in 0..700 {
            let key = runtime_key(1000 + d, 200 + d as u32 % 13, d, 0);
            q.push_keyed(SimTime::from_micros(5 * bucket_us + 10), key, key);
        }
        assert_eq!(drain_in_order(&mut q), 1600);
        assert_eq!(q.order_stats().late, 0);
        assert!(q.late.is_empty() && q.late.capacity() == 0);
        assert_eq!(q.order_stats().fallback, 0, "a canonical bucket fell back");
    }

    /// The barrier inside a bucket: an epoch ends between two of its
    /// instants, so the bucket is ordered and partly popped when the batch
    /// arrives. A batch that large is ordered with the rest of the bucket,
    /// not pushed one by one through the side heap.
    #[test]
    fn barrier_batch_inside_an_ordered_bucket_skips_the_side_heap() {
        let bucket_us = 1u64 << BUCKET_SHIFT;
        let base = 3 * bucket_us;
        let mut q = EventQueue::new();
        let at = [base + 100, base + 2000, base + 5000];
        canonical_burst(&mut q, &at, 900, 0);
        let end = SimTime::from_micros(base + 1000);
        while q.peek_time().is_some_and(|t| t < end) {
            q.pop();
        }
        assert!(q.ordered, "the bucket was popped, so it is ordered");
        for d in 0..300 {
            let key = runtime_key(900 + d, 300 + d as u32 % 17, d, 0);
            q.push_keyed(SimTime::from_micros(at[1 + d as usize % 2]), key, key);
        }
        assert_eq!(drain_in_order(&mut q), 600 + 300);
        assert_eq!(q.order_stats().late, 0);
        assert!(q.late.is_empty() && q.late.capacity() == 0);
        assert_eq!(q.order_stats().fallback, 0, "a canonical bucket fell back");
    }
}
