//! Overhead accounting.
//!
//! The paper's third metric, *extra overhead*, is "the number of
//! communication messages other than video chunks", where "one message
//! forwarding operation is regarded as one unit". The engine therefore bumps
//! a counter on **every control transmission** (including each per-hop DHT
//! forward, since a forward is a fresh transmission).
//!
//! Counters are kept three ways:
//!
//! * a grand total per traffic class,
//! * a per-tag breakdown (protocols label sends — `"bufmap"`, `"lookup"`,
//!   `"insert"`, ... ) for diagnosing *where* overhead comes from,
//! * a per-second time series of control units, which is exactly the series
//!   Figure 10 plots.

use crate::rng::splitmix64;
use crate::time::SimTime;

/// Message counters maintained by the engine.
///
/// The per-tag breakdown is a **sorted vector** rather than a `BTreeMap`:
/// the tag population is tiny (one entry per distinct protocol label) while
/// `record_control` runs once per control transmission — tens of millions
/// of times in a large run — so a binary search over one contiguous array,
/// fronted by a last-tag hit cache (sends are bursty per tag), beats tree
/// traversal. Iteration order stays sorted-by-tag, which the snapshot and
/// digest rely on.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    control_total: u64,
    data_total: u64,
    /// `(tag, units)`, sorted by tag.
    by_tag: Vec<(&'static str, u64)>,
    /// Index into `by_tag` of the most recently bumped tag.
    last_tag: usize,
    /// control units bucketed by whole sim second.
    control_per_sec: Vec<u64>,
    dropped_dead: u64,
    dropped_fault: u64,
}

impl Counters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Records one control transmission at `now` with a diagnostic tag.
    pub fn record_control(&mut self, now: SimTime, tag: &'static str) {
        self.control_total += 1;
        self.bump_tag(tag);
        let sec = now.as_secs() as usize;
        if self.control_per_sec.len() <= sec {
            self.control_per_sec.resize(sec + 1, 0);
        }
        self.control_per_sec[sec] += 1;
    }

    #[inline]
    fn bump_tag(&mut self, tag: &'static str) {
        if let Some(e) = self.by_tag.get_mut(self.last_tag) {
            if e.0 == tag {
                e.1 += 1;
                return;
            }
        }
        match self.by_tag.binary_search_by(|(t, _)| (*t).cmp(tag)) {
            Ok(i) => {
                self.by_tag[i].1 += 1;
                self.last_tag = i;
            }
            Err(i) => {
                self.by_tag.insert(i, (tag, 1));
                self.last_tag = i;
            }
        }
    }

    /// Records one data (chunk) transmission.
    pub fn record_data(&mut self) {
        self.data_total += 1;
    }

    /// Records a message dropped because the destination was dead.
    pub fn record_dropped_dead(&mut self) {
        self.dropped_dead += 1;
    }

    /// Records a message dropped by fault injection.
    pub fn record_dropped_fault(&mut self) {
        self.dropped_fault += 1;
    }

    /// Total control transmissions — the paper's "extra overhead".
    pub fn control_total(&self) -> u64 {
        self.control_total
    }

    /// Total data (chunk) transmissions.
    pub fn data_total(&self) -> u64 {
        self.data_total
    }

    /// Units attributed to one tag.
    pub fn tagged(&self, tag: &str) -> u64 {
        match self.by_tag.binary_search_by(|(t, _)| (*t).cmp(tag)) {
            Ok(i) => self.by_tag[i].1,
            Err(_) => 0,
        }
    }

    /// The full per-tag breakdown, sorted by tag.
    pub fn tags(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.by_tag.iter().map(|&(k, v)| (k, v))
    }

    /// Control units in the whole second `sec` (0 if beyond the run).
    pub fn control_in_second(&self, sec: u64) -> u64 {
        self.control_per_sec.get(sec as usize).copied().unwrap_or(0)
    }

    /// Cumulative control units up to and including second `sec`.
    pub fn control_through_second(&self, sec: u64) -> u64 {
        self.control_per_sec.iter().take(sec as usize + 1).sum()
    }

    /// Messages dropped to dead destinations.
    pub fn dropped_dead(&self) -> u64 {
        self.dropped_dead
    }

    /// Messages dropped by fault injection.
    pub fn dropped_fault(&self) -> u64 {
        self.dropped_fault
    }

    /// A comparable, order-stable snapshot of every counter, including the
    /// full per-tag breakdown. Two runs of the same seeded cell must
    /// produce `Eq` snapshots — the determinism regression tests and the
    /// sweep harness rely on this.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            control_total: self.control_total,
            data_total: self.data_total,
            by_tag: self
                .by_tag
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
            control_per_sec: self.control_per_sec.clone(),
            dropped_dead: self.dropped_dead,
            dropped_fault: self.dropped_fault,
        }
    }

    /// A 64-bit digest of [`Counters::snapshot`] — cheap to store per sweep
    /// cell and to compare across `--jobs` levels.
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut fold = |w: u64| h = splitmix64(h ^ w);
        fold(self.control_total);
        fold(self.data_total);
        fold(self.dropped_dead);
        fold(self.dropped_fault);
        for (tag, n) in &self.by_tag {
            for b in tag.bytes() {
                fold(u64::from(b));
            }
            fold(*n);
        }
        for (sec, n) in self.control_per_sec.iter().enumerate() {
            if *n != 0 {
                fold(sec as u64);
                fold(*n);
            }
        }
        h
    }
}

/// Allocation accounting for the measuring binaries.
///
/// [`perf::CountingAlloc`] wraps the system allocator behind relaxed atomic
/// counters; a binary installs it with `#[global_allocator]` and brackets
/// each measured region with [`perf::AllocStats::snapshot`]. The
/// simulation itself never reads these counters — they exist so
/// `perfbench` and the sharded runs of `dco-perf` can report allocations
/// and peak live bytes alongside wall clock without dragging a profiler
/// into the tree. In binaries that do *not* install the allocator every
/// snapshot is zero and the deltas degrade gracefully.
pub mod perf {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
    use std::time::Instant;

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static FREES: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);
    /// Bytes currently allocated (allocs minus frees). Signed so a free of
    /// memory obtained before the allocator was consulted cannot wrap.
    static LIVE: AtomicI64 = AtomicI64::new(0);
    /// High-water mark of `LIVE` since process start (or the last
    /// [`AllocStats::reset_peak`]).
    static PEAK: AtomicI64 = AtomicI64::new(0);

    #[inline]
    fn live_add(delta: i64) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        if delta > 0 {
            PEAK.fetch_max(live, Relaxed);
        }
    }

    /// A counting wrapper over the system allocator. Install in a perf
    /// binary with `#[global_allocator] static A: CountingAlloc =
    /// CountingAlloc;` — the per-call cost is two relaxed atomic adds.
    pub struct CountingAlloc;

    // SAFETY: defers every allocation verbatim to `System`; the counters
    // are monotonic atomics with no effect on the returned memory.
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            live_add(layout.size() as i64);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            FREES.fetch_add(1, Relaxed);
            live_add(-(layout.size() as i64));
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            live_add(new_size as i64 - layout.size() as i64);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Cumulative allocator totals at one instant.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct AllocStats {
        /// Allocations (incl. reallocs) since process start.
        pub allocs: u64,
        /// Deallocations since process start.
        pub frees: u64,
        /// Bytes requested since process start (not live bytes).
        pub bytes: u64,
    }

    impl AllocStats {
        /// The current cumulative totals (all zero unless a
        /// [`CountingAlloc`] is installed as the global allocator).
        pub fn snapshot() -> AllocStats {
            AllocStats {
                allocs: ALLOCS.load(Relaxed),
                frees: FREES.load(Relaxed),
                bytes: BYTES.load(Relaxed),
            }
        }

        /// Bytes currently allocated and not yet freed (0 unless a
        /// [`CountingAlloc`] is installed).
        pub fn live_bytes() -> u64 {
            LIVE.load(Relaxed).max(0) as u64
        }

        /// High-water mark of [`AllocStats::live_bytes`] since process
        /// start or the last [`AllocStats::reset_peak`].
        pub fn peak_live_bytes() -> u64 {
            PEAK.load(Relaxed).max(0) as u64
        }

        /// Rewinds the live-bytes high-water mark to the current live
        /// level, so the next [`AllocStats::peak_live_bytes`] reports the
        /// peak of the region that starts *now*. Not thread-safe with
        /// respect to concurrent measured regions — the perf binaries
        /// measure one region at a time.
        pub fn reset_peak() {
            PEAK.store(LIVE.load(Relaxed), Relaxed);
        }

        /// Totals accrued since an `earlier` snapshot.
        pub fn delta_since(self, earlier: AllocStats) -> AllocStats {
            AllocStats {
                allocs: self.allocs.saturating_sub(earlier.allocs),
                frees: self.frees.saturating_sub(earlier.frees),
                bytes: self.bytes.saturating_sub(earlier.bytes),
            }
        }
    }

    /// Wall-clock + allocation meter for one measured region.
    pub struct PerfMeter {
        t0: Instant,
        a0: AllocStats,
    }

    impl PerfMeter {
        /// Starts timing now. Also rewinds the live-bytes high-water mark,
        /// so the sample's `peak_live_bytes` covers exactly this region.
        #[allow(clippy::new_without_default)]
        pub fn start() -> PerfMeter {
            AllocStats::reset_peak();
            PerfMeter {
                a0: AllocStats::snapshot(),
                t0: Instant::now(),
            }
        }

        /// Stops timing.
        pub fn finish(self) -> PerfSample {
            PerfSample {
                wall_ns: self.t0.elapsed().as_nanos(),
                alloc: AllocStats::snapshot().delta_since(self.a0),
                peak_live_bytes: AllocStats::peak_live_bytes(),
            }
        }
    }

    /// One measured region: wall clock and allocator deltas.
    #[derive(Clone, Copy, Debug)]
    pub struct PerfSample {
        /// Wall-clock nanoseconds.
        pub wall_ns: u128,
        /// Allocator activity in the region.
        pub alloc: AllocStats,
        /// Peak bytes simultaneously live during the region (the memory
        /// the region actually *needed*, as opposed to `alloc.bytes`,
        /// which is cumulative turnover).
        pub peak_live_bytes: u64,
    }

    impl PerfSample {
        /// Wall-clock milliseconds as a float.
        pub fn wall_ms(&self) -> f64 {
            self.wall_ns as f64 / 1e6
        }
    }
}

/// An owned, comparable copy of all counters at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Total control transmissions.
    pub control_total: u64,
    /// Total data transmissions.
    pub data_total: u64,
    /// Per-tag breakdown, sorted by tag.
    pub by_tag: Vec<(String, u64)>,
    /// Control units per whole second.
    pub control_per_sec: Vec<u64>,
    /// Drops to dead destinations.
    pub dropped_dead: u64,
    /// Drops by fault injection.
    pub dropped_fault: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_tags() {
        let mut c = Counters::new();
        c.record_control(SimTime::from_secs(0), "lookup");
        c.record_control(SimTime::from_secs(0), "lookup");
        c.record_control(SimTime::from_secs(1), "insert");
        c.record_data();
        assert_eq!(c.control_total(), 3);
        assert_eq!(c.data_total(), 1);
        assert_eq!(c.tagged("lookup"), 2);
        assert_eq!(c.tagged("insert"), 1);
        assert_eq!(c.tagged("missing"), 0);
        let tags: Vec<_> = c.tags().collect();
        assert_eq!(tags, vec![("insert", 1), ("lookup", 2)]);
    }

    #[test]
    fn tag_breakdown_stays_sorted_under_interleaving() {
        let mut c = Counters::new();
        // Bursty + interleaved bumps exercise the last-tag hit cache and
        // the binary-search miss path in both directions.
        for tag in ["zz", "aa", "zz", "mm", "aa", "aa", "zz", "mm"] {
            c.record_control(SimTime::from_secs(0), tag);
        }
        let tags: Vec<_> = c.tags().collect();
        assert_eq!(tags, vec![("aa", 3), ("mm", 2), ("zz", 3)]);
        assert_eq!(c.tagged("mm"), 2);
        assert_eq!(c.tagged("absent"), 0);
    }

    #[test]
    fn per_second_series() {
        let mut c = Counters::new();
        c.record_control(SimTime::from_millis(100), "x");
        c.record_control(SimTime::from_millis(900), "x");
        c.record_control(SimTime::from_millis(2500), "x");
        assert_eq!(c.control_in_second(0), 2);
        assert_eq!(c.control_in_second(1), 0);
        assert_eq!(c.control_in_second(2), 1);
        assert_eq!(c.control_in_second(99), 0);
        assert_eq!(c.control_through_second(0), 2);
        assert_eq!(c.control_through_second(2), 3);
        assert_eq!(c.control_through_second(50), 3);
    }

    #[test]
    fn snapshot_and_digest_track_state() {
        let mut a = Counters::new();
        let mut b = Counters::new();
        for c in [&mut a, &mut b] {
            c.record_control(SimTime::from_secs(1), "lookup");
            c.record_data();
            c.record_dropped_fault();
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.digest(), b.digest());
        b.record_control(SimTime::from_secs(2), "insert");
        assert_ne!(a.snapshot(), b.snapshot());
        assert_ne!(a.digest(), b.digest());
        // The digest sees per-second placement, not just totals.
        let mut c = Counters::new();
        c.record_control(SimTime::from_secs(5), "lookup");
        let mut d = Counters::new();
        d.record_control(SimTime::from_secs(6), "lookup");
        assert_eq!(c.control_total(), d.control_total());
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    fn perf_meter_and_alloc_deltas() {
        use super::perf::{AllocStats, PerfMeter};
        let later = AllocStats {
            allocs: 10,
            frees: 7,
            bytes: 4096,
        };
        let earlier = AllocStats {
            allocs: 4,
            frees: 9, // deltas saturate rather than wrap
            bytes: 1024,
        };
        let d = later.delta_since(earlier);
        assert_eq!((d.allocs, d.frees, d.bytes), (6, 0, 3072));

        let sample = PerfMeter::start().finish();
        assert!(sample.wall_ms() >= 0.0);
        // Without a CountingAlloc installed (lib tests run on the system
        // allocator) the byte gauges read zero and must not underflow.
        assert_eq!(sample.peak_live_bytes, 0);
        assert_eq!(AllocStats::live_bytes(), 0);
        AllocStats::reset_peak();
        assert_eq!(AllocStats::peak_live_bytes(), 0);
    }

    #[test]
    fn drop_counters() {
        let mut c = Counters::new();
        c.record_dropped_dead();
        c.record_dropped_fault();
        c.record_dropped_fault();
        assert_eq!(c.dropped_dead(), 1);
        assert_eq!(c.dropped_fault(), 2);
    }
}
