//! Seeded randomness.
//!
//! Every run is driven by a single master `u64` seed. The engine keeps one
//! [`SimRng`] for its own draws (fault coin-flips, protocol picks) and
//! protocols can derive **independent per-node streams** through
//! [`RngHub`], so adding a random draw in one protocol module does not
//! perturb the sequence seen by another.
//!
//! Stream derivation uses SplitMix64 over `(master, stream, node)`, the
//! standard way to fan one seed out into decorrelated substreams.
//!
//! [`SimRng`] is an in-tree xoshiro256++ generator: the workspace builds
//! with no external crates (offline-reproducible), and the sequence for a
//! given seed is bit-identical on every platform and toolchain — a harder
//! guarantee than an external RNG crate gives across versions, and the
//! bedrock of the sweep harness's cross-`--jobs` determinism checks.

use crate::node::NodeId;

/// SplitMix64 finalizer; decorrelates nearby seeds.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic PRNG used everywhere in the workspace: xoshiro256++
/// seeded through SplitMix64.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// A generator whose whole state is derived from `seed` via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform draw of the requested type (`u64`, `u32`, `usize`, `f64`
    /// in `[0, 1)`, or `bool`).
    #[inline]
    pub fn gen<T: StandardDraw>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniform draw from a half-open or inclusive integer range, or a
    /// half-open `f64` range. Panics on an empty range.
    #[inline]
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen::<f64>() < p
        }
    }

    /// Fisher–Yates shuffle of `xs` in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }
}

/// Types [`SimRng::gen`] can draw uniformly.
pub trait StandardDraw {
    /// Draws one value.
    fn draw(rng: &mut SimRng) -> Self;
}

impl StandardDraw for u64 {
    #[inline]
    fn draw(rng: &mut SimRng) -> u64 {
        rng.next_u64()
    }
}

impl StandardDraw for u32 {
    #[inline]
    fn draw(rng: &mut SimRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardDraw for usize {
    #[inline]
    fn draw(rng: &mut SimRng) -> usize {
        rng.next_u64() as usize
    }
}

impl StandardDraw for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn draw(rng: &mut SimRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardDraw for bool {
    #[inline]
    fn draw(rng: &mut SimRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`SimRng::gen_range`] can sample uniformly.
pub trait UniformRange {
    /// The element type of the range.
    type Output;
    /// Samples one value.
    fn sample(self, rng: &mut SimRng) -> Self::Output;
}

/// Uniform integer in `[0, n)` by multiply-shift; `n` must be non-zero.
/// A modulo would do for simulation purposes, but widening multiply is
/// just as cheap and nearly bias-free.
#[inline]
fn below(rng: &mut SimRng, n: u64) -> u64 {
    ((rng.next_u64() as u128 * n as u128) >> 64) as u64
}

macro_rules! impl_int_range {
    ($t:ty) => {
        impl UniformRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end - self.start) as u64;
                self.start + below(rng, span) as $t
            }
        }
        impl UniformRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX as $t as u64 && core::mem::size_of::<$t>() == 8 {
                    return rng.next_u64() as $t;
                }
                lo + below(rng, span + 1) as $t
            }
        }
    };
}

impl_int_range!(u64);
impl_int_range!(u32);
impl_int_range!(usize);

impl UniformRange for core::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty f64 range");
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

/// A factory of decorrelated RNG streams derived from one master seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RngHub {
    master: u64,
}

impl RngHub {
    /// A hub for the given master seed.
    pub fn new(master: u64) -> Self {
        RngHub { master }
    }

    /// The master seed.
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// The engine's own stream.
    pub fn engine_rng(&self) -> SimRng {
        SimRng::seed_from_u64(splitmix64(self.master ^ 0xE46E_0000_0000_0001))
    }

    /// A per-node stream within a subsystem.
    pub fn node_rng(&self, stream: u64, node: NodeId) -> SimRng {
        let s = splitmix64(splitmix64(self.master) ^ stream);
        SimRng::seed_from_u64(splitmix64(s ^ (node.0 as u64).wrapping_mul(0x9E37_79B9)))
    }

    /// An independent stream for one experiment cell, derived from the
    /// cell's coordinates — the sweep harness gives every `(method, scale,
    /// churn, seed)` cell its own master seed so cells stay decorrelated
    /// however they are ordered across worker threads.
    pub fn cell_seed(&self, cell: u64) -> u64 {
        splitmix64(splitmix64(self.master ^ 0xCE11_CE11_CE11_CE11) ^ cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Nearby inputs produce far-apart outputs.
        let a = splitmix64(100);
        let b = splitmix64(101);
        assert!((a ^ b).count_ones() > 10);
    }

    #[test]
    fn same_seed_same_streams() {
        let h1 = RngHub::new(42);
        let h2 = RngHub::new(42);
        let mut a = h1.node_rng(3, NodeId(7));
        let mut b = h2.node_rng(3, NodeId(7));
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_nodes_get_different_streams() {
        let h = RngHub::new(42);
        let mut a = h.node_rng(0, NodeId(1));
        let mut b = h.node_rng(0, NodeId(2));
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_streams_differ_for_same_node() {
        let h = RngHub::new(42);
        let mut a = h.node_rng(0, NodeId(1));
        let mut b = h.node_rng(1, NodeId(1));
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn engine_rng_differs_from_streams() {
        let h = RngHub::new(42);
        let mut e = h.engine_rng();
        let mut s = h.node_rng(0, NodeId(0));
        assert_ne!(e.gen::<u64>(), s.gen::<u64>());
        assert_eq!(h.master_seed(), 42);
    }

    #[test]
    fn cell_seeds_are_decorrelated() {
        let h = RngHub::new(42);
        assert_eq!(h.cell_seed(3), h.cell_seed(3));
        assert_ne!(h.cell_seed(3), h.cell_seed(4));
        assert_ne!(RngHub::new(1).cell_seed(3), RngHub::new(2).cell_seed(3));
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(5u32..=5);
            assert_eq!(y, 5);
            let z = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&z));
            let w = rng.gen_range(0usize..3);
            assert!(w < 3);
        }
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut rng = SimRng::seed_from_u64(11);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "measured {rate}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(13);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        // A 50-element shuffle virtually never returns identity.
        assert_ne!(xs, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn sequences_are_platform_stable() {
        // Golden values pin the exact bit stream: any change to seeding or
        // the generator is a determinism break and must be deliberate.
        let mut rng = SimRng::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        // Verified against an independent implementation of xoshiro256++
        // with SplitMix64 state expansion (the reference construction).
        assert_eq!(
            got,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330,
            ]
        );
    }
}
