//! A small in-tree property-testing kit.
//!
//! The workspace builds offline with zero external crates, so instead of
//! `proptest` the test suites use this kit: a [`check`] driver that runs a
//! property over many deterministically-seeded random cases, and a [`Gen`]
//! handle the property draws its inputs from.
//!
//! Design points:
//!
//! * **Deterministic by construction** — every case seed is derived from
//!   the property name via SplitMix64, so a suite run is bit-identical on
//!   every platform and never flakes. There is no global RNG and no
//!   wall-clock entropy.
//! * **Replayable failures** — a failing case panics with its case seed;
//!   set `DCO_TESTKIT_REPLAY=<seed>` to re-run exactly that case under a
//!   debugger. `DCO_TESTKIT_CASES=<n>` scales the case count up for soak
//!   runs without touching code.
//! * **No shrinking** — cases are cheap and seeds replay exactly, so we
//!   report the seed instead of shrinking. Properties should keep their
//!   input sizes modest (the `Gen` helpers default to small collections).

use dco_sim::rng::{splitmix64, SimRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-case random input source handed to properties.
pub struct Gen {
    rng: SimRng,
    case_seed: u64,
}

impl Gen {
    /// The seed that fully determines this case (printed on failure).
    pub fn case_seed(&self) -> u64 {
        self.case_seed
    }

    /// Direct access to the underlying RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range(lo..hi)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_range(lo..hi)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// A raw 64-bit draw.
    pub fn any_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// `true` with probability `p`.
    pub fn weighted_bool(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// A vector of `len_lo..len_hi` elements, each drawn by `f`.
    pub fn vec_of<T>(
        &mut self,
        len_lo: usize,
        len_hi: usize,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(len_lo, len_hi);
        (0..len).map(|_| f(self)).collect()
    }

    /// A uniform pick from a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "Gen::pick on empty slice");
        &xs[self.usize_in(0, xs.len())]
    }
}

/// Outcome of one property case.
pub type CaseResult = Result<(), String>;

/// FNV-1a over the property name: a stable per-property base seed.
fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `property` over `cases` deterministically-seeded random cases and
/// panics with a replayable seed on the first failure.
///
/// Environment overrides:
/// * `DCO_TESTKIT_REPLAY=<seed>` — run only the case with that exact seed.
/// * `DCO_TESTKIT_CASES=<n>` — override the case count (soak testing).
pub fn check<F>(name: &str, cases: u64, property: F)
where
    F: Fn(&mut Gen) -> CaseResult,
{
    if let Ok(replay) = std::env::var("DCO_TESTKIT_REPLAY") {
        let seed: u64 = parse_seed(&replay)
            .unwrap_or_else(|| panic!("DCO_TESTKIT_REPLAY={replay:?} is not a seed"));
        run_case(name, u64::MAX, seed, &property);
        return;
    }
    let cases = std::env::var("DCO_TESTKIT_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cases);
    let base = name_seed(name);
    for i in 0..cases {
        let case_seed = splitmix64(base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        run_case(name, i, case_seed, &property);
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn run_case<F>(name: &str, case: u64, case_seed: u64, property: &F)
where
    F: Fn(&mut Gen) -> CaseResult,
{
    let mut g = Gen {
        rng: SimRng::seed_from_u64(case_seed),
        case_seed,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut g)));
    let failure = match outcome {
        Ok(Ok(())) => return,
        Ok(Err(msg)) => msg,
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panicked".to_string()),
    };
    let which = if case == u64::MAX {
        "replayed case".to_string()
    } else {
        format!("case {case}")
    };
    panic!(
        "property '{name}' failed at {which} (seed {case_seed:#x}); \
         replay with DCO_TESTKIT_REPLAY={case_seed} — {failure}"
    );
}

/// `assert!` that returns a [`CaseResult`] error instead of panicking, so
/// the driver can attach the replay seed.
#[macro_export]
macro_rules! tk_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` in [`CaseResult`] form.
#[macro_export]
macro_rules! tk_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {} (left: {a:?}, right: {b:?})",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{} (left: {a:?}, right: {b:?})",
                format!($($fmt)+)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0u64;
        check("always-true", 32, |g| {
            let _ = g.any_u64();
            Ok(())
        });
        // `check` has no side channel; count via a second run with state.
        let counter = std::cell::Cell::new(0u64);
        check("counts", 32, |_| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        seen += counter.get();
        assert_eq!(seen, 32);
    }

    #[test]
    fn failing_property_reports_seed() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("fails-on-large", 64, |g| {
                let x = g.u64_in(0, 100);
                tk_assert!(x < 90, "drew {x}");
                Ok(())
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("DCO_TESTKIT_REPLAY="), "{msg}");
        assert!(msg.contains("drew"), "{msg}");
    }

    #[test]
    fn inner_panics_are_reported_with_seed() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("panics", 8, |g| {
                let xs: [u64; 2] = [1, 2];
                // Deliberate out-of-bounds once the index exceeds 1.
                let i = g.usize_in(0, 10);
                let _ = xs[i];
                Ok(())
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("failed at case"), "{msg}");
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let drawn = std::cell::RefCell::new(Vec::new());
            check("stable-stream", 16, |g| {
                drawn.borrow_mut().push(g.any_u64());
                Ok(())
            });
            drawn.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn gen_helpers_respect_bounds() {
        check("gen-bounds", 64, |g| {
            let v = g.vec_of(0, 5, |g| g.u64_in(10, 20));
            tk_assert!(v.len() < 5);
            tk_assert!(v.iter().all(|&x| (10..20).contains(&x)));
            let f = g.f64_in(-1.0, 1.0);
            tk_assert!((-1.0..1.0).contains(&f));
            Ok(())
        });
    }

    #[test]
    fn different_properties_get_different_streams() {
        let stream = |name: &str| {
            let drawn = std::cell::RefCell::new(Vec::new());
            check(name, 4, |g| {
                drawn.borrow_mut().push(g.any_u64());
                Ok(())
            });
            drawn.into_inner()
        };
        assert_ne!(stream("prop-a"), stream("prop-b"));
    }
}
