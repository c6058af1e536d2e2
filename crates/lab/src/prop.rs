//! Minimal deterministic property-testing harness (in-tree `proptest`
//! replacement).
//!
//! Design goals, in order: **replayability** (every case is generated
//! from an explicit seed; a falsified property prints the seed that
//! reproduces it), **zero dependencies** (case generation rides the
//! same xoshiro RNG the simulator uses), and **bounded shrinking**
//! (greedy descent over strategy-provided candidates, capped so a
//! pathological shrinker can never hang a test run).
//!
//! A property is a closure `Fn(&V) -> Result<(), String>`; the
//! [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assert_ne!`] macros
//! early-return the `Err`. Panics inside a property (e.g. a failing
//! `unwrap`) are caught and treated as failures so shrinking still
//! works.
//!
//! Environment knobs:
//! * `XLINK_PROP_CASES` — cases per property (default 64).
//! * `XLINK_PROP_SEED` — replay exactly one case from this seed
//!   (hex `0x…` or decimal), as printed by a failure report.
//! * `XLINK_PROP_RUN_SEED` — override the per-property run seed
//!   (default: FNV-1a of the property name, so runs are deterministic).

use crate::rng::Rng;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne};

/// Outcome of one property invocation.
pub type PropResult = Result<(), String>;

/// A value generator with optional shrinking.
///
/// `generate` must be a pure function of the RNG stream — replaying the
/// same seed must rebuild the same value. `shrink` returns *candidate*
/// simpler values; the runner keeps a candidate only if the property
/// still fails on it.
pub trait Strategy {
    type Value: Clone + Debug;
    fn generate(&self, rng: &mut Rng) -> Self::Value;
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128) - (self.start as u128);
                if span > u64::MAX as u128 {
                    rng.next_u64() as $t
                } else {
                    self.start.wrapping_add(rng.below(span as u64) as $t)
                }
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                int_shrink(self.start, *v)
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128) - (lo as u128) + 1;
                if span > u64::MAX as u128 {
                    rng.next_u64() as $t
                } else {
                    lo.wrapping_add(rng.below(span as u64) as $t)
                }
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                int_shrink(*self.start(), *v)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

/// Candidates between `lo` and `v`, biased towards `lo` (macro helper).
macro_rules! impl_int_shrink {
    ($($t:ty),* $(,)?) => {
        $(impl IntShrink for $t {
            fn shrink_towards(lo: Self, v: Self) -> Vec<Self> {
                if v <= lo {
                    return Vec::new();
                }
                // Ascending ladder lo, v-d/2, v-d/4, …, v-1. Greedy
                // descent accepts the smallest failing candidate, which
                // at least halves the distance to the failure boundary
                // per accepted step — logarithmic convergence where a
                // bare [lo, mid, v-1] list degrades to v-1 linear
                // descent whenever mid lands below the boundary.
                let mut out = vec![lo];
                let mut step = (v - lo) / 2;
                while step > 0 {
                    let c = v - step;
                    if c != *out.last().unwrap() {
                        out.push(c);
                    }
                    step /= 2;
                }
                out
            }
        })*
    };
}

trait IntShrink: Sized {
    fn shrink_towards(lo: Self, v: Self) -> Vec<Self>;
}

impl_int_shrink!(u8, u16, u32, u64, usize);

fn int_shrink<T: IntShrink>(lo: T, v: T) -> Vec<T> {
    T::shrink_towards(lo, v)
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut Rng) -> f64 {
        self.start + rng.f64() * (self.end - self.start)
    }
    fn shrink(&self, v: &f64) -> Vec<f64> {
        if *v <= self.start {
            Vec::new()
        } else {
            vec![self.start, (self.start + *v) / 2.0]
        }
    }
}

/// Uniform boolean; shrinks `true` → `false`.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut Rng) -> bool {
        rng.chance(0.5)
    }
    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Uniform byte array (keys, nonces); shrinks to all-zero once.
#[derive(Debug, Clone, Copy)]
pub struct AnyArray<const N: usize>;

pub fn any_array<const N: usize>() -> AnyArray<N> {
    AnyArray
}

impl<const N: usize> Strategy for AnyArray<N> {
    type Value = [u8; N];
    fn generate(&self, rng: &mut Rng) -> [u8; N] {
        let mut a = [0u8; N];
        for b in &mut a {
            *b = rng.below(256) as u8;
        }
        a
    }
    fn shrink(&self, v: &[u8; N]) -> Vec<[u8; N]> {
        if v.iter().any(|&b| b != 0) {
            vec![[0u8; N]]
        } else {
            Vec::new()
        }
    }
}

/// Vector of `elem`-generated values with length drawn from `len`.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    len: std::ops::Range<usize>,
}

pub fn vec_of<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
    VecStrategy { elem, len }
}

/// `Vec<u8>` shorthand: `bytes(0..512)` ≈ proptest's `vec(any::<u8>(), 0..512)`.
pub fn bytes(len: std::ops::Range<usize>) -> VecStrategy<std::ops::RangeInclusive<u8>> {
    vec_of(0u8..=u8::MAX, len)
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
        let n = self.len.generate(rng);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let min = self.len.start;
        let mut out = Vec::new();
        if v.len() > min {
            out.push(v[..min].to_vec());
            let mid = (min + v.len()) / 2;
            if mid > min && mid < v.len() {
                out.push(v[..mid].to_vec());
            }
            out.push(v[..v.len() - 1].to_vec());
            out.push(v[1..].to_vec());
        }
        // Element-wise: try each position's shrink candidates, bounded
        // per position and over leading positions so wide vectors stay
        // cheap.
        for i in 0..v.len().min(16) {
            for c in self.elem.shrink(&v[i]).into_iter().take(8) {
                let mut w = v.clone();
                w[i] = c;
                out.push(w);
            }
        }
        out
    }
}

macro_rules! tuple_strategy {
    ($($s:ident / $i:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for c in self.$i.shrink(&v.$i).into_iter().take(8) {
                        let mut w = v.clone();
                        w.$i = c;
                        out.push(w);
                    }
                )+
                out
            }
        }
    };
}

tuple_strategy!(A / 0);
tuple_strategy!(A / 0, B / 1);
tuple_strategy!(A / 0, B / 1, C / 2);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3);

/// Derived strategy: `f` applied to the inner value. Shrinks the
/// *inner* value and re-maps, so structure built by `f` still gets
/// simpler as the input does.
pub struct Mapped<S, F> {
    inner: S,
    f: F,
}

pub fn map<S, T, F>(inner: S, f: F) -> Mapped<S, F>
where
    S: Strategy,
    T: Clone + Debug,
    F: Fn(S::Value) -> T,
{
    Mapped { inner, f }
}

impl<S, T, F> Strategy for Mapped<S, F>
where
    S: Strategy,
    T: Clone + Debug,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        (self.f)(self.inner.generate(rng))
    }
    // No shrinking through `map`: the pre-image is not stored.
}

/// Runner configuration; see module docs for the environment knobs.
#[derive(Debug, Clone)]
pub struct Config {
    pub cases: u32,
    pub run_seed: u64,
    pub max_shrink_steps: u32,
}

impl Config {
    /// Deterministic default: the run seed is a hash of the property
    /// name, so every CI run generates the identical case sequence.
    pub fn from_env(name: &str) -> Config {
        let cases =
            std::env::var("XLINK_PROP_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
        let run_seed = std::env::var("XLINK_PROP_RUN_SEED")
            .ok()
            .and_then(|v| parse_seed(&v))
            .unwrap_or_else(|| fnv1a(name));
        Config { cases, run_seed, max_shrink_steps: 2000 }
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-case seed: splitmix64 finalizer over (run seed, case index).
fn case_seed(run_seed: u64, i: u32) -> u64 {
    crate::rng::mix(run_seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A falsified property: everything needed to report and replay it.
#[derive(Debug, Clone)]
pub struct Falsified<V> {
    pub name: String,
    pub case_index: u32,
    pub seed: u64,
    pub original: V,
    pub minimal: V,
    pub shrink_steps: u32,
    pub message: String,
}

impl<V: Debug> Falsified<V> {
    pub fn report(&self) -> String {
        format!(
            "property '{}' falsified at case {} (seed 0x{:016x})\n  \
             original: {:?}\n  \
             minimal after {} shrink steps: {:?}\n  \
             error: {}\n  \
             replay: XLINK_PROP_SEED=0x{:016x} cargo test {}",
            self.name,
            self.case_index,
            self.seed,
            self.original,
            self.shrink_steps,
            self.minimal,
            self.message,
            self.seed,
            self.name,
        )
    }
}

fn call<V, P: Fn(&V) -> PropResult>(prop: &P, v: &V) -> PropResult {
    match catch_unwind(AssertUnwindSafe(|| prop(v))) {
        Ok(r) => r,
        Err(payload) => Err(panic_message(&payload)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Greedy bounded shrink: keep the first candidate that still fails.
fn shrink_failure<S, P>(
    cfg: &Config,
    strategy: &S,
    prop: &P,
    mut cur: S::Value,
    mut msg: String,
) -> (S::Value, String, u32)
where
    S: Strategy,
    P: Fn(&S::Value) -> PropResult,
{
    let mut steps = 0u32;
    'outer: loop {
        if steps >= cfg.max_shrink_steps {
            break;
        }
        for cand in strategy.shrink(&cur) {
            if steps >= cfg.max_shrink_steps {
                break 'outer;
            }
            steps += 1;
            if let Err(m) = call(prop, &cand) {
                cur = cand;
                msg = m;
                continue 'outer;
            }
        }
        break;
    }
    (cur, msg, steps)
}

/// Run exactly one case from `seed` (the replay path; also used by the
/// harness's own tests to confirm a printed seed reproduces).
pub fn replay_case<S, P>(
    cfg: &Config,
    name: &str,
    strategy: &S,
    prop: &P,
    case_index: u32,
    seed: u64,
) -> Result<(), Falsified<S::Value>>
where
    S: Strategy,
    P: Fn(&S::Value) -> PropResult,
{
    let mut rng = Rng::new(seed);
    let v = strategy.generate(&mut rng);
    if let Err(msg) = call(prop, &v) {
        let original = v.clone();
        let (minimal, message, shrink_steps) = shrink_failure(cfg, strategy, prop, v, msg);
        return Err(Falsified {
            name: name.to_string(),
            case_index,
            seed,
            original,
            minimal,
            shrink_steps,
            message,
        });
    }
    Ok(())
}

/// Run a property under `cfg`, returning the first falsification.
pub fn run<S, P>(cfg: &Config, name: &str, strategy: &S, prop: P) -> Result<(), Falsified<S::Value>>
where
    S: Strategy,
    P: Fn(&S::Value) -> PropResult,
{
    if let Some(seed) = std::env::var("XLINK_PROP_SEED").ok().and_then(|v| parse_seed(&v)) {
        return replay_case(cfg, name, strategy, &prop, 0, seed);
    }
    for i in 0..cfg.cases {
        replay_case(cfg, name, strategy, &prop, i, case_seed(cfg.run_seed, i))?;
    }
    Ok(())
}

/// Check a property with environment-default configuration, panicking
/// with a replayable report on failure. This is the entry point test
/// modules use.
pub fn check<S, P>(name: &str, strategy: S, prop: P)
where
    S: Strategy,
    P: Fn(&S::Value) -> PropResult,
{
    check_with(&Config::from_env(name), name, &strategy, prop)
}

/// `check` with explicit configuration.
pub fn check_with<S, P>(cfg: &Config, name: &str, strategy: &S, prop: P)
where
    S: Strategy,
    P: Fn(&S::Value) -> PropResult,
{
    if let Err(f) = run(cfg, name, strategy, prop) {
        panic!("{}", f.report());
    }
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", ..)`: early-return
/// an `Err` from a property closure when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !($cond) {
            return Err(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($arg)+)
            ));
        }
    };
}

/// Equality assertion for property closures; mirrors `prop_assert!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if !(*left == *right) {
            return Err(format!(
                "assertion failed: {} == {} ({}:{})\n    left: {:?}\n   right: {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                left,
                right
            ));
        }
    }};
    ($a:expr, $b:expr, $($arg:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(*left == *right) {
            return Err(format!(
                "assertion failed: {} == {} ({}:{}): {}\n    left: {:?}\n   right: {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                format!($($arg)+),
                left,
                right
            ));
        }
    }};
}

/// Inequality assertion for property closures; mirrors `prop_assert!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if *left == *right {
            return Err(format!(
                "assertion failed: {} != {} ({}:{})\n    both: {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                left
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg(name: &str) -> Config {
        // Fixed run seed: the harness's own tests must not depend on
        // the environment.
        let mut cfg = Config::from_env(name);
        cfg.run_seed = 0xfeed_beef;
        cfg
    }

    #[test]
    fn passing_property_passes() {
        check("u64_lt_bound", 0u64..100, |&v| {
            prop_assert!(v < 100);
            Ok(())
        });
    }

    #[test]
    fn generation_is_deterministic_for_fixed_seed() {
        let s = vec_of(0u64..1000, 0..32);
        let a = s.generate(&mut Rng::new(77));
        let b = s.generate(&mut Rng::new(77));
        assert_eq!(a, b);
    }

    #[test]
    fn failing_property_reports_replayable_seed() {
        let cfg = quiet_cfg("ints_below_ten");
        let strategy = 0u64..1000;
        let prop = |v: &u64| -> PropResult {
            prop_assert!(*v < 10, "{v} not below 10");
            Ok(())
        };
        let f = run(&cfg, "ints_below_ten", &strategy, prop).expect_err("must falsify");
        // The reported seed regenerates the identical original
        // counterexample and fails again.
        let g = replay_case(&cfg, "ints_below_ten", &strategy, &prop, f.case_index, f.seed)
            .expect_err("replay must fail too");
        assert_eq!(f.original, g.original);
        assert_eq!(f.minimal, g.minimal);
        assert!(f.report().contains(&format!("XLINK_PROP_SEED=0x{:016x}", f.seed)));
    }

    #[test]
    fn shrinking_is_deterministic_and_minimal_for_ints() {
        let cfg = quiet_cfg("shrink_int");
        let strategy = 0u64..10_000;
        let prop = |v: &u64| -> PropResult {
            prop_assert!(*v < 42);
            Ok(())
        };
        let a = run(&cfg, "shrink_int", &strategy, prop).expect_err("falsified");
        let b = run(&cfg, "shrink_int", &strategy, prop).expect_err("falsified");
        // Deterministic: two runs agree bit-for-bit.
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.minimal, b.minimal);
        assert_eq!(a.shrink_steps, b.shrink_steps);
        // Minimal: greedy descent on integers lands on the boundary.
        assert_eq!(a.minimal, 42);
    }

    #[test]
    fn shrinking_vec_terminates_at_minimal_witness() {
        let cfg = quiet_cfg("shrink_vec");
        let strategy = vec_of(0u64..100, 0..30);
        let prop = |v: &Vec<u64>| -> PropResult {
            prop_assert!(v.iter().all(|&x| x < 50));
            Ok(())
        };
        let f = run(&cfg, "shrink_vec", &strategy, prop).expect_err("falsified");
        assert!(f.shrink_steps <= cfg.max_shrink_steps);
        // The minimal witness is a single offending element at the
        // boundary value.
        assert_eq!(f.minimal, vec![50]);
    }

    #[test]
    fn shrinking_respects_step_bound() {
        let mut cfg = quiet_cfg("shrink_bound");
        cfg.max_shrink_steps = 5;
        let f = run(&cfg, "shrink_bound", &(0u64..1_000_000), |v| {
            prop_assert!(*v < 3);
            Ok(())
        })
        .expect_err("falsified");
        assert!(f.shrink_steps <= 5);
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let cfg = quiet_cfg("panics_at_100");
        let f = run(&cfg, "panics_at_100", &(0u64..1000), |&v| {
            assert!(v < 100, "boom at {v}");
            Ok(())
        })
        .expect_err("falsified");
        assert!(f.message.contains("panic"), "message: {}", f.message);
        assert_eq!(f.minimal, 100);
    }

    #[test]
    fn tuple_and_map_strategies_generate_in_bounds() {
        let mut rng = Rng::new(5);
        let t = (0u64..10, 0usize..4, any_bool());
        for _ in 0..200 {
            let (a, b, _c) = t.generate(&mut rng);
            assert!(a < 10 && b < 4);
        }
        let doubled = map(0u64..50, |v| v * 2);
        for _ in 0..200 {
            let v = doubled.generate(&mut rng);
            assert!(v % 2 == 0 && v < 100);
        }
    }

    #[test]
    fn bytes_and_array_strategies_cover_domain() {
        let mut rng = Rng::new(9);
        let bs = bytes(1..64);
        let mut seen_len = std::collections::HashSet::new();
        for _ in 0..200 {
            let v = bs.generate(&mut rng);
            assert!((1..64).contains(&v.len()));
            seen_len.insert(v.len());
        }
        assert!(seen_len.len() > 10, "lengths poorly covered");
        let arr = any_array::<32>().generate(&mut rng);
        assert!(arr.iter().any(|&b| b != 0));
    }

    #[test]
    fn case_seeds_are_spread() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| case_seed(1, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }
}
