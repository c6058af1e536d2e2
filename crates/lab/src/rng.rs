//! Small deterministic RNG (xoshiro256**) used for stochastic loss and
//! jitter inside the simulator, and for case generation in the property
//! harness. Seeded explicitly everywhere so every experiment run and
//! every test case is bit-reproducible.

/// The splitmix64 finaliser: a bijective avalanche mix of one word. The
/// workspace's one copy — seed expansion here, per-case seeds in `prop`,
/// stable hashes, CIDs, reset tokens and Retry-token MACs all finish with
/// it, each over its own combination of inputs.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// xoshiro256** PRNG.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed via splitmix64 expansion of a single u64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix(sm)
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform float in [0, 1).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }

    /// Uniform integer in [lo, hi).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Normal-ish sample via the central limit of 6 uniforms (mean 0,
    /// stddev ≈ 1); cheap and good enough for jitter.
    pub fn gaussian(&mut self) -> f64 {
        let sum: f64 = (0..6).map(|_| self.f64()).sum();
        (sum - 3.0) * (2.0f64).sqrt()
    }

    /// Derive an independent child RNG (for sub-streams).
    pub fn fork(&mut self, label: u64) -> Rng {
        Rng::new(self.next_u64() ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = Rng::new(9);
        let mean: f64 = (0..10_000).map(|_| r.f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(5);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng::new(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = Rng::new(13);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(1); // same label, different draw point
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
