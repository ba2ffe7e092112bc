//! Deterministic random number helpers.
//!
//! Every stochastic choice in the repository — workload code layout, branch
//! behaviour, back-end data stalls — flows through a [`SimRng`] seeded from a
//! workload seed, so that a given (workload, seed, configuration) triple
//! always produces bit-identical results. This is what makes the experiment
//! harness and the integration tests reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64's output function: a bijective mix in which every output bit
/// depends on every input bit. Seed derivation, the broker's verification
/// sample and the test kit's SplitMix64 stream all finish with it.
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small, fast, deterministic RNG wrapper.
///
/// # Example
///
/// ```
/// use sim_core::rng::SimRng;
/// let mut a = SimRng::seeded(7);
/// let mut b = SimRng::seeded(7);
/// assert_eq!(a.range_u64(0, 100), b.range_u64(0, 100));
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child RNG; `salt` distinguishes children created
    /// from the same parent state.
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.inner.gen::<u64>() ^ salt.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15;
        SimRng::seeded(s)
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick an index from an empty collection");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// The raw 53-bit numerator behind one uniform `[0, 1)` sample: the same
    /// single `next_u64` draw [`chance`](Self::chance)/[`unit`](Self::unit)
    /// consume, without the float conversion. Comparing it against a
    /// [`chance_threshold`](Self::chance_threshold) reproduces `chance(p)`
    /// exactly — same stream position, same outcome — in one integer compare,
    /// which is what the back-end latency model's hot path uses.
    #[inline]
    pub fn unit_bits(&mut self) -> u64 {
        self.inner.next_u64() >> 11
    }

    /// Precomputes the integer threshold `t` such that
    /// `unit_bits() < t  ⇔  chance(p)` for every possible draw.
    ///
    /// `chance(p)` tests `(x >> 11) · 2⁻⁵³ < clamp(p)`; scaling by `2⁵³` is
    /// exact for any `f64`, and comparing the 53-bit integer left side
    /// against `⌈p · 2⁵³⌉` is equivalent for both integer and non-integer
    /// right sides.
    #[inline]
    pub fn chance_threshold(p: f64) -> u64 {
        (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Picks an index according to a slice of non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_index needs at least one weight"
        );
        let total: f64 = weights.iter().copied().map(|w| w.max(0.0)).sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut draw = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if draw < w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }

    /// Geometric-like draw: returns `k >= 1` with mean approximately `mean`,
    /// capped at `cap`. Used for basic-block lengths and run lengths.
    pub fn geometric(&mut self, mean: f64, cap: u64) -> u64 {
        let mean = mean.max(1.0);
        let p = 1.0 / mean;
        let mut k = 1;
        while k < cap && !self.chance(p) {
            k += 1;
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_for_equal_seeds() {
        let mut a = SimRng::seeded(123);
        let mut b = SimRng::seeded(123);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1_000_000), b.range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..32)
            .filter(|_| a.range_u64(0, 1 << 30) == b.range_u64(0, 1 << 30))
            .count();
        assert!(
            same < 4,
            "independent seeds should rarely collide, got {same}/32"
        );
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = SimRng::seeded(9);
        let mut parent2 = SimRng::seeded(9);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        for _ in 0..10 {
            assert_eq!(c1.range_u64(0, 1000), c2.range_u64(0, 1000));
        }
        let mut other = parent1.fork(6);
        let diverged = (0..16).any(|_| other.range_u64(0, 1 << 20) != c1.range_u64(0, 1 << 20));
        assert!(diverged);
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SimRng::seeded(42);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let i = rng.index(7);
            assert!(i < 7);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seeded(42);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seeded(7);
        let counts = (0..10_000).fold([0u32; 3], |mut acc, _| {
            acc[rng.weighted_index(&[0.0, 1.0, 3.0])] += 1;
            acc
        });
        assert_eq!(counts[0], 0);
        assert!(counts[2] > counts[1] * 2, "counts {counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn weighted_index_rejects_empty() {
        SimRng::seeded(0).weighted_index(&[]);
    }

    #[test]
    fn geometric_mean_and_cap() {
        let mut rng = SimRng::seeded(11);
        let draws: Vec<u64> = (0..5000).map(|_| rng.geometric(6.0, 31)).collect();
        let mean = draws.iter().sum::<u64>() as f64 / draws.len() as f64;
        assert!(draws.iter().all(|&d| (1..=31).contains(&d)));
        assert!((4.0..8.0).contains(&mean), "mean {mean}");
    }
}
