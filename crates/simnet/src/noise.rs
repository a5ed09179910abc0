//! Deterministic pseudo-randomness for service-time jitter.
//!
//! Real parallel file systems exhibit per-request service variance (disk
//! head position, RAID stripe state, server cache hits, competing jobs on
//! shared OSTs). On Jaguar this variance is what makes lock-step collective
//! rounds wait for the *slowest* server each round — a key amplifier of the
//! collective wall. We model it with a small, seeded generator so runs are
//! reproducible. `SplitMix64` is used instead of the `rand` crate inside
//! the substrate to keep the core dependency-light and the stream stable
//! across dependency upgrades; `rand` is still used in workload generators.

/// SplitMix64 PRNG (public-domain algorithm by Sebastiano Vigna).
///
/// Deterministic, tiny state, passes BigCrush when used as intended here:
/// low-volume jitter generation.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// A positive multiplicative jitter factor with mean 1 and the given
    /// coefficient of variation: [`Jitter::draw`] of `Jitter::new(cv)`.
    /// Where `cv` is fixed, hold the [`Jitter`] and draw from it: its
    /// normalisation is computed once.
    pub fn jitter(&mut self, cv: f64) -> f64 {
        Jitter::new(cv).draw(self)
    }
}

/// The jitter distribution of one coefficient of variation, with its mean
/// normalisation computed once: an OST set or a fault rule whose `cv` is
/// fixed draws every factor from one of these.
///
/// A log-uniform construction: exp(U·s − s/2·c) with `s` chosen so the
/// standard deviation matches `cv` to first order. For the small `cv`
/// values used by the calibration (≤ 0.5) the approximation error is
/// irrelevant; what matters is determinism and positivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    cv: f64,
    /// E[exp(cv·U)] for U uniform on [-√3, √3].
    mean: f64,
}

impl Jitter {
    /// The distribution of coefficient of variation `cv` (≤ 0: none).
    pub fn new(cv: f64) -> Jitter {
        // Normalize mean of exp(cv·U): E[exp(aU)] = sinh(a√3)/(a√3).
        let a = cv * 3f64.sqrt();
        let mean = if a.abs() < 1e-12 { 1.0 } else { a.sinh() / a };
        Jitter { cv, mean }
    }

    /// The coefficient of variation.
    pub fn cv(&self) -> f64 {
        self.cv
    }

    /// One factor, drawn from `rng` (which it advances unless `cv ≤ 0`).
    pub fn draw(&self, rng: &mut SplitMix64) -> f64 {
        if self.cv <= 0.0 {
            return 1.0;
        }
        // Uniform on [-√3, √3] has stddev 1; scale by cv and exponentiate.
        let u = rng.uniform(-1.0, 1.0) * 3f64.sqrt();
        let x = (self.cv * u).exp();
        x / self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = g.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    /// Drawing from a held `Jitter` is `jitter(cv)` bit for bit, and
    /// advances the stream alike.
    #[test]
    fn held_jitter_draws_the_same_bits() {
        for cv in [0.0, -0.1, 1e-13, 0.05, 0.3, 0.45, 1.0] {
            let held = Jitter::new(cv);
            let (mut a, mut b) = (SplitMix64::new(17), SplitMix64::new(17));
            for _ in 0..10_000 {
                let (held, direct) = (held.draw(&mut a), b.jitter(cv));
                assert_eq!(held.to_bits(), direct.to_bits(), "cv {cv}");
            }
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn jitter_zero_cv_is_one() {
        let mut g = SplitMix64::new(3);
        assert_eq!(g.jitter(0.0), 1.0);
    }

    #[test]
    fn jitter_mean_near_one_and_positive() {
        let mut g = SplitMix64::new(99);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let j = g.jitter(0.3);
            assert!(j > 0.0);
            sum += j;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 1.0).abs() < 0.02,
            "jitter mean {mean} drifted from 1.0"
        );
    }

    #[test]
    fn jitter_spread_scales_with_cv() {
        let mut g = SplitMix64::new(5);
        let spread = |g: &mut SplitMix64, cv: f64| {
            let xs: Vec<f64> = (0..5000).map(|_| g.jitter(cv)).collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let s_small = spread(&mut g, 0.1);
        let s_big = spread(&mut g, 0.4);
        assert!(s_big > 2.0 * s_small, "cv=0.4 ({s_big}) vs cv=0.1 ({s_small})");
    }
}
