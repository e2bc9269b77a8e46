//! Zipf-distributed sampling.
//!
//! Word frequencies, site popularity, and query popularity are all
//! head-heavy; a rank-`r` item is sampled with probability
//! proportional to `1 / r^s`. Implemented as an inverse-CDF table
//! (the crate avoids `rand_distr` per the dependency budget).

use rand::Rng;

/// A Zipf sampler over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build a sampler for `n` items with exponent `s` (typically
    /// 0.8–1.2).
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over zero items");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 1..=n {
            total += 1.0 / (r as f64).powf(s);
            cumulative.push(total);
        }
        // Normalize.
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Sample a rank in `0..n` (0 is the most likely).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in CDF"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }

    /// Number of items.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Never empty (constructor panics on 0), but clippy insists.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn head_dominates() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[60]);
        // Rank 0 of a 100-item Zipf(1.0) carries ~19% of the mass.
        assert!(counts[0] > 2_500, "head count {}", counts[0]);
    }

    #[test]
    fn samples_are_in_range() {
        let z = Zipf::new(5, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 5);
        }
    }

    #[test]
    fn single_item() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero items")]
    fn zero_items_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn deterministic_with_seed() {
        let z = Zipf::new(50, 1.0);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
