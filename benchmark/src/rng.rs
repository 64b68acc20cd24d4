//! Seeded input generation: the `--seed` argument drives only what this
//! module produces (query order, windows, targets, update schedule).

/// SplitMix64 — small, fast, and good enough to order a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams give the client
    /// threads independent sequences from one `--seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5050_4742);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1) over `n` ranks by inverse CDF, with the ranks mapped through
/// a seeded permutation so each seed has its own hot spots.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    slots: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, rng: &mut Rng) -> Zipf {
        assert!(n > 0, "zipf over an empty range");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / (rank + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut slots: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut slots);
        Zipf { cdf, slots }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.slots[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_streams_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, 0);
        for n in [1usize, 2, 3, 17, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
    }

    #[test]
    fn zipf_is_skewed_towards_few_slots() {
        let mut r = Rng::new(3, 0);
        let z = Zipf::new(100, &mut r);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts[..10].iter().sum();
        assert!(top10 > 20_000 / 2, "top 10 slots drew {top10} of 20000");
        assert!(counts[99] > 0, "the tail is still reachable");
    }
}
