//! Seeded input randomness: SplitMix64 plus a Zipf sampler. Every input
//! the benchmark generates comes from one of these, so a seed fixes the
//! inputs and the expectations computed from them.

/// SplitMix64: tiny, fast, and good enough for workload shaping.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BA5E_D00D_F00D)
    }

    /// An independent stream for one purpose, so adding draws to one
    /// generator never shifts another.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut base = Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Rng(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(1);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        let rank0 = draws.iter().filter(|&&d| d == 0).count();
        let rank500 = draws.iter().filter(|&&d| d == 500).count();
        assert!(rank0 > 100 * rank500.max(1) / 10, "{rank0} vs {rank500}");
        assert!(draws.iter().all(|&d| d < 1000));
    }
}
