//! The benchmark's seeded generator: every input a workload uses is drawn
//! from one of these, so one `--seed` always gives the same inputs.

/// SplitMix64 (Steele, Lea & Flood): tiny, fast, and good enough to draw
/// op mixes and arrival gaps.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams of the same
    /// seed by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Due times (ns from 0) of an open loop's arrivals over `seconds`:
    /// bursts of `burst` arrivals at `speedup × rate` (exponential gaps),
    /// each followed by a quiet gap (within 10% of the mean gap) that
    /// restores the mean, scaled so that
    /// exactly `rate × seconds` arrivals fill `seconds`.
    pub fn bursts(&mut self, rate: f64, burst: usize, speedup: f64, seconds: u64) -> Vec<u64> {
        let total = (rate * seconds as f64) as usize;
        let (mut t, mut due) = (0.0, Vec::with_capacity(total));
        while due.len() < total {
            for _ in 0..burst.min(total - due.len()) {
                t += self.exp(1.0 / (speedup * rate));
                due.push(t);
            }
            t += burst as f64 * (speedup - 1.0) / (speedup * rate) * (0.9 + 0.2 * self.unit());
        }
        let scale = seconds as f64 * 1e9 / t;
        due.into_iter().map(|d| (d * scale) as u64).collect()
    }

    /// A 64-bit mask with exactly 32 bits set, uniformly chosen: one
    /// balanced block of a 50/50 operation mix (bit set = enqueue).
    pub fn balanced_mask(&mut self) -> u64 {
        let mut bits: [u8; 64] = std::array::from_fn(|i| i as u8);
        for i in (1..64).rev() {
            let j = self.range(0, i as u64) as usize;
            bits.swap(i, j);
        }
        bits[..32].iter().fold(0, |mask, &b| mask | 1 << b)
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bursts_keep_the_mean_rate() {
        let a = Rng::new(11, 0).bursts(6_500.0, 64, 4.0, 20);
        assert_eq!(a, Rng::new(11, 0).bursts(6_500.0, 64, 4.0, 20));
        assert_ne!(a, Rng::new(12, 0).bursts(6_500.0, 64, 4.0, 20));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 130_000);
        assert!(*a.last().unwrap() < 20_000_000_000);
    }

    #[test]
    fn balanced_masks_are_balanced() {
        let mut rng = Rng::new(3, 0);
        for _ in 0..100 {
            assert_eq!(rng.balanced_mask().count_ones(), 32);
        }
    }
}
