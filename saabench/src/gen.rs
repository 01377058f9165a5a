//! Seeded, stationary input generation.
//!
//! Everything the engine sees is drawn here from the run's `--seed`:
//! symbol and account choice (zipf), prices (a mean-reverting
//! Ornstein-Uhlenbeck walk in integer cents, started from its
//! stationary distribution so there is no warm-up transient), trade
//! sizes and event kinds. A random walk would drift: more rules cross
//! their thresholds as prices wander, and throughput falls within a
//! run. Mean reversion keeps the per-quote work distribution fixed.

/// SplitMix64: small, fast, and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream derived from this seed (one per client
    /// thread or purpose, so streams do not interleave by timing).
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x100_0000_01B3).wrapping_add(stream));
        r.next_u64();
        r
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

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo).max(1)
    }

    /// Approximately standard normal (Irwin-Hall with 12 terms).
    pub fn normal(&mut self) -> f64 {
        (0..12).map(|_| self.unit()).sum::<f64>() - 6.0
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF; rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Per-symbol Ornstein-Uhlenbeck prices in integer cents.
///
/// `p' = p + theta * (mean - p) + step * N(0, 1)`, with `step` chosen
/// so the stationary standard deviation is `sd`. Each symbol only
/// moves when it is quoted, so hot and cold symbols share one
/// stationary distribution.
#[derive(Debug, Clone)]
pub struct Market {
    pub mean: Vec<i64>,
    pub sd: Vec<i64>,
    price: Vec<f64>,
    theta: f64,
}

impl Market {
    /// Symbol `k` gets a mean between $20 and $200 and a stationary
    /// standard deviation of 2% of its mean.
    pub fn new(n: usize, rng: &mut Rng) -> Market {
        let mean: Vec<i64> = (0..n).map(|_| rng.range(2_000, 20_000) as i64).collect();
        let sd: Vec<i64> = mean.iter().map(|m| (m / 50).max(1)).collect();
        let price = mean
            .iter()
            .zip(&sd)
            .map(|(&m, &s)| m as f64 + s as f64 * rng.normal())
            .collect();
        Market {
            mean,
            sd,
            price,
            theta: 0.2,
        }
    }

    /// The current price of symbol `k` in cents.
    pub fn price(&self, k: usize) -> i64 {
        self.price[k].round().max(1.0) as i64
    }

    /// Move symbol `k` one step and return its new price in cents.
    pub fn step(&mut self, k: usize, rng: &mut Rng) -> i64 {
        let t = self.theta;
        let step = self.sd[k] as f64 * (2.0 * t - t * t).sqrt();
        let p = self.price[k];
        self.price[k] = p + t * (self.mean[k] as f64 - p) + step * rng.normal();
        self.price(k)
    }
}

/// The ticker symbol of rank `k`.
pub fn symbol(k: usize) -> String {
    format!("S{k:04}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::fork(7, 1);
        let mut b = Rng::fork(7, 1);
        let mut c = Rng::fork(7, 2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn zipf_is_skewed_toward_rank_zero() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1);
        let mut hits = [0u32; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[90]);
    }

    #[test]
    fn prices_revert_to_the_mean() {
        let mut rng = Rng::new(3);
        let mut m = Market::new(1, &mut rng);
        let (mean, sd) = (m.mean[0] as f64, m.sd[0] as f64);
        let early: f64 = (0..5_000).map(|_| m.step(0, &mut rng) as f64).sum::<f64>() / 5e3;
        let late: f64 = (0..5_000).map(|_| m.step(0, &mut rng) as f64).sum::<f64>() / 5e3;
        assert!((early - mean).abs() < sd && (late - mean).abs() < sd);
    }
}
