//! Order statistics and the state hash. Every reported timing is a
//! median; spreads are inter-quartile distances as a share of the
//! median, the same rule the acceptance driver applies.

/// Sort a sample set (timings are never NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). 0 for an
/// empty set, which only a workload that attempted nothing produces.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // position k*(n+1)/4, 1-based; the interval is clamped to the
        // sample range but the interpolation is not, as in Python
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, and its value: p95 needs 200 samples, p90 100, p50 20. Returns
/// `(percentile, value)`; with fewer than 20 samples the maximum is all
/// there is and the percentile reads 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (100.0, 0.0);
    }
    if n < 20 {
        return (100.0, v[n - 1]);
    }
    // ten samples lie strictly beyond index n - 11
    let idx = n - 11;
    ((idx + 1) as f64 / n as f64 * 100.0, v[idx])
}

/// FNV-1a over 64-bit words: one xor and multiply per `f64`, so hashing
/// a 32 MiB array costs milliseconds. A multiply only carries
/// information upwards and the interesting bits of an `f64` (sign,
/// exponent) are its top ones, so each step also folds the high half
/// down. Chain arrays by passing the previous hash as `h`.
pub fn fnv_f64(mut h: u64, data: &[f64]) -> u64 {
    for x in data {
        h = (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 32;
    }
    h
}

/// FNV-1a offset basis, the start value of every state hash.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: the seed argument is the only source of variation, so
/// the generator is spelled out here and cannot drift with a dependency.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// A small mixed-sign value with a fractional part: exercises signs
    /// and rounding without ever overflowing under repeated averaging.
    pub fn value(&mut self) -> f64 {
        (self.next_u64() % 4001) as f64 / 8.0 - 250.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!((p, x), (95.0, 190.0));
        assert_eq!(v.iter().filter(|y| **y > x).count(), 10);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), (100.0, 19.0));
        assert_eq!(tail(&[]), (100.0, 0.0));
    }

    #[test]
    fn fnv_depends_on_order_and_bits() {
        let a = fnv_f64(FNV_BASIS, &[1.0, 2.0]);
        assert_ne!(a, fnv_f64(FNV_BASIS, &[2.0, 1.0]));
        assert_ne!(
            fnv_f64(FNV_BASIS, &[0.0]),
            fnv_f64(FNV_BASIS, &[-0.0]),
            "-0.0 and 0.0 differ bitwise"
        );
        assert_eq!(a, fnv_f64(fnv_f64(FNV_BASIS, &[1.0]), &[2.0]));
        // two sign flips must not cancel (they do without the fold)
        assert_ne!(
            fnv_f64(FNV_BASIS, &[1.0, 2.0, 3.0]),
            fnv_f64(FNV_BASIS, &[-1.0, -2.0, 3.0])
        );
    }

    #[test]
    fn splitmix_repeats_per_seed() {
        let mut a = SplitMix64(7);
        let mut b = SplitMix64(7);
        let mut c = SplitMix64(8);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..100 {
            let r = a.range(-3, 5);
            assert!((-3..=5).contains(&r));
            assert!(a.value().abs() <= 250.0);
        }
    }
}
