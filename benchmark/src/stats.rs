//! Percentiles and the result digest.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Median of `values`; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over the bit patterns of a workload's outputs: equal digests
/// mean the simulated statistics did not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word, byte by byte.
    pub fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float's exact bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_depends_on_order_and_sign_bit() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.f64(1.0);
        a.f64(2.0);
        b.f64(2.0);
        b.f64(1.0);
        assert_ne!(a, b);
        let (mut p, mut n) = (Fnv::default(), Fnv::default());
        p.f64(0.0);
        n.f64(-0.0);
        assert_ne!(p, n);
    }
}
