//! Order statistics over timing samples.

/// Percentile rungs tried for a tail, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Linear-interpolated percentile `p` (0..=100) of `sorted`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// A latency distribution summarised as its median and its tail: the
/// highest ladder percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Distribution {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Distribution {
    pub fn of(values: &[f64]) -> Option<Distribution> {
        if values.is_empty() {
            return None;
        }
        let s = sorted(values);
        let n = s.len();
        let tail_pct = TAIL_LADDER
            .iter()
            .copied()
            .find(|&p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(50.0);
        Some(Distribution {
            n,
            p50: percentile_sorted(&s, 50.0),
            tail_pct,
            tail: percentile_sorted(&s, tail_pct),
        })
    }

    /// Samples strictly beyond the tail percentile's rank.
    pub fn beyond_tail(&self) -> usize {
        ((self.n as f64) * (1.0 - self.tail_pct / 100.0)).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let d = Distribution::of(&v).expect("non-empty");
        assert_eq!(d.tail_pct, 99.0);
        assert!(d.beyond_tail() >= 10);
        let small: Vec<f64> = (0..15).map(f64::from).collect();
        assert_eq!(Distribution::of(&small).expect("non-empty").tail_pct, 50.0);
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
