//! Sample summaries: medians and the tail percentile the report uses.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (any order).
/// Returns `NaN` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; `NaN` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The tail percentile a sample of `n` supports: the highest whole
/// percentile up to 90 that leaves at least ten samples beyond it, and
/// never below the median.
pub fn tail_percentile(n: usize) -> u32 {
    if n == 0 {
        return 50;
    }
    let p = (100.0 * (1.0 - 10.0 / n as f64)).floor();
    p.clamp(50.0, 90.0) as u32
}

/// The value at [`tail_percentile`] of `samples`, with the percentile used.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    let p = tail_percentile(samples.len());
    (p, quantile(samples, f64::from(p) / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(1000), 90);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(12), 50);
    }
}
