//! Order statistics over small samples.

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`);
/// 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The best value of a sample: the lowest, or the highest.
///
/// This is what the benchmark reports per end-to-end metric over the
/// passes of one invocation. The recorder's host interferes in bursts
/// (the same single-threaded pass takes 1× or up to 1.85× the time, for
/// half a second to minutes), and interference only ever makes a pass
/// slower, so the best pass is the steadiest estimate of what the program
/// costs; the median follows the neighbour instead (README, "Noise").
pub fn best(values: &[f64], lower_is_better: bool) -> f64 {
    quantile(values, if lower_is_better { 0.0 } else { 1.0 })
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
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
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.1).abs() < 1e-12);
        assert_eq!(best(&v, true), 1.0);
        assert_eq!(best(&v, false), 4.0);
    }
}
