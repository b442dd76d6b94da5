//! Order statistics over measured samples.

/// Sort `v` ascending (NaN-free input).
#[must_use]
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of an ascending slice, `q` in `0..=1`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// The best of `values`: the least when lower is better, else the
/// greatest.
///
/// Applied across the repetitions of one piece of work (the passes of
/// one cell), it keeps the least disturbed one: interference from
/// outside the benchmark only ever slows a repetition, so this is
/// steadier from run to run than the median, while a change that slows
/// every repetition still moves it.
#[must_use]
pub fn best(values: &[f64], lower_is_better: bool) -> f64 {
    let v = sorted(values.to_vec());
    if lower_is_better {
        v[0]
    } else {
        v[v.len() - 1]
    }
}

/// Time `f` `reps` times and return the median wall time in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
