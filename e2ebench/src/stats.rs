//! Order statistics for the benchmark's reports.
//!
//! Percentiles use the nearest-rank rule on sorted samples. A percentile is
//! only reported as a metric when at least [`MIN_TAIL`] samples lie beyond
//! it; otherwise the tail is too thin to compare between runs.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// The `q` percentile when its tail holds at least [`MIN_TAIL`] samples.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let tail = beyond(sorted.len(), q);
    if tail < MIN_TAIL {
        return Err(format!(
            "p{} of {} samples has only {tail} beyond it (need {MIN_TAIL})",
            q * 100.0,
            sorted.len()
        ));
    }
    Ok(percentile(sorted, q))
}

/// The mean over the faster half of `windows` of each window's `q`
/// percentile. Each window must hold at least [`MIN_TAIL`] samples beyond
/// its percentile. The host the benchmark runs on has episodes, seconds
/// long, in which everything runs up to 1.6 times slower; how much of a
/// run they cover changes from run to run. The faster half of the windows
/// shows the program's own speed as long as episodes cover less than half
/// of the run, and averaging it, rather than taking one window, keeps the
/// result from jumping between windows.
pub fn windowed(windows: &[Vec<f64>], q: f64) -> Result<f64, String> {
    let mut per_window = Vec::with_capacity(windows.len());
    for w in windows {
        let mut v = w.clone();
        sort(&mut v);
        per_window.push(tail_percentile(&v, q)?);
    }
    if per_window.is_empty() {
        return Err("no windows".to_owned());
    }
    Ok(fast_half_mean(&per_window))
}

/// Mean of the lower half of unsorted values (the middle one included
/// when their count is odd).
pub fn fast_half_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let half = &v[..v.len().div_ceil(2)];
    half.iter().sum::<f64>() / half.len().max(1) as f64
}

/// Consecutive windows of `size` samples; a shorter tail is dropped unless
/// it is the only window.
pub fn chunks(samples: &[f64], size: usize) -> Vec<Vec<f64>> {
    let full: Vec<Vec<f64>> = samples
        .chunks_exact(size.max(1))
        .map(<[f64]>::to_vec)
        .collect();
    if full.is_empty() {
        vec![samples.to_vec()]
    } else {
        full
    }
}

/// Means of consecutive blocks of `size` samples (a shorter tail block
/// is dropped unless it is the only one).
pub fn block_means(samples: &[f64], size: usize) -> Vec<f64> {
    chunks(samples, size)
        .iter()
        .map(|b| b.iter().sum::<f64>() / b.len().max(1) as f64)
        .collect()
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// Sorts ascending; NaN never occurs in timings, infinities (failed
/// operations) sort last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn reported_percentiles_keep_ten_samples_beyond() {
        // p99 needs 1000 samples for ten beyond; p50 needs 20.
        let thin: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail_percentile(&thin, 0.99).is_err());
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(beyond(enough.len(), 0.99), 10);
        assert!(tail_percentile(&enough, 0.99).is_ok());
        assert!(tail_percentile(&enough[..19], 0.5).is_err());
        assert!(tail_percentile(&enough[..20], 0.5).is_ok());
        for n in [20, 100, 1000, 25_000] {
            for q in [0.5, 0.9, 0.99] {
                if let Ok(p) = tail_percentile(&enough_of(n), q) {
                    let above = enough_of(n).iter().filter(|&&x| x > p).count();
                    assert!(above >= MIN_TAIL, "n={n} q={q}: {above} beyond");
                }
            }
        }
    }

    fn enough_of(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn windowed_averages_the_faster_half_of_window_percentiles() {
        let calm: Vec<f64> = (0..100).map(|i| f64::from(i % 10)).collect();
        let stalled: Vec<f64> = vec![1_000.0; 100];
        let windows = vec![calm.clone(), stalled, calm];
        assert_eq!(windowed(&windows, 0.5).unwrap(), 4.0);
        let fast: Vec<f64> = vec![2.0; 100];
        let slow: Vec<f64> = vec![4.0; 100];
        let mixed = vec![fast.clone(), slow.clone(), fast, slow.clone(), slow];
        // The faster three of [2, 2, 4, 4, 4].
        assert_eq!(windowed(&mixed, 0.5).unwrap(), 8.0 / 3.0);
        assert!(windowed(&[vec![1.0; 5]], 0.5).is_err());
        assert_eq!(chunks(&[1.0, 2.0, 3.0], 2), vec![vec![1.0, 2.0]]);
        assert_eq!(chunks(&[1.0], 2), vec![vec![1.0]]);
        assert_eq!(block_means(&[1.0, 3.0, 5.0, 7.0, 9.0], 2), vec![2.0, 6.0]);
    }

    #[test]
    fn fast_half_mean_keeps_the_lower_half() {
        assert_eq!(fast_half_mean(&[8.0, 1.0, 2.0, 3.0]), 1.5);
        assert_eq!(fast_half_mean(&[100.0, 1.0, 2.0, 3.0, -100.0]), -97.0 / 3.0);
        assert_eq!(fast_half_mean(&[1.0, 3.0]), 1.0);
        assert_eq!(fast_half_mean(&[5.0]), 5.0);
    }

    #[test]
    fn failures_sort_last_and_count_as_missing_the_limit() {
        let mut v = vec![3.0, f64::INFINITY, 1.0, 2.0];
        sort(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0, f64::INFINITY]);
        assert_eq!(percentile(&v, 1.0), f64::INFINITY);
    }
}
