//! Small measurement helpers: medians, quantiles of handler samples,
//! the process's peak RSS and a log digest.

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of integer nanosecond samples, taken as the mean of
/// the samples ranked within ±0.5 percentile points of `q`. Averaging a
/// band of order statistics resolves below the clock's 1-ns tick, so
/// two runs rarely print the same figure by accident. Reorders
/// `samples`; 0 when empty.
pub fn band_quantile(samples: &mut [u32], q: f64) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let rank = |p: f64| ((p.clamp(0.0, 1.0) * n as f64) as usize).min(n - 1);
    let (lo, hi) = (rank(q - 0.005), rank(q + 0.005));
    // Partition so that [lo, hi] holds exactly those order statistics.
    samples.select_nth_unstable(lo);
    let upper = &mut samples[lo..];
    upper.select_nth_unstable(hi - lo);
    let band = &upper[..=hi - lo];
    band.iter().map(|&x| f64::from(x)).sum::<f64>() / band.len() as f64
}

/// Peak resident set size of this process so far, in KiB (`VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// CPU time this process's main thread has run so far, from
/// `/proc/self/schedstat` (nanosecond resolution).
pub fn cpu_time() -> Option<std::time::Duration> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns = stat.split_whitespace().next()?.parse().ok()?;
    Some(std::time::Duration::from_nanos(ns))
}

/// FNV-1a digest of a byte string — the identity of a run's log text.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn band_quantile_averages_the_ranks_around_q() {
        let mut v: Vec<u32> = (0..1000).rev().collect();
        // Ranks 495..=505 around the median.
        assert_eq!(band_quantile(&mut v, 0.5), 500.0);
        let mut v: Vec<u32> = (0..1000).collect();
        // Ranks 985..=995 around p99.
        assert_eq!(band_quantile(&mut v, 0.99), 990.0);
        assert_eq!(band_quantile(&mut [7], 0.99), 7.0);
        assert_eq!(band_quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_kb().is_some_and(|kb| kb > 0));
    }
}
