//! Order statistics over kept samples.
//!
//! Every latency sample of a run is kept; percentiles are exact order
//! statistics (nearest rank), never bucket midpoints.

/// Percentiles the tail rule chooses from, ascending.
pub const TAIL_LADDER: [f64; 9] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.99];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted`: the sample at rank
/// `ceil(p/100 · n)` (1-based). `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Summary of one latency population.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The highest percentile the sample supports (see
    /// [`tail_percentile`]) and its value.
    pub tail: Option<(f64, f64)>,
}

/// Summarize `samples` (any order). `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Summary {
        n: s.len(),
        p50: percentile(&s, 50.0)?,
        p99: percentile(&s, 99.0)?,
        tail: tail_percentile(s.len()).and_then(|p| Some((p, percentile(&s, p)?))),
    })
}

/// Robust percentile of a sample taken in time order: split it into
/// `windows` contiguous runs of (nearly) equal count, take the
/// nearest-rank `p` percentile of each, and return their median. A
/// disturbance confined to a minority of the windows cannot move it.
pub fn windowed_percentile(in_order: &[f64], windows: usize, p: f64) -> Option<f64> {
    let windows = windows.clamp(1, in_order.len().max(1));
    let per: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let (a, b) = (
                w * in_order.len() / windows,
                (w + 1) * in_order.len() / windows,
            );
            let mut chunk = in_order[a..b].to_vec();
            chunk.sort_by(f64::total_cmp);
            percentile(&chunk, p)
        })
        .collect();
    median(&per)
}

/// Median of `samples` (any order); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_actual_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 99.5), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Small populations: p99 of 10 samples is the maximum.
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&t, 99.0), Some(10.0));
        assert_eq!(percentile(&t, 50.0), Some(5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.5 only 5.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.5), 5);
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 leaves 9 beyond, so p98 is the tail.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), Some(98.0));
        // 200 samples: p95 leaves 10 beyond.
        assert_eq!(tail_percentile(200), Some(95.0));
        // 100 000 samples support p99.99 (10 beyond).
        assert_eq!(tail_percentile(100_000), Some(99.99));
        // 20 samples: the median leaves 10 beyond; 19 do not.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_count_median_and_supported_tail() {
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, 989.0);
        assert_eq!(s.tail, Some((99.0, 989.0)));
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn windowed_percentile_shrugs_off_one_disturbed_window() {
        // Five windows of 100; the third is disturbed.
        let mut s: Vec<f64> = (0..500).map(|i| (i % 100) as f64).collect();
        for v in &mut s[200..300] {
            *v += 1000.0;
        }
        assert_eq!(windowed_percentile(&s, 5, 99.0), Some(98.0));
        let mut all = s.clone();
        all.sort_by(f64::total_cmp);
        assert!(
            percentile(&all, 99.0).unwrap() > 1000.0,
            "the plain p99 is moved"
        );
        // One window is the plain percentile; empty input has none.
        assert_eq!(windowed_percentile(&s[..100], 1, 50.0), Some(49.0));
        assert_eq!(windowed_percentile(&[], 5, 50.0), None);
    }
}
