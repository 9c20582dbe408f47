//! Percentiles and the slice median every reported rate and latency uses.

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A statistic taken once per slice of the timed window: the reported value
/// is the median of the slices, and min–max is the within-run spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sliced {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// Median of the per-slice values (mean of the two middle ones when their
/// number is even). `None` when no slice produced a value.
pub fn sliced(values: &[f64]) -> Option<Sliced> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    };
    Some(Sliced {
        median,
        min: v[0],
        max: v[v.len() - 1],
    })
}

/// Median of unsorted integer samples, as `f64`.
pub fn median_u64(samples: &mut [u64]) -> Option<f64> {
    samples.sort_unstable();
    percentile(samples, 0.5).map(|v| v as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2));
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.5), Some(3));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn slice_median_and_spread() {
        let s = sliced(&[30.0, 10.0, 20.0]).unwrap();
        assert_eq!((s.median, s.min, s.max), (20.0, 10.0, 30.0));
        let s = sliced(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max), (2.5, 1.0, 4.0));
        assert_eq!(sliced(&[5.0]).unwrap().median, 5.0);
        assert!(sliced(&[]).is_none());
    }
}
