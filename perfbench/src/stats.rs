//! Order statistics for latency samples.

/// The highest percentile a tail is reported at. p99.9 and p99 are left
/// out: on a 2-CPU host shared with other work, warm p99.9 read 0.9–1.7 ms
/// across five seeds (p50 0.33–0.37 ms), and p99 of warm `/simulate` and
/// sweeps spread 0.24–0.50 (IQR/median) over five seeds where p50 spread
/// 0.10–0.22, so they measured the host's scheduling hiccups rather than
/// the server.
const TAIL_CAP: f64 = 90.0;

/// Samples a tail percentile needs beyond it.
const TAIL_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (to 0.1) among `n` samples,
/// in integers so that e.g. p99 of 1000 is exactly rank 990.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000)
}

/// Nearest-rank percentile of ascending-sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A timing as its median plus its tail.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The highest percentile, up to [`TAIL_CAP`], with at least ten
    /// samples beyond it; never below the median. It moves smoothly with
    /// the sample count, so a phase whose count varies from run to run
    /// does not jump between two percentiles.
    pub tail: f64,
    pub tail_pct: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary::default();
    }
    let median_rank = rank(50.0, n).max(1);
    let cap_rank = rank(TAIL_CAP, n);
    let tail_rank = cap_rank
        .min(n.saturating_sub(TAIL_BEYOND))
        .max(median_rank);
    let tail_pct = match tail_rank {
        r if r == cap_rank => TAIL_CAP,
        r if r == median_rank => 50.0,
        r => (r * 1000 / n) as f64 / 10.0,
    };
    Summary {
        n,
        p50: v[median_rank - 1],
        tail: v[tail_rank - 1],
        tail_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.p50, s.tail, s.tail_pct), (500.0, 900.0, 90.0));
        let s = summarize(&v[..100]);
        assert_eq!((s.tail, s.tail_pct), (90.0, 90.0));
        let s = summarize(&v[..78]);
        assert_eq!((s.p50, s.tail, s.tail_pct), (39.0, 68.0, 87.1));
        let s = summarize(&v[..154]);
        assert_eq!((s.tail, s.tail_pct), (139.0, 90.0));
        let s = summarize(&v[..15]);
        assert_eq!((s.p50, s.tail, s.tail_pct), (8.0, 8.0, 50.0));
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
