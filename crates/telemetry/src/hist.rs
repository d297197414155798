//! Lock-free log-linear histograms for latency-class values.
//!
//! The bucket layout is the classic log-linear (HDR-style) scheme: values
//! below [`SUB_BUCKETS`] get exact unit-width buckets; above that, each
//! power-of-two octave is split into [`SUB_BUCKETS`] linear sub-buckets,
//! bounding the relative quantization error of any recorded value by
//! `1/SUB_BUCKETS` (6.25%). With microsecond samples the top octave ends
//! past 2^40 µs (~12 days), far beyond any latency the server can see;
//! larger values clamp into the last bucket.
//!
//! Recording is wait-free (one relaxed `fetch_add` per bucket plus
//! count/sum/max upkeep); readers take a [`Snapshot`] and extract
//! percentiles from it, so `/metrics` scrapes never stall the hot path.
//! Histograms merge bucket-wise, so per-thread or per-connection
//! histograms combine into one distribution.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave (16 ⇒ ≤ 6.25% relative error).
pub const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Values at or above 2^`MAX_EXP` clamp into the final bucket.
const MAX_EXP: u32 = 40;
/// Total bucket count: one exact region + (MAX_EXP - SUB_BITS) octaves.
pub const BUCKETS: usize = SUB_BUCKETS + (MAX_EXP - SUB_BITS) as usize * SUB_BUCKETS;
const MAX_VALUE: u64 = (1 << MAX_EXP) - 1;

/// Maps a value to its bucket index. Exact below `SUB_BUCKETS`; log-linear
/// above.
fn index_of(value: u64) -> usize {
    let v = value.min(MAX_VALUE);
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = ((v >> (top - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
    (top - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// Inclusive `[lower, upper]` value range of bucket `i` (the inverse of
/// `index_of`).
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    debug_assert!(i < BUCKETS);
    if i < SUB_BUCKETS {
        return (i as u64, i as u64);
    }
    let octave = (i / SUB_BUCKETS - 1) as u32;
    let sub = (i % SUB_BUCKETS) as u64;
    let lower = (SUB_BUCKETS as u64 + sub) << octave;
    let width = 1u64 << octave;
    (lower, lower + width - 1)
}

/// A fixed-size, mergeable, lock-free log-linear histogram.
///
/// All operations use relaxed atomics: counts are statistics, not
/// synchronization, and a scrape racing a record is allowed to miss the
/// in-flight sample.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(f, "Histogram {{ count: {}, max: {} }}", s.count, s.max)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        // `AtomicU64` is not Copy; build the boxed array from a Vec.
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("BUCKETS-sized vec"));
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (wait-free).
    pub fn record(&self, value: u64) {
        self.buckets[index_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Adds every sample of `other` into `self`, bucket-wise.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy for percentile extraction and rendering.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Per-bucket counts (see [`bucket_bounds`] for the value ranges).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact, not quantized).
    pub max: u64,
}

impl Snapshot {
    /// The bucket `[lower, upper]` range containing the `q`-quantile
    /// sample (`q` in `[0, 1]`), by rank `ceil(q * count)` over the
    /// cumulative counts. Empty snapshots return `(0, 0)`.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i);
            }
        }
        bucket_bounds(BUCKETS - 1)
    }

    /// Upper bound of the bucket containing the `q`-quantile sample —
    /// a value guaranteed `>=` the true quantile, within one bucket width
    /// (≤ 6.25% relative error) of it.
    pub fn percentile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).1
    }

    /// Mean of the recorded values (exact — the sum is tracked outside
    /// the buckets). Zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_bounds(index_of(v)), (v, v));
        }
        // The first two octaves still have unit-width buckets.
        for v in SUB_BUCKETS as u64..(4 * SUB_BUCKETS as u64).min(64) {
            let (lo, hi) = bucket_bounds(index_of(v));
            assert!(lo <= v && v <= hi);
        }
    }

    #[test]
    fn bounds_invert_index_everywhere() {
        let probes: Vec<u64> = (0..200)
            .map(|i| (i * i * 31 + i) as u64)
            .chain([0, 1, 15, 16, 17, 1023, 1024, 1025, u64::MAX, MAX_VALUE])
            .collect();
        for v in probes {
            let i = index_of(v);
            assert!(i < BUCKETS, "{v} -> {i}");
            let (lo, hi) = bucket_bounds(i);
            let clamped = v.min(MAX_VALUE);
            assert!(lo <= clamped && clamped <= hi, "{v} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn bucket_bounds_tile_the_axis() {
        // Consecutive buckets cover adjacent, non-overlapping ranges.
        for i in 1..BUCKETS {
            let (_, prev_hi) = bucket_bounds(i - 1);
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, prev_hi + 1, "gap/overlap at bucket {i}");
            assert!(hi >= lo);
        }
        assert_eq!(bucket_bounds(0).0, 0);
        assert_eq!(bucket_bounds(BUCKETS - 1).1, MAX_VALUE);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 999, 5_000, 123_456, 9_999_999] {
            let (lo, hi) = bucket_bounds(index_of(v));
            let width = (hi - lo) as f64;
            assert!(
                width <= v as f64 / SUB_BUCKETS as f64 + 1.0,
                "bucket [{lo},{hi}] too wide for {v}"
            );
        }
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.percentile(0.5);
        let p99 = s.percentile(0.99);
        assert!((469..=532).contains(&p50), "p50 {p50}");
        assert!((928..=1055).contains(&p99), "p99 {p99}");
        assert!(s.percentile(1.0) >= 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for v in 0..500u64 {
            let v = v * 7 + 3;
            a.record(v);
            combined.record(v);
        }
        for v in 0..300u64 {
            let v = v * 13 + 1;
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        let (sa, sc) = (a.snapshot(), combined.snapshot());
        assert_eq!(sa.counts, sc.counts);
        assert_eq!(sa.count, sc.count);
        assert_eq!(sa.sum, sc.sum);
        assert_eq!(sa.max, sc.max);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 997);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().counts.iter().sum::<u64>(), 40_000);
    }
}
