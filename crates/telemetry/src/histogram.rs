//! Fixed-bucket base-2 log-scale histograms with exact bucket bounds.
//!
//! Bucket `i` covers the half-open interval `[2^i, 2^(i+1)) × 1 ns`; with
//! 64 buckets the histogram spans every duration from one nanosecond to
//! several centuries of sim time, which covers any quantity the simulator
//! produces. Values below the first bound land in an *underflow* bucket
//! (this includes exact zeros — e.g. unencrypted packets' encryption
//! time); values past the last bound land in an *overflow* bucket, so no
//! sample is ever silently dropped.
//!
//! Bucket selection reads the exponent field of the value/origin ratio —
//! an exact `floor(log2(·))` for positive normal floats — so the mapping
//! is deterministic across platforms (no `log2()` rounding at bucket
//! edges) and costs a divide and a shift.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log-scale buckets.
const BUCKET_COUNT: usize = 64;

/// Lower bound of bucket 0, seconds (one nanosecond).
const ORIGIN_S: f64 = 1e-9;

/// Where a value lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Underflow,
    Bucket(usize),
    Overflow,
}

fn slot_for(value_s: f64) -> Slot {
    if value_s.is_nan() || value_s < ORIGIN_S {
        // Zeros, negatives, NaNs and sub-nanosecond values.
        return Slot::Underflow;
    }
    let ratio = value_s / ORIGIN_S;
    // Exponent field = floor(log2(ratio)) for positive normal floats.
    let exp = ((ratio.to_bits() >> 52) & 0x7FF) as i64 - 1023;
    if exp < 0 {
        Slot::Underflow
    } else if (exp as usize) < BUCKET_COUNT {
        Slot::Bucket(exp as usize)
    } else {
        Slot::Overflow
    }
}

/// Exact `[low, high)` bounds of bucket `index`, seconds.
pub fn bucket_bounds(index: usize) -> (f64, f64) {
    assert!(index < BUCKET_COUNT, "bucket index {index} out of range");
    let low = ORIGIN_S * 2f64.powi(index as i32);
    (low, low * 2.0)
}

/// The shared storage behind a [`Histogram`] handle.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    underflow: AtomicU64,
    overflow: AtomicU64,
    buckets: [AtomicU64; BUCKET_COUNT],
}

impl HistogramCell {
    pub(crate) fn new() -> Self {
        HistogramCell {
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value_s: f64) {
        let cell = match slot_for(value_s) {
            Slot::Underflow => &self.underflow,
            Slot::Overflow => &self.overflow,
            Slot::Bucket(i) => &self.buckets[i],
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = std::collections::BTreeMap::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.insert(i, n);
            }
        }
        HistogramSnapshot {
            underflow: self.underflow.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A cheap, cloneable handle to a named histogram. No-op when obtained
/// from a disabled registry.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    /// A handle that ignores every operation.
    pub fn noop() -> Self {
        Histogram(None)
    }

    pub(crate) fn live(cell: Arc<HistogramCell>) -> Self {
        Histogram(Some(cell))
    }

    /// Record one sample (seconds).
    #[inline]
    pub fn record(&self, value_s: f64) {
        if let Some(cell) = &self.0 {
            cell.record(value_s);
        }
    }
}

/// Frozen histogram contents: sparse non-empty buckets plus the underflow
/// and overflow tallies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples below `ORIGIN_S` (including exact zeros).
    pub underflow: u64,
    /// Samples at or above the last bucket's upper bound.
    pub overflow: u64,
    /// `bucket index → sample count`, non-empty buckets only.
    pub buckets: std::collections::BTreeMap<usize, u64>,
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.underflow + self.overflow + self.buckets.values().sum::<u64>()
    }

    /// Fold another snapshot of the same metric into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        for (&i, &n) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[f64]) -> HistogramSnapshot {
        let cell = HistogramCell::new();
        for &v in values {
            cell.record(v);
        }
        cell.snapshot()
    }

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        let (lo, hi) = bucket_bounds(0);
        assert_eq!(lo, 1e-9);
        assert_eq!(hi, 2e-9);
        let (lo, hi) = bucket_bounds(30);
        assert!((hi / lo - 2.0).abs() < 1e-15);
    }

    #[test]
    fn values_land_in_the_enclosing_bucket() {
        // A value must satisfy low <= v < high for its own bucket,
        // including exactly-at-boundary values.
        for i in [0usize, 1, 7, 31, 63] {
            let (lo, hi) = bucket_bounds(i);
            for v in [lo, lo * 1.5, hi * 0.999999] {
                match slot_for(v) {
                    Slot::Bucket(b) => {
                        let (blo, bhi) = bucket_bounds(b);
                        assert!(blo <= v && v < bhi, "v={v} bucket {b}: [{blo}, {bhi})");
                        assert_eq!(b, i, "v={v}");
                    }
                    other => panic!("v={v} landed in {other:?}"),
                }
            }
        }
    }

    #[test]
    fn under_and_overflow_catch_extremes() {
        let snap = filled(&[0.0, -1.0, f64::NAN, 1e-12, 1e30]);
        assert_eq!(snap.underflow, 4);
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.count(), 5);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = filled(&[1e-3, 1e-3, 0.0]);
        let b = filled(&[1e-3, 1e-6, 1e30]);
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.underflow, 1);
        assert_eq!(a.overflow, 1);
        let ms_bucket = match slot_for(1e-3) {
            Slot::Bucket(i) => i,
            other => panic!("1e-3 landed in {other:?}"),
        };
        assert_eq!(a.buckets[&ms_bucket], 3);
    }
}
