//! Fixed-bucket histograms and span timing.
//!
//! ## Why fixed buckets
//!
//! The alternatives are a reservoir (needs a lock or an RNG — both banned
//! on the pipeline's deterministic hot path) or a growable sketch (needs
//! allocation under contention). A fixed geometric bucket ladder needs no
//! lock and no allocation per observation, is mergeable across threads by
//! construction, and bounds the percentile error by the bucket ratio
//! (~25% worst-case per decade here), which is plenty to steer
//! optimisation work: the perf trajectory cares about 2× regressions,
//! not 2% ones.
//!
//! ## What a record costs
//!
//! [`Histogram::record`] is four `Relaxed` read-modify-writes per
//! observation: `fetch_add` on the bucket and the sum, plus a
//! `fetch_min` and a `fetch_max`, which compile to compare-and-swap loops
//! on x86. That is cheap for a span timed once per frame and expensive
//! for a per-packet latency recorded thousands of times per frame.
//!
//! A hot loop with a single owner stages its observations in a
//! [`HistogramBatch`] instead: `record` there is plain integer arithmetic
//! on the owner's buffer, and [`HistogramBatch::flush`] publishes the
//! whole batch with one `fetch_add` per non-empty bucket, one for the
//! sum, and one `fetch_min`/`fetch_max`. A flush leaves the
//! histogram exactly as recording each observation would have, so a
//! reader that snapshots after it cannot tell the two apart.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default latency bucket upper bounds, nanoseconds: four points per
/// decade (1, 1.8, 3.2, 5.6 ×10ⁿ) from 100 ns to 100 s — 37 buckets plus
/// the implicit overflow bucket. Wide enough for a single FIR tap and a
/// full Monte-Carlo campaign alike.
pub fn ns_buckets() -> Vec<u64> {
    let mut bounds = Vec::with_capacity(37);
    let mut decade = 100u64;
    while decade <= 100_000_000_000 {
        for mantissa in [10u64, 18, 32, 56] {
            let b = decade / 10 * mantissa;
            if b <= 100_000_000_000 {
                bounds.push(b);
            }
        }
        decade *= 10;
    }
    bounds.dedup();
    bounds
}

/// Shared storage behind a [`Histogram`] handle.
#[derive(Debug)]
struct HistCore {
    /// Ascending bucket upper bounds; observations above the last bound
    /// land in the overflow slot `counts[bounds.len()]`.
    bounds: Vec<u64>,
    /// One count per bucket plus the overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    /// Running minimum (u64::MAX until the first observation).
    min: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram handle (lock-free, `Relaxed` atomics).
///
/// Cloning shares the storage; a default-constructed histogram is a
/// no-op handle that records nothing and never reads the clock.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    core: Option<Arc<HistCore>>,
}

impl Histogram {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Histogram { core: None }
    }

    /// A live histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly ascending"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Some(Arc::new(HistCore {
                bounds,
                counts,
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            })),
        }
    }

    /// Does this handle actually record?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let Some(core) = &self.core else { return };
        // partition_point: first bucket whose upper bound holds v.
        let idx = core.bounds.partition_point(|&b| b < v);
        core.counts[idx].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.min.fetch_min(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Starts a span that records its elapsed nanoseconds here when
    /// dropped. A no-op histogram yields a span that never touches the
    /// clock — the disabled path costs one branch.
    #[inline]
    pub fn span(&self) -> SpanTimer<'_> {
        SpanTimer {
            hist: self,
            start: self.core.as_ref().map(|_| Instant::now()),
        }
    }

    /// Per-bucket observation counts, ascending, with the overflow bucket
    /// last (empty for a no-op handle).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.core.as_ref().map_or_else(Vec::new, |core| {
            core.counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect()
        })
    }

    /// Immutable snapshot with derived percentiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let Some(core) = &self.core else {
            return HistogramSnapshot::default();
        };
        let counts = self.bucket_counts();
        let count: u64 = counts.iter().sum();
        let sum = core.sum.load(Ordering::Relaxed);
        let min = core.min.load(Ordering::Relaxed);
        let max = core.max.load(Ordering::Relaxed);
        let (min, max) = if count == 0 { (0, 0) } else { (min, max) };
        let pct = |q: f64| percentile_from_buckets(&core.bounds, &counts, count, min, max, q);
        HistogramSnapshot {
            count,
            sum,
            min,
            max,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

/// A single-owner staging buffer in front of one [`Histogram`].
///
/// [`record`](Self::record) buckets an observation into the owner's own
/// counters; [`flush`](Self::flush) publishes everything staged since the
/// last flush. [`merge_from`](Self::merge_from) folds another batch's
/// staged observations in, so an aggregate histogram can be derived from
/// per-class batches without bucketing each observation twice. A batch
/// over a no-op histogram holds no storage and every call returns at
/// once; a live batch sizes its bucket buffer on first use.
#[derive(Clone, Debug)]
pub struct HistogramBatch {
    target: Histogram,
    /// Staged per-bucket counts (empty until the first observation).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistogramBatch {
    /// An empty batch that publishes into `target`.
    pub fn new(target: Histogram) -> Self {
        HistogramBatch {
            target,
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Stages one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let Some(core) = &self.target.core else {
            return;
        };
        if self.counts.is_empty() {
            self.counts = vec![0; core.counts.len()];
        }
        // A forward scan, not a binary search: the per-packet
        // observations batched here sit in the first few buckets, where
        // the scan stops after a compare or two instead of walking a
        // chain of dependent loads.
        let idx = core.bounds.iter().position(|&b| v <= b);
        self.counts[idx.unwrap_or(core.bounds.len())] += 1;
        self.stage(1, v, v, v);
    }

    /// Stages every observation `other` holds, as if each had been
    /// recorded here too. `other` is left as it was.
    ///
    /// # Panics
    /// Panics if both batches are live and their histograms' bucket
    /// bounds differ.
    pub fn merge_from(&mut self, other: &HistogramBatch) {
        if other.count == 0 {
            return;
        }
        let (Some(core), Some(theirs)) = (&self.target.core, &other.target.core) else {
            return;
        };
        assert_eq!(
            core.bounds, theirs.bounds,
            "merged batches need identical bucket bounds"
        );
        if self.counts.is_empty() {
            self.counts = vec![0; core.counts.len()];
        }
        for (mine, &c) in self.counts.iter_mut().zip(&other.counts) {
            *mine += c;
        }
        self.stage(other.count, other.sum, other.min, other.max);
    }

    /// Publishes the staged observations into the target histogram and
    /// empties the batch. An empty batch touches nothing.
    pub fn flush(&mut self) {
        if self.count == 0 {
            return;
        }
        let core = self
            .target
            .core
            .as_ref()
            .expect("only a live batch stages observations");
        for (cell, staged) in core.counts.iter().zip(&mut self.counts) {
            if *staged != 0 {
                cell.fetch_add(std::mem::take(staged), Ordering::Relaxed);
            }
        }
        core.sum.fetch_add(self.sum, Ordering::Relaxed);
        // The extremes only ever move outwards, so a plain load that
        // shows the stored one already covers ours skips the CAS loop.
        if self.min < core.min.load(Ordering::Relaxed) {
            core.min.fetch_min(self.min, Ordering::Relaxed);
        }
        if self.max > core.max.load(Ordering::Relaxed) {
            core.max.fetch_max(self.max, Ordering::Relaxed);
        }
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Adds `count` observations summing to `sum` (wrapping, like the
    /// atomic `fetch_add`) with the given extremes.
    fn stage(&mut self, count: u64, sum: u64, min: u64, max: u64) {
        self.count += count;
        self.sum = self.sum.wrapping_add(sum);
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }
}

/// Percentile estimate from bucket counts: find the bucket holding the
/// q-quantile observation, then interpolate linearly across it. The
/// first and last populated buckets are clamped by the observed
/// min/max so estimates never leave the observed range.
fn percentile_from_buckets(
    bounds: &[u64],
    counts: &[u64],
    count: u64,
    min: u64,
    max: u64,
    q: f64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    // Rank of the target observation, 1-based.
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            // Bucket span [lo, hi], clamped to the observed extremes.
            let lo = if i == 0 { min } else { bounds[i - 1].max(min) };
            let hi = if i < bounds.len() {
                bounds[i].min(max)
            } else {
                max
            };
            if hi <= lo {
                return lo.min(max);
            }
            // Position of the target rank inside this bucket, (0, 1].
            let frac = (rank - seen) as f64 / c as f64;
            return lo + ((hi - lo) as f64 * frac).round() as u64;
        }
        seen += c;
    }
    max
}

/// Records elapsed wall time into a histogram on drop.
///
/// ```
/// let reg = gsp_telemetry::Registry::new();
/// let h = reg.histogram_ns("demo.ns");
/// {
///     let _span = h.span();
///     // ... timed work ...
/// }
/// assert_eq!(h.snapshot().count, 1);
/// ```
#[derive(Debug)]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    /// `None` when the histogram is a no-op — the clock is never read.
    start: Option<Instant>,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Derived summary of a histogram at snapshot time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
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
    fn bucket_edges_are_inclusive_upper_bounds() {
        let h = Histogram::with_bounds(vec![10, 100, 1000]);
        for v in [1, 10] {
            h.record(v); // first bucket
        }
        h.record(11); // second
        h.record(1001); // overflow
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1001);
        assert_eq!(s.sum, 1 + 10 + 11 + 1001);
    }

    #[test]
    fn percentiles_exact_on_single_bucket_runs() {
        // All mass in one bucket: percentiles interpolate inside the
        // min..max clamp, so they stay within the observed range.
        let h = Histogram::with_bounds(vec![1_000]);
        for v in 1..=100u64 {
            h.record(v * 10);
        }
        let s = h.snapshot();
        assert!(s.p50 >= 10 && s.p50 <= 1000);
        assert!((s.p50 as i64 - 500).unsigned_abs() <= 10, "p50 {}", s.p50);
        assert!(s.p95 >= s.p50 && s.p99 >= s.p95);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn percentiles_pick_the_right_bucket() {
        let h = Histogram::with_bounds(vec![10, 100, 1_000, 10_000]);
        // 50 small, 45 medium, 5 large → p50 in bucket 1, p95 at the
        // bucket-2 boundary, p99 in bucket 3.
        for _ in 0..50 {
            h.record(5);
        }
        for _ in 0..45 {
            h.record(50);
        }
        for _ in 0..5 {
            h.record(5_000);
        }
        let s = h.snapshot();
        assert!(s.p50 <= 10, "p50 {}", s.p50);
        assert!(s.p95 > 10 && s.p95 <= 100, "p95 {}", s.p95);
        assert!(s.p99 > 1_000 && s.p99 <= 5_000, "p99 {}", s.p99);
    }

    #[test]
    fn percentile_ordering_holds_on_uniform_data() {
        let h = Histogram::with_bounds(ns_buckets());
        for v in (0..10_000u64).map(|i| i * 100) {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        // Geometric buckets bound relative error; the true p50 is ~500k.
        assert!(
            (s.p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.35,
            "p50 {}",
            s.p50
        );
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let h = Histogram::with_bounds(vec![10]);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn overflow_bucket_catches_the_tail() {
        let h = Histogram::with_bounds(vec![10]);
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p99, 1_000_000);
    }

    #[test]
    fn span_records_once_on_drop() {
        let h = Histogram::with_bounds(ns_buckets());
        {
            let _s = h.span();
        }
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn noop_span_never_reads_clock() {
        let h = Histogram::noop();
        let s = h.span();
        assert!(s.start.is_none());
        drop(s);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn ns_buckets_are_strictly_ascending() {
        let b = ns_buckets();
        assert!(b.windows(2).all(|w| w[0] < w[1]), "{b:?}");
        assert_eq!(*b.first().unwrap(), 100);
        assert_eq!(*b.last().unwrap(), 100_000_000_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::with_bounds(ns_buckets());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 4000);
    }
}
