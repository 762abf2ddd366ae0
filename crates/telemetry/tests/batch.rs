//! `HistogramBatch` against per-observation `Histogram::record`: a batch
//! must leave its histogram exactly as recording each observation would
//! have, at every flush boundary, and a batch over a no-op histogram must
//! cost nothing — not even an allocation.

use gsp_telemetry::hist::ns_buckets;
use gsp_telemetry::{Histogram, HistogramBatch};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads,
    /// so a global count would see its neighbours).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Log-uniform magnitudes from 0 to `u64::MAX`, so every bucket, the
/// overflow bucket and a wrapping sum all get exercised.
fn observations() -> impl Strategy<Value = Vec<u64>> {
    collection::vec(
        (0u32..64, any::<u64>()).prop_map(|(shift, raw)| raw >> shift),
        0..200,
    )
}

fn bounds(small: bool) -> Vec<u64> {
    if small {
        vec![1, 2, 3, 4, 6, 8, 12, 16, 24, 32]
    } else {
        ns_buckets()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_flush_split_equals_per_observation_recording(
        obs in observations(),
        cuts in collection::vec(0usize..201, 0..12),
        small in any::<bool>(),
    ) {
        let reference = Histogram::with_bounds(bounds(small));
        let batched = Histogram::with_bounds(bounds(small));
        let mut batch = HistogramBatch::new(batched.clone());
        // Sorted cut points, duplicates kept: each duplicate is an empty
        // flush, and a cut at 0 flushes before anything is staged.
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(obs.len())).collect();
        cuts.sort_unstable();
        cuts.push(obs.len());
        let mut done = 0;
        for cut in cuts {
            for &v in &obs[done..cut] {
                reference.record(v);
                batch.record(v);
            }
            done = cut;
            batch.flush();
            prop_assert_eq!(batched.snapshot(), reference.snapshot());
            prop_assert_eq!(batched.bucket_counts(), reference.bucket_counts());
        }
    }

    #[test]
    fn merged_batches_equal_recording_into_both(
        a in observations(),
        b in observations(),
        flush_agg_between in any::<bool>(),
    ) {
        // Two class histograms and the aggregate derived from them, next
        // to references that record every observation directly.
        let (class_a, class_b, agg) = (
            Histogram::with_bounds(ns_buckets()),
            Histogram::with_bounds(ns_buckets()),
            Histogram::with_bounds(ns_buckets()),
        );
        let (ref_a, ref_b, ref_agg) = (
            Histogram::with_bounds(ns_buckets()),
            Histogram::with_bounds(ns_buckets()),
            Histogram::with_bounds(ns_buckets()),
        );
        let mut batch_a = HistogramBatch::new(class_a.clone());
        let mut batch_b = HistogramBatch::new(class_b.clone());
        let mut batch_agg = HistogramBatch::new(agg.clone());
        for &v in &a {
            batch_a.record(v);
            ref_a.record(v);
            ref_agg.record(v);
        }
        for &v in &b {
            batch_b.record(v);
            ref_b.record(v);
            ref_agg.record(v);
        }
        batch_agg.merge_from(&batch_a);
        batch_a.flush();
        if flush_agg_between {
            batch_agg.flush();
        }
        batch_agg.merge_from(&batch_b);
        batch_b.flush();
        batch_agg.flush();
        prop_assert_eq!(class_a.snapshot(), ref_a.snapshot());
        prop_assert_eq!(class_b.snapshot(), ref_b.snapshot());
        prop_assert_eq!(agg.snapshot(), ref_agg.snapshot());
        prop_assert_eq!(agg.bucket_counts(), ref_agg.bucket_counts());
        let summed: Vec<u64> = class_a
            .bucket_counts()
            .iter()
            .zip(class_b.bucket_counts())
            .map(|(x, y)| x + y)
            .collect();
        prop_assert_eq!(agg.bucket_counts(), summed);
    }
}

#[test]
fn noop_batches_allocate_nothing() {
    let before = allocs();
    let mut class = HistogramBatch::new(Histogram::noop());
    let mut agg = HistogramBatch::new(Histogram::noop());
    for v in 0..10_000u64 {
        class.record(v);
    }
    agg.merge_from(&class);
    class.flush();
    agg.flush();
    assert_eq!(allocs() - before, 0, "a no-op batch must hold no storage");
}

#[test]
fn live_batches_size_their_buffer_once() {
    let h = Histogram::with_bounds(ns_buckets());
    let before = allocs();
    let mut batch = HistogramBatch::new(h.clone());
    assert_eq!(allocs(), before, "construction allocates nothing");
    for round in 0..10u64 {
        for v in 0..100u64 {
            batch.record(round * 1_000 + v);
        }
        batch.flush();
    }
    assert_eq!(allocs() - before, 1, "one buffer, sized on first record");
    assert_eq!(h.snapshot().count, 1_000);
}

#[test]
#[should_panic(expected = "identical bucket bounds")]
fn merging_across_bucket_ladders_panics() {
    let mut a = HistogramBatch::new(Histogram::with_bounds(vec![10, 100]));
    let mut b = HistogramBatch::new(Histogram::with_bounds(vec![10, 1_000]));
    b.record(5);
    a.merge_from(&b);
}
