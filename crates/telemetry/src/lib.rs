//! # gsp-telemetry — the payload observability plane
//!
//! The ground segment can only *steer* a generic payload if it can
//! *observe* it: every later scaling or robustness PR reports through the
//! metrics registered here. This crate is the instrumentation spine the
//! rest of the workspace threads through its hot paths:
//!
//! * [`Registry`] — a named-metric registry. Registration takes a short
//!   lock; the returned handles ([`Counter`], [`Gauge`],
//!   [`hist::Histogram`]) are plain `Arc`s over atomics, so the **hot
//!   path is lock-free** and safe to hit from the pipeline's scoped
//!   worker threads;
//! * [`hist`] — fixed-bucket latency histograms with p50/p95/p99
//!   estimation, drop-to-record [`hist::SpanTimer`] span timing, and the
//!   [`hist::HistogramBatch`] staging buffer that per-packet loops record
//!   into and publish once per call;
//! * [`export`] — immutable [`export::Snapshot`]s of a registry,
//!   rendered as JSON lines (machine) or a single JSON document (the
//!   `BENCH_*.json` perf trajectory), plus the parser the NCC uses to decode a housekeeping downlink frame.
//!
//! ## Disabled means free
//!
//! [`Registry::noop`] yields a registry whose handles carry no storage:
//! every `inc`/`set`/`record` is a branch on an already-loaded `Option`
//! discriminant and span timers **never read the clock**. Instrumented
//! components default to no-op handles, so a simulation that never calls
//! `set_telemetry` pays nothing measurable (asserted by the
//! `payload_chain` bench and the pipeline regression tests).
//!
//! ## Metrics are observed, never consulted
//!
//! Nothing in the workspace reads a metric back to make a control
//! decision mid-run. That invariant is what lets a telemetry-enabled
//! `gsp-payload` pipeline run stay **bitwise identical** to a disabled
//! one at any worker count: the registry only ever accumulates
//! order-independent sums and observations.
//!
//! ## Naming schema
//!
//! Dotted, stable, lowercase: `<crate-plane>.<component>.<quantity>`,
//! with `.ns` suffixing latency histograms — e.g. `payload.demod.ns`,
//! `payload.packets.dropped_overflow`, `netproto.tftp.retransmissions`,
//! `radiation.seu.essential`. The full schema is tabulated in the
//! repository README ("Telemetry" section).

#![deny(missing_docs)]

pub mod export;
pub mod hist;

pub use export::Snapshot;
pub use hist::{Histogram, HistogramBatch, SpanTimer};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event counter (lock-free, `Relaxed`).
///
/// Cloning shares the underlying cell. A default-constructed counter is
/// a no-op handle: increments vanish and `get` returns 0.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A handle that records nothing (what disabled components hold).
    pub fn noop() -> Self {
        Counter { cell: None }
    }

    /// Does this handle actually record?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
///
/// Cloning shares the underlying cell; a default-constructed gauge is a
/// no-op handle.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Gauge { cell: None }
    }

    /// Does this handle actually record?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.cell {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a no-op handle).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// One registered metric, by kind.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The named-metric registry.
///
/// `Registry::new()` is enabled; [`Registry::noop`] is the zero-cost
/// disabled plane. Cloning shares the same metric set (the registry is
/// an `Arc` internally), so an engine and an exporter can hold the same
/// registry without lifetimes.
///
/// [`Registry::scoped`] derives a view that shares the same metric map
/// but prepends a prefix to every name it registers — how N constellation
/// shards report through one registry without colliding on names like
/// `traffic.beam0.delivered`. The root registry has an empty prefix, so
/// single-payload metric names are unchanged.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Option<Arc<Mutex<BTreeMap<String, Metric>>>>,
    /// Prepended verbatim to every registered name (empty at the root).
    prefix: String,
}

impl Registry {
    /// An enabled registry with no metrics yet.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Mutex::new(BTreeMap::new()))),
            prefix: String::new(),
        }
    }

    /// A disabled registry: every handle it hands out is a no-op.
    pub fn noop() -> Self {
        Registry {
            inner: None,
            prefix: String::new(),
        }
    }

    /// Is this registry recording?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A view onto the same metric map that registers every name under
    /// `prefix` (prepended verbatim — include the trailing separator,
    /// e.g. `"sat3."`). Scopes nest: `reg.scoped("sat3.").scoped("isl.")`
    /// registers under `sat3.isl.`. Scoping a no-op registry stays no-op,
    /// and snapshots taken from any scope cover the whole shared map.
    pub fn scoped(&self, prefix: &str) -> Registry {
        Registry {
            inner: self.inner.clone(),
            prefix: format!("{}{}", self.prefix, prefix),
        }
    }

    /// The accumulated name prefix of this scope (empty at the root).
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The full registered name for `name` in this scope.
    fn full_name(&self, name: &str) -> String {
        format!("{}{}", self.prefix, name)
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Re-registration returns a handle to the same cell.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::noop();
        };
        let name = self.full_name(name);
        let mut map = inner.lock().unwrap();
        match map
            .entry(name.clone())
            .or_insert_with(|| {
                Metric::Counter(Counter {
                    cell: Some(Arc::new(AtomicU64::new(0))),
                })
            })
            .clone()
        {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::noop();
        };
        let name = self.full_name(name);
        let mut map = inner.lock().unwrap();
        match map
            .entry(name.clone())
            .or_insert_with(|| {
                Metric::Gauge(Gauge {
                    cell: Some(Arc::new(AtomicU64::new(0f64.to_bits()))),
                })
            })
            .clone()
        {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the latency histogram registered under `name` with the
    /// default nanosecond buckets ([`hist::ns_buckets`]), creating it on
    /// first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram_ns(&self, name: &str) -> Histogram {
        self.histogram_with(name, hist::ns_buckets())
    }

    /// Returns the histogram registered under `name` with explicit bucket
    /// upper bounds (ascending; an implicit overflow bucket catches the
    /// rest), creating it on first use. The bounds of an existing
    /// histogram are kept.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram_with(&self, name: &str, bounds: Vec<u64>) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::noop();
        };
        let name = self.full_name(name);
        let mut map = inner.lock().unwrap();
        match map
            .entry(name.clone())
            .or_insert_with(|| Metric::Histogram(Histogram::with_bounds(bounds)))
            .clone()
        {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Immutable snapshot of every registered metric, sorted by name.
    /// A disabled registry snapshots as empty.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let map = inner.lock().unwrap();
        let entries = map
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => export::MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => export::MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => export::MetricValue::Histogram(h.snapshot()),
                };
                export::MetricSnapshot {
                    name: name.clone(),
                    value,
                }
            })
            .collect();
        Snapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration shares the cell.
        assert_eq!(reg.counter("a.b").get(), 5);

        let g = reg.gauge("a.util");
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
        assert_eq!(reg.gauge("a.util").get(), 0.75);
    }

    #[test]
    fn noop_registry_hands_out_dead_handles() {
        let reg = Registry::noop();
        assert!(!reg.enabled());
        let c = reg.counter("x");
        c.add(100);
        assert_eq!(c.get(), 0);
        assert!(!c.enabled());
        let g = reg.gauge("y");
        g.set(3.0);
        assert_eq!(g.get(), 0.0);
        let h = reg.histogram_ns("z");
        h.record(123);
        assert_eq!(h.snapshot().count, 0);
        assert!(reg.snapshot().entries.is_empty());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("m");
        reg.gauge("m");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.gauge("a.first").set(1.0);
        reg.histogram_ns("m.mid").record(10);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn scoped_registries_share_the_map_under_a_prefix() {
        let reg = Registry::new();
        reg.counter("traffic.frames").add(7);
        let sat0 = reg.scoped("sat0.");
        let sat1 = reg.scoped("sat1.");
        sat0.counter("traffic.frames").add(1);
        sat1.counter("traffic.frames").add(2);
        // No collision: three distinct metrics in one shared map.
        let snap = reg.snapshot();
        assert_eq!(snap.counter("traffic.frames"), 7);
        assert_eq!(snap.counter("sat0.traffic.frames"), 1);
        assert_eq!(snap.counter("sat1.traffic.frames"), 2);
        // The scope sees the same cell as a root registration of the
        // full name, and snapshots from a scope cover the whole map.
        assert_eq!(reg.counter("sat0.traffic.frames").get(), 1);
        assert_eq!(sat0.snapshot().entries.len(), 3);
        assert_eq!(sat0.prefix(), "sat0.");
        assert_eq!(reg.prefix(), "");
    }

    #[test]
    fn scopes_nest_and_noop_scopes_stay_noop() {
        let reg = Registry::new();
        let inner = reg.scoped("sat2.").scoped("isl.");
        inner.counter("out").inc();
        assert_eq!(reg.snapshot().counter("sat2.isl.out"), 1);

        let dead = Registry::noop().scoped("sat0.");
        assert!(!dead.enabled());
        let c = dead.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counters_sum_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("t");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
