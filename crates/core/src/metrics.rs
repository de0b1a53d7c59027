//! Lock-free metrics: counters and log2-bucketed histograms.
//!
//! Every *update* path is a handful of relaxed atomic operations — safe to
//! call from pipeline hot paths, communicator sends, and simulated disk
//! arms without perturbing the timings those layers exist to measure.
//! Only *registration* (interning a metric name in a [`MetricsRegistry`])
//! takes a lock, and callers are expected to register once and cache the
//! returned `Arc`.
//!
//! The same two primitive types serve all layers: `fg-core` records
//! stage events, `fg-cluster` records per-peer traffic
//! and collective latencies, and `fg-pdm` records I/O latencies.  A
//! [`MetricsSnapshot`] taken at the end of a run travels inside a
//! [`Report`](crate::Report) and renders/exports with it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

/// Number of log2 buckets in a [`Histogram`]: bucket `i` holds values
/// whose bit length is `i` (value 0 in bucket 0, 1 in bucket 1, 2–3 in
/// bucket 2, ...), clamped to the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// sizes in bytes, ...).  Recording is a few relaxed atomic RMWs; there is
/// no allocation and no lock.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Index of the bucket holding `v`: its bit length, clamped to the table.
fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Point-in-time copy of all buckets and aggregates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket sample counts; bucket `i` holds values of bit length `i`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile `p` in `[0, 1]`: the inclusive upper bound of
    /// the bucket containing the p-th sample (so an over-estimate by at
    /// most 2x).  Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

/// A named collection of [`Counter`]s and [`Histogram`]s.
///
/// Lookup-or-register takes a short write lock; updates through the
/// returned `Arc`s are lock-free.  Names are free-form; by convention the
/// layers here use `/`-separated paths (`core/...`, `comm/...`,
/// `disk/...`) which [`Report::render_dashboard`](crate::Report::render_dashboard)
/// groups into sections.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or register the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get or register the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a whole [`MetricsRegistry`], sorted by name.
/// Travels inside a [`Report`](crate::Report) and merges across layers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, count)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// True when no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`: entries with new names are appended,
    /// entries with an existing name replace it.  Keeps name-sorted order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        fn merge_into<T: Clone>(dst: &mut Vec<(String, T)>, src: &[(String, T)]) {
            for (name, v) in src {
                match dst.binary_search_by(|(n, _)| n.as_str().cmp(name.as_str())) {
                    Ok(i) => dst[i].1 = v.clone(),
                    Err(i) => dst.insert(i, (name.clone(), v.clone())),
                }
            }
        }
        merge_into(&mut self.counters, &other.counters);
        merge_into(&mut self.histograms, &other.histograms);
    }

    /// Value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Snapshot of the histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4), the payload a `GET /metrics` scrape expects.
    ///
    /// Metric names are `/`-separated paths internally
    /// (`comm/bytes/0->1`); Prometheus names admit only
    /// `[a-zA-Z0-9_:]`, so every name is prefixed with `fg_` and each run
    /// of disallowed characters collapses to a single `_` (see METRICS.md
    /// for the authoritative mapping).  Counters export as-is, and log2
    /// histograms export cumulative `_bucket{le="…"}` lines (the inclusive
    /// upper bound of each occupied bucket) with `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            let last_occupied = h.buckets.iter().rposition(|&c| c > 0);
            for (i, &c) in h.buckets.iter().enumerate() {
                // Everything past the last occupied bucket is covered by
                // the mandatory `+Inf` line; the final table bucket has no
                // finite upper bound anyway.
                if last_occupied.is_none_or(|last| i > last) || bucket_upper(i) == u64::MAX {
                    break;
                }
                cumulative += c;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    bucket_upper(i)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

/// Map a free-form FG metric name onto the Prometheus grammar: `fg_`
/// prefix, runs of characters outside `[a-zA-Z0-9_:]` collapse to `_`,
/// and no trailing `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("fg_");
    let mut last_underscore = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == ':' {
            out.push(c);
            last_underscore = false;
        } else if !last_underscore {
            out.push('_');
            last_underscore = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_001_006);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[10], 1); // 1000
        assert_eq!(s.buckets[20], 1); // 1_000_000
    }

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.percentile(0.5);
        let p99 = s.percentile(0.99);
        // Log2 buckets over-estimate by at most 2x.
        assert!((500..=1023).contains(&p50), "p50 {p50}");
        assert!((990..=1000).contains(&p99), "p99 {p99}"); // capped at max
        assert_eq!(s.percentile(1.0), 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn registry_interns_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert!(Arc::ptr_eq(&a, &b));
        a.inc();
        assert_eq!(r.counter("x").get(), 1);

        r.histogram("h").record(5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x"), Some(1));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert!(snap.counter("missing").is_none());
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("hits");
                    let h = r.histogram("lat");
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("hits"), Some(80_000));
        assert_eq!(snap.histogram("lat").unwrap().count, 80_000);
    }

    #[test]
    fn snapshot_merge_replaces_and_appends() {
        let a = MetricsRegistry::new();
        a.counter("one").add(1);
        a.counter("two").add(2);
        let b = MetricsRegistry::new();
        b.counter("two").add(20);
        b.counter("three").add(3);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("one"), Some(1));
        assert_eq!(snap.counter("two"), Some(20));
        assert_eq!(snap.counter("three"), Some(3));
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["one", "three", "two"]); // still sorted
    }
}
