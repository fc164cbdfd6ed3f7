//! Typed metrics with a process-global registry.
//!
//! Primitives ([`Counter`], [`Histogram`]) record through
//! `&self` with relaxed atomics, so instrumented code never threads a
//! handle around. The lazy wrappers ([`LazyCounter`], [`LazyHistogram`])
//! are `static`-friendly: construction is `const`, the metric registers
//! itself in [`Registry::global`] on first record, and every record is
//! gated on [`crate::metrics_enabled`] — so without the `enabled`
//! feature the whole call compiles away.
//!
//! Snapshots export two ways: [`jsonl`] (one self-contained JSON object
//! per line, machine-readable) and [`summary_table`] (human-readable,
//! printed at the end of a `--metrics` bench run).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock, PoisonError};

/// Monotonic event count. Relaxed-atomic recording through `&self`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in `static` initializers).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` to the count.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero, one per power-of-two
/// magnitude of a `u64` (see [`bucket_index`]).
pub const BUCKETS: usize = 65;

/// Lock-free log₂-bucketed histogram of `u64` samples.
///
/// Bucket `i` (for `i ≥ 1`) holds values in `[2^(i-1), 2^i - 1]`;
/// bucket 0 holds exactly zero. That caps quantile error at 2× — plenty
/// for latency/occupancy distributions — while keeping recording to two
/// relaxed RMWs plus min/max maintenance, with no locks and no
/// allocation.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// The bucket a value lands in: `0 → 0`, otherwise `64 - leading_zeros`
/// (so `1 → 1`, `2..=3 → 2`, `1024 → 11`, `u64::MAX → 64`).
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Largest value bucket `index` can hold (`u64::MAX` for the top one).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64.. => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram. Not `const` (array of atomics), so lazy
    /// statics use [`LazyHistogram`].
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting (individual loads are
    /// relaxed; concurrent recording may skew by a sample).
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

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-data copy of a [`Histogram`] at one point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow, like the atomic).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket counts, [`BUCKETS`] entries (see [`bucket_index`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-quantile (`p` in 0..=1), resolved to the upper bound of
    /// the first bucket whose cumulative count reaches it, clamped to
    /// the observed max. Exact to within the 2× bucket width.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// A `static`-friendly counter that self-registers on first use and
/// only records when [`crate::metrics_enabled`].
pub struct LazyCounter {
    name: &'static str,
    counter: Counter,
    registered: Once,
}

impl LazyCounter {
    /// A named counter; nothing happens until the first enabled record.
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            counter: Counter::new(),
            registered: Once::new(),
        }
    }

    /// Add `n` if metrics are enabled (registering on first use).
    /// Compiles away entirely without the `enabled` feature.
    pub fn add(&'static self, n: u64) {
        if crate::metrics_enabled() {
            self.registered
                .call_once(|| Registry::global().register_counter(self.name, &self.counter));
            self.counter.add(n);
        }
    }

    /// Add one if metrics are enabled.
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current count (0 until something was recorded while enabled).
    pub fn get(&self) -> u64 {
        self.counter.get()
    }
}

/// A `static`-friendly histogram; see [`LazyCounter`].
pub struct LazyHistogram {
    name: &'static str,
    histogram: OnceLock<Histogram>,
    registered: Once,
}

impl LazyHistogram {
    /// A named histogram; allocated on the first enabled record.
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            histogram: OnceLock::new(),
            registered: Once::new(),
        }
    }

    /// Record a sample if metrics are enabled (registering on first
    /// use). Compiles away entirely without the `enabled` feature.
    pub fn record(&'static self, value: u64) {
        if crate::metrics_enabled() {
            let histogram = self.histogram.get_or_init(Histogram::new);
            self.registered
                .call_once(|| Registry::global().register_histogram(self.name, histogram));
            histogram.record(value);
        }
    }

    /// Snapshot (empty until something was recorded while enabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        match self.histogram.get() {
            Some(h) => h.snapshot(),
            None => Histogram::new().snapshot(),
        }
    }
}

enum Slot {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

/// The process-global name → metric table behind snapshots and export.
///
/// Registration is explicit (or lazy via [`LazyCounter`] /
/// [`LazyHistogram`]); re-registering a name is ignored, so first
/// registration wins.
pub struct Registry {
    slots: Mutex<Vec<(&'static str, Slot)>>,
}

impl Registry {
    /// The process-global registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(|| Registry {
            slots: Mutex::new(Vec::new()),
        })
    }

    fn register(&self, name: &'static str, slot: Slot) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if !slots.iter().any(|(n, _)| *n == name) {
            slots.push((name, slot));
        }
    }

    /// Register a counter under `name` (first registration wins).
    pub fn register_counter(&self, name: &'static str, counter: &'static Counter) {
        self.register(name, Slot::Counter(counter));
    }

    /// Register a histogram under `name` (first registration wins).
    pub fn register_histogram(&self, name: &'static str, histogram: &'static Histogram) {
        self.register(name, Slot::Histogram(histogram));
    }

    /// Snapshot every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<MetricSnapshot> = slots
            .iter()
            .map(|(name, slot)| MetricSnapshot {
                name,
                value: match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(b.name));
        out
    }
}

/// One registered metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

/// A named metric value captured by [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Captured value.
    pub value: MetricValue,
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl MetricSnapshot {
    /// This metric as one self-contained JSON object (no trailing
    /// newline). Histograms report count/sum/min/max plus p50/p90/p99.
    pub fn jsonl_line(&self) -> String {
        let name = escape_json(self.name);
        match &self.value {
            MetricValue::Counter(v) => {
                format!("{{\"name\":{name},\"kind\":\"counter\",\"value\":{v}}}")
            }
            MetricValue::Histogram(h) => format!(
                "{{\"name\":{name},\"kind\":\"histogram\",\"count\":{},\"sum\":{},\
                 \"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
            ),
        }
    }
}

/// All snapshots as JSONL (one metric per line, trailing newline).
pub fn jsonl(snapshots: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for s in snapshots {
        out.push_str(&s.jsonl_line());
        out.push('\n');
    }
    out
}

/// A human-readable summary table of the snapshots (for end-of-run
/// reporting on stdout).
pub fn summary_table(snapshots: &[MetricSnapshot]) -> String {
    let width = snapshots
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(0)
        .max("metric".len());
    let mut out = format!("  {:width$}  value\n", "metric");
    for s in snapshots {
        let value = match &s.value {
            MetricValue::Counter(v) => format!("{v}"),
            MetricValue::Histogram(h) => format!(
                "n={} mean={:.1} min={} p50={} p90={} p99={} max={}",
                h.count,
                h.mean(),
                h.min,
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.max,
            ),
        };
        out.push_str(&format!("  {:width$}  {value}\n", s.name));
    }
    out
}

/// Snapshot the global registry and write it as JSONL to `path`
/// (creating parent directories). Returns the number of metrics
/// written.
pub fn write_jsonl(path: impl AsRef<Path>) -> std::io::Result<usize> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let snapshots = Registry::global().snapshot();
    std::fs::write(path, jsonl(&snapshots))?;
    Ok(snapshots.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's upper bound maps back into that bucket.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let h = Histogram::new();
        for v in [0, 1, 1, 5, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_001_007);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 6);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 2); // the two ones
                                     // p100 is clamped to the observed max, not the bucket bound.
        assert_eq!(s.percentile(1.0), 1_000_000);
        // p50 resolves to the bucket holding the 3rd sample (value 1).
        assert_eq!(s.percentile(0.5), 1);
        // Quantile error is bounded by the 2x bucket width.
        let p99 = s.percentile(0.99) as f64;
        assert!((1_000_000.0..=2_097_151.0).contains(&p99), "p99={p99}");
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.min, s.max), (0, 0, 0));
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let h = Histogram::new();
        h.record(3);
        h.record(300);
        let snapshots = vec![
            MetricSnapshot {
                name: "test.counter",
                value: MetricValue::Counter(7),
            },
            MetricSnapshot {
                name: "test.histogram",
                value: MetricValue::Histogram(h.snapshot()),
            },
        ];
        let text = jsonl(&snapshots);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let value: serde_json::Value =
                serde_json::from_str(line).expect("each JSONL line parses as JSON");
            drop(value);
        }
        assert!(text.contains("\"kind\":\"histogram\""));
        let table = summary_table(&snapshots);
        assert!(table.contains("test.counter"));
        assert!(table.contains("p99"));
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("plain.name"), "\"plain.name\"");
        assert_eq!(escape_json("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    // The global registry is shared across parallel tests, so this test
    // owns its metric names and never asserts on the full snapshot.
    #[test]
    fn registry_snapshot_is_sorted_and_dedups() {
        static C1: Counter = Counter::new();
        static C2: Counter = Counter::new();
        let r = Registry::global();
        r.register_counter("test.registry.b", &C2);
        r.register_counter("test.registry.a", &C1);
        r.register_counter("test.registry.a", &C2); // ignored: first wins
        C1.add(5);
        let snaps = r.snapshot();
        let names: Vec<&str> = snaps.iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
        assert_eq!(
            names.iter().filter(|n| **n == "test.registry.a").count(),
            1,
            "duplicate registration must be ignored"
        );
        let a = snaps.iter().find(|s| s.name == "test.registry.a").unwrap();
        assert_eq!(a.value, MetricValue::Counter(5));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn lazy_metrics_gate_on_runtime_switch() {
        static HITS: LazyCounter = LazyCounter::new("test.lazy.hits");
        static LAT: LazyHistogram = LazyHistogram::new("test.lazy.latency");
        let _guard = crate::test_switch_lock().lock().unwrap();
        crate::set_metrics(false);
        HITS.inc();
        LAT.record(9);
        assert_eq!(HITS.get(), 0, "disabled recording must be dropped");
        assert_eq!(LAT.snapshot().count, 0);
        crate::set_metrics(true);
        HITS.add(3);
        LAT.record(9);
        assert_eq!(HITS.get(), 3);
        assert_eq!(LAT.snapshot().count, 1);
        let names: Vec<&str> = Registry::global()
            .snapshot()
            .iter()
            .map(|s| s.name)
            .collect();
        assert!(names.contains(&"test.lazy.hits"), "lazy self-registration");
        assert!(names.contains(&"test.lazy.latency"));
        crate::set_metrics(false);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn lazy_metrics_compile_away_when_disabled() {
        static HITS: LazyCounter = LazyCounter::new("test.lazy.off");
        HITS.inc();
        HITS.add(10);
        assert_eq!(HITS.get(), 0);
    }
}
