//! Metrics registry: integer counters, gauges and log2-bucketed
//! histograms, split into determinism classes.
//!
//! Every metric is an integer (no floats anywhere near the deterministic
//! path). Counters can be *sharded*: one atomic cell per worker or per
//! shard, merged by summing cells **in cell order** — the same
//! shard-then-lane merge discipline the service layer uses everywhere
//! else, so a sharded counter's total is independent of which thread
//! bumped which cell when.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Determinism class of a metric.
///
/// The chaos-replay gates snapshot only [`MetricClass::Deterministic`]
/// metrics and require the snapshot to be bit-identical at every
/// `MCFPGA_THREADS` and lane width. Wall-clock metrics (timings,
/// scheduler accounting) are exported but excluded from those gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricClass {
    /// Cycle-, toggle- and count-based: must be bit-identical at any
    /// thread count and lane width.
    Deterministic,
    /// Wall-clock or scheduling dependent: may vary run to run.
    WallClock,
}

impl MetricClass {
    /// Stable lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            MetricClass::Deterministic => "deterministic",
            MetricClass::WallClock => "wall_clock",
        }
    }
}

impl std::fmt::Display for MetricClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A monotonically increasing integer counter, optionally sharded over
/// several cells (one per worker / per shard).
///
/// Handles are cheap to clone and share the underlying cells.
#[derive(Debug, Clone)]
pub struct Counter {
    cells: Arc<Vec<AtomicU64>>,
}

impl Counter {
    fn with_cells(cells: usize) -> Self {
        let n = cells.max(1);
        Counter {
            cells: Arc::new((0..n).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Add `n` to the first cell.
    pub fn add(&self, n: u64) {
        self.cells[0].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment the first cell by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` to cell `cell % cells()` — the per-worker / per-shard
    /// entry point.
    pub fn add_to(&self, cell: usize, n: u64) {
        let idx = cell % self.cells.len();
        self.cells[idx].fetch_add(n, Ordering::Relaxed);
    }

    /// Total across all cells, summed in cell order.
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Per-cell values in cell order (the per-worker histogram view).
    pub fn cells(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Set the first cell to `total` with a plain store — for a counter
    /// that mirrors a tally its one writer keeps itself (the span ring's
    /// drop count), where a read-modify-write would buy nothing.
    pub(crate) fn mirror(&self, total: u64) {
        self.cells[0].store(total, Ordering::Relaxed);
    }
}

/// A signed integer gauge (set to the current value of something).
///
/// Handles are cheap to clone and share the underlying cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            cell: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Overwrite the gauge with `v`.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative) to the gauge.
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket 0 holds zero, bucket `b` (1..=64)
/// holds values whose highest set bit is `b - 1`.
const HISTOGRAM_BUCKETS: usize = 65;

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// A log2-bucketed integer histogram.
///
/// Handles are cheap to clone and share the underlying buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Arc<Vec<AtomicU64>>,
    count: Arc<AtomicU64>,
    sum: Arc<AtomicU64>,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: Arc::new((0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect()),
            count: Arc::new(AtomicU64::new(0)),
            sum: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(bucket index, count)` in bucket order.
    pub fn bucket_counts(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    class: MetricClass,
    metric: Metric,
}

/// One metric's value as captured by [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total plus its per-cell breakdown.
    Counter {
        /// Sum over all cells.
        total: u64,
        /// Per-cell values in cell order.
        cells: Vec<u64>,
    },
    /// Gauge value.
    Gauge(i64),
    /// Histogram count, sum and non-empty `(bucket, count)` pairs.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Non-empty buckets in bucket order.
        buckets: Vec<(usize, u64)>,
    },
}

/// A point-in-time capture of registry contents, in registration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, class, value)` triples in registration order.
    pub entries: Vec<(String, MetricClass, MetricValue)>,
}

impl MetricsSnapshot {
    /// Render the snapshot as a compact JSON object keyed by metric
    /// name. Key order follows registration order.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, class, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"class\":\"{class}\",");
            match value {
                MetricValue::Counter { total, cells } => {
                    let _ = write!(out, "\"type\":\"counter\",\"total\":{total}");
                    if cells.len() > 1 {
                        let _ = write!(out, ",\"cells\":{cells:?}");
                    }
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "\"type\":\"gauge\",\"value\":{v}");
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let _ = write!(
                        out,
                        "\"type\":\"histogram\",\"count\":{count},\"sum\":{sum}"
                    );
                    let _ = write!(out, ",\"buckets\":{{");
                    for (j, (b, n)) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{b}\":{n}");
                    }
                    out.push('}');
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// The metric registry: a named, ordered set of counters, gauges and
/// histograms with determinism-class tags.
///
/// Handles are cheap to clone and share the same underlying table, so a
/// registry can be threaded through subsystems that record into it
/// concurrently. Registering a name that already exists **replaces** the
/// metric in place with fresh zeroed cells while keeping its export
/// position — the semantics [`set_threads`-style
/// reconfiguration](https://en.wikipedia.org/wiki/Idempotence) relies on.
///
/// ```
/// use mcfpga_telemetry::{MetricClass, Registry};
///
/// let registry = Registry::new();
/// let admitted = registry.counter("frontend_admitted", MetricClass::Deterministic);
/// let per_shard = registry.counter_sharded("steps_applied", MetricClass::Deterministic, 4);
///
/// admitted.inc();
/// per_shard.add_to(0, 2);
/// per_shard.add_to(3, 1);
///
/// assert_eq!(registry.counter_value("frontend_admitted"), Some(1));
/// assert_eq!(registry.counter_value("steps_applied"), Some(3));
/// assert_eq!(registry.counter_cells("steps_applied"), Some(vec![2, 0, 0, 1]));
///
/// // The Prometheus-style page lists both, tagged with their class.
/// let page = registry.render_prometheus();
/// assert!(page.contains("frontend_admitted{class=\"deterministic\"} 1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Entry>>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&self, name: &str, class: MetricClass, metric: Metric) {
        let mut table = self.inner.lock().expect("metric registry poisoned");
        if let Some(entry) = table.iter_mut().find(|e| e.name == name) {
            entry.class = class;
            entry.metric = metric;
        } else {
            table.push(Entry {
                name: name.to_string(),
                class,
                metric,
            });
        }
    }

    /// Register (or replace) a single-cell counter and return a handle.
    pub fn counter(&self, name: &str, class: MetricClass) -> Counter {
        let c = Counter::with_cells(1);
        self.register(name, class, Metric::Counter(c.clone()));
        c
    }

    /// Register (or replace) a counter sharded over `cells` cells.
    pub fn counter_sharded(&self, name: &str, class: MetricClass, cells: usize) -> Counter {
        let c = Counter::with_cells(cells);
        self.register(name, class, Metric::Counter(c.clone()));
        c
    }

    /// Register (or replace) a gauge and return a handle.
    pub fn gauge(&self, name: &str, class: MetricClass) -> Gauge {
        let g = Gauge::new();
        self.register(name, class, Metric::Gauge(g.clone()));
        g
    }

    /// Register (or replace) a log2 histogram and return a handle.
    pub fn histogram(&self, name: &str, class: MetricClass) -> Histogram {
        let h = Histogram::new();
        self.register(name, class, Metric::Histogram(h.clone()));
        h
    }

    /// Current total of the counter registered under `name`.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let table = self.inner.lock().expect("metric registry poisoned");
        table.iter().find(|e| e.name == name).and_then(|e| {
            if let Metric::Counter(c) = &e.metric {
                Some(c.value())
            } else {
                None
            }
        })
    }

    /// Per-cell values of the counter registered under `name`.
    pub fn counter_cells(&self, name: &str) -> Option<Vec<u64>> {
        let table = self.inner.lock().expect("metric registry poisoned");
        table.iter().find(|e| e.name == name).and_then(|e| {
            if let Metric::Counter(c) = &e.metric {
                Some(c.cells())
            } else {
                None
            }
        })
    }

    /// Current value of the gauge registered under `name`.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        let table = self.inner.lock().expect("metric registry poisoned");
        table.iter().find(|e| e.name == name).and_then(|e| {
            if let Metric::Gauge(g) = &e.metric {
                Some(g.value())
            } else {
                None
            }
        })
    }

    /// `(count, sum)` of the histogram registered under `name`.
    pub fn histogram_stats(&self, name: &str) -> Option<(u64, u64)> {
        let table = self.inner.lock().expect("metric registry poisoned");
        table.iter().find(|e| e.name == name).and_then(|e| {
            if let Metric::Histogram(h) = &e.metric {
                Some((h.count(), h.sum()))
            } else {
                None
            }
        })
    }

    /// Capture current values, optionally restricted to one class.
    pub fn snapshot(&self, class: Option<MetricClass>) -> MetricsSnapshot {
        let table = self.inner.lock().expect("metric registry poisoned");
        let entries = table
            .iter()
            .filter(|e| class.is_none_or(|c| e.class == c))
            .map(|e| {
                let value = match &e.metric {
                    Metric::Counter(c) => MetricValue::Counter {
                        total: c.value(),
                        cells: c.cells(),
                    },
                    Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.bucket_counts(),
                    },
                };
                (e.name.clone(), e.class, value)
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// JSON snapshot of every metric (both classes).
    pub fn render_json(&self) -> String {
        self.snapshot(None).render_json()
    }

    /// JSON snapshot of deterministic-class metrics only — the string
    /// the chaos-replay gates compare bit-for-bit across thread and
    /// lane widths.
    pub fn deterministic_json(&self) -> String {
        self.snapshot(Some(MetricClass::Deterministic))
            .render_json()
    }

    /// Prometheus-style text exposition page. Counters and gauges
    /// render one sample each; sharded counters add per-cell samples;
    /// histograms render cumulative `_bucket` samples plus `_count` /
    /// `_sum`. Every sample carries a `class` label.
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot(None);
        let mut out = String::new();
        for (name, class, value) in &snap.entries {
            match value {
                MetricValue::Counter { total, cells } => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name}{{class=\"{class}\"}} {total}");
                    if cells.len() > 1 {
                        for (i, v) in cells.iter().enumerate() {
                            let _ = writeln!(out, "{name}{{class=\"{class}\",cell=\"{i}\"}} {v}");
                        }
                    }
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name}{{class=\"{class}\"}} {v}");
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (b, n) in buckets {
                        cumulative += n;
                        // upper bound of log2 bucket b is 2^b - 1 (bucket 0 holds zero)
                        let le = if *b == 0 { 0u128 } else { (1u128 << b) - 1 };
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{class=\"{class}\",le=\"{le}\"}} {cumulative}"
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{class=\"{class}\",le=\"+Inf\"}} {count}"
                    );
                    let _ = writeln!(out, "{name}_count{{class=\"{class}\"}} {count}");
                    let _ = writeln!(out, "{name}_sum{{class=\"{class}\"}} {sum}");
                }
            }
        }
        out
    }

    /// Names of all registered metrics, in registration order.
    pub fn names(&self) -> Vec<String> {
        let table = self.inner.lock().expect("metric registry poisoned");
        table.iter().map(|e| e.name.clone()).collect()
    }

    /// Map of name to class for all registered metrics.
    pub fn classes(&self) -> BTreeMap<String, MetricClass> {
        let table = self.inner.lock().expect("metric registry poisoned");
        table.iter().map(|e| (e.name.clone(), e.class)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_counter_sums_cells_in_order() {
        let r = Registry::new();
        let c = r.counter_sharded("work", MetricClass::Deterministic, 4);
        c.add_to(2, 5);
        c.add_to(0, 1);
        c.add_to(6, 7); // wraps to cell 2
        assert_eq!(c.cells(), vec![1, 0, 12, 0]);
        assert_eq!(c.value(), 13);
        assert_eq!(r.counter_cells("work"), Some(vec![1, 0, 12, 0]));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Registry::new().histogram("lanes", MetricClass::Deterministic);
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(64);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 70);
        assert_eq!(h.bucket_counts(), vec![(0, 1), (1, 1), (2, 2), (7, 1)]);
    }

    #[test]
    fn reregistration_replaces_in_place_keeping_position() {
        let r = Registry::new();
        let a = r.counter("a", MetricClass::Deterministic);
        r.counter("b", MetricClass::Deterministic);
        a.add(9);
        // replacing "a" zeroes it but keeps it first in export order
        let a2 = r.counter("a", MetricClass::WallClock);
        a2.add(1);
        assert_eq!(r.names(), vec!["a", "b"]);
        assert_eq!(r.counter_value("a"), Some(1));
        // the old handle no longer feeds the registered metric
        a.add(100);
        assert_eq!(r.counter_value("a"), Some(1));
    }

    #[test]
    fn deterministic_json_excludes_wall_clock_metrics() {
        let r = Registry::new();
        r.counter("det", MetricClass::Deterministic).add(3);
        r.counter("wall", MetricClass::WallClock).add(8);
        let det = r.deterministic_json();
        assert!(det.contains("\"det\""));
        assert!(!det.contains("\"wall\""));
        let all = r.render_json();
        assert!(all.contains("\"det\"") && all.contains("\"wall\""));
    }

    #[test]
    fn prometheus_page_renders_all_metric_kinds() {
        let r = Registry::new();
        r.counter("hits", MetricClass::Deterministic).add(2);
        r.gauge("depth", MetricClass::Deterministic).set(-4);
        r.histogram("lat", MetricClass::WallClock).observe(5);
        let page = r.render_prometheus();
        assert!(page.contains("# TYPE hits counter"));
        assert!(page.contains("hits{class=\"deterministic\"} 2"));
        assert!(page.contains("depth{class=\"deterministic\"} -4"));
        assert!(page.contains("lat_bucket{class=\"wall_clock\",le=\"7\"} 1"));
        assert!(page.contains("lat_count{class=\"wall_clock\"} 1"));
        assert!(page.contains("lat_sum{class=\"wall_clock\"} 5"));
    }

    #[test]
    fn clone_shares_the_underlying_table() {
        let r = Registry::new();
        let c = r.counter("n", MetricClass::Deterministic);
        let r2 = r.clone();
        c.add(7);
        assert_eq!(r2.counter_value("n"), Some(7));
    }
}
