//! # mcfpga-telemetry — deterministic observability
//!
//! A zero-dependency observability subsystem for the multi-context FPGA
//! stack, built around one hard constraint: **instrumentation must not
//! perturb determinism**. The service's responses, faults and billing
//! are bit-identical at any `MCFPGA_THREADS` and lane width, and the
//! telemetry layer extends that guarantee to its own deterministic
//! half:
//!
//! * **Metrics registry** ([`Registry`]) — integer counters, gauges and
//!   log2-bucketed histograms. Counters may be *sharded* (one cell per
//!   worker or shard) and merge by summing cells in cell order — the
//!   same shard-then-lane discipline used for every other merge in the
//!   stack. Each metric carries a [`MetricClass`]: `Deterministic`
//!   metrics (cycle/toggle/count based) must be bit-identical at any
//!   executor width and are compared byte-for-byte in the chaos-replay
//!   gates; `WallClock` metrics (timings, scheduler accounting) are
//!   exported but excluded from those gates. Exporters render a
//!   Prometheus-style text page and a JSON snapshot stamped into
//!   `BENCH_*.json` artifacts.
//! * **Request-lifecycle tracing** ([`TraceBuffer`]) — a bounded ring
//!   of typed [`SpanEvent`]s (admitted → queued → flushed → planned →
//!   evaluated → applied → demuxed, plus expiry / fault / migration
//!   hops) keyed by request id and stamped with the virtual clock.
//!   The ring has one writer, its owner: recording takes `&mut`, no
//!   lock and no atomic read-modify-write. Overflow drops the oldest
//!   span and counts it in the `trace_dropped` metric; recording never
//!   panics or blocks. A `trace(key)` query reconstructs one request's
//!   timeline, and [`sort_timeline`] merges per-node buffers into one
//!   cross-node timeline.
//! * **Health snapshots** ([`ClusterHealthSnapshot`]) — per-node
//!   queue-depth / fault-tally / tenant gauges published under fixed
//!   names, so fleet-management decisions (Hot/Faulted classification)
//!   are a pure function of published telemetry.
//!
//! ```
//! use mcfpga_telemetry::{MetricClass, SpanKind, Telemetry};
//!
//! let mut telemetry = Telemetry::new();
//! let admitted = telemetry
//!     .registry()
//!     .counter("admitted", MetricClass::Deterministic);
//!
//! telemetry.set_cycle(3);
//! admitted.inc();
//! telemetry.span(SpanKind::Admitted, 42, 7); // request 42, slack 7
//! telemetry.span(SpanKind::Demuxed, 42, 0);
//!
//! let timeline = telemetry.trace(42);
//! assert_eq!(timeline.len(), 2);
//! assert_eq!(timeline[0].kind, SpanKind::Admitted);
//! assert_eq!(timeline[0].cycle, 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod health;
mod metrics;
mod trace;

pub use health::{
    ClusterHealthSnapshot, NodeHealthSample, ACTIVE_TENANTS_METRIC, FAULT_TALLY_METRIC,
    QUEUE_DEPTH_METRIC,
};
pub use metrics::{Counter, Gauge, Histogram, MetricClass, MetricValue, MetricsSnapshot, Registry};
pub use trace::{
    sort_timeline, tenant_key, ticket_key, SpanEvent, SpanKind, TraceBuffer, TENANT_KEY_BIT,
    TICKET_KEY_BIT,
};

use std::sync::atomic::{AtomicU64, Ordering};

/// Default span ring capacity for a [`Telemetry::new`] instance.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Name of the deterministic counter tracking spans evicted by ring
/// overflow.
pub const TRACE_DROPPED_METRIC: &str = "trace_dropped";

/// One subsystem's telemetry: a metric [`Registry`], a span
/// [`TraceBuffer`] and a virtual-clock cell used to stamp spans.
///
/// Owned by exactly one service, front end or cluster, which records
/// its spans through `&mut`. Metric handles are cheap to clone out of
/// the registry; the span ring and the clock are not shared.
#[derive(Debug)]
pub struct Telemetry {
    registry: Registry,
    trace: TraceBuffer,
    cycle: AtomicU64,
}

impl Telemetry {
    /// Create a telemetry handle with the default span-ring capacity.
    pub fn new() -> Self {
        Telemetry::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Create a telemetry handle whose span ring holds at most
    /// `capacity` events. The `trace_dropped` counter is registered
    /// eagerly so it exports as zero even before any overflow.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        let registry = Registry::new();
        let dropped = registry.counter(TRACE_DROPPED_METRIC, MetricClass::Deterministic);
        Telemetry {
            trace: TraceBuffer::new(capacity, dropped),
            registry,
            cycle: AtomicU64::new(0),
        }
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span ring buffer.
    pub fn trace_buffer(&self) -> &TraceBuffer {
        &self.trace
    }

    /// The span ring buffer, for recording spans with an explicit node
    /// stamp ([`TraceBuffer::record`]).
    pub fn trace_buffer_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Push the current virtual-clock cycle down into the handle; all
    /// subsequent [`span`](Telemetry::span) calls stamp this cycle.
    pub fn set_cycle(&self, cycle: u64) {
        self.cycle.store(cycle, Ordering::Relaxed);
    }

    /// The last pushed virtual-clock cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle.load(Ordering::Relaxed)
    }

    /// Record a span at the current cycle on node 0.
    pub fn span(&mut self, kind: SpanKind, key: u64, detail: i64) {
        let cycle = self.cycle();
        self.trace.record(key, kind, cycle, 0, detail);
    }

    /// Record a span with an explicit cycle stamp on node 0.
    pub fn span_at(&mut self, kind: SpanKind, key: u64, cycle: u64, detail: i64) {
        self.trace.record(key, kind, cycle, 0, detail);
    }

    /// All spans recorded for `key`, in canonical timeline order.
    pub fn trace(&self, key: u64) -> Vec<SpanEvent> {
        self.trace.trace(key)
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        send_sync::<Telemetry>();
    };

    #[test]
    fn spans_stamp_the_pushed_cycle() {
        let mut t = Telemetry::new();
        t.span(SpanKind::Queued, 1, 0);
        t.set_cycle(9);
        t.span(SpanKind::Demuxed, 1, 0);
        t.span_at(SpanKind::Fault, 1, 4, 0);
        let timeline = t.trace(1);
        assert_eq!(timeline[0].cycle, 0);
        assert_eq!(timeline[1].cycle, 4);
        assert_eq!(timeline[2].cycle, 9);
    }

    #[test]
    fn one_handle_owns_registry_trace_and_clock() {
        let mut t = Telemetry::new();
        t.set_cycle(4);
        let cycle = t.cycle();
        t.trace_buffer_mut()
            .record(5, SpanKind::Admitted, cycle, 2, 0);
        t.span(SpanKind::Queued, 5, 0);
        let timeline = t.trace(5);
        assert_eq!(timeline.len(), 2);
        assert!(timeline.iter().all(|e| e.cycle == 4));
        assert_eq!(timeline[0].node, 2);
        // metric handles cloned out of the registry still share cells
        let c = t.registry().counter("x", MetricClass::Deterministic);
        c.add(2);
        let registry = t.registry().clone();
        assert_eq!(registry.counter_value("x"), Some(2));
    }

    #[test]
    fn trace_dropped_counter_registered_eagerly() {
        let mut t = Telemetry::with_trace_capacity(2);
        assert_eq!(t.registry().counter_value(TRACE_DROPPED_METRIC), Some(0));
        for i in 0..5 {
            t.span(SpanKind::Queued, i, 0);
        }
        assert_eq!(t.registry().counter_value(TRACE_DROPPED_METRIC), Some(3));
        assert_eq!(t.trace_buffer().dropped(), 3);
    }
}
