//! Request-lifecycle tracing: a bounded ring buffer of typed span
//! events keyed by request id, with a `trace(key)` query that
//! reconstructs one request's timeline.
//!
//! A ring has one writer, its owner: [`TraceBuffer::record`] takes
//! `&mut self`, so spans are recorded only from the owner's sequential
//! phases (plan / apply / demux run on the coordinating thread) and the
//! recording order — and therefore the whole buffer — is bit-identical
//! at any `MCFPGA_THREADS` and lane width. The borrow checker enforces
//! that rule, and recording takes no lock. On overflow the ring drops
//! the **oldest** span and mirrors its drop tally into the
//! `trace_dropped` metric; it never panics and never blocks recording.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::metrics::Counter;

/// Key-space tag: the span is keyed by a front-end ticket, not a
/// request id (the request was refused or expired before one existed).
pub const TICKET_KEY_BIT: u64 = 1 << 63;

/// Key-space tag: the span is keyed by a tenant index (faults that
/// cannot be pinned to one request).
pub const TENANT_KEY_BIT: u64 = 1 << 62;

/// Build a span key from a front-end ticket value.
pub fn ticket_key(ticket: u64) -> u64 {
    ticket | TICKET_KEY_BIT
}

/// Build a span key from a tenant index.
pub fn tenant_key(tenant: usize) -> u64 {
    tenant as u64 | TENANT_KEY_BIT
}

/// The lifecycle stage a span event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Admitted by the QoS front-end (or routed by the cluster).
    Admitted,
    /// Queued into a context slot's lane batch.
    Queued,
    /// Re-homed to another node by a live migration.
    MigrationHop,
    /// Flushed from a stream queue into the service.
    Flushed,
    /// Covered by a planned sweep step.
    Planned,
    /// Evaluated by the (parallel, pure) evaluation phase.
    Evaluated,
    /// Merged back in the sequential apply phase.
    Applied,
    /// Demultiplexed into a per-request response.
    Demuxed,
    /// Expired in a stream queue past its deadline.
    Expired,
    /// Terminated by a fault.
    Fault,
}

impl SpanKind {
    /// Lifecycle rank used as the secondary timeline sort key, so that
    /// same-cycle events order admitted → … → demuxed.
    pub fn rank(self) -> u8 {
        match self {
            SpanKind::Admitted => 0,
            SpanKind::Queued => 1,
            SpanKind::MigrationHop => 2,
            SpanKind::Flushed => 3,
            SpanKind::Planned => 4,
            SpanKind::Evaluated => 5,
            SpanKind::Applied => 6,
            SpanKind::Demuxed => 7,
            SpanKind::Expired => 8,
            SpanKind::Fault => 9,
        }
    }

    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Admitted => "admitted",
            SpanKind::Queued => "queued",
            SpanKind::MigrationHop => "migration_hop",
            SpanKind::Flushed => "flushed",
            SpanKind::Planned => "planned",
            SpanKind::Evaluated => "evaluated",
            SpanKind::Applied => "applied",
            SpanKind::Demuxed => "demuxed",
            SpanKind::Expired => "expired",
            SpanKind::Fault => "fault",
        }
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded span event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Per-buffer record sequence number (assigned at record time).
    pub seq: u64,
    /// Request key: a raw request-id value, or a ticket / tenant key
    /// tagged with [`TICKET_KEY_BIT`] / [`TENANT_KEY_BIT`].
    pub key: u64,
    /// Lifecycle stage.
    pub kind: SpanKind,
    /// Virtual-clock cycle stamp.
    pub cycle: u64,
    /// Node that recorded the event (0 for single-node deployments).
    pub node: u32,
    /// Stage-specific detail: deadline slack for admissions, shard for
    /// planned steps, source node for migration hops, …
    pub detail: i64,
}

impl std::fmt::Display for SpanEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let key = if self.key & TICKET_KEY_BIT != 0 {
            format!("ticket:{}", self.key & !TICKET_KEY_BIT)
        } else if self.key & TENANT_KEY_BIT != 0 {
            format!("tenant:{}", self.key & !TENANT_KEY_BIT)
        } else {
            format!("req:{}", self.key)
        };
        write!(
            f,
            "cycle={} node={} {} {} detail={}",
            self.cycle, self.node, key, self.kind, self.detail
        )
    }
}

/// Sort a timeline in place by `(cycle, lifecycle rank, node, seq)` —
/// the canonical order for rendering one request's reconstructed trace.
pub fn sort_timeline(events: &mut [SpanEvent]) {
    events.sort_by_key(|e| (e.cycle, e.kind.rank(), e.node, e.seq));
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<SpanEvent>,
    seq: u64,
    dropped: u64,
    capacity: usize,
}

/// A bounded ring buffer of [`SpanEvent`]s, written only by its owner.
///
/// [`record`](Self::record) takes `&mut self` and writes through
/// [`Mutex::get_mut`], so recording takes no lock. Readers and
/// [`set_capacity`](Self::set_capacity) work through `&self` and lock.
/// Recording into a full ring evicts the oldest span, bumps the
/// internal drop tally and mirrors it into the `trace_dropped` metric
/// counter with a plain store; it never panics and never blocks.
///
/// A buffer with capacity 0 is **disabled**: [`record`](Self::record)
/// returns at once, nothing is retained, and nothing is counted as
/// dropped. Hot paths should consult [`is_enabled`](Self::is_enabled)
/// before even *formatting* span details, so a disabled buffer costs
/// one relaxed atomic load per would-be span.
#[derive(Debug)]
pub struct TraceBuffer {
    inner: Mutex<Inner>,
    enabled: AtomicBool,
    dropped_metric: Counter,
}

impl TraceBuffer {
    /// Create a buffer holding at most `capacity` spans, reporting
    /// drops through `dropped_metric`. Capacity 0 disables tracing.
    pub fn new(capacity: usize, dropped_metric: Counter) -> Self {
        TraceBuffer {
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity),
                seq: 0,
                dropped: 0,
                capacity,
            }),
            enabled: AtomicBool::new(capacity > 0),
            dropped_metric,
        }
    }

    /// Whether recording is live (capacity > 0). One relaxed atomic
    /// load — cheap enough to gate span *construction* in hot loops.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Resize the ring in place (through a shared reference, so an
    /// operator can resize a ring it does not own). Shrinking evicts the
    /// oldest spans *without* counting them as dropped (resizing is an
    /// operator action, not overflow); capacity 0 disables recording
    /// entirely.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock().expect("trace buffer poisoned");
        inner.capacity = capacity;
        while inner.ring.len() > capacity {
            inner.ring.pop_front();
        }
        self.enabled.store(capacity > 0, Ordering::Relaxed);
    }

    /// Record one span event through the owner's exclusive borrow: no
    /// lock, no atomic read-modify-write, and no allocation once the
    /// ring is full. A no-op (no drop tally) when the buffer is
    /// disabled.
    pub fn record(&mut self, key: u64, kind: SpanKind, cycle: u64, node: u32, detail: i64) {
        if !self.is_enabled() {
            return;
        }
        // `&mut self` excludes a concurrent `set_capacity`, so an enabled
        // ring has capacity > 0
        let inner = self.inner.get_mut().expect("trace buffer poisoned");
        if inner.ring.len() >= inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
            self.dropped_metric.mirror(inner.dropped);
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.ring.push_back(SpanEvent {
            seq,
            key,
            kind,
            cycle,
            node,
            detail,
        });
    }

    /// All spans recorded for `key`, in canonical timeline order.
    pub fn trace(&self, key: u64) -> Vec<SpanEvent> {
        let inner = self.inner.lock().expect("trace buffer poisoned");
        let mut events: Vec<SpanEvent> = inner
            .ring
            .iter()
            .filter(|e| e.key == key)
            .cloned()
            .collect();
        drop(inner);
        sort_timeline(&mut events);
        events
    }

    /// Every retained span, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        let inner = self.inner.lock().expect("trace buffer poisoned");
        inner.ring.iter().cloned().collect()
    }

    /// Number of spans evicted by overflow so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace buffer poisoned").dropped
    }

    /// Maximum number of retained spans.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("trace buffer poisoned").capacity
    }

    /// Number of currently retained spans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace buffer poisoned").ring.len()
    }

    /// Whether the buffer holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the whole buffer as text: a drop-count header line
    /// followed by one line per retained span, oldest first.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("trace buffer poisoned");
        let mut out = format!(
            "spans={} dropped={} capacity={}\n",
            inner.ring.len(),
            inner.dropped,
            inner.capacity
        );
        for e in &inner.ring {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricClass, Registry};

    fn buffer(capacity: usize) -> (TraceBuffer, Registry) {
        let r = Registry::new();
        let dropped = r.counter("trace_dropped", MetricClass::Deterministic);
        (TraceBuffer::new(capacity, dropped), r)
    }

    #[test]
    fn overflow_drops_oldest_and_counts_without_panicking() {
        let (mut buf, registry) = buffer(4);
        for i in 0..10 {
            buf.record(i, SpanKind::Queued, i, 0, 0);
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 6);
        assert_eq!(registry.counter_value("trace_dropped"), Some(6));
        // oldest six are gone, newest four retained in order
        let keys: Vec<u64> = buf.events().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_buffer_records_nothing_and_counts_no_drops() {
        let (mut buf, registry) = buffer(0);
        assert!(!buf.is_enabled());
        for i in 0..1000 {
            buf.record(i, SpanKind::Queued, i, 0, 0);
        }
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.dropped(), 0);
        assert_eq!(registry.counter_value("trace_dropped"), Some(0));
    }

    #[test]
    fn set_capacity_resizes_ring_without_counting_drops() {
        let (mut buf, registry) = buffer(8);
        for i in 0..8 {
            buf.record(i, SpanKind::Queued, i, 0, 0);
        }
        // shrink through a shared reference, as an operator does:
        // oldest spans evicted, not "dropped"
        let shared: &TraceBuffer = &buf;
        shared.set_capacity(3);
        assert_eq!(buf.capacity(), 3);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 0);
        assert_eq!(registry.counter_value("trace_dropped"), Some(0));
        let keys: Vec<u64> = buf.events().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![5, 6, 7]);
        // shrink to zero disables recording
        buf.set_capacity(0);
        assert!(!buf.is_enabled());
        buf.record(99, SpanKind::Queued, 0, 0, 0);
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.dropped(), 0);
        // re-enable and confirm recording resumes
        buf.set_capacity(2);
        assert!(buf.is_enabled());
        buf.record(1, SpanKind::Queued, 0, 0, 0);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn trace_dropped_mirrors_the_ring_tally_through_overflow_shrink_and_regrow() {
        let (mut buf, registry) = buffer(3);
        let mirrored = |buf: &TraceBuffer| {
            assert_eq!(registry.counter_value("trace_dropped"), Some(buf.dropped()));
        };
        for i in 0..7 {
            buf.record(i, SpanKind::Queued, i, 0, 0);
            mirrored(&buf);
        }
        assert_eq!(buf.dropped(), 4);
        // a shrink evicts without dropping; overflow at the new size does
        buf.set_capacity(1);
        mirrored(&buf);
        buf.record(7, SpanKind::Queued, 7, 0, 0);
        assert_eq!(buf.dropped(), 5);
        mirrored(&buf);
        // a regrow fills before it drops again
        buf.set_capacity(4);
        for i in 8..14 {
            buf.record(i, SpanKind::Queued, i, 0, 0);
            mirrored(&buf);
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 8);
        mirrored(&buf);
    }

    #[test]
    fn trace_filters_by_key_and_sorts_by_lifecycle() {
        let (mut buf, _r) = buffer(16);
        // record out of lifecycle order within one cycle
        buf.record(7, SpanKind::Demuxed, 5, 0, 0);
        buf.record(7, SpanKind::Applied, 5, 0, 0);
        buf.record(9, SpanKind::Queued, 5, 0, 0);
        buf.record(7, SpanKind::Queued, 2, 0, 3);
        let t = buf.trace(7);
        let kinds: Vec<SpanKind> = t.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::Queued, SpanKind::Applied, SpanKind::Demuxed]
        );
        assert!(t.iter().all(|e| e.key == 7));
    }

    #[test]
    fn key_spaces_do_not_collide_and_render_distinctly() {
        let (mut buf, _r) = buffer(8);
        buf.record(3, SpanKind::Queued, 0, 0, 0);
        buf.record(ticket_key(3), SpanKind::Expired, 0, 0, 0);
        buf.record(tenant_key(3), SpanKind::Fault, 0, 0, 0);
        assert_eq!(buf.trace(3).len(), 1);
        assert_eq!(buf.trace(ticket_key(3)).len(), 1);
        assert_eq!(buf.trace(tenant_key(3)).len(), 1);
        let rendered = buf.render();
        assert!(rendered.contains("req:3 queued"));
        assert!(rendered.contains("ticket:3 expired"));
        assert!(rendered.contains("tenant:3 fault"));
    }

    #[test]
    fn timeline_sort_breaks_cycle_ties_by_rank_then_node_then_seq() {
        let mut events = vec![
            SpanEvent {
                seq: 0,
                key: 1,
                kind: SpanKind::Demuxed,
                cycle: 4,
                node: 0,
                detail: 0,
            },
            SpanEvent {
                seq: 1,
                key: 1,
                kind: SpanKind::MigrationHop,
                cycle: 4,
                node: 1,
                detail: 0,
            },
            SpanEvent {
                seq: 2,
                key: 1,
                kind: SpanKind::Admitted,
                cycle: 1,
                node: 1,
                detail: 0,
            },
        ];
        sort_timeline(&mut events);
        let kinds: Vec<SpanKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Admitted,
                SpanKind::MigrationHop,
                SpanKind::Demuxed
            ]
        );
    }
}
