//! The QoS streaming front-end: admission control, backpressure, and
//! deadline-aware flush timing over a [`ShardedService`].
//!
//! Until now traffic entered the service through synchronous
//! [`ShardedService::submit`] plus an explicit
//! [`drain`](ShardedService::drain) — fine for tests, wrong for a runtime
//! serving millions of users: a slow tenant's queue grows without bound, a
//! latency-sensitive tenant waits behind a half-full lane batch, and
//! nothing meters who may submit how fast. A [`FrontendDriver`] puts a
//! per-tenant **request stream** in front of every slot:
//!
//! * **QoS classes** ([`QosClass`]). A [`LatencySensitive`] stream
//!   triggers *early partial-chunk flushes*: [`pump`] predicts, from the
//!   stream's observed arrival rate, whether waiting for more lanes would
//!   carry the head request past its deadline, and if so flushes the
//!   partial batch immediately through
//!   [`ShardedService::flush_tenants`] — the partial-width entry point
//!   into the existing parallel drain path. A [`Throughput`] stream waits
//!   for a full batch (`min(lane width, queue capacity)` lanes) before
//!   flushing, maximizing vectors per pass.
//! * **Admission control**. Every stream's queue is *bounded*:
//!   [`offer`] returns a typed [`FrontendError::Backpressure`] when the
//!   queue is at capacity instead of growing it, and a typed
//!   [`FrontendError::Rejected`] when a token-bucket rate limit
//!   ([`RateLimit`]) is exhausted or the request arrives already past its
//!   deadline. Rejections are never silent: every outcome is counted in
//!   the stream's [`FrontendUsage`] and billed through
//!   [`mcfpga_cost::attribution`].
//! * **Deadlines**. An admitted request carries an absolute virtual-clock
//!   deadline (explicit, or the stream's default budget). A request still
//!   *queued in the front-end* when its deadline passes is removed on the
//!   next [`pump`] and surfaced as a typed [`FrontendEvent::Expired`] —
//!   so an admitted request is always flushed by its deadline or expired
//!   with a typed error, never silently late. Once flushed into the
//!   service, completion is guaranteed (the service conserves requests).
//! * **Virtual clock**. The driver never reads wall time: the caller owns
//!   time via [`advance`], so every test and bench is deterministic —
//!   latency is measured in virtual-clock cycles and is bit-for-bit
//!   reproducible at any executor thread count.
//! * **Observability**. Every admission outcome is mirrored into the
//!   wrapped service's [`Telemetry`] as deterministic `frontend_*`
//!   counters and virtual-cycle histograms, and every request's
//!   front-end hops become spans — `Admitted` (backfilled at its arrival
//!   cycle once the service mints the [`RequestId`]) and `Flushed`,
//!   plus ticket-keyed `Expired`/`Fault` for requests that never earned
//!   an id — so [`trace`](FrontendDriver::trace) replays the full
//!   admitted→…→demuxed lifecycle.
//!
//! The flow per request: `offer` (admit / backpressure / reject, then
//! resolve the names once into an input row over the tenant's columns —
//! [`resolve_row`]) → bounded stream queue → `pump` (expire, then
//! flush-decision per stream) → the row handed to the service with no
//! name comparisons, and the touched slots run through [`flush_tenants`]
//! → responses matched to the front of each stream's in-flight FIFO →
//! [`FrontendEvent`]s. A request that leaves an input column undriven
//! keeps its names and is submitted by name
//! ([`ShardedService::submit`]), so the service refuses it exactly as it
//! would a direct submission, at the same pump.
//!
//! [`LatencySensitive`]: QosClass::LatencySensitive
//! [`Throughput`]: QosClass::Throughput
//! [`offer`]: FrontendDriver::offer
//! [`pump`]: FrontendDriver::pump
//! [`advance`]: FrontendDriver::advance
//! [`flush_tenants`]: ShardedService::flush_tenants
//!
//! ```
//! use mcfpga_device::TechParams;
//! use mcfpga_fabric::netlist_ir::generators;
//! use mcfpga_fabric::FabricParams;
//! use mcfpga_service::frontend::{FrontendDriver, FrontendEvent, StreamPolicy};
//! use mcfpga_service::ShardedService;
//!
//! let svc = ShardedService::new(1, FabricParams::default(), TechParams::default())?;
//! let mut fe = FrontendDriver::new(svc);
//! let t = fe.admit("wire", &generators::wire_lanes(1).unwrap())?;
//! // a latency-sensitive stream: up to 8 queued, 4-cycle deadline budget
//! fe.open_stream(t, StreamPolicy::latency_sensitive(8, 4))?;
//! let ticket = fe.offer(t, &[("in0", true)], None)?;
//! // the deadline (now + 4) is near and the arrival rate is unknown, so
//! // the very next pump flushes the single-lane partial batch
//! let events = fe.pump()?;
//! match &events[0] {
//!     FrontendEvent::Completed { ticket: tk, outputs, latency, .. } => {
//!         assert_eq!(*tk, ticket);
//!         assert_eq!(*latency, 0, "flushed on the same virtual cycle");
//!         assert!(outputs[0].1);
//!     }
//!     other => panic!("expected completion, got {other:?}"),
//! }
//! # Ok::<(), mcfpga_service::frontend::FrontendError>(())
//! ```

use crate::batch::{Outputs, RequestId, Response};
use crate::registry::TenantId;
use crate::service::{ShardedService, SlotFault};
use crate::ServiceError;
use mcfpga_cost::attribution::{render_frontend_billing, FrontendUsage};
use mcfpga_fabric::compiled::{resolve_row, row_words};
use mcfpga_fabric::LogicNetlist;
use mcfpga_telemetry::{
    ticket_key, Counter, Gauge, Histogram, MetricClass, SpanEvent, SpanKind, Telemetry,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Offers received, every outcome included ([`MetricClass::Deterministic`]).
pub const FRONTEND_OFFERED_METRIC: &str = "frontend_offered";
/// Offers admitted into a stream queue ([`MetricClass::Deterministic`]).
pub const FRONTEND_ADMITTED_METRIC: &str = "frontend_admitted";
/// Offers refused by a full stream queue ([`MetricClass::Deterministic`]).
pub const FRONTEND_REJECTED_BACKPRESSURE_METRIC: &str = "frontend_rejected_backpressure";
/// Offers rejected by a token bucket ([`MetricClass::Deterministic`]).
pub const FRONTEND_REJECTED_RATE_METRIC: &str = "frontend_rejected_rate";
/// Offers rejected dead-on-arrival ([`MetricClass::Deterministic`]).
pub const FRONTEND_REJECTED_DEADLINE_METRIC: &str = "frontend_rejected_deadline";
/// Tickets resolved as completed ([`MetricClass::Deterministic`]).
pub const FRONTEND_COMPLETED_METRIC: &str = "frontend_completed";
/// Tickets expired while queued ([`MetricClass::Deterministic`]).
pub const FRONTEND_EXPIRED_METRIC: &str = "frontend_expired";
/// Tickets the service refused at submit ([`MetricClass::Deterministic`]).
pub const FRONTEND_FAILED_METRIC: &str = "frontend_failed";
/// Requests flushed into the service, awaiting responses
/// ([`MetricClass::Deterministic`] gauge).
pub const FRONTEND_INFLIGHT_METRIC: &str = "frontend_inflight";
/// log2 histogram of arrival→completion virtual cycles
/// ([`MetricClass::Deterministic`]).
pub const FRONTEND_LATENCY_METRIC: &str = "frontend_latency_cycles";
/// log2 histogram of arrival→flush virtual cycles
/// ([`MetricClass::Deterministic`]).
pub const FRONTEND_QUEUE_WAIT_METRIC: &str = "frontend_queue_wait_cycles";

/// The front-end's slice of the service telemetry registry. Everything is
/// measured in virtual-clock cycles or admission counts, so every metric
/// is [`MetricClass::Deterministic`]: bit-identical at any executor
/// thread count, and at any lane width as long as stream capacities bound
/// the batch width (the chaos-replay gate enforces exactly that).
#[derive(Debug, Clone)]
struct FrontendMetrics {
    offered: Counter,
    admitted: Counter,
    rejected_backpressure: Counter,
    rejected_rate: Counter,
    rejected_deadline: Counter,
    completed: Counter,
    expired: Counter,
    failed: Counter,
    inflight: Gauge,
    latency_cycles: Histogram,
    queue_wait_cycles: Histogram,
}

impl FrontendMetrics {
    fn register(telemetry: &Telemetry) -> Self {
        let r = telemetry.registry();
        let det = MetricClass::Deterministic;
        FrontendMetrics {
            offered: r.counter(FRONTEND_OFFERED_METRIC, det),
            admitted: r.counter(FRONTEND_ADMITTED_METRIC, det),
            rejected_backpressure: r.counter(FRONTEND_REJECTED_BACKPRESSURE_METRIC, det),
            rejected_rate: r.counter(FRONTEND_REJECTED_RATE_METRIC, det),
            rejected_deadline: r.counter(FRONTEND_REJECTED_DEADLINE_METRIC, det),
            completed: r.counter(FRONTEND_COMPLETED_METRIC, det),
            expired: r.counter(FRONTEND_EXPIRED_METRIC, det),
            failed: r.counter(FRONTEND_FAILED_METRIC, det),
            inflight: r.gauge(FRONTEND_INFLIGHT_METRIC, det),
            latency_cycles: r.histogram(FRONTEND_LATENCY_METRIC, det),
            queue_wait_cycles: r.histogram(FRONTEND_QUEUE_WAIT_METRIC, det),
        }
    }
}

/// The service class of one tenant's request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Deadline-driven: [`FrontendDriver::pump`] flushes a *partial*
    /// lane batch early whenever waiting for more arrivals is predicted
    /// to carry the head request past its deadline.
    LatencySensitive,
    /// Efficiency-driven: flushes only when a full batch
    /// (`min(lane width, queue capacity)` lanes) has accumulated, so
    /// every pass serves as many vectors as possible.
    Throughput,
}

impl std::fmt::Display for QosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QosClass::LatencySensitive => write!(f, "latency-sensitive"),
            QosClass::Throughput => write!(f, "throughput"),
        }
    }
}

/// A deterministic token-bucket rate limit, in integer virtual-clock
/// arithmetic (no floats, so refill is bit-for-bit reproducible).
///
/// The bucket holds up to `burst` tokens and gains `refill_num` tokens
/// every `refill_den` cycles (fractional rates are exact: tokens are
/// stored scaled by `refill_den`). Each admitted request spends one
/// token; an empty bucket rejects with
/// [`RejectReason::RateLimited`] naming the cycles until a token exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity in whole tokens (the largest admissible burst).
    pub burst: u64,
    /// Tokens refilled per `refill_den` cycles.
    pub refill_num: u64,
    /// Refill period in cycles (must be non-zero).
    pub refill_den: u64,
}

impl RateLimit {
    /// `tokens` per `cycles` cycles, with a burst allowance of `burst`.
    #[must_use]
    pub fn per_cycles(tokens: u64, cycles: u64, burst: u64) -> Self {
        RateLimit {
            burst,
            refill_num: tokens,
            refill_den: cycles,
        }
    }
}

/// Everything that shapes one tenant's stream: class, queue bound,
/// default deadline budget, and optional rate limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPolicy {
    /// The stream's QoS class.
    pub class: QosClass,
    /// Maximum queued (admitted, not yet flushed) requests; an offer
    /// beyond this is refused with [`FrontendError::Backpressure`].
    pub capacity: usize,
    /// Default *relative* deadline (cycles from arrival) applied when an
    /// offer passes no explicit deadline. `None` means no deadline.
    pub deadline_budget: Option<u64>,
    /// Optional token-bucket admission rate limit.
    pub rate: Option<RateLimit>,
}

impl StreamPolicy {
    /// A latency-sensitive stream: bounded at `capacity`, every request
    /// due `deadline_budget` cycles after it arrives.
    #[must_use]
    pub fn latency_sensitive(capacity: usize, deadline_budget: u64) -> Self {
        StreamPolicy {
            class: QosClass::LatencySensitive,
            capacity,
            deadline_budget: Some(deadline_budget),
            rate: None,
        }
    }

    /// A throughput stream: bounded at `capacity`, no deadlines — it
    /// waits for full batches.
    #[must_use]
    pub fn throughput(capacity: usize) -> Self {
        StreamPolicy {
            class: QosClass::Throughput,
            capacity,
            deadline_budget: None,
            rate: None,
        }
    }

    /// The same policy with a token-bucket rate limit attached.
    #[must_use]
    pub fn with_rate(mut self, rate: RateLimit) -> Self {
        self.rate = Some(rate);
        self
    }
}

/// Opaque handle of one *admitted* front-end request. Minted by
/// [`FrontendDriver::offer`] on success only (a refused offer burns
/// nothing), resolved exactly once by a [`FrontendEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The raw ticket number (admission order, starting at 0).
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tkt#{}", self.0)
    }
}

/// Why an offer was rejected outright (distinct from
/// [`FrontendError::Backpressure`], which invites a retry once the queue
/// drains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The stream's token bucket is empty. `retry_cycles` is how many
    /// cycles until at least one token has refilled.
    RateLimited {
        /// Cycles until the bucket next holds a whole token.
        retry_cycles: u64,
    },
    /// The request's deadline already passed when it was offered — it
    /// could never be served in time, so admission refuses it instead of
    /// queueing doomed work.
    DeadlinePassed {
        /// The dead-on-arrival deadline.
        deadline: u64,
        /// The virtual clock at the offer.
        now: u64,
    },
}

/// Errors from the front-end's admission and configuration surface.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendError {
    /// The tenant has no open stream.
    NoStream(TenantId),
    /// [`FrontendDriver::open_stream`] called twice for one tenant.
    StreamExists(TenantId),
    /// A stream policy that cannot work (zero capacity, zero-period
    /// rate limit).
    BadPolicy(String),
    /// The stream's bounded queue is full. Not a failure of the request —
    /// the producer should slow down and retry; nothing was enqueued.
    Backpressure {
        /// The saturated stream's tenant.
        tenant: TenantId,
        /// Requests currently queued (== capacity).
        queued: usize,
        /// The stream's configured bound.
        capacity: usize,
    },
    /// The offer was rejected by admission control (rate limit or
    /// dead-on-arrival deadline); see [`RejectReason`].
    Rejected {
        /// The rejecting stream's tenant.
        tenant: TenantId,
        /// Why.
        reason: RejectReason,
    },
    /// Lane width (or another service knob) cannot change while requests
    /// sit in front-end queues — flush or let them expire first.
    QueuesNotEmpty {
        /// Requests currently queued across all streams.
        queued: usize,
    },
    /// An error from the underlying service.
    Service(ServiceError),
}

impl From<ServiceError> for FrontendError {
    fn from(e: ServiceError) -> Self {
        FrontendError::Service(e)
    }
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::NoStream(t) => write!(f, "tenant {t} has no open stream"),
            FrontendError::StreamExists(t) => write!(f, "tenant {t} already has a stream"),
            FrontendError::BadPolicy(s) => write!(f, "bad stream policy: {s}"),
            FrontendError::Backpressure {
                tenant,
                queued,
                capacity,
            } => write!(
                f,
                "backpressure: {tenant}'s stream holds {queued}/{capacity} requests"
            ),
            FrontendError::Rejected { tenant, reason } => match reason {
                RejectReason::RateLimited { retry_cycles } => write!(
                    f,
                    "rejected: {tenant} rate-limited, retry in {retry_cycles} cycles"
                ),
                RejectReason::DeadlinePassed { deadline, now } => write!(
                    f,
                    "rejected: deadline {deadline} already passed at cycle {now}"
                ),
            },
            FrontendError::QueuesNotEmpty { queued } => {
                write!(f, "{queued} requests still queued in front-end streams")
            }
            FrontendError::Service(e) => write!(f, "service: {e}"),
        }
    }
}

impl std::error::Error for FrontendError {}

/// One resolved front-end request, returned by
/// [`FrontendDriver::pump`] / [`flush_all`](FrontendDriver::flush_all).
/// Every admitted [`Ticket`] produces exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendEvent {
    /// The request was flushed and served.
    Completed {
        /// The admitted request's ticket.
        ticket: Ticket,
        /// The service-level request id it rode.
        request: RequestId,
        /// The serving tenant.
        tenant: TenantId,
        /// Named output values: the view of the request's lane in its
        /// pass's output table.
        outputs: Outputs,
        /// Virtual cycles from arrival ([`FrontendDriver::offer`]) to
        /// completion — the end-to-end QoS latency.
        latency: u64,
        /// The virtual cycle the request left the front-end queue for the
        /// service. For a deadlined request this never exceeds the
        /// deadline: a request that cannot flush in time expires instead.
        flushed: u64,
    },
    /// The request's deadline passed while it was still queued in the
    /// front-end — it was removed unserved. The typed late-error half of
    /// the deadline contract.
    Expired {
        /// The expired request's ticket.
        ticket: Ticket,
        /// Its stream's tenant.
        tenant: TenantId,
        /// The missed deadline.
        deadline: u64,
        /// The virtual clock when expiry was detected.
        now: u64,
    },
    /// The service refused the request at submit time (e.g. an input
    /// vector not driving every bound input). The request is resolved —
    /// it will not be retried.
    Failed {
        /// The failed request's ticket.
        ticket: Ticket,
        /// Its stream's tenant.
        tenant: TenantId,
        /// The service's refusal.
        error: ServiceError,
    },
    /// A response for a request submitted *directly* on the inner
    /// service (bypassing the front-end). Surfaced so mixed use never
    /// drops a response; purely front-end workloads never see it.
    PassThrough {
        /// The unmatched service response.
        response: Response,
    },
}

/// One queued (admitted, not yet flushed) request.
#[derive(Debug, Clone)]
struct QueuedRequest {
    ticket: Ticket,
    payload: Payload,
    /// Absolute virtual-clock deadline, if any.
    deadline: Option<u64>,
    /// Virtual cycle the request was admitted.
    arrived: u64,
}

/// What a queued request hands the service.
#[derive(Debug, Clone)]
enum Payload {
    /// Resolved at admission: the slot of its input row in the stream's
    /// [`RowPool`].
    Row(usize),
    /// Leaves one of the tenant's input columns undriven: the names as
    /// offered, submitted by name at the pump so the service refuses the
    /// request with its own error, in its own order of precedence.
    Names(Vec<(String, bool)>),
}

/// The input rows of one stream's queued requests: fixed-stride slots
/// (`⌈columns / 64⌉` words each) in one buffer, reused through a free
/// list. A stream's queue never exceeds its capacity, so the pool stops
/// growing at the queue's high-water mark and admission allocates
/// nothing after that.
#[derive(Debug, Clone)]
struct RowPool {
    stride: usize,
    words: Vec<u64>,
    slots: usize,
    free: Vec<usize>,
}

impl RowPool {
    fn new(columns: usize) -> Self {
        RowPool {
            stride: row_words(columns),
            words: Vec::new(),
            slots: 0,
            free: Vec::new(),
        }
    }

    fn claim(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            self.words.resize(self.words.len() + self.stride, 0);
            self.slots += 1;
            self.slots - 1
        })
    }

    fn release(&mut self, slot: usize) {
        self.free.push(slot);
    }

    fn row(&self, slot: usize) -> &[u64] {
        let start = slot * self.stride;
        &self.words[start..start + self.stride]
    }

    fn row_mut(&mut self, slot: usize) -> &mut [u64] {
        let start = slot * self.stride;
        &mut self.words[start..start + self.stride]
    }
}

/// One tenant's stream state.
#[derive(Debug, Clone)]
struct Stream {
    tenant: TenantId,
    policy: StreamPolicy,
    /// The tenant's input columns, cached when the stream opens: they are
    /// fixed for a tenant's lifetime, so a row resolved at admission still
    /// lines up with the slot when the pump submits it.
    columns: Arc<[Arc<str>]>,
    queue: VecDeque<QueuedRequest>,
    rows: RowPool,
    /// Token bucket level, scaled by `rate.refill_den` (integer-exact).
    tokens_scaled: u64,
    /// Clock of the last bucket refill.
    refilled_at: u64,
    /// EWMA of the inter-arrival gap, in Q8 fixed point (`gap × 256`).
    /// `None` until two arrivals have been observed — explicit, because
    /// `Some(0)` is a *legitimate* estimate (a same-cycle burst: requests
    /// arrive instantly). A zero-valued sentinel would make the first
    /// nonzero gap after a burst reset the estimator instead of blending.
    gap_ewma_q8: Option<u64>,
    last_arrival: Option<u64>,
    /// Requests flushed into the service, awaiting responses, in submit
    /// order. The stream's requests share one slot and demux runs in lane
    /// order, so they complete in this order too.
    inflight: VecDeque<Inflight>,
    usage: FrontendUsage,
}

impl Stream {
    fn new(tenant: TenantId, policy: StreamPolicy, columns: Arc<[Arc<str>]>, now: u64) -> Self {
        let tokens_scaled = policy
            .rate
            .map_or(0, |r| r.burst.saturating_mul(r.refill_den));
        Stream {
            tenant,
            policy,
            rows: RowPool::new(columns.len()),
            columns,
            queue: VecDeque::new(),
            tokens_scaled,
            refilled_at: now,
            gap_ewma_q8: None,
            last_arrival: None,
            inflight: VecDeque::new(),
            usage: FrontendUsage::default(),
        }
    }

    /// Removes queued request `i`, returning its row slot to the pool.
    fn dequeue(&mut self, i: usize) -> QueuedRequest {
        let req = self.queue.remove(i).expect("index checked");
        if let Payload::Row(slot) = req.payload {
            self.rows.release(slot);
        }
        req
    }

    /// Brings the token bucket up to `now` (integer-exact, saturating at
    /// the burst capacity).
    fn refill(&mut self, now: u64) {
        if let Some(rate) = self.policy.rate {
            let elapsed = now - self.refilled_at;
            let cap = rate.burst.saturating_mul(rate.refill_den);
            self.tokens_scaled = self
                .tokens_scaled
                .saturating_add(elapsed.saturating_mul(rate.refill_num))
                .min(cap);
            self.refilled_at = now;
        }
    }

    /// How many lanes one flush of this stream targets.
    fn batch_width(&self, lane_width: usize) -> usize {
        lane_width.min(self.policy.capacity).max(1)
    }

    /// Predicted cycles until `missing` more requests arrive, from the
    /// observed inter-arrival EWMA. Unknown rate (fewer than two
    /// arrivals) predicts "forever", which makes deadline-holding streams
    /// flush immediately rather than gamble.
    fn predicted_fill_wait(&self, missing: u64) -> u64 {
        if missing == 0 {
            return 0;
        }
        match self.gap_ewma_q8 {
            None => u64::MAX / 2,
            Some(gap) => (gap.saturating_mul(missing)) >> 8,
        }
    }
}

/// Metadata of one request handed to the service, held in its stream's
/// in-flight queue until the response arrives.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    request: RequestId,
    ticket: Ticket,
    arrived: u64,
    flushed: u64,
}

/// The QoS streaming front-end over a [`ShardedService`]. See the
/// [module docs](self) for the model and a runnable example.
#[derive(Debug)]
pub struct FrontendDriver {
    svc: ShardedService,
    /// Streams in registration order — every per-stream scan walks this
    /// order, so front-end behavior is deterministic.
    streams: Vec<Stream>,
    next_ticket: u64,
    /// A pump's working memory, kept between pumps.
    buffers: PumpBuffers,
    /// Set once the caller has borrowed the service mutably: direct
    /// submissions and discards are then possible, and a stream's
    /// responses may no longer arrive at the front of its in-flight queue.
    direct_access: bool,
    metrics: FrontendMetrics,
}

/// The buffers one pump fills and empties again, kept so a steady-state
/// pump allocates only the `Vec` of events it returns.
#[derive(Debug, Default)]
struct PumpBuffers {
    /// The tenants the pump flushes.
    flush_list: Vec<TenantId>,
    /// The flush's responses, matched to in-flight requests.
    responses: Vec<Response>,
    /// The pump's events, moved out into the returned `Vec`.
    events: Vec<FrontendEvent>,
}

impl FrontendDriver {
    /// Wraps `svc` in a front-end with an empty stream table and the
    /// virtual clock — the service telemetry's cycle cell — at 0.
    #[must_use]
    pub fn new(svc: ShardedService) -> Self {
        let metrics = FrontendMetrics::register(svc.telemetry());
        svc.telemetry().set_cycle(0);
        FrontendDriver {
            svc,
            streams: Vec::new(),
            next_ticket: 0,
            buffers: PumpBuffers::default(),
            direct_access: false,
            metrics,
        }
    }

    /// The wrapped service, read-only (billing, registry, diagnostics).
    #[must_use]
    pub fn service(&self) -> &ShardedService {
        &self.svc
    }

    /// The wrapped service, mutable — for operations the front-end does
    /// not mediate (admission, migration, evacuation, chaos hooks).
    /// Submitting directly here bypasses admission control; such
    /// requests' responses surface as [`FrontendEvent::PassThrough`].
    pub fn service_mut(&mut self) -> &mut ShardedService {
        self.direct_access = true;
        &mut self.svc
    }

    /// Admits a tenant on the wrapped service (convenience passthrough;
    /// the stream still needs [`open_stream`](Self::open_stream)).
    pub fn admit(&mut self, name: &str, netlist: &LogicNetlist) -> Result<TenantId, FrontendError> {
        Ok(self.svc.admit(name, netlist)?)
    }

    /// The virtual clock, in cycles: the wrapped service telemetry's
    /// cycle cell, so spans the service records during a flush carry the
    /// front-end's cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.svc.telemetry().cycle()
    }

    /// Advances the virtual clock. Time never advances on its own — the
    /// caller owns it, which is what keeps every test wall-time-free.
    pub fn advance(&mut self, cycles: u64) {
        let now = self.now().saturating_add(cycles);
        self.svc.telemetry().set_cycle(now);
    }

    /// The wrapped service's telemetry (the front-end publishes its
    /// `frontend_*` metrics and lifecycle spans there, so one registry
    /// covers the whole node).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        self.svc.telemetry()
    }

    /// Every recorded span for `request`, in virtual-clock timeline
    /// order — the front-end's `Admitted`/`Flushed` hops interleaved with
    /// the service's `Queued`→`Planned`→`Evaluated`→`Applied`→`Demuxed`.
    #[must_use]
    pub fn trace(&self, request: RequestId) -> Vec<SpanEvent> {
        self.svc.trace(request)
    }

    /// Opens `tenant`'s request stream under `policy`. One stream per
    /// tenant; the policy is validated here so admission never has to.
    pub fn open_stream(
        &mut self,
        tenant: TenantId,
        policy: StreamPolicy,
    ) -> Result<(), FrontendError> {
        // surface unknown tenants now, not at first offer
        let columns = self.svc.input_columns(tenant)?;
        if self.stream_index(tenant).is_some() {
            return Err(FrontendError::StreamExists(tenant));
        }
        if policy.capacity == 0 {
            return Err(FrontendError::BadPolicy(
                "stream capacity must be at least 1".into(),
            ));
        }
        if let Some(rate) = policy.rate {
            if rate.refill_den == 0 {
                return Err(FrontendError::BadPolicy(
                    "rate limit refill period must be non-zero".into(),
                ));
            }
        }
        self.streams
            .push(Stream::new(tenant, policy, columns, self.now()));
        Ok(())
    }

    /// One tenant's stream policy, if a stream is open.
    #[must_use]
    pub fn stream_policy(&self, tenant: TenantId) -> Option<&StreamPolicy> {
        self.stream_index(tenant).map(|i| &self.streams[i].policy)
    }

    /// Offers one single-vector request to `tenant`'s stream.
    ///
    /// Admission control runs in order: unknown stream →
    /// dead-on-arrival deadline ([`FrontendError::Rejected`]) → bounded
    /// queue ([`FrontendError::Backpressure`]) → token bucket
    /// ([`FrontendError::Rejected`]; checked last so a backpressured
    /// offer burns no token). On success the request is queued with its
    /// absolute deadline — `deadline` verbatim, or `now +
    /// deadline_budget` from the policy, or none — and a fresh
    /// [`Ticket`] is returned. Every outcome increments the stream's
    /// [`FrontendUsage`] counters.
    ///
    /// An admitted request's names are resolved here, once, into an input
    /// row over the tenant's input columns ([`resolve_row`]; names that
    /// are not columns, `reg:*` included, are ignored), held in a
    /// per-stream row pool that stops growing at the queue's high-water
    /// mark — admission copies no names and, after warm-up, allocates
    /// nothing. Admission never refuses a payload: a request that leaves
    /// a column undriven is queued with its names, and the pump that
    /// hands it over surfaces the service's refusal as a
    /// [`FrontendEvent::Failed`].
    pub fn offer(
        &mut self,
        tenant: TenantId,
        inputs: &[(&str, bool)],
        deadline: Option<u64>,
    ) -> Result<Ticket, FrontendError> {
        let now = self.now();
        let idx = self
            .stream_index(tenant)
            .ok_or(FrontendError::NoStream(tenant))?;
        let stream = &mut self.streams[idx];
        stream.usage.offered += 1;
        self.metrics.offered.inc();
        let deadline = deadline.or_else(|| {
            stream
                .policy
                .deadline_budget
                .map(|budget| now.saturating_add(budget))
        });
        if let Some(d) = deadline {
            if d < now {
                stream.usage.rejected_deadline += 1;
                self.metrics.rejected_deadline.inc();
                return Err(FrontendError::Rejected {
                    tenant,
                    reason: RejectReason::DeadlinePassed { deadline: d, now },
                });
            }
        }
        if stream.queue.len() >= stream.policy.capacity {
            stream.usage.rejected_backpressure += 1;
            self.metrics.rejected_backpressure.inc();
            return Err(FrontendError::Backpressure {
                tenant,
                queued: stream.queue.len(),
                capacity: stream.policy.capacity,
            });
        }
        if let Some(rate) = stream.policy.rate {
            stream.refill(now);
            if stream.tokens_scaled < rate.refill_den {
                stream.usage.rejected_rate += 1;
                self.metrics.rejected_rate.inc();
                let needed = rate.refill_den - stream.tokens_scaled;
                let retry_cycles = if rate.refill_num == 0 {
                    u64::MAX
                } else {
                    needed.div_ceil(rate.refill_num)
                };
                return Err(FrontendError::Rejected {
                    tenant,
                    reason: RejectReason::RateLimited { retry_cycles },
                });
            }
            stream.tokens_scaled -= rate.refill_den;
            stream.usage.rate_tokens_spent += 1;
        }
        // admitted: update the arrival-rate estimator (EWMA, α = 1/8).
        // The gap is widened to Q8 with a saturating multiply — a virtual
        // clock is free to jump by more than 2^56 cycles, and `<< 8`
        // would silently wrap such a gap to a tiny estimate. Saturated
        // blend terms likewise: the estimator pins at "effectively
        // forever" instead of wrapping.
        if let Some(last) = stream.last_arrival {
            let gap_q8 = (now - last).saturating_mul(256);
            stream.gap_ewma_q8 = Some(match stream.gap_ewma_q8 {
                None => gap_q8,
                Some(ewma) => ewma.saturating_mul(7).saturating_add(gap_q8) / 8,
            });
        }
        stream.last_arrival = Some(now);
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let slot = stream.rows.claim();
        let payload = match resolve_row(&stream.columns, inputs, stream.rows.row_mut(slot)) {
            Ok(()) => Payload::Row(slot),
            Err(_) => {
                stream.rows.release(slot);
                Payload::Names(inputs.iter().map(|(n, v)| ((*n).to_string(), *v)).collect())
            }
        };
        stream.queue.push_back(QueuedRequest {
            ticket,
            payload,
            deadline,
            arrived: now,
        });
        stream.usage.admitted += 1;
        self.metrics.admitted.inc();
        Ok(ticket)
    }

    /// One driver iteration: expires overdue queued requests, decides
    /// which streams to flush (class- and arrival-rate-aware), hands
    /// their batches to the service, executes the touched slots through
    /// the parallel drain path, and returns every resolved request as a
    /// [`FrontendEvent`].
    ///
    /// Flush decision per stream, in registration order:
    /// * any class flushes when a full batch has accumulated;
    /// * a [`QosClass::LatencySensitive`] stream also flushes when the
    ///   head request's deadline is due — `deadline ≤ now +
    ///   predicted_fill_wait`, where the wait is estimated from the
    ///   stream's inter-arrival EWMA (no estimate yet → flush now) — or
    ///   when the head request carries no deadline at all;
    /// * a stream with requests already in the service (a faulted slot
    ///   keeps them queued there) is re-flushed every pump, so repaired
    ///   tenants complete without new traffic.
    ///
    /// A handed-over request is submitted as the input row it was
    /// resolved into at [`offer`](Self::offer) (no name comparisons), or
    /// by name if it did not resolve; the service's refusals keep their
    /// order — unknown tenant, then backlogged slot (the request stays
    /// queued for a later pump), then missing input. Responses are
    /// matched to the front of their stream's in-flight FIFO. A stream
    /// whose tenant is no longer registered (retired underneath the front
    /// end) resolves its in-flight requests as [`FrontendEvent::Failed`]
    /// with [`ServiceError::UnknownTenant`] and is left out of the flush,
    /// so the other streams keep completing.
    ///
    /// With nothing queued, nothing in flight and nothing due, a pump is
    /// a pure no-op: no service call, no clock movement, no events.
    pub fn pump(&mut self) -> Result<Vec<FrontendEvent>, FrontendError> {
        self.pump_inner(false)
    }

    /// Flushes **everything** queued in every stream regardless of class
    /// or deadline (after the same expiry pass as [`pump`](Self::pump)),
    /// then drains the whole service. The end-of-run path: after it, no
    /// request is left in a front-end queue, and every ticket whose slot
    /// is healthy has resolved.
    ///
    /// A slot whose service-side batch is full (backlogged behind a
    /// fault) needs one drain before its stream's remaining requests can
    /// submit, so this iterates flush rounds until the queues are empty
    /// — or a round makes no progress (a still-faulted slot: its
    /// requests stay safely queued for after the repair).
    pub fn flush_all(&mut self) -> Result<Vec<FrontendEvent>, FrontendError> {
        let mut events = self.pump_inner(true)?;
        loop {
            let queued = self.queued_requests();
            if queued == 0 {
                break;
            }
            let round = self.pump_inner(true)?;
            let stalled = self.queued_requests() == queued && round.is_empty();
            events.extend(round);
            if stalled {
                break;
            }
        }
        Ok(events)
    }

    /// One pump: its events go into the driver's event buffer and come
    /// back as one exactly-sized `Vec` — the pump's only allocation in
    /// steady state, and none when there are no events. On `Err` the
    /// events gathered so far are dropped.
    fn pump_inner(&mut self, force: bool) -> Result<Vec<FrontendEvent>, FrontendError> {
        let mut events = std::mem::take(&mut self.buffers.events);
        let pumped = self.pump_into(force, &mut events).map(|()| {
            // moved, not taken: the buffer keeps its capacity
            let mut out = Vec::with_capacity(events.len());
            out.append(&mut events);
            out
        });
        events.clear();
        self.buffers.events = events;
        pumped
    }

    fn pump_into(
        &mut self,
        force: bool,
        events: &mut Vec<FrontendEvent>,
    ) -> Result<(), FrontendError> {
        let now = self.now();
        let lane_width = self.svc.lane_width();
        // 1. expiry: a queued request whose deadline has passed is
        // removed with a typed event, never silently served late
        for stream in &mut self.streams {
            let mut i = 0;
            while i < stream.queue.len() {
                let overdue = stream.queue[i].deadline.is_some_and(|d| d < now);
                if overdue {
                    let req = stream.dequeue(i);
                    stream.usage.expired += 1;
                    self.metrics.expired.inc();
                    let deadline = req.deadline.expect("overdue implies a deadline");
                    // ticket-keyed: an expired request never earned a
                    // service RequestId, the ticket is all it ever had
                    self.svc.telemetry_mut().span_at(
                        SpanKind::Expired,
                        ticket_key(req.ticket.value()),
                        now,
                        (now - deadline) as i64,
                    );
                    events.push(FrontendEvent::Expired {
                        ticket: req.ticket,
                        tenant: stream.tenant,
                        deadline,
                        now,
                    });
                } else {
                    i += 1;
                }
            }
        }
        // 2. flush decision + submission, stream registration order
        for idx in 0..self.streams.len() {
            let stream = &self.streams[idx];
            let width = stream.batch_width(lane_width);
            let full = stream.queue.len() >= width;
            let due = force
                || full
                || match stream.policy.class {
                    QosClass::Throughput => false,
                    QosClass::LatencySensitive => stream.queue.front().is_some_and(|head| {
                        head.deadline.is_none_or(|d| {
                            let missing = (width - stream.queue.len()) as u64;
                            d <= now.saturating_add(stream.predicted_fill_wait(missing))
                        })
                    }),
                };
            if !due {
                continue;
            }
            // flow-control window: never hold more than one queue's worth
            // of a stream's requests inside the service. A faulted slot
            // stops resolving, so without this cap its service-side batch
            // would grow until the lane budget itself refused
            // (`SlotBacklogged`) — a limit that depends on the configured
            // lane width. Capping at the stream's own capacity propagates
            // the stall upstream as front-end backpressure instead,
            // identically at every lane width.
            let window = stream.policy.capacity.saturating_sub(stream.inflight.len());
            // hand over at most one batch per pump (force hands over all)
            let handover = if force {
                self.streams[idx].queue.len().min(window)
            } else {
                width.min(self.streams[idx].queue.len()).min(window)
            };
            for _ in 0..handover {
                let stream = &mut self.streams[idx];
                let head = stream.queue.front().expect("handover bounded by len");
                let submitted = match &head.payload {
                    Payload::Row(slot) => {
                        self.svc.submit_row(stream.tenant, stream.rows.row(*slot))
                    }
                    Payload::Names(names) => {
                        let refs: Vec<(&str, bool)> =
                            names.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                        self.svc.submit(stream.tenant, &refs)
                    }
                };
                match submitted {
                    Ok(request) => {
                        let req = stream.dequeue(0);
                        // now the ticket has a RequestId, backfill its
                        // admission hop at the cycle it actually arrived
                        // (detail: deadline slack at admission, -1 = none)
                        let slack = req.deadline.map_or(-1, |d| (d - req.arrived) as i64);
                        let telemetry = self.svc.telemetry_mut();
                        telemetry.span_at(SpanKind::Admitted, request.value(), req.arrived, slack);
                        telemetry.span_at(
                            SpanKind::Flushed,
                            request.value(),
                            now,
                            (now - req.arrived) as i64,
                        );
                        stream.inflight.push_back(Inflight {
                            request,
                            ticket: req.ticket,
                            arrived: req.arrived,
                            flushed: now,
                        });
                    }
                    // a poisoned slot's backlog clears after repair —
                    // keep the rest queued and retry on a later pump
                    Err(ServiceError::SlotBacklogged { .. }) => break,
                    Err(error) => {
                        let req = stream.dequeue(0);
                        stream.usage.failed += 1;
                        self.metrics.failed.inc();
                        self.svc.telemetry_mut().span_at(
                            SpanKind::Fault,
                            ticket_key(req.ticket.value()),
                            now,
                            stream.tenant.index() as i64,
                        );
                        events.push(FrontendEvent::Failed {
                            ticket: req.ticket,
                            tenant: stream.tenant,
                            error,
                        });
                    }
                }
            }
        }
        // 3. execute: every stream with in-flight work is flushed — the
        // just-submitted batches, plus faulted slots being retried. A
        // stream whose tenant was retired underneath the front end (a
        // cross-node move retires the source) will never see its
        // in-flight requests answered: they fail here instead, and the
        // stream stays out of the flush.
        let mut flush_list = std::mem::take(&mut self.buffers.flush_list);
        flush_list.clear();
        for stream in &mut self.streams {
            if stream.inflight.is_empty() {
                continue;
            }
            if self.svc.registry().tenant(stream.tenant).is_ok() {
                flush_list.push(stream.tenant);
                continue;
            }
            for meta in stream.inflight.drain(..) {
                stream.usage.failed += 1;
                self.metrics.failed.inc();
                self.svc.telemetry_mut().span_at(
                    SpanKind::Fault,
                    meta.request.value(),
                    now,
                    stream.tenant.index() as i64,
                );
                events.push(FrontendEvent::Failed {
                    ticket: meta.ticket,
                    tenant: stream.tenant,
                    error: ServiceError::UnknownTenant(stream.tenant.index()),
                });
            }
        }
        if flush_list.is_empty() && !(force && self.svc.pending_requests() > 0) {
            self.buffers.flush_list = flush_list;
            self.metrics.inflight.set(self.inflight_requests() as i64);
            return Ok(());
        }
        // force drains the whole service, not just the streams' slots
        let mut responses = std::mem::take(&mut self.buffers.responses);
        let flushed = self
            .svc
            .flush_into((!force).then_some(&flush_list[..]), &mut responses);
        self.buffers.flush_list = flush_list;
        if let Err(e) = flushed {
            self.buffers.responses = responses;
            return Err(e.into());
        }
        for response in responses.drain(..) {
            match self.take_inflight(&response) {
                Some(meta) => {
                    self.metrics.completed.inc();
                    self.metrics.latency_cycles.observe(now - meta.arrived);
                    self.metrics
                        .queue_wait_cycles
                        .observe(meta.flushed - meta.arrived);
                    events.push(FrontendEvent::Completed {
                        ticket: meta.ticket,
                        request: response.request,
                        tenant: response.tenant,
                        outputs: response.outputs,
                        latency: now - meta.arrived,
                        flushed: meta.flushed,
                    });
                }
                None => events.push(FrontendEvent::PassThrough { response }),
            }
        }
        self.buffers.responses = responses;
        self.metrics.inflight.set(self.inflight_requests() as i64);
        Ok(())
    }

    /// Matches `response` to the in-flight request it answers, removing
    /// it and counting the completion on its stream; `None` for a
    /// response the front end never submitted. A stream's requests come
    /// back in the order it submitted them, so the match is its queue's
    /// front — unless the caller has submitted or discarded directly on
    /// the service, which the fallback search covers.
    fn take_inflight(&mut self, response: &Response) -> Option<Inflight> {
        let direct_access = self.direct_access;
        let stream = self
            .streams
            .iter_mut()
            .find(|s| s.tenant == response.tenant)?;
        let at = if stream
            .inflight
            .front()
            .is_some_and(|m| m.request == response.request)
        {
            0
        } else {
            debug_assert!(
                direct_access,
                "front-end-only traffic completes in submit order"
            );
            stream
                .inflight
                .iter()
                .position(|m| m.request == response.request)?
        };
        stream.usage.completed += 1;
        stream.inflight.remove(at)
    }

    /// Requests queued in front-end streams (admitted, not yet flushed).
    #[must_use]
    pub fn queued_requests(&self) -> usize {
        self.streams.iter().map(|s| s.queue.len()).sum()
    }

    /// Requests flushed into the service, awaiting responses.
    #[must_use]
    pub fn inflight_requests(&self) -> usize {
        self.streams.iter().map(|s| s.inflight.len()).sum()
    }

    /// Sets the wrapped service's lane width. Refused while any stream
    /// holds queued requests: a width change rebuilds every slot's lane
    /// batch in the service, and the front-end's flush decisions are sized
    /// by the width, so changing it mid-stream would silently reshape
    /// admitted work. (The service additionally refuses while *its own*
    /// queues hold requests.)
    pub fn set_lane_width(&mut self, width: usize) -> Result<(), FrontendError> {
        let queued = self.queued_requests();
        if queued > 0 {
            return Err(FrontendError::QueuesNotEmpty { queued });
        }
        Ok(self.svc.set_lane_width(width)?)
    }

    /// Removes and returns the service's per-slot execution faults (see
    /// [`ShardedService::take_faults`]). Faulted slots keep their
    /// requests queued in the service; the front-end retries them on
    /// every pump, so a [`ShardedService::repair_plane`] is all recovery
    /// takes.
    pub fn take_faults(&mut self) -> Vec<SlotFault> {
        self.svc.take_faults()
    }

    /// One stream's admission counters.
    pub fn frontend_usage(&self, tenant: TenantId) -> Result<FrontendUsage, FrontendError> {
        self.stream_index(tenant)
            .map(|i| self.streams[i].usage)
            .ok_or(FrontendError::NoStream(tenant))
    }

    /// Markdown admission/QoS billing table over every open stream, in
    /// registration order (see
    /// [`mcfpga_cost::attribution::render_frontend_billing`]).
    #[must_use]
    pub fn frontend_billing_report(&self) -> String {
        let rows: Vec<(String, FrontendUsage)> = self
            .streams
            .iter()
            .map(|s| {
                let name = self
                    .svc
                    .registry()
                    .tenant(s.tenant)
                    .map(|r| r.name.clone())
                    .unwrap_or_else(|_| s.tenant.to_string());
                (format!("{name} ({})", s.policy.class), s.usage)
            })
            .collect();
        render_frontend_billing(&rows)
    }

    fn stream_index(&self, tenant: TenantId) -> Option<usize> {
        self.streams.iter().position(|s| s.tenant == tenant)
    }
}

// The front-end rides inside `ShardedService`-carrying types that cross
// threads in benches; keep it structurally Send+Sync like the service.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrontendDriver>();
    assert_send_sync::<FrontendEvent>();
    assert_send_sync::<FrontendError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_device::TechParams;
    use mcfpga_fabric::netlist_ir::generators;
    use mcfpga_fabric::FabricParams;

    fn driver_with_stream(policy: StreamPolicy) -> (FrontendDriver, TenantId) {
        let svc = ShardedService::new(1, FabricParams::default(), TechParams::default()).unwrap();
        let mut fe = FrontendDriver::new(svc);
        let nl = generators::wire_lanes(1).unwrap();
        let t = fe.admit("ewma", &nl).unwrap();
        fe.open_stream(t, policy).unwrap();
        (fe, t)
    }

    /// A same-cycle burst legitimately drives the estimate toward 0; the
    /// next nonzero gap must *blend* into it (α = 1/8), not reset the
    /// estimator as the old `== 0` "unset" sentinel did.
    #[test]
    fn same_cycle_burst_then_gap_blends_instead_of_resetting() {
        let (mut fe, t) = driver_with_stream(StreamPolicy::throughput(64));
        fe.advance(100);
        // arrivals at the same cycle: gaps of 0 pull the EWMA to exactly 0
        for _ in 0..40 {
            fe.offer(t, &[("in0", true)], None).unwrap();
        }
        assert_eq!(fe.streams[0].gap_ewma_q8, Some(0), "burst estimate is 0");
        // a 800-cycle gap after the burst: blended, not adopted wholesale
        fe.advance(800);
        fe.offer(t, &[("in0", true)], None).unwrap();
        let q8 = fe.streams[0].gap_ewma_q8.unwrap();
        assert_eq!(q8, (800 * 256) / 8, "one blend step from 0, not a reset");
        assert!(q8 < 800 * 256, "estimate must stay below the raw gap");
    }

    /// Before two arrivals the estimator is explicitly unset and
    /// deadline-holding streams treat the fill wait as "forever".
    #[test]
    fn estimator_unset_until_second_arrival() {
        let (mut fe, t) = driver_with_stream(StreamPolicy::throughput(64));
        assert_eq!(fe.streams[0].gap_ewma_q8, None);
        assert_eq!(fe.streams[0].predicted_fill_wait(3), u64::MAX / 2);
        fe.offer(t, &[("in0", true)], None).unwrap();
        assert_eq!(fe.streams[0].gap_ewma_q8, None, "one arrival: still unset");
        fe.advance(16);
        fe.offer(t, &[("in0", true)], None).unwrap();
        assert_eq!(fe.streams[0].gap_ewma_q8, Some(16 * 256));
        assert_eq!(fe.streams[0].predicted_fill_wait(0), 0);
        assert_eq!(fe.streams[0].predicted_fill_wait(2), 32);
    }

    /// A virtual-clock jump beyond 2^56 cycles used to overflow the
    /// `<< 8` widening and wrap the estimate to a tiny value; it must
    /// saturate instead.
    #[test]
    fn huge_clock_jump_saturates_instead_of_wrapping() {
        let (mut fe, t) = driver_with_stream(StreamPolicy::throughput(64));
        fe.offer(t, &[("in0", true)], None).unwrap();
        fe.advance(u64::MAX / 2);
        fe.offer(t, &[("in0", true)], None).unwrap();
        let q8 = fe.streams[0].gap_ewma_q8.unwrap();
        assert!(
            q8 >= (u64::MAX / 2) / 8,
            "gap must saturate high, not wrap low (got {q8})"
        );
        // and the estimator keeps functioning afterwards
        fe.advance(10);
        fe.offer(t, &[("in0", true)], None).unwrap();
        assert!(fe.streams[0].gap_ewma_q8.unwrap() < q8 || q8 == u64::MAX);
    }

    /// End-to-end consequence of the burst bug: after a same-cycle burst,
    /// a latency-sensitive stream's flush decision uses the (near-zero)
    /// predicted fill wait — a generous future deadline holds the partial
    /// batch instead of flushing it immediately as the reset bug did.
    #[test]
    fn ls_stream_holds_partial_batch_after_burst() {
        let (mut fe, t) = driver_with_stream(StreamPolicy::latency_sensitive(64, 1_000_000));
        fe.advance(5);
        for _ in 0..8 {
            fe.offer(t, &[("in0", true)], None).unwrap();
        }
        assert_eq!(fe.streams[0].gap_ewma_q8, Some(0));
        // predicted fill wait ~0 and the deadline is far: nothing is due
        let events = fe.pump().unwrap();
        assert!(
            events.is_empty(),
            "burst-rate stream with a far deadline must wait for its batch"
        );
        assert_eq!(fe.streams[0].queue.len(), 8, "requests stay queued");
    }
}
