//! The sharded multi-tenant execution service — a thin coordinator over
//! per-shard engines.
//!
//! A [`ShardedService`] owns `N` independent [`ShardEngine`]s (same
//! geometry, same architecture) plus exactly the cross-shard state no
//! engine can own alone: the [`TenantRegistry`] (who lives where), the
//! digest-keyed [`PlaneCache`] (compiled planes are `Arc`-shared across
//! shards and re-admissions), the global [`RequestIdSource`] and
//! [`TenantIdSource`], the
//! placement/sweep-order policies, and the merged response/fault streams.
//! Everything execution-local — CSS sequencer and one record per context
//! slot (compiled plane, queued lanes, tenant usage and stream registers)
//! — lives in the engine of the shard hosting the tenant (see
//! [`crate::engine`]).
//!
//! [`drain`](ShardedService::drain) plans every busy shard's sweep
//! sequentially (one owned `PlannedStep` per active context), evaluates
//! the steps on the [`ParallelExecutor`]'s persistent fork-join pool (the
//! calling thread and its helpers claim steps from one shared cursor, so
//! a skewed placement spreads instead of serializing), and applies the
//! results back **in merge-key order** (shard, then sweep position, then
//! lane) — so responses, faults and billing are bit-for-bit identical to
//! sequential execution at any thread count; the thread count is a pure
//! throughput knob ([`set_threads`], or the `MCFPGA_THREADS` environment
//! variable at construction — see [`crate::executor`] for the env
//! contract). The lanes coalesced per pass are likewise a pure throughput
//! knob ([`set_lane_width`], up to 256).
//!
//! [`set_threads`]: ShardedService::set_threads
//! [`set_lane_width`]: ShardedService::set_lane_width

use crate::batch::{RequestId, RequestIdSource, Response};
use crate::engine::{eval_step, Occupant, PlannedStep, ShardEngine};
use crate::executor::{ExecutorConfig, ParallelExecutor};
use crate::placement::{best_slot, choose_energy_aware, netlist_fingerprint, PlacementPolicy};
use crate::registry::{Placement, PlaneCache, TenantId, TenantIdSource, TenantRegistry};
use crate::ServiceError;
use mcfpga_cost::attribution::{bill, render_billing, TenantBill, TenantUsage};
use mcfpga_css::optimize::{sweep_cost, CostMatrix, OptimizeMode};
use mcfpga_device::TechParams;
use mcfpga_fabric::compiled::{EvalStats, LaneBatch, MAX_LANES};
use mcfpga_fabric::route::implement_netlist_robust;
use mcfpga_fabric::{
    CompiledFabric, Fabric, FabricError, FabricParams, LogicNetlist, RegisterFile, TileCoord,
};
use mcfpga_migrate::{MigrateError, PendingBatch, TenantCheckpoint};
use mcfpga_telemetry::{
    tenant_key, Counter, Gauge, Histogram, MetricClass, SpanEvent, SpanKind, Telemetry,
    ACTIVE_TENANTS_METRIC, QUEUE_DEPTH_METRIC,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Routing seed per context slot: admission is deterministic per slot, so
/// identical netlists admitted into same-index slots route identically and
/// share one cached compiled plane.
const SLOT_SEED: u64 = 0x5EED_0000;

/// One evaluated sweep step on its way to apply.
type Evaluated = (PlannedStep, Result<EvalStats, ServiceError>);

/// `ckpt.usage` with one more move billed: the checkpoint's bytes, one
/// downtime cycle plus one per pending lane, and `realign` toggles. The
/// counters come from checkpoint bytes, so a sum that would overflow is
/// refused as corrupt, before the caller commits anything.
fn bill_migration(ckpt: &TenantCheckpoint, realign: usize) -> Result<TenantUsage, ServiceError> {
    fn billed(ckpt: &TenantCheckpoint, realign: usize) -> Option<TenantUsage> {
        let u = ckpt.usage;
        Some(TenantUsage {
            migrations: u.migrations.checked_add(1)?,
            migration_bytes: u.migration_bytes.checked_add(ckpt.encoded_len())?,
            migration_downtime_cycles: u
                .migration_downtime_cycles
                .checked_add(ckpt.pending.lanes.checked_add(1)?)?,
            migration_css_toggles: u.migration_css_toggles.checked_add(realign)?,
            ..u
        })
    }
    billed(ckpt, realign).ok_or_else(|| {
        MigrateError::Corrupt("billing the move overflows a usage migration counter".into()).into()
    })
}

/// Whole microseconds from `start` to `end`, as the wall-clock phase
/// histograms record them.
fn micros_between(start: Instant, end: Instant) -> u64 {
    end.duration_since(start).as_micros() as u64
}

/// Routing retry budget per admission.
const ROUTE_ATTEMPTS: usize = 16;

/// One slot's failed execution pass, recorded during a flush.
///
/// The slot's requests remain queued when this is raised; see
/// [`ShardedService::take_faults`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlotFault {
    /// The tenant whose batch failed.
    pub tenant: TenantId,
    /// Shard of the failing slot.
    pub shard: usize,
    /// Context of the failing slot.
    pub ctx: usize,
    /// What went wrong (typically a corrupted plane's unresolved output).
    pub error: ServiceError,
}

/// The service's telemetry handles. Deterministic class throughout
/// except the phase-timing histograms: every counter here is bumped on
/// the coordinating thread during the sequential plan/apply phases (or
/// in `submit`/`discard`, which are caller-sequenced), so the values are
/// bit-identical at any executor width and lane width.
#[derive(Debug, Clone)]
struct ServiceMetrics {
    /// Requests accepted by `submit`, sharded per shard.
    requests_submitted: Counter,
    /// Responses demuxed, sharded per shard.
    responses_total: Counter,
    /// Sweep steps applied, sharded per shard.
    steps_applied: Counter,
    /// Slot faults recorded.
    faults_total: Counter,
    /// Drain/flush pipeline runs.
    drains_total: Counter,
    /// Queued requests dropped by `discard_pending`.
    requests_discarded: Counter,
    /// Tenant moves (live migrations in, plus checkpoint restores).
    migrations: Counter,
    /// CSS broadcast toggles charged at plan time.
    css_toggles: Counter,
    /// Compiled ops in every applied pass's program — the denominator
    /// of the dirty-cone skip rate.
    fabric_ops_total: Counter,
    /// Ops skipped by dirty-cone incremental sweeps (clean input cone,
    /// cached chunks reused) — observationally equivalent to running.
    fabric_ops_skipped: Counter,
    /// Applied passes, every one run by the straight-line kernel: the
    /// numerator of perfbench's `fabric.kernel_pass_pct`.
    fabric_kernel_evals: Counter,
    /// Requests parked in lane batches right now.
    queue_depth: Gauge,
    /// Admitted, non-retired tenants.
    active_tenants: Gauge,
    /// Lanes served per applied step (log2 buckets).
    batch_lanes: Histogram,
    /// Wall-clock microseconds of the sequential plan phase.
    plan_us: Histogram,
    /// Wall-clock microseconds of the (possibly pooled) eval phase.
    eval_us: Histogram,
    /// Wall-clock microseconds of the sequential apply phase.
    apply_us: Histogram,
}

impl ServiceMetrics {
    fn register(telemetry: &Telemetry, shards: usize) -> Self {
        let r = telemetry.registry();
        let det = MetricClass::Deterministic;
        let wall = MetricClass::WallClock;
        ServiceMetrics {
            requests_submitted: r.counter_sharded("service_requests_submitted", det, shards),
            responses_total: r.counter_sharded("service_responses_total", det, shards),
            steps_applied: r.counter_sharded("service_steps_applied", det, shards),
            faults_total: r.counter("service_faults_total", det),
            drains_total: r.counter("service_drains_total", det),
            requests_discarded: r.counter("service_requests_discarded", det),
            migrations: r.counter("service_migrations", det),
            css_toggles: r.counter("service_css_toggles", det),
            fabric_ops_total: r.counter("fabric_ops_total", det),
            fabric_ops_skipped: r.counter("fabric_ops_skipped", det),
            fabric_kernel_evals: r.counter("fabric_kernel_evals", det),
            queue_depth: r.gauge(QUEUE_DEPTH_METRIC, det),
            active_tenants: r.gauge(ACTIVE_TENANTS_METRIC, det),
            batch_lanes: r.histogram("service_batch_lanes", det),
            plan_us: r.histogram("service_plan_us", wall),
            eval_us: r.histogram("service_eval_us", wall),
            apply_us: r.histogram("service_apply_us", wall),
        }
    }
}

/// A multi-tenant batched execution runtime over `N` fabric shards.
///
/// See the [crate docs](crate) for the end-to-end picture and a runnable
/// example.
#[derive(Debug)]
pub struct ShardedService {
    params: FabricParams,
    tech: TechParams,
    registry: TenantRegistry,
    cache: PlaneCache,
    engines: Vec<ShardEngine>,
    executor: ParallelExecutor,
    /// The single service-global request-id counter (engines borrow it).
    ids: RequestIdSource,
    /// The tenant-id counter [`admit`](Self::admit) and the restores
    /// mint from.
    tenants: TenantIdSource,
    /// Merged responses, shard-then-lane order per flush.
    ready: Vec<Response>,
    /// Merged fault records, shard order per flush, oldest first.
    faults: Vec<SlotFault>,
    /// Sweep-ordering policy (see [`mcfpga_css::optimize`]).
    optimize: OptimizeMode,
    /// Admission slot-assignment policy.
    placement: PlacementPolicy,
    /// The arch's pairwise transition-toggle matrix — shared by the sweep
    /// optimizer, the baseline accounting and energy-aware placement.
    matrix: CostMatrix,
    /// Netlist fingerprint → context index of its first admission: the
    /// plane-cache affinity hint energy-aware placement tie-breaks on.
    affinity: HashMap<u64, usize>,
    /// The service's observability surface: metric registry, span ring
    /// and virtual-clock cell (fed by whatever driver owns the clock).
    telemetry: Telemetry,
    /// Handles into `telemetry`'s registry — see [`ServiceMetrics`].
    metrics: ServiceMetrics,
    /// Reused flush buffers — see [`FlushBuffers`].
    buffers: FlushBuffers,
}

/// The working memory of one flush, kept between flushes: once each has
/// grown to the service's busiest flush, a flush at executor width 1
/// allocates nothing. (A pooled eval hands its steps to the executor,
/// which returns a fresh results `Vec`.) Empty between flushes.
#[derive(Debug, Default)]
struct FlushBuffers {
    /// Per shard, the contexts to flush.
    work: Vec<Vec<usize>>,
    /// The planned steps, in merge-key order.
    steps: Vec<PlannedStep>,
    /// The evaluated steps, in merge-key order.
    evaluated: Vec<Evaluated>,
    /// Per shard, the first structural error of the flush.
    errors: Vec<Option<ServiceError>>,
}

impl ShardedService {
    /// A service of `shards` fabrics, each shaped by `params`, with energy
    /// accounted under `tech`. Capacity is `shards × params.contexts`
    /// tenants. Sweeps are toggle-optimized ([`OptimizeMode::Optimized`] —
    /// output-equivalent to the naive order, never more energy) and
    /// admission is round-robin; see
    /// [`with_policies`](Self::with_policies) for the full policy surface.
    pub fn new(
        shards: usize,
        params: FabricParams,
        tech: TechParams,
    ) -> Result<Self, ServiceError> {
        Self::with_policies(
            shards,
            params,
            tech,
            OptimizeMode::Optimized,
            PlacementPolicy::RoundRobin,
        )
    }

    /// A service with explicit sweep-ordering and placement policies. The
    /// executor width comes from `MCFPGA_THREADS` (falling back to the
    /// machine's available parallelism); it never changes results, only
    /// wall-clock — see [`set_threads`](Self::set_threads).
    pub fn with_policies(
        shards: usize,
        params: FabricParams,
        tech: TechParams,
        optimize: OptimizeMode,
        placement: PlacementPolicy,
    ) -> Result<Self, ServiceError> {
        let registry = TenantRegistry::new(shards, params.contexts)?;
        let mut engines = Vec::with_capacity(shards);
        for shard in 0..shards {
            engines.push(ShardEngine::new(shard, params, MAX_LANES)?);
        }
        let matrix = engines[0].sequencer().cost_matrix();
        let telemetry = Telemetry::new();
        let metrics = ServiceMetrics::register(&telemetry, shards);
        let executor = ParallelExecutor::from_env_on(telemetry.registry());
        Ok(ShardedService {
            params,
            tech,
            registry,
            cache: PlaneCache::new(),
            engines,
            executor,
            ids: RequestIdSource::new(),
            tenants: TenantIdSource::new(),
            ready: Vec::new(),
            faults: Vec::new(),
            optimize,
            placement,
            matrix,
            affinity: HashMap::new(),
            telemetry,
            metrics,
            buffers: FlushBuffers::default(),
        })
    }

    /// A new, empty service configured like this one — what a node
    /// restart brings up. Keeps the shard count, geometry, technology,
    /// lane width, sweep-ordering and placement policies, span-ring
    /// capacity and executor width; everything else (tenants, plane
    /// cache, request and tenant ids, metrics, spans) starts fresh.
    /// Cheap: no shard builds its routed fabric until an admission routes
    /// into it.
    pub fn fresh_like(&self) -> Result<Self, ServiceError> {
        let mut svc = Self::with_policies(
            self.engines.len(),
            self.params,
            self.tech.clone(),
            self.optimize,
            self.placement,
        )?;
        svc.set_lane_width(self.lane_width())?;
        let capacity = self.telemetry.trace_buffer().capacity();
        svc.telemetry.trace_buffer().set_capacity(capacity);
        svc.executor = self.executor.clone_on(svc.telemetry.registry());
        Ok(svc)
    }

    /// The active sweep-ordering policy.
    #[must_use]
    pub fn optimize_mode(&self) -> OptimizeMode {
        self.optimize
    }

    /// Switches the sweep-ordering policy. Takes effect on the next flush;
    /// already-queued requests are unaffected (any order is
    /// output-equivalent).
    pub fn set_optimize_mode(&mut self, mode: OptimizeMode) {
        self.optimize = mode;
    }

    /// The active placement policy.
    #[must_use]
    pub fn placement_policy(&self) -> PlacementPolicy {
        self.placement
    }

    /// Switches the placement policy for *future* admissions; existing
    /// tenants keep their slots.
    pub fn set_placement_policy(&mut self, policy: PlacementPolicy) {
        self.placement = policy;
    }

    /// Worker threads the next [`drain`](Self::drain) fans out across.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// Sets the drain fan-out width. **Never changes output**: responses,
    /// faults and billing are applied in merge-key order whatever the
    /// width — `set_threads(1)` *is* the sequential execution, not an
    /// approximation of it. The previous executor's helper threads (if
    /// they had spawned) are joined here; the new helpers spawn lazily on
    /// the next parallel drain.
    pub fn set_threads(&mut self, threads: usize) {
        // re-registers the `executor_*` metrics on this service's
        // registry, zeroing them — a new pool starts a new accounting era
        self.executor = ParallelExecutor::new_on(threads, self.telemetry.registry());
    }

    /// The executor's resolved width and its provenance (env variable,
    /// machine parallelism, or explicit) — including the rejected raw
    /// value when `MCFPGA_THREADS` was set but invalid.
    #[must_use]
    pub fn executor_config(&self) -> &ExecutorConfig {
        self.executor.config()
    }

    /// The service's telemetry surface: its metric registry (service
    /// counters/gauges/histograms plus the executor's `executor_*`
    /// accounting), its span ring buffer, and the virtual-clock cell the
    /// owning driver stamps spans with. Metric handles are cheap to
    /// clone out of it; only the service and its front end record
    /// spans, through `&mut`.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The service's telemetry, for an owning driver (the front end) to
    /// record its own spans into the service's ring.
    pub(crate) fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Reconstructs one request's recorded lifecycle — queued → planned
    /// → evaluated → applied → demuxed (plus migration hops) — in
    /// canonical timeline order. Empty when the request's spans have
    /// aged out of the ring buffer (see the `trace_dropped` metric).
    #[must_use]
    pub fn trace(&self, request: RequestId) -> Vec<SpanEvent> {
        self.telemetry.trace(request.value())
    }

    /// Lanes coalesced per slot per pass (the auto-flush threshold),
    /// the same on every shard. Default [`MAX_LANES`].
    #[must_use]
    pub fn lane_width(&self) -> usize {
        self.engines[0].lane_width()
    }

    /// Sets how many requests one evaluation pass serves per slot
    /// (`1..=MAX_LANES`). **Never changes output** — a narrower width
    /// just flushes more often — but it may only change while no request
    /// is pending: every slot's batch is rebuilt at the new width, which
    /// would silently drop queued lanes. Drain or discard first.
    pub fn set_lane_width(&mut self, width: usize) -> Result<(), ServiceError> {
        if width == 0 || width > MAX_LANES {
            return Err(ServiceError::BadConfig(format!(
                "lane width {width} outside 1..={MAX_LANES}"
            )));
        }
        if self.pending_requests() > 0 {
            return Err(ServiceError::BadConfig(
                "cannot change lane width while requests are pending; drain or discard first"
                    .into(),
            ));
        }
        for engine in &mut self.engines {
            engine.set_lane_width(width)?;
        }
        Ok(())
    }

    /// Admits a tenant: assigns a `(shard, context)` slot under the active
    /// [`PlacementPolicy`], routes `netlist` into it, then reuses a cached
    /// compiled plane when the routed configuration's digest has been seen
    /// before (re-admitting an identical bitstream never recompiles).
    pub fn admit(&mut self, name: &str, netlist: &LogicNetlist) -> Result<TenantId, ServiceError> {
        let fingerprint = netlist_fingerprint(netlist);
        let placement = match self.placement {
            PlacementPolicy::RoundRobin => self.registry.reserve()?,
            PlacementPolicy::EnergyAware => choose_energy_aware(
                &self.registry,
                &self.matrix,
                self.affinity.get(&fingerprint).copied(),
            )?,
        };
        let mut tenants = std::mem::take(&mut self.tenants);
        let admitted = self.admit_into(&mut tenants, name, netlist, placement, fingerprint);
        self.tenants = tenants;
        admitted
    }

    /// [`admit`](Self::admit) into an **exact** free slot, bypassing the
    /// placement policy, minting the tenant's id from `ids` instead of
    /// this service's own source — the cluster router's admission
    /// primitive (it probes shards across *nodes*, something no single
    /// service can do, then pins the slot here, and lends its one source
    /// to every node so a tenant's id is the same at the cluster and at
    /// every node it moves to). Routing, compilation, plane caching and
    /// registry commit are identical to a policy admission, so a pinned
    /// admission is bit-for-bit equivalent to a policy admission that
    /// happened to choose the same slot. Refused with
    /// [`ServiceError::BadConfig`] when the minted id is already live
    /// here (a service that also admitted from its own source).
    pub fn admit_placed(
        &mut self,
        ids: &mut TenantIdSource,
        name: &str,
        netlist: &LogicNetlist,
        placement: Placement,
    ) -> Result<TenantId, ServiceError> {
        self.check_shard(placement.shard)?;
        self.check_free(placement)?;
        self.admit_into(ids, name, netlist, placement, netlist_fingerprint(netlist))
    }

    /// Refuses a slot whose context is out of range or that is occupied.
    fn check_free(&self, slot: Placement) -> Result<(), ServiceError> {
        if slot.ctx >= self.params.contexts {
            return Err(ServiceError::BadConfig(format!(
                "context {} outside 0..{}",
                slot.ctx, self.params.contexts
            )));
        }
        if self.registry.occupant(slot.shard, slot.ctx).is_some() {
            return Err(ServiceError::BadConfig(format!(
                "slot (shard {}, ctx {}) is occupied",
                slot.shard, slot.ctx
            )));
        }
        Ok(())
    }

    /// Routes `netlist` (structural `fingerprint`) into the free slot
    /// `placement` and commits it under an id minted from `ids`. The
    /// slot's context is cleared first: a departed tenant's or a failed
    /// admission's routing stays in its context until the next admission
    /// there.
    fn admit_into(
        &mut self,
        ids: &mut TenantIdSource,
        name: &str,
        netlist: &LogicNetlist,
        placement: Placement,
        fingerprint: u64,
    ) -> Result<TenantId, ServiceError> {
        let engine = &mut self.engines[placement.shard];
        let fabric = engine.fabric_mut();
        fabric.clear_context(placement.ctx)?;
        implement_netlist_robust(
            fabric,
            netlist,
            placement.ctx,
            SLOT_SEED + placement.ctx as u64,
            ROUTE_ATTEMPTS,
        )?;
        let digest = engine.fabric().context_digest(placement.ctx)?;
        let plane = self.cache.get_or_compile(digest, || {
            CompiledFabric::compile_context(engine.fabric(), placement.ctx)
        })?;
        let batch = LaneBatch::with_width(engine.lane_width(), Arc::clone(&plane.columns))?;
        let id = ids.mint();
        self.registry.commit(id, name, placement, digest)?;
        self.affinity.entry(fingerprint).or_insert(placement.ctx);
        engine.adopt(placement.ctx, &plane, Occupant::new(id, batch))?;
        self.sync_gauges();
        Ok(id)
    }

    /// Submits one single-vector request for `tenant`. The request parks
    /// in its slot's lane batch; when the last of the slot's
    /// [`lane_width`](Self::lane_width) lanes fills, the slot executes
    /// immediately (on the caller's thread — a lane-full flush concerns
    /// one slot, so there is nothing to fan out) and its responses become
    /// available on the next [`drain`](Self::drain).
    ///
    /// Every one of the tenant's input columns — the non-register inputs
    /// its plane binds — must be driven, [`ServiceError::MissingInput`]
    /// naming the first undriven one otherwise. Any other name is
    /// ignored, and that includes stream registers (`reg:*`): they are
    /// fed only from the tenant's [`register_file`](Self::register_file),
    /// so one lane cannot overwrite its siblings' stream state. (The
    /// check rides the enqueue's own name scan — see
    /// [`LaneBatch::push`](mcfpga_fabric::compiled::LaneBatch::push) — so
    /// it costs no extra string comparisons.)
    ///
    /// If the lane-full auto-flush's pass fails, the request (and the rest
    /// of its batch) stays queued and a [`SlotFault`] is recorded; recover
    /// with a corrected retry of [`drain`](Self::drain) or
    /// [`discard_pending`](Self::discard_pending).
    pub fn submit(
        &mut self,
        tenant: TenantId,
        inputs: &[(&str, bool)],
    ) -> Result<RequestId, ServiceError> {
        let mut ids = std::mem::take(&mut self.ids);
        let submitted = self.submit_from(&mut ids, tenant, inputs);
        self.ids = ids;
        submitted
    }

    /// [`submit`](Self::submit) minting the request's id from `ids`
    /// instead of this service's own source: a cluster lends its one
    /// source to every node, so a request's id is the same at the cluster
    /// and at every node it visits.
    pub fn submit_from(
        &mut self,
        ids: &mut RequestIdSource,
        tenant: TenantId,
        inputs: &[(&str, bool)],
    ) -> Result<RequestId, ServiceError> {
        let placement = self.registry.tenant(tenant)?.placement;
        let (id, full) =
            self.engines[placement.shard].submit(placement.ctx, tenant, inputs, ids)?;
        self.enqueued(placement, id, full)
    }

    /// [`submit`](Self::submit) for a request already resolved into an
    /// input row over the tenant's
    /// [`input_columns`](Self::input_columns)
    /// ([`mcfpga_fabric::compiled::resolve_row`]): no names are compared.
    /// Refused only as [`ServiceError::UnknownTenant`] or
    /// [`ServiceError::SlotBacklogged`] — a row drives every column.
    pub(crate) fn submit_row(
        &mut self,
        tenant: TenantId,
        row: &[u64],
    ) -> Result<RequestId, ServiceError> {
        let placement = self.registry.tenant(tenant)?.placement;
        let (id, full) =
            self.engines[placement.shard].submit_row(placement.ctx, tenant, row, &mut self.ids)?;
        self.enqueued(placement, id, full)
    }

    /// The input columns `tenant`'s requests drive, in the order an input
    /// row lays them out. Fixed for the tenant's lifetime: migration keeps
    /// them, and a restore mints a new tenant.
    pub(crate) fn input_columns(&self, tenant: TenantId) -> Result<Arc<[Arc<str>]>, ServiceError> {
        let placement = self.registry.tenant(tenant)?.placement;
        let occupant = self.engines[placement.shard].occupant(placement.ctx, tenant)?;
        Ok(Arc::clone(occupant.batch.columns()))
    }

    /// The shared tail of [`submit`](Self::submit) and
    /// [`submit_row`](Self::submit_row) once the engine has queued
    /// request `id`: metrics, the `Queued` span, and the lane-full
    /// auto-flush.
    fn enqueued(
        &mut self,
        placement: Placement,
        id: RequestId,
        full: bool,
    ) -> Result<RequestId, ServiceError> {
        self.metrics.requests_submitted.add_to(placement.shard, 1);
        self.metrics.queue_depth.add(1);
        let queued = self.engines[placement.shard].requests(placement.ctx).len();
        self.telemetry
            .span(SpanKind::Queued, id.value(), queued as i64);
        if full {
            self.run_engine(placement.shard, &[placement.ctx])?;
        }
        Ok(id)
    }

    /// Discards `tenant`'s queued, not-yet-executed requests, returning how
    /// many were dropped. The escape hatch for a poisoned batch (one whose
    /// flush keeps faulting); discarded requests never receive responses
    /// and are removed from the tenant's usage counters, so
    /// `vectors_per_pass` keeps reflecting requests actually served.
    pub fn discard_pending(&mut self, tenant: TenantId) -> Result<usize, ServiceError> {
        let placement = self.registry.tenant(tenant)?.placement;
        let dropped = self.engines[placement.shard].discard_pending(placement.ctx, tenant)?;
        self.metrics.requests_discarded.add(dropped as u64);
        self.sync_gauges();
        Ok(dropped)
    }

    /// Flushes every slot with pending work and returns all completed
    /// responses, including those from earlier lane-full auto-flushes.
    /// Each shard sweeps only its *active* contexts
    /// ([`mcfpga_css::Schedule::active_sweep`]), so idle tenants cost no
    /// broadcast toggles. Three phases:
    ///
    /// 1. **Plan** (sequential): every busy shard's CSS schedule is
    ///    stepped through and each active slot becomes one owned
    ///    `PlannedStep` tagged with its `(shard, sweep-position)` merge
    ///    key — switch toggles are charged here.
    /// 2. **Eval** (parallel): the steps — per-*context* tasks, not
    ///    per-shard chunks — go to the executor's persistent fork-join
    ///    pool, where the calling thread and the helpers claim them from
    ///    one shared cursor; a shard holding every tenant still spreads
    ///    across all workers. Evaluation is pure, so execution order is
    ///    free.
    /// 3. **Apply** (sequential, merge-key order): step `i`'s result
    ///    comes back in slot `i`, so responses, faults and billing land in
    ///    shard-then-sweep-position-then-lane order — bit-for-bit
    ///    identical at any thread count and any lane width.
    ///
    /// A slot whose pass fails (e.g. its plane is corrupted) never blocks
    /// the others: its requests stay queued, a [`SlotFault`] is recorded
    /// (see [`take_faults`](Self::take_faults)), and the sweep continues —
    /// one tenant's faulted slot cannot withhold other tenants' responses.
    pub fn drain(&mut self) -> Result<Vec<Response>, ServiceError> {
        self.flush(None)?;
        Ok(std::mem::take(&mut self.ready))
    }

    /// Flushes **only** the listed tenants' slots (those with pending
    /// work), leaving every other tenant's partial batch accumulating —
    /// the partial-width flush entry point the QoS front-end
    /// ([`crate::frontend`]) uses to serve a latency-sensitive tenant
    /// before its deadline without forcing throughput tenants out of
    /// their lane-filling wait. Same three-phase plan → pooled eval →
    /// merge-key-ordered apply pipeline as [`drain`](Self::drain) (a
    /// multi-slot flush still fans out across the executor's worker
    /// pool), so the returned responses — including any buffered from
    /// earlier lane-full auto-flushes — are bit-for-bit identical at any
    /// thread count. Duplicate tenants in `tenants` flush once; tenants
    /// with nothing queued cost nothing.
    pub fn flush_tenants(&mut self, tenants: &[TenantId]) -> Result<Vec<Response>, ServiceError> {
        self.flush(Some(tenants))?;
        Ok(std::mem::take(&mut self.ready))
    }

    /// [`flush_tenants`](Self::flush_tenants) (`Some(tenants)`) or
    /// [`drain`](Self::drain) (`None`) appending the responses to `out`
    /// instead of returning them: the front end's path, which keeps one
    /// response buffer across pumps, so a steady-state flush at executor
    /// width 1 allocates nothing. On `Err` the responses stay buffered
    /// for the next call, exactly as with the public pair.
    pub(crate) fn flush_into(
        &mut self,
        tenants: Option<&[TenantId]>,
        out: &mut Vec<Response>,
    ) -> Result<(), ServiceError> {
        self.flush(tenants)?;
        out.append(&mut self.ready);
        Ok(())
    }

    /// Lists the slots to flush — the listed tenants' busy slots, or
    /// every busy slot — and runs them through
    /// [`drain_slots`](Self::drain_slots), leaving the responses in
    /// `ready`. A listed tenant that does not resolve fails the flush
    /// before anything runs.
    fn flush(&mut self, tenants: Option<&[TenantId]>) -> Result<(), ServiceError> {
        let mut work = std::mem::take(&mut self.buffers.work);
        work.resize_with(self.engines.len(), Vec::new);
        let listed = match tenants {
            Some(tenants) => self.list_tenants(tenants, &mut work),
            None => {
                self.list_active(&mut work);
                Ok(())
            }
        };
        let result = listed.and_then(|()| self.drain_slots(&work));
        for shard in &mut work {
            shard.clear();
        }
        self.buffers.work = work;
        result
    }

    /// Fills `work` with every slot holding pending work, per shard in
    /// ascending context order.
    fn list_active(&self, work: &mut [Vec<usize>]) {
        for (engine, slots) in self.engines.iter().zip(work) {
            slots.extend(engine.busy());
        }
    }

    /// Fills `work` with the listed tenants' busy slots, once each, per
    /// shard in ascending context order — exactly as
    /// [`list_active`](Self::list_active) would list them.
    fn list_tenants(
        &self,
        tenants: &[TenantId],
        work: &mut [Vec<usize>],
    ) -> Result<(), ServiceError> {
        for &tenant in tenants {
            let Placement { shard, ctx } = self.registry.tenant(tenant)?.placement;
            let slots = &mut work[shard];
            if self.engines[shard].pending_batch(ctx).is_some() && !slots.contains(&ctx) {
                slots.push(ctx);
            }
        }
        for slots in work {
            slots.sort_unstable();
        }
        Ok(())
    }

    /// The shared body of every flush: plans each shard's sweep over its
    /// `work` slots, evaluates on the pool, applies in merge-key order,
    /// and leaves every response in `ready`.
    fn drain_slots(&mut self, work: &[Vec<usize>]) -> Result<(), ServiceError> {
        let mut steps = std::mem::take(&mut self.buffers.steps);
        let mut errors = self.take_errors();
        let plan_start = Instant::now();
        for (shard, active) in work.iter().enumerate() {
            if !active.is_empty() {
                let (toggles, error) =
                    self.engines[shard].plan_sweep(active, self.optimize, &self.matrix, &mut steps);
                self.metrics.css_toggles.add(toggles);
                errors[shard] = error;
            }
        }
        let plan_end = Instant::now();
        self.metrics
            .plan_us
            .observe(micros_between(plan_start, plan_end));
        self.eval_and_apply(&mut steps, &mut errors, plan_end);
        self.buffers.steps = steps;
        self.metrics.drains_total.inc();
        self.sync_gauges();
        // a structural engine failure never drops executed work: every
        // planned step was still evaluated and applied above (consuming
        // its requests), and the first error in shard order is returned —
        // with the responses left buffered for the caller's retry
        self.return_errors(errors)
    }

    /// The per-shard error buffer, one empty entry per shard.
    fn take_errors(&mut self) -> Vec<Option<ServiceError>> {
        let mut errors = std::mem::take(&mut self.buffers.errors);
        errors.resize_with(self.engines.len(), || None);
        errors
    }

    /// Hands the error buffer back, emptied, and returns its first error
    /// in shard order.
    fn return_errors(&mut self, mut errors: Vec<Option<ServiceError>>) -> Result<(), ServiceError> {
        let first = errors.iter_mut().find_map(Option::take);
        errors.clear();
        self.buffers.errors = errors;
        first.map_or(Ok(()), Err)
    }

    /// Evaluates `steps` — on the persistent pool when both the executor
    /// width and the step count allow parallelism, inline otherwise (the
    /// two paths run the same `eval_step` on the same data) — then
    /// applies every result in task order, which **is** merge-key order:
    /// steps were planned shard by shard, each shard in sweep order.
    /// Apply errors are recorded per shard, never overwriting an earlier
    /// (plan-phase) error. Leaves `steps` empty. The eval and apply
    /// histograms time from `eval_start`, the plan phase's end reading,
    /// each phase's end reading being the next one's start.
    fn eval_and_apply(
        &mut self,
        steps: &mut Vec<PlannedStep>,
        errors: &mut [Option<ServiceError>],
        eval_start: Instant,
    ) {
        if steps.is_empty() {
            return;
        }
        let eval = |mut step: PlannedStep| {
            let outs = eval_step(&mut step);
            (step, outs)
        };
        let mut results = std::mem::take(&mut self.buffers.evaluated);
        if self.executor.threads() > 1 && steps.len() > 1 {
            results = self.executor.run_owned(std::mem::take(steps), eval);
        } else {
            results.extend(steps.drain(..).map(eval));
        }
        let apply_start = Instant::now();
        self.metrics
            .eval_us
            .observe(micros_between(eval_start, apply_start));
        let mut prev_key = None;
        for (mut step, outs) in results.drain(..) {
            let key = (step.shard, step.pos);
            debug_assert!(
                prev_key < Some(key),
                "apply order violated the (shard, sweep-position) merge key: \
                 {prev_key:?} then {key:?}"
            );
            prev_key = Some(key);
            self.apply_step_traced(&mut step, outs, errors);
        }
        self.buffers.evaluated = results;
        self.metrics
            .apply_us
            .observe(micros_between(apply_start, Instant::now()));
    }

    /// Applies one evaluated step, recording its telemetry: per-shard
    /// step/response counters, the served-lanes histogram, one
    /// planned→evaluated→applied→demuxed span quartet per demuxed
    /// response, and fault counters/spans for a failed apply. Runs on
    /// the coordinating thread in merge-key order, so every recording
    /// here is deterministic-class. Apply errors land in `errors` per
    /// shard, never overwriting an earlier (plan-phase) error.
    fn apply_step_traced(
        &mut self,
        step: &mut PlannedStep,
        outcome: Result<EvalStats, ServiceError>,
        errors: &mut [Option<ServiceError>],
    ) {
        let shard = step.shard;
        let ready_before = self.ready.len();
        let faults_before = self.faults.len();
        let result =
            self.engines[shard].apply_step(step, outcome, &mut self.ready, &mut self.faults);
        self.metrics.steps_applied.add_to(shard, 1);
        let result = match result {
            Ok(Some(stats)) => {
                self.metrics.fabric_ops_total.add(stats.ops_total);
                self.metrics.fabric_ops_skipped.add(stats.ops_skipped);
                self.metrics.fabric_kernel_evals.inc();
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(e) => Err(e),
        };
        let served = self.ready.len() - ready_before;
        if served > 0 {
            self.metrics.responses_total.add_to(shard, served as u64);
            self.metrics.batch_lanes.observe(served as u64);
        }
        if self.telemetry.trace_buffer().is_enabled() {
            for resp in &self.ready[ready_before..] {
                let key = resp.request.value();
                // the whole drain shares one virtual-clock stamp; the span
                // ranks keep the phases ordered within the cycle
                self.telemetry.span(SpanKind::Planned, key, shard as i64);
                self.telemetry
                    .span(SpanKind::Evaluated, key, step.ctx as i64);
                self.telemetry.span(SpanKind::Applied, key, step.pos as i64);
                self.telemetry
                    .span(SpanKind::Demuxed, key, resp.outputs.len() as i64);
            }
        }
        let faulted = self.faults.len() - faults_before;
        if faulted > 0 {
            self.metrics.faults_total.add(faulted as u64);
            for fault in &self.faults[faults_before..] {
                self.telemetry.span(
                    SpanKind::Fault,
                    tenant_key(fault.tenant.index()),
                    fault.shard as i64,
                );
            }
        }
        if let Err(e) = result {
            if errors[shard].is_none() {
                errors[shard] = Some(e);
            }
        }
    }

    /// Runs one shard's sweep inline (the lane-full auto-flush path):
    /// same plan → eval → apply pipeline as [`drain`](Self::drain), minus
    /// the pool — a single slot just flushed, so fan-out buys nothing.
    /// Moves the queue-depth gauge by the requests the sweep served,
    /// whether or not it faulted.
    fn run_engine(&mut self, shard: usize, active: &[usize]) -> Result<(), ServiceError> {
        let pending_before = self.engines[shard].pending_requests();
        let mut steps = std::mem::take(&mut self.buffers.steps);
        let mut errors = self.take_errors();
        let (toggles, error) =
            self.engines[shard].plan_sweep(active, self.optimize, &self.matrix, &mut steps);
        self.metrics.css_toggles.add(toggles);
        errors[shard] = error;
        for mut step in steps.drain(..) {
            let outs = eval_step(&mut step);
            self.apply_step_traced(&mut step, outs, &mut errors);
        }
        self.buffers.steps = steps;
        let served = pending_before - self.engines[shard].pending_requests();
        self.metrics.queue_depth.add(-(served as i64));
        self.return_errors(errors)
    }

    /// Resyncs the point-in-time gauges with the structures they mirror.
    /// Called wherever tenancy changes or a drain ran; `submit` moves the
    /// queue-depth gauge incrementally instead. Cheap: one ticket count
    /// per slot, and the registry keeps its live count.
    fn sync_gauges(&self) {
        self.metrics.queue_depth.set(self.pending_requests() as i64);
        self.metrics.active_tenants.set(self.registry.len() as i64);
    }

    /// Removes and returns the per-slot execution faults recorded since the
    /// last call, oldest first. Each faulted slot's requests are still
    /// queued: fix and [`drain`](Self::drain) again, or
    /// [`discard_pending`](Self::discard_pending) the poisoned batch.
    pub fn take_faults(&mut self) -> Vec<SlotFault> {
        std::mem::take(&mut self.faults)
    }

    /// Chaos-testing hook: swaps `tenant`'s compiled plane for one whose
    /// bound output can never resolve, so the slot's next pass fails and
    /// surfaces as a [`SlotFault`] (requests stay queued, exactly as for a
    /// real plane corruption). The tenant's routed fabric configuration is
    /// untouched — [`repair_plane`](Self::repair_plane) restores service.
    pub fn inject_plane_fault(&mut self, tenant: TenantId) -> Result<(), ServiceError> {
        let placement = self.registry.tenant(tenant)?.placement;
        let mut broken = Fabric::new(self.params)?;
        broken.bind_output(TileCoord { x: 0, y: 0 }, 0, placement.ctx, "poisoned")?;
        self.engines[placement.shard].install_plane(
            placement.ctx,
            Arc::new(CompiledFabric::compile_context(&broken, placement.ctx)?),
        )
    }

    /// Restores `tenant`'s true compiled plane after
    /// [`inject_plane_fault`](Self::inject_plane_fault) (or any plane
    /// corruption), by digest: the digest recorded in the registry finds
    /// the cached plane, installed exactly as it was compiled (a plane
    /// serves any context index, so a tenant a migration moved off its
    /// admission context needs nothing else). Every
    /// live tenant's digest entered the cache when it was admitted or
    /// restored, and the cache never evicts, so a miss is
    /// [`MigrateError::PlaneUnavailable`], never a recompile. Queued
    /// requests survive and serve normally on the next flush.
    pub fn repair_plane(&mut self, tenant: TenantId) -> Result<(), ServiceError> {
        let record = self.registry.tenant(tenant)?;
        let placement = record.placement;
        let digest = record.digest;
        let plane = self
            .cache
            .get(digest)
            .ok_or(MigrateError::PlaneUnavailable { digest })?;
        self.engines[placement.shard].install_cached(placement.ctx, &plane)
    }

    /// Can a checkpoint taken on a `ckpt`-shaped fabric be restored onto
    /// this service's fabrics? Tiles must have identical resource shapes
    /// (same switch architecture, LUT arity, channel width and IO counts)
    /// and the host grid must be at least as large in both dimensions, so
    /// the tenant's design physically fits the host. Context counts may
    /// differ freely: a restored plane occupies whatever slot the host
    /// has free.
    fn geometry_admits(&self, ckpt: &FabricParams) -> bool {
        let host = &self.params;
        host.arch == ckpt.arch
            && host.lut_k == ckpt.lut_k
            && host.channel_width == ckpt.channel_width
            && host.io_in == ckpt.io_in
            && host.io_out == ckpt.io_out
            && host.width >= ckpt.width
            && host.height >= ckpt.height
    }

    fn check_shard(&self, shard: usize) -> Result<(), ServiceError> {
        if shard >= self.engines.len() {
            return Err(ServiceError::NoSuchShard {
                shard,
                shards: self.engines.len(),
            });
        }
        Ok(())
    }

    /// Modeled broadcast toggles the destination shard's sweeps gain when
    /// `ctx` joins its occupied set — the migration's realignment charge.
    /// `vacating` is the slot the mover is leaving: for an intra-shard
    /// move it sits on the destination shard but will not be occupied
    /// after the move, so it is excluded from both sweeps. Both sweeps
    /// start from the broadcast position `start`.
    fn join_cost(
        &self,
        dst_shard: usize,
        ctx: usize,
        vacating: Option<Placement>,
        start: usize,
    ) -> Result<usize, ServiceError> {
        let mut occupied = self.registry.occupied_contexts(dst_shard);
        occupied.retain(|&c| {
            c != ctx
                && vacating
                    != Some(Placement {
                        shard: dst_shard,
                        ctx: c,
                    })
        });
        let before = sweep_cost(&self.matrix, Some(start), &occupied)?;
        occupied.push(ctx);
        let after = sweep_cost(&self.matrix, Some(start), &occupied)?;
        Ok(after.saturating_sub(before))
    }

    /// Snapshots `tenant` at the current context-switch boundary: the
    /// plane-cache digest of its configuration, its stream-register file,
    /// its queued-but-unexecuted requests (exact lane words), the source
    /// engine's CSS sweep position and its usage counters — everything a
    /// destination needs to resume it bit-for-bit (see
    /// [`mcfpga_migrate`]). Non-destructive: the tenant keeps serving.
    ///
    /// The service API is synchronous, so every call site *is* a boundary:
    /// no pass is ever mid-flight here (the parallel executor only runs
    /// inside [`drain`](Self::drain), which has returned by the time any
    /// checkpoint can be taken). Requests that already executed are not
    /// part of the checkpoint — their responses live in the source's
    /// [`drain`](Self::drain) buffer; what moves is exactly the
    /// not-yet-served work.
    pub fn checkpoint_tenant(&self, tenant: TenantId) -> Result<TenantCheckpoint, ServiceError> {
        let record = self.registry.tenant(tenant)?;
        let placement = record.placement;
        let engine = &self.engines[placement.shard];
        let occupant = engine.occupant(placement.ctx, tenant)?;
        let batch = &occupant.batch;
        let pending = if batch.is_empty() {
            PendingBatch::default()
        } else {
            PendingBatch {
                lanes: batch.len(),
                inputs: batch
                    .columns()
                    .iter()
                    .zip(batch.chunks())
                    .map(|(n, v)| (n.to_string(), *v))
                    .collect(),
                requests: occupant.requests.iter().map(|r| r.value()).collect(),
            }
        };
        Ok(TenantCheckpoint {
            name: record.name.clone(),
            digest: record.digest,
            params: self.params,
            ctx: placement.ctx,
            css_position: engine.css_position(),
            pending,
            regs: occupant.regs.clone(),
            usage: occupant.usage,
        })
    }

    /// Admits a checkpointed tenant onto `dst_shard` as a **new** tenant,
    /// into the shard's best free slot (scored like an energy-aware
    /// admission, ties toward the checkpoint's own context index) — see
    /// [`restore_tenant_into`](Self::restore_tenant_into), which this
    /// wraps. Fails with [`MigrateError::NoFreeSlot`] when `dst_shard` is
    /// full.
    pub fn restore_tenant(
        &mut self,
        ckpt: &TenantCheckpoint,
        dst_shard: usize,
    ) -> Result<(TenantId, Vec<RequestId>), ServiceError> {
        self.check_restore(ckpt, dst_shard)?;
        let slot = best_slot(&self.registry, &self.matrix, Some(ckpt.ctx), |p| {
            p.shard == dst_shard
        })?
        .ok_or(MigrateError::NoFreeSlot { shard: dst_shard })?;
        self.restore_checked(ckpt, slot, None)
    }

    /// Admits a checkpointed tenant into the **exact** free slot `slot`
    /// as a **new** tenant, for a caller that has already scored the slot
    /// (a live move between services is [`hand_over`](Self::hand_over)).
    /// The compiled plane is resolved from the plane cache by digest and
    /// shared as it is, with its cached binding, whatever the slot's
    /// context index; the register file resumes where the last pass left
    /// it, and the pending lane words re-enter the queue unchanged — so
    /// its responses are bit-for-bit what the source would have produced.
    /// Returns a new tenant id and a *fresh* request id per restored
    /// pending lane (in lane order), all minted from this service's own
    /// sources: ids recorded in the checkpoint are never reissued, so a
    /// stale checkpoint cannot resurrect requests answered or discarded
    /// after it was taken.
    ///
    /// Geometry does **not** have to match exactly: a checkpoint taken on
    /// a smaller fabric restores onto a larger host of the same tile
    /// shape (same architecture, LUT arity, channel width, IO counts),
    /// its plane installed exactly as it was compiled — the kernel
    /// addresses plane slots, not fabric resources. Fails with
    /// [`ServiceError::NoSuchShard`] for a shard this service lacks, with
    /// [`MigrateError::GeometryMismatch`] only when the geometries are
    /// truly incompatible, with [`ServiceError::BadConfig`] for a context
    /// out of range or an occupied slot, and with [`MigrateError::PlaneUnavailable`] when no
    /// plane with the checkpoint's digest is cached (checkpoints ship
    /// digests, not bitstreams — see
    /// [`provision_plane`](Self::provision_plane) for the recompile
    /// fallback). A refused restore changes nothing.
    pub fn restore_tenant_into(
        &mut self,
        ckpt: &TenantCheckpoint,
        slot: Placement,
    ) -> Result<(TenantId, Vec<RequestId>), ServiceError> {
        self.check_restore(ckpt, slot.shard)?;
        self.check_free(slot)?;
        self.restore_checked(ckpt, slot, None)
    }

    /// The checks every restore runs first: the shard exists and the
    /// checkpoint's geometry embeds into this service's.
    fn check_restore(&self, ckpt: &TenantCheckpoint, shard: usize) -> Result<(), ServiceError> {
        self.check_shard(shard)?;
        if !self.geometry_admits(&ckpt.params) {
            return Err(MigrateError::GeometryMismatch {
                expected: format!("{:?}", self.params),
                found: format!("{:?}", ckpt.params),
            }
            .into());
        }
        Ok(())
    }

    /// The body of a restore into a free slot of an existing shard. A
    /// hand-over passes the tenant's own id and its lanes' ids as `kept`;
    /// otherwise the tenant and its lanes take fresh ids minted at commit.
    fn restore_checked(
        &mut self,
        ckpt: &TenantCheckpoint,
        slot: Placement,
        kept: Option<(TenantId, Vec<RequestId>)>,
    ) -> Result<(TenantId, Vec<RequestId>), ServiceError> {
        let dst_shard = slot.shard;
        let plane = self
            .cache
            .get(ckpt.digest)
            .ok_or(MigrateError::PlaneUnavailable {
                digest: ckpt.digest,
            })?;
        let batch = LaneBatch::from_parts(
            self.lane_width(),
            ckpt.pending.lanes,
            Arc::clone(&plane.columns),
            &ckpt.pending.inputs,
        )
        .map_err(|e| match e {
            FabricError::BadParams(what) => MigrateError::Corrupt(what).into(),
            e => ServiceError::from(e),
        })?;
        // every pending lane was counted when it was submitted: fewer
        // counted requests would make discarding the lanes underflow
        if ckpt.usage.requests < batch.len() {
            return Err(MigrateError::Corrupt(format!(
                "usage counts {} requests, fewer than the {} pending lanes",
                ckpt.usage.requests,
                batch.len()
            ))
            .into());
        }
        // an idle destination shard adopts the checkpointed CSS sweep
        // position: its broadcast resumes where the source's sat at the
        // boundary, so subsequent sweeps are planned and charged from the
        // same state (a shard with resident tenants keeps its own position
        // — realigning it would falsify *their* accounting); a checkpoint
        // from a deeper-context fabric may carry a position this host
        // doesn't have, in which case the host keeps its own
        let resume = self.registry.occupied_contexts(dst_shard).is_empty()
            && ckpt.css_position < self.params.contexts;
        let start = if resume {
            ckpt.css_position
        } else {
            self.engines[dst_shard].css_position()
        };
        let realign = self.join_cost(dst_shard, slot.ctx, None, start)?;
        let usage = bill_migration(ckpt, realign)?;
        if resume {
            self.engines[dst_shard].resume_css_at(start)?;
        }

        // all fallible steps done — commit the restore. A stored
        // checkpoint's lanes never reuse their recorded ids: the originals
        // may have been answered or discarded since it was taken, and a
        // resurrected id would break queue conservation
        let (id, requests) = match kept {
            Some(kept) => kept,
            None => {
                let id = self.tenants.mint();
                (id, (0..batch.len()).map(|_| self.ids.mint()).collect())
            }
        };
        self.registry.commit(id, &ckpt.name, slot, ckpt.digest)?;
        let occupant = Occupant {
            tenant: id,
            usage,
            regs: ckpt.regs.clone(),
            batch,
            requests: requests.clone(),
        };
        self.engines[dst_shard].adopt(slot.ctx, &plane, occupant)?;
        self.metrics.migrations.inc();
        // cross-node hop spans are the *cluster's* to record: it alone
        // knows the source node
        self.sync_gauges();
        Ok((id, requests))
    }

    /// Has this service minted a request id or a tenant id from its own
    /// sources (through [`submit`](Self::submit), [`admit`](Self::admit)
    /// or a restore)? Such a service cannot take part in a
    /// [`hand_over`](Self::hand_over), so a cluster refuses it as a node.
    #[must_use]
    pub fn has_minted_ids(&self) -> bool {
        self.ids.minted() || self.tenants.minted()
    }

    /// Moves `tenant` live into the exact free `slot` of `dst`, keeping
    /// its tenant id and its request ids — the cross-service sibling of
    /// [`migrate_tenant`](Self::migrate_tenant): checkpoint, restore into
    /// `slot` like [`restore_tenant_into`](Self::restore_tenant_into)
    /// (billed the same) but under the tenant's and the pending lanes' own
    /// ids, retire here. Returns those request ids. A refused hand-over
    /// changes neither service. Refused with [`ServiceError::BadConfig`]
    /// when either service has minted from its own sources, as kept ids
    /// could collide there; a cluster's nodes mint only from the
    /// cluster's ([`admit_placed`](Self::admit_placed),
    /// [`submit_from`](Self::submit_from)).
    pub fn hand_over(
        &mut self,
        tenant: TenantId,
        dst: &mut ShardedService,
        slot: Placement,
    ) -> Result<Vec<RequestId>, ServiceError> {
        if self.has_minted_ids() || dst.has_minted_ids() {
            return Err(ServiceError::BadConfig(
                "a hand-over keeps tenant and request ids: neither service may mint its own".into(),
            ));
        }
        if dst.registry.tenant(tenant).is_ok() {
            return Err(ServiceError::BadConfig(format!(
                "{tenant} already lives at the destination"
            )));
        }
        let ckpt = self.checkpoint_tenant(tenant)?;
        let src = self.registry.tenant(tenant)?.placement;
        let kept = self.engines[src.shard].requests(src.ctx).to_vec();
        dst.check_restore(&ckpt, slot.shard)?;
        dst.check_free(slot)?;
        let (_, kept) = dst.restore_checked(&ckpt, slot, Some((tenant, kept)))?;
        self.retire_tenant(tenant)?;
        Ok(kept)
    }

    /// Exports the compiled plane cached under `digest` for shipping to
    /// another service instance — the transfer half of a cross-node
    /// migration (checkpoints themselves carry only the digest). Does not
    /// touch the cache's hit/miss counters.
    #[must_use]
    pub fn export_plane(&self, digest: u64) -> Option<Arc<CompiledFabric>> {
        self.cache.peek(digest)
    }

    /// Imports a plane shipped from another service instance into this
    /// one's cache, so a subsequent [`restore_tenant`](Self::restore_tenant)
    /// of a checkpoint carrying `digest` finds it even though this node
    /// never routed the design. The exporter vouches that `digest` is the
    /// plane's admission-time [`Fabric::context_digest`]. Refuses, caching
    /// nothing, a plane that is not a single-context compilation
    /// ([`FabricError::BadParams`]): no slot could evaluate it.
    pub fn import_plane(
        &mut self,
        digest: u64,
        plane: Arc<CompiledFabric>,
    ) -> Result<(), ServiceError> {
        self.cache.insert(digest, plane)
    }

    /// Re-provisions the compiled plane a checkpoint demands on a node
    /// that never saw the design — the recompile-at-destination fallback
    /// for the cold-cache [`MigrateError::PlaneUnavailable`] dead end
    /// (e.g. the source node died before its plane could be exported).
    ///
    /// The checkpoint's digest covers the *routed configuration*, and
    /// admission routing is deterministic per context slot
    /// (`SLOT_SEED + ctx`), so routing `netlist` on a scratch fabric
    /// of the checkpoint's own geometry reproduces the original
    /// configuration exactly — the digest proves it. Each context is
    /// tried (a tenant that migrated between admission and checkpoint
    /// carries a context index different from the one it was routed in);
    /// the first digest match is compiled and cached, after which
    /// [`restore_tenant`](Self::restore_tenant) proceeds normally. If no
    /// context reproduces the digest the netlist is not the checkpointed
    /// design and [`MigrateError::NetlistDigestMismatch`] refuses to
    /// provision it. No-op when the digest is already cached.
    ///
    /// `params` is the geometry the design was *admitted* on (the
    /// digest covers geometry too); for a tenant that never crossed
    /// geometries this is just `ckpt.params`.
    pub fn provision_plane(
        &mut self,
        digest: u64,
        netlist: &LogicNetlist,
        params: FabricParams,
    ) -> Result<(), ServiceError> {
        if self.cache.contains(digest) {
            return Ok(());
        }
        for ctx in 0..params.contexts {
            let mut scratch = Fabric::new(params)?;
            if implement_netlist_robust(
                &mut scratch,
                netlist,
                ctx,
                SLOT_SEED + ctx as u64,
                ROUTE_ATTEMPTS,
            )
            .is_err()
            {
                continue;
            }
            if scratch.context_digest(ctx)? == digest {
                let plane = CompiledFabric::compile_context(&scratch, ctx)?;
                return self.cache.insert(digest, Arc::new(plane));
            }
        }
        Err(MigrateError::NetlistDigestMismatch { digest }.into())
    }

    /// Removes `tenant` from this service for good — the source-side end
    /// of a cross-node migration ([`hand_over`](Self::hand_over)), called
    /// **after** the destination's restore succeeded. The engine
    /// surrenders the tenant's state and queued lanes (the checkpoint
    /// already carried them to the destination), its recorded faults are
    /// dropped, and the slot frees for re-admission.
    pub fn retire_tenant(&mut self, tenant: TenantId) -> Result<(), ServiceError> {
        let placement = self.registry.tenant(tenant)?.placement;
        let _ = self.engines[placement.shard].expel(tenant, placement.ctx)?;
        self.registry.retire(tenant)?;
        self.faults.retain(|f| f.tenant != tenant);
        self.sync_gauges();
        Ok(())
    }

    /// Live-migrates `tenant` to a free slot on `dst_shard`, preserving
    /// its request ids: the pending lane batch, register file, compiled
    /// plane (shared as it is, at any slot index) and recorded faults all
    /// move, the source slot frees, and the tenant resumes
    /// bit-for-bit — every in-flight request is still answered exactly
    /// once. The slot is chosen like an energy-aware admission (cheapest
    /// marginal sweep cost, ties toward the same context index).
    /// Migration overhead — checkpoint bytes, downtime cycles,
    /// destination realignment toggles — is billed to the tenant (see
    /// [`mcfpga_cost::attribution`]). `dst_shard` may be the tenant's own
    /// shard (an intra-shard slot move).
    pub fn migrate_tenant(
        &mut self,
        tenant: TenantId,
        dst_shard: usize,
    ) -> Result<Placement, ServiceError> {
        self.check_shard(dst_shard)?;
        let src = self.registry.tenant(tenant)?.placement;
        let dst = best_slot(&self.registry, &self.matrix, Some(src.ctx), |p| {
            p.shard == dst_shard
        })?
        .ok_or(MigrateError::NoFreeSlot { shard: dst_shard })?;
        self.migrate_to_slot(tenant, dst)
    }

    /// The migration mechanics, to an exact free destination slot: an
    /// explicit engine-to-engine handoff — `expel` on the source engine
    /// frees the slot and surrenders its occupant (state and queued
    /// lanes) with the installed plane; `adopt` on the destination
    /// installs both.
    /// The two calls are sequenced by the coordinator (never concurrent
    /// with a drain), and work unchanged when source and destination are
    /// the same engine (an intra-shard slot move).
    fn migrate_to_slot(
        &mut self,
        tenant: TenantId,
        dst: Placement,
    ) -> Result<Placement, ServiceError> {
        let src = self.registry.tenant(tenant)?.placement;
        // the checkpoint is what conceptually crosses the wire: its
        // encoded size is the migration's bytes-moved bill
        let ckpt = self.checkpoint_tenant(tenant)?;
        let start = self.engines[dst.shard].css_position();
        let realign = self.join_cost(dst.shard, dst.ctx, Some(src), start)?;
        let usage = bill_migration(&ckpt, realign)?;
        self.registry.relocate(tenant, dst)?;

        // point of no return: the cross-engine handoff. The installed
        // plane and its plan move as they are: every shard shares this
        // service's geometry, and a plane serves any context
        let (mut occupant, plane) = self.engines[src.shard].expel(tenant, src.ctx)?;
        occupant.usage = usage;
        self.engines[dst.shard].adopt(dst.ctx, &plane, occupant)?;
        // recorded faults describe the tenant's slot; the slot moved
        for fault in &mut self.faults {
            if fault.tenant == tenant {
                fault.shard = dst.shard;
                fault.ctx = dst.ctx;
            }
        }
        self.metrics.migrations.inc();
        // every in-flight request hops with its tenant: one span each,
        // keyed by the (preserved) request id, detail = source shard
        for &raw in &ckpt.pending.requests {
            self.telemetry
                .span(SpanKind::MigrationHop, raw, src.shard as i64);
        }
        self.sync_gauges();
        Ok(dst)
    }

    /// Migrates **every** tenant off `shard` — the fault-evacuation /
    /// rebalancing primitive. Destinations are chosen per tenant by the
    /// same energy-aware scoring as admission, restricted to the other
    /// shards. All-or-nothing feasibility: if the rest of the pool cannot
    /// absorb every resident tenant, nothing moves and
    /// [`MigrateError::EvacuationBlocked`] reports the shortfall. Returns
    /// `(tenant, new placement)` per move, in source context order.
    pub fn evacuate_shard(
        &mut self,
        shard: usize,
    ) -> Result<Vec<(TenantId, Placement)>, ServiceError> {
        self.check_shard(shard)?;
        let tenants: Vec<TenantId> = self
            .registry
            .occupied_contexts(shard)
            .into_iter()
            .filter_map(|ctx| self.registry.occupant(shard, ctx))
            .collect();
        let free_elsewhere = self
            .registry
            .free_slots()
            .into_iter()
            .filter(|p| p.shard != shard)
            .count();
        if free_elsewhere < tenants.len() {
            return Err(MigrateError::EvacuationBlocked {
                tenants: tenants.len(),
                free_elsewhere,
            }
            .into());
        }
        let mut moved = Vec::with_capacity(tenants.len());
        for tenant in tenants {
            let src_ctx = self.registry.tenant(tenant)?.placement.ctx;
            let dst = best_slot(&self.registry, &self.matrix, Some(src_ctx), |p| {
                p.shard != shard
            })?
            .expect("feasibility prechecked: a free off-shard slot exists");
            moved.push((tenant, self.migrate_to_slot(tenant, dst)?));
        }
        Ok(moved)
    }

    /// One tenant's stream-register file (`reg:*` state carried between
    /// its passes). Empty for purely combinational tenants.
    pub fn register_file(&self, tenant: TenantId) -> Result<&RegisterFile, ServiceError> {
        let Placement { shard, ctx } = self.registry.tenant(tenant)?.placement;
        Ok(&self.engines[shard].occupant(ctx, tenant)?.regs)
    }

    /// Raw usage counters of one tenant (owned by its shard's engine).
    pub fn usage(&self, tenant: TenantId) -> Result<TenantUsage, ServiceError> {
        let Placement { shard, ctx } = self.registry.tenant(tenant)?.placement;
        Ok(self.engines[shard].occupant(ctx, tenant)?.usage)
    }

    /// One tenant's usage billed in physical units.
    pub fn bill(&self, tenant: TenantId) -> Result<TenantBill, ServiceError> {
        Ok(bill(&self.usage(tenant)?, &self.tech))
    }

    /// Markdown billing table over every admitted tenant, admission order.
    #[must_use]
    pub fn billing_report(&self) -> String {
        let rows: Vec<(String, TenantUsage)> = self
            .registry
            .iter()
            .map(|(id, rec)| {
                // every registered tenant occupies its placement's slot
                // (admission/restore land it there, migration hands it
                // off); a miss is a registry/engine desync — fail loudly
                // in tests instead of rendering a plausible zero row
                let Placement { shard, ctx } = rec.placement;
                let occupant = self.engines[shard].occupant(ctx, id);
                debug_assert!(
                    occupant.is_ok(),
                    "tenant {id} registered in slot ({shard}, {ctx}) but not in it"
                );
                (
                    rec.name.clone(),
                    occupant.map(|o| o.usage).unwrap_or_default(),
                )
            })
            .collect();
        render_billing(&rows, &self.tech)
    }

    /// The tenant registry (placements, digests, occupancy).
    #[must_use]
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// The compiled-plane cache (hit/miss counters). Planes are
    /// `Arc`-shared: every engine slot and every re-admission of the same
    /// digest points at one compiled plane.
    #[must_use]
    pub fn cache(&self) -> &PlaneCache {
        &self.cache
    }

    /// The per-shard engines, read-only (diagnostics; shard index ==
    /// slice index).
    #[must_use]
    pub fn engines(&self) -> &[ShardEngine] {
        &self.engines
    }

    /// Requests parked in lane batches, not yet executed.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.engines.iter().map(ShardEngine::pending_requests).sum()
    }

    /// Number of fabric shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// The shared fabric geometry of every shard.
    #[must_use]
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// The technology parameters billing is rendered against.
    #[must_use]
    pub fn tech(&self) -> &TechParams {
        &self.tech
    }

    /// The CSS transition-cost matrix placement scoring runs against —
    /// shared with the cluster so a migration's destination slot is
    /// scored exactly as a local admission would score it (see
    /// [`crate::placement::best_slot`]).
    #[must_use]
    pub fn cost_matrix(&self) -> &CostMatrix {
        &self.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_fabric::bitstream;
    use mcfpga_fabric::compiled::BoundPlan;
    use mcfpga_fabric::netlist_ir::generators;

    /// Two fresh services admitting the same netlists route them into the
    /// same switch configuration: identical bitstreams, and identical
    /// `fabric_ops_total` after the same drain.
    #[test]
    fn routing_replays_bit_identically() {
        let designs = [
            generators::equality_comparator(16).unwrap(),
            generators::ripple_adder(8).unwrap(),
            generators::equality_comparator(12).unwrap(),
            generators::ripple_adder(6).unwrap(),
        ];
        let params = FabricParams {
            width: 8,
            height: 8,
            channel_width: 6,
            ..FabricParams::default()
        };
        let replay = || {
            let mut svc = ShardedService::new(1, params, TechParams::default()).unwrap();
            let tenants: Vec<(TenantId, &LogicNetlist)> = designs
                .iter()
                .enumerate()
                .map(|(i, nl)| (svc.admit(&format!("t{i}"), nl).unwrap(), nl))
                .collect();
            for round in 0..3u64 {
                for (i, &(t, nl)) in tenants.iter().enumerate() {
                    let names: Vec<String> = nl
                        .input_ids()
                        .into_iter()
                        .map(|id| match nl.node(id) {
                            mcfpga_fabric::netlist_ir::Node::Input { name } => name.clone(),
                            _ => unreachable!("input ids name inputs"),
                        })
                        .collect();
                    let bits = round * 31 + i as u64 * 7;
                    let inputs: Vec<(&str, bool)> = names
                        .iter()
                        .enumerate()
                        .map(|(b, n)| (n.as_str(), bits >> b & 1 == 1))
                        .collect();
                    svc.submit(t, &inputs).unwrap();
                }
            }
            let responses = svc.drain().unwrap();
            let bitstreams: Vec<_> = svc
                .engines()
                .iter()
                .map(|e| bitstream::pack(e.fabric()).unwrap())
                .collect();
            let ops = svc
                .telemetry()
                .registry()
                .counter_value("fabric_ops_total")
                .unwrap();
            (responses, bitstreams, ops)
        };
        let (first, second) = (replay(), replay());
        assert_eq!(first.0.len(), 12);
        assert_eq!(first.0, second.0, "responses");
        assert!(first.1 == second.1, "routed bitstreams differ");
        assert_eq!(first.2, second.2, "fabric_ops_total");
    }

    /// Submit-time validation makes undriven-input passes unreachable
    /// through the public API, so the fault path is exercised by swapping a
    /// tenant's compiled plane for one whose bound output can never
    /// resolve — the runtime-failure class [`SlotFault`] exists for.
    #[test]
    fn faulted_slot_keeps_requests_and_spares_other_tenants() {
        let params = FabricParams::default();
        let mut svc = ShardedService::new(1, params, TechParams::default()).unwrap();
        let wire = generators::wire_lanes(1).unwrap();
        let bad = svc.admit("bad", &wire).unwrap(); // ctx 0
        let good = svc.admit("good", &wire).unwrap(); // ctx 1

        // sabotage: a plane with an output bound but never driven
        svc.inject_plane_fault(bad).unwrap();

        // the broken plane binds no inputs, so any request passes validation
        svc.submit(bad, &[("in0", true)]).unwrap();
        let ok_req = svc.submit(good, &[("in0", true)]).unwrap();

        // the healthy tenant is served; the faulted batch stays queued
        let responses = svc.drain().unwrap();
        assert_eq!(responses.len(), 1, "bad slot must not block the good one");
        assert_eq!(responses[0].request, ok_req);
        let faults = svc.take_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].tenant, bad);
        assert_eq!((faults[0].shard, faults[0].ctx), (0, 0));
        assert!(matches!(faults[0].error, ServiceError::Fabric(_)));
        assert_eq!(svc.pending_requests(), 1, "failed pass drops no requests");
        assert_eq!(svc.usage(bad).unwrap().passes, 0, "no successful pass");

        // the switch *into* the failing context is still charged: the CSS
        // broadcast spent that energy whether or not the pass resolved
        let toggles_before = svc.usage(bad).unwrap().css_toggles;
        assert!(svc.drain().unwrap().is_empty());
        assert_eq!(svc.take_faults().len(), 1);
        assert!(
            svc.usage(bad).unwrap().css_toggles > toggles_before,
            "sequencer sat on ctx 1, so re-entering ctx 0 toggles lines"
        );

        // explicit recovery
        assert_eq!(svc.discard_pending(bad).unwrap(), 1);
        assert_eq!(svc.pending_requests(), 0);
        assert!(svc.drain().unwrap().is_empty());
        assert!(svc.take_faults().is_empty());
    }

    /// `apply_step`'s structural errors: a pass that did not run through
    /// its slot's current bound plan, or whose slot's batch is gone, is
    /// refused with a typed error — no panic, nothing demuxed, no pass
    /// billed, and the requests stay queued while they exist.
    #[test]
    fn apply_refuses_a_pass_its_slot_no_longer_matches() {
        let mut svc =
            ShardedService::new(1, FabricParams::default(), TechParams::default()).unwrap();
        let t = svc
            .admit("parity", &generators::parity_tree(3).unwrap())
            .unwrap();
        let ctx = svc.registry().tenant(t).unwrap().placement.ctx;
        svc.submit(t, &[("x0", true), ("x1", false), ("x2", false)])
            .unwrap();
        let mut apply = |tamper: &dyn Fn(&mut PlannedStep, &mut ShardEngine)| {
            let mut steps = Vec::new();
            let (_, error) =
                svc.engines[0].plan_sweep(&[ctx], svc.optimize, &svc.matrix, &mut steps);
            assert!(error.is_none());
            let mut step = steps.pop().unwrap();
            let outcome = eval_step(&mut step);
            assert!(outcome.is_ok(), "the pass itself succeeds");
            tamper(&mut step, &mut svc.engines[0]);
            let (mut responses, mut faults) = (Vec::new(), Vec::new());
            let error = svc.engines[0]
                .apply_step(&mut step, outcome, &mut responses, &mut faults)
                .unwrap_err();
            assert!(responses.is_empty() && faults.is_empty());
            let pending = svc.pending_requests();
            (error, pending)
        };
        let stale = ServiceError::StaleStep { shard: 0, ctx };
        // the step ran through a plan other than the slot's
        let other_plan = |step: &mut PlannedStep, _: &mut ShardEngine| {
            step.bound = Arc::new(BoundPlan::clone(&step.bound));
        };
        assert_eq!(apply(&other_plan), (stale.clone(), 1));
        // the slot's plane was reinstalled (a new bound plan) after planning
        let reinstall = |_: &mut PlannedStep, engine: &mut ShardEngine| {
            let plane = engine.plane(ctx).unwrap();
            engine.install_plane(ctx, plane).unwrap();
        };
        assert_eq!(apply(&reinstall), (stale.clone(), 1));
        // the slot's batch was discarded after planning
        let discard = |_: &mut PlannedStep, engine: &mut ShardEngine| {
            assert_eq!(engine.discard_pending(ctx, t).unwrap(), 1);
        };
        assert_eq!(apply(&discard), (stale, 0));
        assert_eq!(svc.usage(t).unwrap().passes, 0, "no refused pass billed");
    }

    /// A different plane installed into a slot that already ran a kernel
    /// pass discards the slot's cached sweep: the same request again
    /// sweeps the new plane in full and answers as its interpreter does,
    /// though both planes' value arrays are the same size.
    #[test]
    fn a_reinstalled_plane_sweeps_afresh() {
        let params = FabricParams::default();
        let mut svc = ShardedService::new(1, params, TechParams::default()).unwrap();
        let parity = generators::parity_tree(3).unwrap();
        let t = svc.admit("p", &parity).unwrap();
        let ctx = svc.registry().tenant(t).unwrap().placement.ctx;
        let request = [("x0", true), ("x1", false), ("x2", false)];
        let counter = |svc: &ShardedService, name: &str| {
            svc.telemetry().registry().counter_value(name).unwrap()
        };
        let pass = |svc: &mut ShardedService| {
            svc.submit(t, &request).unwrap();
            let skipped = counter(svc, "fabric_ops_skipped");
            let responses = svc.drain().unwrap();
            assert_eq!(responses.len(), 1);
            let outputs = responses[0].outputs.to_vec();
            (outputs, counter(svc, "fabric_ops_skipped") - skipped)
        };
        let (first, _) = pass(&mut svc);
        assert_eq!(first, vec![(Arc::from("parity"), true)]);
        // parity's topology with AND tables: the same inputs, output and
        // LUT count, another function
        let mut and3 = LogicNetlist::new();
        let x: Vec<_> = (0..3).map(|i| and3.add_input(&format!("x{i}"))).collect();
        let a = and3.add_lut("a", &[x[0], x[1]], 0b1000).unwrap();
        let b = and3.add_lut("b", &[a, x[2]], 0b1000).unwrap();
        and3.add_output("parity", b).unwrap();
        let mut fabric = Fabric::new(params).unwrap();
        mcfpga_fabric::route::implement_netlist(&mut fabric, &and3, ctx, 7).unwrap();
        let plane = Arc::new(CompiledFabric::compile_context(&fabric, ctx).unwrap());
        svc.engines[0]
            .install_plane(ctx, Arc::clone(&plane))
            .unwrap();
        let (second, skipped) = pass(&mut svc);
        assert_eq!(skipped, 0, "the pass after a reinstall sweeps in full");
        let bound = plane.bind(ctx).unwrap();
        let chunks: Vec<_> = bound
            .inputs()
            .iter()
            .map(|(_, name, _)| {
                let bit = request.iter().any(|(n, v)| *n == &**name && *v);
                mcfpga_fabric::compiled::chunk_of_word(u64::from(bit))
            })
            .collect();
        let mut want = Vec::new();
        plane
            .eval_bound_reference(&bound, &chunks, 1, &mut plane.new_state(), &mut want)
            .unwrap();
        assert_eq!(second, vec![(Arc::from("parity"), want[0][0] & 1 == 1)]);
        assert_eq!(second, vec![(Arc::from("parity"), false)]);
    }

    /// A consumer that keeps every response leaves at most two pooled
    /// output tables per slot, even when lane-full flushes run three
    /// passes on one slot between drains; a consumer that drops each
    /// drain's responses gets the same table back, rewritten in place.
    #[test]
    fn output_tables_stay_bounded_and_are_reused() {
        let mut svc =
            ShardedService::new(2, FabricParams::default(), TechParams::default()).unwrap();
        svc.set_lane_width(64).unwrap();
        let adder = generators::ripple_adder(2).unwrap();
        let tenants: Vec<TenantId> = (0..4)
            .map(|i| svc.admit(&format!("a{i}"), &adder).unwrap())
            .collect();
        let submit = |svc: &mut ShardedService, n: usize| {
            for &t in &tenants {
                for i in 0..n {
                    let bit = |b: usize| i >> b & 1 == 1;
                    let inputs = [
                        ("a0", bit(0)),
                        ("a1", bit(1)),
                        ("b0", bit(2)),
                        ("b1", bit(3)),
                        ("cin", bit(4)),
                    ];
                    svc.submit(t, &inputs).unwrap();
                }
            }
        };
        let mut kept = Vec::new();
        for n in [3, 70, 10, 150, 1, 64] {
            submit(&mut svc, n);
            kept.extend(svc.drain().unwrap());
        }
        assert_eq!(kept.len(), 4 * (3 + 70 + 10 + 150 + 1 + 64));
        for engine in svc.engines() {
            for ctx in 0..FabricParams::default().contexts {
                assert!(engine.pooled_tables(ctx) <= 2, "slot {ctx} pool grew");
            }
        }
        drop(kept);
        let mut first_row = || {
            submit(&mut svc, 5);
            let responses = svc.drain().unwrap();
            let r = responses.iter().find(|r| r.tenant == tenants[0]).unwrap();
            r.outputs.as_ptr()
        };
        let first = first_row();
        assert_eq!(first, first_row(), "a free table is rewritten, not rebuilt");
    }

    /// `y = x XOR reg:acc`, `reg:acc = y`: a one-bit stream accumulator.
    fn accumulator() -> LogicNetlist {
        let mut nl = LogicNetlist::new();
        let x = nl.add_input("x");
        let acc = nl.add_input("reg:acc");
        let xor = nl.add_lut("t", &[x, acc], 0b0110).unwrap();
        nl.add_output("y", xor).unwrap();
        nl.add_output("reg:acc", xor).unwrap();
        nl
    }

    /// The slot `tenant` occupies holds the very plane and plan `Arc`s
    /// its digest's cache entry holds: shared, never copied or re-bound.
    fn assert_shares_cache_entry(svc: &ShardedService, tenant: TenantId) {
        let record = svc.registry().tenant(tenant).unwrap();
        let Placement { shard, ctx } = record.placement;
        let entry = svc.cache.entry(record.digest).unwrap();
        let engine = &svc.engines[shard];
        assert!(
            Arc::ptr_eq(&engine.plane(ctx).unwrap(), &entry.plane),
            "slot ({shard}, {ctx}) holds a copy of its plane"
        );
        assert!(
            Arc::ptr_eq(&engine.plan(ctx).unwrap(), &entry.bound),
            "slot ({shard}, {ctx}) bound its plane again"
        );
    }

    /// Moves `tenant` from `src` to `dst` the way the cluster moves a
    /// tenant across nodes: checkpoint, plane shipment on a cold cache,
    /// restore into the scored slot, retire at the source.
    fn hop_node(src: &mut ShardedService, dst: &mut ShardedService, tenant: TenantId) -> TenantId {
        let ckpt = src.checkpoint_tenant(tenant).unwrap();
        if !dst.cache().contains(ckpt.digest) {
            dst.import_plane(ckpt.digest, src.export_plane(ckpt.digest).unwrap())
                .unwrap();
        }
        let matrix = dst.cost_matrix();
        let slot = best_slot(dst.registry(), matrix, Some(ckpt.ctx), |_| true)
            .unwrap()
            .unwrap();
        let (moved, _) = dst.restore_tenant_into(&ckpt, slot).unwrap();
        src.retire_tenant(tenant).unwrap();
        moved
    }

    /// The `y` answers `responses` hold for `tenant`.
    fn answers(responses: &[Response], tenant: TenantId) -> Vec<bool> {
        responses
            .iter()
            .filter(|r| r.tenant == tenant)
            .map(|r| r.outputs.iter().find(|(n, _)| &**n == "y").unwrap().1)
            .collect()
    }

    /// Plane sharing holds its invariants: a tenant with a stream
    /// register moves, a pending request riding along each time, through
    /// every context index of two shards and then between two services
    /// (the cluster's cross-node path). After every move its slot shares
    /// the cache entry's plane and plan, every answer equals both a
    /// never-migrated twin's and the netlist's own evaluation, and each
    /// cache holds one entry per digest.
    #[test]
    fn migrated_slots_share_the_cached_plane() {
        let nl = accumulator();
        let params = FabricParams::default();
        let mut a = ShardedService::new(3, params, TechParams::default()).unwrap();
        let mut b = ShardedService::new(2, params, TechParams::default()).unwrap();
        let twin = a.admit("twin", &nl).unwrap(); // (0, 0)
        let mut mover = a.admit("mover", &nl).unwrap(); // (1, 0)
        assert_eq!(a.cache().len(), 1, "both admissions route ctx 0 alike");
        assert_shares_cache_entry(&a, mover);
        // every context of shards 1 and 2, ending where the mover began
        let slots: Vec<Placement> = [
            (1, 1),
            (1, 2),
            (1, 3),
            (2, 0),
            (2, 1),
            (2, 2),
            (2, 3),
            (1, 0),
        ]
        .into_iter()
        .map(|(shard, ctx)| Placement { shard, ctx })
        .collect();
        let hops = 4;
        let (mut on_b, mut state) = (false, false);
        for step in 0..slots.len() + hops {
            let x = step % 3 != 1;
            a.submit(twin, &[("x", x)]).unwrap();
            let home = if on_b { &mut b } else { &mut a };
            home.submit(mover, &[("x", x)]).unwrap();
            match slots.get(step) {
                Some(&slot) => assert_eq!(a.migrate_to_slot(mover, slot).unwrap(), slot),
                None if on_b => mover = hop_node(&mut b, &mut a, mover),
                None => mover = hop_node(&mut a, &mut b, mover),
            }
            on_b ^= step >= slots.len();
            let want = nl.eval(&[("x", x), ("reg:acc", state)]).unwrap();
            let y = want.iter().find(|(n, _)| n == "y").unwrap().1;
            state = want.iter().find(|(n, _)| n == "reg:acc").unwrap().1;
            let (from_a, from_b) = (a.drain().unwrap(), b.drain().unwrap());
            assert_eq!(answers(&from_a, twin), [y], "twin, step {step}");
            let moved = answers(if on_b { &from_b } else { &from_a }, mover);
            assert_eq!(moved, [y], "mover, step {step}");
            assert_shares_cache_entry(if on_b { &b } else { &a }, mover);
            assert_eq!(a.cache().len(), 1, "step {step}");
            assert_eq!(
                b.cache().len(),
                usize::from(step >= slots.len()),
                "step {step}"
            );
        }
        assert!(a.take_faults().is_empty() && b.take_faults().is_empty());
    }

    /// Every invalid `FabricParams` field is refused at construction with
    /// the error an eagerly built fabric gives, though the fabric itself
    /// is now built only when first needed.
    #[test]
    fn bad_params_are_refused_before_any_fabric_is_built() {
        let d = FabricParams::default();
        let geometry = |p: FabricParams| format!("fabric: bad fabric params: {p:?}");
        let cases = [
            FabricParams { width: 0, ..d },
            FabricParams { height: 0, ..d },
            FabricParams {
                width: 65,
                height: 64,
                ..d
            },
            FabricParams {
                channel_width: 0,
                ..d
            },
            FabricParams {
                channel_width: 17,
                ..d
            },
        ]
        .map(|p| (p, geometry(p), geometry(p)));
        let contexts = "fabric: bad fabric params: contexts".to_string();
        let more = [
            (
                FabricParams { contexts: 0, ..d },
                "bad service config: 2 shards × 0 contexts".to_string(),
                contexts.clone(),
            ),
            (
                FabricParams { contexts: 65, ..d },
                contexts.clone(),
                contexts,
            ),
            (
                FabricParams { lut_k: 0, ..d },
                "fabric: bad fabric params: k=0 not in 1..=6".to_string(),
                "fabric: bad fabric params: k=0 not in 1..=6".to_string(),
            ),
            (
                FabricParams { lut_k: 7, ..d },
                "fabric: bad fabric params: k=7 not in 1..=6".to_string(),
                "fabric: bad fabric params: k=7 not in 1..=6".to_string(),
            ),
        ];
        for (params, service, engine) in cases.into_iter().chain(more) {
            let err = ShardedService::new(2, params, TechParams::default()).unwrap_err();
            assert_eq!(err.to_string(), service, "{params:?}");
            let err = ShardEngine::new(0, params, MAX_LANES).unwrap_err();
            assert_eq!(err.to_string(), engine, "{params:?}");
        }
    }

    /// An engine nothing was admitted to builds, on first read, exactly
    /// the blank fabric `Fabric::new` builds — and a restore builds none.
    #[test]
    fn an_unrouted_engine_reads_as_a_blank_fabric() {
        let params = FabricParams {
            width: 6,
            height: 5,
            channel_width: 3,
            contexts: 8,
            ..FabricParams::default()
        };
        let mut src = ShardedService::new(1, params, TechParams::default()).unwrap();
        let t = src.admit("acc", &accumulator()).unwrap();
        let ckpt = src.checkpoint_tenant(t).unwrap();
        let mut dst = ShardedService::new(2, params, TechParams::default()).unwrap();
        dst.import_plane(ckpt.digest, src.export_plane(ckpt.digest).unwrap())
            .unwrap();
        dst.restore_tenant(&ckpt, 1).unwrap();
        assert!(!dst.engines.iter().any(ShardEngine::has_fabric));
        let blank = bitstream::pack(&Fabric::new(params).unwrap()).unwrap();
        for engine in &dst.engines {
            assert_eq!(bitstream::pack(engine.fabric()).unwrap(), blank);
        }
    }

    /// The same seeded traffic must produce identical responses, faults
    /// and billing at every executor width — the merge-order invariant,
    /// exercised at the unit level (the stress replay covers it at scale).
    #[test]
    fn drain_output_is_independent_of_thread_count() {
        let run = |threads: usize| {
            let params = FabricParams::default();
            let mut svc = ShardedService::new(4, params, TechParams::default()).unwrap();
            svc.set_threads(threads);
            assert_eq!(svc.threads(), threads.max(1));
            let parity = generators::parity_tree(3).unwrap();
            let wire = generators::wire_lanes(1).unwrap();
            let tenants: Vec<TenantId> = (0..8)
                .map(|i| {
                    let nl = if i % 2 == 0 { &parity } else { &wire };
                    svc.admit(&format!("t{i}"), nl).unwrap()
                })
                .collect();
            let mut responses = Vec::new();
            for round in 0..5 {
                for (i, t) in tenants.iter().enumerate() {
                    let v = (round + i) % 2 == 0;
                    if i % 2 == 0 {
                        svc.submit(*t, &[("x0", v), ("x1", !v), ("x2", v)]).unwrap();
                    } else {
                        svc.submit(*t, &[("in0", v)]).unwrap();
                    }
                }
                responses.extend(svc.drain().unwrap());
            }
            (responses, svc.billing_report())
        };
        let baseline = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), baseline, "threads={threads}");
        }
    }
}
