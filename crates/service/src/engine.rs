//! The per-shard execution engine.
//!
//! A [`ShardEngine`] owns **everything one fabric shard needs to execute a
//! sweep without touching another shard**: its routed [`Fabric`] (built on
//! first use — a shard whose tenants all arrived by restore never routes,
//! so it never builds one), the per-context compiled planes and their
//! prebound plans (Arc-shared through the coordinator's plane cache, at
//! any context index — installing a plane clones pointers, never a plane
//! or a binding), its own
//! [`ContextSequencer`] (CSS broadcast position is per-shard physical
//! state), its partition of the service's batch queue, and the usage
//! counters + stream-register files of the tenants placed on it.
//!
//! A sweep is split into three phases so its only parallel part is pure:
//!
//! 1. **Plan** (`plan_sweep`), sequential on
//!    the coordinator: the CSS schedule is computed, the broadcast steps
//!    through it (switch toggles are charged here — the broadcast spends
//!    that energy whether or not the pass later resolves), and each active
//!    slot becomes one owned `PlannedStep` carrying its compiled-plane
//!    `Arc`, input lane chunks (queued requests plus the tenant's `reg:*`
//!    stream state) and its `(shard, sweep-position)` merge key.
//! 2. **Eval** (`eval_step`), the only concurrent phase: a pure
//!    function from a `PlannedStep` to output lane chunks, safe to run on
//!    any worker in any order — steps share nothing but immutable `Arc`s
//!    and a per-thread scratch.
//! 3. **Apply** (`apply_step`), sequential on
//!    the coordinator **in merge-key order** (shard, then sweep
//!    position): consumes the slot's batch on success, harvests `reg:*`
//!    chunks, writes the visible outputs into the slot's recycled output
//!    table and hands each response a view of its lane's row, records a
//!    [`crate::service::SlotFault`] on failure (requests stay queued).
//!    Thread completion order never
//!    reaches this phase, so output is bit-for-bit identical at every
//!    worker count and lane width.
//!
//! Tenant mobility across engines is an explicit two-step handoff —
//! `expel` on the source, then `adopt` on the destination (both
//! crate-internal; the coordinator's migration ops drive them) — so
//! ownership of a
//! tenant's plane, queued lanes, registers and usage moves atomically from
//! one engine to another (the coordinator sequences the two calls; they
//! work unchanged when source and destination are the same engine).

use crate::batch::{
    BatchQueue, OutputRows, Outputs, RequestId, RequestIdSource, Response, TakenBatch,
};
use crate::registry::{CachedPlane, TenantId};
use crate::service::SlotFault;
use crate::ServiceError;
use mcfpga_cost::attribution::TenantUsage;
use mcfpga_css::optimize::{CostMatrix, OptimizeMode};
use mcfpga_css::{CssError, SweepScratch};
use mcfpga_fabric::compiled::{
    chunk_bit, BoundPlan, CompiledState, EvalStats, LaneBatch, LaneChunk, PushRefusal, DIRTY_ALL,
    LANE_WORDS,
};
use mcfpga_fabric::context::ContextSequencer;
use mcfpga_fabric::{CompiledFabric, Fabric, FabricParams, RegisterFile};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Per-tenant state an engine keeps for each tenant placed on it: the
/// usage counters billing reads, the stream-register file carried
/// between the tenant's passes, and the input columns its requests
/// drive. Moves wholesale in a migration handoff.
#[derive(Debug, Clone, Default)]
pub(crate) struct TenantState {
    /// Accumulated usage counters (requests, passes, toggles, migrations).
    pub usage: TenantUsage,
    /// `reg:*` stream state (lane words from the tenant's previous pass).
    pub regs: RegisterFile,
    /// The tenant's input columns ([`BoundPlan::input_columns`] of its
    /// plane), fixed when it is admitted or restored. Installing a plane
    /// — faulted, repaired or shared — never changes them.
    pub columns: Arc<[Arc<str>]>,
}

/// Everything a tenant hands from one engine to another in a migration:
/// produced by [`ShardEngine::expel`], consumed by
/// [`ShardEngine::adopt`].
#[derive(Debug)]
pub(crate) struct TenantHandoff {
    /// Usage + registers, moved (the source engine forgets the tenant).
    pub state: TenantState,
    /// The tenant's queued-but-unexecuted requests, original ids intact.
    pub batch: Option<TakenBatch>,
}

/// One per-context sweep task, planned sequentially and evaluated (maybe
/// concurrently, on whichever pool worker claims it) by [`eval_step`].
/// Owns everything its evaluation needs — plane `Arc`, prebound plan,
/// dense input chunks, occupied word count — so the worker borrows
/// nothing from the engine: the engine's queue still holds the slot's
/// batch, which is consumed only at apply time on success, and the
/// `(shard, pos)` pair is the deterministic merge key the coordinator
/// orders applies by.
#[derive(Debug, Clone)]
pub(crate) struct PlannedStep {
    /// Shard of the slot (first half of the merge key).
    pub shard: usize,
    /// Position within the shard's planned sweep (second half of the
    /// merge key).
    pub pos: usize,
    /// The context slot to evaluate (where the broadcast steps; the plane
    /// is evaluated at its bound plan's own context).
    pub ctx: usize,
    /// The slot's occupant.
    pub tenant: TenantId,
    /// Occupied 64-lane words ([`LaneBatch::words`]) — sparse batches pay
    /// for only the words they fill: the straight-line kernel computes
    /// just these words of every LUT.
    pub words: usize,
    /// The slot's compiled plane (shared, immutable).
    pub plane: Arc<CompiledFabric>,
    /// The slot's prebound IO plan (shared, immutable). `None` only when
    /// binding failed at install time — evaluation then reproduces the
    /// plane-access error.
    pub bound: Option<Arc<BoundPlan>>,
    /// Dense input chunks, parallel to the bound plan's inputs: queued
    /// request lanes plus the tenant's `reg:*` stream state, captured at
    /// plan time. A kernel slot's buffer is its slot cache's previous
    /// inputs, overwritten in place, and returns to the cache at apply.
    pub chunks: Vec<LaneChunk>,
    /// Dirty mask over the bound inputs vs the slot's previous sweep
    /// ([`DIRTY_ALL`] when no valid cached sweep exists).
    pub dirty: u64,
    /// The slot's persistent evaluation state (kernel slots only): moved
    /// out of the slot cache at plan time, returned to it at apply time —
    /// the arena the dirty-cone path reuses values from.
    pub state: Option<CompiledState>,
    /// The buffer evaluation writes the output chunks into: the slot's,
    /// lent out at plan time and returned by a successful apply.
    pub outs: Vec<LaneChunk>,
}

/// What one evaluated step hands to the apply phase.
#[derive(Debug)]
pub(crate) struct EvalOutcome {
    /// Output chunks, parallel to the bound plan's outputs.
    pub outs: Vec<LaneChunk>,
    /// Deterministic op accounting for the pass.
    pub stats: EvalStats,
}

thread_local! {
    /// Per-thread evaluation scratch for steps without a persistent slot
    /// state (non-kernel planes), reused across steps: pool workers and
    /// the coordinator thread each keep one, so steady-state sweeps
    /// re-allocate no arenas. `eval_bound_into` rebuilds it when a
    /// plane's resource layout differs from the scratch's.
    static EVAL_SCRATCH: RefCell<Option<CompiledState>> = const { RefCell::new(None) };
}

/// Evaluates one planned step — the **pure** phase of a sweep, safe on
/// any thread: reads only the step's own data (and a thread-local
/// scratch), mutates no engine state beyond the step's own carried
/// arena. An `Err` here is the *pass* failing;
/// [`ShardEngine::apply_step`] turns it into a [`SlotFault`] with the
/// requests left queued.
pub(crate) fn eval_step(step: &mut PlannedStep) -> Result<EvalOutcome, ServiceError> {
    let Some(bound) = step.bound.clone() else {
        // binding failed at install: reproduce the plane-access error the
        // name-keyed path would have raised
        let ctx = step.plane.compiled_context().unwrap_or(step.ctx);
        return match step.plane.plane(ctx) {
            Err(e) => Err(e.into()),
            Ok(_) => Err(ServiceError::SlotNotProgrammed {
                shard: step.shard,
                ctx: step.ctx,
            }),
        };
    };
    let mut outs = std::mem::take(&mut step.outs);
    let stats = if let Some(state) = step.state.as_mut() {
        step.plane.eval_bound_into(
            &bound,
            &step.chunks,
            step.words,
            step.dirty,
            state,
            &mut outs,
        )?
    } else if step.plane.has_kernel(bound.ctx()) {
        // first sweep of a kernel slot: allocate the arena that will
        // persist in the slot cache from here on
        let mut st = step.plane.new_state();
        let stats = step.plane.eval_bound_into(
            &bound,
            &step.chunks,
            step.words,
            DIRTY_ALL,
            &mut st,
            &mut outs,
        )?;
        step.state = Some(st);
        stats
    } else {
        EVAL_SCRATCH.with(|cell| {
            let mut slot = cell.borrow_mut();
            let scratch = slot.get_or_insert_with(|| step.plane.new_state());
            step.plane.eval_bound_into(
                &bound,
                &step.chunks,
                step.words,
                DIRTY_ALL,
                scratch,
                &mut outs,
            )
        })?
    };
    Ok(EvalOutcome { outs, stats })
}

/// Output tables a slot keeps for reuse. Two let a consumer hold one
/// pass's responses while the next pass writes the other table.
const POOLED_TABLES: usize = 2;

/// Admission-time binding state of one context slot, kept parallel to
/// the engine's plane pointers and rebuilt whenever a plane is installed
/// or the slot is freed — the "resolve names once" half of the v2
/// pipeline.
#[derive(Debug, Clone, Default)]
struct BoundSlot {
    /// The installed plane's prebound IO plan.
    plan: Option<Arc<BoundPlan>>,
    /// The completed previous sweep (kernel slots only), fueling the
    /// dirty-cone incremental path.
    cache: Option<SlotCache>,
    /// Batch column of each bound input, in bind order, so planning
    /// reads request chunks without comparing names. A `reg:*` input has
    /// no column (it is fed from the tenant's [`RegisterFile`]) and holds
    /// 0, unused.
    columns: Vec<u32>,
    /// Up to [`POOLED_TABLES`] output tables of this slot's past passes,
    /// least recently written first. Their rows already hold `plan`'s
    /// visible output names, which is why a rebuilt slot (new plan, or
    /// none) starts with no tables. A cloned engine shares them, so
    /// neither copy rewrites them.
    tables: Vec<Arc<OutputRows>>,
    /// The output-chunk buffer of this slot's passes, lent to each
    /// [`PlannedStep`] and returned by its apply.
    outs: Vec<LaneChunk>,
}

impl BoundSlot {
    /// The output table the next pass writes: the most recently written
    /// pooled table that no response views any more (`Arc::get_mut`
    /// proves it), else a new one, evicting the least recently written
    /// table when the pool is full (its views keep it alive). Hand it
    /// back with [`pool_table`](Self::pool_table).
    fn claim_table(&mut self) -> Arc<OutputRows> {
        match self
            .tables
            .iter_mut()
            .rposition(|t| Arc::get_mut(t).is_some())
        {
            Some(i) => self.tables.remove(i),
            None => {
                if self.tables.len() == POOLED_TABLES {
                    self.tables.remove(0);
                }
                Arc::default()
            }
        }
    }

    /// Returns a claimed table to the pool as the most recently written.
    fn pool_table(&mut self, table: Arc<OutputRows>) {
        debug_assert!(self.tables.len() < POOLED_TABLES, "pool over capacity");
        self.tables.push(table);
    }
}

/// A kernel slot's completed sweep: the dense input chunks it consumed
/// and the evaluation arena it filled, reused by the next sweep to skip
/// ops outside the dirty cone.
#[derive(Debug, Clone)]
struct SlotCache {
    tenant: TenantId,
    words: usize,
    inputs: Vec<LaneChunk>,
    state: CompiledState,
}

/// An engine's reusable planning buffers. A shard sweeps at most its
/// context count, so once these have grown to it planning allocates
/// nothing.
#[derive(Debug, Clone, Default)]
struct PlanScratch {
    /// The naive sweep: the active contexts, ascending.
    naive: Vec<usize>,
    /// Toggles of each naive step from the broadcast's position,
    /// parallel to `naive` — the billing baseline.
    baseline: Vec<usize>,
    /// The sweep order the shard runs.
    order: Vec<usize>,
    /// The CSS optimizer's working memory.
    sweep: SweepScratch,
}

/// One independent fabric shard's execution engine. See the
/// [module docs](self) for the ownership map.
#[derive(Debug, Clone)]
pub struct ShardEngine {
    /// This engine's shard index (stamped into fault records).
    shard: usize,
    /// The geometry `fabric` is built with.
    params: FabricParams,
    /// The routed fabric, built on first use ([`Self::fabric`]): only an
    /// admission routes, so an engine that only ever receives restored
    /// or migrated tenants never pays for one.
    fabric: OnceLock<Fabric>,
    /// Per-context compiled plane (Arc-shared through the digest cache,
    /// whatever the context index).
    planes: Vec<Option<Arc<CompiledFabric>>>,
    /// Per-context prebound plan + dirty-cone sweep cache, parallel to
    /// `planes`.
    bound: Vec<BoundSlot>,
    seq: ContextSequencer,
    /// This shard's partition of the service's pending work.
    queue: BatchQueue,
    /// Usage + stream registers of tenants placed on this shard.
    tenants: HashMap<TenantId, TenantState>,
    /// Planning buffers, reused by every sweep.
    scratch: PlanScratch,
}

impl ShardEngine {
    /// A fresh engine for shard `shard` with geometry `params`, batching
    /// up to `lane_width` requests per slot per pass. Refuses bad `params`
    /// here, with [`Fabric::new`]'s error ([`FabricParams::validate`]),
    /// though the fabric itself is built only when first needed.
    pub fn new(
        shard: usize,
        params: FabricParams,
        lane_width: usize,
    ) -> Result<Self, ServiceError> {
        params.validate()?;
        Ok(ShardEngine {
            shard,
            params,
            fabric: OnceLock::new(),
            planes: vec![None; params.contexts],
            bound: vec![BoundSlot::default(); params.contexts],
            seq: ContextSequencer::new(params.arch, params.contexts)?,
            queue: BatchQueue::with_width(params.contexts, lane_width)?,
            tenants: HashMap::new(),
            scratch: PlanScratch::default(),
        })
    }

    /// Lanes coalesced per slot per pass.
    #[must_use]
    pub fn lane_width(&self) -> usize {
        self.queue.width()
    }

    /// Rebuilds this engine's queue partition at `width` lanes per slot,
    /// keeping every slot's columns. The coordinator guarantees no work is
    /// pending (it refuses the width change otherwise — a rebuild would
    /// silently drop queued requests).
    pub(crate) fn set_lane_width(&mut self, width: usize) -> Result<(), ServiceError> {
        debug_assert_eq!(
            self.queue.pending_total(),
            0,
            "lane-width change with requests pending"
        );
        self.queue.set_width(width)?;
        for slot in &mut self.bound {
            // a cached sweep at the old width cannot seed the new one
            slot.cache = None;
        }
        Ok(())
    }

    /// This engine's shard index.
    #[must_use]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The routed fabric, for admission-time routing and digests; built
    /// blank on first use.
    pub(crate) fn fabric_mut(&mut self) -> &mut Fabric {
        self.fabric();
        self.fabric.get_mut().expect("built by `fabric`")
    }

    /// Has anything built this engine's fabric yet?
    #[cfg(test)]
    pub(crate) fn has_fabric(&self) -> bool {
        self.fabric.get().is_some()
    }

    /// The routed fabric, read-only; built blank on first use.
    pub(crate) fn fabric(&self) -> &Fabric {
        self.fabric.get_or_init(|| {
            Fabric::new(self.params).expect("`ShardEngine::new` validated the params")
        })
    }

    /// Installs (or replaces) the compiled plane of context `ctx`,
    /// binding it here — the path for a plane the cache does not hold
    /// (a chaos hook's poisoned plane). See
    /// [`install_cached`](Self::install_cached).
    pub(crate) fn install_plane(
        &mut self,
        ctx: usize,
        plane: Arc<CompiledFabric>,
    ) -> Result<(), ServiceError> {
        self.install_cached(ctx, &CachedPlane::new(plane))
    }

    /// Installs (or replaces) the compiled plane of context `ctx` with
    /// its prebound plan — `Arc` clones of a cache entry, never a copy or
    /// a re-bind, whatever context the plane was compiled in. Each bound
    /// input is resolved to its column of the slot's batch; the slot's
    /// dirty-cone cache is discarded (it described sweeps of the previous
    /// plane). Refuses, changing nothing, a plane that binds a
    /// non-register input the slot's columns lack: the tenant's requests
    /// never drive it.
    pub(crate) fn install_cached(
        &mut self,
        ctx: usize,
        cached: &CachedPlane,
    ) -> Result<(), ServiceError> {
        let plan = cached.bound.clone();
        let columns = self.queue.columns(ctx);
        let mut index = Vec::new();
        let mut next = 0;
        for (_, name, is_reg) in plan.iter().flat_map(|p| p.inputs()) {
            if *is_reg {
                index.push(0);
                continue;
            }
            // columns follow bind order: probe the one after the last match
            let col = match columns.get(next) {
                Some(c) if c == name => next,
                _ => columns.iter().position(|c| c == name).ok_or_else(|| {
                    ServiceError::BadConfig(format!(
                        "plane for slot (shard {}, ctx {ctx}) binds input '{name}', \
                         which is not one of its tenant's input columns",
                        self.shard
                    ))
                })?,
            };
            next = col + 1;
            index.push(col as u32);
        }
        self.bound[ctx] = BoundSlot {
            plan,
            columns: index,
            ..BoundSlot::default()
        };
        self.planes[ctx] = Some(Arc::clone(&cached.plane));
        Ok(())
    }

    /// Output tables pooled on slot `ctx`.
    #[cfg(test)]
    pub(crate) fn pooled_tables(&self, ctx: usize) -> usize {
        self.bound[ctx].tables.len()
    }

    /// The compiled plane of context `ctx`, if programmed.
    #[cfg(test)]
    pub(crate) fn plane(&self, ctx: usize) -> Option<Arc<CompiledFabric>> {
        self.planes[ctx].clone()
    }

    /// The prebound plan of context `ctx`, if programmed and bound.
    #[cfg(test)]
    pub(crate) fn plan(&self, ctx: usize) -> Option<Arc<BoundPlan>> {
        self.bound[ctx].plan.clone()
    }

    /// The plane installed on context `ctx` with its prebound plan and
    /// the slot's columns, if programmed — what a migration carries to
    /// the destination slot.
    pub(crate) fn installed(&self, ctx: usize) -> Option<CachedPlane> {
        Some(CachedPlane {
            plane: self.planes[ctx].clone()?,
            bound: self.bound[ctx].plan.clone(),
            columns: Arc::clone(self.queue.columns(ctx)),
        })
    }

    /// Where this shard's CSS broadcast currently sits.
    #[must_use]
    pub fn css_position(&self) -> usize {
        self.seq.current()
    }

    /// Parks the CSS broadcast on `ctx` without charging toggles (restore
    /// path; see [`ContextSequencer::resume_at`]).
    pub(crate) fn resume_css_at(&mut self, ctx: usize) -> Result<(), ServiceError> {
        self.seq.resume_at(ctx)?;
        Ok(())
    }

    /// The engine's sequencer, read-only (cost-matrix construction).
    pub(crate) fn sequencer(&self) -> &ContextSequencer {
        &self.seq
    }

    /// One placed tenant's state, read-only.
    pub(crate) fn tenant_state(&self, tenant: TenantId) -> Result<&TenantState, ServiceError> {
        self.tenants
            .get(&tenant)
            .ok_or(ServiceError::UnknownTenant(tenant.index()))
    }

    /// One placed tenant's state, mutable (usage charging at the
    /// coordinator's side of a migration).
    pub(crate) fn tenant_state_mut(
        &mut self,
        tenant: TenantId,
    ) -> Result<&mut TenantState, ServiceError> {
        self.tenants
            .get_mut(&tenant)
            .ok_or(ServiceError::UnknownTenant(tenant.index()))
    }

    /// Enqueues one request on `ctx`'s lane batch, charging the tenant's
    /// request counter. Returns the minted id and whether the slot's
    /// lanes are now full (the coordinator should flush this engine).
    pub(crate) fn submit(
        &mut self,
        ctx: usize,
        tenant: TenantId,
        inputs: &[(&str, bool)],
        ids: &mut RequestIdSource,
    ) -> Result<(RequestId, bool), ServiceError> {
        let pushed = self.queue.enqueue(ctx, tenant, inputs, ids);
        self.charge_enqueued(ctx, tenant, pushed)
    }

    /// [`submit`](Self::submit) for a request already resolved into an
    /// input row over the tenant's columns; it can only be refused as
    /// [`ServiceError::SlotBacklogged`].
    pub(crate) fn submit_row(
        &mut self,
        ctx: usize,
        tenant: TenantId,
        row: &[u64],
        ids: &mut RequestIdSource,
    ) -> Result<(RequestId, bool), ServiceError> {
        let pushed = self.queue.enqueue_row(ctx, tenant, row, ids);
        self.charge_enqueued(ctx, tenant, pushed)
    }

    /// The shared tail of [`submit`](Self::submit) and
    /// [`submit_row`](Self::submit_row): types a refusal, or charges the
    /// tenant's request counter.
    fn charge_enqueued(
        &mut self,
        ctx: usize,
        tenant: TenantId,
        pushed: Result<(RequestId, bool), PushRefusal>,
    ) -> Result<(RequestId, bool), ServiceError> {
        let (id, full) = match pushed {
            Ok(ok) => ok,
            Err(PushRefusal::Full) => {
                return Err(ServiceError::SlotBacklogged {
                    shard: self.shard,
                    ctx,
                })
            }
            Err(PushRefusal::MissingInput(col)) => {
                let name = self.queue.columns(ctx)[col].to_string();
                return Err(ServiceError::MissingInput { name });
            }
        };
        self.tenant_state_mut(tenant)?.usage.requests += 1;
        Ok((id, full))
    }

    /// Discards `ctx`'s queued, not-yet-executed requests (un-counting
    /// them from `tenant`'s usage) and returns how many were dropped.
    pub(crate) fn discard_pending(
        &mut self,
        ctx: usize,
        tenant: TenantId,
    ) -> Result<usize, ServiceError> {
        let dropped = self.queue.clear(ctx);
        self.tenant_state_mut(tenant)?.usage.requests -= dropped;
        Ok(dropped)
    }

    /// Context slots with pending work, ascending.
    #[must_use]
    pub fn pending(&self) -> Vec<usize> {
        self.queue.pending()
    }

    /// Requests parked on this shard, not yet executed.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.queue.pending_total()
    }

    /// A slot's pending lane batch, if non-empty (checkpoint capture).
    pub(crate) fn pending_batch(&self, ctx: usize) -> Option<&LaneBatch> {
        self.queue.slot(ctx)
    }

    /// A slot's `(request, tenant)` tickets, lane order.
    pub(crate) fn tickets(&self, ctx: usize) -> &[(RequestId, TenantId)] {
        self.queue.tickets(ctx)
    }

    /// The source half of a migration handoff: surrenders `tenant`'s
    /// per-tenant state and queued lanes, wipes its slot (plane pointer,
    /// queue names, and — for a fabric-resident tenant — the routed
    /// context itself), and forgets the tenant. The caller has already
    /// cloned the plane `Arc` and completed every fallible pre-check, so
    /// this only performs the destructive move.
    pub(crate) fn expel(
        &mut self,
        tenant: TenantId,
        ctx: usize,
        resident: bool,
    ) -> Result<TenantHandoff, ServiceError> {
        let state = self
            .tenants
            .remove(&tenant)
            .ok_or(ServiceError::UnknownTenant(tenant.index()))?;
        self.planes[ctx] = None;
        self.bound[ctx] = BoundSlot::default();
        if resident {
            self.fabric_mut().clear_context(ctx)?;
        }
        let batch = self.queue.vacate(ctx);
        Ok(TenantHandoff { state, batch })
    }

    /// Lands `tenant` on the free slot `ctx` — the destination half of a
    /// migration handoff, and how admission and restore place a new
    /// tenant: opens the slot over the tenant's input columns, re-queues
    /// the moved lanes with their original ids, installs the shared plane
    /// and its plan (see [`install_cached`](Self::install_cached)) and
    /// adopts the tenant's state.
    pub(crate) fn adopt(
        &mut self,
        tenant: TenantId,
        ctx: usize,
        plane: &CachedPlane,
        handoff: TenantHandoff,
    ) -> Result<(), ServiceError> {
        self.queue.open(ctx, Arc::clone(&handoff.state.columns));
        if let Some(batch) = handoff.batch {
            self.queue.install(ctx, batch);
        }
        self.install_cached(ctx, plane)?;
        self.tenants.insert(tenant, handoff.state);
        Ok(())
    }

    /// Plans this shard's sweep over its `active` slots — each
    /// `(context, occupant)` precomputed by the coordinator — in CSS
    /// schedule order, reordered for minimum broadcast toggles under
    /// [`OptimizeMode::Optimized`]. One [`PlannedStep`] is appended to
    /// `steps` per active slot with queued work, carrying its
    /// `(shard, pos)` merge key.
    ///
    /// Planning **is** the sweep's switch sequence: the sequencer steps
    /// through the schedule here, and CSS switch energy is charged to the
    /// tenant switched in, alongside the *baseline* toggles the naive
    /// ascending order would have charged (so each bill carries what the
    /// optimizer saved; see [`mcfpga_cost::attribution`]). The broadcast
    /// spends that energy whether or not the step's pass later resolves.
    ///
    /// Returns the CSS toggles charged, so the coordinator can mirror them
    /// into its counter without re-summing every tenant's usage.
    ///
    /// A structural failure (a broken schedule domain or plane invariant
    /// — never a mere failed pass, which surfaces at apply time as a
    /// [`SlotFault`]) stops the planning and is returned **alongside**
    /// the steps planned (and toggles charged) first: those steps still
    /// evaluate and apply, so no already-scheduled switch loses its pass.
    pub(crate) fn plan_sweep(
        &mut self,
        active: &[(usize, TenantId)],
        optimize: OptimizeMode,
        matrix: &CostMatrix,
        steps: &mut Vec<PlannedStep>,
    ) -> (u64, Option<ServiceError>) {
        let mut charged = 0;
        let mut scratch = std::mem::take(&mut self.scratch);
        let error = self
            .plan_into(active, optimize, matrix, &mut scratch, steps, &mut charged)
            .err();
        self.scratch = scratch;
        (charged, error)
    }

    /// [`plan_sweep`](Self::plan_sweep)'s body; an early `?` loses no
    /// step already pushed and no toggle already charged.
    fn plan_into(
        &mut self,
        active: &[(usize, TenantId)],
        optimize: OptimizeMode,
        matrix: &CostMatrix,
        scratch: &mut PlanScratch,
        steps: &mut Vec<PlannedStep>,
        charged: &mut u64,
    ) -> Result<(), ServiceError> {
        if active.is_empty() {
            return Ok(());
        }
        let contexts = self.seq.contexts();
        let PlanScratch {
            naive,
            baseline,
            order,
            sweep,
        } = scratch;
        // the naive sweep: each active context once, ascending (what
        // `Schedule::active_sweep` builds)
        naive.clear();
        for &(ctx, _) in active {
            if ctx >= contexts {
                return Err(CssError::ContextOutOfRange { ctx, contexts }.into());
            }
            naive.push(ctx);
        }
        naive.sort_unstable();
        naive.dedup();
        // the counterfactual: per-context toggles of the naive ascending
        // walk from the broadcast's current position
        baseline.clear();
        let mut prev = self.seq.current();
        for &ctx in naive.iter() {
            baseline.push(matrix.cost(prev, ctx)?);
            prev = ctx;
        }
        self.seq
            .plan_sweep_into(naive, optimize, matrix, sweep, order)?;
        let mut pos = 0;
        for &ctx in order.iter() {
            let Some(batch) = self.queue.slot(ctx) else {
                continue;
            };
            let tenant = active
                .iter()
                .find(|(c, _)| *c == ctx)
                .map(|(_, t)| *t)
                .ok_or(ServiceError::SlotNotProgrammed {
                    shard: self.shard,
                    ctx,
                })?;
            let plane = self.planes[ctx]
                .clone()
                .ok_or(ServiceError::SlotNotProgrammed {
                    shard: self.shard,
                    ctx,
                })?;
            let toggles = self.seq.step_to(ctx)?;
            // each active context appears exactly once in a sweep, so the
            // naive step into `ctx` is its baseline
            let toggles_baseline = naive.binary_search(&ctx).map_or(toggles, |i| baseline[i]);
            let tenant_state = self
                .tenants
                .get_mut(&tenant)
                .ok_or(ServiceError::UnknownTenant(tenant.index()))?;
            tenant_state.usage.css_toggles += toggles;
            tenant_state.usage.css_toggles_baseline += toggles_baseline;
            *charged += toggles as u64;
            let tenant_regs = &tenant_state.regs;
            let words = batch.words();
            let slot = &mut self.bound[ctx];
            let bound = slot.plan.clone();
            let inputs = bound.as_ref().map_or(0, |b| b.inputs().len());
            // dirty-cone basis: reuse the slot's cached sweep only when it
            // demonstrably describes the same tenant, word count and input
            // arity (the kernel path then skips ops whose cone is clean).
            // The cache's input buffer becomes this step's, either way.
            let kernel_ok =
                inputs <= 64 && bound.as_ref().is_some_and(|b| plane.has_kernel(b.ctx()));
            let (mut chunks, state, cached) = match slot.cache.take_if(|_| kernel_ok) {
                Some(cache) => {
                    let cached = cache.tenant == tenant
                        && cache.words == words
                        && cache.inputs.len() == inputs;
                    (cache.inputs, Some(cache.state), cached)
                }
                None => (Vec::new(), None, false),
            };
            let mut dirty = if cached { 0 } else { DIRTY_ALL };
            if !cached {
                chunks.clear();
            }
            if let Some(bound) = &bound {
                let column_chunks = batch.chunks();
                let sources = bound.inputs().iter().zip(&slot.columns);
                for (i, ((_, name, is_reg), &col)) in sources.enumerate() {
                    let chunk = if *is_reg {
                        // stream registers come only from the tenant's
                        // register file (0 before the first pass) —
                        // lane-aligned, so lane `l` of pass `p+1`
                        // consumes the state lane `l` of pass `p`
                        // produced
                        tenant_regs.get_chunk(name).unwrap_or([0u64; LANE_WORDS])
                    } else {
                        column_chunks[col as usize]
                    };
                    if !cached {
                        chunks.push(chunk);
                    } else if chunks[i] != chunk {
                        chunks[i] = chunk;
                        dirty |= 1 << i;
                    }
                }
            }
            steps.push(PlannedStep {
                shard: self.shard,
                pos,
                ctx,
                tenant,
                words,
                plane,
                bound,
                chunks,
                dirty,
                state,
                outs: std::mem::take(&mut slot.outs),
            });
            pos += 1;
        }
        Ok(())
    }

    /// Applies one evaluated step — the coordinator calls this
    /// sequentially, in merge-key order. On a failed pass the slot's
    /// requests stay queued and a [`SlotFault`] is recorded (the switch
    /// into the context was already charged at plan time). On success the
    /// slot's batch is consumed: `reg:*` output chunks are harvested into
    /// the tenant's register file (state, not answers), the visible
    /// outputs are written into one lane-major **output table** (a
    /// reused table only rewrites its values, so a steady-state pass
    /// allocates no rows and clones no names), every lane's response
    /// gets a view of its row, and a kernel slot's inputs + arena return
    /// to the slot cache to fuel the next sweep's dirty-cone skip.
    /// Returns the pass's [`EvalStats`] (`None` for a faulted pass) so the
    /// coordinator can bump the deterministic op counters in apply order.
    ///
    /// An `Err` from *this* function is structural and leaves the slot's
    /// requests queued: [`ServiceError::UnknownTenant`] if the planned
    /// tenant vanished, [`ServiceError::StaleStep`] if the pass did not
    /// run through the slot's current bound plan or the slot's batch is
    /// gone. The coordinator sequences every mutation between plan and
    /// apply, so neither happens through the public API.
    pub(crate) fn apply_step(
        &mut self,
        step: &mut PlannedStep,
        outcome: Result<EvalOutcome, ServiceError>,
        responses: &mut Vec<Response>,
        faults: &mut Vec<SlotFault>,
    ) -> Result<Option<EvalStats>, ServiceError> {
        debug_assert_eq!(step.shard, self.shard, "step applied to the wrong engine");
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(error) => {
                faults.push(SlotFault {
                    tenant: step.tenant,
                    shard: self.shard,
                    ctx: step.ctx,
                    error,
                });
                // a faulted pass leaves no completed sweep to reuse
                self.bound[step.ctx].cache = None;
                return Ok(None);
            }
        };
        let stale = ServiceError::StaleStep {
            shard: self.shard,
            ctx: step.ctx,
        };
        let slot = &mut self.bound[step.ctx];
        // the pooled tables' names are the slot plan's: only a pass run
        // through that very plan may write them
        let bound = match (&step.bound, &slot.plan) {
            (Some(bound), Some(plan)) if Arc::ptr_eq(bound, plan) => bound,
            _ => return Err(stale),
        };
        let state = self
            .tenants
            .get_mut(&step.tenant)
            .ok_or(ServiceError::UnknownTenant(step.tenant.index()))?;
        let tickets = self.queue.tickets(step.ctx);
        if tickets.is_empty() {
            return Err(stale);
        }
        state.usage.passes += 1;
        let width = bound.outputs().iter().filter(|(_, _, reg)| !reg).count();
        let lanes = tickets.len();
        let mut table = slot.claim_table();
        let rows = Arc::make_mut(&mut table);
        if width > 0 && rows.len() < lanes * width {
            // first pass this wide: append rows for the new lanes, the
            // only place a pass clones names
            for _ in rows.len() / width..lanes {
                rows.extend(
                    bound
                        .outputs()
                        .iter()
                        .filter(|(_, _, reg)| !reg)
                        .map(|(_, name, _)| (Arc::clone(name), false)),
                );
            }
        }
        let mut col = 0;
        for ((_, name, is_reg), chunk) in bound.outputs().iter().zip(&outcome.outs) {
            if *is_reg {
                state.regs.set_chunk(name, *chunk);
                continue;
            }
            let column = rows[col..].iter_mut().step_by(width).take(lanes);
            for (lane, row) in column.enumerate() {
                row.1 = chunk_bit(chunk, lane);
            }
            col += 1;
        }
        responses.reserve(lanes);
        for (lane, (request, owner)) in tickets.iter().enumerate() {
            responses.push(Response {
                request: *request,
                tenant: *owner,
                outputs: Outputs::view(&table, lane * width, (lane + 1) * width),
            });
        }
        slot.pool_table(table);
        slot.outs = outcome.outs;
        // empty the batch in place, buffers kept, so steady-state flushes
        // re-allocate nothing
        self.queue.clear(step.ctx);
        if outcome.stats.kernel {
            if let Some(arena) = step.state.take() {
                slot.cache = Some(SlotCache {
                    tenant: step.tenant,
                    words: step.words,
                    inputs: std::mem::take(&mut step.chunks),
                    state: arena,
                });
            }
        }
        Ok(Some(outcome.stats))
    }
}

// A future `Rc`, raw pointer or other non-thread-safe field anywhere in
// these ownership trees must fail the *build*, not a code review: the
// fork-join pool moves owned `PlannedStep`s across threads, and engines are
// carried inside `ShardedService` clones.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardEngine>();
    assert_send_sync::<PlannedStep>();
    assert_send_sync::<ServiceError>();
};
