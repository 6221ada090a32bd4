//! The per-shard execution engine.
//!
//! A [`ShardEngine`] owns **everything one fabric shard needs to execute a
//! sweep without touching another shard**: its routed [`Fabric`], the
//! per-context compiled planes (Arc-shared through the coordinator's plane
//! cache — installing a plane clones a pointer, never a plane), its own
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
use crate::registry::TenantId;
use crate::service::SlotFault;
use crate::ServiceError;
use mcfpga_cost::attribution::TenantUsage;
use mcfpga_css::optimize::{CostMatrix, OptimizeMode};
use mcfpga_css::Schedule;
use mcfpga_fabric::compiled::{
    chunk_bit, BoundPlan, CompiledState, EvalStats, LaneBatch, LaneChunk, PushRefusal, DIRTY_ALL,
    LANE_WORDS,
};
use mcfpga_fabric::context::ContextSequencer;
use mcfpga_fabric::{CompiledFabric, Fabric, FabricParams, RegisterFile};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Prefix of signal names that are *stream registers*: outputs so named
/// are captured into the tenant's [`RegisterFile`] after each pass and
/// re-driven as inputs on its next pass (lane-aligned), instead of being
/// returned in responses. Re-exported from the fabric crate, which owns
/// the convention (`fabric::temporal` uses it for values crossing
/// context-switch boundaries).
pub(crate) use mcfpga_fabric::compiled::REG_PREFIX;

/// Per-tenant state an engine keeps for each tenant placed on it: the
/// usage counters billing reads and the stream-register file carried
/// between the tenant's passes. Moves wholesale in a migration handoff.
#[derive(Debug, Clone, Default)]
pub(crate) struct TenantState {
    /// Accumulated usage counters (requests, passes, toggles, migrations).
    pub usage: TenantUsage,
    /// `reg:*` stream state (lane words from the tenant's previous pass).
    pub regs: RegisterFile,
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
    /// The context slot to evaluate.
    pub ctx: usize,
    /// The slot's occupant.
    pub tenant: TenantId,
    /// Occupied 64-lane words ([`LaneBatch::words`]) — sparse batches pay
    /// for only the words they fill.
    pub words: usize,
    /// The slot's compiled plane (shared, immutable).
    pub plane: Arc<CompiledFabric>,
    /// The slot's prebound IO plan (shared, immutable). `None` only when
    /// binding failed at install time — evaluation then reproduces the
    /// plane-access error.
    pub bound: Option<Arc<BoundPlan>>,
    /// Dense input chunks, parallel to the bound plan's inputs: queued
    /// request lanes plus the tenant's `reg:*` stream state, captured at
    /// plan time.
    pub chunks: Vec<LaneChunk>,
    /// Dirty mask over the bound inputs vs the slot's previous sweep
    /// ([`DIRTY_ALL`] when no valid cached sweep exists).
    pub dirty: u64,
    /// A bound non-register input the batch union lacked (possible only
    /// on a slot installed without seeding): evaluation must fail with
    /// the interpreter's exact undriven-input error.
    pub missing: Option<Arc<str>>,
    /// The slot's persistent evaluation state (kernel slots only): moved
    /// out of the slot cache at plan time, returned to it at apply time —
    /// the arena the dirty-cone path reuses values from.
    pub state: Option<CompiledState>,
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
        return match step.plane.plane(step.ctx) {
            Err(e) => Err(e.into()),
            Ok(_) => Err(ServiceError::SlotNotProgrammed {
                shard: step.shard,
                ctx: step.ctx,
            }),
        };
    };
    if let Some(name) = &step.missing {
        return Err(
            mcfpga_fabric::FabricError::Unresolved(format!("input '{name}' not driven")).into(),
        );
    }
    let mut outs = Vec::with_capacity(bound.outputs().len());
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
    /// Batch-union index of each bound input, in bind order
    /// (`u32::MAX` = not in the canonical prefix, i.e. a `reg:*` input
    /// fed from the tenant's [`RegisterFile`]); rebuilt by
    /// [`ShardEngine::seed_slot`].
    batch_idx: Vec<u32>,
    /// Up to [`POOLED_TABLES`] output tables of this slot's past passes,
    /// least recently written first. Their rows already hold `plan`'s
    /// visible output names, which is why a rebuilt slot (new plan, or
    /// none) starts with no tables. A cloned engine shares them, so
    /// neither copy rewrites them.
    tables: Vec<Arc<OutputRows>>,
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

/// One independent fabric shard's execution engine. See the
/// [module docs](self) for the ownership map.
#[derive(Debug, Clone)]
pub struct ShardEngine {
    /// This engine's shard index (stamped into fault records).
    shard: usize,
    fabric: Fabric,
    /// Per-context compiled plane (Arc-shared through the digest cache).
    planes: Vec<Option<Arc<CompiledFabric>>>,
    /// Per-context prebound plan + dirty-cone sweep cache, parallel to
    /// `planes`.
    bound: Vec<BoundSlot>,
    seq: ContextSequencer,
    /// This shard's partition of the service's pending work.
    queue: BatchQueue,
    /// Usage + stream registers of tenants placed on this shard.
    tenants: HashMap<TenantId, TenantState>,
}

impl ShardEngine {
    /// A fresh engine for shard `shard` with geometry `params`, batching
    /// up to `lane_width` requests per slot per pass.
    pub fn new(
        shard: usize,
        params: FabricParams,
        lane_width: usize,
    ) -> Result<Self, ServiceError> {
        Ok(ShardEngine {
            shard,
            fabric: Fabric::new(params)?,
            planes: vec![None; params.contexts],
            bound: vec![BoundSlot::default(); params.contexts],
            seq: ContextSequencer::new(params.arch, params.contexts)?,
            queue: BatchQueue::with_width(params.contexts, lane_width)?,
            tenants: HashMap::new(),
        })
    }

    /// Lanes coalesced per slot per pass.
    #[must_use]
    pub fn lane_width(&self) -> usize {
        self.queue.width()
    }

    /// Rebuilds this engine's queue partition at `width` lanes per slot
    /// and re-seeds every programmed slot's canonical prefix. The
    /// coordinator guarantees no work is pending (it refuses the width
    /// change otherwise — a rebuild would silently drop queued requests).
    pub(crate) fn set_lane_width(&mut self, width: usize) -> Result<(), ServiceError> {
        debug_assert_eq!(
            self.queue.pending_total(),
            0,
            "lane-width change with requests pending"
        );
        self.queue = BatchQueue::with_width(self.planes.len(), width)?;
        for ctx in 0..self.planes.len() {
            // a cached sweep at the old width cannot seed the new one
            self.bound[ctx].cache = None;
            if self.planes[ctx].is_some() {
                self.seed_slot(ctx)?;
            }
        }
        Ok(())
    }

    /// This engine's shard index.
    #[must_use]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The routed fabric, for admission-time routing and digests.
    pub(crate) fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// The routed fabric, read-only.
    pub(crate) fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Installs (or replaces) the compiled plane of context `ctx` — an
    /// `Arc` clone of a cache entry, never a deep copy. Binding runs
    /// once, here; the slot's dirty-cone cache is discarded (it described
    /// sweeps of the previous plane).
    pub(crate) fn install_plane(&mut self, ctx: usize, plane: Arc<CompiledFabric>) {
        self.bound[ctx] = BoundSlot {
            plan: plane.bind(ctx).ok().map(Arc::new),
            ..BoundSlot::default()
        };
        self.planes[ctx] = Some(plane);
    }

    /// Output tables pooled on slot `ctx`.
    #[cfg(test)]
    pub(crate) fn pooled_tables(&self, ctx: usize) -> usize {
        self.bound[ctx].tables.len()
    }

    /// The compiled plane of context `ctx`, if programmed.
    pub(crate) fn plane(&self, ctx: usize) -> Option<Arc<CompiledFabric>> {
        self.planes[ctx].clone()
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

    /// Registers a tenant placed on this shard, with zeroed state.
    pub(crate) fn add_tenant(&mut self, tenant: TenantId) {
        self.tenants.insert(tenant, TenantState::default());
    }

    /// Registers a tenant arriving with pre-existing state (restore path).
    pub(crate) fn add_tenant_with(&mut self, tenant: TenantId, state: TenantState) {
        self.tenants.insert(tenant, state);
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

    /// Seeds the slot's canonical input-name prefix from its plane's bound
    /// inputs, so submit-time coverage checking is a bitmask instead of a
    /// second name scan. Stream registers (`reg:*` bound inputs) are
    /// excluded — requests never drive them; the sweep feeds them from the
    /// tenant's [`RegisterFile`] at pass time.
    pub(crate) fn seed_slot(&mut self, ctx: usize) -> Result<(), ServiceError> {
        let plane = self.planes[ctx]
            .as_ref()
            .ok_or(ServiceError::SlotNotProgrammed {
                shard: self.shard,
                ctx,
            })?;
        let binds = plane.plane(ctx)?.input_binds();
        self.queue.seed(
            ctx,
            binds
                .iter()
                .map(|(_, n)| n.as_str())
                .filter(|n| !n.starts_with(REG_PREFIX)),
        );
        // re-resolve each bound input's union index once — sweeps then
        // read request chunks by index, with no per-pass name scans.
        // Non-register names are all in the canonical prefix just seeded;
        // register inputs are fed from the RegisterFile (or a live
        // explicit drive, resolved at plan time) and get the sentinel.
        let slot = &mut self.bound[ctx];
        slot.batch_idx.clear();
        if let Some(plan) = &slot.plan {
            for (_, name, is_reg) in plan.inputs() {
                let idx = if *is_reg {
                    u32::MAX
                } else {
                    self.queue
                        .batch(ctx)
                        .name_index(name)
                        .map_or(u32::MAX, |i| i as u32)
                };
                slot.batch_idx.push(idx);
            }
        }
        Ok(())
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
        let (id, full) = match self.queue.enqueue(ctx, tenant, inputs, ids) {
            Ok(ok) => ok,
            Err(PushRefusal::Full) => {
                return Err(ServiceError::SlotBacklogged {
                    shard: self.shard,
                    ctx,
                })
            }
            Err(PushRefusal::MissingInput(idx)) => {
                let name = self.queue.input_name(ctx, idx).unwrap_or("?").to_string();
                return Err(ServiceError::MissingInput { name });
            }
        };
        self.tenant_state_mut(tenant)?.usage.requests += 1;
        Ok((id, full))
    }

    /// Discards `ctx`'s queued, not-yet-executed requests (un-counting
    /// them from `tenant`'s usage), re-seeds the slot's canonical prefix,
    /// and returns how many were dropped.
    pub(crate) fn discard_pending(
        &mut self,
        ctx: usize,
        tenant: TenantId,
    ) -> Result<usize, ServiceError> {
        let dropped = self.queue.take(ctx).map_or(0, |t| t.tickets.len());
        self.tenant_state_mut(tenant)?.usage.requests -= dropped;
        self.seed_slot(ctx)?;
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

    /// Re-queues a restored pending batch into the (empty) slot `ctx`,
    /// minting fresh ids. See [`BatchQueue::restore`].
    pub(crate) fn restore_batch(
        &mut self,
        ctx: usize,
        batch: LaneBatch,
        tenant: TenantId,
        ids: &mut RequestIdSource,
    ) -> Vec<RequestId> {
        self.queue.restore(ctx, batch, tenant, ids)
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
            self.fabric.clear_context(ctx)?;
        }
        let batch = self.queue.take(ctx);
        // the freed slot must not leak its union names or canonical prefix
        // into whatever tenant occupies it next
        self.queue.clear_slot(ctx);
        Ok(TenantHandoff { state, batch })
    }

    /// The destination half of a migration handoff: installs the plane
    /// (already rebased for `ctx` by the coordinator), adopts the tenant's
    /// state, seeds the slot from the plane's binds, and re-queues the
    /// moved lanes with their original ids.
    pub(crate) fn adopt(
        &mut self,
        tenant: TenantId,
        ctx: usize,
        plane: Arc<CompiledFabric>,
        handoff: TenantHandoff,
    ) -> Result<(), ServiceError> {
        self.install_plane(ctx, plane);
        self.tenants.insert(tenant, handoff.state);
        self.seed_slot(ctx)?;
        if let Some(batch) = handoff.batch {
            self.queue.install(ctx, batch);
        }
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
        let error = self
            .plan_into(active, optimize, matrix, steps, &mut charged)
            .err();
        (charged, error)
    }

    /// [`plan_sweep`](Self::plan_sweep)'s body; an early `?` loses no
    /// step already pushed and no toggle already charged.
    fn plan_into(
        &mut self,
        active: &[(usize, TenantId)],
        optimize: OptimizeMode,
        matrix: &CostMatrix,
        steps: &mut Vec<PlannedStep>,
        charged: &mut u64,
    ) -> Result<(), ServiceError> {
        if active.is_empty() {
            return Ok(());
        }
        let contexts = self.seq.contexts();
        let active_ctxs: Vec<usize> = active.iter().map(|(ctx, _)| *ctx).collect();
        let naive = Schedule::active_sweep(contexts, &active_ctxs)?;
        // the counterfactual: per-context toggles of the naive ascending
        // walk from the broadcast's current position (each active context
        // appears exactly once in a sweep, so a map by context is sound)
        let start = self.seq.current();
        let baseline: Vec<(usize, usize)> = naive
            .as_slice()
            .iter()
            .copied()
            .zip(matrix.step_costs(Some(start), naive.as_slice())?)
            .collect();
        let schedule = self.seq.plan_sweep_with(&naive, optimize, matrix)?;
        let mut pos = 0;
        for ctx in schedule.iter() {
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
            let toggles_baseline = baseline
                .iter()
                .find(|(c, _)| *c == ctx)
                .map_or(toggles, |(_, cost)| *cost);
            let tenant_state = self
                .tenants
                .get_mut(&tenant)
                .ok_or(ServiceError::UnknownTenant(tenant.index()))?;
            tenant_state.usage.css_toggles += toggles;
            tenant_state.usage.css_toggles_baseline += toggles_baseline;
            *charged += toggles as u64;
            let tenant_regs = &self
                .tenants
                .get(&tenant)
                .ok_or(ServiceError::UnknownTenant(tenant.index()))?
                .regs;
            let words = batch.words();
            let slot = &mut self.bound[ctx];
            let bound = slot.plan.clone();
            let mut chunks: Vec<LaneChunk> = Vec::new();
            let mut missing: Option<Arc<str>> = None;
            if let Some(bound) = &bound {
                chunks.reserve_exact(bound.inputs().len());
                // indices were resolved at seed time; a slot installed
                // without seeding (fault injection) resolves live
                let idx_valid = slot.batch_idx.len() == bound.inputs().len();
                for (i, (_, name, is_reg)) in bound.inputs().iter().enumerate() {
                    let chunk = if *is_reg {
                        // stream registers: every bound `reg:*` input reads
                        // the tenant's chunk from its previous pass (0
                        // before the first) — lane-aligned, so lane `l` of
                        // pass `p+1` consumes the state lane `l` of pass
                        // `p` produced. A request that drove the name
                        // explicitly wins (the batch entry resolves first),
                        // which is how a caller seeds stream state by hand.
                        match batch.name_index(name) {
                            Some(j) => batch.input_chunk(j),
                            None => tenant_regs.get_chunk(name).unwrap_or([0u64; LANE_WORDS]),
                        }
                    } else {
                        let j = if idx_valid {
                            Some(slot.batch_idx[i] as usize).filter(|&j| j != u32::MAX as usize)
                        } else {
                            batch.name_index(name)
                        };
                        match j {
                            Some(j) => {
                                debug_assert_eq!(
                                    batch.input_name(j),
                                    Some(name.as_ref()),
                                    "stale bound-input index for slot {ctx}"
                                );
                                batch.input_chunk(j)
                            }
                            None => {
                                // the union lacks a bound non-register
                                // input — the pass must fail exactly as the
                                // interpreter's seed scan would
                                if missing.is_none() {
                                    missing = Some(Arc::clone(name));
                                }
                                [0u64; LANE_WORDS]
                            }
                        }
                    };
                    chunks.push(chunk);
                }
            }
            // dirty-cone basis: reuse the slot's cached sweep only when it
            // demonstrably describes the same tenant, word count and input
            // arity (the kernel path then skips ops whose cone is clean)
            let kernel_ok =
                missing.is_none() && bound.is_some() && chunks.len() <= 64 && plane.has_kernel(ctx);
            let mut dirty = DIRTY_ALL;
            let mut state = None;
            if kernel_ok {
                if let Some(cache) = slot.cache.take() {
                    if cache.tenant == tenant
                        && cache.words == words
                        && cache.inputs.len() == chunks.len()
                    {
                        let mut mask = 0u64;
                        for (i, (new, old)) in chunks.iter().zip(&cache.inputs).enumerate() {
                            if new != old {
                                mask |= 1 << i;
                            }
                        }
                        dirty = mask;
                    }
                    state = Some(cache.state);
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
                missing,
                state,
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
        let taken = self.queue.take(step.ctx).ok_or(stale)?;
        state.usage.passes += 1;
        let width = bound.outputs().iter().filter(|(_, _, reg)| !reg).count();
        let lanes = taken.tickets.len();
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
        for (lane, (request, owner)) in taken.tickets.iter().enumerate() {
            responses.push(Response {
                request: *request,
                tenant: *owner,
                outputs: Outputs::view(&table, lane * width, (lane + 1) * width),
            });
        }
        slot.pool_table(table);
        // hand the emptied buffers back to the slot (cleared, capacity
        // kept) so steady-state flushes re-allocate nothing
        self.queue.recycle(step.ctx, taken);
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
