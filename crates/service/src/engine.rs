//! The per-shard execution engine.
//!
//! A [`ShardEngine`] owns **everything one fabric shard needs to execute a
//! sweep without touching another shard**: its routed [`Fabric`] (built on
//! first use — a shard whose tenants all arrived by restore never routes,
//! so it never builds one), its own [`ContextSequencer`] (CSS broadcast
//! position is per-shard physical state), and one record per context
//! slot. As in the paper's MC-FPGA, where a context is one configuration
//! plane the switching signal selects, a slot is one unit: its occupant
//! (tenant id, usage counters, stream-register file, queued lanes and
//! their request ids), the installed compiled plane with its prebound
//! plan (Arc-shared through the coordinator's plane cache, at any context
//! index — installing a plane clones pointers, never a plane or a
//! binding), and the slot's evaluation state (its plane's value array),
//! input and output buffers and output tables, all reused pass after
//! pass. A free slot holds nothing.
//!
//! A sweep is split into three phases so its only parallel part is pure:
//!
//! 1. **Plan** (`plan_sweep`), sequential on
//!    the coordinator: the CSS schedule is computed, the broadcast steps
//!    through it (switch toggles are charged here — the broadcast spends
//!    that energy whether or not the pass later resolves), and each busy
//!    slot becomes one owned `PlannedStep` carrying its compiled-plane
//!    `Arc`, input lane chunks (queued requests plus the tenant's `reg:*`
//!    stream state) and its `(shard, sweep-position)` merge key.
//! 2. **Eval** (`eval_step`), the only concurrent phase: a pure
//!    function from a `PlannedStep` to output lane chunks, safe to run on
//!    any worker in any order — steps share nothing but immutable `Arc`s;
//!    each evaluates in the state its slot lent it.
//! 3. **Apply** (`apply_step`), sequential on
//!    the coordinator **in merge-key order** (shard, then sweep
//!    position): consumes the slot's batch on success, harvests `reg:*`
//!    chunks, writes the visible outputs into the slot's recycled output
//!    table and hands each response a view of its lane's row, records a
//!    [`crate::service::SlotFault`] on failure (requests stay queued),
//!    and either way returns the step's buffers to its slot.
//!    Thread completion order never
//!    reaches this phase, so output is bit-for-bit identical at every
//!    worker count and lane width.
//!
//! Tenant mobility across engines is an explicit two-step handoff —
//! `expel` on the source, then `adopt` on the destination (both
//! crate-internal; the coordinator's migration ops drive them). What
//! moves is one record, the slot's `Occupant`, with the installed
//! plane's `Arc`s beside it, so a tenant's queued lanes, registers and
//! usage change engines atomically (the coordinator sequences the two
//! calls; they work unchanged when source and destination are the same
//! engine).

use crate::batch::{OutputRows, Outputs, RequestId, RequestIdSource, Response};
use crate::registry::{CachedPlane, TenantId};
use crate::service::SlotFault;
use crate::ServiceError;
use mcfpga_cost::attribution::TenantUsage;
use mcfpga_css::optimize::{CostMatrix, OptimizeMode};
use mcfpga_css::{CssError, SweepScratch};
use mcfpga_fabric::compiled::{
    chunk_bit, BoundPlan, CompiledState, EvalStats, LaneBatch, LaneChunk, PushRefusal, LANE_WORDS,
};
use mcfpga_fabric::context::ContextSequencer;
use mcfpga_fabric::{CompiledFabric, Fabric, FabricParams, RegisterFile};
use std::sync::{Arc, OnceLock};

/// The tenant a context slot holds, with everything that moves with it
/// in a migration handoff: produced by [`ShardEngine::expel`], consumed
/// by [`ShardEngine::adopt`] (admission and restore build a new one).
#[derive(Debug, Clone)]
pub(crate) struct Occupant {
    /// The tenant.
    pub tenant: TenantId,
    /// Accumulated usage counters (requests, passes, toggles, migrations).
    pub usage: TenantUsage,
    /// `reg:*` stream state (lane words from the tenant's previous pass).
    pub regs: RegisterFile,
    /// The queued, not yet executed lanes. Its columns are the tenant's
    /// input columns ([`BoundPlan::input_columns`] of its plane), fixed
    /// when it is admitted or restored: installing a plane — faulted,
    /// repaired or shared — never changes them.
    pub batch: LaneBatch,
    /// The request id of each queued lane, lane order.
    pub requests: Vec<RequestId>,
}

impl Occupant {
    /// `tenant` with nothing charged, no stream state, and `batch` (empty)
    /// to queue its requests in.
    pub(crate) fn new(tenant: TenantId, batch: LaneBatch) -> Self {
        Occupant {
            tenant,
            usage: TenantUsage::default(),
            regs: RegisterFile::default(),
            batch,
            requests: Vec::new(),
        }
    }

    /// Settles one request offered to the batch: on success mints its id
    /// (never for a refusal, so a refused request burns none), records it
    /// and charges the request counter, returning the id and whether the
    /// batch is now full; a refusal is typed for slot `(shard, ctx)`.
    fn enqueued(
        &mut self,
        pushed: Result<usize, PushRefusal>,
        ids: &mut RequestIdSource,
        shard: usize,
        ctx: usize,
    ) -> Result<(RequestId, bool), ServiceError> {
        match pushed {
            Ok(lane) => debug_assert_eq!(lane, self.requests.len()),
            Err(PushRefusal::Full) => return Err(ServiceError::SlotBacklogged { shard, ctx }),
            Err(PushRefusal::MissingInput(col)) => {
                let name = self.batch.columns()[col].to_string();
                return Err(ServiceError::MissingInput { name });
            }
        }
        let id = ids.mint();
        self.requests.push(id);
        self.usage.requests += 1;
        Ok((id, self.batch.is_full()))
    }

    /// Empties the queued lanes in place, columns and buffers kept, and
    /// returns how many there were.
    fn clear(&mut self) -> usize {
        self.batch.clear();
        let dropped = self.requests.len();
        self.requests.clear();
        dropped
    }
}

/// One per-context sweep task, planned sequentially and evaluated (maybe
/// concurrently, on whichever pool worker claims it) by [`eval_step`].
/// Owns everything its evaluation needs — plane `Arc`, prebound plan,
/// dense input chunks, occupied word count and the buffers its slot lent
/// it — so the worker borrows nothing from the engine: the slot still
/// holds its batch, which is consumed only at apply time on success, and
/// the `(shard, pos)` pair is the deterministic merge key the coordinator
/// orders applies by.
#[derive(Debug)]
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
    /// The slot's prebound IO plan (shared, immutable).
    pub bound: Arc<BoundPlan>,
    /// Dense input chunks, parallel to the bound plan's inputs: queued
    /// request lanes plus the tenant's `reg:*` stream state, captured at
    /// plan time into the slot's input buffer (overwritten in place).
    pub chunks: Vec<LaneChunk>,
    /// The slot's evaluation state: the last sweep, which the kernel
    /// reuses when it ran the same plane at the same width; empty before
    /// the slot's first pass.
    pub state: CompiledState,
    /// The output chunks, parallel to the bound plan's outputs, written
    /// into the slot's output buffer.
    pub outs: Vec<LaneChunk>,
}

/// Evaluates one planned step — the **pure** phase of a sweep, safe on
/// any thread: reads only the step's own data and writes only the
/// buffers it carries (sizing the slot's value array on its first pass).
/// An `Err` here is the *pass* failing; [`ShardEngine::apply_step`]
/// turns it into a [`SlotFault`] with the requests left queued.
pub(crate) fn eval_step(step: &mut PlannedStep) -> Result<EvalStats, ServiceError> {
    Ok(step.plane.eval_bound_into(
        &step.bound,
        &step.chunks,
        step.words,
        &mut step.state,
        &mut step.outs,
    )?)
}

/// Output tables a slot keeps for reuse. Two let a consumer hold one
/// pass's responses while the next pass writes the other table.
const POOLED_TABLES: usize = 2;

/// One occupied context slot: the occupant, the plane installed for it,
/// and the caches its passes reuse. Replaced wholesale when the occupant
/// leaves, so nothing here can outlive the tenant it describes.
#[derive(Debug, Clone)]
struct Slot {
    /// The tenant and what moves with it.
    occupant: Occupant,
    /// The installed plane with its prebound plan: `Arc` clones of a
    /// cache entry (or of a chaos hook's uncached plane).
    plane: CachedPlane,
    /// Batch column of each bound input, in bind order, so planning
    /// reads request chunks without comparing names — the "resolve names
    /// once" half of the v2 pipeline. A `reg:*` input has no column (it
    /// is fed from the occupant's [`RegisterFile`]) and holds 0, unused.
    columns: Vec<u32>,
    /// The evaluation state, lent to each [`PlannedStep`] and returned by
    /// its apply.
    state: CompiledState,
    /// The dense input-chunk buffer, lent and returned like `state`.
    inputs: Vec<LaneChunk>,
    /// Up to [`POOLED_TABLES`] output tables of this slot's past passes,
    /// least recently written first. Their rows already hold the plan's
    /// visible output names, which is why installing a plane empties the
    /// pool. A table a response still views is never rewritten.
    tables: Vec<Arc<OutputRows>>,
    /// The output-chunk buffer of this slot's passes, lent to each
    /// [`PlannedStep`] and returned by its apply.
    outs: Vec<LaneChunk>,
}

impl Slot {
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

    /// Takes back the buffers `step` borrowed at plan time.
    fn reclaim(&mut self, step: &mut PlannedStep) {
        self.state = std::mem::take(&mut step.state);
        self.inputs = std::mem::take(&mut step.chunks);
        self.outs = std::mem::take(&mut step.outs);
    }
}

/// Resolves each input `plane` binds to its column among `columns` (see
/// [`Slot::columns`]). Refuses a plane that binds a non-register input
/// `columns` lack: the tenant's requests never drive it.
fn bind_columns(
    shard: usize,
    ctx: usize,
    plane: &CachedPlane,
    columns: &[Arc<str>],
) -> Result<Vec<u32>, ServiceError> {
    let mut index = Vec::new();
    let mut next = 0;
    for (_, name, is_reg) in plane.bound.inputs() {
        if *is_reg {
            index.push(0);
            continue;
        }
        // columns follow bind order: probe the one after the last match
        let col = match columns.get(next) {
            Some(c) if c == name => next,
            _ => columns.iter().position(|c| c == name).ok_or_else(|| {
                ServiceError::BadConfig(format!(
                    "plane for slot (shard {shard}, ctx {ctx}) binds input '{name}', \
                     which is not one of its tenant's input columns"
                ))
            })?,
        };
        next = col + 1;
        index.push(col as u32);
    }
    Ok(index)
}

/// An engine's reusable planning buffers. A shard sweeps at most its
/// context count, so once these have grown to it planning allocates
/// nothing.
#[derive(Debug, Default)]
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
#[derive(Debug)]
pub struct ShardEngine {
    /// This engine's shard index (stamped into fault records).
    shard: usize,
    /// The geometry `fabric` is built with.
    params: FabricParams,
    /// The routed fabric, built on first use ([`Self::fabric`]): only an
    /// admission routes, so an engine that only ever receives restored
    /// or migrated tenants never pays for one.
    fabric: OnceLock<Fabric>,
    /// One record per context, `None` while the slot is free.
    slots: Vec<Option<Slot>>,
    seq: ContextSequencer,
    /// Lanes each slot's batch holds.
    lane_width: usize,
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
        let seq = ContextSequencer::new(params.arch, params.contexts)?;
        // a bad width is refused here, with the batch's own error, though
        // no slot builds a batch until a tenant lands on it
        LaneBatch::with_width(lane_width, Arc::default())?;
        Ok(ShardEngine {
            shard,
            params,
            fabric: OnceLock::new(),
            slots: vec![None; params.contexts],
            seq,
            lane_width,
            scratch: PlanScratch::default(),
        })
    }

    /// Lanes coalesced per slot per pass.
    #[must_use]
    pub fn lane_width(&self) -> usize {
        self.lane_width
    }

    /// Rebuilds every occupied slot's batch at `width` lanes, keeping its
    /// columns. The coordinator guarantees no work is pending (it refuses
    /// the width change otherwise — a rebuild would silently drop queued
    /// requests).
    pub(crate) fn set_lane_width(&mut self, width: usize) -> Result<(), ServiceError> {
        debug_assert_eq!(
            self.pending_requests(),
            0,
            "lane-width change with requests pending"
        );
        // refuse a bad width before any slot is rebuilt
        LaneBatch::with_width(width, Arc::default())?;
        for slot in self.slots.iter_mut().flatten() {
            let columns = Arc::clone(slot.occupant.batch.columns());
            slot.occupant.batch = LaneBatch::with_width(width, columns)?;
            // the rebuilt batch's first pass sweeps in full
            slot.state = CompiledState::default();
        }
        self.lane_width = width;
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

    /// The slot `ctx`, if `tenant` occupies it.
    fn slot(&self, ctx: usize, tenant: TenantId) -> Result<&Slot, ServiceError> {
        self.slots
            .get(ctx)
            .and_then(Option::as_ref)
            .filter(|s| s.occupant.tenant == tenant)
            .ok_or(ServiceError::UnknownTenant(tenant.index()))
    }

    /// The slot `ctx`, mutable, if `tenant` occupies it.
    fn slot_mut(&mut self, ctx: usize, tenant: TenantId) -> Result<&mut Slot, ServiceError> {
        self.slots
            .get_mut(ctx)
            .and_then(Option::as_mut)
            .filter(|s| s.occupant.tenant == tenant)
            .ok_or(ServiceError::UnknownTenant(tenant.index()))
    }

    /// `tenant`, which occupies slot `ctx`: [`ServiceError::UnknownTenant`]
    /// when it does not.
    pub(crate) fn occupant(&self, ctx: usize, tenant: TenantId) -> Result<&Occupant, ServiceError> {
        Ok(&self.slot(ctx, tenant)?.occupant)
    }

    /// Installs (or replaces) the compiled plane of the occupied slot
    /// `ctx`, binding it here — the path for a plane the cache does not
    /// hold (a chaos hook's poisoned plane). See
    /// [`install_cached`](Self::install_cached).
    pub(crate) fn install_plane(
        &mut self,
        ctx: usize,
        plane: Arc<CompiledFabric>,
    ) -> Result<(), ServiceError> {
        self.install_cached(ctx, &CachedPlane::new(plane)?)
    }

    /// Installs (or replaces) the compiled plane of the occupied slot
    /// `ctx` with its prebound plan — `Arc` clones of a cache entry, never
    /// a copy or a re-bind, whatever context the plane was compiled in.
    /// Each bound input is resolved to its column of the slot's batch;
    /// the slot's evaluation state and output tables are discarded (they
    /// describe passes of the previous plane). Refuses, changing nothing,
    /// a plane that binds a non-register input the occupant's columns
    /// lack.
    pub(crate) fn install_cached(
        &mut self,
        ctx: usize,
        cached: &CachedPlane,
    ) -> Result<(), ServiceError> {
        let shard = self.shard;
        let slot = self.slots[ctx]
            .as_mut()
            .ok_or(ServiceError::SlotNotProgrammed { shard, ctx })?;
        slot.columns = bind_columns(shard, ctx, cached, slot.occupant.batch.columns())?;
        slot.plane = cached.clone();
        slot.state = CompiledState::default();
        slot.tables.clear();
        Ok(())
    }

    /// Output tables pooled on slot `ctx`.
    #[cfg(test)]
    pub(crate) fn pooled_tables(&self, ctx: usize) -> usize {
        self.slots[ctx].as_ref().map_or(0, |s| s.tables.len())
    }

    /// The compiled plane of context `ctx`, if programmed.
    #[cfg(test)]
    pub(crate) fn plane(&self, ctx: usize) -> Option<Arc<CompiledFabric>> {
        Some(Arc::clone(&self.slots[ctx].as_ref()?.plane.plane))
    }

    /// The prebound plan of context `ctx`, if programmed.
    #[cfg(test)]
    pub(crate) fn plan(&self, ctx: usize) -> Option<Arc<BoundPlan>> {
        Some(Arc::clone(&self.slots[ctx].as_ref()?.plane.bound))
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

    /// Enqueues one request on the lane batch of `tenant`'s slot `ctx`,
    /// charging its request counter. Returns the minted id and whether
    /// the slot's lanes are now full (the coordinator should flush this
    /// engine).
    pub(crate) fn submit(
        &mut self,
        ctx: usize,
        tenant: TenantId,
        inputs: &[(&str, bool)],
        ids: &mut RequestIdSource,
    ) -> Result<(RequestId, bool), ServiceError> {
        let shard = self.shard;
        let occupant = &mut self.slot_mut(ctx, tenant)?.occupant;
        let pushed = occupant.batch.push(inputs);
        occupant.enqueued(pushed, ids, shard, ctx)
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
        let shard = self.shard;
        let occupant = &mut self.slot_mut(ctx, tenant)?.occupant;
        let pushed = occupant.batch.push_row(row);
        occupant.enqueued(pushed, ids, shard, ctx)
    }

    /// Discards the queued, not-yet-executed requests of `tenant`'s slot
    /// `ctx` (un-counting them from its usage) and returns how many were
    /// dropped.
    pub(crate) fn discard_pending(
        &mut self,
        ctx: usize,
        tenant: TenantId,
    ) -> Result<usize, ServiceError> {
        let occupant = &mut self.slot_mut(ctx, tenant)?.occupant;
        let dropped = occupant.clear();
        // every queued lane was charged when it was submitted, or counted
        // in a restored checkpoint's usage (restore refuses fewer)
        occupant.usage.requests -= dropped;
        Ok(dropped)
    }

    /// Context slots with pending work, ascending.
    #[must_use]
    pub fn pending(&self) -> Vec<usize> {
        self.busy().collect()
    }

    /// Context slots with pending work, ascending, without allocating.
    pub(crate) fn busy(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots.len()).filter(|&ctx| self.pending_batch(ctx).is_some())
    }

    /// Requests parked on this shard, not yet executed.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .map(|s| s.occupant.requests.len())
            .sum()
    }

    /// A slot's pending lane batch, if non-empty.
    pub(crate) fn pending_batch(&self, ctx: usize) -> Option<&LaneBatch> {
        let batch = &self.slots[ctx].as_ref()?.occupant.batch;
        (!batch.is_empty()).then_some(batch)
    }

    /// The request ids of a slot's queued lanes, lane order.
    pub(crate) fn requests(&self, ctx: usize) -> &[RequestId] {
        self.slots[ctx]
            .as_ref()
            .map_or(&[], |s| &s.occupant.requests)
    }

    /// The source half of a migration handoff: frees `tenant`'s slot
    /// `ctx` and returns the occupant with the installed plane. The
    /// routed context is left as it is: the next admission into `ctx`
    /// clears it before routing. Refuses with
    /// [`ServiceError::UnknownTenant`], changing nothing, when `tenant`
    /// does not occupy the slot; the caller has completed every other
    /// fallible pre-check, so this only performs the move.
    pub(crate) fn expel(
        &mut self,
        tenant: TenantId,
        ctx: usize,
    ) -> Result<(Occupant, CachedPlane), ServiceError> {
        let slot = self.slots[ctx]
            .take_if(|s| s.occupant.tenant == tenant)
            .ok_or(ServiceError::UnknownTenant(tenant.index()))?;
        Ok((slot.occupant, slot.plane))
    }

    /// Lands `occupant` on the free slot `ctx` with `plane` installed for
    /// it — the destination half of a migration handoff, and how
    /// admission and restore place a new tenant. Queued lanes keep their
    /// request ids; `plane`'s `Arc`s are shared as they are. Refuses,
    /// changing nothing, a plane that binds an input the occupant's
    /// columns lack (see [`install_cached`](Self::install_cached)).
    pub(crate) fn adopt(
        &mut self,
        ctx: usize,
        plane: &CachedPlane,
        occupant: Occupant,
    ) -> Result<(), ServiceError> {
        debug_assert!(self.slots[ctx].is_none(), "adopt onto a busy slot {ctx}");
        debug_assert_eq!(occupant.batch.width(), self.lane_width);
        let columns = bind_columns(self.shard, ctx, plane, occupant.batch.columns())?;
        self.slots[ctx] = Some(Slot {
            occupant,
            plane: plane.clone(),
            columns,
            state: CompiledState::default(),
            inputs: Vec::new(),
            tables: Vec::new(),
            outs: Vec::new(),
        });
        Ok(())
    }

    /// Plans this shard's sweep over its `active` contexts in CSS
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
    /// A structural failure (a broken schedule domain — never a mere
    /// failed pass, which surfaces at apply time as a [`SlotFault`])
    /// stops the planning and is returned **alongside** the steps planned
    /// (and toggles charged) first: those steps still evaluate and apply,
    /// so no already-scheduled switch loses its pass.
    pub(crate) fn plan_sweep(
        &mut self,
        active: &[usize],
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
        active: &[usize],
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
        for &ctx in active {
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
            let Some(slot) = self.slots[ctx].as_mut() else {
                continue;
            };
            if slot.occupant.batch.is_empty() {
                continue;
            }
            let toggles = self.seq.step_to(ctx)?;
            // each active context appears exactly once in a sweep, so the
            // naive step into `ctx` is its baseline
            let toggles_baseline = naive.binary_search(&ctx).map_or(toggles, |i| baseline[i]);
            let Slot {
                occupant,
                plane,
                columns,
                state,
                inputs,
                outs,
                ..
            } = slot;
            occupant.usage.css_toggles += toggles;
            occupant.usage.css_toggles_baseline += toggles_baseline;
            *charged += toggles as u64;
            let words = occupant.batch.words();
            let bound = &plane.bound;
            // the slot's input buffer becomes this step's
            let mut chunks = std::mem::take(inputs);
            chunks.clear();
            let column_chunks = occupant.batch.chunks();
            let sources = bound.inputs().iter().zip(columns.iter());
            chunks.extend(sources.map(|((_, name, is_reg), &col)| {
                if *is_reg {
                    // stream registers come only from the tenant's
                    // register file (0 before the first pass) —
                    // lane-aligned, so lane `l` of pass `p+1` consumes
                    // the state lane `l` of pass `p` produced
                    occupant.regs.get_chunk(name).unwrap_or([0u64; LANE_WORDS])
                } else {
                    column_chunks[col as usize]
                }
            }));
            steps.push(PlannedStep {
                shard: self.shard,
                pos,
                ctx,
                tenant: occupant.tenant,
                words,
                plane: Arc::clone(&plane.plane),
                bound: Arc::clone(bound),
                chunks,
                state: std::mem::take(state),
                outs: std::mem::take(outs),
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
    /// the occupant's register file (state, not answers), the visible
    /// outputs are written into one lane-major **output table** (a
    /// reused table only rewrites its values, so a steady-state pass
    /// allocates no rows and clones no names), every lane's response
    /// gets a view of its row. On success and on failure alike the step's
    /// buffers return to the slot; the evaluation state carries the sweep
    /// the next pass may reuse.
    /// Returns the pass's [`EvalStats`] (`None` for a faulted pass) so the
    /// coordinator can bump the deterministic op counters in apply order.
    ///
    /// An `Err` from *this* function is structural and leaves the slot's
    /// requests queued: [`ServiceError::StaleStep`] if the pass did not
    /// run through the slot's current bound plan or the slot's batch is
    /// gone, [`ServiceError::UnknownTenant`] if the planned tenant no
    /// longer occupies the slot. The coordinator sequences every mutation
    /// between plan and apply, so neither happens through the public API.
    pub(crate) fn apply_step(
        &mut self,
        step: &mut PlannedStep,
        outcome: Result<EvalStats, ServiceError>,
        responses: &mut Vec<Response>,
        faults: &mut Vec<SlotFault>,
    ) -> Result<Option<EvalStats>, ServiceError> {
        debug_assert_eq!(step.shard, self.shard, "step applied to the wrong engine");
        let stats = match outcome {
            Ok(stats) => stats,
            Err(error) => {
                faults.push(SlotFault {
                    tenant: step.tenant,
                    shard: self.shard,
                    ctx: step.ctx,
                    error,
                });
                if let Some(slot) = self.slots[step.ctx].as_mut() {
                    slot.reclaim(step);
                }
                return Ok(None);
            }
        };
        let stale = ServiceError::StaleStep {
            shard: self.shard,
            ctx: step.ctx,
        };
        let Some(slot) = self.slots[step.ctx].as_mut() else {
            return Err(stale);
        };
        // the pooled tables' names are the slot plan's: only a pass run
        // through that very plan may write them
        let bound = &step.bound;
        if !Arc::ptr_eq(bound, &slot.plane.bound) {
            return Err(stale);
        }
        if slot.occupant.tenant != step.tenant {
            return Err(ServiceError::UnknownTenant(step.tenant.index()));
        }
        let lanes = slot.occupant.requests.len();
        if lanes == 0 {
            return Err(stale);
        }
        slot.occupant.usage.passes += 1;
        let width = bound.outputs().iter().filter(|(_, _, reg)| !reg).count();
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
        for ((_, name, is_reg), chunk) in bound.outputs().iter().zip(&step.outs) {
            if *is_reg {
                slot.occupant.regs.set_chunk(name, *chunk);
                continue;
            }
            let column = rows[col..].iter_mut().step_by(width).take(lanes);
            for (lane, row) in column.enumerate() {
                row.1 = chunk_bit(chunk, lane);
            }
            col += 1;
        }
        responses.reserve(lanes);
        for (lane, &request) in slot.occupant.requests.iter().enumerate() {
            responses.push(Response {
                request,
                tenant: step.tenant,
                outputs: Outputs::view(&table, lane * width, (lane + 1) * width),
            });
        }
        slot.pool_table(table);
        // empty the batch in place, buffers kept, so steady-state flushes
        // re-allocate nothing
        slot.occupant.clear();
        slot.reclaim(step);
        Ok(Some(stats))
    }
}

// A future `Rc`, raw pointer or other non-thread-safe field anywhere in
// these ownership trees must fail the *build*, not a code review: the
// fork-join pool moves owned `PlannedStep`s across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardEngine>();
    assert_send_sync::<PlannedStep>();
    assert_send_sync::<ServiceError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantIdSource;
    use mcfpga_fabric::compiled::{LANES, MAX_LANES};
    use mcfpga_fabric::TileCoord;

    fn cols(names: &[&str]) -> Arc<[Arc<str>]> {
        names.iter().map(|n| Arc::from(*n)).collect()
    }

    fn engine(shard: usize, width: usize) -> ShardEngine {
        ShardEngine::new(shard, FabricParams::default(), width).unwrap()
    }

    /// Lands `tenant` on slot `ctx` of `engine`, its requests driving
    /// `columns`, under a plane that binds no input (so it installs over
    /// any columns) — enough to exercise the slot's queue.
    fn occupy(engine: &mut ShardEngine, ctx: usize, tenant: TenantId, columns: &[&str]) {
        let mut blank = Fabric::new(FabricParams::default()).unwrap();
        blank
            .bind_output(TileCoord { x: 0, y: 0 }, 0, 0, "y")
            .unwrap();
        let plane = CachedPlane::new(Arc::new(
            CompiledFabric::compile_context(&blank, 0).unwrap(),
        ))
        .unwrap();
        let batch = LaneBatch::with_width(engine.lane_width(), cols(columns)).unwrap();
        engine
            .adopt(ctx, &plane, Occupant::new(tenant, batch))
            .unwrap();
    }

    fn missing(name: &str) -> ServiceError {
        ServiceError::MissingInput { name: name.into() }
    }

    #[test]
    fn fills_a_slot_lane_by_lane() {
        let mut tenants = TenantIdSource::new();
        let t = tenants.mint();
        let mut e = engine(0, LANES);
        occupy(&mut e, 0, t, &["x"]);
        let mut ids = RequestIdSource::new();
        for i in 0..LANES {
            let (_, full) = e.submit(0, t, &[("x", i % 2 == 0)], &mut ids).unwrap();
            assert_eq!(full, i == LANES - 1, "lane {i}");
        }
        assert_eq!(e.pending_requests(), LANES);
        assert_eq!(e.pending(), vec![0]);
        // a full, unflushed slot refuses further submits instead of panicking
        assert_eq!(
            e.submit(0, t, &[("x", true)], &mut ids),
            Err(ServiceError::SlotBacklogged { shard: 0, ctx: 0 })
        );
        let (occupant, _) = e.expel(t, 0).unwrap();
        assert_eq!(occupant.requests.len(), LANES);
        assert_eq!(occupant.usage.requests, LANES);
        assert!(occupant.batch.is_full());
        assert_eq!(e.pending_requests(), 0);
        assert_eq!(
            e.expel(t, 0).unwrap_err(),
            ServiceError::UnknownTenant(t.index())
        );
    }

    #[test]
    fn slots_are_independent() {
        let mut tenants = TenantIdSource::new();
        let a = tenants.mint();
        let b = tenants.mint();
        let mut ids = RequestIdSource::new();
        // one engine per shard; a shared id source keeps ids global
        let (mut e0, mut e1) = (engine(0, LANES), engine(1, LANES));
        occupy(&mut e0, 0, a, &["x"]);
        occupy(&mut e1, 0, b, &["y"]);
        e0.submit(0, a, &[("x", true)], &mut ids).unwrap();
        e1.submit(0, b, &[("y", false)], &mut ids).unwrap();
        e1.submit(0, b, &[("y", true)], &mut ids).unwrap();
        assert_eq!(e0.pending(), vec![0]);
        assert_eq!(e1.pending(), vec![0]);
        assert_eq!(e1.expel(b, 0).unwrap().0.requests.len(), 2);
        assert_eq!(e0.pending_requests() + e1.pending_requests(), 1);
        // a slot answers only to its occupant
        assert_eq!(
            e0.submit(0, b, &[("x", true)], &mut ids),
            Err(ServiceError::UnknownTenant(b.index()))
        );
    }

    #[test]
    fn open_columns_gate_enqueue() {
        let mut tenants = TenantIdSource::new();
        let t = tenants.mint();
        let mut e = engine(0, LANES);
        let mut ids = RequestIdSource::new();
        occupy(&mut e, 0, t, &["x", "y"]);
        assert_eq!(e.submit(0, t, &[("x", true)], &mut ids), Err(missing("y")));
        // any order, extras allowed
        e.submit(0, t, &[("y", true), ("x", false), ("zz", true)], &mut ids)
            .unwrap();
        assert_eq!(e.pending_requests(), 1);
        assert_eq!(e.pending_batch(0).unwrap().chunks(), [[0; 4], [1, 0, 0, 0]]);
    }

    #[test]
    fn clear_keeps_columns_and_vacate_drops_them() {
        let mut tenants = TenantIdSource::new();
        let t = tenants.mint();
        let mut e = engine(0, LANES);
        let mut ids = RequestIdSource::new();
        occupy(&mut e, 0, t, &["a"]);
        e.submit(0, t, &[("a", true), ("extra", true)], &mut ids)
            .unwrap();
        assert_eq!(e.discard_pending(0, t).unwrap(), 1);
        assert!(e.pending_batch(0).is_none() && e.requests(0).is_empty());
        assert_eq!(e.occupant(0, t).unwrap().usage.requests, 0);
        // the columns survive, and coverage is still enforced
        assert_eq!(e.occupant(0, t).unwrap().batch.columns(), &cols(&["a"]));
        assert_eq!(
            e.submit(0, t, &[("other", true)], &mut ids),
            Err(missing("a"))
        );
        e.submit(0, t, &[("a", false)], &mut ids).unwrap();
        // an expelled tenant takes its columns along; the slot keeps none
        let (occupant, _) = e.expel(t, 0).unwrap();
        assert_eq!(occupant.batch.columns(), &cols(&["a"]));
        assert!(e.occupant(0, t).is_err());
        assert!(e.pending_batch(0).is_none() && e.requests(0).is_empty());
    }

    #[test]
    fn wide_queue_fills_past_64_and_keeps_width_through_take_and_clear() {
        let mut tenants = TenantIdSource::new();
        let t = tenants.mint();
        let u = tenants.mint();
        let mut e = engine(0, 128);
        assert_eq!(e.lane_width(), 128);
        occupy(&mut e, 0, t, &["x"]);
        let mut ids = RequestIdSource::new();
        for i in 0..128 {
            let (_, full) = e.submit(0, t, &[("x", i % 2 == 0)], &mut ids).unwrap();
            assert_eq!(full, i == 127, "lane {i}");
        }
        assert_eq!(
            e.submit(0, t, &[("x", true)], &mut ids),
            Err(ServiceError::SlotBacklogged { shard: 0, ctx: 0 })
        );
        // a discard empties the 128-lane batch in place
        assert_eq!(e.discard_pending(0, t).unwrap(), 128);
        for i in 0..65 {
            e.submit(0, t, &[("x", true)], &mut ids)
                .unwrap_or_else(|err| panic!("lane {i} after the discard refused: {err:?}"));
        }
        // a slot adopted later batches at the engine's width too
        occupy(&mut e, 1, u, &["y"]);
        for _ in 0..65 {
            e.submit(1, u, &[("y", false)], &mut ids).unwrap();
        }
        assert_eq!(e.pending_requests(), 65 + 65);
        // a width change keeps every slot's columns
        e.discard_pending(0, t).unwrap();
        e.discard_pending(1, u).unwrap();
        e.set_lane_width(64).unwrap();
        let batch = &e.occupant(1, u).unwrap().batch;
        assert_eq!((batch.width(), batch.columns()), (64, &cols(&["y"])));
        assert_eq!(e.lane_width(), 64);
        // width bounds are validated
        let params = FabricParams::default();
        assert!(ShardEngine::new(0, params, 0).is_err());
        assert!(ShardEngine::new(0, params, MAX_LANES + 1).is_err());
        assert!(e.set_lane_width(0).is_err());
    }

    #[test]
    fn ids_stay_global_and_refusals_burn_nothing() {
        let mut tenants = TenantIdSource::new();
        let t = tenants.mint();
        let u = tenants.mint();
        let mut ids = RequestIdSource::new();
        let mut e = engine(0, LANES);
        occupy(&mut e, 0, t, &[]);
        occupy(&mut e, 1, u, &[]);
        let (r0, _) = e.submit(0, t, &[], &mut ids).unwrap();
        let (r1, _) = e.submit(1, u, &[], &mut ids).unwrap();
        assert!(r0 < r1);
        // a refused push must not consume an id, nor a tenant the slot
        // does not hold
        e.expel(t, 0).unwrap();
        occupy(&mut e, 0, t, &["x"]);
        assert!(e.submit(0, t, &[("nope", true)], &mut ids).is_err());
        assert!(e.submit(0, u, &[], &mut ids).is_err());
        let (r2, _) = e.submit(1, u, &[], &mut ids).unwrap();
        assert_eq!(r2.value(), r1.value() + 1, "refusal burned an id");
    }
}
