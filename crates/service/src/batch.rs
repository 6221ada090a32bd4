//! Request coalescing: many tenants' single-vector requests become few
//! full-lane fabric passes.
//!
//! Since the per-shard-engine decomposition, a [`BatchQueue`] is **one
//! shard's** partition of the service's pending work: one
//! [`LaneBatch`] per context slot, owned by that shard's
//! [`crate::engine::ShardEngine`] so engines can flush concurrently
//! without sharing queue state. Request ids, however, are service-global
//! (responses are ordered and audited by id), so the queue never mints
//! them itself — the coordinator owns the single [`RequestIdSource`] and
//! lends it to whichever engine is enqueuing. The queue only *holds*
//! work; execution (and therefore flushing policy) belongs to the engine.

use crate::registry::TenantId;
use mcfpga_fabric::compiled::{LaneBatch, PushRefusal, LANES};
use mcfpga_fabric::FabricError;
use std::sync::Arc;

/// Opaque handle of one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The raw id, as recorded in checkpoint audit trails. There is no
    /// inverse: ids enter the system only through the service's single
    /// [`RequestIdSource`], so a deserialized checkpoint can never mint an
    /// id that collides with (or resurrects) one this service issued.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// The service-global request-id counter.
///
/// Exactly one exists per service, owned by the coordinator — engines
/// borrow it at enqueue/restore time, which is what keeps ids globally
/// unique and issued in submit order even though each engine owns its own
/// queue partition. Ids are only minted *after* a push succeeds, so a
/// refused request burns nothing.
#[derive(Debug, Clone, Default)]
pub struct RequestIdSource {
    next: u64,
}

impl RequestIdSource {
    /// A source starting at id 0.
    #[must_use]
    pub fn new() -> Self {
        RequestIdSource::default()
    }

    /// Issues the next id.
    pub fn mint(&mut self) -> RequestId {
        let id = RequestId(self.next);
        self.next += 1;
        id
    }
}

/// One completed request: the tenant's outputs for its input vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request this answers.
    pub request: RequestId,
    /// The tenant that submitted it.
    pub tenant: TenantId,
    /// Named output values, demuxed from the request's lane: a view of
    /// the lane's row in the output table its pass wrote, so demuxing a
    /// full batch allocates nothing per response and touches no name's
    /// reference count.
    pub outputs: Outputs,
}

/// One pass's output table: lane-major rows of `(output name, value)`,
/// one row per visible output per lane, in the plane's output order.
pub(crate) type OutputRows = Vec<(Arc<str>, bool)>;

/// A response's named output values, in netlist output order: a
/// read-only view of one lane's row in a shared **output table**.
///
/// The engine writes each pass's visible outputs into one table per
/// context slot and hands every lane a view of its row. A table is
/// rewritten by a later pass only once no view of it is left (the
/// engine's `Arc::get_mut` guard), so a held view never changes. Derefs
/// to a slice, and compares and prints like one.
///
/// A view keeps its **whole** table alive — every lane's rows of the
/// pass, up to 256 lanes × visible outputs — even after the slot's pool
/// has evicted that table. Code that keeps a few responses for long
/// (a sample, the latest answer per tenant) should store
/// `outputs.to_vec()` instead, which holds only the lane's own rows.
#[derive(Clone)]
pub struct Outputs {
    table: Arc<OutputRows>,
    start: usize,
    end: usize,
}

impl Outputs {
    /// The view of `table[start..end]`.
    pub(crate) fn view(table: &Arc<OutputRows>, start: usize, end: usize) -> Self {
        debug_assert!(start <= end && end <= table.len(), "view outside its table");
        Outputs {
            table: Arc::clone(table),
            start,
            end,
        }
    }
}

impl std::ops::Deref for Outputs {
    type Target = [(Arc<str>, bool)];

    fn deref(&self) -> &Self::Target {
        &self.table[self.start..self.end]
    }
}

impl From<Vec<(Arc<str>, bool)>> for Outputs {
    /// A view of a table holding exactly `rows`.
    fn from(rows: Vec<(Arc<str>, bool)>) -> Self {
        let end = rows.len();
        Outputs {
            table: Arc::new(rows),
            start: 0,
            end,
        }
    }
}

impl PartialEq for Outputs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Outputs {}

impl std::fmt::Debug for Outputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Work pending on one context slot.
#[derive(Debug, Clone)]
struct PendingSlot {
    batch: LaneBatch,
    tickets: Vec<(RequestId, TenantId)>,
    /// Length of the canonical (seeded, deduplicated) input-name prefix —
    /// what [`BatchQueue::enqueue`] requires every request to cover.
    seeded: usize,
}

impl PendingSlot {
    fn with_width(width: usize) -> Result<Self, FabricError> {
        Ok(PendingSlot {
            batch: LaneBatch::with_width(width)?,
            tickets: Vec::new(),
            seeded: 0,
        })
    }
}

/// One shard's per-context accumulation of single-vector requests into
/// lane batches. Every slot batches up to [`width`](Self::width) lanes —
/// the queue remembers its width so freed and taken slots are rebuilt at
/// the same capacity.
#[derive(Debug, Clone)]
pub struct BatchQueue {
    slots: Vec<PendingSlot>,
    width: usize,
}

/// A slot's pending work, handed out by [`BatchQueue::take`].
#[derive(Debug, Clone)]
pub struct TakenBatch {
    /// The coalesced lane batch (non-empty).
    pub batch: LaneBatch,
    /// Per-lane `(request, tenant)` tickets, in lane order.
    pub tickets: Vec<(RequestId, TenantId)>,
}

impl BatchQueue {
    /// An empty queue over one shard's `contexts` slots at the legacy
    /// width of [`LANES`] (64) lanes per slot.
    #[must_use]
    pub fn new(contexts: usize) -> Self {
        Self::with_width(contexts, LANES).expect("the 64-lane legacy width is always valid")
    }

    /// An empty queue whose every slot batches up to `width` lanes
    /// (`1..=MAX_LANES`; see
    /// [`mcfpga_fabric::compiled::MAX_LANES`]).
    pub fn with_width(contexts: usize, width: usize) -> Result<Self, FabricError> {
        let mut slots = Vec::with_capacity(contexts);
        for _ in 0..contexts {
            slots.push(PendingSlot::with_width(width)?);
        }
        Ok(BatchQueue { slots, width })
    }

    /// Lanes per slot.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Seeds a slot's canonical input-name prefix (bound inputs, in bind
    /// order; duplicates collapse) so [`enqueue`](Self::enqueue) can verify
    /// coverage of every bound input within its single name-resolution
    /// scan. Call at admission and again after a [`take`](Self::take) that
    /// is not [`recycle`](Self::recycle)d (a fresh slot starts unseeded).
    pub fn seed<'a>(&mut self, ctx: usize, names: impl Iterator<Item = &'a str>) {
        let slot = &mut self.slots[ctx];
        let mut prefix = 0;
        for name in names {
            slot.batch.ensure_name(name);
            let idx = slot
                .batch
                .name_index(name)
                .expect("name was just ensured into the union");
            prefix = prefix.max(idx + 1);
        }
        slot.seeded = prefix;
    }

    /// Enqueues one single-vector request on its tenant's slot, verifying
    /// it drives the slot's whole canonical prefix (see
    /// [`seed`](Self::seed)). Mints the request id from the coordinator's
    /// `ids` source only on success, and returns it with whether the
    /// slot's [`width`](Self::width) lanes are now full (the caller should
    /// flush before the
    /// next enqueue). [`PushRefusal::Full`] means the slot already holds a
    /// full, unflushed batch (a previous flush failed and left its requests
    /// queued); [`PushRefusal::MissingInput`] leaves the slot unchanged.
    pub fn enqueue(
        &mut self,
        ctx: usize,
        tenant: TenantId,
        inputs: &[(&str, bool)],
        ids: &mut RequestIdSource,
    ) -> Result<(RequestId, bool), PushRefusal> {
        let slot = &mut self.slots[ctx];
        let lane = slot.batch.push_covering(inputs, slot.seeded)?;
        debug_assert_eq!(lane, slot.tickets.len());
        let id = ids.mint();
        slot.tickets.push((id, tenant));
        Ok((id, slot.batch.is_full()))
    }

    /// The input name at `idx` of a slot's union (for refusal reporting).
    #[must_use]
    pub fn input_name(&self, ctx: usize, idx: usize) -> Option<&str> {
        self.slots[ctx].batch.input_name(idx)
    }

    /// Context slots that currently hold pending work, ascending.
    #[must_use]
    pub fn pending(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.batch.is_empty())
            .map(|(ctx, _)| ctx)
            .collect()
    }

    /// Total requests pending across this shard's slots.
    #[must_use]
    pub fn pending_total(&self) -> usize {
        self.slots.iter().map(|s| s.tickets.len()).sum()
    }

    /// Borrows a slot's pending lane batch without removing it, or `None`
    /// when empty. Lets the executor evaluate first and [`take`](Self::take)
    /// only on success, so a failed pass leaves the requests queued instead
    /// of dropping them.
    #[must_use]
    pub fn slot(&self, ctx: usize) -> Option<&LaneBatch> {
        let slot = &self.slots[ctx];
        (!slot.batch.is_empty()).then_some(&slot.batch)
    }

    /// Borrows a slot's lane batch whether or not it holds work — the
    /// union names (canonical prefix included) are live even on an empty
    /// batch, which is what admission-time index resolution needs.
    #[must_use]
    pub fn batch(&self, ctx: usize) -> &LaneBatch {
        &self.slots[ctx].batch
    }

    /// A slot's per-lane `(request, tenant)` tickets, lane order — what a
    /// checkpoint records as its pending-request audit trail.
    #[must_use]
    pub fn tickets(&self, ctx: usize) -> &[(RequestId, TenantId)] {
        &self.slots[ctx].tickets
    }

    /// Moves a [`TakenBatch`] into an **empty** slot wholesale, tickets
    /// and all — the live-migration path, which must preserve request ids
    /// so every in-flight request is still answered exactly once. The
    /// slot's canonical prefix is unchanged (the caller seeds it for the
    /// destination plane first).
    pub fn install(&mut self, ctx: usize, taken: TakenBatch) {
        let slot = &mut self.slots[ctx];
        assert!(
            slot.batch.is_empty() && slot.tickets.is_empty(),
            "install target (ctx {ctx}) already holds work"
        );
        slot.batch = taken.batch;
        slot.tickets = taken.tickets;
    }

    /// Re-queues a deserialized pending batch into an **empty** slot,
    /// minting a *fresh* request id per occupied lane (returned in lane
    /// order). Restored checkpoints never reuse their recorded ids: the
    /// originals may have been answered or discarded since the checkpoint
    /// was taken, and a resurrected id would break queue conservation.
    pub fn restore(
        &mut self,
        ctx: usize,
        batch: LaneBatch,
        tenant: TenantId,
        ids: &mut RequestIdSource,
    ) -> Vec<RequestId> {
        let slot = &mut self.slots[ctx];
        assert!(
            slot.batch.is_empty() && slot.tickets.is_empty(),
            "restore target (ctx {ctx}) already holds work"
        );
        let lanes = batch.len();
        slot.batch = batch;
        let fresh: Vec<RequestId> = (0..lanes).map(|_| ids.mint()).collect();
        slot.tickets.extend(fresh.iter().map(|&id| (id, tenant)));
        fresh
    }

    /// Fully resets a slot — union names, tickets and canonical prefix all
    /// drop. Called when a slot is *freed* (its tenant migrated away): a
    /// recycled empty batch still carries the old tenant's union names,
    /// and a future occupant seeding on top of them would compute a
    /// canonical prefix longer than its own union, refusing every submit.
    pub fn clear_slot(&mut self, ctx: usize) {
        self.slots[ctx] =
            PendingSlot::with_width(self.width).expect("width validated at construction");
    }

    /// Removes and returns a slot's pending work, or `None` when empty.
    /// The slot's canonical-prefix length survives the take, but the fresh
    /// batch holds no names until [`recycle`](Self::recycle) or
    /// [`seed`](Self::seed) restores them.
    pub fn take(&mut self, ctx: usize) -> Option<TakenBatch> {
        let slot = &mut self.slots[ctx];
        if slot.batch.is_empty() {
            return None;
        }
        // replace with a fresh batch at the queue's own width — a
        // `mem::take` default would silently shrink the slot back to the
        // legacy 64 lanes on any take that is not recycled
        let fresh = LaneBatch::with_width(self.width).expect("width validated at construction");
        Some(TakenBatch {
            batch: std::mem::replace(&mut slot.batch, fresh),
            tickets: std::mem::take(&mut slot.tickets),
        })
    }

    /// Returns a consumed [`TakenBatch`]'s buffers to their slot for reuse
    /// (cleared, keeping capacity), if the slot is still empty — the
    /// allocation-recycling half of [`LaneBatch::clear`]. Union names the
    /// flushed requests appended beyond the canonical prefix (unbound
    /// extras) are dropped, so the name union stays bounded over the
    /// service's lifetime.
    pub fn recycle(&mut self, ctx: usize, taken: TakenBatch) {
        let slot = &mut self.slots[ctx];
        if slot.batch.is_empty() && slot.tickets.is_empty() && slot.batch.name_count() == 0 {
            let TakenBatch {
                mut batch,
                mut tickets,
            } = taken;
            batch.clear();
            batch.truncate_names(slot.seeded);
            tickets.clear();
            slot.batch = batch;
            slot.tickets = tickets;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_fabric::compiled::LANES;

    fn tenant(reg: &mut crate::TenantRegistry, name: &str) -> TenantId {
        let p = reg.reserve().unwrap();
        reg.commit(name, p, 0)
    }

    #[test]
    fn fills_a_slot_lane_by_lane() {
        let mut reg = crate::TenantRegistry::new(1, 4).unwrap();
        let t = tenant(&mut reg, "a");
        let mut q = BatchQueue::new(4);
        let mut ids = RequestIdSource::new();
        for i in 0..LANES {
            let (_, full) = q.enqueue(0, t, &[("x", i % 2 == 0)], &mut ids).unwrap();
            assert_eq!(full, i == LANES - 1, "lane {i}");
        }
        assert_eq!(q.pending_total(), LANES);
        assert_eq!(q.pending(), vec![0]);
        // a full, unflushed slot refuses further enqueues instead of panicking
        assert_eq!(
            q.enqueue(0, t, &[("x", true)], &mut ids),
            Err(PushRefusal::Full)
        );
        let taken = q.take(0).unwrap();
        assert_eq!(taken.tickets.len(), LANES);
        assert!(taken.batch.is_full());
        assert_eq!(q.pending_total(), 0);
        assert!(q.take(0).is_none());
    }

    #[test]
    fn slots_are_independent() {
        let mut reg = crate::TenantRegistry::new(2, 2).unwrap();
        let a = tenant(&mut reg, "a"); // shard 0, ctx 0
        let b = tenant(&mut reg, "b"); // shard 1, ctx 0
        let mut ids = RequestIdSource::new();
        // one queue per shard now; a shared id source keeps ids global
        let mut q0 = BatchQueue::new(2);
        let mut q1 = BatchQueue::new(2);
        q0.enqueue(0, a, &[("x", true)], &mut ids).unwrap();
        q1.enqueue(0, b, &[("y", false)], &mut ids).unwrap();
        q1.enqueue(0, b, &[("y", true)], &mut ids).unwrap();
        assert_eq!(q0.pending(), vec![0]);
        assert_eq!(q1.pending(), vec![0]);
        assert_eq!(q1.take(0).unwrap().tickets.len(), 2);
        assert_eq!(q0.pending_total() + q1.pending_total(), 1);
    }

    #[test]
    fn seed_dedups_and_gates_enqueue() {
        let mut reg = crate::TenantRegistry::new(1, 4).unwrap();
        let t = tenant(&mut reg, "a");
        let mut q = BatchQueue::new(4);
        let mut ids = RequestIdSource::new();
        // duplicate bound names collapse: coverage needs 2 names, not 3
        q.seed(0, ["x", "x", "y"].into_iter());
        assert_eq!(
            q.enqueue(0, t, &[("x", true)], &mut ids),
            Err(PushRefusal::MissingInput(1))
        );
        assert_eq!(q.input_name(0, 1), Some("y"));
        // any order, extras allowed
        q.enqueue(0, t, &[("y", true), ("x", false), ("zz", true)], &mut ids)
            .unwrap();
        assert_eq!(q.pending_total(), 1);
    }

    #[test]
    fn recycle_trims_request_added_names() {
        let mut reg = crate::TenantRegistry::new(1, 4).unwrap();
        let t = tenant(&mut reg, "a");
        let mut q = BatchQueue::new(4);
        let mut ids = RequestIdSource::new();
        q.seed(0, ["a"].into_iter());
        q.enqueue(0, t, &[("a", true), ("extra", true)], &mut ids)
            .unwrap();
        let taken = q.take(0).unwrap();
        q.recycle(0, taken);
        // the canonical prefix survives; the request's extra name is gone
        assert_eq!(q.input_name(0, 0), Some("a"));
        assert_eq!(q.input_name(0, 1), None);
        // coverage still enforced after recycling
        assert_eq!(
            q.enqueue(0, t, &[("other", true)], &mut ids),
            Err(PushRefusal::MissingInput(0))
        );
        q.enqueue(0, t, &[("a", false)], &mut ids).unwrap();
    }

    #[test]
    fn wide_queue_fills_past_64_and_keeps_width_through_take_and_clear() {
        use mcfpga_fabric::compiled::MAX_LANES;
        let mut reg = crate::TenantRegistry::new(1, 2).unwrap();
        let t = tenant(&mut reg, "a");
        let mut q = BatchQueue::with_width(2, 128).unwrap();
        assert_eq!(q.width(), 128);
        let mut ids = RequestIdSource::new();
        for i in 0..128 {
            let (_, full) = q.enqueue(0, t, &[("x", i % 2 == 0)], &mut ids).unwrap();
            assert_eq!(full, i == 127, "lane {i}");
        }
        assert_eq!(
            q.enqueue(0, t, &[("x", true)], &mut ids),
            Err(PushRefusal::Full)
        );
        // take hands out the 128-lane batch and leaves a 128-wide slot
        let taken = q.take(0).unwrap();
        assert_eq!(taken.batch.len(), 128);
        for i in 0..65 {
            q.enqueue(0, t, &[("x", true)], &mut ids)
                .unwrap_or_else(|e| panic!("lane {i} after take refused: {e:?}"));
        }
        // clear_slot also rebuilds at the queue's width, not the default
        q.clear_slot(1);
        for _ in 0..65 {
            q.enqueue(1, t, &[("y", false)], &mut ids).unwrap();
        }
        assert_eq!(q.pending_total(), 65 + 65);
        // width bounds are validated
        assert!(BatchQueue::with_width(1, 0).is_err());
        assert!(BatchQueue::with_width(1, MAX_LANES + 1).is_err());
    }

    #[test]
    fn ids_stay_global_and_refusals_burn_nothing() {
        let mut reg = crate::TenantRegistry::new(1, 2).unwrap();
        let t = tenant(&mut reg, "a");
        let mut ids = RequestIdSource::new();
        let mut q = BatchQueue::new(2);
        let (r0, _) = q.enqueue(0, t, &[], &mut ids).unwrap();
        let (r1, _) = q.enqueue(1, t, &[], &mut ids).unwrap();
        assert!(r0 < r1);
        // a refused push must not consume an id
        q.seed(0, ["x"].into_iter());
        assert!(q.enqueue(0, t, &[("nope", true)], &mut ids).is_err());
        let (r2, _) = q.enqueue(1, t, &[], &mut ids).unwrap();
        assert_eq!(r2.value(), r1.value() + 1, "refusal burned an id");
    }
}
